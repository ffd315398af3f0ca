"""Quasi-hole partition functions: Upsilon determinants, their exact
derivatives, the closed-form normalization, and Schur-complement densities."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc, gammaln

from .kernel import KernelSpec, orbital_derivatives, weighted_orbitals

PIVOT_FLOOR = 1e-300
# per hole: the determinant of the kernel matrix scaled to unit diagonal,
# Upsilon / prod_i Q(M, b|w_i|^2), computed within this of zero is rounding
# noise whatever its sign (measured up to ~15 eps at n = 4)
UPSILON_FLOOR = 64 * np.finfo(float).eps


class SingularConfigurationError(Exception):
    """Operation requires pairwise distinct hole positions."""


class SingularMatrixError(Exception):
    """The kernel matrix is numerically singular: its determinant is below
    PIVOT_FLOOR or, scaled to unit diagonal, below UPSILON_FLOOR n."""


@dataclass(frozen=True)
class HoleConfig:
    """Quasi-hole positions w in C^n with bath size N and field strength b."""

    w: tuple[complex, ...]
    N: int
    b: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "w", tuple(complex(v) for v in self.w))
        if self.N < 1:
            raise ValueError("bath size N must be at least 1")
        if self.b is None:
            object.__setattr__(self, "b", float(self.N))
        elif self.b <= 0:
            raise ValueError("field strength b must be positive")

    @property
    def n(self) -> int:
        return len(self.w)

    @property
    def spec(self) -> KernelSpec:
        return KernelSpec(b=self.b, M=self.N + self.n)

    def points(self) -> np.ndarray:
        return np.asarray(self.w, dtype=complex)

    def has_coincident_pair(self) -> bool:
        return any(self.w[i] == self.w[j]
                   for i in range(self.n) for j in range(i + 1, self.n))

    def require_distinct(self):
        if self.has_coincident_pair():
            raise SingularConfigurationError("hole positions must be pairwise distinct")


@dataclass(frozen=True)
class PartitionValue:
    """log of the squared-norm normalization together with its four pieces."""

    log_value: float
    log_gamma: float
    b_sum_sq: float
    minus_two_log_vandermonde: float
    log_upsilon: float


_LOGFACT_CUM = np.zeros(1)


def cumulative_log_factorials(m: int) -> float:
    """sum_{k=1}^{m} log k!, from a cached cumulative table."""
    global _LOGFACT_CUM
    if m >= _LOGFACT_CUM.size:
        size = max(m + 1, 1101)
        _LOGFACT_CUM = np.concatenate([[0.0], np.cumsum(gammaln(np.arange(2, size + 1)))])
    return float(_LOGFACT_CUM[m])


def correlation_ratio(b: float, M: int, holes: np.ndarray, ups: np.ndarray) -> np.ndarray:
    """Upsilon / prod_i Q(M, b|w_i|^2) for each row of a (B, n) hole stack.

    The diagonal of (pi/b) K_M(w, w) is Q(M, b|w|^2), so this is the
    determinant of the kernel matrix scaled to unit diagonal: it measures
    the conditioning, where raw Upsilon is also small when a hole merely
    sits outside the droplet.
    """
    return ups / np.prod(gammaincc(M, b * np.abs(holes) ** 2), axis=1)


def upsilon(cfg: HoleConfig) -> float:
    """det[(pi/b) K_{N+n}(w_i, w_j)], in [0, 1]; 0 for coincident points."""
    if cfg.has_coincident_pair():
        return 0.0
    return float(upsilon_derivative_stack(cfg.b, cfg.spec.M, cfg.points()[None, :])[0][0])


def _resolved_upsilon(cfg: HoleConfig) -> float:
    """Upsilon, or SingularMatrixError where it is rounding noise."""
    cfg.require_distinct()
    holes = cfg.points()[None, :]
    ups = upsilon_derivative_stack(cfg.b, cfg.spec.M, holes)[0]
    if ups[0] >= PIVOT_FLOOR and correlation_ratio(
            cfg.b, cfg.spec.M, holes, ups)[0] >= UPSILON_FLOOR * cfg.n:
        return float(ups[0])
    raise SingularMatrixError(f"Upsilon = {ups[0]:.3e} is rounding noise: below "
                              "PIVOT_FLOOR, or below UPSILON_FLOOR n times prod Q")


def log_upsilon(cfg: HoleConfig) -> float:
    """log Upsilon, refused (SingularMatrixError) where Upsilon is rounding noise."""
    return 0.0 if cfg.n == 0 else math.log(_resolved_upsilon(cfg))


def _slot_list(alpha, beta, n):
    alpha = tuple(int(a) for a in alpha)
    beta = tuple(int(a) for a in beta)
    if len(alpha) != n or len(beta) != n:
        raise ValueError("derivative multi-indices must have one entry per hole")
    slots = []
    for i, a in enumerate(alpha):
        slots.extend([(i, "h")] * a)
    for i, a in enumerate(beta):
        slots.extend([(i, "a")] * a)
    if len(slots) > 2:
        raise ValueError("upsilon_derivative supports total order at most 2")
    return slots


# orbital (d, dbar) orders that a holomorphic ("h") or antiholomorphic ("a")
# slot puts on the row factor D_z or the column factor D_w of K = D_z @ D_w^H
_SLOT_ORDERS = {
    ("row", "h"): (1, 0),
    ("row", "a"): (0, 1),
    ("col", "h"): (0, 1),
    ("col", "a"): (1, 0),
}
_HOLE_ORDERS = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2))


def _deriv_matrix(tables: dict, w: np.ndarray, b: float, slots) -> np.ndarray:
    """Entrywise slot derivative of (pi/b) [K_M(w_a, w_c)] for each row of a
    stack, from hole orbital tables of shape (B, n, M) scaled by sqrt(pi/b).

    Each slot differentiates the row factor (row i of D_z) or the column
    factor (row i of D_w).  The diagonal entry is a derivative of
    (pi/b) K_M(w, w) = sum_{j<M} t^j e^{-t}/j! with t = b|w|^2, whose t-derivatives
    are single tail terms; it is set from those, since the sum over factors
    would cancel O(b) terms down to ~eps b instead of to the tail.
    """
    phi = tables[(0, 0)]
    n, M = phi.shape[1:]
    idx = np.arange(n)
    out = np.zeros((phi.shape[0], n, n), dtype=complex)
    for assignment in itertools.product(("row", "col"), repeat=len(slots)):
        orders = {"row": (0, 0), "col": (0, 0)}
        mask = np.ones((n, n), dtype=bool)
        for (i, typ), side in zip(slots, assignment):
            orders[side] = tuple(x + y for x, y in zip(orders[side], _SLOT_ORDERS[(side, typ)]))
            mask &= (idx == i)[:, None] if side == "row" else (idx == i)[None, :]
        if mask.any():
            out += np.where(mask, tables[orders["row"]]
                            @ tables[orders["col"]].conj().swapaxes(1, 2), 0.0)
    holes = {i for i, _ in slots}
    if len(holes) == 1:
        (i,) = holes
        last = np.abs(phi[:, i, M - 2:]) ** 2       # t^j e^{-t}/j! at j = M-2, M-1
        dt = {1: -last[:, 1], 2: last[:, 1] - last[:, 0]}  # d^m/dt^m of the diagonal
        p = sum(typ == "h" for _, typ in slots)
        q = len(slots) - p
        wi = w[:, i]
        out[:, i, i] = sum(math.comb(p, k) * math.comb(q, k) * math.factorial(k)
                           * b ** (p + q - k) * wi ** (q - k) * wi.conj() ** (p - k)
                           * dt[p + q - k] for k in range(min(p, q) + 1))
    return out


def upsilon_derivative_stack(b: float, M: int, holes, *multi_indices
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Upsilon and its exact d^alpha dbar^beta for a stack of configurations.

    holes has shape (B, n): one configuration of n distinct holes per row,
    all with field strength b and M orbitals.  One orbital table serves all
    B n holes, the (B, n, n) kernel matrices go through one stacked LAPACK
    determinant and one stacked inverse, and the derivatives follow from
    Jacobi's formula.  alpha, beta are per-hole multi-indices of holomorphic
    and antiholomorphic orders, with |alpha| + |beta| <= 2.  Returns Upsilon,
    shape (B,), and the derivatives, shape (B, len(multi_indices)).  A row
    whose determinant is below PIVOT_FLOOR is singular: its Upsilon is 0 and
    its derivatives are NaN, so callers must reject it.  With no derivative
    of positive order asked for, only the orbital table and the determinant
    are computed.
    """
    w = np.asarray(holes, dtype=complex)
    if w.ndim != 2:
        raise ValueError("holes must have shape (B, n)")
    B, n = w.shape
    slot_lists = [_slot_list(alpha, beta, n) for alpha, beta in multi_indices]
    if n == 0:
        return np.ones(B), np.ones((B, len(slot_lists)), dtype=complex)
    derivative = any(slot_lists)
    tables = {k: math.sqrt(math.pi / b) * t.reshape(B, n, M) for k, t in
              orbital_derivatives(b, M, w.ravel(),
                                  _HOLE_ORDERS if derivative else [(0, 0)]).items()}
    base = _deriv_matrix(tables, w, b, [])
    ups = np.linalg.det(base).real
    singular = np.abs(ups) < PIVOT_FLOOR
    ups[singular] = 0.0
    if derivative:
        inverse = np.linalg.inv(np.where(singular[:, None, None], np.eye(n), base))
        single = {s: inverse @ _deriv_matrix(tables, w, b, [s])
                  for s in {s for slots in slot_lists for s in slots}}
    out = np.empty((B, len(slot_lists)), dtype=complex)
    for k, slots in enumerate(slot_lists):
        if not slots:
            out[:, k] = ups
            continue
        d = [single[s] for s in slots]
        bracket = np.trace(d[0], axis1=1, axis2=2)
        if len(slots) == 2:
            d12 = inverse @ _deriv_matrix(tables, w, b, slots)
            bracket = (bracket * np.trace(d[1], axis1=1, axis2=2)
                       - np.trace(d[1] @ d[0], axis1=1, axis2=2)
                       + np.trace(d12, axis1=1, axis2=2))
        out[:, k] = ups * bracket
    out[singular] = np.nan
    return ups, out


def upsilon_derivative(cfg: HoleConfig, alpha, beta) -> complex:
    """Exact d^alpha dbar^beta of Upsilon via Jacobi's formula.

    alpha, beta are per-hole multi-indices of holomorphic and antiholomorphic
    orders, with |alpha| + |beta| <= 2.  Raises SingularMatrixError on a
    singular kernel matrix, where Jacobi's formula has no inverse.
    """
    cfg.require_distinct()
    out = upsilon_derivative_stack(cfg.b, cfg.spec.M, cfg.points()[None, :],
                                   (alpha, beta))[1]
    if np.isnan(out).any():
        raise SingularMatrixError("kernel matrix determinant below PIVOT_FLOOR")
    return complex(out[0, 0])


def log_partition(cfg: HoleConfig) -> PartitionValue:
    """Exact log of the squared-norm normalization of the quasi-hole state.

    The closed form multiplies N! pi^N prod_{k<N+n} k! b^{n-(N+n)(N+n+1)/2}
    by exp(b sum |w_j|^2) Upsilon / |Vandermonde|^2; at n = 0 it reduces to
    pi^N prod k! b^{-N(N+1)/2}.
    """
    cfg.require_distinct()
    N, n, b = cfg.N, cfg.n, cfg.b
    log_gamma = (float(gammaln(N + 1)) + N * math.log(math.pi)
                 + cumulative_log_factorials(N + n - 1)
                 + (n - (N + n) * (N + n + 1) / 2.0) * math.log(b))
    b_sum = b * float(np.sum(np.abs(cfg.points()) ** 2))
    log_vdm = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            log_vdm += math.log(abs(cfg.w[j] - cfg.w[i]))
    log_ups = log_upsilon(cfg)
    total = log_gamma + b_sum - 2.0 * log_vdm + log_ups
    return PartitionValue(log_value=total, log_gamma=log_gamma, b_sum_sq=b_sum,
                          minus_two_log_vandermonde=-2.0 * log_vdm,
                          log_upsilon=log_ups)


def _paper_matrix_and_nu(cfg: HoleConfig, zs: np.ndarray):
    """M[i, j] = K(w_j, w_i) and nu(z)[i] = K(z, w_i) for a batch of z."""
    phi = weighted_orbitals(cfg.b, cfg.spec.M, cfg.points())
    m = (phi @ phi.conj().T).T
    nu = weighted_orbitals(cfg.b, cfg.spec.M, zs) @ phi.conj().T
    return m, nu


def theta(cfg: HoleConfig, z: complex) -> float:
    """Schur-complement density nu*(z) M^{-1} nu(z), in [0, K_{N+n}(z,z)];
    refused (SingularMatrixError) where Upsilon(w) is rounding noise."""
    if cfg.n < 1:
        raise ValueError("theta needs at least one hole")
    _resolved_upsilon(cfg)
    m, nu = _paper_matrix_and_nu(cfg, np.array([z]))
    return float(np.real(np.conj(nu[0]) @ np.linalg.solve(m, nu[0])))


def theta_polarized(cfg: HoleConfig, zeta: complex, z: complex) -> complex:
    """Polarized Schur density nu*(z) M^{-1} nu(zeta); refused like theta."""
    if cfg.n < 1:
        raise ValueError("theta_polarized needs at least one hole")
    _resolved_upsilon(cfg)
    m, nu = _paper_matrix_and_nu(cfg, np.array([z, zeta]))
    return complex(np.conj(nu[0]) @ np.linalg.solve(m, nu[1]))


def upsilon_prediction(cfg: HoleConfig, regime: str,
                       pair: tuple[int, int] | None = None) -> float:
    """Leading-order Upsilon: 1 away from merging, 1 - exp(-b s^2) for a
    single merging pair at separation s."""
    if regime == "no-merging":
        return 1.0
    if regime == "single-merging":
        if pair is None:
            raise ValueError("single-merging prediction needs the merging pair")
        i, j = pair
        s2 = abs(cfg.w[i] - cfg.w[j]) ** 2
        return -math.expm1(-cfg.b * s2)
    raise ValueError(f"no Upsilon prediction for regime {regime!r}")
