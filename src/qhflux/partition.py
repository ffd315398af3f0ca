"""Quasi-hole partition functions: Upsilon determinants, their exact
derivatives, the closed-form normalization, and Schur-complement densities."""

from __future__ import annotations

import cmath
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
    """The kernel matrix is numerically singular: its determinant, scaled to
    unit diagonal, is below UPSILON_FLOOR n (see resolved_rows)."""


@dataclass(frozen=True)
class HoleConfig:
    """Quasi-hole positions w in C^n with bath size N and field strength b."""

    w: tuple[complex, ...]
    N: int
    b: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "w", tuple(complex(v) for v in self.w))
        if not all(cmath.isfinite(v) for v in self.w):
            raise ValueError("hole positions must be finite")
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

    def require_distinct(self):
        if coincident_rows(self.points()[None, :])[0]:
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


def coincident_rows(holes) -> np.ndarray:
    """For each row of a (B, n) hole stack, whether two of its holes coincide."""
    # equal holes sort next to each other
    w = np.sort(np.asarray(holes, dtype=complex), axis=1)
    return (w[:, 1:] == w[:, :-1]).any(axis=1)


def resolved_rows(b: float, M: int, holes, ups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(corr, resolved) for each row of a (B, n) hole stack with Upsilon ups:
    the one rule by which every caller refuses Upsilon as rounding noise.

    corr is Upsilon / prod_i Q(M, b|w_i|^2).  The diagonal of
    (pi/b) K_M(w, w) is Q(M, b|w|^2), so this is the determinant of the
    kernel matrix scaled to unit diagonal: it measures the conditioning,
    where raw Upsilon is also small when a hole merely sits outside the
    droplet.  A row is resolved when corr >= UPSILON_FLOOR n, which a
    singular row (Upsilon 0) or a negative Upsilon never is.
    """
    w = np.asarray(holes, dtype=complex)
    q = np.prod(gammaincc(M, b * np.abs(w) ** 2), axis=1)
    # where prod Q underflows to 0, so does Upsilon: the ratio counts as 0
    corr = np.divide(ups, q, out=np.zeros_like(ups), where=q > 0.0)
    return corr, corr >= UPSILON_FLOOR * w.shape[1]


def _kernel_stack(b: float, M: int, holes):
    """Hole orbital tables orb = weighted_orbitals, shape (B, n, M), the same
    scaled by sqrt(pi/b) as phi, the kernel matrices phi phi^H =
    (pi/b) [K_M(w_a, w_c)] and their determinants Upsilon for a (B, n) stack
    of holes.  A row whose determinant is below PIVOT_FLOOR, or not finite as
    numpy's det can be for denormal kernel entries, is singular: Upsilon 0."""
    w = np.asarray(holes, dtype=complex)
    if w.ndim != 2:
        raise ValueError("holes must have shape (B, n)")
    B, n = w.shape
    orb = weighted_orbitals(b, M, w.ravel()).reshape(B, n, M)
    phi = math.sqrt(math.pi / b) * orb
    kernel = phi @ phi.conj().swapaxes(1, 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ups = np.linalg.det(kernel).real
    ups[~(np.abs(ups) >= PIVOT_FLOOR)] = 0.0    # NaN included
    return orb, phi, kernel, ups


def upsilon_stack(b: float, M: int, holes) -> np.ndarray:
    """Upsilon for each row of a (B, n) hole stack, from one orbital table
    and one stacked determinant; 0 where the kernel matrix is singular."""
    return _kernel_stack(b, M, holes)[3]


def upsilon(cfg: HoleConfig) -> float:
    """det[(pi/b) K_{N+n}(w_i, w_j)], in [0, 1]; 0 for coincident points."""
    holes = cfg.points()[None, :]
    if coincident_rows(holes)[0]:
        return 0.0
    return float(upsilon_stack(cfg.b, cfg.spec.M, holes)[0])


def _resolved_upsilon(cfg: HoleConfig):
    """Orbital table, kernel matrix and Upsilon of one configuration, or
    SingularMatrixError where Upsilon is rounding noise."""
    cfg.require_distinct()
    holes = cfg.points()[None, :]
    _, phi, kernel, ups = _kernel_stack(cfg.b, cfg.spec.M, holes)
    if not resolved_rows(cfg.b, cfg.spec.M, holes, ups)[1][0]:
        raise SingularMatrixError(f"Upsilon = {ups[0]:.3e} is rounding noise: below "
                                  "PIVOT_FLOOR, or below UPSILON_FLOOR n times prod Q")
    return phi[0], kernel[0], float(ups[0])


def log_upsilon(cfg: HoleConfig) -> float:
    """log Upsilon, refused (SingularMatrixError) where Upsilon is rounding noise."""
    return 0.0 if cfg.n == 0 else math.log(_resolved_upsilon(cfg)[2])


def upsilon_derivative_stack(b: float, M: int, holes, j: int
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Upsilon, d_j Upsilon, d_j dbar_j Upsilon and the correlation ratio of
    resolved_rows for a stack of configurations.

    holes has shape (B, n): one configuration of n holes per row,
    all with field strength b and M orbitals; j is the tracer.  Only row j
    and column j of the kernel matrix depend on w_j, so each derivative
    matrix is built from hole j's first-order and mixed orbital tables,
    derived from the orbital table the determinant already uses.  Its
    (j, j) entry is a derivative of (pi/b) K_M(w, w) = Q(M, t), t = b|w|^2,
    whose t-derivatives are single tail terms; it is set from those, since
    the sum over orbitals would cancel O(b) terms down to ~eps b instead of
    to the tail.  The (B, n, n) kernel matrices go through one stacked
    determinant and one stacked inverse, and Jacobi's formula gives the
    derivatives.  Returns four arrays of shape (B,); the derivatives are NaN
    on exactly the rows that resolved_rows refuses, whose kernel matrices
    are not inverted.
    """
    orb, phi, kernel, ups = _kernel_stack(b, M, holes)
    n = phi.shape[1]
    w = np.asarray(holes, dtype=complex)[:, j]
    t10, t01, t11 = (math.sqrt(math.pi / b) * t for t in
                     orbital_derivatives(b, orb[:, j], w, [(1, 0), (0, 1), (1, 1)]).values())
    last = np.abs(phi[:, j, M - 2:]) ** 2            # t^k e^{-t}/k! at k = M-2, M-1
    q1, q2 = -last[:, 1], last[:, 1] - last[:, 0]    # d/dt and d^2/dt^2 of Q(M, t)
    phi_h = phi.conj().swapaxes(1, 2)

    def tracer_matrix(row, col, diag):
        # row j is row phi^H and column j is phi col^H
        out = np.zeros_like(kernel)
        out[:, j, :] = (row[:, None, :] @ phi_h)[:, 0]
        out[:, :, j] = (phi @ col.conj()[:, :, None])[:, :, 0]
        out[:, j, j] = diag
        return out

    corr, resolved = resolved_rows(b, M, holes, ups)
    inverse = np.linalg.inv(np.where(resolved[:, None, None], kernel, np.eye(n)))
    d = inverse @ tracer_matrix(t10, t01, b * w.conj() * q1)
    dbar = inverse @ tracer_matrix(t01, t10, b * w * q1)
    ddbar = inverse @ tracer_matrix(t11, t11, b ** 2 * w * w.conj() * q2 + b * q1)
    first = np.trace(d, axis1=1, axis2=2)
    second = (first * np.trace(dbar, axis1=1, axis2=2)
              - np.trace(dbar @ d, axis1=1, axis2=2) + np.trace(ddbar, axis1=1, axis2=2))
    d1, d11 = ups * first, ups * second
    d1[~resolved] = d11[~resolved] = complex(np.nan, np.nan)
    return ups, d1, d11, corr


def log_partition(cfg: HoleConfig) -> PartitionValue:
    """Exact log of the squared-norm normalization of the quasi-hole state.

    The closed form multiplies N! pi^N prod_{k<N+n} k! b^{n-(N+n)(N+n+1)/2}
    by exp(b sum |w_j|^2) Upsilon / |Vandermonde|^2; at n = 0 it reduces to
    pi^N prod k! b^{-N(N+1)/2}.
    """
    log_ups = log_upsilon(cfg)    # refuses coincident holes first
    N, n, b = cfg.N, cfg.n, cfg.b
    log_gamma = (float(gammaln(N + 1)) + N * math.log(math.pi)
                 + cumulative_log_factorials(N + n - 1)
                 + (n - (N + n) * (N + n + 1) / 2.0) * math.log(b))
    b_sum = b * float(np.sum(np.abs(cfg.points()) ** 2))
    log_vdm = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            log_vdm += math.log(abs(cfg.w[j] - cfg.w[i]))
    total = log_gamma + b_sum - 2.0 * log_vdm + log_ups
    return PartitionValue(log_value=total, log_gamma=log_gamma, b_sum_sq=b_sum,
                          minus_two_log_vandermonde=-2.0 * log_vdm,
                          log_upsilon=log_ups)


def theta(cfg: HoleConfig, z: complex) -> float:
    """Schur-complement density nu*(z) M^{-1} nu(z), in [0, K_{N+n}(z,z)];
    refused (SingularMatrixError) where Upsilon(w) is rounding noise."""
    return theta_polarized(cfg, z, z).real


def theta_polarized(cfg: HoleConfig, zeta: complex, z: complex) -> complex:
    """Polarized Schur density nu*(z) M^{-1} nu(zeta), with M[i, l] =
    K(w_l, w_i) and nu(z)[i] = K(z, w_i); refused like theta."""
    if cfg.n < 1:
        raise ValueError("the Schur density needs at least one hole")
    phi, kernel, _ = _resolved_upsilon(cfg)
    # phi and kernel carry sqrt(pi/b) and pi/b, which cancel in nu* M^{-1} nu
    nu = weighted_orbitals(cfg.b, cfg.spec.M, np.array([z, zeta])) @ phi.conj().T
    return complex(np.conj(nu[0]) @ np.linalg.solve(kernel.T, nu[1]))


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
