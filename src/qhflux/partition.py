"""Quasi-hole partition functions: Upsilon determinants, their exact
log-derivatives, the closed-form normalization, and Schur-complement densities.

One factorisation per hole stack serves every result on it: its orbital
table, kernel matrices and determinants, and, once asked for, the
coincidence test, the refusal rule, the stacked inverse, one Jacobi pass for
every tracer and the derivative-route fields of every tracer (A, V and the
refusals with the V rounding guard, which potentials.emergent_field_stack
hands out).  A stacked call builds its own and keeps nothing once it returns;
the per-configuration calls (upsilon, log_upsilon, log_partition, theta and
emergent_field_derivative) share one entry for the latest HoleConfig, equal
configs alike (_config_stack).  Its arrays are read-only; the oracles never
read it.

The pass needs no orbital-derivative table: phi_k(w) = phi_{k-1}(w) w sqrt(b/k)
turns d phi_k = sqrt(b k) phi_{k-1} - (b/2) zbar phi_k into
sum_{k<M} d phi_k(z) conj phi_k(w) = b wbar (K_M(z, w) - phi_{M-1}(z)
conj phi_{M-1}(w)) - (b/2) zbar K_M(z, w): kernel entries and the last orbital."""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .kernel import KernelSpec, poisson_mean, weighted_orbitals

PIVOT_FLOOR = 1e-300
# per hole: the determinant of the kernel matrix scaled to unit diagonal,
# Upsilon / prod_i Q(M, b|w_i|^2), computed within this of zero is rounding
# noise whatever its sign (measured up to ~15 eps at n = 4)
UPSILON_FLOOR = 64 * np.finfo(float).eps
# _Factors.fields estimates the rounding error of V_j, per tracer, as
# V_ERROR_SCALE (1 + b|w_j|^2) |dlog_j|^2 / (Upsilon / prod_i (pi/b) K_M(w_i, w_i))
# and refuses entries where it exceeds FIELD_ERROR_BUDGET N.  Against a
# 60-digit mpmath stencil (N = 64 to 1024, n <= 4, a pair 1e-6 to 1e-1 apart,
# every hole in |w| <= 1) it was 0.77 to 48 times the actual error of each
# pair tracer wherever that exceeded 1e-9 N.  Outside the droplet it is no
# bound: pairs at |w| 1.03 to 1.37 gave errors up to 1,100 times the estimate,
# and the pair of ROADMAP item 4 (N = 1024, |w| 1.3) 1,400 times.
V_ERROR_SCALE = 2 * np.finfo(float).eps
FIELD_ERROR_BUDGET = 1e-6


class SingularConfigurationError(Exception):
    """Operation requires pairwise distinct hole positions."""


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
        _check_bath_size(self.N)
        if self.b is None:
            object.__setattr__(self, "b", float(self.N))
        else:
            KernelSpec(self.b, 1)    # b finite and positive

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


def cumulative_log_factorials(m: int) -> float:
    """sum_{k=1}^{m} log k!, added in order from k = 1 (0 for m = 0)."""
    return float(np.cumsum([0.0] + [math.lgamma(k + 1) for k in range(1, m + 1)])[-1])


def coincident_rows(holes) -> np.ndarray:
    """For each row of a (B, n) hole stack, whether two of its holes coincide."""
    # equal holes sort next to each other
    w = np.sort(np.asarray(holes, dtype=complex), axis=1)
    return (w[:, 1:] == w[:, :-1]).any(axis=1)


def resolved_rows(kernel: np.ndarray, ups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(corr, resolved) for each row of a (B, n, n) stack of kernel matrices
    (pi/b) [K_M(w_a, w_c)] with determinants Upsilon ups: the one rule by
    which every caller refuses Upsilon as rounding noise.

    corr is Upsilon / prod_i Q(M, b|w_i|^2), where Q(M, b|w|^2) is the
    diagonal (pi/b) K_M(w, w), read off the kernel matrix; so corr is the
    determinant of the kernel matrix scaled to unit diagonal.  It measures
    the conditioning, where raw Upsilon is also small when a hole merely
    sits outside the droplet.  A row is resolved when corr >= UPSILON_FLOOR n,
    which a singular row (Upsilon 0) or a negative Upsilon never is.
    """
    q = np.prod(kernel.diagonal(axis1=1, axis2=2).real, axis=1)
    # where prod Q underflows to 0, so does Upsilon: the ratio counts as 0
    corr = np.divide(ups, q, out=np.zeros_like(ups), where=q > 0.0)
    return corr, corr >= UPSILON_FLOOR * kernel.shape[1]


class DegenerateConfigurationError(Exception):
    """Holes too close or too far out for double precision: Upsilon is
    rounding noise (resolved_rows), or a field route loses its accuracy."""


class _Factors:
    """One (B, n) hole stack's orbital tables phi = sqrt(pi/b)
    weighted_orbitals, shape (B, n, M), kernel matrices phi phi^H =
    (pi/b) [K_M(w_a, w_c)] and determinants Upsilon, all read-only.  A row
    whose determinant is below PIVOT_FLOOR, or not finite as numpy's det can
    be for denormal kernel entries, is singular: Upsilon 0.  The coincidence
    test, refusal rule, inverse, Jacobi pass and fields come on first use:
    Upsilon alone inverts nothing."""

    def __init__(self, b: float, M: int, w: np.ndarray):
        phi = math.sqrt(math.pi / b) * weighted_orbitals(b, M, w.ravel()).reshape(*w.shape, M)
        kernel = phi @ phi.conj().swapaxes(1, 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            ups = np.linalg.det(kernel).real
        ups[~(np.abs(ups) >= PIVOT_FLOOR)] = 0.0    # NaN included
        self.b, self.w, self.phi, self.kernel, self.ups = b, *_read_only(w.copy(), phi, kernel, ups)

    @cached_property
    def refusal(self) -> tuple[np.ndarray, np.ndarray]:
        """(corr, resolved) of resolved_rows."""
        return _read_only(*resolved_rows(self.kernel, self.ups))

    @cached_property
    def inverse(self) -> np.ndarray:
        """K^-1 on the resolved rows, the identity on the others."""
        n = self.kernel.shape[1]
        resolved = self.refusal[1][:, None, None]
        return _read_only(np.linalg.inv(np.where(resolved, self.kernel, np.eye(n))))[0]

    @cached_property
    def jacobi(self) -> tuple[np.ndarray, np.ndarray]:
        """(dlog, ddlog), (B, n), of log_upsilon_derivative_stack: column j is tracer j's."""
        b, phi, kernel, g, resolved = self.b, self.phi, self.kernel, self.inverse, self.refusal[1]
        M, diag = phi.shape[2], np.arange(phi.shape[1])
        # refused rows read their holes as 0: b^2 |w|^2 of one far out would overflow
        w = np.where(resolved[:, None], self.w, 0.0)
        # d/dt and d^2/dt^2 of Q(M, t) from t^k e^{-t}/k! at k = M-1 and M-2 (0 at M = 1)
        q1 = -np.abs(phi[:, :, M - 1]) ** 2
        q2 = -q1 - (np.abs(phi[:, :, M - 2]) ** 2 if M > 1 else 0.0)
        # d_j K = e_j rho^T + kappa e_j^T, rho = rows[j] and kappa = cols[:, j],
        # and d_j dbar_j K = e_j sigma^T + conj(sigma) e_j^T, sigma = sigma[j]
        rows = _derivative_rows(b, w, phi, kernel)
        rows[:, diag, diag] = 0.0
        cols = -0.5 * b * w.conj()[:, None, :] * kernel
        cols[:, diag, diag] = b * w.conj() * q1
        sigma = -0.5 * b * (kernel + w[:, :, None] * rows)
        sigma[:, diag, diag] = 0.5 * (b ** 2 * w * w.conj() * q2 + b * q1)
        rg, gk = rows @ g, g @ cols
        g_jj, rho_g, g_kappa = g[:, diag, diag], rg[:, diag, diag], gk[:, diag, diag]
        # with G = K^-1, tr(G dbar_j K G d_j K) = (rho^T G)_j (kappa^H G)_j
        # + (G conj(rho))_j (G kappa)_j + G_jj (rho^T G conj(rho) + kappa^H G kappa)
        cross = (rho_g * (cols.conj() * g).sum(axis=1) + (g * rows.conj()).sum(axis=2) * g_kappa
                 + g_jj * ((rg * rows.conj()).sum(axis=2) + (cols.conj() * gk).sum(axis=1)))
        ddlog = ((sigma * g.swapaxes(1, 2) + g * sigma.conj()).sum(axis=2) - cross).real
        dlog = rho_g + g_kappa
        dlog[~resolved] = ddlog[~resolved] = np.nan
        return _read_only(dlog, ddlog)

    @cached_property
    def coincident(self) -> np.ndarray:
        """coincident_rows of the holes, (B,)."""
        return _read_only(coincident_rows(self.w))[0]

    @cached_property
    def fields(self) -> tuple[np.ndarray, np.ndarray, tuple]:
        """A (B, n, 2), V (B, n) and the refusals of emergent_field_stack at
        N = b, M = N + n: ((row, j), error type, message) of each refused
        entry in its order.  The errors themselves are built per call, as
        one raised twice would keep each raise's traceback, and its frames,
        in the factorisation."""
        N, w, coincident, (dlog, ddlog) = self.b, self.w, self.coincident, self.jacobi
        corr, n = self.refusal[0], w.shape[1]
        # np.hypot is correctly rounded where np.abs of a complex array often is not
        dlog_sq = np.hypot(dlog.real, dlog.imag) ** 2
        # ddlog is a difference of two traces of size |dlog|^2.  Their rounding
        # grows with b|w_j|^2 and with the conditioning of the kernel matrix, corr
        v_error = V_ERROR_SCALE * (1.0 + poisson_mean(N, w)) * dlog_sq / corr[:, None]
        noise = np.isnan(dlog)    # exactly the rows resolved_rows refuses
        ok = ~(coincident[:, None] | noise | (v_error > FIELD_ERROR_BUDGET * N))
        refusals = []
        for row, j in sorted(np.argwhere(~ok).tolist(), key=lambda e: not coincident[e[0]]):
            if coincident[row]:
                error, why = SingularConfigurationError, "hole positions must be pairwise distinct"
            elif noise[row, j]:
                error, why = (DegenerateConfigurationError,
                              f"Upsilon / prod Q = {corr[row]} below {UPSILON_FLOOR * n}")
            else:
                error, why = (DegenerateConfigurationError,
                              f"V rounding error ~{v_error[row, j]:.2e} exceeds "
                              f"{FIELD_ERROR_BUDGET:g} N (merging too deep)")
            refusals.append(((row, j), error, f"row {row}: {why}"))

        # A as A_x + i A_y: y^perp is i y and (Im d, Re d) is i conj(d); the AB
        # sums only on rows with an accepted tracer, as a coincident row divides by 0
        live = ok.any(axis=1)
        a_vec = np.full(w.shape, complex(np.nan, np.nan))
        a_vec[ok] = 1j * (N * w[ok]) - _ab_rows(w[live])[ok[live]] + 1j * dlog[ok].conj()
        v_val = np.where(ok, 2.0 * N + 2.0 * ddlog, np.nan)
        _read_only(a_vec, v_val)
        return a_vec.view(float).reshape(*w.shape, 2), v_val, tuple(refusals)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _ab_rows(w: np.ndarray) -> np.ndarray:
    """Aharonov-Bohm sum of every tracer of each row of a (B, n) hole stack, as x + iy."""
    d = (w[:, :, None] - w[:, None, :]).conj()
    # y / |y|^2 as 1 / conj(y), y = w_j - w_l: |y|^2 underflows once |y| < ~1.5e-154
    others = ~np.eye(w.shape[1], dtype=bool)
    return 1j * np.sum(np.divide(1.0, d, out=np.zeros_like(d), where=others), axis=2)


def _check_bath_size(N):
    """Refuse (ValueError, naming N) anything but an int N >= 1; a bool is none."""
    if isinstance(N, bool) or not (isinstance(N, numbers.Integral) and N >= 1):
        raise ValueError(f"bath size N must be an integer of at least 1, got {N!r}")


def _check_tracer(j, n: int):
    """Refuse (ValueError) a tracer index that is not an int in 0..n-1; a
    bool is no tracer index."""
    if isinstance(j, bool) or not (isinstance(j, numbers.Integral) and 0 <= j < n):
        raise ValueError(f"tracer index {j} outside 0..{n - 1}")


def _kernel_stack(b: float, M: int, holes) -> _Factors:
    """The factorisation of a (B, n) hole stack, built on every call.  b and
    M follow KernelSpec's rules and the holes are finite (ValueError
    otherwise), both checked before any table is built."""
    KernelSpec(b, M)
    w = np.asarray(holes, dtype=complex)
    if w.ndim != 2:
        raise ValueError("holes must have shape (B, n)")
    if not np.isfinite(w).all():
        raise ValueError("hole positions must be finite")
    return _Factors(b, M, w)


@lru_cache(maxsize=1)
def _config_stack(cfg: HoleConfig) -> _Factors:
    """The factorisation of one configuration, a stack of one row, shared by
    the per-configuration calls on equal configs; HoleConfig has checked N,
    b and the holes."""
    return _Factors(cfg.b, cfg.N + cfg.n, cfg.points()[None, :])


def upsilon_stack(b: float, M: int, holes) -> np.ndarray:
    """Upsilon for each row of a (B, n) hole stack, from one orbital table
    and one stacked determinant; 0 where the kernel matrix is singular."""
    return _kernel_stack(b, M, holes).ups


def upsilon(cfg: HoleConfig) -> float:
    """det[(pi/b) K_{N+n}(w_i, w_j)], in [0, 1]; 0 for coincident points."""
    f = _config_stack(cfg)
    return 0.0 if f.coincident[0] else float(f.ups[0])


def _resolved_upsilon(cfg: HoleConfig) -> _Factors:
    """The factorisation of one configuration, a stack of one row, or
    DegenerateConfigurationError where its Upsilon is rounding noise."""
    f = _config_stack(cfg)
    if f.coincident[0]:
        raise SingularConfigurationError("hole positions must be pairwise distinct")
    corr, resolved = f.refusal
    if not resolved[0]:
        raise DegenerateConfigurationError(
            f"Upsilon / prod Q = {corr[0]} below {UPSILON_FLOOR * cfg.n}")
    return f


def log_upsilon(cfg: HoleConfig) -> float:
    """log Upsilon, refused (DegenerateConfigurationError) where Upsilon is
    rounding noise."""
    return 0.0 if cfg.n == 0 else math.log(_resolved_upsilon(cfg).ups[0])


def _derivative_rows(b: float, w: np.ndarray, phi: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """(B, n, n): row j is row j of d_j K, in the closed form of the module docstring."""
    last, wbar = phi[:, :, -1], w.conj()
    return (b * wbar[:, None, :] * (kernel - last[:, :, None] * last.conj()[:, None, :])
            - 0.5 * b * wbar[:, :, None] * kernel)


def log_upsilon_derivative_stack(b: float, M: int, holes
                                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Upsilon (B,), d_j log Upsilon and d_j dbar_j log Upsilon (B, n) of every
    tracer j and the correlation ratio of resolved_rows (B,) for a (B, n) hole
    stack, field strength b and M orbitals: read-only arrays of the call's own
    factorisation.

    Only row and column j of the kernel matrix K depend on w_j.  Row j of
    d_j K is r_c = b wbar_c (K_jc - phi_{j,M-1} conj phi_{c,M-1})
    - (b/2) wbar_j K_jc (module docstring), column j is -(b/2) wbar_j K[:, j]
    and dbar_j K = (d_j K)^H; row j of d_j dbar_j K is -(b/2) (K[j, :] + w_j r)
    and column j its conjugate.  The (j, j) entries are t-derivatives of
    (pi/b) K_M(w, w) = Q(M, t), t = b|w|^2: single tail terms, where an
    orbital sum would cancel O(b) terms to ~eps b.  By Jacobi's formula
    d log Upsilon = tr(K^-1 dK), d dbar log Upsilon = Re tr(K^-1 d dbar K -
    K^-1 dbar K K^-1 dK); d_j K has rank two, so one pass of (B, n, n)
    contractions (_Factors.jacobi) gives every tracer.  Both are NaN on
    exactly the rows resolved_rows refuses.
    """
    f = _kernel_stack(b, M, holes)
    return f.ups, *f.jacobi, f.refusal[0]


def log_partition(cfg: HoleConfig) -> PartitionValue:
    """Exact log of the squared-norm normalization of the quasi-hole state.

    The closed form multiplies N! pi^N prod_{k<N+n} k! b^{n-(N+n)(N+n+1)/2}
    by exp(b sum |w_j|^2) Upsilon / |Vandermonde|^2; at n = 0 it reduces to
    pi^N prod k! b^{-N(N+1)/2}.
    """
    log_ups = log_upsilon(cfg)    # refuses coincident holes first
    N, n, b = cfg.N, cfg.n, cfg.b
    log_gamma = (math.lgamma(N + 1) + N * math.log(math.pi)
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
    refused (DegenerateConfigurationError) where Upsilon(w) is rounding noise, and
    (ValueError) at a non-finite z."""
    return theta_polarized(cfg, z, z).real


def theta_polarized(cfg: HoleConfig, zeta: complex, z: complex) -> complex:
    """Polarized Schur density nu*(z) M^{-1} nu(zeta), with M[i, l] =
    K(w_l, w_i) and nu(z)[i] = K(z, w_i); refused like theta."""
    if cfg.n < 1:
        raise ValueError("the Schur density needs at least one hole")
    if not (cmath.isfinite(z) and cmath.isfinite(zeta)):
        raise ValueError(f"Schur density needs finite points, got z = {z}, zeta = {zeta}")
    f = _resolved_upsilon(cfg)
    # M = K^T; phi and K carry sqrt(pi/b) and pi/b, which cancel in nu* M^{-1} nu
    nu = weighted_orbitals(cfg.b, cfg.spec.M, np.array([z, zeta])) @ f.phi[0].conj().T
    return complex(nu[1] @ f.inverse[0] @ np.conj(nu[0]))


def upsilon_prediction(cfg: HoleConfig, *, pair: tuple[int, int] | None = None) -> float:
    """Leading-order Upsilon: 1 away from merging (pair None), 1 - exp(-b s^2)
    for the single merging pair at separation s."""
    if pair is None:
        return 1.0
    i, j = pair
    return -math.expm1(-cfg.b * abs(cfg.w[i] - cfg.w[j]) ** 2)
