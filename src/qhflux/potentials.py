"""Emergent vector/scalar potentials at the tracer positions.

Two independent routes compute the same fields: the derivative route
takes the log-derivatives of the Upsilon determinant from partition and uses
them as they are (production path), and
the integral route evaluates the conditional-density integral formulas
(cross-validation path): its pole integral and Frobenius term are closed
forms by angular orthogonality of the orbitals, and its single integral is
a point-centered quadrature of a rank-n density, one cache-sized block of
grid nodes at a time, so its memory does not grow with the grid.
Correction fields a, v and the asymptotic field prediction live here too.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .kernel import _log_poisson, weighted_orbitals
from .partition import (UPSILON_FLOOR, HoleConfig, SingularConfigurationError, _check_tracer,
                        coincident_rows, log_upsilon_derivative_stack)
from .quadrature import QuadratureGrid, polar_grid

# emergent_field_stack estimates the rounding error of V as V_ERROR_SCALE
# (1 + b|w_j|^2) |dlog|^2 / (Upsilon / prod_i (pi/b) K_M(w_i, w_i)) and
# refuses rows where it exceeds FIELD_ERROR_BUDGET N.  Against mpmath (N = 64
# to 1024, n <= 4, separations 1e-6 to 1e-1, |w| up to 1.4) the estimate
# was 0.5 to 300 times the actual error wherever that exceeded 1e-9 N.
V_ERROR_SCALE = 2 * np.finfo(float).eps
FIELD_ERROR_BUDGET = 1e-6
# largest grid emergent_field_integral accepts, in nodes.  Its memory does
# not grow with the grid, and the budget does not bound its time: one
# default-grid call for holes (0.3, -0.25+0.2i), tracer 0, took 0.7-1.0 s
# at N = 512 (79,296 nodes) and 4.0-5.9 s at N = 1024 (147,852 nodes) on a
# 2-vCPU box
NODE_BUDGET = 200_000
_BLOCK_BYTES = 1 << 20    # orbital table per node block of the integral route


class DegenerateConfigurationError(Exception):
    """Merging too deep for double-precision log-derivative assembly."""


class ResourceBudgetError(Exception):
    pass


@dataclass(frozen=True)
class EmergentField:
    A: np.ndarray          # vector potential, shape (2,)
    V: float               # scalar potential
    j: int                 # tracer index


def to_vec(z: complex) -> np.ndarray:
    return np.array([z.real, z.imag])


def perp(v: np.ndarray) -> np.ndarray:
    """x^perp = (-x2, x1)."""
    return np.array([-v[1], v[0]])


def _ab_rows(w: np.ndarray, j: int) -> np.ndarray:
    """Aharonov-Bohm sum of tracer j for each row of a (B, n) hole stack."""
    d = w[:, [j]] - np.delete(w, j, axis=1)
    # d / |d|^2 as 1 / conj(d): |d|^2 itself underflows once |d| < ~1.5e-154
    u = 1.0 / d.conj()
    return np.sum(np.stack([-u.imag, u.real], axis=-1), axis=1)


def ab_sum(cfg: HoleConfig, j: int) -> np.ndarray:
    """Aharonov-Bohm sum over the other tracers, (y_j-y_l)^perp/|y_j-y_l|^2."""
    _check_tracer(j, cfg.n)
    cfg.require_distinct()
    return _ab_rows(cfg.points()[None, :], j)[0]


def emergent_field_stack(N: int, holes, j: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """A_j, V_j and the refused rows of a stack of hole configurations, b = N.

    holes has shape (B, n); returns A (B, 2) and V (B,) from the
    log-derivatives of one log_upsilon_derivative_stack call, used as they
    come, and a dict from each refused row to its error: rows with
    coincident holes first (SingularConfigurationError), then in row order
    those with Upsilon rounding noise (resolved_rows) or a V rounding error
    above FIELD_ERROR_BUDGET N (DegenerateConfigurationError).
    A refused row has NaN fields and raises no numpy warning."""
    w = np.asarray(holes, dtype=complex)
    if w.ndim != 2:
        raise ValueError("holes must have shape (B, n)")
    n = w.shape[1]
    if N < 1:
        raise ValueError("bath size N must be at least 1")

    coincident = coincident_rows(w)
    _, dlog, ddlog, corr = log_upsilon_derivative_stack(float(N), N + n, w, j)
    # np.hypot is correctly rounded where np.abs of a complex array often is not
    dlog_sq = np.hypot(dlog.real, dlog.imag) ** 2
    # ddlog is a difference of two traces of size |dlog|^2.  Their rounding
    # grows with b|w_j|^2 and with the conditioning of the kernel matrix, corr
    v_error = V_ERROR_SCALE * (1.0 + N * np.abs(w[:, j]) ** 2) * dlog_sq / corr
    noise = np.isnan(dlog)    # exactly the rows resolved_rows refuses
    ok = ~(coincident | noise | (v_error > FIELD_ERROR_BUDGET * N))
    refusals = {}
    for row in sorted(np.flatnonzero(~ok).tolist(), key=lambda r: not coincident[r]):
        refusals[row] = (
            SingularConfigurationError(f"row {row}: hole positions must be pairwise distinct")
            if coincident[row] else DegenerateConfigurationError(f"row {row}: " + (
                f"Upsilon / prod Q = {corr[row]} below {UPSILON_FLOOR * n}" if noise[row] else
                f"V rounding error ~{v_error[row]:.2e} exceeds {FIELD_ERROR_BUDGET:g} N "
                "(merging too deep)")))

    a_vec = np.full((len(w), 2), np.nan)
    a_vec[ok] = (N * np.stack([-w[ok, j].imag, w[ok, j].real], axis=-1)
                 - _ab_rows(w[ok], j) + np.stack([dlog[ok].imag, dlog[ok].real], axis=-1))
    return a_vec, np.where(ok, 2.0 * N + 2.0 * ddlog, np.nan), refusals


def emergent_fields(N: int, holes, j: int) -> tuple[np.ndarray, np.ndarray]:
    """A_j (B, 2) and V_j (B,) of emergent_field_stack where it refuses no
    row; otherwise it raises the error of the first row in its dict, which
    puts coincident holes before rounding noise and names the row."""
    a_vec, v_val, refusals = emergent_field_stack(N, holes, j)
    if refusals:
        raise next(iter(refusals.values()))
    return a_vec, v_val


def emergent_field_derivative(cfg: HoleConfig, j: int) -> EmergentField:
    """A_j, V_j from exact Upsilon log-derivatives (b = N regime): the B = 1
    case of emergent_fields."""
    if cfg.b != cfg.N:
        raise ValueError("derivative-route fields are defined in the b = N regime")
    a_vec, v_val = emergent_fields(cfg.N, [cfg.w], j)
    return EmergentField(A=a_vec[0], V=float(v_val[0]), j=j)


def _field_grid(cfg: HoleConfig, j: int) -> QuadratureGrid:
    """The integral route's grid for its single integral: polar around w_j,
    out to 8 magnetic lengths past the droplet edge, with 8 angles per unit
    of (|w_j| + 1) sqrt(b) and at least 96.  The angular error falls
    exponentially in that ratio: its V gap to the derivative route was
    ~1e-3 N at 4 and below 1e-9 N from 7.6 (N = 128, 256).

    Radially, 12 Gauss-Legendre nodes per panel of 1.35 / sqrt(b) (about
    1.35 magnetic lengths; at most r_max / 8), uniform from r = 0: the
    integrand P / |w_j - z|^2 is bounded and smooth at w_j, where the
    conditioned density P vanishes quadratically.  Panels three times
    narrower give the same V to rounding (within 1e-12 N over N = 16 and
    32, |w_j| up to 0.9), so the angle rule, not the radius, limits the
    accuracy.
    Within NODE_BUDGET the grid reaches N = 2371 at w_j = 0, 1403 at
    |w_j| = 0.3 and 656 at |w_j| = 0.9."""
    r_max = abs(cfg.w[j]) + 1.0 + 8.0 / math.sqrt(cfg.b)
    width = min(1.35 / math.sqrt(cfg.b), r_max / 8.0)
    n_theta = max(96, math.ceil(8.0 * (abs(cfg.w[j]) + 1.0) * math.sqrt(cfg.b)))
    return polar_grid(cfg.w[j], r_max, n_theta=n_theta, nodes_per_panel=12, panel_width=width)


def _hole_spaces(cfg: HoleConfig) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases (M, rank) of the row space and (M, M - rank) of the
    null space of the n x M hole constraints phi_k(w_i), from one SVD with
    scipy.linalg.null_space's rank rule (singular values above
    max(n, M) eps s_max count).  The null space holds the coefficient
    vectors whose orbital combinations vanish at every hole; the projector
    onto it is I - row row^H."""
    constraints = weighted_orbitals(cfg.spec.b, cfg.spec.M, cfg.points())
    _, s, vh = np.linalg.svd(constraints)
    rank = np.count_nonzero(s > max(constraints.shape) * np.finfo(float).eps * s.max(initial=0.0))
    basis = vh.conj().T
    return basis[:, :rank], basis[:, rank:]


def vanishing_subspace(cfg: HoleConfig, pts: np.ndarray):
    """Weighted orbital values restricted to functions vanishing at every hole.

    Returns the matrix Psi[i, mu] of an orthonormal basis of that subspace
    evaluated on pts; the conditioned kernel is Psi Psi^H and its diagonal is
    K_{N+n}(z,z) - Theta(z|w).
    """
    return weighted_orbitals(cfg.spec.b, cfg.spec.M, pts) @ _hole_spaces(cfg)[1]


def _pole_matrix(b: float, M: int, w: complex) -> np.ndarray:
    """S[k, l] = int phi_k(z) conj(phi_l(z)) / (w - z) d^2z for k, l < M.

    The angles keep one term of the pole's Laurent series on each side of
    |z| = |w|, and the radii give incomplete gamma functions of t = b|w|^2:
    with d = l - k,
        S_kl =  b^{-d/2} sqrt(l!/k!) w^{-d-1} P(l+1, t)   (l >= k),
        S_kl = -b^{-d/2} sqrt(l!/k!) w^{-d-1} Q(l+1, t)   (k > l),
    whose prefactor is sqrt(pi_k / pi_l) / |w| in the Poisson weights
    pi_i = t^i e^{-t} / i!.  It is formed from their logarithms, as it
    overflows for small |w| exactly where P underflows.  Q(l+1, t) and
    P(l+1, t) are the sums of pi_i over i <= l and i > l: for each l the
    smaller one is summed in the log domain from its small end (P, where
    t < M, from i = M + 40 sqrt(M) + 60 down; the terms past that add less
    than 1e-150 of it) and the other is its complement.
    Where t is no normal double (w = 0), the exact limit: only
    S_{l+1,l} = -sqrt(b/(l+1)) survives, and the other terms are
    O(sqrt(t)) < 1e-154."""
    t = b * abs(w) ** 2
    if t < np.finfo(float).tiny:
        s_mat = np.zeros((M, M), dtype=complex)
        s_mat[np.arange(1, M), np.arange(M - 1)] = -np.sqrt(b / np.arange(1.0, M))
        return s_mat
    top = M if t >= M else M + math.ceil(40.0 * math.sqrt(M)) + 60
    log_pi = _log_poisson(np.arange(float(top)), t)
    split = min(M, math.floor(t))           # Q(l+1, t) is the smaller for l < split
    log_q = np.logaddexp.accumulate(log_pi[:split])
    log_p = np.logaddexp.accumulate(log_pi[:split:-1])[::-1][:M - split]
    log_p, log_q = (np.concatenate([np.log1p(-np.exp(log_q)), log_p]),
                    np.concatenate([log_q, np.log1p(-np.exp(log_p))]))
    # lam[k, l] = log sqrt(pi_k / pi_l) - log sqrt(t), summed outward from
    # the diagonal in steps log sqrt(pi_i / pi_{i-1}) = log sqrt(t / i),
    # which are small wherever S is not; the first step below the diagonal
    # is log sqrt(1 / (l + 1)), so S_{l+1,l} carries no log t.  lam is the
    # real part of S; buf holds the upper sums, the P/Q term and the phase
    step = np.append(0.0, 0.5 * (math.log(t) - np.log(np.arange(1.0, M))))
    idx = np.arange(M)
    s_mat = np.zeros((M, M), dtype=complex)
    lam = s_mat.real
    np.copyto(lam, step[:, None], where=np.tri(M, k=-2, dtype=bool))
    lam[idx[1:], idx[:-1]] = -0.5 * np.log(idx[1:])
    np.cumsum(lam, axis=0, out=lam)
    buf = np.triu(np.broadcast_to(step, (M, M)), 1)
    lam -= np.cumsum(buf, axis=1, out=buf)
    upper = idx[:, None] <= idx
    np.copyto(buf, log_q)
    np.copyto(buf, log_p - 0.5 * math.log(t), where=upper)
    buf += 0.5 * math.log(b)
    lam += buf
    np.subtract.outer(idx, idx + 1.0, out=buf)
    buf *= cmath.phase(w)                         # arg w^{-d-1}
    s_mat.imag = buf
    np.exp(s_mat, out=s_mat)
    np.negative(s_mat, where=~upper, out=s_mat)
    return s_mat


def emergent_field_integral(cfg: HoleConfig, j: int,
                            grid: QuadratureGrid | None = None) -> EmergentField:
    """A_j, V_j from the conditional-density integral formulas, with the
    single integral on grid (default _field_grid), refused above
    NODE_BUDGET nodes.

    A_j = Im((1,i)^T int P(z)/(w_j-z) dz) and
    V_j = 2 int P(z)/|w_j-z|^2 dz - 2 ||T||_F^2, where P is the diagonal of
    the hole-conditioned kernel and T_{mu,nu} = int conj(psi_mu) psi_nu
    / (w_j - z) dz over the orthonormal conditioned basis.  The Frobenius
    term is the exact factorization of the double integral of the
    conditioned-kernel square.

    With the projector Pi = I - U U^H onto the conditioned coefficients (U
    the row space of _hole_spaces, rank n), both pole terms are closed
    forms in _pole_matrix's S: int P/(w_j - z) = sum_kl Pi_kl S_kl and
    ||T||_F^2 = ||Pi S^T Pi||_F^2, each taken through U in O(M^2 n).

    The single integral takes P(z) = sum_k |phi_k(z)|^2 - ||phi(z) U||^2,
    O(M n) per node, over blocks of max(1, _BLOCK_BYTES // (16 M)) nodes so
    that a block's orbital table stays in cache; memory is O(rows M + M^2)
    whatever the grid size.
    """
    _check_tracer(j, cfg.n)
    cfg.require_distinct()
    if grid is None:
        grid = _field_grid(cfg, j)
    if grid.size > NODE_BUDGET:
        raise ResourceBudgetError(f"grid size {grid.size} exceeds budget {NODE_BUDGET}")
    b, M = cfg.spec.b, cfg.spec.M
    row = _hole_spaces(cfg)[0]
    rows = max(1, _BLOCK_BYTES // (16 * M))
    single = 0.0
    for start in range(0, grid.size, rows):
        nodes = grid.nodes[start:start + rows]
        table = weighted_orbitals(b, M, nodes)
        p_diag = _row_norms(table) - _row_norms(table @ row)
        single += float(np.sum(grid.weights[start:start + rows] * p_diag
                               / np.abs(cfg.w[j] - nodes) ** 2))
    s_mat = _pole_matrix(b, M, cfg.w[j])
    s_row = s_mat.T @ row                     # S^T U
    inner = row.conj().T @ s_row              # U^H S^T U
    i_val = complex(np.trace(s_mat) - np.trace(inner))
    # ||Pi X Pi||^2 = ||X||^2 - ||X U||^2 - ||U^H X Pi||^2 for X = S^T
    outer = (s_mat @ row.conj()).T - inner @ row.conj().T
    frob = (np.vdot(s_mat, s_mat) - np.vdot(s_row, s_row) - np.vdot(outer, outer)).real
    return EmergentField(A=np.array([i_val.imag, i_val.real]), V=2.0 * single - 2.0 * frob, j=j)


def _row_norms(mat: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row of a C-contiguous complex matrix."""
    flat = mat.view(float)
    return np.einsum("ij,ij->i", flat, flat)


def double_integral_direct(cfg: HoleConfig, j: int, grid: QuadratureGrid) -> float:
    """Direct product-form evaluation of the conditioned-square double
    integral; O(grid^2), capped, kept as a cross-check of the factorized
    Frobenius form."""
    _check_tracer(j, cfg.n)
    if grid.size > 4096:
        raise ResourceBudgetError("direct double integral capped at 4096 nodes per factor")
    psi = vanishing_subspace(cfg, grid.nodes)
    ktilde = psi @ psi.conj().T
    f = grid.weights / (cfg.w[j] - grid.nodes)
    val = np.einsum("a,ab,b->", f, np.abs(ktilde) ** 2, f.conj())
    return float(np.real(val))


def correction_a(y: np.ndarray) -> np.ndarray:
    """a(y) = y^perp / (e^{|y|^2} - 1); singular at y = 0."""
    y = np.asarray(y, dtype=float)
    if not y.any():
        raise ValueError("correction_a is singular at y = 0")
    t = float(y @ y)
    if t < np.finfo(float).tiny:
        # expm1(t) = t here, and y^perp / |y|^2 goes as 1 / conj(y) since
        # |y|^2 is not a normal double
        u = 1.0 / complex(y[0], -y[1])
        return np.array([-u.imag, u.real])
    return perp(y) / math.expm1(t)


def _v_of_t(t: float) -> float:
    if t < 1e-150:
        # v = 1 - t/3 + O(t^2) is 1 to double precision, and expm1(t)^2
        # below would leave the normal range
        return 1.0
    if t < 0.04:
        # 2 sum_{k>=2} ((k-1)/k!) t^k / expm1(t)^2, truncation ~ t^10
        num = 0.0
        for k in range(12, 1, -1):
            num += 2.0 * (k - 1) / math.factorial(k)
            num *= t
        return num * t / math.expm1(t) ** 2
    # exp(-t)-scaled form stays finite for arbitrarily large t
    emt = math.exp(-t)
    return 2.0 * ((t - 1.0) * emt + emt * emt) / (1.0 - emt) ** 2


def correction_v(y: np.ndarray) -> float:
    """v(y) = 2(1-(1-|y|^2)e^{|y|^2})/(e^{|y|^2}-1)^2, with v(0) = 1."""
    y = np.asarray(y, dtype=float)
    return _v_of_t(float(y @ y))


def asymptotic_prediction(cfg: HoleConfig, j: int, *,
                          pair: tuple[int, int] | None = None) -> EmergentField:
    """Leading-order fields: droplet term minus AB sum, plus the microscopic
    a/v corrections when j belongs to the single merging pair (pair None:
    no merging)."""
    _check_tracer(j, cfg.n)
    N = cfg.N
    a_vec = N * perp(to_vec(cfg.w[j])) - ab_sum(cfg, j)
    v_val = 2.0 * N
    if pair is not None and j in pair:
        other = pair[1] if j == pair[0] else pair[0]
        d = to_vec(cfg.w[j] - cfg.w[other])
        rt = math.sqrt(N)
        a_vec = a_vec + rt * correction_a(rt * d)
        v_val = N * (2.0 - correction_v(rt * d))
    return EmergentField(A=a_vec, V=float(v_val), j=j)
