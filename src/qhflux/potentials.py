"""Emergent vector/scalar potentials at the tracer positions.

Two independent routes compute the same fields: the derivative route
takes the log-derivatives of the Upsilon determinant from partition and uses
them as they are (production path); its A, V and refusals are assembled once
per hole stack in partition's memo entry, which every tracer's call reads,
and
the integral route evaluates the conditional-density integral formulas
(cross-validation path) in closed form: every conditioned function vanishes
at the tracer, so its quotient by z - w_j is a finite orbital combination
(polynomial division by recurrence), and each integral is an inner product.
Correction fields a, v and the asymptotic field prediction live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import poisson_mean, weighted_orbitals
from .partition import (DegenerateConfigurationError, HoleConfig, SingularConfigurationError,
                        _ab_rows, _check_bath_size, _check_tracer, _kernel_stack)
# the derivative route's V rounding guard, which partition._Factors.fields applies
from .partition import FIELD_ERROR_BUDGET, V_ERROR_SCALE  # noqa: F401


@dataclass(frozen=True)
class EmergentField:
    A: np.ndarray          # vector potential, shape (2,)
    V: float               # scalar potential
    j: int                 # tracer index


def perp(v: np.ndarray) -> np.ndarray:
    """x^perp = (-x2, x1)."""
    return np.array([-v[1], v[0]])


def emergent_field_stack(N: int, holes) -> tuple[np.ndarray, np.ndarray, dict]:
    """A_j, V_j of every tracer j and the refused entries of a stack of hole
    configurations, b = N.

    holes has shape (B, n) and N is an int >= 1; returns A (B, n, 2) and
    V (B, n) from the log-derivatives of the Jacobi pass, used as they come,
    and a dict from each refused (row, j) to its error: entries of rows with
    coincident holes first (SingularConfigurationError), then in row-major
    order those with Upsilon rounding noise (resolved_rows) or a V rounding
    error above FIELD_ERROR_BUDGET N (DegenerateConfigurationError): a deep
    pair refuses its own tracers, not a far one.  A refused entry is NaN, with
    no numpy warning.  A and V are the partition memo's read-only arrays
    (partition._Factors.fields), assembled once per hole stack; the dict and
    its errors are new on every call."""
    _check_bath_size(N)
    w = np.asarray(holes, dtype=complex)
    if w.ndim != 2:
        raise ValueError("holes must have shape (B, n)")
    a_vec, v_val, refusals = _kernel_stack(float(N), N + w.shape[1], w).fields
    return a_vec, v_val, {key: error(message) for key, error, message in refusals}


def emergent_fields(N: int, holes) -> tuple[np.ndarray, np.ndarray]:
    """A (B, n, 2) and V (B, n) of emergent_field_stack where it refuses no
    entry; otherwise it raises the error of the first entry in its dict,
    which puts coincident holes before rounding noise and names the row."""
    a_vec, v_val, refusals = emergent_field_stack(N, holes)
    if refusals:
        raise next(iter(refusals.values()))
    return a_vec, v_val


def emergent_field_derivative(cfg: HoleConfig, j: int) -> EmergentField:
    """A_j, V_j from exact Upsilon log-derivatives (b = N regime): entry
    (0, j) of emergent_field_stack on one row, refused by that entry's error."""
    if cfg.b != cfg.N:
        raise ValueError("derivative-route fields are defined in the b = N regime")
    _check_tracer(j, cfg.n)
    a_vec, v_val, refusals = emergent_field_stack(cfg.N, [cfg.w])
    if (0, j) in refusals:
        raise refusals[0, j]
    return EmergentField(A=a_vec[0, j], V=float(v_val[0, j]), j=j)


def _row_space(cfg: HoleConfig) -> np.ndarray:
    """Orthonormal basis U (M, rank) of the row space of the n x M hole
    constraints phi_k(w_i), from one thin SVD with scipy.linalg.null_space's
    rank rule (singular values above max(n, M) eps s_max count).  Its
    complement holds the coefficient vectors whose orbital combinations
    vanish at every hole; the projector onto that is Pi = I - U U^H.

    A row that underflows to zero (a hole beyond the double range)
    constrains nothing.  Distinct holes give independent rows, so a rank
    below the count of the others means that merging holes made their rows
    parallel to rounding, or that a hole outside the droplet has a row
    below the rank floor, and the route would answer for fewer holes than
    it was given: DegenerateConfigurationError."""
    constraints = weighted_orbitals(cfg.spec.b, cfg.spec.M, cfg.points())
    _, s, vh = np.linalg.svd(constraints, full_matrices=False)
    rank = np.count_nonzero(s > max(constraints.shape) * np.finfo(float).eps * s.max(initial=0.0))
    rows = np.count_nonzero(constraints.any(axis=1))
    if rank < rows:
        raise DegenerateConfigurationError(
            f"the hole constraints have numerical rank {rank} below their {rows} nonzero rows "
            "(holes merging, or a hole far outside the droplet)")
    return vh[:rank].conj().T


def vanishing_subspace(cfg: HoleConfig, pts: np.ndarray):
    """Weighted orbital values restricted to functions vanishing at every hole.

    Returns the matrix Psi[i, mu] of an orthonormal basis of that subspace
    (the complement of _row_space, from a complete QR) evaluated on pts; the
    conditioned kernel is Psi Psi^H and its diagonal is K_{N+n}(z,z) - Theta(z|w).
    """
    row = _row_space(cfg)
    null = np.linalg.qr(row, mode="complete")[0][:, row.shape[1]:]
    return weighted_orbitals(cfg.spec.b, cfg.spec.M, pts) @ null


def _divided(b: float, M: int, w: complex, U: np.ndarray) -> tuple[np.ndarray, complex]:
    """U^H D (n x M) and tr D of the division matrix D (M x M), never formed
    (U = I gives D): psi(z) / (z - w) = sum_m (D a)_m phi_m(z) for every a
    whose orbital combination psi = sum_k a_k phi_k vanishes at w, which is
    synthetic division by z - w in the orbital normalisation.  Rows
    m < s = min(M, floor(b|w|^2)) divide from the bottom,
    D_mk = -phi_k(w) / (w phi_m(w)) for k <= m, the others from the top,
    D_mk = phi_k(w) / (w phi_m(w)) for k > m; both agree wherever psi(w) = 0.
    So, with U_k row k of U, column k < s of U^H D is -B_k / w, where
    B_{s-1} = conj(U_{s-1}) and B_k = conj(U_k) + sqrt((k+1)/b) / w B_{k+1},
    and column k >= s is T_k, where T_s = 0 and
    T_{k+1} = sqrt(b/(k+1)) (w T_k + conj(U_k)).  Every orbital ratio there
    has modulus at most 1, so nothing overflows and w = 0 needs no case of
    its own; tr D = -s / w is the bottom rows' diagonal."""
    s = min(M, math.floor(poisson_mean(b, w)))
    u = U.conj()
    # one zero row past the last orbital: B_{s-1} reads it, or T_s at s < M
    out = np.zeros((M + 1, u.shape[1]), dtype=complex)
    for k in range(s - 1, -1, -1):
        out[k] = u[k] + math.sqrt((k + 1) / b) / w * out[k + 1]
    out[:s] /= -w
    for k in range(s, M - 1):
        out[k + 1] = math.sqrt(b / (k + 1)) * (w * out[k] + u[k])
    return out[:M].T, -s / w if s else 0j


def emergent_field_integral(cfg: HoleConfig, j: int) -> EmergentField:
    """A_j, V_j from the conditional-density integral formulas, in closed form.

    A_j = Im((1,i)^T int P(z)/(w_j-z) dz) and
    V_j = 2 int P(z)/|w_j-z|^2 dz - 2 ||T||_F^2, where P is the diagonal of
    the hole-conditioned kernel and T_{mu,nu} = int conj(psi_mu) psi_nu
    / (w_j - z) dz over the orthonormal conditioned basis.  The Frobenius
    term is the exact factorization of the double integral of the
    conditioned-kernel square.

    Every conditioned function vanishes at w_j, so the division matrix D
    of _divided maps it to its quotient by z - w_j.  The orbitals are
    orthonormal, so with Pi = I - U U^H (U from _row_space, rank n)
    int P/(w_j - z) = -tr(D Pi), int P/|w_j - z|^2 = ||D Pi||_F^2 and
    ||T||_F^2 = ||Pi D Pi||_F^2: V_j = 2 ||U^H D Pi||_F^2, a sum of squares,
    all from U^H D and tr D in O(M n) time and memory.
    """
    _check_tracer(j, cfg.n)
    cfg.require_distinct()
    row = _row_space(cfg)
    left, trace = _divided(cfg.spec.b, cfg.spec.M, cfg.w[j], row)    # U^H D, tr D
    inner = left @ row                        # U^H D U
    i_val = complex(np.trace(inner) - trace)
    outer = left - inner @ row.conj().T       # U^H D Pi
    return EmergentField(A=np.array([i_val.imag, i_val.real]),
                         V=2.0 * np.vdot(outer, outer).real, j=j)


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


def asymptotic_prediction(cfg: HoleConfig, *, pair: tuple[int, int] | None = None
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Leading-order A (n, 2) and V (n,) of every tracer, the per-configuration
    shape of emergent_fields: droplet term minus AB sum, plus the microscopic
    a/v corrections on the two tracers of the single merging pair (pair None:
    no merging)."""
    cfg.require_distinct()
    N, w = cfg.N, cfg.points()
    # N y^perp minus the AB sums, each read from x + iy as (x, y)
    a_vec = N * np.column_stack([-w.imag, w.real]) - _ab_rows(w[None])[0].view(float).reshape(-1, 2)
    v_val = np.full(cfg.n, 2.0 * N)
    if pair is not None:
        rt = math.sqrt(N)
        for j, other in (pair, pair[::-1]):
            d = w[j] - w[other]
            y = rt * np.array([d.real, d.imag])
            a_vec[j] += rt * correction_a(y)
            v_val[j] = N * (2.0 - correction_v(y))
    return a_vec, v_val
