"""Emergent vector/scalar potentials at the tracer positions.

Two independent routes compute the same fields: the derivative route
assembles log-derivatives of the Upsilon determinant (production path), and
the integral route evaluates the conditional-density integral formulas by
singularity-centered quadrature (cross-validation path).  Correction fields
a, v and the refined field models live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space

from .kernel import weighted_orbitals
from .partition import (UPSILON_FLOOR, HoleConfig, SingularConfigurationError,
                        coincident_rows, upsilon_derivative_stack)
from .quadrature import QuadratureGrid, polar_grid

# emergent_field_stack estimates the rounding error of V as V_ERROR_SCALE
# (1 + b|w_j|^2) |dlog|^2 / (Upsilon / prod_i (pi/b) K_M(w_i, w_i)) and
# refuses rows where it exceeds FIELD_ERROR_BUDGET N.  Against mpmath (N = 64
# to 1024, n <= 4, separations 1e-6 to 1e-1, |w| up to 1.4) the estimate
# was 0.5 to 300 times the actual error wherever that exceeded 1e-9 N.
V_ERROR_SCALE = 2 * np.finfo(float).eps
FIELD_ERROR_BUDGET = 1e-6


class DegenerateConfigurationError(Exception):
    """Merging too deep for double-precision log-derivative assembly."""


class ResourceBudgetError(Exception):
    pass


@dataclass(frozen=True)
class EmergentField:
    A: np.ndarray          # vector potential, shape (2,)
    V: float               # scalar potential
    j: int                 # tracer index
    method: str            # "derivative" | "integral" | "prediction"


def to_vec(z: complex) -> np.ndarray:
    return np.array([z.real, z.imag])


def perp(v: np.ndarray) -> np.ndarray:
    """x^perp = (-x2, x1)."""
    return np.array([-v[1], v[0]])


def _ab_rows(w: np.ndarray, j: int) -> np.ndarray:
    """Aharonov-Bohm sum of tracer j for each row of a (B, n) hole stack."""
    d = w[:, [j]] - np.delete(w, j, axis=1)
    d_sq = np.hypot(d.real, d.imag) ** 2
    return np.sum(np.stack([-d.imag, d.real], axis=-1) / d_sq[..., None], axis=1)


def ab_sum(cfg: HoleConfig, j: int) -> np.ndarray:
    """Aharonov-Bohm sum over the other tracers, (y_j-y_l)^perp/|y_j-y_l|^2."""
    cfg.require_distinct()
    return _ab_rows(cfg.points()[None, :], j)[0]


def emergent_field_stack(N: int, holes, j: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """A_j, V_j and the refused rows of a stack of hole configurations, b = N.

    holes has shape (B, n); returns A (B, 2) and V (B,) from one
    upsilon_derivative_stack call, and a dict from each refused row to its
    error: rows with coincident holes first (SingularConfigurationError),
    then in row order those with Upsilon rounding noise (resolved_rows) or a
    V rounding error above FIELD_ERROR_BUDGET N (DegenerateConfigurationError).
    A refused row has NaN fields and raises no numpy warning."""
    w = np.asarray(holes, dtype=complex)
    if w.ndim != 2:
        raise ValueError("holes must have shape (B, n)")
    n = w.shape[1]
    if N < 1:
        raise ValueError("bath size N must be at least 1")
    if not 0 <= j < n:
        raise ValueError(f"tracer index {j} outside 0..{n - 1}")
    if not np.isfinite(w).all():
        raise ValueError("hole positions must be finite")

    coincident = coincident_rows(w)
    ups, d1, d11, corr = upsilon_derivative_stack(float(N), N + n, w, j)
    # one rounding each: numpy's complex-by-real division multiplies by a
    # rounded reciprocal, and np.hypot is correctly rounded where np.abs of
    # a complex array often is not
    dlog = d1.real / ups + 1j * (d1.imag / ups)
    dlog_sq = np.hypot(dlog.real, dlog.imag) ** 2
    ddlog = d11.real / ups - dlog_sq
    # ddlog cancels two terms of size |dlog|^2.  Their rounding grows with
    # b|w_j|^2 and with the conditioning of the kernel matrix, corr
    v_error = V_ERROR_SCALE * (1.0 + N * np.abs(w[:, j]) ** 2) * dlog_sq / corr
    noise = np.isnan(d1)    # exactly the rows resolved_rows refuses
    ok = ~(coincident | noise | (v_error > FIELD_ERROR_BUDGET * N))
    refusals = {}
    for row in sorted(np.flatnonzero(~ok).tolist(), key=lambda r: not coincident[r]):
        refusals[row] = (
            SingularConfigurationError(f"row {row}: hole positions must be pairwise distinct")
            if coincident[row] else DegenerateConfigurationError(f"row {row}: " + (
                f"Upsilon / prod Q = {corr[row]} below {UPSILON_FLOOR * n}" if noise[row] else
                f"V rounding error ~{v_error[row]:.2e} exceeds {FIELD_ERROR_BUDGET:g} N "
                "(merging too deep)")))

    rows = ok if refusals else slice(None)    # a view where no row is refused
    a_vec = np.full((len(w), 2), np.nan)
    a_vec[rows] = (N * np.stack([-w[rows, j].imag, w[rows, j].real], axis=-1)
                   - _ab_rows(w[rows], j) + np.stack([dlog[rows].imag, dlog[rows].real], axis=-1))
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
    return EmergentField(A=a_vec[0], V=float(v_val[0]), j=j, method="derivative")


@dataclass(frozen=True)
class FieldGrids:
    """Quadrature for the integral route; built around w_j when omitted."""

    grid: QuadratureGrid | None = None
    n_theta: int = 96
    nodes_per_panel: int = 12
    node_budget: int = 200_000

    def build(self, cfg: HoleConfig, j: int) -> QuadratureGrid:
        if self.grid is not None:
            return self.grid
        b = cfg.b
        r_max = abs(cfg.w[j]) + 1.0 + 8.0 / math.sqrt(b)
        width = min(0.45 / math.sqrt(b), r_max / 8.0)
        return polar_grid(cfg.w[j], r_max, n_theta=self.n_theta,
                          nodes_per_panel=self.nodes_per_panel, panel_width=width)


def vanishing_subspace(cfg: HoleConfig, pts: np.ndarray):
    """Weighted orbital values restricted to functions vanishing at every hole.

    Returns the matrix Psi[i, mu] of an orthonormal basis of that subspace
    evaluated on pts; the conditioned kernel is Psi Psi^H and its diagonal is
    K_{N+n}(z,z) - Theta(z|w).
    """
    spec = cfg.spec
    constraints = weighted_orbitals(spec.b, spec.M, cfg.points())
    basis = null_space(constraints)
    u = weighted_orbitals(spec.b, spec.M, pts)
    return u @ basis


def emergent_field_integral(cfg: HoleConfig, j: int,
                            grids: FieldGrids | None = None) -> EmergentField:
    """A_j, V_j from the conditional-density integral formulas.

    A_j = Im((1,i)^T int P(z)/(w_j-z) dz) and
    V_j = 2 int P(z)/|w_j-z|^2 dz - 2 ||T||_F^2, where P is the diagonal of
    the hole-conditioned kernel and T_{mu,nu} = int conj(psi_mu) psi_nu
    / (w_j - z) dz over the orthonormal conditioned basis.  The Frobenius
    term is the exact factorization of the double integral of the
    conditioned-kernel square.
    """
    cfg.require_distinct()
    if cfg.n < 1:
        raise ValueError("integral-route fields need at least one hole")
    grids = grids or FieldGrids()
    grid = grids.build(cfg, j)
    if grid.size > grids.node_budget:
        raise ResourceBudgetError(f"grid size {grid.size} exceeds budget")
    psi = vanishing_subspace(cfg, grid.nodes)
    p_diag = np.sum(np.abs(psi) ** 2, axis=1)
    pole = cfg.w[j] - grid.nodes
    i_val = complex(np.sum(grid.weights * p_diag / pole))
    a_vec = np.array([i_val.imag, i_val.real])
    single = 2.0 * float(np.sum(grid.weights * p_diag / np.abs(pole) ** 2))
    t_mat = psi.conj().T @ (psi * (grid.weights / pole)[:, None])
    v_val = single - 2.0 * float(np.sum(np.abs(t_mat) ** 2))
    return EmergentField(A=a_vec, V=v_val, j=j, method="integral")


def double_integral_direct(cfg: HoleConfig, j: int, grid: QuadratureGrid,
                           max_nodes: int = 4096) -> float:
    """Direct product-form evaluation of the conditioned-square double
    integral; O(grid^2), capped, kept as a cross-check of the factorized
    Frobenius form."""
    if grid.size > max_nodes:
        raise ResourceBudgetError(
            f"direct double integral capped at {max_nodes} nodes per factor")
    psi = vanishing_subspace(cfg, grid.nodes)
    ktilde = psi @ psi.conj().T
    f = grid.weights / (cfg.w[j] - grid.nodes)
    val = np.einsum("a,ab,b->", f, np.abs(ktilde) ** 2, f.conj())
    return float(np.real(val))


def correction_a(y: np.ndarray) -> np.ndarray:
    """a(y) = y^perp / (e^{|y|^2} - 1); singular at y = 0."""
    y = np.asarray(y, dtype=float)
    t = float(y @ y)
    if t == 0.0:
        raise ValueError("correction_a is singular at y = 0")
    return perp(y) / math.expm1(t)


def _v_of_t(t: float) -> float:
    if t < 0.04:
        # 2 sum_{k>=2} ((k-1)/k!) t^k / expm1(t)^2, truncation ~ t^10
        num = 0.0
        for k in range(12, 1, -1):
            num += 2.0 * (k - 1) / math.factorial(k)
            num *= t
        if t == 0.0:
            return 1.0
        return num * t / math.expm1(t) ** 2
    # exp(-t)-scaled form stays finite for arbitrarily large t
    emt = math.exp(-t)
    return 2.0 * ((t - 1.0) * emt + emt * emt) / (1.0 - emt) ** 2


def correction_v(y: np.ndarray) -> float:
    """v(y) = 2(1-(1-|y|^2)e^{|y|^2})/(e^{|y|^2}-1)^2, with v(0) = 1."""
    y = np.asarray(y, dtype=float)
    return _v_of_t(float(y @ y))


def refined_fields(cfg: HoleConfig, j: int) -> tuple[np.ndarray, float]:
    """Model fields with pairwise a/v corrections attached to every partner."""
    cfg.require_distinct()
    N = cfg.N
    rt = math.sqrt(N)
    a_vec = N * perp(to_vec(cfg.w[j]))
    v_val = 2.0 * N
    for l in range(cfg.n):
        if l == j:
            continue
        d = to_vec(cfg.w[j] - cfg.w[l])
        a_vec -= perp(d) / float(d @ d) - rt * correction_a(rt * d)
        v_val -= N * correction_v(rt * d)
    return a_vec, float(v_val)


def asymptotic_prediction(cfg: HoleConfig, j: int, regime: str,
                          pair: tuple[int, int] | None = None) -> EmergentField:
    """Leading-order fields: droplet term minus AB sum, plus the microscopic
    a/v corrections when j belongs to the single merging pair."""
    N = cfg.N
    a_vec = N * perp(to_vec(cfg.w[j])) - ab_sum(cfg, j)
    v_val = 2.0 * N
    if regime == "single-merging":
        if pair is None:
            raise ValueError("single-merging prediction needs the merging pair")
        if j in pair:
            other = pair[1] if j == pair[0] else pair[0]
            d = to_vec(cfg.w[j] - cfg.w[other])
            rt = math.sqrt(N)
            a_vec = a_vec + rt * correction_a(rt * d)
            v_val = N * (2.0 - correction_v(rt * d))
    elif regime != "no-merging":
        raise ValueError(f"no field prediction for regime {regime!r}")
    return EmergentField(A=a_vec, V=float(v_val), j=j, method="prediction")
