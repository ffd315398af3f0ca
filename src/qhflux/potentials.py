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
from .partition import (HoleConfig, SingularConfigurationError,
                        SingularMatrixError, upsilon_derivatives)
from .quadrature import QuadratureGrid, polar_grid

# per hole: a determinant of O(1) Gram entries computed within this of zero
# is rounding noise whatever its sign (measured up to ~15 eps at n = 4)
UPSILON_FLOOR = 64 * np.finfo(float).eps
SEPARATION_FLOOR = 1e-12


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


def ab_sum(cfg: HoleConfig, j: int) -> np.ndarray:
    """Aharonov-Bohm sum over the other tracers, (y_j-y_l)^perp/|y_j-y_l|^2."""
    out = np.zeros(2)
    for l in range(cfg.n):
        if l == j:
            continue
        d = cfg.w[j] - cfg.w[l]
        if abs(d) < SEPARATION_FLOOR:
            raise SingularConfigurationError(
                f"holes {j} and {l} closer than {SEPARATION_FLOOR}")
        out += perp(to_vec(d)) / abs(d) ** 2
    return out


def _log_derivatives(cfg: HoleConfig, j: int) -> tuple[complex, float, float]:
    e_j = tuple(1 if i == j else 0 for i in range(cfg.n))
    zero = (0,) * cfg.n
    try:
        ups, (d1, d11) = upsilon_derivatives(cfg, (e_j, zero), (e_j, e_j))
    except SingularMatrixError:
        ups = 0.0
    floor = UPSILON_FLOOR * cfg.n
    if ups < floor:
        raise DegenerateConfigurationError(f"Upsilon = {ups} below {floor}")
    dlog = d1 / ups
    ddlog = (d11 / ups).real - abs(dlog) ** 2
    return dlog, ddlog, ups


def emergent_field_derivative(cfg: HoleConfig, j: int) -> EmergentField:
    """A_j, V_j from exact Upsilon log-derivatives (b = N regime)."""
    if cfg.b != cfg.N:
        raise ValueError("derivative-route fields are defined in the b = N regime")
    cfg.require_distinct()
    N = cfg.N
    dlog, ddlog, _ = _log_derivatives(cfg, j)
    a_vec = N * perp(to_vec(cfg.w[j])) - ab_sum(cfg, j) \
        + np.array([dlog.imag, dlog.real])
    v_val = 2.0 * N + 2.0 * ddlog
    return EmergentField(A=a_vec, V=float(v_val), j=j, method="derivative")


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
