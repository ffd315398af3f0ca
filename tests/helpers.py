"""Reference computations that only the tests run: a point-centered polar
grid with its 1D radial rule, the direct O(grid^2) double integral of the
conditioned-kernel square, the reproducing residual of K_M, Ginibre
eigenvalues, and one Metropolis sweep on a fresh sweep state."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from qhflux.kernel import KernelSpec, weighted_orbitals
from qhflux.oracle.charpoly import ginibre_matrices
from qhflux.oracle.plasma import PlasmaConfig, _Sweep
from qhflux.partition import HoleConfig
from qhflux.potentials import vanishing_subspace
from qhflux.quadrature import QuadratureGrid, gauss_legendre


@dataclass
class PolarGrid(QuadratureGrid):
    radii: np.ndarray            # the radial nodes of every ring
    radial_weights: np.ndarray   # their 1D Gauss-Legendre weights


def polar_grid(center: complex, r_max: float, *, n_theta: int = 64,
               nodes_per_panel: int = 10, panel_width: float | None = None) -> PolarGrid:
    """Polar grid centered at a point: rings grouped into radial
    Gauss-Legendre panels of panel_width (default r_max / 4) from r = 0,
    the last one ending at r_max.  No node lies on the center, and the
    weights carry the Jacobian r, so an integrand that is bounded there
    (or goes as 1/r) is smooth in the radial rule.
    """
    if panel_width is None:
        panel_width = r_max / 4.0
    for name, value in (("r_max", r_max), ("panel_width", panel_width)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    for name, value in (("n_theta", n_theta), ("nodes_per_panel", nodes_per_panel)):
        if not (isinstance(value, numbers.Integral) and value >= 1):
            raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
    edges = np.append(panel_width * np.arange(math.ceil(r_max / panel_width)), r_max)
    x, w = gauss_legendre(nodes_per_panel)
    lo, hi = edges[:-1, None], edges[1:, None]
    r = (0.5 * (hi - lo) * x + 0.5 * (hi + lo)).ravel()
    wr = (0.5 * (hi - lo) * w).ravel()
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    wtheta = 2.0 * np.pi / n_theta
    nodes = (center + r[:, None] * np.exp(1j * theta)[None, :]).ravel()
    weights = (wr * r)[:, None].repeat(n_theta, axis=1).ravel() * wtheta
    return PolarGrid(nodes=nodes, weights=weights, radii=r, radial_weights=wr)


def integrate_radial(grid: PolarGrid, f) -> complex:
    """1D radial rule of a polar grid applied to a radial profile f(r)."""
    values = np.array([f(r) for r in grid.radii], dtype=complex)
    return complex(2.0 * np.pi * np.sum(grid.radial_weights * grid.radii * values))


def double_integral_direct(cfg: HoleConfig, j: int, grid: QuadratureGrid) -> float:
    """The double integral of the conditioned-kernel square weighted by
    1 / (w_j - z) and its conjugate, in product form on a grid: O(grid^2),
    a check of the factorized Frobenius form."""
    psi = vanishing_subspace(cfg, grid.nodes)
    ktilde = psi @ psi.conj().T
    f = grid.weights / (cfg.w[j] - grid.nodes)
    return float(np.real(np.einsum("a,ab,b->", f, np.abs(ktilde) ** 2, f.conj())))


def reproducing_residual(spec: KernelSpec, z: complex, w: complex,
                         grid: QuadratureGrid) -> float:
    """Relative residual of int K_M(z,x) K_M(x,w) dx = K_M(z,w)."""
    u = weighted_orbitals(spec.b, spec.M, np.array([z, w]))
    U = weighted_orbitals(spec.b, spec.M, grid.nodes)
    k_zx = u[0] @ U.conj().T
    k_xw = U @ u[1].conj()
    integral = np.sum(grid.weights * k_zx * k_xw)
    k_zw = u[0] @ u[1].conj()
    return float(abs(integral - k_zw) / abs(k_zw))


def ginibre_samples(N: int, b: float, count: int, seed: int) -> np.ndarray:
    """(count, N) exact draws from the no-hole mu = 1 plasma at field b: the
    eigenvalues of ginibre_matrices(N, b, count, seed)."""
    return np.linalg.eigvals(ginibre_matrices(N, b, count, seed))


def metropolis_sweep(cfg: PlasmaConfig, z: np.ndarray, steps: np.ndarray,
                     logu: np.ndarray) -> tuple[np.ndarray, list[bool], list[float]]:
    """One sweep of _Sweep on a fresh state, under the warning filter that
    plasma_mcmc sets for its chain."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return _Sweep(cfg)(z, steps, logu)
