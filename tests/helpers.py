"""Reference computations that only the tests run: a point-centered polar
grid with its 1D radial rule, the direct O(grid^2) double integral of the
conditioned-kernel square, the reproducing residual of K_M, Ginibre
eigenvalues, one Metropolis sweep on a fresh sweep state, the orbital
derivative table and the one-tracer Jacobi derivatives built from it, and a
counter of the runs of a cached property's body."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from qhflux.kernel import KernelSpec, weighted_orbitals
from qhflux.oracle.charpoly import ginibre_matrices
from qhflux.oracle.plasma import PlasmaConfig, _Sweep
from qhflux.partition import HoleConfig, _check_tracer, _kernel_stack
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


def orbital_derivative(b: float, orbitals: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Table d phi_j(pts[i]) = sqrt(b j) phi_{j-1} - (b/2) zbar phi_j from the
    orbital matrix weighted_orbitals(b, M, pts) (or any multiple of it).

    An index shift of the orbitals times polynomial weights, so no entry
    leaves the scale sqrt(b/pi) (b + b|z|) and nothing underflows.  The other
    two derivatives are the orbitals themselves and this table:
    dbar phi_j = -(b/2) z phi_j and d dbar phi_j = -(b/2) (phi_j + z d phi_j).
    """
    z = np.asarray(pts, dtype=complex).reshape(-1, 1)
    shifted = np.zeros_like(orbitals)        # sqrt(b j) phi_{j-1}
    shifted[:, 1:] = orbitals[:, :-1] * np.sqrt(b * np.arange(1, orbitals.shape[1]))
    return -0.5 * b * z.conj() * orbitals + shifted


def log_upsilon_derivative_one_tracer(b: float, M: int, holes, j: int
                                      ) -> tuple[np.ndarray, ...]:
    """d_j log Upsilon and d_j dbar_j log Upsilon of one tracer for a (B, n)
    hole stack, from hole j's orbital derivative table and the explicit
    matrices d_j K, dbar_j K = (d_j K)^H and d_j dbar_j K: row j of d_j K
    is the orbital sum d phi_j phi^H, column j is -(b/2) wbar_j K[:, j], and
    the (j, j) entries are the tail terms of Q(M, b|w_j|^2).  NaN on the
    rows that resolved_rows refuses.  Also returns the mass of each, the
    sum of the moduli of the products in its traces, with every entry of
    row and column j of d_j K widened by b (1 + 2 max |w|) and of
    d_j dbar_j K by its square, the scales of their rounding noise: mass
    times a few eps bounds the rounding of any way to sum them."""
    holes = np.asarray(holes, dtype=complex)
    _check_tracer(j, holes.shape[1])
    f = _kernel_stack(b, M, holes)
    phi, kernel = f.phi, f.kernel
    resolved = f.refusal[1]
    w = np.where(resolved, holes[:, j], 0.0)
    top = np.abs(phi[:, j, M - 1]) ** 2
    below = np.abs(phi[:, j, M - 2]) ** 2 if M > 1 else 0.0
    q1, q2 = -top, top - below
    r = (orbital_derivative(b, phi[:, j], w)[:, None, :] @ phi.conj().swapaxes(1, 2))[:, 0]
    dk, ddk = np.zeros_like(kernel), np.zeros_like(kernel)
    dk[:, j, :] = r
    dk[:, :, j] = -0.5 * b * w.conj()[:, None] * kernel[:, :, j]
    dk[:, j, j] = b * w.conj() * q1
    ddk[:, j, :] = -0.5 * b * (kernel[:, j, :] + w[:, None] * r)
    ddk[:, :, j] = ddk[:, j, :].conj()
    ddk[:, j, j] = b ** 2 * w * w.conj() * q2 + b * q1
    d, dbar, dd = (f.inverse @ m for m in (dk, dk.conj().swapaxes(1, 2), ddk))
    dlog = np.trace(d, axis1=1, axis2=2)
    ddlog = np.trace(dd - dbar @ d, axis1=1, axis2=2).real
    dlog[~resolved] = ddlog[~resolved] = np.nan
    n = kernel.shape[1]
    cross = np.zeros((n, n))
    cross[j, :] = cross[:, j] = 1.0
    noise = b * (1.0 + 2.0 * np.abs(np.where(resolved[:, None], holes, 0.0)).max(axis=1))
    g = np.abs(f.inverse)
    a_dk = np.abs(dk) + noise[:, None, None] * cross
    a_ddk = np.abs(ddk) + noise[:, None, None] ** 2 * cross
    mass = np.trace(g @ a_dk, axis1=1, axis2=2)
    mass2 = np.trace(g @ a_ddk + g @ a_dk.swapaxes(1, 2) @ g @ a_dk, axis1=1, axis2=2)
    return dlog, ddlog, mass, mass2


def count_cached_property(monkeypatch, cls, name: str, calls: list):
    """Replace cached property `name` of cls, for the test, by one that
    appends name to calls each time its body runs."""
    body = cls.__dict__[name].func

    def counted(self):
        calls.append(name)
        return body(self)

    prop = cached_property(counted)
    prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, prop)
