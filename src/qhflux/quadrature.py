"""2D quadrature grids (tensor Gauss-Legendre and point-centered polar)."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


@dataclass
class QuadratureGrid:
    nodes: np.ndarray            # complex points
    weights: np.ndarray          # positive area weights
    radii: np.ndarray | None = field(default=None, repr=False)
    radial_weights: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.nodes.size == 0:
            raise ValueError("a quadrature grid needs at least one node")
        if np.any(self.weights <= 0):
            raise ValueError("quadrature weights must be positive")

    @property
    def size(self) -> int:
        return self.nodes.size


@lru_cache(maxsize=None)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], cached and read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _panel_gl(edges: np.ndarray, nodes_per_panel: int):
    x, w = gauss_legendre(nodes_per_panel)
    lo = edges[:-1][:, None]
    hi = edges[1:][:, None]
    r = (0.5 * (hi - lo) * x[None, :] + 0.5 * (hi + lo)).ravel()
    wr = (0.5 * (hi - lo) * w[None, :]).ravel()
    return r, wr


def cartesian_grid(radius: float, order: int = 64) -> QuadratureGrid:
    """Tensor Gauss-Legendre on the square [-radius, radius]^2."""
    x, w = gauss_legendre(order)
    x = radius * x
    w = radius * w
    nodes = (x[:, None] + 1j * x[None, :]).ravel()
    weights = (w[:, None] * w[None, :]).ravel()
    return QuadratureGrid(nodes=nodes, weights=weights)


def polar_grid(center: complex, r_max: float, *, n_theta: int = 64,
               nodes_per_panel: int = 10, panel_width: float | None = None) -> QuadratureGrid:
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
    r, wr = _panel_gl(edges, nodes_per_panel)
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    wtheta = 2.0 * np.pi / n_theta
    nodes = (center + r[:, None] * np.exp(1j * theta)[None, :]).ravel()
    weights = (wr * r)[:, None].repeat(n_theta, axis=1).ravel() * wtheta
    return QuadratureGrid(nodes=nodes, weights=weights, radii=r, radial_weights=wr)


def integrate_radial(grid: QuadratureGrid, f) -> complex:
    """1D radial rule of a polar grid applied to a radial profile f(r)."""
    if grid.radii is None:
        raise ValueError("integrate_radial needs a polar-centered grid")
    values = np.array([f(r) for r in grid.radii], dtype=complex)
    return complex(2.0 * np.pi * np.sum(grid.radial_weights * grid.radii * values))
