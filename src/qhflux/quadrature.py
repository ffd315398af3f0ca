"""Tensor Gauss-Legendre grids on a square, for the oracles."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass
class QuadratureGrid:
    nodes: np.ndarray            # complex points
    weights: np.ndarray          # positive area weights

    def __post_init__(self):
        if self.nodes.size == 0:
            raise ValueError("a quadrature grid needs at least one node")
        if np.any(self.weights <= 0):
            raise ValueError("quadrature weights must be positive")


@lru_cache(maxsize=None)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], cached and read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def cartesian_grid(radius: float, order: int = 64) -> QuadratureGrid:
    """Tensor Gauss-Legendre on the square [-radius, radius]^2."""
    x, w = gauss_legendre(order)
    x = radius * x
    w = radius * w
    nodes = (x[:, None] + 1j * x[None, :]).ravel()
    weights = (w[:, None] * w[None, :]).ravel()
    return QuadratureGrid(nodes=nodes, weights=weights)
