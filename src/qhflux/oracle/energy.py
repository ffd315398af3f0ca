"""Independent verification of the exact kinetic-energy decomposition.

For the joint state Phi(y) c(w) Psi(w; z) with one tracer, the bath-averaged
magnetic kinetic energy splits exactly into a gauged tracer energy plus a
scalar-potential term.  The left side is computed here from first principles:
monomial expansion gives the bath integrals I0 = <Psi, Psi>,
J1 = <Psi, dPsi/dw> and I22 = <dPsi/dw, dPsi/dw> exactly at every tracer
quadrature node.  The expansion runs once per check, with the hole given as
the array of all nodes, so its coefficients and the three integrals are
per-node arrays; it stays the capped brute-force expansion of the monomial
oracle and calls no field or partition code.  The right side takes A and V
at all nodes of the grid from one stacked call into the production field
route, emergent_fields.  The identity holds pointwise, so the two sides
agree at every node to rounding: relative residuals are 0 to ~2e-16 at grid
orders 4, 8 and 48 alike, and the check reports the worst weighted node as
well as the integrated residual.  The grid sets which weighted region is
checked, not the size of the residual.  Agreement validates both pipelines
at once.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ..potentials import emergent_fields
from ..quadrature import cartesian_grid
from .monomial import gaussian_pair_integral, quasi_hole_poly, quasi_hole_poly_dw


@dataclass(frozen=True)
class GaussianPacket:
    """Tracer test function exp(-a|y - y0|^2), with analytic gradient."""

    center: complex
    a: float = 30.0

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > 0):
            raise ValueError(f"packet width a must be finite and positive, got {self.a}")
        if not cmath.isfinite(self.center):
            raise ValueError(f"packet center must be finite, got {self.center}")

    def value(self, w):
        """Phi at w: a complex number, or an array of positions."""
        return np.exp(-self.a * np.abs(w - self.center) ** 2)

    def gradient(self, w) -> np.ndarray:
        """(d/dx, d/dy) Phi at w, in a trailing axis of length 2."""
        d = w - self.center
        return -2.0 * self.a * np.stack([d.real, d.imag], axis=-1) \
            * self.value(w)[..., None]


@dataclass(frozen=True)
class EnergyIdentityResult:
    lhs: float
    rhs: float
    # max over nodes of wt |lhs_y - rhs_y|, over |rhs|; NaN when not measured
    max_pointwise_residual: float = math.nan

    @property
    def relative_residual(self) -> float:
        return abs(self.lhs - self.rhs) / abs(self.rhs)


def _bath_integrals(N: int, w):
    """I0, J1 and I22 for one hole at w (a complex number or an array of nodes)."""
    psi = quasi_hole_poly(N, (w,))
    dpsi = quasi_hole_poly_dw(N, (w,), 0)
    b = float(N)
    i0 = gaussian_pair_integral(psi, psi, b).real
    j1 = gaussian_pair_integral(psi, dpsi, b)
    i22 = gaussian_pair_integral(dpsi, dpsi, b).real
    # at N = 1, dPsi/dw = 1 has no w in it and I22 comes back a scalar
    return tuple(np.broadcast_to(v, np.shape(w)) for v in (i0, j1, i22))


def _sq_norm(v: np.ndarray) -> np.ndarray:
    return np.sum(v.real ** 2 + v.imag ** 2, axis=-1)


def energy_identity_check(N: int, q: float, packet: GaussianPacket,
                          grid_order: int = 48) -> EnergyIdentityResult:
    """Both sides of the kinetic decomposition for one hole, b = N."""
    if not 1 <= N <= 2:
        raise ValueError(f"monomial route takes bath size N = 1 or 2, got {N}")
    if not math.isfinite(q):
        raise ValueError(f"coupling q must be finite, got {q}")
    b = float(N)
    half_width = 7.0 / math.sqrt(2.0 * packet.a)
    base = cartesian_grid(half_width, order=grid_order)
    nodes = base.nodes + packet.center
    weights = base.weights

    field_a, field_v = (f[:, 0] for f in emergent_fields(N, nodes[:, None]))
    # per-node arrays; vectors carry a trailing (x, y) axis
    i0, j1, i22 = _bath_integrals(N, nodes)

    # Xi = c Psi with c = I0^{-1/2}; grad c = -(1/2) I0^{-3/2} grad I0
    grad_i0 = 2.0 * np.stack([j1.real, -j1.imag], axis=-1)
    c = i0 ** -0.5
    grad_c = (-0.5 * i0 ** -1.5)[:, None] * grad_i0
    # T1 = int conj(Xi) grad Xi, T2 = int |grad Xi|^2
    t1 = c[:, None] * grad_c * i0[:, None] + (c * c)[:, None] * np.stack([j1, 1j * j1], axis=-1)
    s = grad_c[:, 0] - 1j * grad_c[:, 1]
    t2 = np.sum(grad_c * grad_c, axis=-1) * i0 + 2.0 * c * c * i22 \
        + 2.0 * c * np.real(s * j1.conj())

    phi = packet.value(nodes)
    grad_phi = packet.gradient(nodes)
    y_perp = np.stack([-nodes.imag, nodes.real], axis=-1)
    d_phi = -1j * grad_phi - q * b * y_perp * phi[:, None]

    lhs_y = _sq_norm(d_phi) + phi * phi * t2 \
        + 2.0 * np.real(1j * phi * np.sum(d_phi * t1.conj(), axis=-1))
    rhs_y = _sq_norm(d_phi + field_a * phi[:, None]) + phi * phi * field_v

    lhs = float(weights @ lhs_y)
    rhs = float(weights @ rhs_y)
    worst = float(np.max(weights * np.abs(lhs_y - rhs_y)))
    return EnergyIdentityResult(lhs=lhs, rhs=rhs, max_pointwise_residual=worst / abs(rhs))
