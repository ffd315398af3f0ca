"""Finite verification of the bath-tracer contact interaction.

The operator sends a joint state F(y; x) to F(w; w) K_inf(z, w): evaluate the
state on the diagonal and re-project onto the lowest level in the bath slot.
On tensor products u (x) psi this is u(w) psi(w) K_inf(z, w); the quadratic
form is int |u psi|^2 and the operator squares to (b/pi) times itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..kernel import KernelSpec, kernel_infty, weighted_orbitals
from ..quadrature import cartesian_grid

# Gauss-Legendre nodes per axis of the quadratic form's tensor grid
GRID_ORDER = 60
# seed of the 25 points at which the projector identity is checked
PROJECTOR_SEED = 5


@dataclass(frozen=True)
class DeltaCheckResult:
    quadratic_form_residual: float
    projector_residual: float


def delta_apply(f, b: float):
    """Lift F(y;x) = F(w;z) to (delta F)(w;z) = F(w;w) K_inf(z, w)."""
    spec = KernelSpec(b=b, M=1)

    def out(w: complex, z: complex) -> complex:
        return f(w, w) * kernel_infty(spec, z, w).to_complex()

    return out


def _orbital(b: float, k: int):
    def u(z):
        pts = np.atleast_1d(np.asarray(z, dtype=complex))
        vals = weighted_orbitals(b, k + 1, pts)[:, k]
        return vals if np.ndim(z) else complex(vals[0])
    return u


def bath_integral(b: float, x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """I[p, q] = sum_{a, c} f[a, c] K_inf(x_a + i x_c, x_p + i x_q) on the
    tensor nodes of x, without the m^2 x m^2 kernel matrix.

    K_inf(z, w) = (b/pi) e^{-b|z - w|^2/2 + i b Im(z wbar)} splits over the
    coordinates: for z = x_a + i x_c and w = x_p + i x_q it is
    (b/pi) G[a, p] G[c, q] e^{i b x_c x_p} e^{-i b x_a x_q}, with
    G[a, p] = e^{-b (x_a - x_p)^2 / 2}.  So the sum is two contractions of
    m x m factors: first over c, then over a.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(under="ignore"):
        g = np.exp(-0.5 * b * (x[:, None] - x[None, :]) ** 2)
    e = np.exp(1j * b * np.outer(x, x))
    inner = np.einsum("ac,cp,cq->apq", f, e, g, optimize=True)
    return (b / math.pi) * np.einsum("ap,aq,apq->pq", g, e.conj(), inner, optimize=True)


def delta_check(k: int, u, b: float) -> DeltaCheckResult:
    """Quadratic-form and projector residuals for a test function u.

    u is the tracer factor; the bath factor is the k-th orbital.  The
    quadratic form <u x phi_k| delta |u x phi_k> is integrated once through
    the operator (a nested 2D quadrature, its inner integral by
    bath_integral) and compared against int |u phi_k|^2; the projector
    residual is the sup of |delta^2 F - (b/pi) delta F| over seeded points.
    """
    phi = _orbital(b, k)
    radius = 1.0 + 8.0 / math.sqrt(b)
    grid = cartesian_grid(radius, order=GRID_ORDER)

    # inner bath integral I(w) = int conj(psi(z)) K_inf(z, w) dz, then the
    # tracer integral of conj(u) u psi(w) I(w); node a * order + c is x_a + i x_c
    ws = grid.nodes
    psi = phi(ws)
    weighted = (grid.weights * psi.conj()).reshape(GRID_ORDER, GRID_ORDER)
    inner = bath_integral(b, ws[:GRID_ORDER].imag, weighted).ravel()
    uw = u(ws)
    lhs = np.sum(grid.weights * np.abs(uw) ** 2 * psi * inner)
    rhs = np.sum(grid.weights * np.abs(uw * psi) ** 2)
    quad_residual = float(abs(lhs - rhs))

    f = lambda w, z: u(w) * phi(z)
    df = delta_apply(f, b)
    ddf = delta_apply(df, b)
    rng = np.random.default_rng(PROJECTOR_SEED)
    worst = 0.0
    for _ in range(25):
        w, z = (complex(*p) for p in rng.uniform(-1.0, 1.0, size=(2, 2)))
        worst = max(worst, abs(ddf(w, z) - (b / math.pi) * df(w, z)))
    return DeltaCheckResult(quadratic_form_residual=quad_residual,
                            projector_residual=worst)
