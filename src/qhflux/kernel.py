"""Truncated lowest-level projection kernels and their derivatives.

The truncated kernel is

    K_M(z, w) = sum_{j<M} (b^{j+1} / (pi j!)) z^j wbar^j exp(-b(|z|^2+|w|^2)/2)

and K_inf is the M -> infinity limit (b/pi) exp(-b(|z|^2+|w|^2-2 z wbar)/2).
Evaluation runs a scaled multiplicative term recurrence in the log domain, so
b up to ~1024 and M up to ~1100 stay representable.  Derivative orders are
4-tuples (zbar, z, wbar, w) with total order at most 4; derivatives are exact
term-wise sums, never finite differences.  Differences K_inf - K_M are always
computed from the explicit tail sum over j >= M, which is the only stable way
once they fall many orders below the kernel scale.

Kernel matrices on point sets take the other route: one weighted-orbital
table phi_j(z) and its d^p dbar^q derivatives, each entry bounded by its
derivative scale, multiplied as D_z @ D_w^H.  The scalar series stays the
independent reference that route is tested against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .lognum import LogComplex, log_sum
from .quadrature import QuadratureGrid

DerivOrder = tuple[int, int, int, int]

_RESCALE = 1e250


class UnsupportedOrderError(ValueError):
    pass


@dataclass(frozen=True)
class KernelSpec:
    """Field strength b and truncation order M (number of orbitals)."""

    b: float
    M: int

    def __post_init__(self):
        if self.b <= 0:
            raise ValueError("field strength b must be positive")
        if self.M < 1:
            raise ValueError("truncation order M must be at least 1")


def _series0_log(b: float, x: complex, j0: int, j1: float) -> LogComplex:
    """sum_{j0 <= j < j1} (b^{j+1}/(pi j!)) x^j in the log domain.

    j1 may be math.inf; the loop stops once terms past the peak stop
    contributing at double precision.
    """
    if j1 <= j0:
        return LogComplex.zero()
    r = abs(x)
    if r == 0.0:
        if j0 == 0:
            return LogComplex.from_real(b / math.pi)
        return LogComplex.zero()
    theta = cmath.phase(x)
    scale = (j0 + 1) * math.log(b) + j0 * math.log(r) - math.log(math.pi) \
        - float(gammaln(j0 + 1))
    t = 1.0
    acc = 0j
    comp = 0j  # Neumaier compensation keeps the sum error at ~eps * max term
    mass = 0.0
    br = b * r
    j = j0
    while j < j1:
        term = t * cmath.exp(1j * (j * theta))
        new = acc + term
        if abs(acc) >= abs(term):
            comp += (acc - new) + term
        else:
            comp += (term - new) + acc
        acc = new
        mass += t
        t *= br / (j + 1)
        j += 1
        if t > _RESCALE or abs(acc) > _RESCALE or mass > _RESCALE:
            shift = math.log(max(t, abs(acc), mass))
            scale += shift
            f = math.exp(-shift)
            t *= f
            acc *= f
            comp *= f
            mass *= f
        ratio = br / (j + 1)
        if ratio < 0.95 and acc != 0 and t / (1.0 - ratio) < abs(acc) * 1e-20:
            break
        if t == 0.0:
            break
    acc += comp
    # a sum below the roundoff floor of its own terms is cancellation noise
    if abs(acc) <= 8.0 * 2.220446049250313e-16 * mass:
        return LogComplex.zero()
    return LogComplex(scale + math.log(abs(acc)), cmath.phase(acc))


def _series_deriv_log(spec: KernelSpec, x: complex, k: int, which: str) -> LogComplex:
    """k-th x-derivative of the coefficient series, by range shift."""
    b, M = spec.b, spec.M
    bk = LogComplex(k * math.log(b), 0.0)
    if which == "truncated":
        return bk * _series0_log(b, x, 0, max(M - k, 0))
    if which == "infinite":
        return LogComplex(k * math.log(b) + math.log(b / math.pi) + b * x.real,
                          b * x.imag)
    if which == "tail":
        return bk * _series0_log(b, x, max(M - k, 0), math.inf)
    raise ValueError(f"unknown kernel variant {which!r}")


def _gauss_log(b: float, z: complex, w: complex) -> LogComplex:
    return LogComplex(-0.5 * b * (abs(z) ** 2 + abs(w) ** 2), 0.0)


# Symbolic expansion of mixed derivatives: each entry maps
# (pz, pzb, pw, pwb, k, p) -> c, standing for c * b^p * z^pz * zbar^pzb
# * w^pw * wbar^pwb * S^(k)(z wbar) * exp(-b(|z|^2+|w|^2)/2).

def _apply_deriv(terms: dict, slot: str) -> dict:
    out: dict = {}

    def add(key, c):
        out[key] = out.get(key, 0.0) + c

    for (pz, pzb, pw, pwb, k, p), c in terms.items():
        if slot == "z":
            if pz > 0:
                add((pz - 1, pzb, pw, pwb, k, p), c * pz)
            add((pz, pzb, pw, pwb + 1, k + 1, p), c)
            add((pz, pzb + 1, pw, pwb, k, p + 1), -0.5 * c)
        elif slot == "zbar":
            if pzb > 0:
                add((pz, pzb - 1, pw, pwb, k, p), c * pzb)
            add((pz + 1, pzb, pw, pwb, k, p + 1), -0.5 * c)
        elif slot == "wbar":
            if pwb > 0:
                add((pz, pzb, pw, pwb - 1, k, p), c * pwb)
            add((pz + 1, pzb, pw, pwb, k + 1, p), c)
            add((pz, pzb, pw + 1, pwb, k, p + 1), -0.5 * c)
        elif slot == "w":
            if pw > 0:
                add((pz, pzb, pw - 1, pwb, k, p), c * pw)
            add((pz, pzb, pw, pwb + 1, k, p + 1), -0.5 * c)
    return {key: c for key, c in out.items() if c != 0.0}


@lru_cache(maxsize=None)
def _deriv_terms(order: DerivOrder) -> tuple:
    a_zbar, a_z, a_wbar, a_w = order
    terms = {(0, 0, 0, 0, 0, 0): 1.0}
    for slot, count in (("zbar", a_zbar), ("z", a_z), ("wbar", a_wbar), ("w", a_w)):
        for _ in range(count):
            terms = _apply_deriv(terms, slot)
    return tuple(terms.items())


def _check_order(order: DerivOrder, max_total: int = 4) -> DerivOrder:
    order = tuple(int(a) for a in order)
    if len(order) != 4 or any(a < 0 for a in order):
        raise UnsupportedOrderError(f"bad derivative order {order}")
    if sum(order) > max_total:
        raise UnsupportedOrderError(f"total derivative order {sum(order)} > {max_total}")
    return order


def kernel_derivative_log(spec: KernelSpec, z: complex, w: complex,
                          order: DerivOrder, which: str) -> LogComplex:
    order = _check_order(order)
    x = z * w.conjugate()
    series = {}
    gauss = _gauss_log(spec.b, z, w)
    lz = LogComplex.from_complex(z)
    lw = LogComplex.from_complex(w)
    values = []
    for (pz, pzb, pw, pwb, k, p), c in _deriv_terms(order):
        if k not in series:
            series[k] = _series_deriv_log(spec, x, k, which)
        sk = series[k]
        if sk.is_zero:
            continue
        term = LogComplex.from_real(c * spec.b ** p)
        term = term * lz.powi(pz) * lz.conjugate().powi(pzb)
        term = term * lw.powi(pw) * lw.conjugate().powi(pwb)
        term = term * sk * gauss
        if not term.is_zero:
            values.append(term)
    if not values:
        return LogComplex.zero()
    return log_sum(values)


def kernel_eval(spec: KernelSpec, z: complex, w: complex) -> LogComplex:
    """Truncated kernel K_M(z, w)."""
    return _series0_log(spec.b, z * w.conjugate(), 0, spec.M) * _gauss_log(spec.b, z, w)


def kernel_infty(spec: KernelSpec, z: complex, w: complex) -> LogComplex:
    """Full-projection kernel (b/pi) exp(-b(|z|^2+|w|^2-2 z wbar)/2)."""
    x = z * w.conjugate()
    return LogComplex(math.log(spec.b / math.pi)
                      - 0.5 * spec.b * (abs(z) ** 2 + abs(w) ** 2) + spec.b * x.real,
                      spec.b * x.imag)


def kernel_derivative(spec: KernelSpec, z: complex, w: complex,
                      order: DerivOrder, which: str = "truncated") -> complex:
    """Mixed derivative of K_M or K_inf, exact term-wise differentiation."""
    if which not in ("truncated", "infinite"):
        raise ValueError("which must be 'truncated' or 'infinite'")
    return kernel_derivative_log(spec, z, w, order, which).to_complex()


def kernel_diff_log(spec: KernelSpec, z: complex, w: complex,
                    order: DerivOrder = (0, 0, 0, 0)) -> LogComplex:
    """d^order (K_inf - K_M) via the explicit tail sum over j >= M."""
    return kernel_derivative_log(spec, z, w, order, "tail")


def phi_rate(x: float) -> float:
    """x - log x - 1, the exponential decay rate of the kernel tail."""
    if x < 0:
        raise ValueError("phi_rate needs a nonnegative argument")
    if x == 0.0:
        return math.inf
    return x - math.log(x) - 1.0


def kernel_tail_bound_log(spec: KernelSpec, z: complex, w: complex) -> float:
    """log of the certified bound on |K_inf - K_M| for M >= b, |z wbar| < 1."""
    n_eff = spec.M - spec.b
    if n_eff < 0:
        raise ValueError("tail bound certified only for M >= b")
    q = abs(z) * abs(w)
    if q >= 1.0:
        raise ValueError("tail bound requires |z wbar| < 1")
    rate = phi_rate(abs(z) ** 2) + phi_rate(abs(w) ** 2)
    if math.isinf(rate):
        return -math.inf
    return (-math.log(math.pi) + 0.5 * math.log(5.0 * spec.b / (4.0 * math.pi))
            - math.log1p(-q) - 0.5 * spec.b * rate)


def kernel_tail_bound(spec: KernelSpec, z: complex, w: complex) -> float:
    lb = kernel_tail_bound_log(spec, z, w)
    return 0.0 if lb == -math.inf else math.exp(lb)


def _log_poisson(j: np.ndarray, t: np.ndarray) -> np.ndarray:
    """log(t^j e^{-t} / j!) for j >= 0, t > 0, in Loader's saddle-point form.

    -stirlerr(j) - t bd0(j/t) - log(2 pi j)/2 keeps the error near eps |j - t|,
    where j log t - t - log j! would scale every term by e^{j delta} from the
    rounding delta of log t and let sum_j come out above 1.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        jj = np.maximum(j, 1.0)
        small = gammaln(jj + 1) - (jj + 0.5) * np.log(jj) + jj - 0.5 * math.log(2 * math.pi)
        inv2 = 1.0 / jj ** 2
        series = (1 / 12 - inv2 * (1 / 360 - inv2 * (1 / 1260 - inv2 * (1 / 1680 - inv2 / 1188)))) / jj
        stirlerr = np.where(jj > 15, series, small)
        d = (j - t) / t
        # j/t below eps rounds d to -1, where (1 + d) log1p(d) takes its limit 0
        bd0 = t * (np.where(d > -1.0, (1.0 + d) * np.log1p(d), 0.0) - d)
        return np.where(j == 0, -t, -stirlerr - bd0 - 0.5 * np.log(2 * math.pi * jj))


def weighted_orbitals(b: float, M: int, pts: np.ndarray) -> np.ndarray:
    """Matrix U[i, j] = phi_j(pts[i]) including the Gaussian weight.

    Rows satisfy K_M(z_i, z_l) = (U U^H)[i, l]; every entry is bounded by
    sqrt(b/pi), so plain double arithmetic is safe on grids.  |phi_j(z)|^2 is
    (b/pi) times the Poisson weight t^j e^{-t}/j! at t = b|z|^2.
    """
    pts = np.asarray(pts, dtype=complex).ravel()
    j = np.arange(M, dtype=float)[None, :]
    # an overflowed t counts as the largest double, where every orbital is 0
    with np.errstate(over="ignore"):
        t = np.minimum(b * np.abs(pts) ** 2, np.finfo(float).max)[:, None]
    # below t = 1e-280, where _log_poisson's t bd0 overflows, t counts as 0:
    # that drops only orbitals j >= 1 below sqrt(b/pi) 1e-140
    live = t > 1e-280
    logp = np.where(live, _log_poisson(j, np.where(live, t, 1.0)),
                    np.where(j == 0, 0.0, -np.inf))
    phase = j * np.angle(pts)[:, None]
    return math.sqrt(b / math.pi) * np.exp(0.5 * logp) * np.exp(1j * phase)


def orbital_derivatives(b: float, M: int, pts: np.ndarray, orders) -> dict:
    """Tables {(p, q): d^p dbar^q phi_j(pts[i])} from one orbital matrix.

    Uses d phi_j = sqrt(b j) phi_{j-1} - (b/2) zbar phi_j and
    dbar phi_j = -(b/2) z phi_j: derivatives are index shifts of the
    orbitals times polynomial weights, so no entry leaves the scale
    sqrt(b/pi) (b + b|z|)^(p+q) and nothing underflows.
    """
    pts = np.asarray(pts, dtype=complex).ravel()
    z = pts[:, None]
    # shifted[l] = L^l phi with (L phi)_j = sqrt(b j) phi_{j-1}
    shifted = [weighted_orbitals(b, M, pts)]
    root = np.sqrt(b * np.arange(1, M))
    for _ in range(max(p for p, _ in orders)):
        nxt = np.zeros_like(shifted[0])
        nxt[:, 1:] = shifted[-1][:, :-1] * root
        shifted.append(nxt)

    # d^m phi = (L - (b/2) zbar)^m phi
    d_z = [sum(math.comb(m, l) * (-0.5 * b * z.conj()) ** (m - l) * shifted[l]
               for l in range(m + 1)) for m in range(len(shifted))]

    # dbar^q phi = (-(b/2) z)^q phi, then d^p by Leibniz over the z^q factor
    return {(p, q): (-0.5 * b) ** q * sum(math.comb(p, k) * math.perm(q, k)
                                          * z ** (q - k) * d_z[p - k]
                                          for k in range(min(p, q) + 1))
            for p, q in orders}


def kernel_matrix(spec: KernelSpec, zs: np.ndarray, ws: np.ndarray,
                  order: DerivOrder = (0, 0, 0, 0)) -> np.ndarray:
    """Matrix of d^order K_M(z_i, w_l), as D_z @ D_w^H over orbital tables.

    d/dw and d/dwbar reach conj(phi_j(w)) as conj(dbar phi_j) and
    conj(d phi_j), so the w side uses the orbital order (wbar, w).
    """
    a_zbar, a_z, a_wbar, a_w = _check_order(order)
    b, M = spec.b, spec.M
    d_z = orbital_derivatives(b, M, zs, [(a_z, a_zbar)])[(a_z, a_zbar)]
    d_w = orbital_derivatives(b, M, ws, [(a_wbar, a_w)])[(a_wbar, a_w)]
    return d_z @ d_w.conj().T


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
