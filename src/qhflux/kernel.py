"""Truncated lowest-level projection kernels and their derivatives.

The truncated kernel is

    K_M(z, w) = sum_{j<M} (b^{j+1} / (pi j!)) z^j wbar^j exp(-b(|z|^2+|w|^2)/2)

and K_inf is the M -> infinity limit (b/pi) exp(-b(|z|^2+|w|^2-2 z wbar)/2).
Derivative orders are 4-tuples (zbar, z, wbar, w) with total order at most 4;
derivatives are exact term-wise sums, never finite differences.  Differences
K_inf - K_M are always computed from the explicit tail sum over j >= M, which
is the only stable way once they fall many orders below the kernel scale.

`kernel_log_stack` evaluates the truncated, tail or infinite series for B
pairs (z_r, w_r) at once as (log-magnitude, phase) arrays, so b up to ~1024
and M up to ~1100 stay representable; `kernel_eval`, `kernel_derivative` and
`kernel_diff_log` are its B = 1 case, and a single value comes back as the
record `LogComplex` (log-magnitude, phase in [-pi, pi]).  The series runs in
chunks of terms: within a chunk the term magnitudes are a running product of
the ratios b|x|/(j+1) and the partial sums a running sum whose exact rounding
errors are kept as compensation.  Each row carries its own log scale,
rescaled at a chunk start whenever the chunk's products could pass 1e250,
and its own stop rule; a sum below 8 eps times the mass of its terms is
cancellation noise and reported as zero.  No row's value depends on the
other rows.

Kernel matrices on point sets take the other route: one weighted-orbital
table phi_j(z) and its d^p dbar^q derivatives, each entry bounded by its
derivative scale, multiplied as D_z @ D_w^H.  The series stays the
independent reference that route is tested against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .quadrature import QuadratureGrid

DerivOrder = tuple[int, int, int, int]

_LOG_RESCALE = math.log(1e250)
_CHUNK = 32          # terms in the first chunk; each later chunk is twice as long
_CHUNK_MAX = 1024
_NOISE = 8.0 * np.finfo(float).eps


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


def _series_stack(b: float, x: np.ndarray, j0: int, j1: float):
    """sum_{j0 <= j < j1} (b^{j+1}/(pi j!)) x^j for each entry of x, as
    (log-magnitude, phase) arrays; -inf marks a zero sum.

    j1 may be math.inf; a row stops once its remaining terms, bounded by a
    geometric series, fall below 1e-20 of its sum.
    """
    log_mag, phase = np.full(x.shape, -np.inf), np.zeros(x.shape)
    if j1 <= j0:
        return log_mag, phase
    rows = np.arange(x.size)
    r, theta = np.abs(x), np.angle(x)
    br = b * r
    # a row's next term j is exp(scale) t; acc, comp and mass share its
    # scale, which is -inf where x = 0 and j0 > 0
    with np.errstate(divide="ignore"):
        scale = ((j0 + 1) * math.log(b) + (j0 * np.log(r) if j0 else np.zeros(x.size))
                 - math.log(math.pi) - float(gammaln(j0 + 1)))
    j = np.full(x.size, float(j0))
    ratio = br / (j0 + 1.0)                    # from term j to term j + 1
    t, mass = np.ones(x.size), np.zeros(x.size)
    acc = np.zeros(x.size, dtype=complex)
    comp = np.zeros(x.size, dtype=complex)     # exact rounding errors of acc
    width = _CHUNK
    while rows.size:
        # the ratios fall along a chunk, so its n terms grow at most by the
        # first ratio to the power n: n is capped to keep that below 1e250,
        # and a row whose products could pass 1e250 is rescaled first
        growth = np.log(np.maximum(ratio, 1.0))
        n = np.minimum(width if j1 == math.inf else np.minimum(width, j1 - j),
                       np.maximum(1.0, np.floor(_LOG_RESCALE / np.maximum(growth, 1e-300))))
        log_big = np.log(np.maximum(t, mass))      # mass bounds |acc| too
        over = log_big + n * growth > _LOG_RESCALE
        if np.count_nonzero(over):
            shift = np.where(over, log_big, 0.0)
            f = np.exp(-shift)
            scale, t, acc, comp, mass = scale + shift, t * f, acc * f, comp * f, mass * f

        i = np.arange(width)
        pos = j[:, None] + i                      # term index of each column
        step = br[:, None] / pos[:, 1:]
        if np.count_nonzero(n < width):
            step[i[1:] >= n[:, None]] = 0.0
        mags = np.concatenate([t[:, None], step], axis=1).cumprod(axis=1)
        terms = mags * np.exp(1j * (pos * theta[:, None]))
        # running sums, and the exact rounding error of each addition (TwoSum)
        partial = np.concatenate([acc[:, None], terms], axis=1).cumsum(axis=1)
        before, after = partial[:, :-1], partial[:, 1:]
        back = after - before
        comp = comp + ((before - (after - back)) + (terms - back)).sum(axis=1)
        mass = mass + mags.sum(axis=1)
        acc = partial[:, -1].copy()
        j = j + n
        t = mags[np.arange(rows.size), n.astype(int) - 1] * (br / j)
        ratio = br / (j + 1.0)

        done = t <= 1e-20 * np.abs(acc) * np.maximum(1.0 - ratio, 0.0)
        if j1 < math.inf:
            done |= j >= j1
        finished = np.count_nonzero(done)
        if finished:
            total = acc[done] + comp[done]
            size = np.abs(total)
            # a sum below the rounding floor of its own terms is cancellation noise
            ok = size > _NOISE * mass[done]
            log_mag[rows[done]] = np.where(
                ok, scale[done] + np.log(np.where(ok, size, 1.0)), -np.inf)
            phase[rows[done]] = np.where(ok, np.angle(total), 0.0)
            if finished == rows.size:
                break
            keep = ~done
            rows, br, theta, scale, j, ratio, t, acc, comp, mass = (
                a[keep] for a in (rows, br, theta, scale, j, ratio, t, acc, comp, mass))
        width = min(2 * width, _CHUNK_MAX)
    return log_mag, phase


def _series_deriv_stack(spec: KernelSpec, x: np.ndarray, k: int, which: str):
    """k-th x-derivative of the coefficient series, by range shift."""
    b, cut = spec.b, max(spec.M - k, 0)
    if which == "infinite":
        log_mag, phase = math.log(b / math.pi) + b * x.real, b * x.imag
    else:
        log_mag, phase = _series_stack(b, x, *((0, cut) if which == "truncated"
                                               else (cut, math.inf)))
    return k * math.log(b) + log_mag, phase


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


def kernel_log_stack(spec: KernelSpec, zs, ws, order: DerivOrder,
                     which: str) -> tuple[np.ndarray, np.ndarray]:
    """d^order of K_M ("truncated"), K_inf ("infinite") or K_inf - K_M
    ("tail", from the explicit tail sum) at each pair (zs[r], ws[r]).

    Returns (log-magnitude, phase) arrays of shape (B,); a zero value,
    including a sum of derivative terms that cancels below 8 eps of their
    mass, has log-magnitude -inf and phase 0.
    """
    order = _check_order(order)
    if which not in ("truncated", "infinite", "tail"):
        raise ValueError(f"unknown kernel variant {which!r}")
    z = np.asarray(zs, dtype=complex).ravel()
    w = np.asarray(ws, dtype=complex).ravel()
    terms = _deriv_terms(order)
    x = z * w.conj()
    series = {k: _series_deriv_stack(spec, x, k, which) for k in {key[4] for key, _ in terms}}
    # sum c b^p z^pz zbar^pzb w^pw wbar^pwb S^(k) row by row, each S^(k)
    # relative to the largest one
    top = np.maximum.reduce([s_log for s_log, _ in series.values()])
    live = top > -np.inf
    top = np.where(live, top, 0.0)
    unit = {k: np.exp((s_log - top) + 1j * s_phase) for k, (s_log, s_phase) in series.items()}
    acc = np.zeros(z.shape, dtype=complex)
    mass = np.zeros(z.shape)
    for (pz, pzb, pw, pwb, k, p), c in terms:
        term = c * spec.b ** p * unit[k]
        for base, power in ((z, pz), (z.conj(), pzb), (w, pw), (w.conj(), pwb)):
            if power:
                term = term * base ** power
        acc += term
        mass += np.abs(term)
    size = np.abs(acc)
    ok = live & (size > _NOISE * mass)
    gauss = -0.5 * spec.b * (np.abs(z) ** 2 + np.abs(w) ** 2)
    return (np.where(ok, gauss + top + np.log(np.where(ok, size, 1.0)), -np.inf),
            np.where(ok, np.angle(acc), 0.0))


@dataclass(frozen=True)
class LogComplex:
    """exp(log_mag) exp(i phase), phase in [-pi, pi]; log_mag = -inf is the
    zero value (a sum that cancels below its rounding floor)."""

    log_mag: float
    phase: float

    @property
    def is_zero(self) -> bool:
        return self.log_mag == -math.inf

    def to_complex(self) -> complex:
        """The value as a double complex; infinite modulus past overflow."""
        try:
            mag = math.exp(self.log_mag)
        except OverflowError:
            mag = math.inf
        return cmath.rect(mag, self.phase)


def _kernel_log(spec: KernelSpec, z: complex, w: complex, order: DerivOrder,
                which: str) -> LogComplex:
    log_mag, phase = kernel_log_stack(spec, [z], [w], order, which)
    return LogComplex(float(log_mag[0]), float(phase[0]))


def kernel_eval(spec: KernelSpec, z: complex, w: complex) -> LogComplex:
    """Truncated kernel K_M(z, w)."""
    return _kernel_log(spec, z, w, (0, 0, 0, 0), "truncated")


def kernel_infty(spec: KernelSpec, z: complex, w: complex) -> LogComplex:
    """Full-projection kernel (b/pi) exp(-b(|z|^2+|w|^2-2 z wbar)/2)."""
    x = z * w.conjugate()
    return LogComplex(math.log(spec.b / math.pi)
                      - 0.5 * spec.b * (abs(z) ** 2 + abs(w) ** 2) + spec.b * x.real,
                      math.remainder(spec.b * x.imag, 2.0 * math.pi))


def kernel_derivative(spec: KernelSpec, z: complex, w: complex,
                      order: DerivOrder, which: str = "truncated") -> complex:
    """Mixed derivative of K_M or K_inf, exact term-wise differentiation."""
    if which not in ("truncated", "infinite"):
        raise ValueError("which must be 'truncated' or 'infinite'")
    return _kernel_log(spec, z, w, order, which).to_complex()


def kernel_diff_log(spec: KernelSpec, z: complex, w: complex,
                    order: DerivOrder = (0, 0, 0, 0)) -> LogComplex:
    """d^order (K_inf - K_M) via the explicit tail sum over j >= M."""
    return _kernel_log(spec, z, w, order, "tail")


def phi_rate(x):
    """x - log x - 1, the exponential decay rate of the kernel tail; inf at 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("phi_rate needs a nonnegative argument")
    return (x - np.log(x, out=np.full(x.shape, -np.inf), where=x > 0) - 1.0)[()]


def kernel_tail_bound_log(spec: KernelSpec, z, w):
    """log of the certified bound on |K_inf - K_M| for M >= b, |z wbar| < 1,
    elementwise over arrays of z and w; -inf where z or w is 0."""
    if spec.M < spec.b:
        raise ValueError("tail bound certified only for M >= b")
    q = np.abs(z) * np.abs(w)
    if np.any(q >= 1.0):
        raise ValueError("tail bound requires |z wbar| < 1")
    rate = phi_rate(np.abs(z) ** 2) + phi_rate(np.abs(w) ** 2)
    return (-math.log(math.pi) + 0.5 * math.log(5.0 * spec.b / (4.0 * math.pi))
            - np.log1p(-q) - 0.5 * spec.b * rate)


def kernel_tail_bound(spec: KernelSpec, z: complex, w: complex) -> float:
    return math.exp(kernel_tail_bound_log(spec, z, w))


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


def orbital_derivatives(b: float, orbitals: np.ndarray, pts: np.ndarray, orders) -> dict:
    """Tables {(p, q): d^p dbar^q phi_j(pts[i])} from the orbital matrix
    weighted_orbitals(b, M, pts).

    Uses d phi_j = sqrt(b j) phi_{j-1} - (b/2) zbar phi_j and
    dbar phi_j = -(b/2) z phi_j: derivatives are index shifts of the
    orbitals times polynomial weights, so no entry leaves the scale
    sqrt(b/pi) (b + b|z|)^(p+q) and nothing underflows.
    """
    z = np.asarray(pts, dtype=complex).reshape(-1, 1)
    # shifted[l] = L^l phi with (L phi)_j = sqrt(b j) phi_{j-1}
    shifted = [orbitals]
    root = np.sqrt(b * np.arange(1, orbitals.shape[1]))
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
    d_z = orbital_derivatives(b, weighted_orbitals(b, M, zs), zs, [(a_z, a_zbar)])[(a_z, a_zbar)]
    d_w = orbital_derivatives(b, weighted_orbitals(b, M, ws), ws, [(a_wbar, a_w)])[(a_wbar, a_w)]
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
