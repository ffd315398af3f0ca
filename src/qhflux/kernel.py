"""Truncated lowest-level projection kernels and their derivatives.

The truncated kernel is

    K_M(z, w) = sum_{j<M} (b^{j+1} / (pi j!)) z^j wbar^j exp(-b(|z|^2+|w|^2)/2)

and K_inf is the M -> infinity limit (b/pi) exp(-b(|z|^2+|w|^2-2 z wbar)/2).
Derivative orders are 4-tuples (zbar, z, wbar, w) with total order at most 4;
derivatives are exact term-wise sums, never finite differences.  Differences
K_inf - K_M are always computed from the explicit tail sum over j >= M, which
is the only stable way once they fall many orders below the kernel scale.

`kernel_log_orders` evaluates the truncated, tail or infinite series for B
pairs (z_r, w_r) and a list of derivative orders at once as
(log-magnitude, phase) arrays, so b up to ~1024 and M up to ~1100 stay
representable.  Every order is a short combination of the range-shifted
series S^(k)(z wbar), k <= 4: each S^(k) that some order needs is summed
once, and each order is combined relative to top, the largest of its own
series only, so it equals a one-order call bit for bit.  `kernel_eval`,
`kernel_infty` and `kernel_diff_log` are its one-pair, one-order case, and a
single value comes back as the record `LogComplex` (log-magnitude, phase in
[-pi, pi]).

The series runs in chunks of terms: within a chunk the term magnitudes are a
running product of the ratios b|x|/(j+1) and the partial sums a running sum
whose exact rounding errors are kept as compensation.  Each row carries its
own log scale, rescaled at a chunk start whenever the chunk's products could
pass 1e250, and its own stop rule.  A sum is cancellation noise, reported as zero,
below the rounding floor of its terms: 8 eps (2 + (j - j0) + j |arg x|)
times their mass for terms j0..j, since term j carries the rounding of a
running product over j - j0 steps and of its phase j arg x, besides that of
the additions.
No row's value depends on the other rows.

Kernel matrices on point sets take the other route: the weighted-orbital
table phi_j(z), multiplied as U U^H, the only table the emergent fields need
(partition turns their orbital derivatives into kernel entries).  The series
stays the independent reference that route is tested against.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DerivOrder = tuple[int, int, int, int]

_LOG_RESCALE = math.log(1e250)
_CHUNK = 32          # terms in the first chunk; each later chunk is twice as long
_CHUNK_MAX = 1024
_NOISE = 8.0 * np.finfo(float).eps
# a tail row sums about b|z wbar| terms before they fall
_TAIL_TERMS_MAX = 2.0 ** 20


class UnsupportedOrderError(ValueError):
    pass


@dataclass(frozen=True)
class KernelSpec:
    """Field strength b and truncation order M (number of orbitals)."""

    b: float
    M: int

    def __post_init__(self):
        if not (math.isfinite(self.b) and self.b > 0):
            raise ValueError(f"field strength b must be finite and positive, got {self.b!r}")
        if not (isinstance(self.M, numbers.Integral) and self.M >= 1):
            raise ValueError(f"truncation order M must be an integer of at least 1, got {self.M!r}")


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
                 - math.log(math.pi) - math.lgamma(j0 + 1))
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
            # a sum below the rounding floor of its own terms is cancellation
            # noise; the last term, j - 1, carries ~(j - j0) eps from the
            # running product from j0 and ~j |arg x| eps from its phase,
            # besides the additions
            last = j[done] - 1.0
            ok = size > _NOISE * (2.0 + (last - j0) + last * np.abs(theta[done])) * mass[done]
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
    """k-th x-derivative of the truncated or tail coefficient series, by
    range shift."""
    b, cut = spec.b, max(spec.M - k, 0)
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


def _check_order(order: DerivOrder) -> DerivOrder:
    order = tuple(int(a) for a in order)
    if len(order) != 4 or any(a < 0 for a in order):
        raise UnsupportedOrderError(f"bad derivative order {order}")
    if sum(order) > 4:
        raise UnsupportedOrderError(f"total derivative order {sum(order)} > 4")
    return order


def _check_points(b: float, z: np.ndarray, w: np.ndarray, tail: bool):
    """Refuse (ValueError, naming the first such row) pairs the series cannot
    evaluate: b(|z|^2 + |w|^2) not finite, a non-finite point included, or,
    for the tail, more than _TAIL_TERMS_MAX terms to sum."""
    with np.errstate(over="ignore", invalid="ignore"):
        az, aw = np.abs(z), np.abs(w)
        finite = np.isfinite(b * (az * az + aw * aw))
        terms = b * az * aw
    bad = ~finite | (terms > _TAIL_TERMS_MAX) if tail else ~finite
    if bad.any():
        r = int(np.argmax(bad))
        why = (f"needs finite b(|z|^2 + |w|^2) (b = {b:g})" if not finite[r] else
               f"would sum ~b|z wbar| = {terms[r]:.3g} tail terms, above 2^20")
        raise ValueError(f"row {r}: kernel at z = {z[r]}, w = {w[r]} {why}")


def kernel_log_orders(spec: KernelSpec, zs, ws, orders: list[DerivOrder],
                      which: str) -> list[tuple[np.ndarray, np.ndarray]]:
    """d^order of K_M ("truncated"), K_inf ("infinite") or K_inf - K_M
    ("tail", from the explicit tail sum) at each pair (zs[r], ws[r]), for
    each order in orders.

    Returns one (log-magnitude, phase) pair of arrays of shape (B,) per
    order; a zero value, including a sum of derivative terms that cancels
    below 8 eps of their mass, has log-magnitude -inf and phase 0.  A pair
    with b(|z|^2 + |w|^2) not finite, or a tail of over 2^20 terms, raises
    ValueError, and a bad order anywhere in the list UnsupportedOrderError,
    before any series is summed.  Each series S^(k) that some order needs
    is summed once; every order is combined as if alone, so each result
    equals a call with that order alone bit for bit.
    """
    orders = [_check_order(order) for order in orders]
    if which not in ("truncated", "infinite", "tail"):
        raise ValueError(f"unknown kernel variant {which!r}")
    z = np.asarray(zs, dtype=complex).ravel()
    w = np.asarray(ws, dtype=complex).ravel()
    _check_points(spec.b, z, w, which == "tail")
    order_terms = [_deriv_terms(order) for order in orders]
    x = z * w.conj()
    ks = sorted({key[4] for terms in order_terms for key, _ in terms})
    if which == "infinite":
        # S^(k) = b^k (b/pi) e^{b x}: its e^{b Re x} and b/pi go into the
        # Gaussian as (b/pi) e^{-b|z - w|^2/2}, which cancels nothing, where
        # -b(|z|^2 + |w|^2)/2 + b Re x loses all digits once b|z|^2 ~ 1e16
        series = {k: (np.full(x.shape, k * math.log(spec.b)), spec.b * x.imag) for k in ks}
        d = np.abs(z - w)
        gauss = math.log(spec.b / math.pi) - 0.5 * spec.b * d * d
    else:
        series = {k: _series_deriv_stack(spec, x, k, which) for k in ks}
        gauss = -0.5 * spec.b * (np.abs(z) ** 2 + np.abs(w) ** 2)
    return [_combine(spec, z, w, terms, series, gauss) for terms in order_terms]


def _combine(spec: KernelSpec, z: np.ndarray, w: np.ndarray, terms: tuple,
             series: dict, gauss: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum c b^p z^pz zbar^pzb w^pw wbar^pwb S^(k) row by row, each S^(k)
    relative to the largest of this order's own series."""
    own = {key[4] for key, _ in terms}
    top = np.maximum.reduce([series[k][0] for k in own])
    live = top > -np.inf
    top = np.where(live, top, 0.0)
    unit = {k: np.exp((series[k][0] - top) + 1j * series[k][1]) for k in own}
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
    log_mag, phase = kernel_log_orders(spec, [z], [w], [order], which)[0]
    return LogComplex(float(log_mag[0]), float(phase[0]))


def kernel_eval(spec: KernelSpec, z: complex, w: complex) -> LogComplex:
    """Truncated kernel K_M(z, w)."""
    return _kernel_log(spec, z, w, (0, 0, 0, 0), "truncated")


def kernel_infty(spec: KernelSpec, z: complex, w: complex) -> LogComplex:
    """Full-projection kernel K_inf(z, w) = (b/pi) exp(-b(|z|^2+|w|^2-2 z wbar)/2):
    the one-pair call of the "infinite" variant of kernel_log_orders."""
    return _kernel_log(spec, z, w, (0, 0, 0, 0), "infinite")


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


# stirlerr(k) = log k! - (k + 1/2) log k + k - log(2 pi)/2 for k = 1..15, as
# the double-precision expression gives it, where _log_poisson's series is
# not yet accurate
_STIRLERR = np.array([
    0.08106146679532733, 0.041340695955409235, 0.02767792568499816,
    0.020790672103765395, 0.016644691189821703, 0.013876128823070655,
    0.011896709945891981, 0.010411265261975, 0.009255462182710783,
    0.008330563433360805, 0.00757367548795207, 0.006942840107208692,
    0.00640899418800478, 0.005951370112766252, 0.005554733551965452,
])


def _log_poisson(j: np.ndarray, t: np.ndarray) -> np.ndarray:
    """log(t^j e^{-t} / j!) for j >= 0, t > 0, in Loader's saddle-point form.

    -stirlerr(j) - t bd0(j/t) - log(2 pi j)/2 keeps the error near eps |j - t|,
    where j log t - t - log j! would scale every term by e^{j delta} from the
    rounding delta of log t and let sum_j come out above 1.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        jj = np.maximum(j, 1.0)
        inv2 = 1.0 / jj ** 2
        series = (1 / 12 - inv2 * (1 / 360 - inv2 * (1 / 1260 - inv2 * (1 / 1680 - inv2 / 1188)))) / jj
        stirlerr = np.where(jj > 15, series, _STIRLERR[np.minimum(jj, 15).astype(int) - 1])
        d = (j - t) / t
        # j/t below eps rounds d to -1, where (1 + d) log1p(d) takes its limit 0
        bd0 = t * (np.where(d > -1.0, (1.0 + d) * np.log1p(d), 0.0) - d)
        return np.where(j == 0, -t, -stirlerr - bd0 - 0.5 * np.log(2 * math.pi * jj))


# a row recurs from phi_0 while e^{-t/2} is a normal double
_T_NEAR = -2.0 * math.log(np.finfo(float).tiny)


def poisson_mean(b: float, pts) -> np.ndarray:
    """t = b|z|^2 at each point, the Poisson mean of its orbital weights; an
    overflowed t counts as the largest double, where every orbital is 0."""
    with np.errstate(over="ignore"):
        return np.minimum(b * np.abs(pts) ** 2, np.finfo(float).max)


def weighted_orbitals(b: float, M: int, pts: np.ndarray) -> np.ndarray:
    """Matrix U[i, j] = phi_j(pts[i]) including the Gaussian weight.

    Rows satisfy K_M(z_i, z_l) = (U U^H)[i, l]; every entry is bounded by
    sqrt(b/pi), so plain double arithmetic is safe on grids.  |phi_j(z)|^2 is
    (b/pi) times the Poisson weight t^j e^{-t}/j! at t = b|z|^2.

    A row is the recurrence phi_j = phi_{j-1} z sqrt(b/j), one cumulative
    product along the orbital axis from e^{-t/2}, rescaled once so that its
    mode entry j* = min(floor(t), M - 1) equals the saddle-point value of
    _log_poisson there, with phase j* arg z.  The mode anchor carries an
    error of a few eps in magnitude, and the recurrence adds about eps per
    step away from it, so entry j is good to about eps |j - j*|, besides
    the conditioning of phi_j on z itself: eps |j - t| in magnitude from
    the rounding of t, eps j in phase from that of arg z.

    Rows with t > _T_NEAR, far outside the droplet, have no normal e^{-t/2}
    to start from: they start at the mode anchor and recur both ways, down
    by phi_j = phi_{j+1} sqrt((j+1)/b) / z.  Magnitudes only fall away from
    the mode, so an entry that underflows to 0 is below the double range.
    No row's value depends on the other rows.
    """
    pts = np.asarray(pts, dtype=complex).ravel()
    t = poisson_mean(b, pts)
    mode = np.fmin(np.floor(t), M - 1)      # a NaN point gives a NaN row
    anchor = (math.sqrt(b / math.pi) * np.exp(0.5 * _log_poisson(mode, t))
              * np.exp(1j * mode * np.angle(pts)))
    near = t <= _T_NEAR
    # a far row runs through the shared product as (1, 0, ..., 0) and is set
    # below, so no product in it can overflow
    out = np.empty((pts.size, M), dtype=complex)
    out[:, 0] = np.where(near, np.exp(-0.5 * t), 1.0)
    np.multiply(np.where(near, pts, 0.0)[:, None], np.sqrt(b / np.arange(1.0, M)), out=out[:, 1:])
    np.multiply.accumulate(out, axis=1, out=out)
    at_mode = out[np.arange(pts.size), np.where(near, mode, 0).astype(int)]
    out *= (anchor / at_mode)[:, None]
    far = np.flatnonzero(~near)
    if far.size:
        out[far] = _far_orbitals(b, M, pts[far], mode[far], anchor[far])
    return out


def _far_orbitals(b: float, M: int, z: np.ndarray, mode: np.ndarray,
                  anchor: np.ndarray) -> np.ndarray:
    """Rows phi_j(z[i]), j < M, for t > _T_NEAR: the ratios phi_j/phi_{j-1}
    above the mode and phi_j/phi_{j+1} below it, each accumulated outward
    from the anchor; every ratio has modulus below 1."""
    j = np.arange(M, dtype=float)
    z, mode = z[:, None], mode[:, None]
    up = np.multiply(z, np.sqrt(b / np.maximum(j, 1.0)), where=j > mode,
                     out=np.ones((z.size, M), dtype=complex))
    down = np.divide(np.sqrt((j + 1.0) / b), z, where=j < mode,
                     out=np.ones((z.size, M), dtype=complex))
    np.multiply.accumulate(up, axis=1, out=up)
    np.multiply.accumulate(down[:, ::-1], axis=1, out=down[:, ::-1])
    up *= down
    up *= anchor[:, None]
    return up

