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
representable.  Every order is a short combination of the series
S^(k)(z wbar), k <= 4, the k-th x-derivative of the coefficient series.  By
range shift S^(k) is b^k times the same series with its cut moved down by k
terms, so one summation per call gives every S^(k): the tail S^(k) is the
tail from j = M plus its k heads j = M - 1 .. M - k, and the truncated
S^(k) is the running sum at the cut j = M - k.  Each order is combined
relative to top, the largest of its own series only, so it equals a
one-order call bit for bit.  `kernel_eval`, `kernel_infty` and
`kernel_diff_log` are its one-pair, one-order case, and a single value comes
back as the record `LogComplex` (log-magnitude, phase in [-pi, pi]).

The series runs in chunks of terms: within a chunk the term magnitudes are a
running product of the ratios b|x|/(j+1) and the partial sums a running sum
whose exact rounding errors are kept as compensation.  Each row carries its
own log scale, rescaled at a chunk start whenever the chunk's products could
pass 1e250, and its own stop rule.  A sum is cancellation noise, reported as zero,
below the rounding floor of its terms: 8 eps (2 + (j - j0) + j |arg x|)
times their mass for terms j0..j, since term j carries the rounding of a
running product over j - j0 steps and of its phase j arg x, besides that of
the additions.  A shifted S^(k) takes its own first term as j0 (M - k,
clipped at 0, for a tail; 0 for a truncated sum) and its heads into its mass.
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


def _floor_log(scale, total: np.ndarray, mass: np.ndarray, first: int, last: np.ndarray,
               theta: np.ndarray):
    """(log-magnitude, phase) of exp(scale) total, a sum of the series terms
    first..last of magnitude sum exp(scale) mass; -inf below the rounding
    floor of those terms, where the sum is cancellation noise."""
    size = np.abs(total)
    # term last carries ~(last - first) eps from the running product from
    # first and ~last |arg x| eps from its phase, besides the additions
    ok = size > _NOISE * (2.0 + (last - first) + last * np.abs(theta)) * mass
    return (np.where(ok, scale + np.log(np.where(ok, size, 1.0)), -np.inf),
            np.where(ok, np.angle(total), 0.0))


def _series_stack(b: float, x: np.ndarray, M: int, ks, tail: bool) -> dict:
    """{k: S^(k)} for each k in ks, from one summation.  S^(k) is the k-th
    x-derivative of the truncated series sum_{j<M} c_j x^j (tail=False) or
    of the tail sum_{j>=M} c_j x^j (tail=True), c_j = b^{j+1}/(pi j!), at
    each entry of x, as (log-magnitude, phase) arrays; -inf marks a zero sum.

    By range shift S^(k) is b^k times the same series cut at M - k, clipped
    at 0.  The tail sums j >= M, a row stopping once its remaining terms,
    bounded by a geometric series, fall below 1e-20 of its sum, and S^(k)
    adds to it the k heads j = M - 1 down to M - k in that order (smallest
    first where the terms fall from j = M), each derived from the first tail
    term by the exact ratios (j + 1)/(b x), multiplied as logarithms so
    that no head overflows.  The truncated series sums j < M under the same
    stop rule, and S^(k) is its running sum, compensation and mass at the
    cut j = M - k (a row that stops before its cut reads its last state).
    S^(0) is summed exactly as it would be alone.
    """
    j0, j1 = (M, math.inf) if tail else (0, M)
    r, theta = np.abs(x), np.angle(x)
    # a row's next term j is exp(scale) t; acc, comp and mass share its
    # scale, which is -inf where x = 0 and j0 > 0
    with np.errstate(divide="ignore"):
        first_scale = ((j0 + 1) * math.log(b) + (j0 * np.log(r) if j0 else np.zeros(x.size))
                       - math.log(math.pi) - math.lgamma(j0 + 1))
    # each row's (scale, sum, mass, last term) where it stopped (key 0)
    # and, in the truncated series, at each cut M - k > 0 (key k)
    cuts = {} if tail else {k: M - k for k in ks if 0 < k < M}
    state = {key: (np.zeros(x.size), np.zeros(x.size, dtype=complex), np.zeros(x.size),
                   np.zeros(x.size)) for key in (0, *cuts)}

    def record(key, at, *values):
        for into, value in zip(state[key], values):
            into[at] = value

    rows, scale, br, th = np.arange(x.size), first_scale, b * r, theta
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
        terms = mags * np.exp(1j * (pos * th[:, None]))
        # running sums, and the exact rounding error of each addition (TwoSum)
        partial = np.concatenate([acc[:, None], terms], axis=1).cumsum(axis=1)
        before, after = partial[:, :-1], partial[:, 1:]
        back = after - before
        errs = (before - (after - back)) + (terms - back)
        for k, cut in cuts.items():
            hit = np.flatnonzero((j < cut) & (cut <= j + n))
            if hit.size:
                m = cut - j[hit]                  # terms of this chunk below the cut
                below = i < m[:, None]
                record(k, rows[hit], scale[hit],
                       partial[hit, m.astype(int)]
                       + (comp[hit] + np.where(below, errs[hit], 0.0).sum(axis=1)),
                       mass[hit] + np.where(below, mags[hit], 0.0).sum(axis=1), cut - 1.0)
        comp = comp + errs.sum(axis=1)
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
            end = (scale[done], acc[done] + comp[done], mass[done], j[done] - 1.0)
            record(0, rows[done], *end)
            for k, cut in cuts.items():
                # stopped before the cut: the terms up to it are negligible
                short = j[done] < cut
                record(k, rows[done][short], *(a[short] for a in end))
            if finished == rows.size:
                break
            keep = ~done
            rows, br, th, scale, j, ratio, t, acc, comp, mass = (
                a[keep] for a in (rows, br, th, scale, j, ratio, t, acc, comp, mass))
        width = min(2 * width, _CHUNK_MAX)

    shifted = _shifted_tails(b, M, [k for k in ks if k], x, first_scale, state[0],
                             theta) if tail else {}
    out = {}
    for k in ks:
        if k in shifted:
            log_mag, phase = shifted[k]
        elif k in state:
            sc, total, mass_k, last = state[k]
            log_mag, phase = _floor_log(sc, total, mass_k, j0, last, theta)
        else:                                    # cut at or below 0: an empty sum
            log_mag, phase = np.full(x.size, -np.inf), np.zeros(x.size)
        out[k] = (k * math.log(b) + log_mag, phase)
    return out


def _shifted_tails(b: float, M: int, ks: list, x: np.ndarray, first_scale: np.ndarray,
                   end: tuple, theta: np.ndarray) -> dict:
    """{k: S^(k)/b^k} for each k >= 1 in ks, sum_{j >= M - k} c_j x^j, from
    the tail's end state: its heads j = M - 1 down to max(M - k, 0) in the
    log scale of its first term, and the rounding floor of the terms from
    max(M - k, 0) with the heads' mass.  Where x = 0 only the term j = 0
    survives."""
    out = {k: (np.full(x.size, (math.log(b) - math.log(math.pi)) if k >= M else -np.inf),
               np.zeros(x.size)) for k in ks}
    live = np.flatnonzero(x != 0)
    if not (ks and live.size):
        return out
    base, th = first_scale[live], theta[live]
    end_scale, end_total, end_mass, last = (a[live] for a in end)
    # log |c_j x^j| - base for the heads, from the ratios (j + 1)/(b x)
    log_bx = math.log(b) + np.log(np.abs(x[live]))
    heads, rel = [], np.zeros(live.size)
    for h in range(M - 1, max(M - max(ks), 0) - 1, -1):
        rel = rel + (math.log(h + 1) - log_bx)
        heads.append((rel, np.exp(1j * (h * th))))
    # the tail's rescalings since its first term
    shift = end_scale - base
    log_tail = shift + np.log(end_mass)
    for k in ks:
        lo = max(M - k, 0)
        own = heads[:M - lo]
        top = np.maximum.reduce([log_tail] + [rel for rel, _ in own])
        f = np.exp(shift - top)
        total, mass = end_total * f, end_mass * f
        for rel, unit in own:
            mag = np.exp(rel - top)
            total = total + mag * unit
            mass = mass + mag
        log_mag, phase = out[k]
        log_mag[live], phase[live] = _floor_log(base + top, total, mass, lo, last, th)
    return out


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
    before any series is summed.  One summation gives every series S^(k)
    that some order needs; every order is combined as if alone, so each
    result equals a call with that order alone bit for bit.
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
        series = _series_stack(spec.b, x, spec.M, ks, which == "tail")
        gauss = -0.5 * spec.b * (np.abs(z) ** 2 + np.abs(w) ** 2)
    # every power some term takes of b and of z, zbar, w, wbar (slots 0-3), formed once
    bases = (z, z.conj(), w, w.conj())
    keys = [key for terms in order_terms for key, _ in terms]
    b_powers = {key[5]: spec.b ** key[5] for key in keys}
    powers = {(slot, e): bases[slot] ** e for key in keys for slot, e in enumerate(key[:4]) if e}
    return [_combine(terms, series, gauss, b_powers, powers) for terms in order_terms]


def _combine(terms: tuple, series: dict, gauss: np.ndarray, b_powers: dict,
             powers: dict) -> tuple[np.ndarray, np.ndarray]:
    """Sum c b^p z^pz zbar^pzb w^pw wbar^pwb S^(k) row by row, each S^(k)
    relative to the largest of this order's own series."""
    own = {key[4] for key, _ in terms}
    top = np.maximum.reduce([series[k][0] for k in own])
    live = top > -np.inf
    top = np.where(live, top, 0.0)
    unit = {k: np.exp((series[k][0] - top) + 1j * series[k][1]) for k in own}
    acc = np.zeros(top.shape, dtype=complex)
    mass = np.zeros(top.shape)
    for key, c in terms:
        term = c * b_powers[key[5]] * unit[key[4]]
        for slot, e in enumerate(key[:4]):
            if e:
                term = term * powers[slot, e]
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


@lru_cache(maxsize=16)
def _stirling_terms(M: int) -> tuple[np.ndarray, np.ndarray]:
    """stirlerr(j) and log(2 pi j)/2 for j = 0, ..., M - 1 (j = 0 read as 1),
    read-only: the j-dependent terms of _log_poisson."""
    jj = np.maximum(np.arange(M, dtype=float), 1.0)
    inv2 = 1.0 / jj ** 2
    series = (1 / 12 - inv2 * (1 / 360 - inv2 * (1 / 1260 - inv2 * (1 / 1680 - inv2 / 1188)))) / jj
    stirlerr = np.where(jj > 15, series, _STIRLERR[np.minimum(jj, 15).astype(int) - 1])
    half_log = 0.5 * np.log(2 * math.pi * jj)
    stirlerr.flags.writeable = half_log.flags.writeable = False
    return stirlerr, half_log


def _log_poisson(j: np.ndarray, t: np.ndarray, M: int) -> np.ndarray:
    """log(t^j e^{-t} / j!) for integers 0 <= j < M, t > 0, in Loader's
    saddle-point form.

    -stirlerr(j) - t bd0(j/t) - log(2 pi j)/2 keeps the error near eps |j - t|,
    where j log t - t - log j! would scale every term by e^{j delta} from the
    rounding delta of log t and let sum_j come out above 1.  The j terms come
    from the table of _stirling_terms(M); only bd0 is computed per point.
    """
    stirlerr, half_log = (terms[j.astype(int)] for terms in _stirling_terms(M))
    with np.errstate(divide="ignore", invalid="ignore"):
        d = (j - t) / t
        # j/t below eps rounds d to -1, where (1 + d) log1p(d) takes its limit 0
        bd0 = t * (np.where(d > -1.0, (1.0 + d) * np.log1p(d), 0.0) - d)
        return np.where(j == 0, -t, -stirlerr - bd0 - half_log)


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
    anchor = (math.sqrt(b / math.pi) * np.exp(0.5 * _log_poisson(mode, t, M))
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

