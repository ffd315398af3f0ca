"""Reference values computed apart from qhflux.

Nothing here imports qhflux.  Kernel sums, tails, determinants and Coulomb-gas
moments are evaluated in mpmath, directly from their defining series; the
closed forms (no-merging fields, pair corrections, the no-hole radial law) are
written out from the formulas in the qhflux README and paper.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy.special import gammainc

DPS = 40


def _mpc(z) -> mp.mpc:
    if isinstance(z, mp.mpc):
        return z
    z = complex(z)
    return mp.mpc(z.real, z.imag)


def scaled_kernel_mp(b, M: int, z, w) -> mp.mpc:
    """(pi/b) K_M(z, w) = exp(-b(|z|^2+|w|^2)/2) sum_{j<M} (b z wbar)^j / j!."""
    b = mp.mpf(b)
    z, w = _mpc(z), _mpc(w)
    x = b * z * mp.conj(w)
    term = mp.mpc(1)
    total = mp.mpc(0)
    for j in range(M):
        total += term
        term = term * x / (j + 1)
    return total * mp.exp(-b * (abs(z) ** 2 + abs(w) ** 2) / 2)


def upsilon_mp(ws, N: int, b=None) -> mp.mpf:
    """Upsilon = det[(pi/b) K_{N+n}(w_i, w_k)], with b = N unless given."""
    with mp.workdps(DPS):
        b = N if b is None else b
        n = len(ws)
        mat = mp.matrix(n, n)
        for i in range(n):
            for k in range(i, n):
                v = scaled_kernel_mp(b, N + n, ws[i], ws[k])
                mat[i, k] = v
                mat[k, i] = mp.conj(v)
        return mp.re(mp.det(mat))


def perp(v) -> np.ndarray:
    return np.array([-v[1], v[0]])


def ab_sum(ws, j: int) -> np.ndarray:
    """Aharonov-Bohm sum over the other holes, (y_j-y_l)^perp / |y_j-y_l|^2."""
    out = np.zeros(2)
    for l, w in enumerate(ws):
        if l != j:
            d = complex(ws[j]) - complex(w)
            out += perp((d.real, d.imag)) / abs(d) ** 2
    return out


def no_merging_fields(ws, N: int, j: int) -> tuple[np.ndarray, float]:
    """Closed-form fields away from merging: A_j = N y_j^perp - AB_j, V_j = 2N."""
    y = complex(ws[j])
    return N * perp((y.real, y.imag)) - ab_sum(ws, j), 2.0 * N


def fields_from_log_upsilon(ws, N: int, j: int, h: float = 1e-7) -> tuple[np.ndarray, float]:
    """A_j and V_j from central differences of log Upsilon in y_j.

    A_j = N y_j^perp - AB_j + (1/2) (grad log Upsilon)^perp and
    V_j = 2N + (1/2) Laplacian log Upsilon; Upsilon is the mpmath determinant,
    so the differences lose nothing to cancellation at this step size.
    """
    with mp.workdps(DPS):
        def log_ups(shift: complex):
            moved = list(ws)
            moved[j] = complex(ws[j]) + shift
            return mp.log(upsilon_mp(moved, N))

        f0 = log_ups(0)
        fxp, fxm = log_ups(h), log_ups(-h)
        fyp, fym = log_ups(1j * h), log_ups(-1j * h)
        grad = np.array([float((fxp - fxm) / (2 * h)), float((fyp - fym) / (2 * h))])
        lap = float((fxp + fxm + fyp + fym - 4 * f0) / h ** 2)
    a_base, _ = no_merging_fields(ws, N, j)
    return a_base + 0.5 * perp(grad), 2.0 * N + 0.5 * lap


def correction_a(y) -> np.ndarray:
    """a(y) = y^perp / (e^{|y|^2} - 1)."""
    t = float(y[0] ** 2 + y[1] ** 2)
    return perp(y) / float(mp.expm1(t))


def correction_v(y) -> float:
    """v(y) = 2(1 - (1 - |y|^2) e^{|y|^2}) / (e^{|y|^2} - 1)^2."""
    with mp.workdps(DPS):
        t = mp.mpf(float(y[0] ** 2 + y[1] ** 2))
        return float(2 * (1 - (1 - t) * mp.exp(t)) / mp.expm1(t) ** 2)


def pair_fields(ws, N: int, j: int) -> tuple[np.ndarray, float]:
    """Leading-order fields of tracer j in the single merging pair (0, 1)."""
    other = 1 - j
    d = complex(ws[j]) - complex(ws[other])
    y = math.sqrt(N) * np.array([d.real, d.imag])
    a_base, _ = no_merging_fields(ws, N, j)
    return a_base + math.sqrt(N) * correction_a(y), N * (2.0 - correction_v(y))


def kernel_tail_mp(b, M: int, z, w, d_z: bool = False) -> mp.mpc:
    """K_inf - K_M = sum_{j>=M} (b^{j+1}/(pi j!)) z^j wbar^j e^{-b(|z|^2+|w|^2)/2},
    or its holomorphic z-derivative, summed term by term until terms vanish."""
    with mp.workdps(DPS):
        b = mp.mpf(b)
        z, w = _mpc(z), _mpc(w)
        gauss = mp.exp(-b * (abs(z) ** 2 + abs(w) ** 2) / 2)
        # coefficient c_j = b^{j+1} z^j wbar^j / (pi j!), advanced by j
        coef = mp.power(b, M + 1) * mp.power(z * mp.conj(w), M) / (mp.pi * mp.factorial(M))
        total = mp.mpc(0)
        j = M
        while True:
            if d_z:
                term = coef * (j / z - b * mp.conj(z) / 2)
            else:
                term = coef
            total += term
            if abs(term) < abs(total) * mp.mpf(10) ** (-DPS) and j > M + 2:
                break
            coef = coef * b * z * mp.conj(w) / (j + 1)
            j += 1
        return total * gauss


def log_gram_moment(ws, N: int, b) -> tuple[mp.mpf, mp.mpf]:
    """log det G and log det G0 of the Andreief moment matrices.

    G_ik = int conj(z^i q(z)) z^k q(z) e^{-b|z|^2} d^2z with q(z) = prod (z - w_j),
    G0 the same with q = 1; both exact from the monomial moments
    int |z|^{2p} e^{-b|z|^2} = pi p! / b^{p+1}.
    """
    with mp.workdps(DPS):
        b = mp.mpf(b)
        c = [mp.mpc(1)]
        for w in ws:
            nxt = [mp.mpc(0)] * (len(c) + 1)
            for d, cd in enumerate(c):
                nxt[d + 1] += cd
                nxt[d] -= _mpc(w) * cd
            c = nxt

        def moment(p):
            return mp.pi * mp.factorial(p) / b ** (p + 1)

        g = mp.matrix(N, N)
        for i in range(N):
            for k in range(N):
                acc = mp.mpc(0)
                for a, ca in enumerate(c):
                    ap = k + a - i  # exponent of q in the conjugated factor
                    if 0 <= ap < len(c):
                        acc += mp.conj(c[ap]) * ca * moment(k + a)
                g[i, k] = acc
        log_g0 = mp.fsum(mp.log(moment(i)) for i in range(N))
        return mp.log(mp.re(mp.det(g))), log_g0


def log_charpoly_moment(ws, N: int, b) -> float:
    """log E[prod_{j,k} |w_j - z_k|^2] over the no-hole plasma (Andreief)."""
    log_g, log_g0 = log_gram_moment(ws, N, b)
    return float(log_g - log_g0)


def log_normalization(ws, N: int, b) -> float:
    """log int |prod_{j,k}(w_j - z_k) prod_{k<l}(z_k - z_l)|^2 e^{-b sum|z|^2}
    = log N! + log det G."""
    log_g, _ = log_gram_moment(ws, N, b)
    return float(mp.log(mp.factorial(N)) + log_g)


def radial_cdf(r2: np.ndarray, N: int, b: float) -> np.ndarray:
    """CDF of |z|^2 for one particle of the no-hole plasma at mu = 1.

    The plasma is the complex Ginibre ensemble scaled by 1/sqrt(b), whose set
    {b|z_k|^2} is distributed as independent Gamma(k, 1), k = 1..N (Kostlan);
    one particle therefore follows the equal mixture of those gamma laws.
    """
    r2 = np.asarray(r2, dtype=float)
    k = np.arange(1, N + 1)
    return gammainc(k[None, :], b * r2.reshape(-1, 1)).mean(axis=1).reshape(r2.shape)


def plasma_log_density(z: np.ndarray, b: float) -> float:
    """-b sum |z_k|^2 + 2 sum_{i<j} log|z_i - z_j| (mu = 1, no holes)."""
    iu = np.triu_indices(z.size, 1)
    d = np.abs(z[:, None] - z[None, :])[iu]
    return float(-b * np.sum(np.abs(z) ** 2) + 2.0 * np.sum(np.log(d)))


def mean_and_se(x) -> tuple[float, float]:
    """Sample mean and its standard error for a correlated series.

    The integrated autocorrelation time uses Sokal's automatic window: the
    smallest W with W >= 5 tau(W).
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    m = float(x.mean())
    d = x - m
    var = float(d @ d) / n
    if var == 0.0:
        return m, 0.0
    f = np.fft.rfft(d, 2 * n)
    acf = np.fft.irfft(f * np.conj(f))[:n] / (n * var)
    tau = 1.0
    for t in range(1, n):
        tau += 2.0 * acf[t]
        if t >= 5.0 * tau:
            break
    tau = max(tau, 1.0)
    return m, math.sqrt(var * tau / n)
