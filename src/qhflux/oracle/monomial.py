"""Exact monomial-expansion integration for tiny quasi-hole systems.

The joint state is a polynomial in (z_1..z_N) times a Gaussian, so squared
norms and marginals reduce to the moment integral
int z^a zbar^c e^{-b|z|^2} dz = delta_{ac} pi a! / b^{a+1}, applied exactly
term by term.  A coefficient is a complex number or, when the hole
positions are given as arrays (one entry per tracer node), an array of that
shape: one expansion then carries every node, and each integral comes back
as an array.  Sizes are capped (the Vandermonde is expanded over all N!
permutations), which keeps this an independent brute-force oracle rather
than a general polynomial engine.
"""

from __future__ import annotations

import math
from itertools import permutations

import numpy as np

from ..partition import HoleConfig, _check_tracer

MAX_BATH = 4
MAX_HOLES = 2


class ExpansionSizeError(Exception):
    pass


def _perm_sign(perm) -> int:
    """+1 or -1 by the parity of the permutation's inversions."""
    inversions = sum(perm[i] > perm[k] for i in range(len(perm)) for k in range(i + 1, len(perm)))
    return -1 if inversions % 2 else 1


def _moment_weight(exponents, b: float) -> float:
    """prod_a pi a! / b^(a+1): int |z^a|^2 e^{-b|z|^2} dz for each exponent a."""
    weight = 1.0
    for a in exponents:
        weight *= math.pi * math.factorial(a) / b ** (a + 1)
    return weight


class MonomialPolynomial:
    """Sparse polynomial in several complex variables."""

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        self.terms = dict(terms or {})

    def add_term(self, exponents: tuple[int, ...], coeff):
        """Add coeff to a term; a scalar sum that is exactly 0 drops the term.

        A per-node array coefficient is kept even where it vanishes, so no
        array is asked for its truth value.
        """
        cur = self.terms.get(exponents, 0j) + coeff
        if isinstance(cur, np.ndarray) or cur != 0:
            self.terms[exponents] = cur
        else:
            self.terms.pop(exponents, None)

    def __mul__(self, other: "MonomialPolynomial") -> "MonomialPolynomial":
        out = MonomialPolynomial(self.nvars)
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                out.add_term(tuple(x + y for x, y in zip(ea, eb)), ca * cb)
        return out

    def __add__(self, other: "MonomialPolynomial") -> "MonomialPolynomial":
        out = MonomialPolynomial(self.nvars, self.terms)
        for e, c in other.terms.items():
            out.add_term(e, c)
        return out


def vandermonde_poly(nvars: int) -> MonomialPolynomial:
    """prod_{k<l}(z_k - z_l) expanded over permutations."""
    out = MonomialPolynomial(nvars)
    parity = -1 if (nvars * (nvars - 1) // 2) % 2 else 1
    for perm in permutations(range(nvars)):
        out.add_term(tuple(perm), parity * _perm_sign(perm))
    return out


def _hole_factor_coeffs(ws) -> list:
    """Ascending coefficients of prod_j (w_j - t) in t (arrays if the w_j are)."""
    coeffs = [1.0 + 0j]
    for w in ws:
        nxt = [0j] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            nxt[d] += w * c
            nxt[d + 1] -= c
        coeffs = nxt
    return coeffs


def _product_over_vars(coeffs: list, nvars: int,
                       skip: int | None = None) -> MonomialPolynomial:
    out = MonomialPolynomial(nvars, {(0,) * nvars: 1.0 + 0j})
    for k in range(nvars):
        if k == skip:
            continue
        factor = MonomialPolynomial(nvars)
        for d, c in enumerate(coeffs):
            e = [0] * nvars
            e[k] = d
            factor.add_term(tuple(e), c)
        out = out * factor
    return out


def _check_size(N: int, ws):
    if N < 1:
        raise ValueError("bath size N must be at least 1")
    if N > MAX_BATH or len(ws) > MAX_HOLES:
        raise ExpansionSizeError(f"expansion capped at N <= {MAX_BATH}, n <= {MAX_HOLES}")


def quasi_hole_poly(N: int, ws) -> MonomialPolynomial:
    """Polynomial part of the joint state: prod_{j,k}(w_j - z_k) Vandermonde.

    ws holds the n hole positions, each a complex number or an array of
    positions (all of one shape); the coefficients then have that shape.
    """
    _check_size(N, ws)
    holes = _product_over_vars(_hole_factor_coeffs(ws), N)
    return holes * vandermonde_poly(N)


def quasi_hole_poly_dw(N: int, ws, j: int) -> MonomialPolynomial:
    """Holomorphic w_j-derivative of the quasi-hole polynomial."""
    _check_size(N, ws)
    _check_tracer(j, len(ws))
    others = [w for i, w in enumerate(ws) if i != j]
    partner = _hole_factor_coeffs(others)
    full = _hole_factor_coeffs(ws)
    total = MonomialPolynomial(N)
    for ell in range(N):
        rest = _product_over_vars(full, N, skip=ell)
        factor = MonomialPolynomial(N)
        for d, c in enumerate(partner):
            e = [0] * N
            e[ell] = d
            factor.add_term(tuple(e), c)
        total = total + rest * factor
    return total * vandermonde_poly(N)


def gaussian_pair_integral(pa: MonomialPolynomial, pb: MonomialPolynomial,
                           b: float):
    """int conj(A) B prod_k e^{-b|z_k|^2} dz, exact via matched moments.

    A complex number, or an array of the coefficients' shape.
    """
    out = 0j
    for e, ca in pa.terms.items():
        cb = pb.terms.get(e)
        if cb is None:
            continue
        out += ca.conjugate() * cb * _moment_weight(e, b)
    return out


def partition_exact(cfg: HoleConfig) -> float:
    """log of the defining squared-norm integral, exact for tiny systems."""
    poly = quasi_hole_poly(cfg.N, cfg.w)
    val = gaussian_pair_integral(poly, poly, cfg.b).real
    return math.log(val)


def marginal_squared(poly: MonomialPolynomial, b: float, m: int, points) -> float:
    """int |F(x_1..x_m, X)|^2 prod gauss dX at fixed leading arguments.

    Returns the value including the Gaussian weights of the fixed points.
    """
    n = poly.nvars
    if m > n:
        raise ValueError("more fixed points than variables")
    pts = [complex(p) for p in points]
    total = 0j
    for e, ce in poly.terms.items():
        for f, cf in poly.terms.items():
            if e[m:] != f[m:]:
                continue
            weight = _moment_weight(e[m:], b)
            mono = 1.0 + 0j
            for i in range(m):
                mono *= pts[i].conjugate() ** e[i] * pts[i] ** f[i]
            total += ce.conjugate() * cf * weight * mono
    gauss = math.exp(-b * sum(abs(p) ** 2 for p in pts))
    return float(total.real) * gauss
