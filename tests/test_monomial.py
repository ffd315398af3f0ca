import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhflux.oracle.energy import _bath_integrals
from qhflux.oracle.monomial import (MAX_BATH, MAX_HOLES, ExpansionSizeError,
                                    gaussian_pair_integral, marginal_squared,
                                    partition_exact, quasi_hole_poly, quasi_hole_poly_dw,
                                    vandermonde_poly)
from qhflux.oracle.slater import slater_density_brute
from qhflux.partition import HoleConfig


def eval_poly(poly, zs):
    out = 0j
    for e, c in poly.terms.items():
        term = c
        for zi, ei in zip(zs, e):
            term *= zi ** ei
        out += term
    return out


def test_vandermonde_values():
    v = vandermonde_poly(3)
    zs = [0.3 + 0.1j, -0.5, 1.2 - 0.7j]
    direct = (zs[0] - zs[1]) * (zs[0] - zs[2]) * (zs[1] - zs[2])
    assert eval_poly(v, zs) == pytest.approx(direct, rel=1e-13)
    # antisymmetry
    swapped = [zs[1], zs[0], zs[2]]
    assert eval_poly(v, swapped) == pytest.approx(-direct, rel=1e-13)


def test_quasi_hole_poly_values():
    cfg = HoleConfig(w=(0.4 + 0.2j, -0.3), N=3, b=3.0)
    poly = quasi_hole_poly(cfg.N, cfg.w)
    zs = [0.1, 0.2 - 0.5j, -0.8 + 0.3j]
    direct = 1.0 + 0j
    for w in cfg.w:
        for z in zs:
            direct *= (w - z)
    direct *= (zs[0] - zs[1]) * (zs[0] - zs[2]) * (zs[1] - zs[2])
    assert eval_poly(poly, zs) == pytest.approx(direct, rel=1e-12)


def test_quasi_hole_poly_dw_matches_fd():
    cfg = HoleConfig(w=(0.4 + 0.2j, -0.3), N=2, b=2.0)
    dpoly = quasi_hole_poly_dw(cfg.N, cfg.w, 0)
    zs = [0.15 - 0.2j, 0.6]
    h = 1e-6
    up = eval_poly(quasi_hole_poly(2, (cfg.w[0] + h, cfg.w[1])), zs)
    dn = eval_poly(quasi_hole_poly(2, (cfg.w[0] - h, cfg.w[1])), zs)
    fd = (up - dn) / (2 * h)
    assert eval_poly(dpoly, zs) == pytest.approx(fd, rel=1e-8)


@pytest.mark.parametrize("j", [-1, 2, True])
def test_quasi_hole_poly_dw_refuses_a_bad_tracer_index(j):
    # -1 used to differentiate by no hole at all and return a wrong polynomial
    with pytest.raises(ValueError, match="tracer index"):
        quasi_hole_poly_dw(2, (0.4 + 0.2j, -0.3), j)


def test_gaussian_pair_integral_single_variable():
    from qhflux.oracle.monomial import MonomialPolynomial
    # |c0 + c1 z|^2 against e^{-b|z|^2}: pi(|c0|^2/b + |c1|^2/b^2)
    p = MonomialPolynomial(1, {(0,): 2.0 + 1j, (1,): -0.5j})
    b = 1.7
    val = gaussian_pair_integral(p, p, b)
    expected = math.pi * (abs(2 + 1j) ** 2 / b + 0.25 / b ** 2)
    assert val.real == pytest.approx(expected, rel=1e-14)
    assert val.imag == pytest.approx(0.0, abs=1e-16)


def test_partition_exact_hand_values():
    assert partition_exact(HoleConfig(w=(1.0,), N=1, b=1.0)) == pytest.approx(
        math.log(2 * math.pi), abs=1e-13)
    assert partition_exact(HoleConfig(w=(), N=2, b=2.0)) == pytest.approx(
        math.log(math.pi ** 2 / 4), abs=1e-13)


def test_partition_exact_symmetries():
    cfg = HoleConfig(w=(0.4, -0.2 + 0.3j), N=3, b=3.0)
    ref = partition_exact(cfg)
    assert partition_exact(HoleConfig(w=cfg.w[::-1], N=3, b=3.0)) == pytest.approx(
        ref, abs=1e-12)
    rot = tuple(w * np.exp(0.7j) for w in cfg.w)
    assert partition_exact(HoleConfig(w=rot, N=3, b=3.0)) == pytest.approx(
        ref, abs=1e-12)


def test_size_guard():
    with pytest.raises(ExpansionSizeError):
        quasi_hole_poly(5, (0.1,))
    with pytest.raises(ExpansionSizeError):
        quasi_hole_poly(2, (0.1, 0.2, 0.3))


@pytest.mark.parametrize("build", [quasi_hole_poly,
                                   lambda N, ws: quasi_hole_poly_dw(N, ws, 0)])
def test_size_guard_stacked_holes(build):
    nodes = np.linspace(-0.5, 0.5, 7) + 0.1j
    with pytest.raises(ExpansionSizeError):
        build(MAX_BATH + 1, (nodes,))
    with pytest.raises(ExpansionSizeError):
        build(2, tuple(nodes + k for k in range(MAX_HOLES + 1)))
    with pytest.raises(ValueError):
        build(0, (nodes,))


# the packet box of the energy identity at the default packet (center 0.3, a = 30)
BOX = 7.0 / math.sqrt(60.0)
coord = st.floats(-BOX, BOX, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(N=st.sampled_from([1, 2]),
       pts=st.lists(st.tuples(coord, coord), min_size=1, max_size=12))
def test_stacked_bath_integrals_match_per_node(N, pts):
    nodes = np.array([0.3 + complex(x, y) for x, y in pts])
    stacked = _bath_integrals(N, nodes)
    for k, w in enumerate(nodes):
        single = _bath_integrals(N, complex(w))
        for arr, one in zip(stacked, single):
            assert abs(arr[k] - one) <= 1e-13 * abs(one)


def test_scalar_users_unchanged():
    # values of the per-term scalar expansion, pinned to the last bit
    cases = [(HoleConfig(w=(1.0,), N=1, b=1.0), 1.8378770664093453),
             (HoleConfig(w=(), N=2, b=2.0), 0.9031654105789096),
             (HoleConfig(w=(0.4, -0.2 + 0.3j), N=3, b=3.0), -2.0249395519189126),
             (HoleConfig(w=(-0.2 + 0.3j, 0.4), N=3, b=3.0), -2.0249395519189126),
             (HoleConfig(w=(0.3,), N=2, b=2.0), 0.38916809564728394)]
    for cfg, expected in cases:
        assert partition_exact(cfg) == expected
    pts = [-0.20100114739577413 + 0.4350969891076264j, 0.27382896560090364 + 0.3346477384650526j]
    assert slater_density_brute((0, 1, 2), pts, 3.0) == 0.1929209457089756
    assert slater_density_brute((0, 2, 3), pts, 3.0) == 0.10511504729232193


def test_marginal_squared_full_fix_is_density():
    # fixing every variable reproduces |F|^2 times the Gaussian weight
    poly = quasi_hole_poly(2, (0.3,))
    zs = [0.2 + 0.1j, -0.4]
    val = marginal_squared(poly, 2.0, 2, zs)
    direct = abs(eval_poly(poly, zs)) ** 2 * math.exp(-2.0 * sum(abs(z) ** 2 for z in zs))
    assert val == pytest.approx(direct, rel=1e-12)
