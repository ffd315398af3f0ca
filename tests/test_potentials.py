import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

from helpers import count_cached_property, double_integral_direct, integrate_radial, polar_grid
from qhflux.kernel import weighted_orbitals
from qhflux.partition import HoleConfig, SingularConfigurationError
from qhflux.potentials import (DegenerateConfigurationError, _ab_rows, _divided, _row_space,
                               asymptotic_prediction, correction_a, correction_v,
                               emergent_field_derivative, emergent_field_integral,
                               emergent_field_stack, emergent_fields, perp,
                               vanishing_subspace)


def test_perp_convention():
    assert np.allclose(perp(np.array([1.0, 2.0])), [-2.0, 1.0])


def test_ab_sum_rejects_coincident_holes():
    # coincident_rows is the one coincidence rule of the prediction; a
    # separation of 1e-13 is distinct and gives the finite 1/s Aharonov-Bohm term
    with pytest.raises(SingularConfigurationError):
        asymptotic_prediction(HoleConfig(w=(0.1, 0.1), N=8))
    cfg = HoleConfig(w=(0.1, 0.1 + 1e-13), N=8)
    assert np.all(np.isfinite(asymptotic_prediction(cfg)[0]))
    s = (cfg.w[1] - cfg.w[0]).real
    got = _ab_rows(cfg.points()[None])[0, 0]
    assert [got.real, got.imag] == pytest.approx([0.0, -1.0 / s], rel=1e-15)


def test_ab_sum_below_the_square_root_of_the_smallest_double():
    # |d|^2 underflows to 0 at |d| = 1e-170; the sum d / |d|^2 does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _ab_rows(np.array([[0.1, 0.1 + 1e-170j]]))[0, 0]
    assert np.isfinite(got)
    assert [got.real, got.imag] == pytest.approx([1e170, 0.0], rel=1e-15)


def test_ab_sum_agrees_with_the_squared_modulus_form():
    # perp(d) / hypot(d)^2 term by term, on ordinary separations; with three
    # or more holes the terms can cancel, so the error is taken against the
    # term mass sum_l 1/|d_l|; _ab_rows gives each vector as x + iy
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        w = rng.uniform(-1, 1, (500, n)) + 1j * rng.uniform(-1, 1, (500, n))
        for j in range(n):
            d = w[:, [j]] - np.delete(w, j, axis=1)
            squared = np.hypot(d.real, d.imag)[..., None] ** 2
            old = np.sum(np.stack([-d.imag, d.real], axis=-1) / squared, axis=1)
            err = np.abs(_ab_rows(w)[:, j] - (old[:, 0] + 1j * old[:, 1]))
            assert np.all(err <= 1e-15 * np.sum(1 / np.abs(d), axis=1))


def test_ab_curl_reproduces_point_fluxes():
    # loop integral of the AB field around a circle enclosing k tracers = 2 pi k
    holes = (0.0j, 0.3 + 0.1j, -0.5 - 0.4j)

    def ab_at(y):
        out = np.zeros(2)
        for w in holes:
            d = y - np.array([w.real, w.imag])
            out += perp(d) / float(d @ d)
        return out

    for radius, enclosed in ((0.15, 1), (0.75, 3), (0.05, 1)):
        m = 4096
        angles = 2 * math.pi * np.arange(m) / m
        total = 0.0
        for t in angles:
            y = radius * np.array([math.cos(t), math.sin(t)])
            tangent = radius * np.array([-math.sin(t), math.cos(t)])
            total += float(ab_at(y) @ tangent) * (2 * math.pi / m)
        assert abs(total - 2 * math.pi * enclosed) < 1e-8


@pytest.mark.parametrize("j", [-1, 2, True, False, 1.0, None])
def test_every_field_function_refuses_a_bad_tracer_index(j):
    # one rule: a non-bool int in 0..n-1; -1 would silently name the last
    # hole and a bool would index numpy arrays as a mask
    cfg = HoleConfig((0.3, -0.2j), 16)
    calls = [lambda: emergent_field_integral(cfg, j), lambda: emergent_field_derivative(cfg, j)]
    for call in calls:
        with pytest.raises(ValueError, match="tracer index"):
            call()


@pytest.mark.parametrize("N", [16.5, 0, -3, True, False, np.float64(16.0), "16"])
@pytest.mark.parametrize("call", [emergent_field_stack, emergent_fields])
def test_stacked_fields_refuse_a_bad_bath_size_by_name(monkeypatch, call, N):
    # a ValueError that names N, before any orbital table is built: N = 16.5
    # once failed on "truncation order M ... got 18.5", a value the caller
    # never passed, and N = True ran as N = 1
    from qhflux import partition

    def no_table(*args):
        raise AssertionError("orbital table built for a bad N")

    monkeypatch.setattr(partition, "weighted_orbitals", no_table)
    with pytest.raises(ValueError, match=f"bath size N must be an integer of at least 1, "
                                         f"got {re.escape(repr(N))}$"):
        call(N, [[0.3, -0.2j]])


def test_a_numpy_integer_is_a_bath_size():
    want = emergent_fields(16, [[0.3, -0.2j]])
    for N in (np.int64(16), np.int32(16)):
        got = emergent_fields(N, [[0.3, -0.2j]])
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_a_numpy_integer_is_a_tracer_index():
    cfg = HoleConfig((0.3, -0.2j), 16)
    for j in (np.int64(1), np.int32(1)):
        assert emergent_field_derivative(cfg, j).V == emergent_field_derivative(cfg, 1).V


def test_single_hole_at_origin_fields():
    field = emergent_field_derivative(HoleConfig(w=(0j,), N=24), 0)
    assert np.allclose(field.A, 0.0, atol=1e-10 * 24)
    assert abs(field.V - 2 * 24) <= 1e-10 * 24


def test_field_requires_b_equal_n():
    with pytest.raises(ValueError):
        emergent_field_derivative(HoleConfig(w=(0.1,), N=8, b=4.0), 0)


def test_deep_merging_rejected():
    w = (0.2, 0.2 + 1e-11)
    with pytest.raises((DegenerateConfigurationError, SingularConfigurationError)):
        emergent_field_derivative(HoleConfig(w=w, N=64), 0)


def test_scalar_potential_nonnegative():
    rng = np.random.default_rng(50)
    for _ in range(15):
        n = int(rng.integers(1, 4))
        pts = [complex(*p) for p in rng.uniform(-0.6, 0.6, size=(n, 2))]
        if any(abs(pts[i] - pts[j]) < 5e-3 for i in range(n) for j in range(i + 1, n)):
            continue
        cfg = HoleConfig(w=tuple(pts), N=32)
        for j in range(n):
            assert emergent_field_derivative(cfg, j).V >= -1e-6 * 32


def test_no_merging_fields_match_prediction():
    cfg = HoleConfig(w=(0.3 + 0j, -0.3 + 0j), N=256)
    a_pred, v_pred = asymptotic_prediction(cfg)
    assert a_pred.shape == (2, 2) and np.array_equal(v_pred, [2 * 256.0] * 2)
    for j in (0, 1):
        field = emergent_field_derivative(cfg, j)
        assert np.linalg.norm(field.A - a_pred[j]) < 1e-5 * 256
        assert abs(field.V - 2 * 256) < 1e-5 * 256


def test_prediction_arithmetic_example():
    # n = 2, y = ((0.3,0), (-0.3,0)), j = 0, N = 100:
    # A = (0, 30) - (0.6, 0)^perp / 0.36 = (0, 28.3333...)
    cfg = HoleConfig(w=(0.3, -0.3), N=100)
    a_pred, v_pred = asymptotic_prediction(cfg)
    assert np.allclose(a_pred[0], [0.0, 30.0 - 0.6 / 0.36], atol=1e-12)
    assert v_pred[0] == 200.0


def test_merging_prediction_spectator_and_decay():
    cfg = HoleConfig(w=(0.2, 0.2 + 1.0 / 16.0, -0.4), N=256)
    a_pair, v_pair = asymptotic_prediction(cfg, pair=(0, 1))
    a_none = asymptotic_prediction(cfg)[0]
    assert v_pair[2] == 2 * 256.0 and np.array_equal(a_pair[2], a_none[2])
    # both pair tracers take the corrections, at y = sqrt(N) (w_j - w_other) = +-(1, 0)
    y = np.array([1.0, 0.0])
    for j, sign in ((0, -1.0), (1, 1.0)):
        assert v_pair[j] == pytest.approx(256 * (2.0 - correction_v(y)), rel=1e-12)
        assert np.allclose(a_pair[j] - a_none[j], 16 * correction_a(sign * y), rtol=1e-12)
    # wide separation: merging prediction collapses onto the no-merging one
    far = HoleConfig(w=(0.5, -0.5), N=256)
    a, va = asymptotic_prediction(far, pair=(0, 1))
    b, vb = asymptotic_prediction(far)
    assert np.allclose(a, b, atol=1e-30)
    assert va == pytest.approx(vb, abs=1e-20)


def test_correction_v_values():
    assert correction_v(np.array([0.0, 0.0])) == 1.0
    assert correction_v(np.array([1.0, 0.0])) == pytest.approx(
        2.0 / (math.e - 1.0) ** 2, rel=1e-13)
    # both branches track a high-precision reference across the switch
    import mpmath
    for s in (0.009, 0.05, 0.15, 0.1999, 0.2001, 0.5, 2.0, 15.0):
        with mpmath.workdps(50):
            t = mpmath.mpf(s) ** 2
            ref = float(2 * (1 - (1 - t) * mpmath.exp(t)) / (mpmath.exp(t) - 1) ** 2)
        assert correction_v(np.array([s, 0.0])) == pytest.approx(ref, rel=1e-13)


def test_correction_a_value_and_singularity():
    a = correction_a(np.array([3.0, 0.0]))
    assert np.allclose(a, [0.0, 3.0 / (math.exp(9.0) - 1.0)], rtol=1e-13)
    assert abs(a[1]) == pytest.approx(3.7024e-4, rel=1e-3)
    with pytest.raises(ValueError):
        correction_a(np.array([0.0, 0.0]))


def test_correction_v_mass_is_two():
    # exact antiderivative of v in t = |y|^2 is -2t/(e^t - 1), so the
    # radial mass integral int v dy / pi equals exactly 2
    grid = polar_grid(0j, 40.0, n_theta=8, nodes_per_panel=16, panel_width=0.5)
    mass = integrate_radial(grid, lambda r: correction_v(np.array([r, 0.0]))).real / math.pi
    assert mass == pytest.approx(2.0, abs=1e-10)


def test_correction_a_ab_difference_bounded_by_half():
    worst = 0.0
    for s in np.geomspace(1e-8, 10.0, 400):
        y = np.array([s, 0.0])
        diff = np.linalg.norm(correction_a(y) - perp(y) / s ** 2)
        worst = max(worst, diff)
    assert worst <= 0.5 + 1e-12
    assert worst > 0.45  # the bound is close to sharp


tiny_to_ten = st.tuples(st.floats(-300.0, 1.0), st.floats(0.0, 2 * math.pi)).map(
    lambda ea: 10.0 ** ea[0] * np.array([math.cos(ea[1]), math.sin(ea[1])]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(y=tiny_to_ten)
def test_pair_closed_forms_down_to_tiny_separation(y):
    # v -> 1 and a -> y^perp / |y|^2 as y -> 0, without raising, down to
    # |y| = 1e-300 where |y|^2 and expm1(|y|^2)^2 are no normal doubles
    import mpmath
    v = correction_v(y)
    assert 0.0 < v <= 1.0
    a = correction_a(y)
    assert np.all(np.isfinite(a))
    t = float(y @ y)
    if t >= np.finfo(float).tiny:
        ref = perp(y) / math.expm1(t)
    else:    # no normal double |y|^2: the exact value at 40 digits
        with mpmath.workdps(40):
            ys = [mpmath.mpf(float(c)) for c in y]
            den = mpmath.expm1(ys[0] ** 2 + ys[1] ** 2)
            ref = np.array([float(-ys[1] / den), float(ys[0] / den)])
    # math.hypot, since |a|^2 overflows once |y| < 1e-154
    assert math.hypot(*(a - ref)) <= 1e-15 * math.hypot(*ref)


def test_pair_closed_forms_keep_their_values_above_the_switch():
    # the tiny-y branches start below t = 1e-150 (v) and below the normal
    # range of |y|^2 (a); above, the formulas are as they were
    assert correction_v(np.array([1e-75, 0.0])) == 1.0
    assert correction_v(np.array([1e-81, 0.0])) == 1.0
    a = correction_a(np.array([0.0, 1e-161]))
    assert a == pytest.approx([-1e161, 0.0], rel=1e-15)
    y = np.array([3e-100, -4e-100])
    assert correction_a(y).tobytes() == (perp(y) / math.expm1(float(y @ y))).tobytes()


def test_cross_method_field_agreement():
    # derivative route vs integral route at N = 16, well-separated pair
    cfg = HoleConfig(w=(0.3 + 0.1j, -0.25 - 0.2j), N=16)
    for j in (0, 1):
        d = emergent_field_derivative(cfg, j)
        i = emergent_field_integral(cfg, j)
        assert np.linalg.norm(d.A - i.A) < 1e-6 * cfg.N
        assert abs(d.V - i.V) < 1e-4 * cfg.N


def test_integral_route_single_hole_symmetry():
    cfg = HoleConfig(w=(0j,), N=12)
    f = emergent_field_integral(cfg, 0)
    assert np.linalg.norm(f.A) < 1e-9
    assert f.V == pytest.approx(2 * 12.0, rel=1e-5)


def test_double_integral_factorization_matches_direct():
    cfg = HoleConfig(w=(0.2, -0.3 + 0.1j), N=8)
    grid = polar_grid(cfg.w[0], 1.0 + 8.0 / math.sqrt(8), n_theta=32,
                      nodes_per_panel=6, panel_width=0.5)
    psi = vanishing_subspace(cfg, grid.nodes)
    pole = cfg.w[0] - grid.nodes
    t_mat = psi.conj().T @ (psi * (grid.weights / pole)[:, None])
    frob = float(np.sum(np.abs(t_mat) ** 2))
    direct = double_integral_direct(cfg, 0, grid)
    assert frob == pytest.approx(direct, rel=1e-10)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_vanishing_subspace_projector_matches_null_space(n):
    # the basis is an SVD's choice; the projector onto it is not
    from qhflux.kernel import weighted_orbitals
    rng = np.random.default_rng(n)
    cfg = HoleConfig(w=tuple(rng.uniform(-0.6, 0.6, n) + 1j * rng.uniform(-0.6, 0.6, n)), N=16)
    pts = rng.uniform(-1.2, 1.2, 40) + 1j * rng.uniform(-1.2, 1.2, 40)
    psi = vanishing_subspace(cfg, pts)
    old = weighted_orbitals(cfg.b, cfg.spec.M, pts) @ null_space(
        weighted_orbitals(cfg.b, cfg.spec.M, cfg.points()))
    assert psi.shape == old.shape == (40, 16)
    assert np.max(np.abs(psi @ psi.conj().T - old @ old.conj().T)) <= 1e-12


def _division_matrix(b, M, w):
    """D itself, as _divided gives it for U = I."""
    return _divided(b, M, w, np.eye(M, dtype=complex))[0]


def _fine_integrals(cfg, j):
    """int P/(w_j - z), int P/|w_j - z|^2 and ||T||_F^2 on a fine polar grid
    around w_j (16 nodes per panel of 0.5 magnetic lengths, 256 angles), 12
    magnetic lengths past the droplet and the hole, with P and T from a
    scipy null-space basis of the hole constraints."""
    w = cfg.w[j]
    grid = polar_grid(w, abs(w) + 1.0 + 12.0 / math.sqrt(cfg.b), n_theta=256,
                      nodes_per_panel=16, panel_width=0.5 / math.sqrt(cfg.b))
    null = null_space(weighted_orbitals(cfg.b, cfg.spec.M, cfg.points()))
    pole_int, square_int, t_mat = 0j, 0.0, 0j
    for start in range(0, grid.nodes.size, 8192):
        nodes = grid.nodes[start:start + 8192]
        psi = weighted_orbitals(cfg.b, cfg.spec.M, nodes) @ null
        weights = grid.weights[start:start + 8192]
        p_diag = np.sum(np.abs(psi) ** 2, axis=1)
        pole_int += np.sum(weights * p_diag / (w - nodes))
        square_int += float(np.sum(weights * p_diag / np.abs(w - nodes) ** 2))
        t_mat = t_mat + psi.conj().T @ (psi * (weights / (w - nodes))[:, None])
    return pole_int, square_int, np.linalg.norm(t_mat) ** 2


@pytest.mark.parametrize("N", [8, 64])
@pytest.mark.parametrize("w", [0j, 1e-12, 0.3 + 0.2j, 0.9, 1.2])
def test_pole_closed_forms_match_quadrature(N, w):
    # -tr(D Pi), ||D Pi||_F^2 and ||Pi D Pi||_F^2 against the three integrals
    # of the conditioned density, w = 0 and 1e-12 on the top side of the
    # division and w = 1.2 outside the droplet on the bottom side alone
    cfg = HoleConfig(w=(w, -0.25 + 0.2j), N=N)
    pole_int, square_int, frob = _fine_integrals(cfg, 0)
    row = _row_space(cfg)
    proj = np.eye(cfg.spec.M) - row @ row.conj().T
    d_pi = _division_matrix(cfg.b, cfg.spec.M, cfg.w[0]) @ proj
    assert abs(-np.trace(d_pi) - pole_int) <= 1e-12 * cfg.N
    assert np.linalg.norm(d_pi) ** 2 == pytest.approx(square_int, rel=1e-12)
    assert np.linalg.norm(proj @ d_pi) ** 2 == pytest.approx(frob, rel=1e-12)


@pytest.mark.parametrize("N", [8, 64, 1024])
@pytest.mark.parametrize("w", [0j, 1e-100, -3e-150j, 0.3 + 0.2j, -0.6j, 0.9, 1.2, 1.5])
def test_division_matrix_matches_polynomial_division(N, w):
    # psi(z) / (z - w) at random points for psi vanishing at w, against the
    # orbital combination D a; |w| = 1.5 puts every row on the bottom side
    rng = np.random.default_rng(N)
    b, M = float(N), N + 2
    at_w = weighted_orbitals(b, M, [w])
    a = null_space(at_w) @ (rng.normal(size=M - 1) + 1j * rng.normal(size=M - 1))
    zs = w + rng.uniform(0.2, 1.0, 16) * np.exp(2j * math.pi * rng.uniform(size=16))
    table = weighted_orbitals(b, M, zs)
    quotient = table @ a / (zs - w)
    got = table @ (_division_matrix(b, M, w) @ a)
    assert np.max(np.abs(got - quotient)) <= 1e-12 * math.sqrt(b) * np.linalg.norm(a)


hole = st.tuples(st.floats(0.0, 0.95), st.floats(0.0, 2 * math.pi)).map(
    lambda rt: complex(rt[0] * math.cos(rt[1]), rt[0] * math.sin(rt[1])))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(N=st.sampled_from([16, 32, 64, 256, 1024, 2048]), data=st.data())
def test_integral_route_matches_derivative_route(N, data):
    # away from merging (pairs at least 4 magnetic lengths apart), inside
    # |w| <= 0.95, every tracer
    w = data.draw(st.lists(hole, min_size=1, max_size=4).filter(lambda w: all(
        abs(p - q) >= 4.0 / math.sqrt(N) for k, p in enumerate(w) for q in w[k + 1:])))
    cfg = HoleConfig(w=tuple(w), N=N)
    j = data.draw(st.integers(0, cfg.n - 1))
    i, d = emergent_field_integral(cfg, j), emergent_field_derivative(cfg, j)
    assert np.linalg.norm(d.A - i.A) <= 1e-12 * N
    assert abs(d.V - i.V) <= 1e-12 * N


def test_integral_route_never_calls_the_derivative_route(monkeypatch):
    # the route never reads the partition memo, the derivative route's
    # log-derivatives, its all-tracer Jacobi pass, its derivative rows or
    # its assembled fields
    from qhflux import partition, potentials
    cfg = HoleConfig(w=(0.3 + 0.1j, -0.25 + 0.2j), N=16)
    d = emergent_field_derivative(cfg, 1)

    def refused(*args, **kwargs):
        raise AssertionError("the integral route called into the derivative route")

    for module, name in ((partition, "_kernel_stack"),
                         (potentials, "_kernel_stack"),
                         (partition, "log_upsilon_derivative_stack"),
                         (partition, "_derivative_rows")):
        monkeypatch.setattr(module, name, refused)
    for name in ("jacobi", "fields"):
        monkeypatch.setattr(partition._Factors, name, property(refused))
    i = emergent_field_integral(cfg, 1)
    assert np.linalg.norm(d.A - i.A) <= 1e-13 * cfg.N
    assert abs(d.V - i.V) <= 1e-13 * cfg.N


@pytest.mark.parametrize("N, blocks", [(24, 3), (6, 1)])
def test_blocked_integral_route_matches_one_shot(N, blocks):
    # D splits into a bottom block of s = floor(b |w_j|^2) rows and a top
    # block; the route, which never forms D, matches the one-shot dense form
    # with the explicit projector Pi and V as the difference
    # 2 ||D Pi||^2 - 2 ||Pi D Pi||^2 of the two integrals
    cfg = HoleConfig(w=(0.45 + 0.1j,) if N == 6 else (0.3 + 0.1j, -0.3 + 0.2j), N=N)
    j = cfg.n - 1
    d_mat = _division_matrix(cfg.b, cfg.spec.M, cfg.w[j])
    s = math.floor(cfg.b * abs(cfg.w[j]) ** 2)
    assert s == blocks
    assert not d_mat[:s, s:].any() and not d_mat[s:, :s].any()
    row = _row_space(cfg)
    proj = np.eye(cfg.spec.M) - row @ row.conj().T
    d_pi = d_mat @ proj
    i_val = complex(-np.trace(d_pi))
    v_val = 2.0 * np.linalg.norm(d_pi) ** 2 - 2.0 * np.linalg.norm(proj @ d_pi) ** 2
    f = emergent_field_integral(cfg, j)
    assert np.max(np.abs(f.A - np.array([i_val.imag, i_val.real]))) <= 1e-13 * cfg.N
    assert abs(f.V - v_val) <= 1e-12 * cfg.N


@pytest.mark.parametrize("N", [32, 64, 128, 1024, 4096])
def test_integral_route_memory_is_linear_in_m(N):
    # one call holds a few n x M arrays and never the M x M D
    cfg = HoleConfig(w=(0.3 + 0.1j, -0.25 + 0.2j), N=N)
    emergent_field_integral(HoleConfig(w=(0.3,), N=2), 0)    # warm caches
    tracemalloc.start()
    try:
        emergent_field_integral(cfg, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 16 * cfg.spec.M * cfg.n + 2 ** 16


def test_integral_route_reaches_n512():
    # the README's range: one call at N = 512 against the derivative route
    cfg = HoleConfig(w=(0.3, -0.25 + 0.2j), N=512)
    i = emergent_field_integral(cfg, 0)
    d = emergent_field_derivative(cfg, 0)
    assert np.linalg.norm(d.A - i.A) <= 1e-10 * cfg.N
    assert abs(d.V - i.V) <= 1e-10 * cfg.N


def test_integral_route_reaches_n4096():
    cfg = HoleConfig(w=(0.3, -0.25 + 0.2j), N=4096)
    i = emergent_field_integral(cfg, 0)
    d = emergent_field_derivative(cfg, 0)
    assert np.linalg.norm(d.A - i.A) <= 1e-12 * cfg.N
    assert abs(d.V - i.V) <= 1e-12 * cfg.N


@pytest.mark.parametrize("far", [1e200, -1.7e308j])
def test_tracer_beyond_the_double_range(far):
    # b |w|^2 overflows: every orbital of the far hole is 0, so the integral
    # route gives the finite fields of a hole that constrains nothing, and
    # the derivative route refuses the row (Upsilon = 0) without a warning,
    # with either hole as the tracer
    cfg = HoleConfig(w=(far, 0.3), N=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far_field = emergent_field_integral(cfg, 0)
        near_field = emergent_field_integral(cfg, 1)
        a_vec, v_val, refusals = emergent_field_stack(cfg.N, [cfg.w])
    assert np.isfinite(far_field.A).all() and np.isfinite(far_field.V)
    # the same b and M with the near hole alone
    alone = emergent_field_integral(HoleConfig(w=(0.3,), N=5, b=4.0), 0)
    assert np.allclose(near_field.A, alone.A, rtol=0, atol=1e-14 * cfg.N)
    assert abs(near_field.V - alone.V) <= 1e-14 * cfg.N
    assert np.isnan(a_vec).all() and np.isnan(v_val).all()
    assert list(refusals) == [(0, 0), (0, 1)]
    assert all(isinstance(err, DegenerateConfigurationError) for err in refusals.values())


def _cluster(s, n):
    """A pair c, c + s or a triple c, c + s, c + s (0.3 + 0.6i) at c = 0.05 + 0.02i."""
    c = 0.05 + 0.02j
    return (c, c + s, c + s * (0.3 + 0.6j))[:n]


@pytest.mark.parametrize("N, holes", [
    *[(N, _cluster(s, n)) for N in (256, 1024) for s, n in ((1e-8, 3), (1e-10, 3), (1e-16, 2))],
    (4, (5.0, 0.1)), (256, (1.5, 0.3)), (1024, (1.3, 0.3))],
    ids=[f"{kind}-N{N}" for kind in ("triple-1e-8", "triple-1e-10", "pair-1e-16")
         for N in (256, 1024)] + ["far-5-N4", "far-1.5-N256", "far-1.3-N1024"])
def test_integral_route_refuses_a_lost_rank(N, holes):
    # the SVD found fewer independent hole rows than nonzero rows, and the
    # route once answered for that many holes without an error: V = N for
    # the triples, where the answer is 2N/3, V = 2N for the pair, and at
    # |w_0| = 5, N = 4 A_y = 1.19996 of tracer 1, where the derivative route
    # (and the row space of the normalised rows) gives 1.40974
    cfg = HoleConfig(w=holes, N=N)
    for j in range(cfg.n):
        with pytest.raises(DegenerateConfigurationError, match=f"rank {cfg.n - 1} below"):
            emergent_field_integral(cfg, j)


@pytest.mark.parametrize("N", [256, 1024])
def test_integral_route_answers_a_resolved_triple(N):
    # at s = 1e-6 the three rows keep rank 3; a merged k-cluster has V -> 2N/k
    cfg = HoleConfig(w=_cluster(1e-6, 3), N=N)
    assert _row_space(cfg).shape[1] == 3
    assert emergent_field_integral(cfg, 0).V == pytest.approx(2.0 * N / 3.0, rel=1e-6)


def test_field_call_factors_once(monkeypatch):
    # Upsilon and every tracer's fields on one configuration share one
    # orbital table (its n points), one determinant, one inverse, one
    # all-tracer Jacobi pass and one assembly of A, V and the refusals
    # through the partition memo; no tracer builds a derivative table, the
    # pass takes its rows from the (B, n, n) kernel matrices.  A stacked
    # call on new holes builds its own factorisation and fields.
    from qhflux import kernel, partition
    calls = []
    count_cached_property(monkeypatch, partition._Factors, "fields", calls)

    def counting(name, fn, arg=0):
        def wrapper(*args, **kwargs):
            calls.append((name, np.shape(args[arg])))
            return fn(*args, **kwargs)
        return wrapper

    assert not hasattr(kernel, "orbital_derivative")
    monkeypatch.setattr(partition, "_memo", None)
    monkeypatch.setattr(partition, "weighted_orbitals",
                        counting("orbitals", partition.weighted_orbitals, arg=2))
    monkeypatch.setattr(partition, "_derivative_rows",
                        counting("rows", partition._derivative_rows, arg=3))
    monkeypatch.setattr(np.linalg, "det", counting("det", np.linalg.det))
    monkeypatch.setattr(np.linalg, "inv", counting("inv", np.linalg.inv))
    cfg = HoleConfig(w=(0.3, -0.2 + 0.4j, 0.1j), N=64)
    partition.upsilon(cfg)
    for j in range(cfg.n):
        emergent_field_derivative(cfg, j)
    assert calls == [("orbitals", (3,)), ("det", (1, 3, 3)), "fields", ("inv", (1, 3, 3)),
                     ("rows", (1, 3, 3))]
    holes = np.array(cfg.w) + np.linspace(0.0, 0.2, 50)[:, None]
    calls.clear()
    emergent_fields(64, holes)
    emergent_field_stack(64, holes)
    assert calls == [("orbitals", (150,)), ("det", (50, 3, 3)), "fields", ("inv", (50, 3, 3)),
                     ("rows", (50, 3, 3))]


def test_noise_level_upsilon_is_degenerate():
    # true Upsilon ~ b s^2 = 1e-18 sits below the determinant's rounding noise
    cfg = HoleConfig(w=(0.5j, 0.5j + 1e-10), N=100)
    with pytest.raises(DegenerateConfigurationError):
        emergent_field_derivative(cfg, 0)


def test_deep_merger_is_refused_not_wrong():
    # two holes at c -+ s/2, N = 256; mpmath gives V = 256.0218453 at s = 1e-3,
    # while rounding in ddlog makes V come out 283.99 at s = 1e-5 and
    # -336,152 at 1e-6, so those must raise instead
    c = 0.05 + 0.02j
    field = emergent_field_derivative(HoleConfig(w=(c - 5e-4, c + 5e-4), N=256), 0)
    assert field.V == pytest.approx(256.0218453, rel=1e-6)
    for s in (1e-5, 1e-6, 1e-7):
        with pytest.raises(DegenerateConfigurationError):
            emergent_field_derivative(HoleConfig(w=(c - s / 2, c + s / 2), N=256), 0)


def mp_log_upsilon(ws, N):
    """log det[(pi/b) K_{N+n}(w_i, w_l)] from kernel sums at the working
    mpmath precision, b = N."""
    import mpmath

    b = mpmath.mpf(N)
    pts = [mpmath.mpc(w) for w in ws]

    def k(z, w):
        x, term, total = b * z * mpmath.conj(w), mpmath.mpf(1), mpmath.mpf(0)
        for m in range(N + len(ws)):
            total += term
            term *= x / (m + 1)
        return total * mpmath.exp(-b * (abs(z) ** 2 + abs(w) ** 2) / 2)

    return mpmath.log(mpmath.re(mpmath.det(mpmath.matrix(
        [[k(z, w) for w in pts] for z in pts]))))


def test_hole_outside_droplet_is_not_degenerate():
    # hole 1 of (0.3, 1.55) sits outside the N = 64 droplet: Upsilon = 4.9e-16
    # lies below the floor, but Upsilon / prod Q does not.  The fields of
    # every tracer, here and for four holes inside the droplet, match the
    # mpmath five-point stencil of log Upsilon
    import mpmath

    N, h = 64, mpmath.mpf("1e-6")
    for ws in ((0.3, 1.55), (0.3, -0.2 + 0.4j, 0.1j, 0.15 + 0.1j)):
        cfg = HoleConfig(w=ws, N=N)
        for j in range(cfg.n):
            with mpmath.workdps(50):
                def f(dx, dy):
                    moved = list(ws)
                    moved[j] = mpmath.mpc(ws[j]) + mpmath.mpc(dx, dy)
                    return mp_log_upsilon(moved, N)

                f0, fx1, fx0, fy1, fy0 = f(0, 0), f(h, 0), f(-h, 0), f(0, h), f(0, -h)
                v_ref = float(2 * N + (fx1 + fx0 + fy1 + fy0 - 4 * f0) / (2 * h ** 2))
                grad = np.array([float((fx1 - fx0) / (2 * h)), float((fy1 - fy0) / (2 * h))])
            # A_j = N y_j^perp - AB_j + grad^perp log Upsilon / 2
            a_ref = asymptotic_prediction(cfg)[0][j] + 0.5 * perp(grad)
            field = emergent_field_derivative(cfg, j)
            assert np.all(np.isfinite(field.A)) and math.isfinite(field.V)
            assert field.V == pytest.approx(v_ref, rel=1e-9)
            assert field.A == pytest.approx(a_ref, rel=1e-9, abs=1e-9)


def test_batch_error_names_the_row():
    good = [(0.3, -0.2 + 0.4j), (0.1, -0.5j), (0.6j, -0.4)]
    c = 0.05 + 0.02j
    deep = (c - 5e-7, c + 5e-7)
    with pytest.raises(DegenerateConfigurationError, match="row 2"):
        emergent_fields(256, good[:2] + [deep] + good[2:])
    with pytest.raises(SingularConfigurationError, match="row 1"):
        emergent_fields(256, good[:1] + [(0.2j, 0.2j)] + good[1:])
    # the stack keeps the other rows: refused entries are NaN, coincident
    # rows first
    mixed = [good[0], deep, good[1], (0.2j, 0.2j), good[2]]
    a_vec, v_val, refusals = emergent_field_stack(256, mixed)
    assert list(refusals) == [(3, 0), (3, 1), (1, 0), (1, 1)]
    assert all(isinstance(refusals[3, j], SingularConfigurationError) for j in (0, 1))
    assert all(isinstance(refusals[1, j], DegenerateConfigurationError) for j in (0, 1))
    assert np.isnan(a_vec[[1, 3]]).all() and np.isnan(v_val[[1, 3]]).all()
    a_good, v_good = emergent_fields(256, good)
    assert np.array_equal(a_vec[[0, 2, 4]], a_good) and np.array_equal(v_val[[0, 2, 4]], v_good)
    with pytest.raises(SingularConfigurationError, match="row 3"):
        emergent_fields(256, mixed)


@pytest.mark.parametrize("N", [64, 256])
def test_refusals_are_per_tracer(N):
    # a pair 1e-5 apart merges too deep for its own two tracers' V, while
    # the far tracer of the same row is answered, as it is on its own
    c = 0.05 + 0.02j
    cfg = HoleConfig(w=(c, c + 1e-5, 0.5 - 0.3j), N=N)
    a_vec, v_val, refusals = emergent_field_stack(N, [cfg.w])
    assert list(refusals) == [(0, 0), (0, 1)]
    for j in (0, 1):
        assert isinstance(refusals[0, j], DegenerateConfigurationError)
        assert "V rounding error" in str(refusals[0, j])
        assert np.isnan(a_vec[0, j]).all() and np.isnan(v_val[0, j])
        with pytest.raises(DegenerateConfigurationError, match="V rounding error"):
            emergent_field_derivative(cfg, j)
    far = emergent_field_derivative(cfg, 2)
    assert np.array_equal(a_vec[0, 2], far.A) and v_val[0, 2] == far.V
    with pytest.raises(DegenerateConfigurationError, match="V rounding error"):
        emergent_fields(N, [cfg.w])


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(N=st.integers(1, 1024), n=st.integers(1, 4), data=st.data())
def test_stacked_fields_match_one_config_at_a_time(N, n, data):
    rows = data.draw(st.lists(st.lists(hole, min_size=n, max_size=n, unique=True),
                              min_size=1, max_size=32))
    a_vec, v_val, refusals = emergent_field_stack(N, rows)
    for r, w in enumerate(rows):
        for j in range(n):
            try:
                f = emergent_field_derivative(HoleConfig(w=tuple(w), N=N), j)
            except (DegenerateConfigurationError, SingularConfigurationError):
                continue  # entries the one-config route refuses are left out
            assert (r, j) not in refusals
            assert np.allclose(a_vec[r, j], f.A, rtol=1e-12, atol=1e-12 * N)
            assert v_val[r, j] == pytest.approx(f.V, rel=1e-12, abs=1e-12 * N)
