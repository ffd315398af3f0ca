import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhflux.partition import HoleConfig, SingularConfigurationError
from qhflux.potentials import (DegenerateConfigurationError, FieldGrids,
                               ResourceBudgetError, ab_sum, asymptotic_prediction,
                               correction_a, correction_v, double_integral_direct,
                               emergent_field_derivative, emergent_field_integral,
                               emergent_field_stack, emergent_fields, perp,
                               refined_fields, to_vec)
from qhflux.quadrature import polar_grid


def test_perp_convention():
    assert np.allclose(perp(np.array([1.0, 2.0])), [-2.0, 1.0])


def test_ab_sum_rejects_coincident_holes():
    # coincident_rows is the one coincidence rule; a separation of 1e-13 is
    # distinct and gives the finite 1/s Aharonov-Bohm term
    with pytest.raises(SingularConfigurationError):
        ab_sum(HoleConfig(w=(0.1, 0.1), N=8), 0)
    cfg = HoleConfig(w=(0.1, 0.1 + 1e-13), N=8)
    s = (cfg.w[1] - cfg.w[0]).real
    assert ab_sum(cfg, 0) == pytest.approx([0.0, -1.0 / s], rel=1e-15)


def test_ab_curl_reproduces_point_fluxes():
    # loop integral of the AB field around a circle enclosing k tracers = 2 pi k
    holes = (0.0j, 0.3 + 0.1j, -0.5 - 0.4j)

    def ab_at(y):
        out = np.zeros(2)
        for w in holes:
            d = y - to_vec(w)
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
    for j in (0, 1):
        field = emergent_field_derivative(cfg, j)
        pred = asymptotic_prediction(cfg, j, "no-merging")
        assert np.linalg.norm(field.A - pred.A) < 1e-5 * 256
        assert abs(field.V - 2 * 256) < 1e-5 * 256


def test_prediction_arithmetic_example():
    # n = 2, y = ((0.3,0), (-0.3,0)), j = 1, N = 100:
    # A = (0, 30) - (0.6, 0)^perp / 0.36 = (0, 28.3333...)
    cfg = HoleConfig(w=(0.3, -0.3), N=100)
    pred = asymptotic_prediction(cfg, 0, "no-merging")
    assert np.allclose(pred.A, [0.0, 30.0 - 0.6 / 0.36], atol=1e-12)
    assert pred.V == 200.0


def test_merging_prediction_spectator_and_decay():
    cfg = HoleConfig(w=(0.2, 0.2 + 1.0 / 16.0, -0.4), N=256)
    spect = asymptotic_prediction(cfg, 2, "single-merging", pair=(0, 1))
    assert spect.V == 2 * 256.0
    # wide separation: merging prediction collapses onto the no-merging one
    far = HoleConfig(w=(0.5, -0.5), N=256)
    a = asymptotic_prediction(far, 0, "single-merging", pair=(0, 1))
    b = asymptotic_prediction(far, 0, "no-merging")
    assert np.allclose(a.A, b.A, atol=1e-30)
    assert a.V == pytest.approx(b.V, abs=1e-20)


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
    from qhflux.quadrature import integrate_radial
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


def test_refined_fields_single_hole():
    cfg = HoleConfig(w=(0.4 + 0.2j,), N=64)
    a, v = refined_fields(cfg, 0)
    assert np.allclose(a, 64 * perp(to_vec(cfg.w[0])))
    assert v == 2 * 64.0


def test_refined_fields_wide_pair_matches_no_merging():
    cfg = HoleConfig(w=(0.25, -0.25), N=256)
    a, v = refined_fields(cfg, 0)
    pred = asymptotic_prediction(cfg, 0, "no-merging")
    assert np.linalg.norm(a - pred.A) < 1e-20
    assert abs(v - pred.V) < 1e-20


def test_refined_fields_merging_pair_value():
    n_val = 256
    s = 1.0 / math.sqrt(n_val)
    cfg = HoleConfig(w=(0.1, 0.1 + s), N=n_val)
    _, v = refined_fields(cfg, 0)
    expected = n_val * (2.0 - 2.0 / (math.e - 1.0) ** 2)
    assert v == pytest.approx(expected, rel=1e-12)


def test_refined_field_global_bounds():
    rng = np.random.default_rng(51)
    n_val = 64
    for _ in range(50):
        pts = [complex(*p) for p in rng.uniform(-0.7, 0.7, size=(3, 2))]
        if any(abs(pts[i] - pts[j]) < 1e-6 for i in range(3) for j in range(i + 1, 3)):
            continue
        cfg = HoleConfig(w=tuple(pts), N=n_val)
        for j in range(3):
            a, v = refined_fields(cfg, j)
            assert -1e-9 <= v <= 2 * n_val + 1e-9
            assert np.linalg.norm(a - n_val * perp(to_vec(cfg.w[j]))) \
                <= 3 * math.sqrt(n_val) / 2 + 1e-9


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
    from qhflux.potentials import vanishing_subspace
    psi = vanishing_subspace(cfg, grid.nodes)
    pole = cfg.w[0] - grid.nodes
    t_mat = psi.conj().T @ (psi * (grid.weights / pole)[:, None])
    frob = float(np.sum(np.abs(t_mat) ** 2))
    direct = double_integral_direct(cfg, 0, grid)
    assert frob == pytest.approx(direct, rel=1e-10)


def test_integral_route_polar_refinement_converges():
    # the conditioned density vanishes quadratically at the hole, so the
    # singular integrands are integrable and refinement converges fast
    cfg = HoleConfig(w=(0.2 + 0.1j, -0.35), N=16)
    coarse = emergent_field_integral(cfg, 0, FieldGrids(n_theta=48, nodes_per_panel=8))
    fine = emergent_field_integral(cfg, 0, FieldGrids(n_theta=128, nodes_per_panel=16))
    assert np.linalg.norm(coarse.A - fine.A) < 1e-7 * cfg.N
    assert abs(coarse.V - fine.V) < 1e-5 * cfg.N


def test_double_integral_direct_budget():
    cfg = HoleConfig(w=(0.2,), N=8)
    grid = polar_grid(0.2, 2.0, n_theta=128, nodes_per_panel=16, panel_width=0.05)
    with pytest.raises(ResourceBudgetError):
        double_integral_direct(cfg, 0, grid)


def test_field_grids_budget():
    cfg = HoleConfig(w=(0.1,), N=8)
    with pytest.raises(ResourceBudgetError):
        emergent_field_integral(cfg, 0, FieldGrids(n_theta=2048, nodes_per_panel=32,
                                                   node_budget=1000))


def test_field_call_factors_once(monkeypatch):
    # one stacked determinant and one stacked inverse per call, whatever B
    calls = []

    def counting(name, fn):
        def wrapper(a, *args, **kwargs):
            calls.append((name, a.shape))
            return fn(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "det", counting("det", np.linalg.det))
    monkeypatch.setattr(np.linalg, "inv", counting("inv", np.linalg.inv))
    cfg = HoleConfig(w=(0.3, -0.2 + 0.4j, 0.1j), N=64)
    for j in range(cfg.n):
        calls.clear()
        emergent_field_derivative(cfg, j)
        assert calls == [("det", (1, 3, 3)), ("inv", (1, 3, 3))]
    holes = np.array(cfg.w) + np.linspace(0.0, 0.2, 50)[:, None]
    calls.clear()
    emergent_fields(64, holes, 1)
    assert calls == [("det", (50, 3, 3)), ("inv", (50, 3, 3))]


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
            a_ref = N * perp(to_vec(ws[j])) - ab_sum(cfg, j) + 0.5 * perp(grad)
            field = emergent_field_derivative(cfg, j)
            assert np.all(np.isfinite(field.A)) and math.isfinite(field.V)
            assert field.V == pytest.approx(v_ref, rel=1e-9)
            assert field.A == pytest.approx(a_ref, rel=1e-9, abs=1e-9)


def test_batch_error_names_the_row():
    good = [(0.3, -0.2 + 0.4j), (0.1, -0.5j), (0.6j, -0.4)]
    c = 0.05 + 0.02j
    deep = (c - 5e-7, c + 5e-7)
    with pytest.raises(DegenerateConfigurationError, match="row 2"):
        emergent_fields(256, good[:2] + [deep] + good[2:], 0)
    with pytest.raises(SingularConfigurationError, match="row 1"):
        emergent_fields(256, good[:1] + [(0.2j, 0.2j)] + good[1:], 1)
    # the stack keeps the other rows: refused rows are NaN, coincident first
    mixed = [good[0], deep, good[1], (0.2j, 0.2j), good[2]]
    a_vec, v_val, refusals = emergent_field_stack(256, mixed, 0)
    assert list(refusals) == [3, 1]
    assert isinstance(refusals[3], SingularConfigurationError)
    assert isinstance(refusals[1], DegenerateConfigurationError)
    assert np.isnan(a_vec[[1, 3]]).all() and np.isnan(v_val[[1, 3]]).all()
    a_good, v_good = emergent_fields(256, good, 0)
    assert np.array_equal(a_vec[[0, 2, 4]], a_good) and np.array_equal(v_val[[0, 2, 4]], v_good)
    with pytest.raises(SingularConfigurationError, match="row 3"):
        emergent_fields(256, mixed, 0)


hole = st.tuples(st.floats(0.0, 0.95), st.floats(0.0, 2 * math.pi)).map(
    lambda rt: complex(rt[0] * math.cos(rt[1]), rt[0] * math.sin(rt[1])))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(N=st.integers(1, 1024), n=st.integers(1, 4), data=st.data())
def test_stacked_fields_match_one_config_at_a_time(N, n, data):
    rows = data.draw(st.lists(st.lists(hole, min_size=n, max_size=n, unique=True),
                              min_size=1, max_size=32))
    j = data.draw(st.integers(0, n - 1))
    looped = []
    for w in rows:  # rows the one-config route refuses are left out
        try:
            looped.append((w, emergent_field_derivative(HoleConfig(w=tuple(w), N=N), j)))
        except (DegenerateConfigurationError, SingularConfigurationError):
            pass
    if not looped:
        return
    a_vec, v_val = emergent_fields(N, [w for w, _ in looped], j)
    for (_, f), a, v in zip(looped, a_vec, v_val):
        assert np.allclose(a, f.A, rtol=1e-12, atol=1e-12 * N)
        assert v == pytest.approx(f.V, rel=1e-12, abs=1e-12 * N)
