import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qhflux
from qhflux.kernel import kernel_eval, kernel_matrix
from qhflux.oracle.monomial import partition_exact
from qhflux.partition import (HoleConfig, PartitionValue, SingularConfigurationError,
                              SingularMatrixError, log_partition, log_upsilon,
                              resolved_rows, theta, theta_polarized, upsilon,
                              upsilon_derivative_stack, upsilon_prediction)
from qhflux.potentials import DegenerateConfigurationError, emergent_fields
from qhflux.quadrature import cartesian_grid


def seeded_config(rng, N, n, b=None, radius=0.7, min_sep=0.15):
    while True:
        pts = [complex(*p) for p in rng.uniform(-radius, radius, size=(n, 2))]
        ok = all(abs(pts[i] - pts[j]) >= min_sep
                 for i in range(n) for j in range(i + 1, n))
        if ok and all(abs(p) <= radius for p in pts):
            return HoleConfig(w=tuple(pts), N=N, b=b)


def test_upsilon_single_hole_at_origin():
    cfg = HoleConfig(w=(0j,), N=12)
    assert upsilon(cfg) == pytest.approx(1.0, rel=1e-14)


def test_upsilon_zero_for_repeated_points():
    cfg = HoleConfig(w=(0.3 + 0.1j, 0.3 + 0.1j), N=8)
    assert upsilon(cfg) == 0.0


def test_upsilon_bounded_by_one():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        cfg = seeded_config(rng, N=24, n=n, min_sep=0.01)
        val = upsilon(cfg)
        assert -1e-13 <= val <= 1.0 + 1e-13


def test_upsilon_permutation_invariant():
    rng = np.random.default_rng(32)
    cfg = seeded_config(rng, N=16, n=4)
    ref = upsilon(cfg)
    for perm in [(1, 0, 2, 3), (3, 2, 1, 0), (2, 0, 3, 1)]:
        val = upsilon(HoleConfig(w=tuple(cfg.w[i] for i in perm), N=16))
        assert val == pytest.approx(ref, rel=1e-13)


def test_upsilon_rotation_invariant():
    rng = np.random.default_rng(33)
    cfg = seeded_config(rng, N=16, n=3)
    ref = upsilon(cfg)
    for theta_ in (0.3, 1.2, 2.9):
        rot = tuple(w * complex(math.cos(theta_), math.sin(theta_)) for w in cfg.w)
        assert upsilon(HoleConfig(w=rot, N=16)) == pytest.approx(ref, rel=1e-12)


def tracer_derivatives(cfg, j):
    """Upsilon, d_j Upsilon and d_j dbar_j Upsilon of one configuration."""
    ups, d1, d11, _ = upsilon_derivative_stack(cfg.b, cfg.spec.M, cfg.points()[None, :], j)
    return float(ups[0]), complex(d1[0]), complex(d11[0])


def wirtinger_fd_holes(f, cfg, i, anti=False, h=1e-5):
    w = list(cfg.w)

    def shifted(dw):
        ws = list(w)
        ws[i] = ws[i] + dw
        return f(HoleConfig(w=tuple(ws), N=cfg.N, b=cfg.b))

    gx = (shifted(h) - shifted(-h)) / (2 * h)
    gy = (shifted(1j * h) - shifted(-1j * h)) / (2 * h)
    return (gx + 1j * gy) / 2 if anti else (gx - 1j * gy) / 2


def test_upsilon_derivative_vs_finite_difference():
    rng = np.random.default_rng(35)
    cfg = seeded_config(rng, N=16, n=2, min_sep=0.3)
    exact = tracer_derivatives(cfg, 0)[1]
    fd = wirtinger_fd_holes(upsilon, cfg, 0)
    assert abs(exact - fd) <= 1e-6 * max(abs(exact), 1e-6)

    # dbar_1 Upsilon is the conjugate of d_1 Upsilon, since Upsilon is real
    exact_a = tracer_derivatives(cfg, 1)[1].conjugate()
    fd_a = wirtinger_fd_holes(upsilon, cfg, 1, anti=True)
    assert abs(exact_a - fd_a) <= 1e-6 * max(abs(exact_a), 1e-6)


def test_upsilon_second_derivative_vs_finite_difference():
    # merging-scale pair keeps the mixed derivative O(N) so nested FD noise
    # (~eps/h^2) stays far below it
    cfg = HoleConfig(w=(0.2 + 0.1j, 0.35 + 0.1j), N=16)
    exact = tracer_derivatives(cfg, 0)[2]
    h = 3e-4
    fd = wirtinger_fd_holes(
        lambda c: wirtinger_fd_holes(upsilon, c, 0, h=h), cfg, 0, anti=True, h=h)
    assert abs(exact - fd) <= 1e-5 * abs(exact)

    # independent product-rule assembly over the 2x2 determinant
    s = (math.pi / cfg.b) ** 2
    from qhflux.kernel import kernel_derivative
    w1, w2 = cfg.w
    K = lambda z, w, o=(0, 0, 0, 0): kernel_derivative(cfg.spec, z, w, o)
    k11_dd = (K(w1, w1, (1, 1, 0, 0)) + K(w1, w1, (0, 1, 1, 0))
              + K(w1, w1, (1, 0, 0, 1)) + K(w1, w1, (0, 0, 1, 1)))
    direct = s * (k11_dd * K(w2, w2)
                  - K(w1, w2, (1, 1, 0, 0)) * K(w2, w1)
                  - K(w1, w2, (0, 1, 0, 0)) * K(w2, w1, (0, 0, 1, 0))
                  - K(w1, w2, (1, 0, 0, 0)) * K(w2, w1, (0, 0, 0, 1))
                  - K(w1, w2) * K(w2, w1, (0, 0, 1, 1)))
    assert abs(exact - direct) <= 1e-8 * abs(direct)


def test_upsilon_derivative_rejects_coincident():
    # a coincident row is singular: Upsilon 0, NaN derivatives, not resolved
    cfg = HoleConfig(w=(0.1, 0.1), N=8)
    ups, d1, d11 = tracer_derivatives(cfg, 0)
    assert ups == 0.0 and math.isnan(d1.real) and math.isnan(d11.real)
    assert not resolved_rows(cfg.b, cfg.spec.M, cfg.points()[None, :], np.array([ups]))[1][0]


def test_upsilon_derivative_on_singular_matrix_raises():
    # distinct holes whose orbital rows agree to every bit: det is exactly 0
    cfg = HoleConfig(w=(0.3, 0.3 + 1e-300j), N=8)
    assert upsilon(cfg) == 0.0
    ups, d1, d11 = tracer_derivatives(cfg, 0)
    assert ups == 0.0 and math.isnan(d1.real) and math.isnan(d11.real)
    with pytest.raises(SingularMatrixError):
        log_upsilon(cfg)
    with pytest.raises(DegenerateConfigurationError, match="Upsilon / prod Q"):
        emergent_fields(cfg.N, [cfg.w], 0)


def test_holes_far_outside_droplet_are_singular():
    # every orbital entry of |w| = 5 at N = 64 underflows: the kernel matrix is 0
    cfg = HoleConfig(w=(5.0, -5.0), N=64)
    assert upsilon(cfg) == 0.0
    for fn in (log_upsilon, lambda c: theta(c, 0.3)):
        with pytest.raises(SingularMatrixError):
            fn(cfg)
    assert qhflux.SingularMatrixError is SingularMatrixError


def test_no_merging_derivative_is_tiny():
    # kappa = 2 style separation at N = 256: |dUpsilon| ~ N^{-7}
    cfg = HoleConfig(w=(0.4, -0.35 + 0.2j), N=256)
    d = tracer_derivatives(cfg, 0)[1]
    assert abs(d) < 100 * 256.0 ** (1 - 8)


def test_log_partition_n1_closed_form():
    # int |w - z|^2 e^{-b|z|^2} dz = (pi/b)(|w|^2 + 1/b)
    val = log_partition(HoleConfig(w=(1.0 + 0j,), N=1, b=1.0))
    assert val.log_value == pytest.approx(math.log(2 * math.pi), abs=1e-12)
    val2 = log_partition(HoleConfig(w=(0.5 + 0j,), N=1, b=2.0))
    assert val2.log_value == pytest.approx(math.log(3 * math.pi / 8), abs=1e-12)


def test_log_partition_no_holes_appendix_form():
    val = log_partition(HoleConfig(w=(), N=2, b=2.0))
    assert val.log_value == pytest.approx(math.log(math.pi ** 2 / 4), abs=1e-12)


def test_log_partition_components_sum():
    rng = np.random.default_rng(37)
    cfg = seeded_config(rng, N=6, n=2, b=3.5)
    v = log_partition(cfg)
    total = v.log_gamma + v.b_sum_sq + v.minus_two_log_vandermonde + v.log_upsilon
    assert v.log_value == pytest.approx(total, abs=1e-12)
    assert isinstance(v, PartitionValue)


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_log_partition_matches_monomial_oracle(N, n):
    rng = np.random.default_rng(100 * N + n)
    for b in (1.0, float(N), 2.5):
        for _ in range(5):
            cfg = seeded_config(rng, N=N, n=n, b=b, radius=0.9, min_sep=0.2)
            exact = partition_exact(cfg)
            closed = log_partition(cfg).log_value
            assert abs(closed - exact) <= 1e-10 * max(1.0, abs(exact))


def test_theta_at_hole_equals_kernel_diagonal():
    rng = np.random.default_rng(38)
    cfg = seeded_config(rng, N=8, n=2)
    k11 = kernel_eval(cfg.spec, cfg.w[0], cfg.w[0]).to_complex().real
    assert theta(cfg, cfg.w[0]) == pytest.approx(k11, rel=1e-10)


def test_theta_bounds_and_schur_contract():
    rng = np.random.default_rng(39)
    cfg = seeded_config(rng, N=8, n=2)
    for _ in range(20):
        z = complex(*rng.uniform(-1, 1, 2))
        th = theta(cfg, z)
        kzz = kernel_eval(cfg.spec, z, z).to_complex().real
        assert -1e-10 <= th <= kzz + 1e-10
        # Upsilon(w, z) = (pi/b) Upsilon(w) (K(z,z) - Theta(z|w))
        big = upsilon(HoleConfig(w=cfg.w + (z,), N=cfg.N - 1, b=cfg.b))
        rhs = (math.pi / cfg.b) * upsilon(cfg) * (kzz - th)
        assert big == pytest.approx(rhs, rel=1e-10, abs=1e-13)


def test_theta_mass_is_hole_count():
    cfg = HoleConfig(w=(0.25 + 0.1j, -0.3 + 0.2j), N=8)
    grid = cartesian_grid(1.0 + 8.0 / math.sqrt(8.0), order=120)
    from qhflux.potentials import vanishing_subspace
    psi = vanishing_subspace(cfg, grid.nodes)
    p_diag = np.sum(np.abs(psi) ** 2, axis=1)
    u = None
    from qhflux.kernel import weighted_orbitals
    u = weighted_orbitals(cfg.b, cfg.spec.M, grid.nodes)
    k_diag = np.sum(np.abs(u) ** 2, axis=1)
    mass = float(np.sum(grid.weights * (k_diag - p_diag)))
    assert mass == pytest.approx(cfg.n, rel=1e-6)


def test_theta_polarized_cauchy_schwarz_and_edge():
    rng = np.random.default_rng(40)
    cfg = seeded_config(rng, N=8, n=2)
    for _ in range(15):
        z, zeta = (complex(*p) for p in rng.uniform(-1, 1, size=(2, 2)))
        pol = theta_polarized(cfg, zeta, z)
        assert abs(pol) ** 2 <= theta(cfg, z) * theta(cfg, zeta) * (1 + 1e-9) + 1e-12
    # first argument at a hole reduces to the kernel row
    z = 0.4 - 0.3j
    pol = theta_polarized(cfg, cfg.w[1], z)
    k = kernel_eval(cfg.spec, cfg.w[1], z).to_complex()
    assert pol == pytest.approx(k, rel=1e-9)


def test_vanishing_diag_matches_theta():
    from qhflux.potentials import vanishing_subspace
    rng = np.random.default_rng(41)
    cfg = seeded_config(rng, N=12, n=3)
    zs = np.array([complex(*p) for p in rng.uniform(-0.8, 0.8, size=(5, 2))])
    psi = vanishing_subspace(cfg, zs)
    p_diag = np.sum(np.abs(psi) ** 2, axis=1)
    for z, p in zip(zs, p_diag):
        kzz = kernel_eval(cfg.spec, z, z).to_complex().real
        assert kzz - theta(cfg, z) == pytest.approx(p, rel=1e-9, abs=1e-12)


def test_upsilon_prediction():
    cfg = HoleConfig(w=(0.2, 0.2 + 0.06250j), N=256)
    assert upsilon_prediction(cfg, "no-merging") == 1.0
    s2 = 0.0625 ** 2
    pred = upsilon_prediction(cfg, "single-merging", pair=(0, 1))
    assert pred == pytest.approx(1 - math.exp(-256 * s2), rel=1e-12)
    far = HoleConfig(w=(0.0, 0.9), N=256)
    assert upsilon_prediction(far, "single-merging", pair=(0, 1)) == pytest.approx(1.0)


def test_coincident_rejections():
    cfg = HoleConfig(w=(0.1, 0.1), N=4)
    for fn in (log_partition, lambda c: theta(c, 0.3)):
        with pytest.raises(SingularConfigurationError):
            fn(cfg)


def mp_upsilon(ws, N):
    """det[(pi/b) K_{N+n}(w_i, w_l)] from 30-digit kernel sums, b = N."""
    with mpmath.workdps(30):
        b = mpmath.mpf(N)
        pts = [mpmath.mpc(w) for w in ws]

        def k(z, w):
            x, term, total = b * z * mpmath.conj(w), mpmath.mpf(1), mpmath.mpf(0)
            for j in range(N + len(ws)):
                total += term
                term *= x / (j + 1)
            return total * mpmath.exp(-b * (abs(z) ** 2 + abs(w) ** 2) / 2)

        return float(mpmath.re(mpmath.det(mpmath.matrix(
            [[k(z, w) for w in pts] for z in pts]))))


@pytest.mark.parametrize("N, x", [(1024, 0.9), (900, 0.9), (1024, 0.85)])
def test_upsilon_at_droplet_edge_matches_mpmath(N, x):
    # b|w|^2 > 708: the Gaussian weight exp(-b|w|^2) alone underflows
    cfg = HoleConfig(w=(x, -x), N=N)
    assert upsilon(cfg) == pytest.approx(mp_upsilon(cfg.w, N), abs=1e-12)


hole = st.tuples(st.floats(0.0, 0.95), st.floats(0.0, 2 * math.pi)).map(
    lambda rt: complex(rt[0] * math.cos(rt[1]), rt[0] * math.sin(rt[1])))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(N=st.integers(1, 1024), holes=st.lists(hole, min_size=1, max_size=4, unique=True))
def test_kernel_matrix_hermitian_and_upsilon_in_unit_interval(N, holes):
    cfg = HoleConfig(w=tuple(holes), N=N)
    k = (math.pi / N) * kernel_matrix(cfg.spec, cfg.points(), cfg.points())
    assert np.max(np.abs(k - k.conj().T)) <= 1e-13
    diag = np.real(np.diag(k))
    assert np.all(np.abs(k) ** 2 <= np.outer(diag, diag) + 1e-13)  # Cauchy-Schwarz
    assert -1e-12 <= upsilon(cfg) <= 1.0 + 1e-12


def test_log_upsilon_refuses_rounding_noise():
    # Upsilon ~ 1 - exp(-N s^2) = N s^2 sinks into rounding below s ~ 1e-8,
    # and the fields refuse it by the same rule
    c = 0.1 + 0.05j
    for s in (1e-9, 1e-10):
        cfg = HoleConfig(w=(c, c + s), N=64)
        for fn in (log_upsilon, log_partition):
            with pytest.raises(SingularMatrixError):
                fn(cfg)
        for j in (0, 1):
            with pytest.raises(DegenerateConfigurationError, match="Upsilon / prod Q"):
                emergent_fields(64, [cfg.w], j)
    cfg = HoleConfig(w=(c, c + 1e-4), N=64)
    assert log_upsilon(cfg) == pytest.approx(math.log(mp_upsilon(cfg.w, 64)), abs=1e-8)


near = st.tuples(st.floats(-14.0, -1.0), st.floats(0.0, 2 * math.pi)).map(
    lambda ea: 10.0 ** ea[0] * complex(math.cos(ea[1]), math.sin(ea[1])))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(N=st.integers(1, 1024), holes=st.lists(hole, min_size=1, max_size=4, unique=True),
       offset=st.none() | near)
def test_log_upsilon_and_fields_refuse_the_same_rows(N, holes, offset):
    # one refusal rule: log Upsilon is refused exactly where the fields call
    # Upsilon / prod Q rounding noise, near-coincident pairs included
    if offset is not None and len(holes) > 1:
        holes[-1] = holes[0] + offset
    cfg = HoleConfig(w=tuple(holes), N=N)
    try:
        log_upsilon(cfg)
        refused = False
    except SingularMatrixError:
        refused = True
    try:
        emergent_fields(N, [cfg.w], 0)
        degenerate = False
    except DegenerateConfigurationError as err:
        degenerate = "Upsilon / prod Q" in str(err)
    assert refused == degenerate


wide = st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2 * math.pi)).map(
    lambda rt: complex(rt[0] * math.cos(rt[1]), rt[0] * math.sin(rt[1])))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(N=st.integers(1, 1024), holes=st.lists(wide, min_size=1, max_size=4, unique=True),
       offset=st.none() | near)
# the kernel diagonal underflows to denormals far outside the droplet, and
# numpy's determinant comes out NaN
@example(N=1024, holes=[1.808, 1.808 + 1e-8j, 1.42j, 0.725], offset=None)
# a near-singular kernel matrix, whose inverse overflows
@example(N=1024, holes=[0.06959865763466389 - 1.1158315405362287j,
                        0.06959865792041531 - 1.1158315402563248j,
                        -0.4093831259378029 - 0.15514965447536366j,
                        0.11271275670124109 - 0.2826712965117596j], offset=None)
def test_upsilon_and_fields_stay_in_range_without_warnings(N, holes, offset):
    # out to |w| = 2: Upsilon stays in [0, 1] and the fields are finite or
    # refused with a typed error, with no numpy warning on the way
    if offset is not None and len(holes) > 1:
        holes[-1] = holes[0] + offset
    cfg = HoleConfig(w=tuple(holes), N=N)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert -1e-12 <= upsilon(cfg) <= 1.0 + 1e-12
        for j in range(cfg.n):
            try:
                a_vec, v_val = emergent_fields(N, [cfg.w], j)
            except (DegenerateConfigurationError, SingularConfigurationError):
                continue
            assert np.all(np.isfinite(a_vec)) and np.all(np.isfinite(v_val))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(N=st.integers(2, 1024), holes=st.lists(hole, min_size=2, max_size=4, unique=True))
def test_schur_identity(N, holes):
    # Upsilon(w u z) = (pi/b) Upsilon(w) (K(z,z) - Theta(z|w)), with M = N + n
    # for both sides
    *w, z = holes
    cfg = HoleConfig(w=tuple(w), N=N)
    big = upsilon(HoleConfig(w=tuple(holes), N=N - 1, b=float(N)))
    kzz = kernel_eval(cfg.spec, z, z).to_complex().real
    try:
        rhs = (math.pi / N) * upsilon(cfg) * (kzz - theta(cfg, z))
    except SingularMatrixError:  # Upsilon(w) is rounding noise, and so is the left side
        rhs = 0.0
    assert big == pytest.approx(rhs, abs=1e-12)
