import math
import sys
import threading
import warnings
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc

import qhflux
from helpers import log_upsilon_derivative_one_tracer, orbital_derivative
from qhflux import partition
from qhflux.kernel import kernel_eval
from qhflux.oracle.monomial import partition_exact
from qhflux.partition import (UPSILON_FLOOR, DegenerateConfigurationError, HoleConfig,
                              PartitionValue, SingularConfigurationError, _kernel_stack, cumulative_log_factorials, log_partition,
                              log_upsilon,
                              log_upsilon_derivative_stack, resolved_rows, theta,
                              theta_polarized, upsilon, upsilon_prediction, upsilon_stack)
from qhflux.potentials import emergent_field_derivative, emergent_field_stack, emergent_fields
from qhflux.quadrature import cartesian_grid


def seeded_config(rng, N, n, b=None, radius=0.7, min_sep=0.15):
    while True:
        pts = [complex(*p) for p in rng.uniform(-radius, radius, size=(n, 2))]
        ok = all(abs(pts[i] - pts[j]) >= min_sep
                 for i in range(n) for j in range(i + 1, n))
        if ok and all(abs(p) <= radius for p in pts):
            return HoleConfig(w=tuple(pts), N=N, b=b)


@pytest.mark.parametrize("m", [0, 1, 5, 100, 1100])
def test_cumulative_log_factorials_match_mpmath(m):
    with mpmath.workdps(40):
        ref = float(mpmath.fsum(mpmath.loggamma(k + 1) for k in range(1, m + 1)))
    assert abs(cumulative_log_factorials(m) - ref) <= 1e-13 * abs(ref)


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
    """Upsilon, d_j Upsilon and d_j dbar_j Upsilon of one configuration, from
    the log-derivatives: Upsilon dlog and Upsilon (ddlog + |dlog|^2)."""
    ups, dlog, ddlog, _ = log_upsilon_derivative_stack(cfg.b, cfg.spec.M, cfg.points()[None, :])
    ups, dlog, ddlog = float(ups[0]), complex(dlog[0, j]), float(ddlog[0, j])
    return ups, ups * dlog, complex(ups * (ddlog + abs(dlog) ** 2))


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
    from qhflux.kernel import LogComplex, kernel_log_orders
    w1, w2 = cfg.w

    def K(z, w, o=(0, 0, 0, 0)):
        (log_mag, phase), = kernel_log_orders(cfg.spec, [z], [w], [o], "truncated")
        return LogComplex(float(log_mag[0]), float(phase[0])).to_complex()

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
    kernel = _kernel_stack(cfg.b, cfg.spec.M, cfg.points()[None, :]).kernel
    assert not resolved_rows(kernel, np.array([ups]))[1][0]


def test_upsilon_derivative_stack_with_one_orbital():
    # M = 1: Upsilon = e^{-t} with t = b|w|^2, so d log Upsilon = -b wbar
    # and d dbar log Upsilon = -b
    b, w = 3.0, 0.3 + 0.2j
    ups, dlog, ddlog, _ = log_upsilon_derivative_stack(b, 1, [[w]])
    assert ups[0] == math.exp(-b * abs(w) ** 2)
    assert dlog[0, 0] == pytest.approx(-b * w.conjugate(), rel=1e-15)
    assert ddlog[0, 0] == pytest.approx(-b, rel=1e-15)


def test_upsilon_derivative_on_singular_matrix_raises():
    # distinct holes whose orbital rows agree to every bit: det is exactly 0
    cfg = HoleConfig(w=(0.3, 0.3 + 1e-300j), N=8)
    assert upsilon(cfg) == 0.0
    ups, d1, d11 = tracer_derivatives(cfg, 0)
    assert ups == 0.0 and math.isnan(d1.real) and math.isnan(d11.real)
    with pytest.raises(DegenerateConfigurationError, match="Upsilon / prod Q"):
        log_upsilon(cfg)
    with pytest.raises(DegenerateConfigurationError, match="Upsilon / prod Q"):
        emergent_fields(cfg.N, [cfg.w])


def test_holes_far_outside_droplet_are_singular():
    # every orbital entry of |w| = 5 at N = 64 underflows: the kernel matrix is 0
    cfg = HoleConfig(w=(5.0, -5.0), N=64)
    assert upsilon(cfg) == 0.0
    for fn in (log_upsilon, lambda c: theta(c, 0.3)):
        with pytest.raises(DegenerateConfigurationError, match="Upsilon / prod Q"):
            fn(cfg)
    assert qhflux.DegenerateConfigurationError is DegenerateConfigurationError


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


def test_theta_refuses_non_finite_points():
    cfg = HoleConfig(w=(0.3, -0.2j), N=8)
    for z, zeta in ((math.nan, 0.1), (0.1, complex(math.inf, 0.0))):
        with pytest.raises(ValueError, match="finite"):
            theta_polarized(cfg, zeta, z)
    with pytest.raises(ValueError, match="finite"):
        theta(cfg, complex(0.0, math.nan))


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
    assert upsilon_prediction(cfg) == 1.0
    s2 = 0.0625 ** 2
    pred = upsilon_prediction(cfg, pair=(0, 1))
    assert pred == pytest.approx(1 - math.exp(-256 * s2), rel=1e-12)
    far = HoleConfig(w=(0.0, 0.9), N=256)
    assert upsilon_prediction(far, pair=(0, 1)) == pytest.approx(1.0)


def test_coincident_rejections():
    cfg = HoleConfig(w=(0.1, 0.1), N=4)
    for fn in (log_partition, lambda c: theta(c, 0.3)):
        with pytest.raises(SingularConfigurationError):
            fn(cfg)


@pytest.mark.parametrize("kwargs", [dict(N=4.5), dict(N=0), dict(N=4, b=math.nan),
                                    dict(N=4, b=math.inf), dict(N=4, b=-math.inf),
                                    dict(N=4, b=0.0), dict(N=4, b=-2.0), dict(N=True)])
def test_hole_config_needs_integer_bath_and_finite_positive_b(kwargs):
    with pytest.raises(ValueError):
        HoleConfig(w=(0.1, 0.3j), **kwargs)
    assert HoleConfig(w=(0.1,), N=np.int64(4)).b == 4.0


@pytest.mark.parametrize("b, M, j", [(0.0, 66, 0), (-1.0, 66, 0), (math.nan, 66, 0),
                                     (math.inf, 66, 0), (64.0, 0, 0), (64.0, 2.5, 0),
                                     (64.0, 66, -1), (64.0, 66, 2), (64.0, 66, 0.5),
                                     (64.0, 66, True)])
def test_engine_refuses_bad_input_before_any_table(monkeypatch, b, M, j):
    # b and M follow KernelSpec, and the tracer of a per-tracer field is one
    # of 0..n-1: a ValueError before the memo is read or an orbital table
    # built
    def no_table(*args):
        raise AssertionError("orbital table built for a bad input")

    monkeypatch.setattr(partition, "weighted_orbitals", no_table)
    holes = [[0.1, 0.3j]]
    if j == 0:
        for call in (log_upsilon_derivative_stack, upsilon_stack):
            with pytest.raises(ValueError):
                call(b, M, holes)
    else:
        with pytest.raises(ValueError, match="tracer index"):
            emergent_field_derivative(HoleConfig(w=tuple(holes[0]), N=64), j)


def _memo_pool():
    """(N, b, M, holes) stacks that share holes across b, M and shape, with
    rows that are coincident, refused as rounding noise or merged deeply."""
    rng = np.random.default_rng(22)
    base = 0.8 * rng.uniform(-1, 1, (6, 3)) + 0.8j * rng.uniform(-1, 1, (6, 3))
    base[1, 1] = base[1, 0]                   # coincident
    base[2, 1] = base[2, 0] + 1e-12           # Upsilon rounding noise
    base[3, 1] = base[3, 0] + 1e-4j           # V rounding error over budget
    wide = 0.6 * rng.uniform(-1, 1, (3, 4)) + 0.6j * rng.uniform(-1, 1, (3, 4))
    # base[:4] and its (6, 2) reshape have the same bytes but not the same shape
    return [(64, 64.0, 67, base), (64, 64.0 / 3, 69, base), (64, 64.0, 69, base),
            (64, 64.0, 67, base[:4]), (64, 64.0, 67, base[:4].reshape(6, 2)),
            (64, 64.0, 67, base[:1]), (16, 16.0, 17, base[:1, :1]), (256, 256.0, 260, wide)]


def _memo_ops(entry):
    """Every result the memo feeds for one pool entry, as (label, thunk)."""
    N, b, M, holes = entry
    n = holes.shape[1]
    ops = [("ups", lambda: upsilon_stack(b, M, holes)),
           ("dlog", lambda: log_upsilon_derivative_stack(b, M, holes))]
    if b == N and M == N + n:
        ops += [("fields", lambda: emergent_field_stack(N, holes)),
                ("first-refusal", lambda: emergent_fields(N, holes))]
        # one-row stacks of the first four rows, refused tracers included
        for r, row in enumerate(holes[:4]):
            cfg = HoleConfig(w=tuple(row), N=N)
            ops += [(f"upsilon{r}", lambda cfg=cfg: upsilon(cfg))]
            ops += [(f"field{r},{j}", lambda cfg=cfg, j=j: emergent_field_derivative(cfg, j))
                    for j in range(n)]
    return ops


def _as_bytes(value):
    """A result as comparable bytes: arrays bit for bit, refusals by type and text."""
    if isinstance(value, Exception):
        return type(value).__name__, str(value)
    if isinstance(value, dict):
        return tuple((k, _as_bytes(v)) for k, v in value.items())
    if isinstance(value, tuple):
        return tuple(_as_bytes(v) for v in value)
    if hasattr(value, "A"):
        return _as_bytes((value.A, value.V))
    return np.asarray(value).tobytes()


def _run(thunk):
    try:
        return _as_bytes(thunk())
    except (SingularConfigurationError, DegenerateConfigurationError) as err:
        return _as_bytes(err)


_POOL = _memo_pool()
_OPS = [_memo_ops(entry) for entry in _POOL]
_COLD = {}


def _cold(e, k):
    """Result k of pool entry e, computed with the memo emptied first."""
    if (e, k) not in _COLD:
        partition._memo = None
        _COLD[e, k] = _run(_OPS[e][k][1])
    return _COLD[e, k]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(_POOL) - 1), st.integers(0, 99)),
                min_size=1, max_size=25))
def test_memo_results_equal_cold_results_bit_for_bit(calls):
    # Upsilon, dlog, ddlog, corr, A, V and the refusal dicts, in any
    # interleaving of b, M and holes, match a call on an empty memo
    calls = [(e, k % len(_OPS[e])) for e, k in calls]
    expected = [_cold(e, k) for e, k in calls]
    partition._memo = None
    for (e, k), want in zip(calls, expected):
        assert _run(_OPS[e][k][1]) == want, _OPS[e][k][0]


_POINT = st.complex_numbers(max_magnitude=1.4, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(N=st.sampled_from([1, 2, 8, 64, 256, 1024]), w=st.lists(_POINT, min_size=1, max_size=4))
@example(N=1024, w=[1.3, 0.2j, -1.1 + 0.5j])    # t = b|w|^2 past _T_NEAR: far rows
@example(N=64, w=[0.3, 0.3 + 1e-9, 0.3 + 1e-9j])
def test_derivative_rows_match_the_orbital_sum(N, w):
    # row j of d_j K in closed form from the kernel and the last orbital,
    # b wbar_c (K_jc - phi_{j,M-1} conj phi_{c,M-1}) - (b/2) wbar_j K_jc,
    # against the orbital sum d phi_j phi^H over an explicit d phi table
    b, M = float(N), N + len(w)
    holes = np.array([w], dtype=complex)
    f = _kernel_stack(b, M, holes)
    rows = partition._derivative_rows(b, holes, f.phi, f.kernel)[0]
    phi = f.phi[0]
    want = orbital_derivative(b, phi, holes[0]) @ phi.conj().T
    a = np.abs(holes[0])
    assert np.all(np.abs(rows - want) <= 1e-14 * b * (1.0 + a[:, None] + a[None, :]))


_STACK = st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(_POINT, min_size=n, max_size=n), min_size=1, max_size=4))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(N=st.sampled_from([1, 2, 8, 64, 256, 1024]), holes=_STACK,
       moves=st.lists(st.integers(0, 14), min_size=4, max_size=4))
@example(N=64, holes=[[0.3, 0.3]], moves=[0] * 4)                  # coincident: refused
@example(N=64, holes=[[0.1, 0.1 + 1e-10, 0.5j]], moves=[0] * 4)    # Upsilon rounding noise
@example(N=1024, holes=[[1.3, 0.2j], [0.05, 0.05 + 1e-4j]], moves=[0] * 4)
def test_every_tracer_in_one_pass_matches_the_one_tracer_formula(N, holes, moves):
    # the rank-two contractions of the all-tracer pass against the explicit
    # d_j K, dbar_j K and d_j dbar_j K of one tracer at a time, within the
    # rounding of their traces, with NaN on the same (refused) rows
    holes = np.array(holes, dtype=complex)
    n = holes.shape[1]
    if n > 1:
        # row r moves hole 1 to 10^-moves[r] from hole 0; 0 keeps it
        for r, e in enumerate(moves[:len(holes)]):
            if e:
                holes[r, 1] = holes[r, 0] + 10.0 ** -e * (0.6 + 0.8j)
    b, M = float(N), N + n
    dlog, ddlog = _kernel_stack(b, M, holes).jacobi
    for j in range(n):
        d_ref, dd_ref, mass, mass2 = log_upsilon_derivative_one_tracer(b, M, holes, j)
        assert np.array_equal(np.isnan(dlog[:, j]), np.isnan(d_ref))
        assert np.array_equal(np.isnan(ddlog[:, j]), np.isnan(dd_ref))
        ok = ~np.isnan(d_ref)
        assert np.all(np.abs(dlog[ok, j] - d_ref[ok]) <= 1e-14 * mass[ok])
        assert np.all(np.abs(ddlog[ok, j] - dd_ref[ok]) <= 1e-14 * mass2[ok])


def test_memo_arrays_are_read_only():
    holes = np.array([[0.3, -0.2 + 0.4j, 0.1j]])
    ups, dlog, ddlog, corr = log_upsilon_derivative_stack(64.0, 67, holes)
    factors = _kernel_stack(64.0, 67, holes)
    # every tracer's log-derivatives and fields are the memo's own arrays, not copies
    assert dlog is factors.jacobi[0] and ddlog is factors.jacobi[1]
    a_vec, v_val, _ = emergent_field_stack(64, holes)
    assert a_vec is factors.fields[0] and v_val is factors.fields[1]
    field = emergent_field_derivative(HoleConfig(w=tuple(holes[0]), N=64), 1)
    for cached in (ups, dlog, ddlog, corr, upsilon_stack(64.0, 67, holes), factors.w,
                   factors.phi, factors.kernel, factors.ups, factors.inverse,
                   factors.coincident, a_vec, a_vec.base, v_val, field.A):
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = 0.0


def test_memo_refusals_are_new_errors_on_every_call():
    # the memo keeps each refusal's type and message, never an error
    # object: a raised one would carry its traceback, and the frames in it,
    # in the memo and into the next raise
    holes = np.array([[0.3, 0.3, 0.1j], [0.1, 0.1 + 1e-12, 0.5j], [0.2, 0.2 + 1e-4j, -0.5]])
    first, second = emergent_field_stack(64, holes)[2], emergent_field_stack(64, holes)[2]
    assert first is not second and list(first) == list(second)
    assert [(type(e), str(e)) for e in first.values()] == \
        [(type(e), str(e)) for e in second.values()]
    assert all(first[k] is not second[k] and first[k].__traceback__ is None for k in first)
    assert {type(e) for e in first.values()} == {SingularConfigurationError,
                                                 DegenerateConfigurationError}
    raised = []
    for _ in range(2):
        for call in (lambda: emergent_fields(64, holes),
                     lambda: emergent_field_derivative(HoleConfig(w=tuple(holes[2]), N=64), 0)):
            with pytest.raises((SingularConfigurationError, DegenerateConfigurationError)) as err:
                call()
            raised.append(err.value)
    assert len({id(e) for e in raised}) == 4
    assert [str(e) for e in raised[:2]] == [str(e) for e in raised[2:]]


def test_memo_keeps_only_the_latest_stack(monkeypatch):
    monkeypatch.setattr(partition, "_memo", None)
    first, second = np.array([[0.3, 0.1j]]), np.array([[0.3, 0.2j]])
    upsilon_stack(64.0, 66, first)
    old = weakref.ref(partition._memo[1])
    released = []
    build = partition.weighted_orbitals

    def building(*args):
        released.append(old() is None)
        return build(*args)

    monkeypatch.setattr(partition, "weighted_orbitals", building)
    log_upsilon_derivative_stack(64.0, 66, second)
    assert released == [True]     # the old entry went before the new table
    key, _ = partition._memo
    assert key == (64.0, 66, second.shape, second.tobytes())


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.2, -math.inf)])
@pytest.mark.parametrize("tracer", [None, 0])
def test_stack_engine_refuses_non_finite_holes(monkeypatch, bad, tracer):
    # refused before the memo is read, with no numpy warning; the memo keeps
    # its entry
    monkeypatch.setattr(partition, "_memo", None)
    upsilon_stack(64.0, 66, np.array([[0.3, 0.1j]]))
    before = partition._memo
    holes = np.array([[bad, 0.1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="hole positions must be finite"):
            if tracer is None:
                upsilon_stack(64.0, 66, holes)
            else:
                log_upsilon_derivative_stack(64.0, 66, holes)[1][:, tracer]
    assert partition._memo is before


def test_memo_under_threads_returns_each_callers_own_stack(monkeypatch):
    # threads that share the memo on different holes each get the
    # factorisation of their own holes, never another thread's entry
    monkeypatch.setattr(partition, "_memo", None)
    stacks = [np.array([[0.3, 0.1j + 0.05 * k]]) for k in range(4)]
    want = [(upsilon_stack(64.0, 66, h).tobytes(), emergent_field_stack(64, h)[0].tobytes())
            for h in stacks]
    wrong = []

    def work(k):
        for _ in range(150):
            got = (log_upsilon_derivative_stack(64.0, 66, stacks[k])[0].tobytes(),
                   emergent_field_stack(64, stacks[k])[0].tobytes())
            if got != want[k]:
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(stacks))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_memo_is_read_once_per_call(monkeypatch):
    # a concurrent call may replace _memo between any two lines of
    # _kernel_stack; a trace hook does so at every line, so a second read of
    # _memo anywhere in the call would hand back another stack's entry
    monkeypatch.setattr(partition, "_memo", None)
    stacks = [np.array([[0.3, 0.1j + 0.05 * k]]) for k in range(3)]
    want, fields, entries = [], [], []
    for h in stacks:
        want.append(upsilon_stack(64.0, 66, h).tobytes())
        fields.append(emergent_field_stack(64, h)[0].tobytes())
        entries.append(partition._memo)
    code = partition._kernel_stack.__code__

    def swap(frame, event, arg):
        if event == "line":
            partition._memo = other
        return swap

    def hook(frame, event, arg):
        return swap if frame.f_code is code else None

    got = []
    previous = sys.gettrace()
    sys.settrace(hook)
    try:
        for k, h in enumerate(stacks):
            other = entries[(k + 1) % len(stacks)]
            got.append((upsilon_stack(64.0, 66, h).tobytes(),
                        log_upsilon_derivative_stack(64.0, 66, h)[0].tobytes(),
                        emergent_field_stack(64, h)[0].tobytes()))
    finally:
        sys.settrace(previous)
    assert got == [(w, w, a) for w, a in zip(want, fields)]


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
    k = _kernel_stack(cfg.b, cfg.spec.M, cfg.points()[None, :]).kernel[0]
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
            with pytest.raises(DegenerateConfigurationError, match="Upsilon / prod Q"):
                fn(cfg)
        refusals = emergent_field_stack(64, [cfg.w])[2]
        assert list(refusals) == [(0, 0), (0, 1)]
        for err in refusals.values():
            assert isinstance(err, DegenerateConfigurationError)
            assert "Upsilon / prod Q" in str(err)
    cfg = HoleConfig(w=(c, c + 1e-4), N=64)
    assert log_upsilon(cfg) == pytest.approx(math.log(mp_upsilon(cfg.w, 64)), abs=1e-8)


near = st.tuples(st.floats(-14.0, -1.0), st.floats(0.0, 2 * math.pi)).map(
    lambda ea: 10.0 ** ea[0] * complex(math.cos(ea[1]), math.sin(ea[1])))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(N=st.integers(1, 1024), holes=st.lists(hole, min_size=1, max_size=4, unique=True),
       offset=st.none() | near)
def test_log_upsilon_and_fields_refuse_the_same_rows(N, holes, offset):
    # one refusal rule: log Upsilon is refused exactly where the fields call
    # Upsilon / prod Q rounding noise, near-coincident pairs included, with
    # the same error type and message (the fields prefix the row)
    if offset is not None and len(holes) > 1:
        holes[-1] = holes[0] + offset
    cfg = HoleConfig(w=tuple(holes), N=N)

    def refusal(call):
        try:
            call()
        except (DegenerateConfigurationError, SingularConfigurationError) as err:
            return type(err), str(err).removeprefix("row 0: ")
        return None

    refused = refusal(lambda: log_upsilon(cfg))
    degenerate = refusal(lambda: emergent_fields(N, [cfg.w]))
    if degenerate is not None and degenerate[1].startswith("V rounding error"):
        degenerate = None    # the fields' own accuracy rule, which log Upsilon lacks
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
        a_vec, v_val, refusals = emergent_field_stack(N, [cfg.w])
    for j in range(cfg.n):
        if (0, j) in refusals:
            assert isinstance(refusals[0, j],
                              (DegenerateConfigurationError, SingularConfigurationError))
        else:
            assert np.all(np.isfinite(a_vec[0, j])) and math.isfinite(v_val[0, j])


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
    except DegenerateConfigurationError:  # Upsilon(w) is rounding noise, and so is the left side
        rhs = 0.0
    assert big == pytest.approx(rhs, abs=1e-12)


@pytest.mark.parametrize("b", [8.0, 64.0, 256.0, 1024.0])
def test_kernel_diagonal_is_regularized_gamma_and_refusals_match(b):
    # resolved_rows reads Q(M, b|w|^2) off the kernel diagonal, where it
    # once called gammaincc: the two agree wherever gammaincc is a normal
    # number, and the refusal verdicts agree row by row
    rng = np.random.default_rng(int(b))
    for M in (int(b), int(b) + 1, int(b) + 3):
        w = np.linspace(0.0, 1.4, 57) * np.exp(2j * np.pi * rng.uniform(size=57))
        q = _kernel_stack(b, M, w[:, None]).kernel[:, 0, 0].real
        ref = gammaincc(M, b * np.abs(w) ** 2)
        live = ref > 1e-290
        assert np.all(np.abs(q[live] - ref[live]) <= 1e-11 * ref[live])
        for n in (2, 3):
            # one hole at a centre, the others 1e-9 to 1 away from it
            centre = rng.uniform(-1.2, 1.2, (40, 1)) + 1j * rng.uniform(-1.2, 1.2, (40, 1))
            holes = centre + 10.0 ** rng.uniform(-9, 0, (40, n)) * np.exp(
                2j * np.pi * rng.uniform(size=(40, n)))
            holes[:, 0] = centre[:, 0]
            holes[0] = [1e8] + [0.3] * (n - 1) + np.arange(n) * 0.1j    # far outside
            factors = _kernel_stack(b, M, holes)
            kernel, ups = factors.kernel, factors.ups
            corr, resolved = resolved_rows(kernel, ups)
            q_old = np.prod(gammaincc(M, b * np.abs(holes) ** 2), axis=1)
            corr_old = np.divide(ups, q_old, out=np.zeros_like(ups), where=q_old > 0.0)
            assert np.array_equal(resolved, corr_old >= UPSILON_FLOOR * n)
            assert np.all(np.abs(corr - corr_old) <= 1e-11 * np.abs(corr_old))
            assert not resolved[0] and corr[0] == 0.0
            assert 0 < np.count_nonzero(resolved) < len(resolved)
