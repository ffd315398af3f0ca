import cmath
import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc, gammaln

from helpers import orbital_derivative, reproducing_residual
from qhflux.kernel import (_T_NEAR, KernelSpec, LogComplex, UnsupportedOrderError,
                           kernel_diff_log, kernel_eval, kernel_infty,
                           kernel_log_orders, kernel_tail_bound,
                           kernel_tail_bound_log, phi_rate, weighted_orbitals)
from qhflux.partition import DegenerateConfigurationError, HoleConfig, log_upsilon, upsilon
from qhflux.quadrature import cartesian_grid


def mp_kernel_log(b, M, z, w):
    """High-precision oracle: (log-magnitude, phase) of the truncated kernel."""
    with mpmath.workdps(60):
        x = mpmath.mpc(z) * mpmath.conj(mpmath.mpc(w))
        s = mpmath.mpf(0)
        for j in range(M):
            s += mpmath.mpf(b) ** (j + 1) / (mpmath.pi * mpmath.factorial(j)) * x ** j
        logmag = mpmath.log(abs(s)) \
            - mpmath.mpf(b) * (abs(mpmath.mpc(z)) ** 2 + abs(mpmath.mpc(w)) ** 2) / 2
        return float(logmag), float(mpmath.arg(s))


def kernel_value(spec, z, w, order, which="truncated"):
    """d^order of K_M or K_inf at one pair, as a complex number."""
    (log_mag, phase), = kernel_log_orders(spec, [z], [w], [order], which)
    return LogComplex(float(log_mag[0]), float(phase[0])).to_complex()


def mp_kernel(b, M, z, w):
    logmag, phase = mp_kernel_log(b, M, z, w)
    return math.exp(logmag) * complex(math.cos(phase), math.sin(phase))


def wirtinger_fd(f, z, w, order, h=1e-5):
    """Nested central finite differences for one Wirtinger derivative step."""
    a_zb, a_z, a_wb, a_w = order
    if a_zb:
        g = lambda zz, ww: (f(zz + h, ww) - f(zz - h, ww)
                            + 1j * (f(zz + 1j * h, ww) - f(zz - 1j * h, ww))) / (4 * h)
        return wirtinger_fd(g, z, w, (a_zb - 1, a_z, a_wb, a_w), h)
    if a_z:
        g = lambda zz, ww: (f(zz + h, ww) - f(zz - h, ww)
                            - 1j * (f(zz + 1j * h, ww) - f(zz - 1j * h, ww))) / (4 * h)
        return wirtinger_fd(g, z, w, (a_zb, a_z - 1, a_wb, a_w), h)
    if a_wb:
        g = lambda zz, ww: (f(zz, ww + h) - f(zz, ww - h)
                            + 1j * (f(zz, ww + 1j * h) - f(zz, ww - 1j * h))) / (4 * h)
        return wirtinger_fd(g, z, w, (a_zb, a_z, a_wb - 1, a_w), h)
    if a_w:
        g = lambda zz, ww: (f(zz, ww + h) - f(zz, ww - h)
                            - 1j * (f(zz, ww + 1j * h) - f(zz, ww - 1j * h))) / (4 * h)
        return wirtinger_fd(g, z, w, (a_zb, a_z, a_wb, a_w - 1), h)
    return f(z, w)


def test_origin_value():
    spec = KernelSpec(b=7.5, M=40)
    assert kernel_eval(spec, 0j, 0j).to_complex() == pytest.approx(7.5 / math.pi, rel=1e-14)


def test_against_mpmath_oracle():
    # tolerance scales with the series cancellation factor of the point;
    # all spec-domain uses sit well inside 1e-12 territory
    cases = [
        (4.0, 8, 0.5 + 0.2j, -0.3 + 0.1j, 1e-12),
        (16.0, 18, 0.9j, 0.8, 1e-12),
        (256.0, 260, 0.3 - 0.2j, 0.35 - 0.15j, 1e-12),
        (1024.0, 1100, 2.0, 1.8, 1e-12),
        (1024.0, 1100, 1.5 + 1.2j, 1.1 + 0.9j, 1e-12),
        (64.0, 66, 0.7 + 0.6j, 0.5 - 0.5j, 5e-12),
    ]
    for b, M, z, w, tol in cases:
        got = kernel_eval(KernelSpec(b, M), z, w)
        ref_logmag, ref_phase = mp_kernel_log(b, M, z, w)
        dphi = (got.phase - ref_phase) % (2 * math.pi)
        dphi = min(dphi, 2 * math.pi - dphi)
        rel = abs(math.exp(got.log_mag - ref_logmag) - 1.0) + dphi
        assert rel <= tol, (b, M, z, w, rel)


def test_cancelled_series_is_zero_or_accurate():
    # qhflux kernel --N 1024 --z 0.9+0.3i --w=-0.5+0.6i: the truncated sum
    # cancels to e^-47 of its term mass, below the rounding of ~1,000 term
    # phases, and used to print K_M = 9.6e-19-1.1e-18i for a true
    # -7.8e-25-8.7e-25i.  Noise is reported as zero, a value is accurate
    spec, z, w = KernelSpec(1024.0, 1024), 0.9 + 0.3j, -0.5 + 0.6j
    got = kernel_eval(spec, z, w)
    if not got.is_zero:
        assert got.to_complex() == pytest.approx(mp_kernel(1024.0, 1024, z, w), rel=1e-6, abs=0)


def test_cancelled_tail_is_zero_or_accurate():
    # the tail sum over j >= M = 1024 cancels to ~1e-50 of its term mass and
    # used to come out with log magnitude -41.6 for a true -141.5
    spec = KernelSpec(1024.0, 1024)
    z, w = 1.1532447356645956 - 0.697369969587003j, -0.8102755291459917 - 0.8511921013814814j
    got = kernel_diff_log(spec, z, w)
    if got.is_zero:
        return
    with mpmath.workdps(300):
        b, x = mpmath.mpf(spec.b), mpmath.mpc(z) * mpmath.conj(mpmath.mpc(w))
        term = b ** (spec.M + 1) / (mpmath.pi * mpmath.factorial(spec.M)) * x ** spec.M
        tail, j = mpmath.mpf(0), spec.M
        while j < b * abs(x) or abs(term) > mpmath.mpf(10) ** -80 * abs(tail):
            tail += term
            term *= b * x / (j + 1)
            j += 1
        ref = complex(tail * mpmath.exp(-b * (abs(mpmath.mpc(z)) ** 2 + abs(mpmath.mpc(w)) ** 2) / 2))
    assert got.to_complex() == pytest.approx(ref, rel=1e-6, abs=0)


def test_infinite_limit_modulus():
    # |K_inf(z,w)| = (b/pi) exp(-b|z-w|^2/2), checked at b=16, z=0.3, w=0.4
    spec = KernelSpec(b=16.0, M=1)
    val = kernel_infty(spec, 0.3, 0.4)
    expected = (16.0 / math.pi) * math.exp(-0.08)
    assert math.exp(val.log_mag) == pytest.approx(expected, rel=1e-14)
    # large truncation converges to it
    big = kernel_eval(KernelSpec(16.0, 400), 0.3, 0.4).to_complex()
    assert big == pytest.approx(expected, rel=1e-12)


def test_infty_formula_point():
    spec = KernelSpec(b=4.0, M=1)
    v = kernel_infty(spec, 0.5, 0j)
    assert v.to_complex() == pytest.approx((4.0 / math.pi) * math.exp(-0.5), rel=1e-14)
    assert v.phase == 0.0


@pytest.mark.parametrize("r", [1e6, 1e7, 1e8])
def test_infty_log_magnitude_far_out_does_not_cancel(r):
    # -b(|z|^2 + |w|^2)/2 + b Re(z wbar) cancels terms of size b r^2; the
    # log magnitude at z = w is log(b/pi) exactly, on both routes
    spec = KernelSpec(b=64.0, M=66)
    exact = math.log(64.0 / math.pi)
    assert abs(kernel_infty(spec, r, r).log_mag - exact) <= 1e-15
    (log_mag, phase), = kernel_log_orders(spec, [r, 1j * r], [r, 1j * r], [(0, 0, 0, 0)],
                                          "infinite")
    assert np.all(np.abs(log_mag - exact) <= 1e-15) and np.all(phase == 0.0)


def test_hermiticity():
    spec = KernelSpec(b=9.0, M=12)
    a = kernel_eval(spec, 0.4 + 0.3j, -0.2 + 0.6j).to_complex()
    b_ = kernel_eval(spec, -0.2 + 0.6j, 0.4 + 0.3j).to_complex()
    assert a == pytest.approx(b_.conjugate(), rel=1e-13)


def test_cauchy_schwarz_100_pairs():
    spec = KernelSpec(b=32.0, M=34)
    rng = np.random.default_rng(11)
    for _ in range(100):
        z, w = (complex(*p) for p in rng.uniform(-1, 1, size=(2, 2)))
        kzw = kernel_eval(spec, z, w)
        kzz = kernel_eval(spec, z, z)
        kww = kernel_eval(spec, w, w)
        assert 2 * kzw.log_mag <= kzz.log_mag + kww.log_mag + 1e-12


def test_diagonal_positive_and_bounded():
    rng = np.random.default_rng(12)
    spec = KernelSpec(b=48.0, M=50)
    for _ in range(50):
        z = complex(*rng.uniform(-1.2, 1.2, 2))
        v = kernel_eval(spec, z, z)
        assert v.phase == pytest.approx(0.0, abs=1e-12)
        assert v.log_mag <= math.log(48.0 / math.pi) + 1e-12


def test_circular_law_density():
    # pi K_M(z,z)/M -> 1 inside the droplet, b = M = 256
    spec = KernelSpec(b=256.0, M=256)
    rng = np.random.default_rng(13)
    zs = rng.uniform(-0.8, 0.8, size=(200, 2))
    zs = np.array([complex(*p) for p in zs if p[0] ** 2 + p[1] ** 2 <= 0.64])
    u = weighted_orbitals(spec.b, spec.M, zs)
    diag = np.sum(np.abs(u) ** 2, axis=1)
    assert np.max(np.abs(math.pi * diag / 256.0 - 1.0)) < 1e-3


def test_derivative_order_zero_equals_eval():
    spec = KernelSpec(b=20.0, M=25)
    z, w = 0.4 - 0.1j, 0.2 + 0.3j
    a = kernel_value(spec, z, w, (0, 0, 0, 0))
    b_ = kernel_eval(spec, z, w).to_complex()
    assert a == pytest.approx(b_, rel=1e-13)


@pytest.mark.parametrize("order", [(0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0),
                                   (0, 0, 0, 1), (0, 1, 0, 1), (1, 1, 0, 0)])
def test_derivative_vs_finite_differences_truncated(order):
    spec = KernelSpec(b=16.0, M=18)  # N = 16 regime
    z, w = 0.35 + 0.22j, -0.4 + 0.15j
    exact = kernel_value(spec, z, w, order)
    fd = wirtinger_fd(lambda zz, ww: kernel_eval(spec, zz, ww).to_complex(),
                      z, w, order, h=1e-4)
    assert abs(exact - fd) <= 1e-6 * max(abs(exact), 1.0)


def test_derivative_vs_finite_differences_at_n64():
    # invariant domain: |z|, |w| <= 0.9, N <= 64, 1e-5 relative; pairs kept
    # within a magnetic length so the derivative sits at its natural scale
    spec = KernelSpec(b=64.0, M=66)
    rng = np.random.default_rng(14)
    for _ in range(5):
        z = complex(*rng.uniform(-0.6, 0.6, 2))
        w = z + complex(*rng.uniform(-0.1, 0.1, 2))
        for order in [(0, 1, 0, 0), (0, 1, 0, 1)]:
            exact = kernel_value(spec, z, w, order)
            fd = wirtinger_fd(lambda zz, ww: kernel_eval(spec, zz, ww).to_complex(),
                              z, w, order, h=1e-4)
            assert abs(exact - fd) <= 1e-5 * abs(exact)


def test_derivative_vs_finite_differences_infinite():
    spec = KernelSpec(b=16.0, M=18)
    z, w = 0.3 + 0.1j, 0.25 - 0.2j
    for order in [(0, 1, 0, 0), (0, 1, 1, 0), (0, 0, 0, 2)]:
        exact = kernel_value(spec, z, w, order, which="infinite")
        fd = wirtinger_fd(lambda zz, ww: kernel_infty(spec, zz, ww).to_complex(),
                          z, w, order, h=1e-4)
        assert abs(exact - fd) <= 1e-6 * max(abs(exact), 1.0)


def test_diagonal_derivative_of_infty_vanishes():
    # K_inf(z,z) is constant, so the full diagonal derivative is 0:
    # (d_z + d_zbar + d_w + d_wbar) K_inf at z = w
    spec = KernelSpec(b=8.0, M=1)
    z = 0.37 + 0.41j
    total = sum(kernel_value(spec, z, z, o, which="infinite")
                for o in [(0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)])
    assert abs(total) < 1e-9 * spec.b ** 2


def test_order_guard():
    spec = KernelSpec(b=4.0, M=6)
    with pytest.raises(UnsupportedOrderError):
        kernel_log_orders(spec, [0.1], [0.2], [(2, 1, 1, 1)], "truncated")
    with pytest.raises(UnsupportedOrderError):
        kernel_log_orders(spec, [0.1], [0.2], [(0, -1, 0, 0)], "truncated")


def test_unevaluable_points_are_refused_by_row():
    spec = KernelSpec(b=64.0, M=66)
    ok = [0.1, 0.2j]
    for which in ("truncated", "infinite", "tail"):
        for bad in (math.nan, complex(0.0, math.inf), 1e160):   # 1e160: b|z|^2 overflows
            with pytest.raises(ValueError, match="row 2: .* finite b"):
                kernel_log_orders(spec, ok + [bad], ok + [0.3], [(0, 0, 0, 0)], which)
    with pytest.raises(ValueError, match="finite b"):
        kernel_infty(spec, 1e200, 0.1)
    # ~b|z wbar| = 6.4e201 terms: refused at once instead of summed
    with pytest.raises(ValueError, match="row 0: .* tail terms"):
        kernel_diff_log(spec, 1e100, 1e100)
    assert not kernel_diff_log(spec, 30.0, 30.0).is_zero    # 57,600 terms


def test_tail_bound_certifies_difference():
    # 1000 seeded pairs inside the kappa = 2 shrunk disk at N = 64
    N, n = 64, 2
    spec = KernelSpec(b=float(N), M=N + n)
    delta = 2.0 * math.sqrt(math.log(N) / N)
    rng = np.random.default_rng(21)
    pairs = []
    while len(pairs) < 1000:
        z, w = (complex(*p) for p in rng.uniform(-1, 1, size=(2, 2)))
        if abs(z) <= 1 - delta and abs(w) <= 1 - delta:
            pairs.append((z, w))
    z, w = np.array(pairs).T
    diff, _ = kernel_log_orders(spec, z, w, [(0, 0, 0, 0)], "tail")[0]
    assert np.all(diff <= kernel_tail_bound_log(spec, z, w) + 1e-9)


def test_tail_bound_origin_underflows():
    spec = KernelSpec(b=64.0, M=66)
    assert kernel_tail_bound(spec, 0j, 0j) == 0.0
    assert kernel_diff_log(spec, 0j, 0j).is_zero


def test_tail_bound_takes_arrays_and_refuses_outside_its_domain():
    spec = KernelSpec(b=64.0, M=66)
    zs, ws = np.array([0.3 + 0.1j, 0j, -0.5j]), np.array([0.2, 0.4, 0.9])
    got = kernel_tail_bound_log(spec, zs, ws)
    assert got.tolist() == [kernel_tail_bound_log(spec, z, w) for z, w in zip(zs, ws)]
    assert got[1] == -math.inf
    with pytest.raises(ValueError):
        kernel_tail_bound_log(spec, zs, np.array([0.2, 0.4, 2.1]))   # |z wbar| = 1.05
    with pytest.raises(ValueError):
        kernel_tail_bound_log(KernelSpec(b=64.0, M=60), zs, ws)


def test_tail_equals_direct_subtraction_when_representable():
    # At N = 8 near the droplet edge the difference is large enough to
    # compute by direct subtraction, cross-checking the tail-sum route.
    spec = KernelSpec(b=8.0, M=10)
    for z, w in [(0.9, 0.9), (0.8 + 0.3j, 0.85), (0.95j, 0.6 + 0.7j)]:
        tail = kernel_diff_log(spec, z, w).to_complex()
        direct = kernel_infty(spec, z, w).to_complex() - kernel_eval(spec, z, w).to_complex()
        assert abs(tail - direct) <= 1e-10 * abs(direct)


def test_tail_bound_vs_direct_tail_at_edge():
    N = 64
    spec = KernelSpec(b=float(N), M=N + 2)
    z = w = 0.9
    tail = kernel_diff_log(spec, z, w)
    bound = kernel_tail_bound(spec, z, w)
    measured = math.exp(tail.log_mag)
    assert 0.0 < measured <= bound
    assert bound < spec.b / math.pi  # far below the kernel scale


def test_phi_rate():
    assert phi_rate(1.0) == 0.0
    assert phi_rate(0.0) == math.inf
    assert phi_rate(0.25) == pytest.approx(0.25 - math.log(0.25) - 1.0)


def test_reproducing_identity():
    spec = KernelSpec(b=4.0, M=4)
    grid = cartesian_grid(1.0 + 8.0 / 2.0, order=80)
    assert reproducing_residual(spec, 0j, 0j, grid) < 1e-8
    assert reproducing_residual(spec, 0.4 + 0.2j, -0.3 + 0.5j, grid) < 1e-8


def test_trace_and_hilbert_schmidt():
    M = 16
    spec = KernelSpec(b=float(M), M=M)
    grid = cartesian_grid(1.0 + 8.0 / 4.0, order=90)
    u = weighted_orbitals(spec.b, spec.M, grid.nodes)
    gram = (u.conj() * grid.weights[:, None]).T @ u
    trace = np.trace(gram).real
    hs = np.sum(np.abs(gram) ** 2).real
    assert trace == pytest.approx(M, rel=1e-8)
    assert hs == pytest.approx(M, rel=1e-6)


ORDERS_UP_TO_2 = [o for o in itertools.product(range(3), repeat=4) if sum(o) <= 2]


def orbital_tables(b, M, pts):
    """{(p, q): d^p dbar^q phi_j(pts[i])} for p, q <= 1: production's orbital
    table, the d phi table of helpers.orbital_derivative, and dbar phi =
    -(b/2) z phi, d dbar phi = -(b/2) (phi + z d phi) by the identities the
    field engine relies on."""
    orb = weighted_orbitals(b, M, pts)
    d = orbital_derivative(b, orb, pts)
    z = np.asarray(pts, dtype=complex)[:, None]
    return {(0, 0): orb, (1, 0): d, (0, 1): -0.5 * b * z * orb,
            (1, 1): -0.5 * b * (orb + z * d)}


def test_matrix_path_matches_scalar_path():
    # b|w|^2 reaches 924 at |w| = 0.95: far past exp underflow of the Gaussian;
    # both sides share the points of a Gram matrix
    gram = [0.1 + 0.7j, -0.3 - 0.2j, 0.55]
    zs = np.array([0.9, -0.5 + 0.3j, 0.95j, 0.6 - 0.7j, *gram])
    ws = np.array([0.9, 0.93 * np.exp(0.4j), -0.5 + 0.31j, *gram])
    z_pairs, w_pairs = (a.ravel() for a in np.meshgrid(zs, ws, indexing="ij"))
    orders = list(itertools.product(range(2), repeat=4))
    for b in (24, 64, 256, 900, 1024):
        spec = KernelSpec(b=float(b), M=b + 2)
        z_side, w_side = orbital_tables(spec.b, spec.M, zs), orbital_tables(spec.b, spec.M, ws)
        stacked = kernel_log_orders(spec, z_pairs, w_pairs, orders, "truncated")
        # d/dw and d/dwbar reach conj(phi_j(w)) as conj(dbar phi_j) and
        # conj(d phi_j), so the w side's table is (wbar, w)
        for order, (log_mag, phase) in zip(orders, stacked):
            a_zbar, a_z, a_wbar, a_w = order
            mat = z_side[a_z, a_zbar] @ w_side[a_wbar, a_w].conj().T
            ref = (np.exp(log_mag) * np.exp(1j * phase)).reshape(mat.shape)
            # plain-double fast path: absolute roundoff ~ eps * M * (b/pi) * b^|a|
            tol = 100 * spec.M * 2.3e-16 * (spec.b / math.pi) * spec.b ** sum(order)
            assert np.max(np.abs(mat - ref)) <= tol, (b, order)


def test_orbitals_at_tiny_radius_are_finite():
    # |phi_j| = sqrt(b/pi) (sqrt(b)|z|)^j / sqrt(j!) e^{-b|z|^2/2}; below
    # b|z|^2 = 1e-280 only phi_0 is kept, down to a subnormal b|z|^2
    b = 6.0
    u = weighted_orbitals(b, 8, np.array([1e-135, 1e-150j, 6.5e-155, 1e-160 - 1e-160j]))
    assert np.all(np.isfinite(u))
    scale = math.sqrt(b / math.pi)
    ref = [scale * (math.sqrt(b) * 1e-135) ** j / math.sqrt(math.factorial(j)) for j in range(3)]
    assert np.allclose(np.abs(u[0, :3]), ref, rtol=1e-12, atol=0.0)
    assert np.allclose(np.abs(u[:, 0]), scale, rtol=1e-15, atol=0.0)
    assert np.all(np.abs(u[:, 1:]) <= scale * 1e-134)


def test_orbitals_far_outside_droplet_are_zero():
    # j/t rounds (j - t)/t to -1 near |z| = 1e8, and b|z|^2 overflows near
    # 1e154: both must give an all-zero row, not NaN
    u = weighted_orbitals(8.0, 10, np.array([1e8, -1e20j, 1e200 + 1e200j]))
    assert np.all(u == 0.0)
    cfg = HoleConfig(w=(0.1, 1e8), N=8)
    assert upsilon(cfg) == 0.0
    with pytest.raises(DegenerateConfigurationError):
        log_upsilon(cfg)


def _disk_point(radius, u, angle):
    return radius * math.sqrt(u) * complex(math.cos(angle), math.sin(angle))


_POINT = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(N=st.integers(1, 1024), dM=st.sampled_from([0, 2, 4]),
       order=st.sampled_from(ORDERS_UP_TO_2), which=st.sampled_from(["tail", "truncated"]),
       points=st.lists(st.tuples(_POINT, _POINT), min_size=1, max_size=6))
def test_stacked_rows_equal_single_calls(N, dM, order, which, points):
    # truncated sums reach |z wbar| = 1.2; tails stay inside |z|, |w| <= 0.95
    radius = math.sqrt(1.2) if which == "truncated" else 0.95
    zs = [_disk_point(radius, *p) for p, _ in points]
    ws = [_disk_point(radius, *q) for _, q in points]
    spec = KernelSpec(b=float(N), M=N + dM)
    log_mag, phase = kernel_log_orders(spec, zs, ws, [order], which)[0]
    for r, (z, w) in enumerate(zip(zs, ws)):
        one_mag, one_phase = kernel_log_orders(spec, [z], [w], [order], which)[0]
        assert one_mag[0].tobytes() == log_mag[r].tobytes(), (r, z, w)
        assert one_phase[0].tobytes() == phase[r].tobytes(), (r, z, w)


ORDERS_UP_TO_4 = [o for o in itertools.product(range(5), repeat=4) if sum(o) <= 4]
# x = z wbar = 0, and a row whose truncated sum at b = M = 1024 cancels below
# its rounding floor
_EDGE_ROWS = [(0j, 0.4 - 0.2j), (0.9 + 0.3j, -0.5 + 0.6j)]


@st.composite
def _specs(draw):
    b = draw(st.floats(1.0, 1024.0))
    return KernelSpec(b=b, M=draw(st.integers(1, int(b) + 4)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(spec=_specs(), which=st.sampled_from(["truncated", "infinite", "tail"]),
       orders=st.lists(st.sampled_from(ORDERS_UP_TO_4), min_size=1, max_size=8),
       points=st.lists(st.tuples(_POINT, _POINT), max_size=4))
@example(spec=KernelSpec(b=1024.0, M=1024), which="truncated",
         orders=[(0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0), (1, 1, 1, 1)], points=[])
def test_shared_series_equal_one_order_calls(spec, which, orders, points):
    rows = _EDGE_ROWS + [(_disk_point(1.0, *p), _disk_point(1.0, *q)) for p, q in points]
    zs, ws = [z for z, _ in rows], [w for _, w in rows]
    shared = kernel_log_orders(spec, zs, ws, orders, which)
    assert len(shared) == len(orders)
    for order, (log_mag, phase) in zip(orders, shared):
        one_mag, one_phase = kernel_log_orders(spec, zs, ws, [order], which)[0]
        assert np.array_equal(log_mag, one_mag), order
        assert np.array_equal(phase, one_phase), order


def test_cancelling_edge_row_is_zero():
    # the stacked property above sees a -inf row at its explicit example
    log_mag, _ = kernel_log_orders(KernelSpec(b=1024.0, M=1024), *zip(*_EDGE_ROWS),
                                   [(0, 0, 0, 0)], "truncated")[0]
    assert log_mag[1] == -np.inf


@pytest.mark.parametrize("bad", [(2, 1, 1, 1), (0, -1, 0, 0), (1, 0, 0)])
@pytest.mark.parametrize("at", [0, 2, 4])
def test_bad_order_anywhere_is_refused_before_any_series(monkeypatch, bad, at):
    from qhflux import kernel
    summed = []
    monkeypatch.setattr(kernel, "_series_stack", lambda *args: summed.append(args))
    orders = [(0, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0)]
    orders.insert(at, bad)
    for which in ("truncated", "infinite", "tail"):
        with pytest.raises(UnsupportedOrderError):
            kernel_log_orders(KernelSpec(b=8.0, M=10), [0.1], [0.2], orders, which)
    assert summed == []


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(orders=st.lists(st.sampled_from(ORDERS_UP_TO_4), min_size=1, max_size=8),
       M=st.integers(1, 6))
def test_one_summation_per_call(orders, M):
    # every S^(k) of a call comes from one summation; the infinite kernel
    # needs none
    from qhflux import kernel
    summed = []
    real = kernel._series_stack
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "_series_stack", lambda *args: summed.append(args) or real(*args))
        for which, calls in (("truncated", 1), ("tail", 1), ("infinite", 0)):
            summed.clear()
            kernel_log_orders(KernelSpec(b=8.0, M=M), [0.1, 0j], [0.2j, 0.3], orders, which)
            assert len(summed) == calls, which


def test_refused_points_raise_as_one_order_calls_do():
    spec = KernelSpec(b=64.0, M=66)
    orders = [(0, 0, 0, 0), (1, 0, 0, 1)]
    for which, zs, ws in (("truncated", [0.1, math.nan], [0.2, 0.3]),
                          ("infinite", [0.1, 0.2j, 1e160], [0.1, 0.2, 0.3]),
                          ("tail", [1e100], [1e100])):
        with pytest.raises(ValueError) as one:
            kernel_log_orders(spec, zs, ws, orders[:1], which)
        with pytest.raises(ValueError) as shared:
            kernel_log_orders(spec, zs, ws, orders, which)
        assert type(shared.value) is type(one.value)
        assert str(shared.value) == str(one.value)


def _mp_tail(N, M, z, w, d_z):
    """K_inf - K_M, or its d/dz, as a 50-digit term sum over j >= M."""
    with mpmath.workdps(50):
        b, z, w = mpmath.mpf(N), mpmath.mpc(z), mpmath.mpc(w)
        x = z * mpmath.conj(w)
        s = ds = mpmath.mpf(0)   # sum_j c_j x^j and sum_j c_j j x^(j-1)
        for j in itertools.count(M):
            c = b ** (j + 1) / (mpmath.pi * mpmath.factorial(j))
            s += c * x ** j
            ds += c * j * x ** (j - 1) if j else 0
            if x == 0 or (b * abs(x) / (j + 1) < 0.9
                          and c * (j + 1) * abs(x) ** (j - 1) < 1e-30 * (abs(s) + abs(ds))):
                break
        gauss = mpmath.exp(-b * (abs(z) ** 2 + abs(w) ** 2) / 2)
        if d_z:
            return gauss * (ds * mpmath.conj(w) - b * mpmath.conj(z) / 2 * s)
        return gauss * s


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(N=st.integers(1, 1024), dM=st.sampled_from([0, 2, 4]), d_z=st.booleans(),
       p=_POINT, q=_POINT)
def test_tail_matches_mpmath_term_sum(N, dM, d_z, p, q):
    z, w = _disk_point(0.95, *p), _disk_point(0.95, *q)
    got = kernel_diff_log(KernelSpec(b=float(N), M=N + dM), z, w, (0, int(d_z), 0, 0))
    exact = _mp_tail(N, N + dM, z, w, d_z)
    if exact == 0:
        assert got.is_zero
        return
    log_mag = float(mpmath.log(abs(exact)))
    dphase = abs((got.phase - float(mpmath.arg(exact)) + math.pi) % (2 * math.pi) - math.pi)
    tol = 1e-12 * max(1.0, abs(log_mag))
    assert abs(got.log_mag - log_mag) <= tol and dphase <= tol, (got, log_mag)


def _falling(a, m):
    """Integer coefficients, lowest power first, of the polynomial
    (j + a)(j + a - 1)...(j + a - m + 1) in j."""
    poly = [1]
    for i in range(m):
        poly = [s + (a - i) * p for s, p in zip([0] + poly, poly + [0])]
    return poly


def _mp_kernel_orders(N, M, z, w, orders, which):
    """d^order of K_M ("truncated") or K_inf - K_M ("tail") for each order,
    as 50-digit sums over j of the derivatives of each term
    c_j z^j wbar^j e^{-b(|z|^2 + |w|^2)/2}, c_j = b^{j+1}/(pi j!), b = N:
    no range shift and no symbolic expansion of the kernel code."""
    with mpmath.workdps(50):
        b, z, wb = mpmath.mpf(N), mpmath.mpc(z), mpmath.conj(mpmath.mpc(w))
        x = z * wb

        # d_u^c d_ubar^a (u^j e^{-b u ubar/2}) is e^{-b u ubar/2} times the
        # sum over m <= c of coef (j + a)!/(j + a - m)! u^(j+a-m), coef =
        # C(c, m) (-b/2)^a (-b ubar/2)^(c-m); w's side is wbar^j
        # e^{-b w wbar/2}, where d_w is d_ubar for u = wbar
        def side(u, a, c):
            return [(math.comb(c, m) * (-b / 2) ** a * (-b * mpmath.conj(u) / 2) ** (c - m),
                     a - m, _falling(a, m)) for m in range(c + 1)]

        def at(poly, j):
            return sum(p * j ** n for n, p in enumerate(poly))

        sides = [(side(z, a_zbar, a_z), side(wb, a_w, a_wbar))
                 for a_zbar, a_z, a_wbar, a_w in orders]
        start, stop = (0, M) if which == "truncated" else (M, math.inf)
        gauss = mpmath.exp(-b * (abs(z) ** 2 + abs(wb) ** 2) / 2)
        if x == 0:
            # u^(j + a - m) vanishes for j > 4 on the zero side
            out = []
            for zs, ws in sides:
                total = mpmath.mpc(0)
                for j in range(start, min(stop, 9)):
                    total += b ** (j + 1) / (mpmath.pi * mpmath.factorial(j)) * (
                        sum(k * at(f, j) * z ** (j + p) for k, p, f in zs if j + p >= 0)
                        * sum(k * at(f, j) * wb ** (j + p) for k, p, f in ws if j + p >= 0))
                out.append(total * gauss)
            return out
        # a term is c_j x^j times a polynomial of degree <= 4 in j: sum the
        # moments sum_j c_j x^j j^n once for every order
        moments = [mpmath.mpc(0)] * 5
        j, t = start, b ** (start + 1) / (mpmath.pi * mpmath.factorial(start)) * x ** start
        while j < stop:
            for n in range(5):
                moments[n] += t * j ** n
            if (stop == math.inf and b * abs(x) / (j + 1) < 0.9
                    and abs(t) * (j + 4) ** 4 < 1e-40 * abs(moments[0])):
                break
            j, t = j + 1, t * b * x / (j + 1)
        out = []
        for zs, ws in sides:
            total = mpmath.mpc(0)
            for kz, pz, fz in zs:
                for kw, pw, fw in ws:
                    poly = [sum(fz[i] * fw[n - i] for i in range(len(fz)) if 0 <= n - i < len(fw))
                            for n in range(len(fz) + len(fw) - 1)]
                    total += kz * kw * z ** pz * wb ** pw * sum(
                        p * moments[n] for n, p in enumerate(poly))
            out.append(total * gauss)
        return out


# orders whose expansion reaches S^(4), S^(2) and S^(3)
_SHIFT_ORDERS = [(0, 2, 2, 0), (1, 1, 1, 1), (0, 0, 3, 0)]


@pytest.mark.parametrize("N", [1, 8, 64, 1024])
def test_shifted_series_match_mpmath_term_sum(N):
    # x = 0 rows; an aligned pair, x > 0, whose series cancels nowhere and,
    # at N = 1024, rescales mid-sum; a short series; and, for tails with
    # M >= N, a pair at an angle, whose tail terms fall from j = M
    rows = [(0j, 0.3 + 0.2j), (0.25 - 0.1j, 0j), (0.9 * cmath.exp(0.7j), 0.8 * cmath.exp(0.7j)),
            (0.05 + 0.03j, 0.04 + 0.01j)]
    for M in sorted({1, 2, 3, 4, N, N + 2}):
        for which in ("tail", "truncated"):
            pairs = rows + [(0.8 * cmath.exp(0.7j), 0.9 * cmath.exp(-1.1j))] * (
                which == "tail" and M >= N)
            got = kernel_log_orders(KernelSpec(b=float(N), M=M), *zip(*pairs),
                                    _SHIFT_ORDERS, which)
            for r, (z, w) in enumerate(pairs):
                exact = _mp_kernel_orders(N, M, z, w, _SHIFT_ORDERS, which)
                for order, (log_mag, phase), value in zip(_SHIFT_ORDERS, got, exact):
                    case = (M, which, order, z, w)
                    if value == 0:
                        assert log_mag[r] == -np.inf, case
                        continue
                    want = float(mpmath.log(abs(value)))
                    dphase = abs((phase[r] - float(mpmath.arg(value)) + math.pi)
                                 % (2 * math.pi) - math.pi)
                    tol = 1e-12 * max(1.0, abs(want))
                    assert abs(log_mag[r] - want) <= tol and dphase <= tol, (case, log_mag[r], want)


def test_stirling_table_is_the_gammaln_expression():
    # _log_poisson reads stirlerr(k), k <= 15, from a table; it must hold the
    # very doubles the gammaln expression gives, so that the mode anchors of
    # weighted_orbitals' rows equal those of the gammaln expression
    from qhflux.kernel import _STIRLERR
    k = np.arange(1, 16, dtype=float)
    expr = gammaln(k + 1) - (k + 0.5) * np.log(k) + k - 0.5 * math.log(2 * math.pi)
    assert _STIRLERR.tobytes() == expr.tobytes()


@pytest.mark.parametrize("M", [1, 2, 16, 17, 68, 1100])
def test_log_poisson_table_gives_the_pointwise_expression(M):
    # the per-M table of stirlerr(j) and log(2 pi j)/2 holds the doubles the
    # per-point expression gives, so the saddle-point values are unchanged
    from qhflux.kernel import _STIRLERR, _log_poisson, _stirling_terms
    rng = np.random.default_rng(M)
    t = np.concatenate([[0.0, 5e-324, 1e-300, 0.5, M - 1.0, 1e300],
                        rng.uniform(0.0, 2.0 * M, 200)])
    j = np.fmin(np.floor(t), M - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        jj = np.maximum(j, 1.0)
        inv2 = 1.0 / jj ** 2
        series = (1 / 12 - inv2 * (1 / 360 - inv2 * (1 / 1260 - inv2 * (1 / 1680 - inv2 / 1188)))) / jj
        stirlerr = np.where(jj > 15, series, _STIRLERR[np.minimum(jj, 15).astype(int) - 1])
        d = (j - t) / t
        bd0 = t * (np.where(d > -1.0, (1.0 + d) * np.log1p(d), 0.0) - d)
        want = np.where(j == 0, -t, -stirlerr - bd0 - 0.5 * np.log(2 * math.pi * jj))
    assert _log_poisson(j, t, M).tobytes() == want.tobytes()
    assert all(not terms.flags.writeable for terms in _stirling_terms(M))


_EPS = np.finfo(float).eps


def _mp_orbitals(b, M, z):
    """phi_j(z), j < M, as 40-digit mpmath numbers, by the exact recurrence."""
    with mpmath.workdps(40):
        b, z = mpmath.mpf(b), mpmath.mpc(z)
        phi = [mpmath.sqrt(b / mpmath.pi) * mpmath.exp(-b * abs(z) ** 2 / 2)]
        for j in range(1, M):
            phi.append(phi[-1] * z * mpmath.sqrt(b / j))
        return phi


def _assert_orbitals_match_mpmath(b, M, z, row):
    # magnitudes are good to eps |j - t|, from the rounding of t = b|z|^2
    # (with j* = floor(t) inside the droplet, |j - t| <= 1 + |j - j*|);
    # phases to eps (j + |j - j*|), from the rounding of arg z carried to
    # the mode and one step of the recurrence per orbital away from it
    t = b * abs(z) ** 2
    mode = min(math.floor(t), M - 1)
    for j, exact in enumerate(_mp_orbitals(b, M, z)):
        if abs(exact) > 1e-290:
            ref = complex(exact)
            mag_err = abs(abs(row[j]) / abs(ref) - 1.0)
            phase_err = abs(np.angle(row[j] / ref))
            assert mag_err <= 8 * _EPS * (1 + abs(j - t)), (j, mag_err)
            assert phase_err <= 8 * _EPS * (1 + j + abs(j - mode)), (j, phase_err)
        elif abs(exact) < 2.0 ** -1076:
            # a factor 2 below what rounds to the least subnormal
            assert row[j] == 0, (j, row[j])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(N=st.integers(1, 1024), dM=st.sampled_from([0, 2, 4]),
       points=st.lists(st.tuples(st.floats(0.0, 2.5), st.floats(0.0, 2 * math.pi)),
                       min_size=1, max_size=3))
def test_orbitals_match_mpmath(N, dM, points):
    # |z| up to 2.5 puts rows past b|z|^2 = _T_NEAR once N >= 227
    b, M = float(N), N + dM
    zs = np.array([r * complex(math.cos(a), math.sin(a)) for r, a in points])
    u = weighted_orbitals(b, M, zs)
    for z, row in zip(zs, u):
        _assert_orbitals_match_mpmath(b, M, z, row)
        # sum_j (pi/b) |phi_j|^2 is the Poisson mass below M
        mass = math.pi / b * float(np.sum(np.abs(row) ** 2))
        assert abs(mass - gammaincc(M, b * abs(z) ** 2)) <= 1e-13


def test_far_rows_recur_both_ways_from_the_mode():
    # b = 1500 with M = 1600 puts the mode of |z| near 1 (t = 1500 to 1513)
    # below M - 1: the row recurs down to j = 0 and up to j = M - 1 from it
    b, M = 1500.0, 1600
    for z in (1.0, -0.7 + 0.72j):
        assert b * abs(z) ** 2 > _T_NEAR and math.floor(b * abs(z) ** 2) < M - 1
        _assert_orbitals_match_mpmath(b, M, z, weighted_orbitals(b, M, np.array([z]))[0])


def test_stacked_orbitals_equal_single_point_calls():
    # row r depends on point r alone, to the bit, near and far rows mixed
    rng = np.random.default_rng(18)
    for b, M in ((32.0, 36), (1024.0, 1028)):
        zs = 2.5 * np.sqrt(rng.uniform(size=40)) * np.exp(2j * math.pi * rng.uniform(size=40))
        zs[:3] = (0.0, 1e-160, 1.2e3)
        near = b * np.abs(zs) ** 2 <= _T_NEAR
        assert near.any() and not near.all()
        u = weighted_orbitals(b, M, zs)
        for r, z in enumerate(zs):
            assert u[r].tobytes() == weighted_orbitals(b, M, np.array([z]))[0].tobytes(), r


def test_orbital_edge_cases_are_finite_and_quiet():
    # t = b at z = 1, so b steps over the start threshold ulp by ulp
    edges = [np.nextafter(_T_NEAR, 0.0), _T_NEAR, np.nextafter(_T_NEAR, math.inf)]
    cases = [(6.0, 8, [0.0, 1e-160, 1e200]), (6.0, 1, [0.0, 0.7, 1e-160, 1e200])]
    cases += [(b, M, [1.0, -1j]) for b in edges for M in (1, 40, 1500)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for b, M, zs in cases:
            u = weighted_orbitals(b, M, np.array(zs, dtype=complex))
            assert u.shape == (len(zs), M) and np.all(np.isfinite(u)), (b, M)
    for b in edges:
        for M in (40, 1500):
            _assert_orbitals_match_mpmath(b, M, 1.0, weighted_orbitals(b, M, np.array([1.0]))[0])
    assert np.array_equal(weighted_orbitals(6.0, 1, np.array([0.0])), [[math.sqrt(6.0 / math.pi)]])


@pytest.mark.parametrize("b, M", [(math.nan, 4), (math.inf, 4), (-math.inf, 4), (0.0, 4),
                                  (-1.0, 4), (4.0, 0), (4.0, 4.0), (4.0, 2.5)])
def test_kernel_spec_needs_finite_positive_b_and_integer_m(b, M):
    with pytest.raises(ValueError):
        KernelSpec(b, M)
    KernelSpec(4.0, np.int64(4))
