import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhflux.kernel import (KernelSpec, UnsupportedOrderError,
                           kernel_derivative, kernel_diff_log, kernel_eval, kernel_infty,
                           kernel_log_stack, kernel_matrix, kernel_tail_bound,
                           kernel_tail_bound_log, phi_rate, reproducing_residual,
                           weighted_orbitals)
from qhflux.partition import HoleConfig, SingularMatrixError, log_upsilon, upsilon
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
    a = kernel_derivative(spec, z, w, (0, 0, 0, 0))
    b_ = kernel_eval(spec, z, w).to_complex()
    assert a == pytest.approx(b_, rel=1e-13)


@pytest.mark.parametrize("order", [(0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0),
                                   (0, 0, 0, 1), (0, 1, 0, 1), (1, 1, 0, 0)])
def test_derivative_vs_finite_differences_truncated(order):
    spec = KernelSpec(b=16.0, M=18)  # N = 16 regime
    z, w = 0.35 + 0.22j, -0.4 + 0.15j
    exact = kernel_derivative(spec, z, w, order)
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
            exact = kernel_derivative(spec, z, w, order)
            fd = wirtinger_fd(lambda zz, ww: kernel_eval(spec, zz, ww).to_complex(),
                              z, w, order, h=1e-4)
            assert abs(exact - fd) <= 1e-5 * abs(exact)


def test_derivative_vs_finite_differences_infinite():
    spec = KernelSpec(b=16.0, M=18)
    z, w = 0.3 + 0.1j, 0.25 - 0.2j
    for order in [(0, 1, 0, 0), (0, 1, 1, 0), (0, 0, 0, 2)]:
        exact = kernel_derivative(spec, z, w, order, which="infinite")
        fd = wirtinger_fd(lambda zz, ww: kernel_infty(spec, zz, ww).to_complex(),
                          z, w, order, h=1e-4)
        assert abs(exact - fd) <= 1e-6 * max(abs(exact), 1.0)


def test_diagonal_derivative_of_infty_vanishes():
    # K_inf(z,z) is constant, so the full diagonal derivative is 0:
    # (d_z + d_zbar + d_w + d_wbar) K_inf at z = w
    spec = KernelSpec(b=8.0, M=1)
    z = 0.37 + 0.41j
    total = sum(kernel_derivative(spec, z, z, o, which="infinite")
                for o in [(0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)])
    assert abs(total) < 1e-9 * spec.b ** 2


def test_order_guard():
    spec = KernelSpec(b=4.0, M=6)
    with pytest.raises(UnsupportedOrderError):
        kernel_derivative(spec, 0.1, 0.2, (2, 1, 1, 1))
    with pytest.raises(UnsupportedOrderError):
        kernel_derivative(spec, 0.1, 0.2, (0, -1, 0, 0))


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
    diff, _ = kernel_log_stack(spec, z, w, (0, 0, 0, 0), "tail")
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


def test_matrix_path_matches_scalar_path():
    # b|w|^2 reaches 924 at |w| = 0.95: far past exp underflow of the Gaussian
    zs = np.array([0.9, -0.5 + 0.3j, 0.95j, 0.6 - 0.7j])
    ws = np.array([0.9, 0.93 * np.exp(0.4j), -0.5 + 0.31j])
    for b in (64, 256, 900, 1024):
        spec = KernelSpec(b=float(b), M=b + 2)
        for order in ORDERS_UP_TO_2:
            mat = kernel_matrix(spec, zs, ws, order)
            # plain-double fast path: absolute roundoff ~ eps * M * (b/pi) * b^|a|
            tol = 100 * spec.M * 2.3e-16 * (spec.b / math.pi) * spec.b ** sum(order)
            for i, z in enumerate(zs):
                for l, w in enumerate(ws):
                    ref = kernel_derivative(spec, z, w, order)
                    assert abs(mat[i, l] - ref) <= tol, (b, order)


def test_gram_matches_eval():
    spec = KernelSpec(b=24.0, M=26)
    pts = np.array([0.1 + 0.7j, -0.3 - 0.2j, 0.55])
    g = kernel_matrix(spec, pts, pts)
    for i, z in enumerate(pts):
        for l, w in enumerate(pts):
            ref = kernel_eval(spec, z, w).to_complex()
            assert abs(g[i, l] - ref) <= 1e-12 * (24.0 / math.pi)


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
    with pytest.raises(SingularMatrixError):
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
    log_mag, phase = kernel_log_stack(spec, zs, ws, order, which)
    for r, (z, w) in enumerate(zip(zs, ws)):
        one_mag, one_phase = kernel_log_stack(spec, [z], [w], order, which)
        assert one_mag[0].tobytes() == log_mag[r].tobytes(), (r, z, w)
        assert one_phase[0].tobytes() == phase[r].tobytes(), (r, z, w)


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
