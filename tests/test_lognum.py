"""The log-domain value record LogComplex = exp(log_mag) exp(i phase)."""
import cmath
import math

import mpmath
import numpy as np
import pytest

import qhflux
from qhflux.kernel import KernelSpec, LogComplex, kernel_infty


def test_round_trip_moderate_scale():
    # log|v| and arg v of a double, rebuilt by to_complex, give v back
    rng = np.random.default_rng(1)
    for _ in range(300):
        v = complex(rng.normal(), rng.normal()) * math.exp(rng.uniform(-80, 80))
        lc = LogComplex(math.log(abs(v)), cmath.phase(v))
        assert abs(lc.to_complex() - v) <= 1e-14 * abs(v)


def test_round_trip_huge_scale():
    # to_complex is exp(log_mag) e^{i phase} to a few eps against 50 digits
    # for |log_mag| up to 700; past the overflow limit the value is infinite
    # without NaN
    eps = np.finfo(float).eps
    rng = np.random.default_rng(4)
    for log_mag, phase in zip(rng.uniform(-700, 700, 400),
                              rng.uniform(-math.pi, math.pi, 400)):
        got = LogComplex(float(log_mag), float(phase)).to_complex()
        with mpmath.workdps(50):
            ref = mpmath.exp(mpmath.mpf(log_mag)) * mpmath.expj(mpmath.mpf(phase))
            assert abs(mpmath.mpc(got) - ref) <= 4 * eps * abs(ref)
    for phase in (0.0, 1.0, -math.pi):
        big = LogComplex(710.0, phase).to_complex()
        assert cmath.isinf(big) and not cmath.isnan(big)


def test_phase_normalized():
    # kernel_infty's phase b Im(z wbar) = -706.56 comes back reduced to [-pi, pi]
    z, w = 0.9 + 0.3j, -0.5 + 0.6j
    val = kernel_infty(KernelSpec(b=1024.0, M=1), z, w)
    assert -math.pi <= val.phase <= math.pi
    assert cmath.exp(1j * val.phase) == pytest.approx(
        cmath.exp(1j * 1024.0 * (z * w.conjugate()).imag), abs=1e-12)


def test_zero_sentinel():
    zero = LogComplex(-math.inf, 0.0)
    assert zero.is_zero and zero.to_complex() == 0j
    assert not LogComplex(-745.0, 0.0).is_zero
    assert qhflux.LogComplex is LogComplex
