import math

import numpy as np

from qhflux.lognum import LogComplex


def test_round_trip_moderate_scale():
    rng = np.random.default_rng(1)
    for _ in range(300):
        v = complex(rng.normal(), rng.normal()) * math.exp(rng.uniform(-80, 80))
        lc = LogComplex.from_complex(v)
        assert abs(lc.to_complex() - v) <= 1e-14 * abs(v)


def test_round_trip_huge_scale():
    # beyond |log_mag| ~ 90 the double storing log_mag quantizes at
    # ulp(log_mag)/2, which is the irreducible relative floor of the value
    eps = 2.220446049250313e-16
    rng = np.random.default_rng(2)
    for _ in range(300):
        v = complex(rng.normal(), rng.normal()) * math.exp(rng.uniform(-690, 690))
        lc = LogComplex.from_complex(v)
        tol = max(1e-14, eps * abs(lc.log_mag))
        assert abs(lc.to_complex() - v) <= tol * abs(v)


def test_log_representation_round_trip_is_tight():
    # LogComplex -> complex -> LogComplex moves log_mag by at most ~1e-15
    rng = np.random.default_rng(3)
    for _ in range(300):
        lc = LogComplex(rng.uniform(-690, 690), rng.uniform(-3.1, 3.1))
        back = LogComplex.from_complex(lc.to_complex())
        assert abs(back.log_mag - lc.log_mag) < 2e-15 * max(1.0, abs(lc.log_mag))
        assert abs(back.phase - lc.phase) < 1e-13


def test_phase_normalized():
    assert -math.pi < LogComplex(0.0, 7.0).phase <= math.pi
    assert LogComplex.from_complex(-2.0).phase == math.pi


def test_zero_sentinel():
    z = LogComplex.zero()
    assert z.is_zero
    assert z.to_complex() == 0
