import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from qhflux.oracle.plasma import (PairLogCache, PlasmaConfig, dump_samples,
                                  integrated_autocorrelation_time, load_samples,
                                  log_density, plasma_mcmc, radial_density_l1)


def stack(samples):
    return np.concatenate([s.positions for s in samples])


def test_single_particle_gaussian_moment():
    # N = 1, b = 4: E|z|^2 = 1/b
    cfg = PlasmaConfig(N=1, b=4.0, sweeps=22000, burn_in=2000, thin=2, seed=3)
    samples, diag = plasma_mcmc(cfg)
    r2 = np.abs(stack(samples)) ** 2
    se = r2.std() / math.sqrt(len(r2) / 10.0)  # crude correlation inflation
    assert abs(r2.mean() - 0.25) < 3 * se
    assert 0.05 <= diag.acceptance_rate <= 0.95


def test_two_particle_moment():
    # N = 2, b = 2, mu = 1: per-particle E|z|^2 = (1 + 2)/(2 b) = 0.75
    cfg = PlasmaConfig(N=2, b=2.0, sweeps=42000, burn_in=2000, thin=2, seed=4)
    samples, _ = plasma_mcmc(cfg)
    r2 = np.abs(stack(samples)) ** 2
    se = r2.std() / math.sqrt(len(r2) / 10.0)
    assert abs(r2.mean() - 0.75) < 3 * se


def test_seed_reproducibility_bit_identical():
    cfg = PlasmaConfig(N=4, b=4.0, sweeps=300, burn_in=100, thin=5, seed=11)
    a, _ = plasma_mcmc(cfg)
    b, _ = plasma_mcmc(cfg)
    assert len(a) == len(b)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.positions, sb.positions)
        assert sa.log_density == sb.log_density


def test_move_ratio_consistent_with_density():
    cfg = PlasmaConfig(N=5, b=3.0, holes=(0.2 + 0.1j,), p=1, mu=2,
                       sweeps=10, burn_in=1, seed=7)
    rng = np.random.default_rng(0)
    z = rng.normal(size=5) + 1j * rng.normal(size=5)
    znew = 0.3 - 0.2j
    z2 = z.copy()
    z2[2] = znew
    direct = log_density(cfg, z2) - log_density(cfg, z)
    cache = PairLogCache(cfg, z)
    fast, row, h = cache.log_ratio(2, znew)
    assert fast == pytest.approx(direct, abs=1e-12)
    # reversing the accepted move negates the ratio
    cache.accept(2, znew, row, h)
    back, _, _ = cache.log_ratio(2, z[2])
    assert back == pytest.approx(-fast, abs=1e-12)


def test_coincident_proposal_rejected():
    cfg = PlasmaConfig(N=2, b=1.0, sweeps=4, burn_in=1, seed=0)
    z = np.array([0.1 + 0.1j, -0.2j])
    assert PairLogCache(cfg, z).log_ratio(0, z[1])[0] == -math.inf


def test_proposal_onto_a_hole_rejected_only_when_it_repels():
    z = np.array([0.1 + 0.1j, -0.2j, 0.3])
    w = 0.25 - 0.5j
    cfg = PlasmaConfig(N=3, b=2.0, holes=(w,), p=2, sweeps=4, burn_in=1)
    ratio, row, _ = PairLogCache(cfg, z).log_ratio(1, w)
    # no uniform draw has log u < -inf, so the loop never accepts it
    assert ratio == -math.inf and row is None
    # at p = 0 the hole exerts no force and the move is an ordinary one
    free = PlasmaConfig(N=3, b=2.0, holes=(w,), p=0, sweeps=4, burn_in=1)
    z2 = z.copy()
    z2[1] = w
    assert PairLogCache(free, z).log_ratio(1, w)[0] == pytest.approx(
        log_density(free, z2) - log_density(free, z), abs=1e-12)


point = st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)).map(lambda xy: complex(*xy))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(N=st.integers(1, 8), p=st.integers(0, 2), mu=st.integers(1, 3),
       holes=st.lists(point, max_size=3), seed=st.integers(0, 2 ** 32 - 1),
       moves=st.integers(1, 40))
def test_cached_ratio_matches_density_difference(N, p, mu, holes, seed, moves):
    cfg = PlasmaConfig(N=N, b=float(N), holes=tuple(holes), p=p, mu=mu,
                       sweeps=2, burn_in=1)
    rng = np.random.default_rng(seed)
    cache = PairLogCache(cfg, rng.normal(size=N) + 1j * rng.normal(size=N))
    for _ in range(moves):
        k = int(rng.integers(N))
        znew = cache.z[k] + complex(*rng.normal(scale=0.5, size=2))
        ratio, row, h = cache.log_ratio(k, znew)
        z = np.array(cache.z)
        z2 = z.copy()
        z2[k] = znew
        direct = log_density(cfg, z2) - log_density(cfg, z)
        assert abs(ratio - direct) <= 1e-10 * max(1.0, abs(direct))
        if rng.uniform() < 0.5:
            cache.accept(k, znew, row, h)
            assert cache.z[k] == znew


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.8])
def test_tau_int_of_ar1_series(rho):
    # x_t = rho x_{t-1} + e_t has tau_int = (1 + rho) / (1 - rho); Sokal's
    # relative standard error sqrt(2 (2W + 1) / n) is at most 0.021 here
    e = np.random.default_rng(17).normal(size=400_000)
    x = lfilter([1.0], [1.0, -rho], e)
    assert integrated_autocorrelation_time(x) == pytest.approx((1 + rho) / (1 - rho), rel=0.08)


def test_tau_int_undefined_without_variation():
    assert math.isnan(integrated_autocorrelation_time([1.0]))
    assert math.isnan(integrated_autocorrelation_time([2.0, 2.0, 2.0]))
    cfg = PlasmaConfig(N=3, b=3.0, sweeps=400, burn_in=100, thin=2, seed=2)
    _, diag = plasma_mcmc(cfg)
    assert math.isfinite(diag.tau_int) and diag.tau_int > 0


def test_radial_profile_small_run():
    cfg = PlasmaConfig(N=16, b=16.0, sweeps=21000, burn_in=1000, thin=4, seed=5)
    samples, _ = plasma_mcmc(cfg)
    assert radial_density_l1(cfg, samples) < 0.08


def test_tuning_warning():
    cfg = PlasmaConfig(N=2, b=2.0, sweeps=60, burn_in=30, thin=1,
                       proposal_scale=60.0, seed=1)
    with pytest.warns(RuntimeWarning):
        samples, diag = plasma_mcmc(cfg)
    assert diag.tuning_warning


def test_dump_round_trip(tmp_path):
    cfg = PlasmaConfig(N=3, b=3.0, sweeps=120, burn_in=20, thin=10, seed=9)
    samples, _ = plasma_mcmc(cfg)
    path = tmp_path / "chain.bin"
    dump_samples(path, cfg.N, samples)
    back = load_samples(path)
    assert len(back) == len(samples)
    for arr, s in zip(back, samples):
        assert np.array_equal(arr, s.positions)


def test_general_exponents_run():
    # exploratory general (p, mu) target: just verify the chain respects the
    # stated density
    cfg = PlasmaConfig(N=3, b=3.0, holes=(0.4,), p=2, mu=3,
                       sweeps=300, burn_in=100, thin=10, seed=13)
    samples, _ = plasma_mcmc(cfg)
    for s in samples[:3]:
        assert s.log_density == pytest.approx(log_density(cfg, s.positions), abs=1e-12)
