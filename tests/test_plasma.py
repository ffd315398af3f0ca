import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from helpers import metropolis_sweep
from qhflux.oracle import plasma
from qhflux.oracle.plasma import (PlasmaConfig, PlasmaSample, dump_samples, initial_positions,
                                  integrated_autocorrelation_time, load_samples,
                                  log_density, plasma_mcmc,
                                  radial_density_l1)


def stack(samples):
    return np.concatenate([s.positions for s in samples])


@pytest.mark.parametrize("bad", [
    dict(burn_in=-2000, sweeps=10), dict(burn_in=2.5), dict(sweeps=100.0), dict(thin=2.5),
    dict(thin=0), dict(N=2.5), dict(N=0), dict(b=math.inf), dict(b=math.nan), dict(b=-1.0),
    dict(proposal_scale=math.nan), dict(proposal_scale=math.inf), dict(proposal_scale=0.0),
    dict(p=math.nan), dict(p=math.inf), dict(p=-1), dict(mu=math.nan), dict(mu=0.5),
    dict(holes=(complex(math.nan, 0.0),)), dict(holes=(0.1, complex(0.0, math.inf))),
    dict(sweeps=5, burn_in=5), dict(seed=None), dict(seed=-1), dict(seed=2.5),
])
def test_config_rejects_bad_input(bad):
    with pytest.raises(ValueError):
        PlasmaConfig(**{**dict(N=4, b=4.0, sweeps=20, burn_in=5), **bad})


def test_config_keeps_real_exponents():
    cfg = PlasmaConfig(N=np.int64(3), b=3, holes=(0.2,), p=0.5, mu=2.5, sweeps=20, burn_in=0)
    assert cfg.proposal_scale == 1.0 / math.sqrt(3.0)


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


def one_move(cfg, z, k, znew, logu=-1e300):
    """Sweep in which only particle k can move (every other log u is +inf),
    to znew = z_k + steps[k]; returns the sweep's output."""
    steps = np.zeros(cfg.N, dtype=complex)
    steps[k] = znew - z[k]
    lu = np.full(cfg.N, math.inf)
    lu[k] = logu
    return metropolis_sweep(cfg, z, steps, lu)


def test_move_ratio_consistent_with_density():
    cfg = PlasmaConfig(N=5, b=3.0, holes=(0.2 + 0.1j,), p=1, mu=2,
                       sweeps=10, burn_in=1, seed=7)
    rng = np.random.default_rng(0)
    z = rng.normal(size=5) + 1j * rng.normal(size=5)
    znew = 0.3 - 0.2j
    after, accepted, ratios = one_move(cfg, z, 2, znew)
    z2 = z.copy()
    z2[2] = after[2]
    assert accepted == [False, False, True, False, False]
    assert np.array_equal(after, z2) and after[2] == pytest.approx(znew, abs=1e-15)
    direct = log_density(cfg, z2) - log_density(cfg, z)
    assert ratios[2] == pytest.approx(direct, abs=1e-12)
    # reversing the accepted move negates the ratio
    back = one_move(cfg, after, 2, z[2])[2][2]
    assert back == pytest.approx(-ratios[2], abs=1e-12)


def test_coincident_proposal_rejected():
    cfg = PlasmaConfig(N=2, b=1.0, sweeps=4, burn_in=1, seed=0)
    z = np.array([0.5 + 0.25j, -0.25j])   # dyadic, so z_0 + (z_1 - z_0) == z_1
    after, accepted, ratios = one_move(cfg, z, 0, z[1])
    assert ratios[0] == -math.inf and accepted == [False, False]
    assert np.array_equal(after, z)


def test_proposal_onto_a_moved_particle_rejected():
    # particle 0 moves first; particle 1 then proposes its new site
    cfg = PlasmaConfig(N=3, b=1.0, sweeps=4, burn_in=1, seed=0)
    z = np.array([0.5 + 0.25j, -0.25j, 0.75])
    steps = np.array([0.25, 0.75 + 0.5j, 0.0])   # z_1 + steps[1] == z_0 + steps[0]
    after, accepted, ratios = metropolis_sweep(cfg, z, steps, np.array([-1e300, -1e300, math.inf]))
    assert accepted == [True, False, False] and ratios[1] == -math.inf
    assert np.array_equal(after, [0.75 + 0.25j, -0.25j, 0.75])


@pytest.mark.parametrize("first_moves", [True, False])
def test_proposal_onto_a_vacated_site(first_moves):
    # particle 1 proposes z_0 exactly: a free site if particle 0 has moved
    # away earlier in the sweep, an occupied one if it has not
    cfg = PlasmaConfig(N=3, b=2.0, holes=(0.5j,), p=1, mu=2, sweeps=4, burn_in=1)
    z = np.array([0.5 + 0.25j, -0.25j, 0.75])
    steps = np.array([-0.25 + 0.5j, 0.5 + 0.5j, 0.0])
    lu0 = -1e300 if first_moves else math.inf
    after, accepted, ratios = metropolis_sweep(cfg, z, steps, np.array([lu0, -1e300, math.inf]))
    if first_moves:
        moved = np.array([0.25 + 0.75j, -0.25j, 0.75])
        landed = np.array([0.25 + 0.75j, 0.5 + 0.25j, 0.75])
        direct = log_density(cfg, landed) - log_density(cfg, moved)
        assert math.isfinite(ratios[1])
        assert ratios[1] == pytest.approx(direct, abs=1e-12)
        assert accepted == [True, True, False] and np.array_equal(after, landed)
    else:
        assert ratios[1] == -math.inf
        assert accepted == [False, False, False] and np.array_equal(after, z)


def test_proposal_onto_a_hole_rejected_only_when_it_repels():
    z = np.array([0.5 + 0.25j, -0.25j, 0.75])
    w = 0.25 - 0.5j
    cfg = PlasmaConfig(N=3, b=2.0, holes=(w,), p=2, sweeps=4, burn_in=1)
    after, accepted, ratios = one_move(cfg, z, 1, w)
    # no uniform draw has log u < -inf, so the sweep never accepts it
    assert ratios[1] == -math.inf and not accepted[1] and np.array_equal(after, z)
    # at p = 0 the hole exerts no force and the move is an ordinary one
    free = PlasmaConfig(N=3, b=2.0, holes=(w,), p=0, sweeps=4, burn_in=1)
    after, accepted, ratios = one_move(free, z, 1, w)
    assert accepted[1] and after[1] == w
    assert ratios[1] == pytest.approx(log_density(free, after) - log_density(free, z), abs=1e-12)


point = st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)).map(lambda xy: complex(*xy))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(N=st.integers(1, 8), p=st.integers(0, 2), mu=st.integers(1, 3),
       holes=st.lists(point, max_size=3), seed=st.integers(0, 2 ** 32 - 1),
       sweeps=st.integers(1, 5))
def test_sweep_ratios_match_density_differences(N, p, mu, holes, seed, sweeps):
    cfg = PlasmaConfig(N=N, b=float(N), holes=tuple(holes), p=p, mu=mu,
                       sweeps=2, burn_in=1)
    rng = np.random.default_rng(seed)
    z = rng.normal(size=N) + 1j * rng.normal(size=N)
    for _ in range(sweeps):
        steps = rng.normal(scale=0.5, size=N) + 1j * rng.normal(scale=0.5, size=N)
        logu = np.log(rng.uniform(size=N))
        after, accepted, ratios = metropolis_sweep(cfg, z, steps, logu)
        cur = z.copy()
        for k in range(N):
            moved = cur.copy()
            moved[k] = z[k] + steps[k]
            direct = log_density(cfg, moved) - log_density(cfg, cur)
            assert abs(ratios[k] - direct) <= 1e-10 * max(1.0, abs(direct))
            assert accepted[k] == (logu[k] < ratios[k])
            if accepted[k]:
                cur = moved
        assert np.array_equal(after, cur)
        z = after


def test_stacked_log_density_matches_rows():
    rng = np.random.default_rng(8)
    for cfg in (PlasmaConfig(N=1, b=1.0, sweeps=2, burn_in=1),
                PlasmaConfig(N=7, b=7.0, holes=(0.3 + 0.1j, -0.4j), p=2, mu=3, sweeps=2, burn_in=1),
                PlasmaConfig(N=16, b=16.0, sweeps=2, burn_in=1)):
        z = rng.normal(size=(50, cfg.N)) + 1j * rng.normal(size=(50, cfg.N))
        stacked = log_density(cfg, z)
        assert stacked.shape == (50,)
        rows = np.array([log_density(cfg, row) for row in z])
        assert np.all(np.abs(stacked - rows) <= 1e-13 * np.abs(rows))


def test_chain_is_a_loop_of_public_sweeps():
    # plasma_mcmc keeps one sweep state for the whole chain; the test
    # helper metropolis_sweep builds a fresh one per call, on the same draws
    cfg = PlasmaConfig(N=6, b=6.0, holes=(0.2 - 0.1j,), p=1, mu=2,
                       sweeps=400, burn_in=100, thin=7, seed=23)
    samples, diag = plasma_mcmc(cfg)
    rng = np.random.default_rng(np.random.PCG64(cfg.seed))
    z = initial_positions(cfg, rng)
    kept, accepted = [], 0
    for sweep, (steps, logu) in zip(range(cfg.sweeps), plasma._draws(cfg, rng)):
        z, flags, _ = metropolis_sweep(cfg, z, steps, logu)
        accepted += sum(flags)
        if sweep >= cfg.burn_in and (sweep - cfg.burn_in) % cfg.thin == 0:
            kept.append(z)
    assert diag.accepted == accepted and len(samples) == len(kept)
    for s, k in zip(samples, kept):
        assert np.array_equal(s.positions, k)


@pytest.mark.parametrize("N", [1, 3])
def test_draws_are_whole_generator_blocks(N):
    # block i is one normal((B, N, 2)) viewed as complex, then one
    # log(uniform((B, N))), straight from the chain's generator
    cfg = PlasmaConfig(N=N, b=2.0, sweeps=2, burn_in=1, proposal_scale=0.3, seed=31)
    draws = plasma._draws(cfg, np.random.default_rng(np.random.PCG64(cfg.seed)))
    ref = np.random.default_rng(np.random.PCG64(cfg.seed))
    B = plasma._DRAW_BLOCK
    for _ in range(2):
        xy = ref.normal(0.0, 0.3, size=(B, N, 2))
        logu = np.log(ref.uniform(size=(B, N)))
        for i in range(B):
            steps, lu = next(draws)
            assert steps.shape == lu.shape == (N,)
            assert np.array_equal(steps.real, xy[i, :, 0])
            assert np.array_equal(steps.imag, xy[i, :, 1])
            assert np.array_equal(lu, logu[i])


def test_chain_prefix_does_not_depend_on_its_length():
    # 130 sweeps end inside a draw block; the longer chain's first 130
    # sweeps read the same numbers
    short, long = (PlasmaConfig(N=4, b=4.0, holes=(0.1j,), sweeps=sweeps, burn_in=20,
                                thin=3, seed=6) for sweeps in (130, 300))
    assert short.sweeps % plasma._DRAW_BLOCK
    a, _ = plasma_mcmc(short)
    b, _ = plasma_mcmc(long)
    assert 0 < len(a) < len(b)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.positions, sb.positions)


def test_positions_are_not_views_of_the_sweep_buffer():
    cfg = PlasmaConfig(N=5, b=5.0, holes=(0.3,), sweeps=60, burn_in=0, thin=1, seed=4)
    sweep = plasma._Sweep(cfg)
    z = np.linspace(-0.5, 0.5, cfg.N) + 0.1j
    with np.errstate(divide="ignore", invalid="ignore"):
        first = sweep(z, np.full(cfg.N, 0.01), np.full(cfg.N, -1e300))[0]
        kept = first.copy()
        second = sweep(first, np.full(cfg.N, 0.02j), np.full(cfg.N, -1e300))[0]
    assert not np.shares_memory(first, sweep.pts) and not np.shares_memory(second, sweep.pts)
    assert np.array_equal(first, kept) and not np.array_equal(first, second)
    samples, _ = plasma_mcmc(cfg)
    assert not any(np.shares_memory(a.positions, b.positions)
                   for a, b in zip(samples, samples[1:]))


def reference_chain(cfg):
    """Plain per-move Metropolis on log_density differences, reading the
    same random numbers as plasma_mcmc (initial positions, then _draws)."""
    rng = np.random.default_rng(np.random.PCG64(cfg.seed))
    z = initial_positions(cfg, rng)
    kept, accepted = [], 0
    for sweep, (steps, logu) in zip(range(cfg.sweeps), plasma._draws(cfg, rng)):
        for k in range(cfg.N):
            moved = z.copy()
            moved[k] = z[k] + steps[k]
            if logu[k] < log_density(cfg, moved) - log_density(cfg, z):
                z = moved
                accepted += 1
        if sweep >= cfg.burn_in and (sweep - cfg.burn_in) % cfg.thin == 0:
            kept.append(z)
    return kept, accepted


@pytest.mark.parametrize("N", [1, 2, 5, 16])
@pytest.mark.parametrize("holes, p", [((), 1), ((0.3 + 0.1j, -0.4j), 0),
                                      ((0.3 + 0.1j, -0.4j), 1), ((0.3 + 0.1j, -0.4j), 2)],
                         ids=["no-holes", "holes-p0", "holes-p1", "holes-p2"])
@pytest.mark.parametrize("mu", [1, 3])
def test_chain_matches_reference_chain(N, holes, p, mu):
    cfg = PlasmaConfig(N=N, b=float(N), holes=holes, p=p, mu=mu,
                       sweeps=300, burn_in=100, thin=5, seed=N + 10 * p + mu)
    samples, diag = plasma_mcmc(cfg)
    kept, accepted = reference_chain(cfg)
    assert diag.accepted == accepted and diag.proposals == cfg.N * cfg.sweeps
    assert len(samples) == len(kept)
    for s, z in zip(samples, kept):
        assert np.array_equal(s.positions, z)


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


def test_dump_round_trip_keeps_every_bit(tmp_path):
    # a signed zero and an infinite part come back as written
    pos = np.array([complex(-0.0, 1.0), complex(0.5, math.inf)])
    path = tmp_path / "chain.bin"
    dump_samples(path, 2, [PlasmaSample(pos, 0.0)])
    (back,) = load_samples(path)
    assert back.tobytes() == pos.tobytes()


def test_dump_file_format(tmp_path):
    cfg = PlasmaConfig(N=3, b=3.0, sweeps=60, burn_in=20, thin=10, seed=9)
    samples, _ = plasma_mcmc(cfg)
    path = tmp_path / "chain.bin"
    dump_samples(path, cfg.N, samples)
    expected = struct.pack("<q", cfg.N)
    for s in samples:
        expected += struct.pack(f"<{2 * cfg.N}d", *[v for z in s.positions
                                                    for v in (z.real, z.imag)])
    assert len(samples) == 4 and path.read_bytes() == expected
    dump_samples(path, cfg.N, [])
    assert path.read_bytes() == struct.pack("<q", cfg.N)


def test_general_exponents_run():
    # exploratory general (p, mu) target: just verify the chain respects the
    # stated density
    cfg = PlasmaConfig(N=3, b=3.0, holes=(0.4,), p=2, mu=3,
                       sweeps=300, burn_in=100, thin=10, seed=13)
    samples, _ = plasma_mcmc(cfg)
    for s in samples[:3]:
        assert s.log_density == pytest.approx(log_density(cfg, s.positions), abs=1e-12)
