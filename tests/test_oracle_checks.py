import math

import numpy as np
import pytest

from helpers import ginibre_samples
from qhflux.kernel import KernelSpec, kernel_eval
from qhflux.oracle import charpoly
from qhflux.oracle.charpoly import (PrecisionError, charpoly_moment_mc, exact_log_ratio,
                                    ginibre_matrices)
from qhflux.oracle.delta import bath_integral, delta_apply, delta_check
from qhflux.oracle.energy import GaussianPacket, energy_identity_check
from qhflux.oracle.monomial import gaussian_pair_integral
from qhflux.oracle.plasma import PlasmaConfig
from qhflux.oracle.slater import slater_density, slater_density_brute
from qhflux.partition import HoleConfig


def test_charpoly_single_gaussian_point():
    # N = 1, b = 1, w = 0.7: exact E|w - z|^2 = |w|^2 + 1/b = 1.49
    cfg = HoleConfig(w=(0.7,), N=1, b=1.0)
    assert exact_log_ratio(cfg) == pytest.approx(math.log(1.49), abs=1e-12)
    mcmc = PlasmaConfig(N=1, b=1.0, sweeps=41000, burn_in=1000, thin=4, seed=21)
    est = charpoly_moment_mc(cfg, mcmc)
    assert abs(est.z_score) < 3.0
    assert est.n_effective >= 100


def test_charpoly_requires_matching_chain():
    cfg = HoleConfig(w=(0.3,), N=2, b=2.0)
    with pytest.raises(ValueError):
        charpoly_moment_mc(cfg, PlasmaConfig(N=3, b=2.0, sweeps=200, burn_in=10))
    with pytest.raises(ValueError):
        charpoly_moment_mc(cfg, PlasmaConfig(N=2, b=2.0, holes=(0.3,),
                                             sweeps=200, burn_in=10))


def test_charpoly_precision_guard():
    cfg = HoleConfig(w=(0.4,), N=2, b=2.0)
    mcmc = PlasmaConfig(N=2, b=2.0, sweeps=300, burn_in=100, thin=50, seed=2)
    with pytest.raises(PrecisionError):
        charpoly_moment_mc(cfg, mcmc)


def test_ginibre_draws_match_plasma_one_point_law():
    # with no holes and mu = 1 the plasma is determinantal with orbitals
    # z^k, k < N, so mean |z|^2 = (1/N) sum_k (k+1)/b = (N+1)/(2b)
    N, b, count = 8, 8.0, 4000
    z = ginibre_samples(N, b, count, seed=5)
    assert z.shape == (count, N)
    per_sample = np.mean(np.abs(z) ** 2, axis=1)
    se = per_sample.std(ddof=1) / math.sqrt(count)
    assert abs(per_sample.mean() - (N + 1) / (2 * b)) < 5 * se


def test_determinant_weights_match_eigenvalue_products():
    # prod_k |w - z_k|^2 = |det(w - A)|^2 for the eigenvalues z_k of A
    N, b, count = 8, 8.0, 500
    g = ginibre_matrices(N, b, count, seed=3)
    z = ginibre_samples(N, b, count, seed=3)
    assert np.array_equal(z, np.linalg.eigvals(g))
    for w in (0.55 + 0.1j, -0.35 + 0.3j, 1.7):
        from_eigs = 2.0 * np.sum(np.log(np.abs(w - z)), axis=1)
        from_dets = 2.0 * np.linalg.slogdet(w * np.eye(N) - g)[1]
        assert np.all(np.abs(from_dets - from_eigs) <= 1e-12 * np.maximum(1.0, np.abs(from_eigs)))


def test_charpoly_takes_no_eigenvalues(monkeypatch):
    def eigvals(a):
        raise AssertionError("the estimator's weights come from determinants")

    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    cfg = HoleConfig(w=(0.55 + 0.1j, -0.35 + 0.3j), N=8, b=8.0)
    est = charpoly_moment_mc(cfg, PlasmaConfig(N=8, b=8.0, sweeps=5000, burn_in=1000,
                                               thin=10, seed=1))
    assert est.n_samples == 400 and math.isfinite(est.log_estimate)


def test_max_share_is_the_largest_sample_share():
    cfg = HoleConfig(w=(0.7,), N=1, b=1.0)
    mcmc = PlasmaConfig(N=1, b=1.0, sweeps=2000, burn_in=0, thin=1, seed=4)
    est = charpoly_moment_mc(cfg, mcmc)
    y = np.abs(0.7 - ginibre_samples(1, 1.0, 2000, seed=4)[:, 0]) ** 2
    assert est.max_share == pytest.approx(y.max() / y.sum(), rel=1e-12)
    assert 1.0 / est.n_samples < est.max_share < 1.0


def test_charpoly_same_seed_is_bit_identical():
    cfg = HoleConfig(w=(0.5, -0.2 + 0.3j), N=4, b=4.0)
    mcmc = PlasmaConfig(N=4, b=4.0, sweeps=1500, burn_in=0, thin=1, seed=9)
    first, second = charpoly_moment_mc(cfg, mcmc), charpoly_moment_mc(cfg, mcmc)
    assert first == second
    assert first.n_samples == first.n_effective == 1500


def test_charpoly_does_not_run_the_chain(monkeypatch):
    def chain(*args, **kwargs):
        raise AssertionError("charpoly_moment_mc must not run the Metropolis chain")

    monkeypatch.setattr(charpoly, "plasma_mcmc", chain, raising=False)
    monkeypatch.setattr("qhflux.oracle.plasma.plasma_mcmc", chain)
    cfg = HoleConfig(w=(0.4,), N=2, b=2.0)
    est = charpoly_moment_mc(cfg, PlasmaConfig(N=2, b=2.0, sweeps=5000, seed=1))
    assert est.n_samples == len(range(1000, 5000, 10)) == 400


def test_charpoly_se_shrinks_with_samples():
    # the estimator is heavy-tailed, so the sqrt(2) shrink of the standard
    # error under sample doubling is only visible averaged over replications
    cfg = HoleConfig(w=(0.5, -0.2 + 0.3j), N=4, b=4.0)

    def rms_se(sweeps):
        vals = []
        for seed in range(8):
            mcmc = PlasmaConfig(N=4, b=4.0, sweeps=sweeps, burn_in=1000,
                                thin=4, seed=100 + seed)
            vals.append(charpoly_moment_mc(cfg, mcmc).log_std_error ** 2)
        return math.sqrt(sum(vals) / len(vals))

    ratio = rms_se(11000) / rms_se(21000)
    assert 1.3 <= ratio <= 1.6


def test_slater_one_point_is_kernel_diagonal():
    ks = (0, 1, 2, 3)
    b = 4.0
    spec = KernelSpec(b=b, M=4)
    for x in (0.3 + 0.2j, -0.7j, 1.1):
        mine = slater_density(ks, [x], b)
        ref = kernel_eval(spec, x, x).to_complex().real
        assert mine == pytest.approx(ref, rel=1e-12)


def test_slater_pauli_exclusion():
    assert slater_density((0, 1, 2), [0.4, 0.4], 3.0) == pytest.approx(0.0, abs=1e-12)


def test_slater_symmetry():
    ks = (0, 1, 3)
    pts = [0.2 + 0.1j, -0.5 + 0.4j]
    a = slater_density(ks, pts, 3.0)
    b_ = slater_density(ks, pts[::-1], 3.0)
    assert a == pytest.approx(b_, rel=1e-12)


@pytest.mark.parametrize("ks", [(0, 1, 2), (0, 2, 3)])
def test_slater_determinant_matches_brute_force(ks):
    b = 3.0
    rng = np.random.default_rng(61)
    for _ in range(4):
        pts = [complex(*p) for p in rng.uniform(-0.8, 0.8, size=(2, 2))]
        det_route = slater_density(ks, pts, b)
        brute = slater_density_brute(ks, pts, b)
        assert det_route == pytest.approx(brute, rel=1e-10, abs=1e-14)


def test_slater_brute_normalization():
    # integrating the 1-point density over the plane returns N
    from qhflux.quadrature import cartesian_grid
    ks = (0, 1, 2)
    b = 3.0
    grid = cartesian_grid(1.0 + 8.0 / math.sqrt(b), order=70)
    val = np.sum(grid.weights * np.array([slater_density(ks, [z], b) for z in grid.nodes]))
    assert val.real == pytest.approx(3.0, rel=1e-8)


def test_slater_point_guard():
    with pytest.raises(ValueError):
        slater_density((0, 1), [0.1, 0.2, 0.3], 2.0)


def test_delta_zero_function():
    res = delta_check(0, lambda w: np.zeros_like(np.asarray(w, dtype=complex)), b=4.0)
    assert res.quadratic_form_residual == 0.0
    assert res.projector_residual == 0.0


def test_delta_gaussian_quadratic_form():
    u = lambda w: np.exp(-np.abs(np.asarray(w, dtype=complex)) ** 2)
    res = delta_check(0, u, b=4.0)
    assert res.quadratic_form_residual < 1e-8
    assert res.projector_residual < 1e-10


@pytest.mark.parametrize("b", [4.0, 16.0])
def test_bath_integral_matches_dense_double_sum(b):
    # the factored contraction against the plain sum over every node pair of
    # an order-12 tensor grid, K_inf(z, w) = (b/pi) e^{-b|z-w|^2/2 + i b Im(z wbar)}
    m = 12
    x = np.polynomial.legendre.leggauss(m)[0] * 1.5
    nodes = (x[:, None] + 1j * x[None, :]).ravel()
    rng = np.random.default_rng(12)
    f = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    dense = np.zeros(m * m, dtype=complex)
    for zi, fz in zip(nodes, f.ravel()):
        for wi, w in enumerate(nodes):
            dense[wi] += fz * (b / math.pi) * np.exp(
                -0.5 * b * abs(zi - w) ** 2 + 1j * b * (zi * w.conjugate()).imag)
    got = bath_integral(b, x, f).ravel()
    assert np.max(np.abs(got - dense)) <= 1e-13 * np.max(np.abs(dense))


def test_delta_polynomial_times_gaussian():
    u = lambda w: np.asarray(w, dtype=complex) ** 2 * \
        np.exp(-1.5 * np.abs(np.asarray(w, dtype=complex)) ** 2)
    res = delta_check(1, u, b=4.0)
    assert res.quadratic_form_residual < 1e-8
    assert res.projector_residual < 1e-10


def test_delta_apply_tensor_rule():
    # delta on u (x) psi evaluates the diagonal and reprojects
    b = 3.0
    spec = KernelSpec(b=b, M=1)
    from qhflux.kernel import kernel_infty
    u = lambda w: 2.0 * w + 0.5
    psi = lambda z: np.exp(-b * np.abs(z) ** 2 / 2) * z
    f = lambda w, z: u(w) * psi(z)
    df = delta_apply(f, b)
    w, z = 0.3 - 0.2j, 0.5 + 0.1j
    expected = u(w) * psi(w) * kernel_infty(spec, z, w).to_complex()
    assert df(w, z) == pytest.approx(expected, rel=1e-13)


def test_energy_identity_zero_function():
    packet = GaussianPacket(center=0.3, a=25.0)
    # Phi = 0 trivially: both sides vanish; emulate with a tiny amplitude
    res = energy_identity_check(1, q=1.0, packet=packet, grid_order=24)
    assert res.rhs != 0.0


@pytest.mark.parametrize("N,q,tol", [(1, 1.0, 1e-6), (2, 1.0, 1e-5), (2, 2.0, 1e-5)])
def test_energy_identity(N, q, tol):
    packet = GaussianPacket(center=0.3, a=30.0)
    res = energy_identity_check(N, q=q, packet=packet, grid_order=40)
    assert res.relative_residual < tol
    assert res.max_pointwise_residual < 1e-12


@pytest.mark.parametrize("N,q", [(1, 1.0), (2, 1.0), (2, 2.0)])
@pytest.mark.parametrize("order", [4, 8, 48])
def test_energy_identity_rounding_at_every_grid(N, q, order):
    # the identity holds pointwise, so the grid order does not set the residual
    res = energy_identity_check(N, q=q, packet=GaussianPacket(center=0.3, a=30.0),
                                grid_order=order)
    assert res.relative_residual < 1e-13
    assert res.max_pointwise_residual < 1e-12


def test_energy_identity_expands_once_per_check(monkeypatch):
    from qhflux.oracle import energy
    calls = []

    def counted(*args):
        calls.append(args)
        return gaussian_pair_integral(*args)

    monkeypatch.setattr(energy, "gaussian_pair_integral", counted)
    energy_identity_check(2, q=1.0, packet=GaussianPacket(center=0.3), grid_order=48)
    assert len(calls) == 3


@pytest.mark.parametrize("a", [0.0, -1.0, math.nan, math.inf])
def test_energy_packet_rejects_bad_width(a):
    with pytest.raises(ValueError, match="width"):
        GaussianPacket(center=0.3, a=a)


@pytest.mark.parametrize("center", [complex(math.nan, 0.0), complex(0.3, math.inf)])
def test_energy_packet_rejects_non_finite_center(center):
    with pytest.raises(ValueError, match="center"):
        GaussianPacket(center=center)


@pytest.mark.parametrize("q", [math.nan, math.inf])
def test_energy_identity_rejects_non_finite_q(q):
    with pytest.raises(ValueError, match="coupling"):
        energy_identity_check(1, q=q, packet=GaussianPacket(center=0.3), grid_order=4)


@pytest.mark.parametrize("N", [0, -1, 3])
def test_energy_identity_rejects_bath_size(N):
    with pytest.raises(ValueError, match="N"):
        energy_identity_check(N, q=1.0, packet=GaussianPacket(center=0.3), grid_order=4)
