"""Acceptance gate: one test per pinned criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL line
per criterion.  Criterion 8a pins the radial mass of the scalar correction v
at 1; the implemented formula integrates exactly to 2 (antiderivative
-2t/(e^t - 1)), so that single row fails by construction and is kept red on
purpose rather than re-pinned.
"""

import math
import time

import numpy as np

from helpers import integrate_radial, polar_grid, reproducing_residual
from qhflux.harness.suites import (case_rng, pair_config, run_global_suite,
                                   run_potential_suite, run_upsilon_suite,
                                   sample_points_in_disk)
from qhflux.kernel import KernelSpec, kernel_log_orders, kernel_tail_bound_log, weighted_orbitals
from qhflux.oracle.charpoly import charpoly_moment_mc
from qhflux.oracle.energy import GaussianPacket, energy_identity_check
from qhflux.oracle.monomial import partition_exact
from qhflux.oracle.plasma import PlasmaConfig, plasma_mcmc, radial_density_l1
from qhflux.oracle.slater import slater_density, slater_density_brute
from qhflux.partition import HoleConfig, log_partition
from qhflux.potentials import (asymptotic_prediction, correction_a, correction_v,
                               emergent_field_derivative, emergent_field_integral,
                               perp)
from qhflux.quadrature import cartesian_grid

SEED = 20260810


def verdict(num: str, ok: bool, detail: str):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} -- {detail}")
    return ok


def test_criterion_1_exact_partition_identity():
    t0 = time.perf_counter()
    worst = 0.0
    rng = case_rng(SEED, 1)
    for N in (1, 2, 3):
        for n in (1, 2):
            for b in (1.0, float(N), 2.5):
                for _ in range(20):
                    while True:
                        pts = sample_points_in_disk(rng, n, 0.9)
                        if n == 1 or abs(pts[0] - pts[1]) > 0.05:
                            break
                    cfg = HoleConfig(w=tuple(pts), N=N, b=b)
                    rel = abs(log_partition(cfg).log_value - partition_exact(cfg))
                    worst = max(worst, rel / max(abs(partition_exact(cfg)), 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    assert verdict("1", ok, f"max rel dev {worst:.3e} (<=1e-10), {elapsed:.1f}s (<10s)")


def test_criterion_2_reproducing_identities():
    spec = KernelSpec(b=4.0, M=4)
    grid = cartesian_grid(1.0 + 8.0 / 2.0, order=80)
    res = max(reproducing_residual(spec, 0j, 0j, grid),
              reproducing_residual(spec, 0.3 + 0.2j, -0.4 + 0.1j, grid))
    M = 16
    spec16 = KernelSpec(b=float(M), M=M)
    grid16 = cartesian_grid(1.0 + 2.0, order=90)
    u = weighted_orbitals(spec16.b, M, grid16.nodes)
    gram = (u.conj() * grid16.weights[:, None]).T @ u
    trace_rel = abs(np.trace(gram).real - M) / M
    hs_rel = abs(np.sum(np.abs(gram) ** 2) - M) / M
    ok = res < 1e-8 and trace_rel < 1e-6 and hs_rel < 1e-6
    assert verdict("2", ok, f"reproducing {res:.2e} (<1e-8), trace {trace_rel:.2e}, "
                            f"HS {hs_rel:.2e} (<1e-6)")


def test_criterion_3_kernel_asymptotics():
    kappa = 2.0
    n = 2
    delta = kappa * math.sqrt(math.log(64) / 64)
    sups = {}
    cert_ok = True
    for N in (64, 128, 256):
        rng = case_rng(SEED, 30 + N)
        spec = KernelSpec(b=float(N), M=N + n)
        pts = sample_points_in_disk(rng, 2000, 1.0 - delta)
        z, w = pts[:1000], pts[1000:]
        d, _ = kernel_log_orders(spec, z, w, [(0, 0, 0, 0)], "tail")[0]
        sups[N] = float(d.max())
        cert_ok = cert_ok and not np.any(d > kernel_tail_bound_log(spec, z, w))
    slope = float(np.polyfit(np.log([64.0, 128.0, 256.0]),
                             [sups[N] for N in (64, 128, 256)], 1)[0])
    ok = cert_ok and slope <= -6.5
    assert verdict("3", ok, f"all 3000 pairs below certificate: {cert_ok}; "
                            f"slope {slope:.1f} (<= -6.5)")


def test_criterion_4_upsilon_regimes():
    rep = run_upsilon_suite(N_list=(256,), kappa=2.0, gamma=1.0, configs=20,
                            seed=SEED, sweep_points=12)
    nomerge = [r for r in rep.rows if r.case_id.startswith("nomerge-N")]
    sweep = [r for r in rep.rows if r.case_id.startswith("merge-sweep")]
    worst_nm = max(r.measured for r in nomerge)
    worst_sw = max(abs(r.measured - r.predicted) for r in sweep)
    ok = worst_nm < 1e-6 and worst_sw < 1e-4 and rep.all_passed
    assert verdict("4", ok, f"|Upsilon-1| {worst_nm:.2e} (<1e-6); "
                            f"sweep dev {worst_sw:.2e} (<1e-4)")


def test_criterion_5_potential_asymptotics():
    rep = run_potential_suite(N_list=(256,), kappa=2.0, gamma=1.0, configs=10,
                              seed=SEED, merging_N=512, sweep_points=10)
    nm_a = next(r for r in rep.rows if r.case_id == "nomerge-A-N256")
    nm_v = next(r for r in rep.rows if r.case_id == "nomerge-V-N256")
    # pointwise profile ratio at s = 1/sqrt(N), N = 512
    rng = case_rng(SEED, 55)
    N = 512
    cfg = pair_config(rng, N, 1.0 / math.sqrt(N))
    field = emergent_field_derivative(cfg, 0)
    base = asymptotic_prediction(cfg)[0][0]
    y = math.sqrt(N) * abs(cfg.w[0] - cfg.w[1])
    v_ratio = (2.0 * N - field.V) / (N * correction_v(np.array([y, 0.0])))
    a_ratio = float(np.linalg.norm(field.A - base)) \
        / (math.sqrt(N) * float(np.linalg.norm(correction_a(np.array([y, 0.0])))))
    ok = (nm_a.measured < 1e-5 and nm_v.measured < 1e-5
          and abs(v_ratio - 1.0) < 0.01 and abs(a_ratio - 1.0) < 0.01)
    assert verdict("5", ok, f"|A-pred|/N {nm_a.measured:.2e}, |V-2N|/N "
                            f"{nm_v.measured:.2e} (<1e-5); profile ratios "
                            f"v {v_ratio:.4f}, a {a_ratio:.4f} (within 1%)")


def test_criterion_6_cross_method_fields():
    # kappa = 2 no-merging is empty at N = 32, so "no-merging" means
    # well-separated: separation >= 0.35 inside radius 0.55
    rng = case_rng(SEED, 6)
    worst_a = 0.0
    worst_v = 0.0
    N = 32
    for _ in range(10):
        while True:
            pts = sample_points_in_disk(rng, 2, 0.55)
            if abs(pts[0] - pts[1]) >= 0.35:
                break
        cfg = HoleConfig(w=tuple(pts), N=N)
        for j in (0, 1):
            d = emergent_field_derivative(cfg, j)
            i = emergent_field_integral(cfg, j)
            worst_a = max(worst_a, float(np.linalg.norm(d.A - i.A)) / N)
            worst_v = max(worst_v, abs(d.V - i.V) / N)
    ok = worst_a < 1e-6 and worst_v < 1e-4
    assert verdict("6", ok, f"route gap A/N {worst_a:.2e} (<1e-6), "
                            f"V/N {worst_v:.2e} (<1e-4)")


def test_criterion_7_global_bounds():
    rep = run_global_suite(N=64, n=4, count=500, seed=SEED)
    vals = {r.case_id: r.measured for r in rep.rows}
    ok = (vals["global-A"] <= 10.0 and vals["global-V"] <= 10.0
          and vals["global-V-min"] <= 1e-6 * 64 and vals["droplet-A"] <= 10.0)
    assert verdict("7", ok, f"max|A|/N {vals['global-A']:.2f}, max V/N^1.5 "
                            f"{vals['global-V']:.2f}, -minV {vals['global-V-min']:.1e}, "
                            f"droplet {vals['droplet-A']:.2f} (all <= 10)")


def test_criterion_8a_v_mass_as_pinned():
    grid = polar_grid(0j, 40.0, n_theta=8, nodes_per_panel=16, panel_width=0.5)
    mass = integrate_radial(grid, lambda r: correction_v(np.array([r, 0.0]))).real / math.pi
    ok = abs(mass - 1.0) <= 1e-10
    verdict("8a", ok, f"radial mass of v/pi = {mass:.12f}, pinned expectation 1 "
                      "(exact antiderivative gives 2; see README)")
    assert ok, f"measured mass {mass}; the pinned value 1 disagrees with the explicit formula"


def test_criterion_8b_a_field_bound():
    worst = 0.0
    for s in np.geomspace(1e-8, 12.0, 500):
        y = np.array([float(s), 0.0])
        worst = max(worst, float(np.linalg.norm(correction_a(y) - perp(y) / s ** 2)))
    ok = worst <= 0.5 + 1e-12
    assert verdict("8b", ok, f"sup |a - y^perp/|y|^2| = {worst:.6f} (<= 0.5)")


def test_criterion_9_charpoly_moments():
    t0 = time.perf_counter()
    zs = {}
    for label, (N, holes) in {"(1,1)": (1, (0.7,)),
                              "(8,2)": (8, (0.55 + 0.1j, -0.35 + 0.3j))}.items():
        cfg = HoleConfig(w=holes, N=N, b=float(N))
        mcmc = PlasmaConfig(N=N, b=float(N), sweeps=101_000, burn_in=1000,
                            thin=10, seed=SEED + N)
        est = charpoly_moment_mc(cfg, mcmc)
        assert est.n_samples >= 10_000
        zs[label] = est.z_score
    elapsed = time.perf_counter() - t0
    ok = all(abs(z) < 3.0 for z in zs.values()) and elapsed < 60.0
    assert verdict("9", ok, f"z-scores {zs['(1,1)']:.2f}, {zs['(8,2)']:.2f} "
                            f"(|z|<3); {elapsed:.0f}s (<60s)")


def test_criterion_10_plasma_fidelity():
    cfg = PlasmaConfig(N=16, b=16.0, sweeps=101_000, burn_in=1000, thin=10,
                       seed=SEED)
    samples, diag = plasma_mcmc(cfg)
    l1 = radial_density_l1(cfg, samples)
    ok = l1 < 0.05
    assert verdict("10", ok, f"L1 distance to exact radial profile {l1:.4f} "
                             f"(<0.05), acceptance {diag.acceptance_rate:.2f}")


def test_criterion_11_energy_identity():
    residuals = {}
    pointwise = {}
    for label, (N, q) in {"(1,1,1)": (1, 1.0), "(2,1,1)": (2, 1.0),
                          "(2,1,2)": (2, 2.0)}.items():
        res = energy_identity_check(N, q=q, packet=GaussianPacket(center=0.3, a=30.0))
        residuals[label] = res.relative_residual
        pointwise[label] = res.max_pointwise_residual
    worst = max(residuals.values())
    worst_node = max(pointwise.values())
    ok = worst < 1e-5 and worst_node < 1e-12
    assert verdict("11", ok, f"max relative residual {worst:.2e} (<1e-5); "
                             f"max weighted node residual {worst_node:.2e} (<1e-12)")


def test_criterion_12_slater_and_delta():
    rng = case_rng(SEED, 12)
    worst = 0.0
    for _ in range(5):
        pts = [complex(*p) for p in rng.uniform(-0.8, 0.8, size=(2, 2))]
        det_route = slater_density((0, 1, 2), pts, 3.0)
        brute = slater_density_brute((0, 1, 2), pts, 3.0)
        worst = max(worst, abs(det_route - brute) / max(abs(brute), 1e-12))
    from qhflux.oracle.delta import delta_check
    u = lambda w: np.exp(-np.abs(np.asarray(w, dtype=complex)) ** 2)
    res = delta_check(0, u, b=4.0)
    ok = (worst <= 1e-10 and res.quadratic_form_residual < 1e-8
          and res.projector_residual < 1e-10)
    assert verdict("12", ok, f"slater dev {worst:.2e} (<=1e-10); delta quad "
                             f"{res.quadratic_form_residual:.2e} (<1e-8); "
                             f"projector {res.projector_residual:.2e} (<1e-10)")
