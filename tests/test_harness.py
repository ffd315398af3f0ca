import math

import numpy as np
import pytest

from qhflux.harness.classify import RegimeClassifier, classify
from qhflux.harness.report import CSV_HEADER, ReportRow, VerificationReport
from qhflux.harness.suites import (SamplingInfeasibleError, case_rng,
                                   pair_config, run_kernel_suite,
                                   run_potential_suite, run_upsilon_suite,
                                   sample_no_merging)
from qhflux.partition import HoleConfig


def test_classify_no_merging_example():
    # 2 delta_256(kappa=2) = 0.589, so separation 0.62 is no-merging while
    # 0.5 already counts as merging
    cfg = HoleConfig(w=(-0.31, 0.31), N=256)
    assert classify(cfg, kappa=2.0).kind == "no-merging"
    assert classify(HoleConfig(w=(0j, 0.5), N=256), kappa=2.0).kind == "single-merging"


def test_classify_single_merging_example():
    cfg = HoleConfig(w=(0j, 1.0 / 16.0), N=256)
    r = classify(cfg, kappa=2.0, gamma=1.0)
    assert r.kind == "single-merging"
    assert r.pair == (0, 1)


def test_classify_two_close_pairs_is_remainder():
    s = 1.0 / 16.0
    cfg = HoleConfig(w=(0j, s, 0.5, 0.5 + s * 1j), N=256)
    assert classify(cfg, kappa=2.0).kind == "remainder"


def test_classify_outside_droplet():
    cfg = HoleConfig(w=(0.95, 0.1), N=256)
    assert classify(cfg, kappa=2.0).kind == "outside-droplet"


def test_classify_deep_merge_is_remainder():
    n_val = 256
    cfg = HoleConfig(w=(0j, n_val ** -1.2), N=n_val)
    assert classify(cfg, kappa=2.0, gamma=1.0).kind == "remainder"


def test_classify_threshold_resolves_singular():
    # exactly at 2 delta: counts as merging (the more singular side)
    n_val = 256
    d = RegimeClassifier(2.0, 1.0).delta(n_val)
    cfg = HoleConfig(w=(0j, 2.0 * d), N=n_val)
    assert classify(cfg, kappa=2.0).kind == "single-merging"


def test_classify_label_permutation_stable():
    rng = np.random.default_rng(3)
    for _ in range(20):
        pts = [complex(*p) for p in rng.uniform(-0.5, 0.5, size=(3, 2))]
        cfg = HoleConfig(w=tuple(pts), N=128)
        kinds = set()
        for perm in ((0, 1, 2), (2, 1, 0), (1, 2, 0)):
            kinds.add(classify(HoleConfig(w=tuple(pts[i] for i in perm), N=128)).kind)
        assert len(kinds) == 1


def test_report_row_modes():
    row = ReportRow(case_id="c", N=8, n=1, kappa=2.0, gamma=1.0, regime="r",
                    quantity="q", measured=0.5, bound=1.0)
    assert row.passed and row.ratio == 0.5
    row = ReportRow(case_id="c", N=8, n=1, kappa=2.0, gamma=1.0, regime="r",
                    quantity="q", measured=1.3, predicted=1.0, bound=0.2,
                    mode="tolerance")
    assert not row.passed
    assert row.ratio == pytest.approx(1.5)


def test_report_csv_shape():
    rep = VerificationReport(suite="demo", seed=1)
    rep.add(ReportRow(case_id="a", N=4, n=2, kappa=2.0, gamma=1.0,
                      regime="no-merging", quantity="x", measured=0.1, bound=1.0))
    text = rep.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines[1].split(",")) == len(CSV_HEADER.split(","))


def test_reports_reproducible_bit_for_bit():
    a = run_kernel_suite(N_list=(64,), samples=25, seed=9)
    b = run_kernel_suite(N_list=(64,), samples=25, seed=9)
    assert a.to_csv() == b.to_csv()
    assert a.to_json() == b.to_json()
    c = run_kernel_suite(N_list=(64,), samples=25, seed=10)
    assert c.to_csv() != a.to_csv()


def test_kernel_suite_makes_one_stacked_call_per_n_and_order(monkeypatch):
    from qhflux.harness import suites
    stacked, single = [], []
    real_stack, real_single = suites.kernel_log_stack, suites.kernel_diff_log
    monkeypatch.setattr(suites, "kernel_log_stack", lambda spec, zs, ws, order, which: (
        stacked.append((spec.b, tuple(order), len(zs))) or real_stack(spec, zs, ws, order, which)))
    monkeypatch.setattr(suites, "kernel_diff_log", lambda *args: (
        single.append(args) or real_single(*args)))
    run_kernel_suite(N_list=(16, 32), samples=20, seed=3)
    orders = [o for group in suites._ORDER_GROUPS.values() for o in group]
    assert stacked == [(b, o, 20) for b in (16.0, 32.0) for o in orders]
    assert len(single) == 1   # the N = 8 tail-versus-subtraction row


def test_sampling_infeasible_raises():
    classifier = RegimeClassifier(kappa=2.0)
    rng = case_rng(0, 0)
    with pytest.raises(SamplingInfeasibleError):
        sample_no_merging(rng, 64, 2, classifier, attempts=200)


def test_pair_config_separation():
    rng = case_rng(1, 2)
    cfg = pair_config(rng, 128, 0.05)
    assert abs(abs(cfg.w[0] - cfg.w[1]) - 0.05) < 1e-12


def test_upsilon_suite_small_passes():
    rep = run_upsilon_suite(N_list=(128,), configs=3, sweep_N=128,
                            sweep_points=4, seed=2)
    assert rep.all_passed


def test_merging_rows_record_pair_hole_count():
    # the merging sweeps run on two-hole pair configurations whatever n is
    rows = (run_upsilon_suite(N_list=(512,), n=3, configs=1, sweep_points=3).rows
            + run_potential_suite(N_list=(512,), n=3, configs=1, sweep_points=3).rows)
    assert any(r.case_id.startswith("merge") for r in rows)
    for row in rows:
        assert row.n == (2 if row.case_id.startswith("merge") else 3), row.case_id


def test_remainder_volume_is_small():
    # Monte Carlo volume of the remainder set at n = 3, N = 256 is
    # bounded by C delta^4 with a modest constant
    n_val, n_holes = 256, 3
    classifier = RegimeClassifier(kappa=2.0, gamma=1.0)
    d = classifier.delta(n_val)
    rng = np.random.default_rng(17)
    total = 40000
    hits = 0
    for _ in range(total):
        pts = (1.0 - d) * np.sqrt(rng.uniform(size=n_holes)) * \
            np.exp(1j * rng.uniform(0, 2 * math.pi, n_holes))
        cfg = HoleConfig(w=tuple(pts), N=n_val)
        if classifier.classify(cfg).kind == "remainder":
            hits += 1
    # normalized volume (fraction of the shrunk polydisk)
    frac = hits / total
    assert frac <= 100.0 * d ** 4
