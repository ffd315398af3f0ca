import math

import numpy as np
import pytest

from qhflux.harness.classify import RegimeClassifier
from qhflux.harness.report import CSV_HEADER, ReportRow, VerificationReport
from qhflux.harness.suites import (SamplingInfeasibleError, case_rng,
                                   pair_config, run_global_suite, run_kernel_suite,
                                   run_potential_suite, run_upsilon_suite,
                                   sample_no_merging)
from qhflux.partition import HoleConfig


def test_classify_no_merging_example():
    # 2 delta_256(kappa=2) = 0.589, so separation 0.62 is no-merging while
    # 0.5 already counts as merging
    cfg = HoleConfig(w=(-0.31, 0.31), N=256)
    assert RegimeClassifier(kappa=2.0).classify(cfg).kind == "no-merging"
    merging = HoleConfig(w=(0j, 0.5), N=256)
    assert RegimeClassifier(kappa=2.0).classify(merging).kind == "single-merging"


def test_classify_single_merging_example():
    cfg = HoleConfig(w=(0j, 1.0 / 16.0), N=256)
    r = RegimeClassifier(kappa=2.0, gamma=1.0).classify(cfg)
    assert r.kind == "single-merging"
    assert r.pair == (0, 1)


def test_classify_two_close_pairs_is_remainder():
    s = 1.0 / 16.0
    cfg = HoleConfig(w=(0j, s, 0.5, 0.5 + s * 1j), N=256)
    assert RegimeClassifier(kappa=2.0).classify(cfg).kind == "remainder"


def test_classify_outside_droplet():
    cfg = HoleConfig(w=(0.95, 0.1), N=256)
    assert RegimeClassifier(kappa=2.0).classify(cfg).kind == "outside-droplet"


def test_classify_deep_merge_is_remainder():
    n_val = 256
    cfg = HoleConfig(w=(0j, n_val ** -1.2), N=n_val)
    assert RegimeClassifier(kappa=2.0, gamma=1.0).classify(cfg).kind == "remainder"


def test_classify_threshold_resolves_singular():
    # exactly at 2 delta: counts as merging (the more singular side)
    n_val = 256
    d = RegimeClassifier(2.0, 1.0).delta(n_val)
    cfg = HoleConfig(w=(0j, 2.0 * d), N=n_val)
    assert RegimeClassifier(kappa=2.0).classify(cfg).kind == "single-merging"


def test_classify_label_permutation_stable():
    rng = np.random.default_rng(3)
    for _ in range(20):
        pts = [complex(*p) for p in rng.uniform(-0.5, 0.5, size=(3, 2))]
        cfg = HoleConfig(w=tuple(pts), N=128)
        kinds = set()
        for perm in ((0, 1, 2), (2, 1, 0), (1, 2, 0)):
            permuted = HoleConfig(w=tuple(pts[i] for i in perm), N=128)
            kinds.add(RegimeClassifier().classify(permuted).kind)
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
    # one call per N covers every order, and one summation per N gives every
    # tail series S^(k), k = 0, 1, 2, that the orders up to 2 need
    from qhflux import kernel
    from qhflux.harness import suites
    stacked, series, single = [], [], []
    real_orders, real_series = suites.kernel_log_orders, kernel._series_stack
    real_single = suites.kernel_diff_log
    monkeypatch.setattr(suites, "kernel_log_orders", lambda spec, zs, ws, orders, which: (
        stacked.append((spec.b, [tuple(o) for o in orders], len(zs), which))
        or real_orders(spec, zs, ws, orders, which)))
    monkeypatch.setattr(kernel, "_series_stack", lambda b, x, M, ks, tail: (
        series.append((b, list(ks), tail)) or real_series(b, x, M, ks, tail)))
    monkeypatch.setattr(suites, "kernel_diff_log", lambda *args: (
        single.append(args) or real_single(*args)))
    run_kernel_suite(N_list=(16, 32), samples=20, seed=3)
    orders = [o for group in suites._ORDER_GROUPS.values() for o in group]
    assert stacked == [(b, orders, 20, "tail") for b in (16.0, 32.0)]
    # the N = 8 tail-versus-subtraction row sums the last tail series
    assert [s for s in series if s[2]] == [
        (b, [0, 1, 2], True) for b in (16.0, 32.0)] + [(8.0, [0], True)]
    assert len(single) == 1


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
    rep = run_upsilon_suite(N_list=(128,), configs=3, sweep_points=4, seed=2)
    assert rep.all_passed


def test_potential_suite_cross_rows():
    # a cross-A and a cross-V row after each N's other rows, at every N,
    # including N = 2048, whose quadrature grid the integral route once refused
    rep = run_potential_suite(N_list=(128, 2048), configs=1, sweep_points=3)
    cross = [r for r in rep.rows if r.case_id.startswith("cross")]
    assert [r.case_id for r in cross] == ["cross-A-N128", "cross-V-N128",
                                          "cross-A-N2048", "cross-V-N2048"]
    assert all(r.passed and r.measured <= 1e-12 for r in cross)
    ids = [r.case_id for r in rep.rows]
    assert ids.index("nomerge-V-N2048") == ids.index("cross-A-N2048") - 1


@pytest.mark.parametrize("run, sizes", [
    (run_upsilon_suite, {"configs": 0}), (run_upsilon_suite, {"sweep_points": 0}),
    (run_potential_suite, {"configs": 0}), (run_potential_suite, {"sweep_points": -1}),
    (run_global_suite, {"count": -3}), (run_kernel_suite, {"samples": 0})])
def test_suites_refuse_a_size_below_one_by_name(run, sizes):
    # each once failed deep inside with "holes must have shape (B, n)"
    (name, value), = sizes.items()
    with pytest.raises(ValueError, match=f"needs {name} >= 1, got {value}"):
        run(**sizes)


@pytest.mark.parametrize("run, kwargs, message", [
    (run_kernel_suite, {"N_list": ()}, "needs len.N_list. >= 1, got 0"),
    (run_upsilon_suite, {"N_list": []}, "needs len.N_list. >= 1, got 0"),
    (run_potential_suite, {"N_list": ()}, "needs len.N_list. >= 1, got 0"),
    (run_kernel_suite, {"N_list": (64, 0)}, "needs min.N_list. >= 1, got 0"),
    (run_potential_suite, {"N_list": (-2,)}, "needs min.N_list. >= 1, got -2"),
    (run_upsilon_suite, {"N_list": (1,)}, "needs max.N_list. >= 2, got 1"),
    (run_potential_suite, {"merging_N": 1}, "needs merging_N >= 2, got 1"),
    (run_global_suite, {"N": 0}, "needs N >= 2, got 0"),
    (run_potential_suite, {"N_list": (64, 1)}, "needs min.N_list. >= 2, got 1")])
def test_suites_refuse_a_bad_n_by_name(run, kwargs, message):
    # each once failed with an unrelated message (min() or max() of an empty
    # sequence, math domain error, a geometric sequence with a zero) or, for
    # the potential suite's empty N_list, passed without a per-N row
    with pytest.raises(ValueError, match=message):
        run(**kwargs)


def test_kernel_suite_runs_at_n1():
    # delta_1 = 0 is a fixed sampling disk of radius 1, not an error
    assert run_kernel_suite(N_list=(1,), samples=20).all_passed


@pytest.mark.parametrize("kwargs", [{"kappa": math.nan}, {"kappa": math.inf},
                                    {"gamma": math.nan}, {"gamma": -math.inf},
                                    {"kappa": 0.0}, {"gamma": -1.0}])
def test_classifier_refuses_a_non_finite_or_non_positive_scale(kwargs):
    # kappa = nan once classified every configuration as no-merging
    with pytest.raises(ValueError, match="finite and positive"):
        RegimeClassifier(**kwargs)


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
