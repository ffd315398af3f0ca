"""Tests of the benchmark itself: references, checks and tracer.

Each check must accept the program's (or an exact) value and reject a
perturbed one.  Run with `python3 -m pytest bench -q`.
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import references as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from qhflux import partition, potentials  # noqa: E402


# ------------------------------------------------------------- references

def test_kernel_tail_matches_direct_difference():
    b, M, z, w = 8.0, 10, 0.4 + 0.1j, 0.3 - 0.2j
    with ref.mp.workdps(60):
        zm, wm = ref._mpc(z), ref._mpc(w)
        full = (b / ref.mp.pi) * ref.mp.exp(-b * (abs(zm) ** 2 + abs(wm) ** 2) / 2
                                            + b * zm * ref.mp.conj(wm))
        trunc = (b / ref.mp.pi) * ref.scaled_kernel_mp(b, M, z, w)
        assert abs(ref.kernel_tail_mp(b, M, z, w) - (full - trunc)) < 1e-30
        h = ref.mp.mpf("1e-15")
        fd = (ref.kernel_tail_mp(b, M, zm + h, w) - ref.kernel_tail_mp(b, M, zm - h, w)) / (2 * h)
        fd_y = (ref.kernel_tail_mp(b, M, zm + 1j * h, w)
                - ref.kernel_tail_mp(b, M, zm - 1j * h, w)) / (2 * h)
        # holomorphic derivative d/dz = (d/dx - i d/dy) / 2
        assert abs(ref.kernel_tail_mp(b, M, z, w, d_z=True) - (fd - 1j * fd_y) / 2) < 1e-15


def test_single_hole_moments_closed_form():
    w, b = 0.7, 1.0
    assert ref.log_charpoly_moment((w,), 1, b) == pytest.approx(math.log(w * w + 1 / b), abs=1e-14)
    assert ref.log_charpoly_moment((w, w), 1, b) == pytest.approx(
        math.log(w ** 4 + 4 * w * w / b + 2 / b ** 2), abs=1e-14)
    assert ref.log_normalization((w,), 1, b) == pytest.approx(
        math.log(math.pi / b * (w * w + 1 / b)), abs=1e-14)


def test_radial_cdf_and_standard_error():
    r2 = np.array([0.1, 1.0, 3.0])
    assert np.allclose(ref.radial_cdf(r2, 1, 2.0), 1 - np.exp(-2.0 * r2))
    x = np.random.default_rng(0).normal(size=20000)
    m, se = ref.mean_and_se(x)
    assert se == pytest.approx(1 / math.sqrt(x.size), rel=0.1)


def test_upsilon_mp_single_hole_is_one_minus_tail():
    # n = 1: Upsilon = (pi/b) K_{N+1}(w, w), below 1 by the truncated tail
    u = float(ref.upsilon_mp((0.5,), 4))
    assert 0.0 < u < 1.0
    assert u == pytest.approx(1.0 - math.exp(-1.0) * sum(1.0 ** j / math.factorial(j)
                                                          for j in range(5, 40)), abs=1e-14)


# ----------------------------------------------------------------- fields

def _field_case(kind, ws, N, **kw):
    case = W.FieldCase(kind, tuple(ws), N, **kw)
    case.cfg = partition.HoleConfig(w=case.ws, N=N)
    out = W.Fields().calls([case])[0]
    out.run()
    assert out.error is None
    return case, out.value


def _perturb(value, dups=0.0, dA=(0.0, 0.0), dV=0.0, j=0):
    ups, fields = value
    fields = [(A + np.asarray(dA) if i == j else A, V + dV if i == j else V)
              for i, (A, V) in enumerate(fields)]
    return ups + dups, fields


def test_field_checks_accept_program_and_reject_perturbed():
    wl = W.Fields()
    case, value = _field_case("nomerge", (0.3, -0.3j), 256)
    assert wl._check_one(case, value, {}) is None
    N = 256
    for bad in (_perturb(value, dups=2e-6), _perturb(value, dA=(1e-4 * N, 0)),
                _perturb(value, dV=1e-4 * N), _perturb(value, dV=-3.0 * N),
                _perturb(value, dA=(11.0 * N, 0)), _perturb(value, dV=11.0 * N ** 1.5)):
        assert wl._check_one(case, bad, {}) is not None


def test_upsilon_range_check():
    wl = W.Fields()
    case, value = _field_case("global-deep", (0.1, 0.1 + 1 / 64, -0.3j, 0.3), 64)
    assert wl._check_one(case, value, {}) is None
    assert wl._check_one(case, _perturb(value, dups=1.0 - value[0] + 2e-8), {}) is not None
    assert wl._check_one(case, _perturb(value, dups=-value[0] - 1e-8), {}) is not None


def test_pair_correction_check():
    wl = W.Fields()
    N = 512
    case, value = _field_case("pair", (-0.03, 0.03 + 1.0 / math.sqrt(N)), N)
    assert wl._check_one(case, value, {}) is None
    a_corr = np.linalg.norm(ref.pair_fields(case.ws, N, 0)[0] - ref.no_merging_fields(case.ws, N, 0)[0])
    assert wl._check_one(case, _perturb(value, dA=(0.02 * a_corr, 0)), {}) is not None
    v_corr = 2 * N - ref.pair_fields(case.ws, N, 0)[1]
    assert wl._check_one(case, _perturb(value, dV=0.02 * v_corr), {}) is not None


def test_mpmath_checks_on_a_deep_merger():
    wl = W.Fields()
    N = 64
    case, value = _field_case("global-deep", (0.2, 0.2 + 1j / N), N, mp_upsilon=True, mp_tracer=1)
    assert wl._check_one(case, value, {}) is None
    for bad in (_perturb(value, dups=5e-9), _perturb(value, dA=(0, 1e-5 * N), j=1),
                _perturb(value, dV=1e-4 * N, j=1)):
        assert wl._check_one(case, bad, {}) is not None


def test_edge_slice_fails_against_mpmath():
    wl = W.Fields()
    refs = {}
    N, ws = W.EDGE_SLICE[2]
    refs[(N, ws)] = (float(ref.upsilon_mp(ws, N)), ref.fields_from_log_upsilon(ws, N, 0))
    case = W.FieldCase("edge", ws, N)
    case.cfg = partition.HoleConfig(w=ws, N=N)
    op = wl.calls([case])[0]
    op.run()
    assert op.edge and op.error is None
    assert "mpmath" in wl._check_one(case, op.value, refs)


# ------------------------------------------------------------------ tails

def test_tail_checks():
    wl = W.Tails()
    inputs = W.TailInputs(suite_seed=3, pairs=[(64, 0.3 + 0.1j, -0.2 + 0.25j, o) for o in W.TAIL_ORDERS])
    spec = W.kernel.KernelSpec(b=64.0, M=66)
    for N, z, w, order in inputs.pairs:
        got = W.kernel.kernel_diff_log(spec, z, w, order)
        assert wl._check_tail(N, z, w, order, got) is None
        bumped = dataclasses.replace(got, log_mag=got.log_mag * (1 + 1e-8))
        turned = dataclasses.replace(got, phase=got.phase + 1e-8)
        assert wl._check_tail(N, z, w, order, bumped) is not None
        assert wl._check_tail(N, z, w, order, turned) is not None


@pytest.mark.parametrize("case_id, N, good, bad", [
    ("certificate-N64", 64, -0.5, 1e-3),
    ("supdiff-N64-a0", 64, 1e-12, math.exp(-7 * math.log(64) + 6.0) * 1.01),
    ("slope-a1", 1024, -6.0, -5.49),
    ("tail-vs-subtraction", 8, 1e-12, 2e-9),
])
def test_row_verdicts(case_id, N, good, bad):
    row = W.suites.ReportRow(case_id=case_id, N=N, n=2, kappa=2.0, gamma=math.nan,
                             regime="no-merging", quantity="q", measured=good, bound=1.0)
    assert W.Tails._check_row(row) is None
    assert W.Tails._check_row(dataclasses.replace(row, measured=bad)) is not None


# ----------------------------------------------------------------- plasma

@dataclasses.dataclass
class FakeEstimate:
    log_estimate: float
    log_std_error: float
    n_samples: int
    n_effective: float
    log_exact: float


def test_charpoly_checks():
    n = W._samples(W.CHARPOLY_CHAIN)
    for N, ws in W.CHARPOLY_CASES:
        moments = (ref.log_charpoly_moment(ws, N, N), ref.log_charpoly_moment(ws + ws, N, N))
        m1 = moments[0]
        rel_sd = math.sqrt(math.exp(moments[1] - 2 * m1) - 1)
        se = rel_sd / math.sqrt(n)
        good = FakeEstimate(m1, 0.1, n, float(n), m1)
        assert W.Plasma._check_charpoly(N, ws, good, moments) is None
        assert W.Plasma._check_charpoly(N, ws, dataclasses.replace(good, log_exact=m1 + 1e-7),
                                        moments) is not None
        low = math.log(1 - 6 * se) if N == 1 else -6 * se
        assert W.Plasma._check_charpoly(N, ws, dataclasses.replace(good, log_estimate=m1 + low),
                                        moments) is not None
        high = math.log(1 + 6 * se) if N == 1 else math.log(2 * W.MARKOV_LIMIT)
        assert W.Plasma._check_charpoly(N, ws, dataclasses.replace(good, log_estimate=m1 + high),
                                        moments) is not None


def _ginibre(count, N, b, seed=0):
    """Exact no-hole plasma samples: eigenvalues of complex Ginibre / sqrt(b)."""
    rng = np.random.default_rng(seed)
    g = (rng.normal(size=(count, N, N)) + 1j * rng.normal(size=(count, N, N))) / math.sqrt(2 * b)
    return np.linalg.eigvals(g)


@dataclasses.dataclass
class FakeDiag:
    acceptance_rate: float = 0.5


def test_chain_checks_accept_exact_samples_and_reject_biased():
    N, b = W.PLASMA_N, float(W.PLASMA_N)
    pos = _ginibre(W._samples(W.PLASMA_CHAIN), N, b)
    dens = np.array([ref.plasma_log_density(z, b) for z in pos])
    assert W.Plasma._check_chain(pos, dens, FakeDiag()) is None
    wide = pos * 1.05
    assert W.Plasma._check_chain(wide, np.array([ref.plasma_log_density(z, b) for z in wide]),
                                 FakeDiag()) is not None
    assert W.Plasma._check_chain(pos, dens + 1e-6 * np.abs(dens), FakeDiag()) is not None
    assert W.Plasma._check_chain(pos, dens, FakeDiag(0.0)) is not None


# ------------------------------------------------------------- crosscheck

def test_crosscheck_checks():
    cfg = partition.HoleConfig(w=(0.3, -0.25j), N=W.CROSS_N)
    integral = potentials.emergent_field_integral(cfg, 0)
    derivative = potentials.emergent_field_derivative(cfg, 0)
    assert W.Crosscheck._check_routes(integral, derivative) is None
    shifted = dataclasses.replace(integral, A=integral.A + np.array([2e-6 * W.CROSS_N, 0]))
    assert W.Crosscheck._check_routes(shifted, derivative) is not None
    raised = dataclasses.replace(integral, V=integral.V + 2e-4 * W.CROSS_N)
    assert W.Crosscheck._check_routes(raised, derivative) is not None

    res = W.energy.EnergyIdentityResult(lhs=3.0, rhs=3.0)
    assert W.Crosscheck._check_energy(res, 1e-6) is None
    assert W.Crosscheck._check_energy(dataclasses.replace(res, lhs=3.0 * (1 + 2e-6)), 1e-6) is not None

    p = partition.HoleConfig(w=(0.3, -0.4j), N=2, b=2.5)
    exact = W.monomial.partition_exact(p)
    closed = partition.log_partition(p).log_value
    assert W.Crosscheck._check_partition(p, exact, closed) is None
    assert W.Crosscheck._check_partition(p, exact + 1e-8, closed) is not None
    assert W.Crosscheck._check_partition(p, exact, closed - 1e-8) is not None


# ----------------------------------------------------------------- tracer

def test_tracer_counts_five_partials_and_lus_per_field_and_restores():
    original = partition.upsilon
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert partition.upsilon is not original
        cfg = partition.HoleConfig(w=(0.3, -0.2), N=16)
        potentials.emergent_field_derivative(cfg, 0)
        spans = tracer.take()
    finally:
        tracer.uninstall()
    assert partition.upsilon is original
    metrics = tracing.round_metrics(spans)
    assert metrics["kernel.partials_per_field"] == 5.0
    assert metrics["clinalg.lu_per_field"] == 5.0
    assert metrics["potentials.emergent_field_derivative.calls"] == 1.0
    assert all(s[5] >= 0.0 for s in spans)


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(W.WORKLOADS)
