"""The benchmark's use of the library, run once: every workload's set-up,
first round and checks.

bench/ reads library names and attributes directly (kernel_diff_log,
EmergentField.j, CharpolyEstimate.n_effective, ...) and changes only with
the benchmark itself, so a rename in the library must fail here rather than
in a benchmark run.  One round of each workload at seed 1 takes about a
second.  A fields round also counts its factorisations, Jacobi passes and
field assemblies, so a change that redoes one per tracer call fails here.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402
from helpers import count_cached_property  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_benchmark_round_runs_and_passes_its_checks(name):
    wl = workloads.WORKLOADS[name]()
    wl.warmup()
    refs = wl.prepare(1)
    inputs = wl.make_round(1, 0)
    ops = wl.calls(inputs)
    for op in ops:
        op.run()
    assert ops and [(op.label, op.error) for op in ops if op.error] == []
    assert [(label, problem) for label, _, problem in wl.check(inputs, ops, refs)
            if problem is not None] == []


def test_a_fields_round_assembles_once_per_hole_stack(monkeypatch):
    # 37 configurations and 106 tracer calls: each configuration's upsilon
    # builds one factorisation, its first tracer call one Jacobi pass and
    # one assembly of every tracer's A and V, and the other 69 tracer calls
    # read the memo entry
    from qhflux import partition, potentials
    wl = workloads.Fields()
    inputs = wl.make_round(1, 0)
    calls = []
    build, field = partition._Factors.__init__, potentials.emergent_field_derivative

    def counted_build(self, *args):
        calls.append("build")
        build(self, *args)

    def counted_field(*args):
        calls.append("tracer")
        return field(*args)

    monkeypatch.setattr(partition, "_memo", None)
    monkeypatch.setattr(partition._Factors, "__init__", counted_build)
    monkeypatch.setattr(potentials, "emergent_field_derivative", counted_field)
    for name in ("jacobi", "fields"):
        count_cached_property(monkeypatch, partition._Factors, name, calls)
    ops = wl.calls(inputs)
    for op in ops:
        op.run()
    assert [(op.label, op.error) for op in ops if op.error] == []
    assert (len(ops), sum(len(c.ws) for c in inputs)) == (37, 106)
    assert {name: calls.count(name) for name in set(calls)} == {
        "build": 37, "jacobi": 37, "fields": 37, "tracer": 106}
