"""The benchmark's use of the library, run once: every workload's set-up,
first round and checks.

bench/ reads library names and attributes directly (kernel_diff_log,
EmergentField.j, CharpolyEstimate.n_effective, ...) and changes only with
the benchmark itself, so a rename in the library must fail here rather than
in a benchmark run.  One round of each workload at seed 1 takes about a
second.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402


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
