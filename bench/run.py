"""qhflux benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 bench/run.py --workload fields --seed 1 --seconds 10 --trace 0

The program is imported from `src/` next to this directory.  Round after
round of the workload's fixed operations runs until --seconds have passed;
inputs for round k come from (seed, k).  With --trace 0 the last line of
stdout is a JSON object with the end-to-end metrics (medians over rounds);
with --trace 1 half the time runs untraced and half traced, and the JSON holds
the per-layer metrics.  Every output is checked after the timed rounds.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"
SETUP_PROBES = 5
# The host's speed drifts by +-20% over seconds to minutes.  Measured times
# are scaled by PROBE_REF_S / speed_probe(): the probe's typical time on the
# reference machine (2-vCPU Xeon, 2.1 GHz) over its time around the work.
PROBE_REF_S = 0.0120
PROBE_EVERY_S = 0.25
PROBE_TIMEOUT_S = 60
SHOWN_FAILURES = 8

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")]


def import_program():
    """Import qhflux from this checkout's src/, or exit without a result."""
    if not (SRC / "qhflux" / "__init__.py").is_file():
        sys.exit(f"bench: no qhflux sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qhflux
    if Path(qhflux.__file__).resolve().parent != SRC / "qhflux":
        sys.exit(f"bench: qhflux imported from {qhflux.__file__}, not from {SRC}")
    return qhflux


def setup_probe(workload: str):
    """Fresh-process set-up: import qhflux, one small call into each layer."""
    t0 = time.perf_counter()
    import_program()
    import qhflux.harness.suites, qhflux.oracle  # noqa: F401  (all layers)
    t1 = time.perf_counter()
    import workloads  # the benchmark's own imports (mpmath) are not set-up
    wl = workloads.WORKLOADS[workload]()
    t2 = time.perf_counter()
    wl.warmup()
    t3 = time.perf_counter()
    print(json.dumps({"setup_s": (t1 - t0) + (t3 - t2)}))


def measure_setup(workload: str) -> list[tuple[float, float]]:
    """(as measured, speed-scaled) set-up time of SETUP_PROBES fresh processes,
    each scaled by the speed probes timed here just before and after it."""
    out = []
    before = speed_probe()
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe", workload],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            sys.exit(f"bench: set-up probe failed:\n{proc.stderr}")
        raw = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        after = speed_probe()
        out.append((raw, raw * PROBE_REF_S / (0.5 * (before + after))))
        before = after
    return out


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def speed_probe() -> float:
    """Median of three timings of a fixed mix of interpreted float arithmetic
    and small numpy calls, about 12 ms each on the reference machine."""
    import numpy as np  # not at module level: a set-up probe times numpy's import
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        s = 0.0
        for i in range(60000):
            s += math.sqrt(i) * 1.0000001
        a = np.arange(16.0)
        for _ in range(1500):
            a = np.abs(a * 0.5 + 1j).real
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


@dataclass
class Round:
    inputs: object
    ops: list
    wall_raw: float     # seconds as measured
    cpu_raw: float
    wall_s: float       # scaled to the reference machine speed
    cpu_s: float
    spans: list | None = None


def timed_round(ops) -> tuple[float, float, float, float]:
    """Run the operations.  Every ~PROBE_EVERY_S of work a speed probe runs
    between two operations (outside the timing); each stretch of work is
    scaled by PROBE_REF_S over the mean of the probes around it."""
    wall = cpu = wall_s = cpu_s = seg_wall = seg_cpu = 0.0
    last = speed_probe()
    for i, op in enumerate(ops):
        c0, t0 = cpu_seconds(), time.perf_counter()
        op.run()
        t1, c1 = time.perf_counter(), cpu_seconds()
        seg_wall += t1 - t0
        seg_cpu += c1 - c0
        if seg_wall >= PROBE_EVERY_S or i == len(ops) - 1:
            now = speed_probe()
            scale = PROBE_REF_S / (0.5 * (last + now))
            wall, cpu = wall + seg_wall, cpu + seg_cpu
            wall_s, cpu_s = wall_s + seg_wall * scale, cpu_s + seg_cpu * scale
            seg_wall = seg_cpu = 0.0
            last = now
    return wall, cpu, wall_s, cpu_s


def run_rounds(wl, seed: int, seconds: float, first: int, tracer=None) -> list[Round]:
    """Whole rounds until `seconds` have passed (at least one)."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        inputs = wl.make_round(seed, first + len(rounds))
        ops = wl.calls(inputs)
        gc.collect()
        times = timed_round(ops)
        rounds.append(Round(inputs, ops, *times, tracer.take() if tracer is not None else None))
    return rounds


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def blas_threads() -> str:
    """Threads of the OpenBLAS numpy loaded, asked of the library itself."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def print_record(args):
    import numpy
    import scipy
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# git_sha={git_sha()} nproc={nproc} python={platform.python_version()} "
          f"numpy={numpy.__version__} scipy={scipy.__version__} blas_threads={blas_threads()}")


def parse_args(argv=None):
    import workloads
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe is None and args.workload is None:
        p.error("--workload is required")
    return args


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if "--setup-probe" in argv:
        return setup_probe(argv[argv.index("--setup-probe") + 1])
    import_program()
    args = parse_args(argv)
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    wl.warmup()
    refs = wl.prepare(args.seed)
    print_record(args)

    if args.trace == 0:
        setup = measure_setup(args.workload)
        rounds = run_rounds(wl, args.seed, args.seconds, 0)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"setup_s": statistics.median(scaled for _, scaled in setup),
                   "wall_s": statistics.median(r.wall_s for r in rounds),
                   "cpu_s": statistics.median(r.cpu_s for r in rounds),
                   "peak_rss_mb": peak_rss_mb}
        units = dict(END_TO_END)
        print(f"# setup_s samples as measured: {' '.join(f'{raw:.4f}' for raw, _ in setup)}")
        print(f"# as measured, before speed scaling: "
              f"setup_s {statistics.median(raw for raw, _ in setup):.4f} "
              f"wall_s {statistics.median(r.wall_raw for r in rounds):.4f} "
              f"cpu_s {statistics.median(r.cpu_raw for r in rounds):.4f}")
    else:
        plain = run_rounds(wl, args.seed, args.seconds / 2.0, 0)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_rounds(wl, args.seed, args.seconds / 2.0, len(plain), tracer)
        finally:
            tracer.uninstall()
        rounds = plain + traced
        overhead = (statistics.median(r.wall_s for r in traced)
                    - statistics.median(r.wall_s for r in plain))
        metrics = tracing.layer_metrics([r.spans for r in traced], overhead)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        TRACE_DIR.mkdir(exist_ok=True)
        spans_path = TRACE_DIR / f"{args.workload}.jsonl"
        tracing.write_spans(spans_path, [r.spans for r in traced])
        print(f"# spans: {spans_path.relative_to(ROOT)}; untraced rounds {len(plain)}, "
              f"traced rounds {len(traced)}")

    attempted = failed = 0
    unexpected = []
    shown = []
    for r in rounds:
        for label, edge, problem in wl.check(r.inputs, r.ops, refs):
            attempted += 1
            if problem is None:
                continue
            failed += 1
            if not edge:
                unexpected.append(f"{label}: {problem}")
            if len(shown) < SHOWN_FAILURES and (label, problem) not in shown:
                shown.append((label, problem))
    for label, problem in shown:
        print(f"# failed {label}: {problem}")
    for line in unexpected[:SHOWN_FAILURES]:
        print(f"# UNEXPECTED {line}")
    print(f"# rounds={len(rounds)} operations={attempted}")
    print(f"# wall_s per round: {' '.join(f'{r.wall_s:.4f}' for r in rounds)}")
    print(f"# as measured: {' '.join(f'{r.wall_raw:.4f}' for r in rounds)}")
    result = {"correct": not unexpected, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
