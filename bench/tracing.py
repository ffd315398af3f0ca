"""Spans around the public functions of each qhflux layer, from outside.

`Tracer.install` replaces every listed function with a timing wrapper at each
place it is bound in a loaded `qhflux` module, including copies made by
`from ... import`; methods are wrapped on their class.  Nothing under `src/`
changes.  Spans stay in memory until `write` is called.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import threading
import time

# (module under qhflux, attribute path); a missing one is skipped, so a layer
# removed by a later change reads as not exercised instead of breaking the run
TRACED = [
    ("lognum", "log_sum"),
    ("clinalg", "lu_factor"),
    ("clinalg", "LUFactorization.solve"),
    ("quadrature", "polar_grid"),
    ("quadrature", "cartesian_grid"),
    ("kernel", "kernel_diff_log"),
    ("kernel", "kernel_tail_bound_log"),
    ("kernel", "kernel_matrix_partials"),
    ("kernel", "kernel_matrix"),
    ("kernel", "weighted_orbitals"),
    ("partition", "upsilon"),
    ("partition", "upsilon_derivative"),
    ("partition", "log_partition"),
    ("potentials", "emergent_field_derivative"),
    ("potentials", "emergent_field_integral"),
    ("potentials", "vanishing_subspace"),
    ("oracle.plasma", "plasma_mcmc"),
    ("oracle.charpoly", "charpoly_moment_mc"),
    ("oracle.monomial", "partition_exact"),
    ("oracle.monomial", "gaussian_pair_integral"),
    ("oracle.energy", "energy_identity_check"),
    ("harness.suites", "run_kernel_suite"),
]

FIELD = "potentials.emergent_field_derivative"
PLASMA = "oracle.plasma.plasma_mcmc"
CHARPOLY = "oracle.charpoly.charpoly_moment_mc"


def _plasma_counters(result):
    _, diag = result
    return {"proposals": diag.proposals, "accepted": diag.accepted}


def _charpoly_counters(est):
    return {"ess_per_sample": est.n_effective / est.n_samples}


COUNTERS = {PLASMA: _plasma_counters, CHARPOLY: _charpoly_counters}

# per-layer metrics: (name, unit, better); the order is the report order
PER_LAYER = [
    ("kernel.kernel_diff_log.calls", "count", "lower"),
    ("kernel.kernel_diff_log.self_s", "s", "lower"),
    ("lognum.log_sum.self_s", "s", "lower"),
    ("kernel.kernel_tail_bound_log.self_s", "s", "lower"),
    ("harness.suites.run_kernel_suite.self_s", "s", "lower"),
    ("kernel.kernel_matrix_partials.calls", "count", "lower"),
    ("kernel.kernel_matrix_partials.self_s", "s", "lower"),
    ("kernel.kernel_matrix.self_s", "s", "lower"),
    ("kernel.partials_per_field", "count", "lower"),
    ("clinalg.lu_per_field", "count", "lower"),
    ("clinalg.lu_factor.calls", "count", "lower"),
    ("clinalg.lu_factor.self_s", "s", "lower"),
    ("clinalg.LUFactorization.solve.self_s", "s", "lower"),
    ("partition.upsilon.self_s", "s", "lower"),
    ("partition.upsilon_derivative.self_s", "s", "lower"),
    ("potentials.emergent_field_derivative.calls", "count", "lower"),
    ("potentials.emergent_field_derivative.self_s", "s", "lower"),
    ("potentials.emergent_field_integral.self_s", "s", "lower"),
    ("potentials.vanishing_subspace.self_s", "s", "lower"),
    ("kernel.weighted_orbitals.self_s", "s", "lower"),
    ("quadrature.polar_grid.self_s", "s", "lower"),
    ("quadrature.cartesian_grid.self_s", "s", "lower"),
    ("oracle.monomial.partition_exact.self_s", "s", "lower"),
    ("oracle.monomial.gaussian_pair_integral.calls", "count", "lower"),
    ("oracle.monomial.gaussian_pair_integral.self_s", "s", "lower"),
    ("oracle.energy.energy_identity_check.self_s", "s", "lower"),
    ("oracle.plasma.plasma_mcmc.self_s", "s", "lower"),
    ("oracle.plasma.moves", "count", "lower"),
    ("oracle.plasma.us_per_move", "us", "lower"),
    ("oracle.plasma.acceptance", "ratio", "higher"),
    ("oracle.charpoly.charpoly_moment_mc.self_s", "s", "lower"),
    ("oracle.charpoly.ess_per_sample", "ratio", "higher"),
    ("partition.log_partition.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class Tracer:
    """Records (id, name, start, end, parent, self time, ok, counters) spans."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._restore: list[tuple] = []
        self._next_id = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        counters = COUNTERS.get(name)
        spans = self.spans
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            self._next_id += 1
            frame = [self._next_id, 0.0]
            stack.append(frame)
            ok = False
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf()
                stack.pop()
                if parent is not None:
                    parent[1] += t1 - t0
                extra = counters(result) if ok and counters else None
                spans.append((frame[0], name, t0, t1,
                              parent[0] if parent else None,
                              t1 - t0 - frame[1], ok, extra))

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        originals = {}
        for module, attr in TRACED:
            try:
                mod = importlib.import_module(f"qhflux.{module}")
            except ImportError:
                continue
            owner, _, last = attr.rpartition(".")
            holder = getattr(mod, owner, None) if owner else mod
            fn = getattr(holder, last, None) if holder is not None else None
            if fn is None:
                continue
            wrapped = self._wrap(f"{module}.{attr}", fn)
            if owner:
                setattr(holder, last, wrapped)
                self._restore.append((holder, last, fn))
            else:
                originals[id(fn)] = (fn, wrapped)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "qhflux" or name.startswith("qhflux.")):
                continue
            for key, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, key, hit[1])
                    self._restore.append((mod, key, value))

    def uninstall(self):
        for holder, key, value in reversed(self._restore):
            setattr(holder, key, value)
        self._restore.clear()

    def take(self) -> list[tuple]:
        """Spans recorded since the last call."""
        out = self.spans[:]
        self.spans.clear()
        return out


def _per_field(spans: list[tuple], inner: str) -> float:
    """Calls of `inner` made inside completed field calls, per field call."""
    by_id = {s[0]: s for s in spans}
    fields = {s[0] for s in spans if s[1] == FIELD and s[6]}
    if not fields:
        return 0.0
    count = 0
    for s in spans:
        if s[1] != inner:
            continue
        parent = s[4]
        while parent is not None and parent not in fields:
            parent = by_id[parent][4] if parent in by_id else None
        count += parent is not None
    return count / len(fields)


def round_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer figures of one traced round."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for s in spans:
        calls[s[1]] = calls.get(s[1], 0) + 1
        self_s[s[1]] = self_s.get(s[1], 0.0) + s[5]
    plasma = [s for s in spans if s[1] == PLASMA and s[7]]
    proposals = sum(s[7]["proposals"] for s in plasma)
    accepted = sum(s[7]["accepted"] for s in plasma)
    plasma_time = sum(s[3] - s[2] for s in plasma)
    charpoly = [s[7]["ess_per_sample"] for s in spans if s[1] == CHARPOLY and s[7]]
    out = {}
    for name, _, _ in PER_LAYER:
        if name.endswith(".calls"):
            out[name] = float(calls.get(name[:-len(".calls")], 0))
        elif name.endswith(".self_s"):
            out[name] = self_s.get(name[:-len(".self_s")], 0.0)
    out["kernel.partials_per_field"] = _per_field(spans, "kernel.kernel_matrix_partials")
    out["clinalg.lu_per_field"] = _per_field(spans, "clinalg.lu_factor")
    out["oracle.plasma.moves"] = float(proposals)
    out["oracle.plasma.us_per_move"] = 1e6 * plasma_time / proposals if proposals else 0.0
    out["oracle.plasma.acceptance"] = accepted / proposals if proposals else 0.0
    out["oracle.charpoly.ess_per_sample"] = (sum(charpoly) / len(charpoly)) if charpoly else 0.0
    return out


def layer_metrics(rounds: list[list[tuple]], overhead_s: float) -> dict[str, float]:
    """Median over traced rounds of each per-layer figure."""
    per_round = [round_metrics(spans) for spans in rounds]
    out = {name: statistics.median(r[name] for r in per_round)
           for name, _, _ in PER_LAYER if name != "trace.overhead_s"}
    out["trace.overhead_s"] = overhead_s
    return out


def write_spans(path, rounds: list[list[tuple]]):
    """One JSON array per span: [round, id, name, start, end, parent]."""
    with open(path, "w") as fh:
        for k, spans in enumerate(rounds):
            for s in spans:
                fh.write(json.dumps([k, s[0], s[1], s[2], s[3], s[4]]))
                fh.write("\n")
