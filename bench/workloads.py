"""The four benchmark workloads: inputs from a seed, timed work, checks.

A workload's round is a fixed list of operations.  `make_round(seed, k)` draws
round k's inputs, `calls` lists the calls into qhflux that the runner times,
and `check` compares every output with `references` or with a property the
method must have.  It returns (label, edge, problem or None) per operation.
qhflux functions are looked up on their modules at call time, so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from qhflux import kernel, partition, potentials
from qhflux.harness import suites
from qhflux.oracle import charpoly, energy, monomial, plasma

import references as ref

# Statistical windows are 5 standard errors wide: two sets of runs make a few
# thousand such comparisons, and at 4 one false alarm would be likely.
Z_MAX = 5.0


@dataclass
class Op:
    """One call into qhflux; the runner times `run`, the checks read the result."""

    label: str
    fn: object
    edge: bool = False          # a fields edge-slice operation (known fault)
    value: object = None
    error: str | None = None

    def run(self):
        try:
            self.value = self.fn()
        except Exception as exc:  # one failing operation must not end the round
            self.error = f"{type(exc).__name__}: {exc}"


def rng_for(seed: int, k: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, k, stream]))


def disk_points(rng, count: int, radius: float) -> list[complex]:
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, count))
    phi = rng.uniform(0.0, 2.0 * math.pi, count)
    return [complex(v) for v in r * np.exp(1j * phi)]


def delta(N: int, kappa: float = 2.0) -> float:
    """Exclusion scale kappa sqrt(log N / N) of the merging classification."""
    return kappa * math.sqrt(math.log(N) / N)


def separated_points(rng, count: int, radius: float, min_sep: float,
                     fixed: list[complex] = ()) -> list[complex]:
    pts = list(fixed)
    while len(pts) < len(fixed) + count:
        cand = disk_points(rng, 1, radius)[0]
        if all(abs(cand - p) >= min_sep for p in pts):
            pts.append(cand)
    return pts


def pair(rng, s: float, center_radius: float) -> list[complex]:
    c = disk_points(rng, 1, center_radius)[0]
    angle = rng.uniform(0.0, 2.0 * math.pi)
    u = 0.5 * s * complex(math.cos(angle), math.sin(angle))
    return [c - u, c + u]


def close(a: float, b: float, tol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= tol


# ------------------------------------------------------------------ fields

@dataclass
class FieldCase:
    kind: str                   # global-<mode> | nomerge | pair | edge
    ws: tuple
    N: int
    cfg: object = None
    mp_upsilon: bool = False    # compare Upsilon with the mpmath determinant
    mp_tracer: int | None = None  # tracer whose A, V get the mpmath stencil


# Inputs that do not depend on the seed: holes beyond the reach of the
# kernel_matrix_partials seed exp(-b(|z|^2+|w|^2)/2), which underflows once
# b|w|^2 exceeds ~708.
EDGE_SLICE = [(1024, (0.9, -0.9)), (900, (0.9, -0.9)), (1024, (0.85, -0.85))]

UPSILON_TOL = 1e-10     # roundoff allowance on 0 <= Upsilon <= 1
UPSILON_MP_TOL = 1e-9   # |Upsilon - mpmath| (Upsilon is O(1))
A_MP_TOL = 1e-6         # |A_j - stencil| / N
V_MP_TOL = 1e-5         # |V_j - stencil| / N
NOMERGE_TOL = 1e-5      # closed-form no-merging fields, relative to N
PAIR_TOL = 0.01         # pair corrections a, v for sqrt(N) s <= 3


class Fields:
    name = "fields"

    def warmup(self):
        cfg = partition.HoleConfig(w=(0.1, -0.2j), N=4)
        partition.upsilon(cfg)
        potentials.emergent_field_derivative(cfg, 0)

    def prepare(self, seed: int) -> dict:
        refs = {}
        for N, ws in EDGE_SLICE:
            refs[(N, ws)] = (float(ref.upsilon_mp(ws, N)),
                             ref.fields_from_log_upsilon(ws, N, 0))
        return refs

    def make_round(self, seed: int, k: int) -> list[FieldCase]:
        rng = rng_for(seed, k, 1)
        cases = []
        N = 64
        d = delta(N)
        sep = 1.0 / math.sqrt(N)
        for _ in range(4):
            cases.append(FieldCase("global-separated", tuple(
                separated_points(rng, 4, 1.0 - d, sep)), N))
            s = math.exp(rng.uniform(math.log(1.0 / N), math.log(2.0 * d)))
            p = pair(rng, s, max(1.0 - d - s / 2.0, 0.05))
            cases.append(FieldCase("global-merging", tuple(
                separated_points(rng, 2, 1.0 - d, sep, p)), N))
            p1 = pair(rng, 0.5 / math.sqrt(N), 1.0 - d)
            p2 = pair(rng, 0.8 / math.sqrt(N), 1.0 - d)
            while min(abs(a - b) for a in p1 for b in p2) < sep:
                p2 = pair(rng, 0.8 / math.sqrt(N), 1.0 - d)
            cases.append(FieldCase("global-two-pairs", tuple(p1 + p2), N))
            p = pair(rng, 1.0 / N, 1.0 - d)
            cases.append(FieldCase("global-deep", tuple(
                separated_points(rng, 2, 1.0 - d, sep, p)), N))
        for N in (256, 1024):
            for _ in range(6):
                d = delta(N)
                cases.append(FieldCase("nomerge", tuple(
                    separated_points(rng, 2, 1.0 - d, 2.2 * d)), N))
        N = 512
        for i in range(6):
            y = 0.3 * 10.0 ** ((i + rng.uniform()) / 6.0)
            cases.append(FieldCase("pair", tuple(pair(rng, y / math.sqrt(N), 0.05)), N))
        # one mpmath determinant per class, one stencil on a rotating class
        classes = [[c for c in cases if c.kind.startswith("global")],
                   [c for c in cases if c.kind == "nomerge" and c.N == 256],
                   [c for c in cases if c.kind == "pair"],
                   [c for c in cases if c.kind == "nomerge" and c.N == 1024]]
        for i, group in enumerate(classes):
            chosen = group[int(rng.integers(len(group)))]
            chosen.mp_upsilon = True
            if i == k % len(classes):
                chosen.mp_tracer = int(rng.integers(len(chosen.ws)))
        cases += [FieldCase("edge", ws, N) for N, ws in EDGE_SLICE]
        for c in cases:
            c.cfg = partition.HoleConfig(w=c.ws, N=c.N)
        return cases

    def calls(self, cases: list[FieldCase]) -> list[Op]:
        def one(cfg):
            ups = partition.upsilon(cfg)
            out = []
            for j in range(cfg.n):
                f = potentials.emergent_field_derivative(cfg, j)
                out.append((np.array(f.A, dtype=float), float(f.V)))
            return ups, out

        return [Op(f"{c.kind}-N{c.N}", lambda c=c: one(c.cfg), c.kind == "edge") for c in cases]

    def check(self, cases, ops, refs) -> list[tuple]:
        return [(op.label, op.edge, op.error or self._check_one(c, op.value, refs))
                for c, op in zip(cases, ops)]

    def _check_one(self, c: FieldCase, value, refs) -> str | None:
        ups, fields = value
        N = c.N
        if not (math.isfinite(ups) and -UPSILON_TOL <= ups <= 1.0 + UPSILON_TOL):
            return f"Upsilon {ups!r} outside [0, 1]"
        for j, (A, V) in enumerate(fields):
            if not (np.all(np.isfinite(A)) and math.isfinite(V)):
                return f"non-finite field at tracer {j}"
            if V < -1e-6 * N:
                return f"V_{j} = {V} < -1e-6 N"
            if np.linalg.norm(A) / N > 10.0 or V / N ** 1.5 > 10.0:
                return f"field bound exceeded at tracer {j}: |A|/N, V/N^1.5 > 10"
        if c.kind == "nomerge":
            if abs(ups - 1.0) > 1e-6:
                return f"no-merging Upsilon {ups} differs from 1"
            for j, (A, V) in enumerate(fields):
                a_ref, v_ref = ref.no_merging_fields(c.ws, N, j)
                if np.linalg.norm(A - a_ref) / N > NOMERGE_TOL or abs(V - v_ref) / N > NOMERGE_TOL:
                    return f"tracer {j} departs from the no-merging closed form"
        if c.kind == "pair":
            s2 = abs(c.ws[0] - c.ws[1]) ** 2
            if abs(ups - (-math.expm1(-N * s2))) > 1e-4:
                return f"pair Upsilon {ups} departs from 1 - exp(-N s^2)"
            for j, (A, V) in enumerate(fields):
                a_ref, v_ref = ref.pair_fields(c.ws, N, j)
                a_base, _ = ref.no_merging_fields(c.ws, N, j)
                if np.linalg.norm(A - a_ref) > PAIR_TOL * np.linalg.norm(a_ref - a_base):
                    return f"A_{j} correction off by more than 1% of sqrt(N) a(y)"
                if abs(V - v_ref) > PAIR_TOL * abs(2.0 * N - v_ref):
                    return f"V_{j} correction off by more than 1% of N v(y)"
        if c.kind == "edge":
            ups_ref, (a_ref, v_ref) = refs[(N, c.ws)]
            return self._against_mp(ups, fields, N, ups_ref, 0, a_ref, v_ref)
        if c.mp_upsilon:
            ups_ref = float(ref.upsilon_mp(c.ws, N))
            j = c.mp_tracer
            a_ref, v_ref = ref.fields_from_log_upsilon(c.ws, N, j) if j is not None else (None, None)
            return self._against_mp(ups, fields, N, ups_ref, j, a_ref, v_ref)
        return None

    @staticmethod
    def _against_mp(ups, fields, N, ups_ref, j, a_ref, v_ref) -> str | None:
        if abs(ups - ups_ref) > UPSILON_MP_TOL:
            return f"Upsilon {ups!r} vs mpmath {ups_ref!r}"
        if j is None:
            return None
        A, V = fields[j]
        if np.linalg.norm(A - a_ref) / N > A_MP_TOL:
            return f"A_{j} {A} vs log-Upsilon stencil {a_ref}"
        if abs(V - v_ref) / N > V_MP_TOL:
            return f"V_{j} {V} vs log-Upsilon stencil {v_ref}"
        return None


# ------------------------------------------------------------------- tails

TAIL_N = (64, 256, 1024)
TAIL_SAMPLES = 200
TAIL_ORDERS = ((0, 0, 0, 0), (0, 1, 0, 0))
TAIL_PAIRS = 2
TAIL_TOL = 1e-9          # log-magnitude and phase of the tail against mpmath
KAPPA = 2.0


@dataclass
class TailInputs:
    suite_seed: int
    pairs: list = field(default_factory=list)   # (N, z, w, order)


class Tails:
    name = "tails"

    def warmup(self):
        suites.run_kernel_suite(N_list=(8, 16), samples=2, seed=0)
        for order in TAIL_ORDERS:
            kernel.kernel_diff_log(kernel.KernelSpec(b=8.0, M=10), 0.3, 0.2j, order)

    def prepare(self, seed: int) -> dict:
        return {}

    def make_round(self, seed: int, k: int) -> TailInputs:
        rng = rng_for(seed, k, 2)
        radius = 1.0 - delta(min(TAIL_N), KAPPA)
        inputs = TailInputs(suite_seed=int(rng.integers(2 ** 31)))
        for N in TAIL_N:
            for _ in range(TAIL_PAIRS):
                z, w = disk_points(rng, 2, radius)
                for order in TAIL_ORDERS:
                    inputs.pairs.append((N, z, w, order))
        return inputs

    def calls(self, inputs: TailInputs) -> list[Op]:
        ops = [Op("suite", lambda: suites.run_kernel_suite(
            N_list=TAIL_N, kappa=KAPPA, samples=TAIL_SAMPLES, seed=inputs.suite_seed))]
        for N, z, w, order in inputs.pairs:
            ops.append(Op(f"tail-N{N}-{order}", lambda N=N, z=z, w=w, order=order:
                          kernel.kernel_diff_log(kernel.KernelSpec(b=float(N), M=N + 2),
                                                 z, w, order)))
        return ops

    @staticmethod
    def row_ids() -> list[str]:
        ids = []
        for N in TAIL_N:
            ids.append(f"certificate-N{N}")
            ids += [f"supdiff-N{N}-a{t}" for t in range(3)]
        ids += [f"slope-a{t}" for t in range(3)]
        return ids + ["tail-vs-subtraction"]

    def check(self, inputs: TailInputs, ops, refs) -> list[tuple]:
        """One operation per suite row and per reference comparison."""
        suite = ops[0]
        rows = {r.case_id: r for r in suite.value.rows} if suite.value else {}
        out = []
        for case_id in self.row_ids():
            row = rows.get(case_id)
            problem = suite.error or (self._check_row(row) if row else "row missing from the report")
            out.append((case_id, False, problem))
        for (N, z, w, order), op in zip(inputs.pairs, ops[1:]):
            out.append((op.label, False, op.error or self._check_tail(N, z, w, order, op.value)))
        return out

    @staticmethod
    def _check_row(row) -> str | None:
        """Verdicts recomputed from the measured values and the paper's bounds."""
        m = row.measured
        cid = row.case_id
        if cid.startswith("certificate"):
            ok = m <= 0.0           # log(|K_inf - K_M| / certified bound)
        elif cid.startswith("supdiff"):
            t = int(cid[-1])
            ok = 0.0 <= m <= math.exp((1 + t - 2 * KAPPA ** 2) * math.log(row.N) + 6.0)
        elif cid.startswith("slope"):
            t = int(cid[-1])
            ok = m <= 1 + t - 2 * KAPPA ** 2 + 0.5
        else:
            ok = 0.0 <= m <= 1e-9   # tail route against direct subtraction at N = 8
        return None if ok and math.isfinite(m) else f"{cid}: measured {m!r} breaks its bound"

    @staticmethod
    def _check_tail(N, z, w, order, value) -> str | None:
        exact = ref.kernel_tail_mp(N, N + 2, z, w, d_z=order[1] == 1)
        log_mag = float(ref.mp.log(abs(exact)))
        phase = float(ref.mp.arg(exact))
        dphase = abs((value.phase - phase + math.pi) % (2 * math.pi) - math.pi)
        if abs(value.log_mag - log_mag) > TAIL_TOL * max(1.0, abs(log_mag)) or dphase > TAIL_TOL:
            return f"tail at N={N} order {order}: {value} vs mpmath ({log_mag}, {phase})"
        return None


# ------------------------------------------------------------------ plasma

CHARPOLY_CASES = ((1, (0.7,)), (8, (0.55 + 0.1j, -0.35 + 0.3j)))
CHARPOLY_CHAIN = dict(sweeps=5000, burn_in=1000, thin=10)
PLASMA_N = 16
PLASMA_CHAIN = dict(sweeps=3000, burn_in=1000, thin=5)
MARKOV_LIMIT = 1e6   # P(estimate / exact >= K) <= 1/K for an unbiased estimator


def _samples(chain: dict) -> int:
    return -(-(chain["sweeps"] - chain["burn_in"]) // chain["thin"])


class Plasma:
    name = "plasma"

    def warmup(self):
        cfg = plasma.PlasmaConfig(N=2, b=2.0, sweeps=3, burn_in=1, thin=1)
        plasma.plasma_mcmc(cfg)
        partition.log_partition(partition.HoleConfig(w=(0.5,), N=2))
        try:
            charpoly.charpoly_moment_mc(partition.HoleConfig(w=(0.5,), N=2), cfg)
        except charpoly.PrecisionError:
            pass  # the chain is far too short for an estimate; the call is a warm-up

    def prepare(self, seed: int) -> dict:
        refs = {}
        for N, ws in CHARPOLY_CASES:
            refs[N] = (ref.log_charpoly_moment(ws, N, N),
                       ref.log_charpoly_moment(ws + ws, N, N))
        return refs

    def make_round(self, seed: int, k: int) -> list[int]:
        rng = rng_for(seed, k, 3)
        return [int(s) for s in rng.integers(2 ** 31, size=3)]

    def calls(self, seeds: list[int]) -> list[Op]:
        ops = []
        for (N, ws), s in zip(CHARPOLY_CASES, seeds):
            cfg = partition.HoleConfig(w=ws, N=N, b=float(N))
            chain = plasma.PlasmaConfig(N=N, b=float(N), seed=s, **CHARPOLY_CHAIN)
            ops.append(Op(f"charpoly-N{N}",
                          lambda cfg=cfg, chain=chain: charpoly.charpoly_moment_mc(cfg, chain)))

        def chain_run():
            samples, diag = plasma.plasma_mcmc(plasma.PlasmaConfig(
                N=PLASMA_N, b=float(PLASMA_N), seed=seeds[2], **PLASMA_CHAIN))
            return (np.array([s.positions for s in samples]),
                    np.array([s.log_density for s in samples]), diag)

        ops.append(Op(f"plasma-N{PLASMA_N}", chain_run))
        return ops

    def check(self, seeds, ops, refs) -> list[tuple]:
        out = [(op.label, False, op.error or self._check_charpoly(N, ws, op.value, refs[N]))
               for (N, ws), op in zip(CHARPOLY_CASES, ops)]
        chain = ops[2]
        out.append((chain.label, False, chain.error or self._check_chain(*chain.value)))
        return out

    @staticmethod
    def _check_charpoly(N, ws, est, moments) -> str | None:
        log_m1, log_m2 = moments
        if N == 1:
            exact = math.log(abs(ws[0]) ** 2 + 1.0 / N)   # E|w - z|^2 = |w|^2 + 1/b
            if abs(log_m1 - exact) > 1e-12:
                return "Andreief moment disagrees with |w|^2 + 1/b"
        if est.n_samples != _samples(CHARPOLY_CHAIN):
            return f"{est.n_samples} samples, expected {_samples(CHARPOLY_CHAIN)}"
        if not (math.isfinite(est.log_estimate) and est.log_std_error > 0):
            return "estimate or its error is not finite and positive"
        if abs(est.log_exact - log_m1) > 1e-9 * max(1.0, abs(log_m1)):
            return f"closed-form log ratio {est.log_exact} vs Andreief {log_m1}"
        # relative SD of one sample from the exact first two moments
        rel_sd = math.sqrt(max(math.exp(log_m2 - 2.0 * log_m1) - 1.0, 0.0))
        se = rel_sd / math.sqrt(est.n_effective)
        ratio = math.exp(est.log_estimate - log_m1)
        if N == 1:
            if abs(ratio - 1.0) > Z_MAX * se:
                return f"moment ratio {ratio:.4f} is more than {Z_MAX} SE ({se:.4f}) from 1"
            return None
        # the product over holes and particles is heavy-tailed: below the
        # exact value a Z_MAX-SE window in the log holds, above it only
        # Markov's inequality does
        if math.log(ratio) < -Z_MAX * se or ratio > MARKOV_LIMIT:
            return f"moment ratio {ratio:.4g} outside [exp(-{Z_MAX} SE), {MARKOV_LIMIT:g}]"
        return None

    @staticmethod
    def _check_chain(pos, log_dens, diag) -> str | None:
        N, b = PLASMA_N, float(PLASMA_N)
        if pos.shape != (_samples(PLASMA_CHAIN), N) or not np.all(np.isfinite(pos)):
            return f"sample array of shape {pos.shape}"
        if not 0.0 < diag.acceptance_rate <= 1.0:
            return f"acceptance {diag.acceptance_rate:.3f} outside (0, 1]"
        for z, ld in zip(pos, log_dens):
            mine = ref.plasma_log_density(z, b)
            if abs(ld - mine) > 1e-9 * max(1.0, abs(mine)):
                return f"log density {ld} vs {mine}"
        r2 = np.abs(pos) ** 2
        pit = ref.radial_cdf(r2, N, b)
        for label, series, expected in (
                ("mean |z|^2", r2.mean(axis=1), (N + 1) / (2.0 * b)),
                ("mean F(|z|^2)", pit.mean(axis=1), 0.5),
                ("mean F(|z|^2)^2", (pit ** 2).mean(axis=1), 1.0 / 3.0)):
            m, se = ref.mean_and_se(series)
            if not abs(m - expected) <= Z_MAX * se:
                return f"{label} = {m:.5f} +- {se:.5f}, exact {expected:.5f}"
        return None


# --------------------------------------------------------------- crosscheck

CROSS_N = 32
PARTITION_CASES = [(N, n, b) for N in (1, 2, 3) for n in (1, 2) for b in (1.0, float(N), 2.5)]
ENERGY_CASES = ((1, 1.0, 1e-6), (2, 1.0, 1e-5))


class Crosscheck:
    name = "crosscheck"

    def warmup(self):
        cfg = partition.HoleConfig(w=(0.3,), N=2)
        # the default grid: the first call on arrays of that size costs ~0.6 s more
        potentials.emergent_field_integral(cfg, 0)
        potentials.emergent_field_derivative(cfg, 0)
        energy.energy_identity_check(1, q=1.0, packet=energy.GaussianPacket(center=0.3),
                                     grid_order=2)
        monomial.partition_exact(partition.HoleConfig(w=(0.3,), N=1, b=1.0))
        partition.log_partition(cfg)

    def prepare(self, seed: int) -> dict:
        return {}

    def make_round(self, seed: int, k: int) -> dict:
        rng = rng_for(seed, k, 4)
        # kappa = 2 leaves no no-merging region at N = 32; well separated means
        # separation >= 0.35 inside radius 0.55
        ws = tuple(separated_points(rng, 2, 0.55, 0.35))
        centers = disk_points(rng, len(ENERGY_CASES), 0.3)
        parts = []
        for N, n, b in PARTITION_CASES:
            pts = separated_points(rng, n, 0.9, 0.05)
            parts.append(partition.HoleConfig(w=tuple(pts), N=N, b=b))
        return {"pair": partition.HoleConfig(w=ws, N=CROSS_N), "centers": centers,
                "partition": parts}

    def calls(self, inputs: dict) -> list[Op]:
        cfg = inputs["pair"]
        ops = [Op(f"routes-j{j}", lambda j=j: (
            potentials.emergent_field_integral(cfg, j),
            potentials.emergent_field_derivative(cfg, j))) for j in range(cfg.n)]
        for (N, q, _), c in zip(ENERGY_CASES, inputs["centers"]):
            ops.append(Op(f"energy-N{N}", lambda N=N, q=q, c=c: energy.energy_identity_check(
                N, q=q, packet=energy.GaussianPacket(center=c, a=30.0))))
        for p in inputs["partition"]:
            ops.append(Op(f"partition-N{p.N}-n{p.n}", lambda p=p: (
                monomial.partition_exact(p), partition.log_partition(p).log_value)))
        return ops

    def check(self, inputs, ops, refs) -> list[tuple]:
        n_routes = inputs["pair"].n
        n_energy = len(ENERGY_CASES)
        out = [(op.label, False, op.error or self._check_routes(*op.value))
               for op in ops[:n_routes]]
        for (N, _, tol), op in zip(ENERGY_CASES, ops[n_routes:n_routes + n_energy]):
            out.append((op.label, False, op.error or self._check_energy(op.value, tol)))
        for p, op in zip(inputs["partition"], ops[n_routes + n_energy:]):
            out.append((op.label, False, op.error or self._check_partition(p, *op.value)))
        return out

    @staticmethod
    def _check_routes(integral, derivative) -> str | None:
        N = CROSS_N
        if not (np.all(np.isfinite(integral.A)) and math.isfinite(integral.V)):
            return "integral route is not finite"
        if np.linalg.norm(integral.A - derivative.A) / N >= 1e-6:
            return f"route gap in A_{integral.j}: {integral.A} vs {derivative.A}"
        if abs(integral.V - derivative.V) / N >= 1e-4:
            return f"route gap in V_{integral.j}: {integral.V} vs {derivative.V}"
        return None

    @staticmethod
    def _check_energy(res, tol) -> str | None:
        if not (math.isfinite(res.lhs) and math.isfinite(res.rhs) and res.rhs > 0):
            return f"energy sides not finite and positive: {res.lhs}, {res.rhs}"
        if res.relative_residual > tol:
            return f"energy identity residual {res.relative_residual:.3e} > {tol:g}"
        return None

    @staticmethod
    def _check_partition(cfg, exact, closed) -> str | None:
        truth = ref.log_normalization(cfg.w, cfg.N, cfg.b)
        tol = 1e-10 * max(1.0, abs(truth))
        if not close(exact, truth, tol):
            return f"monomial oracle {exact!r} vs Andreief {truth!r}"
        if not close(closed, truth, tol):
            return f"log_partition {closed!r} vs Andreief {truth!r}"
        return None


WORKLOADS = {w.name: w for w in (Fields, Tails, Plasma, Crosscheck)}
