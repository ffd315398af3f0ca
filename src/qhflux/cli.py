"""Command-line front end: field evaluation, chains, and verification suites.

Complex numbers on the command line use the literal form a+bi (decimal
components); lists are comma-separated.  Exit codes: 0 success / all rows
passed, 1 verification failure, 2 usage error, 3 numerical failure (a
degenerate configuration, a singular matrix or a precision loss).  All
numeric output is deterministic given --seed; CSV floats carry 17
significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .harness.classify import RegimeClassifier
from .harness.report import csv_field, fmt
from .harness.suites import (run_global_suite, run_kernel_suite, run_oracle_suite,
                             run_potential_suite, run_upsilon_suite)
from .kernel import (KernelSpec, kernel_diff_log, kernel_eval, kernel_infty,
                     kernel_tail_bound)
from .oracle.charpoly import PrecisionError, charpoly_moment_mc
from .oracle.plasma import PlasmaConfig, dump_samples, plasma_mcmc, radial_density_l1
from .partition import (HoleConfig, SingularConfigurationError, SingularMatrixError,
                        log_partition, upsilon, upsilon_prediction)
from .potentials import (DegenerateConfigurationError, asymptotic_prediction,
                         emergent_field_derivative, emergent_field_stack)

# each suite with the verify flags it takes besides --seed; a flag left
# unset is not passed, so the suite's own default applies
SUITES = {
    "kernel": (run_kernel_suite, ("N_list", "kappa", "samples")),
    "upsilon": (run_upsilon_suite, ("N_list", "kappa", "gamma", "configs",
                                    "sweep_points")),
    "potential": (run_potential_suite, ("N_list", "kappa", "gamma", "configs",
                                        "merging_N", "sweep_points")),
    "global": (run_global_suite, ("N", "n", "count", "kappa", "gamma")),
    "oracle": (run_oracle_suite, ()),
}


class UsageError(Exception):
    pass


def parse_complex(text: str) -> complex:
    try:
        return complex(text.strip().replace("i", "j"))
    except ValueError as err:
        raise UsageError(f"cannot parse complex literal {text!r}") from err


def parse_complex_list(text: str) -> tuple[complex, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(parse_complex(part) for part in text.split(","))


def parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(",") if p.strip())


def format_complex(z: complex) -> str:
    return f"{fmt(z.real)}{'+' if z.imag >= 0 else '-'}{fmt(abs(z.imag))}i"


def echo_config(args: argparse.Namespace, outdir: Path):
    payload = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "config.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_config(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _outdir(args) -> Path | None:
    return Path(args.out) if args.out else None


def _given(args, names) -> dict:
    """The named flags the user set; the others keep the library defaults."""
    return {k: getattr(args, k) for k in names if getattr(args, k) is not None}


def cmd_kernel(args) -> int:
    b = args.b if args.b is not None else float(args.N)
    M = args.M if args.M is not None else args.N
    spec = KernelSpec(b=b, M=M)
    z, w = parse_complex(args.z), parse_complex(args.w)
    k = kernel_eval(spec, z, w)
    kinf = kernel_infty(spec, z, w)
    print(f"K_M(z,w)   = {format_complex(k.to_complex())}  (log magnitude {fmt(k.log_mag)})")
    print(f"K_inf(z,w) = {format_complex(kinf.to_complex())}  (log magnitude {fmt(kinf.log_mag)})")
    diff = kernel_diff_log(spec, z, w)
    print(f"|K_inf - K_M| = {fmt(0.0 if diff.is_zero else math.exp(diff.log_mag))}")
    if abs(z * w.conjugate()) < 1.0 and M >= b:
        print(f"certified tail bound = {fmt(kernel_tail_bound(spec, z, w))}")
    return 0


def cmd_upsilon(args) -> int:
    holes = parse_complex_list(args.holes)
    cfg = HoleConfig(w=holes, N=args.N, b=args.b)
    classifier = RegimeClassifier(**_given(args, ("kappa", "gamma")))
    regime = classifier.classify(cfg)
    val = upsilon(cfg)
    print(f"Upsilon = {fmt(val)}")
    print(f"regime  = {regime}")
    if regime.kind in ("no-merging", "single-merging"):
        pred = upsilon_prediction(cfg, regime.kind, pair=regime.pair)
        print(f"prediction = {fmt(pred)}  deviation = {fmt(abs(val - pred))}")
    try:
        part = log_partition(cfg)
        print(f"log normalization = {fmt(part.log_value)}")
        print(f"  log gamma factor      = {fmt(part.log_gamma)}")
        print(f"  b sum |w|^2           = {fmt(part.b_sum_sq)}")
        print(f"  -2 log |Vandermonde|  = {fmt(part.minus_two_log_vandermonde)}")
        print(f"  log Upsilon           = {fmt(part.log_upsilon)}")
    except SingularConfigurationError:
        print("log normalization undefined: coincident holes")
    return 0


def cmd_potentials(args) -> int:
    holes = parse_complex_list(args.holes)
    cfg = HoleConfig(w=holes, N=args.N)
    j = args.j - 1
    if not 0 <= j < cfg.n:
        raise UsageError(f"tracer index --j {args.j} outside 1..{cfg.n}")
    classifier = RegimeClassifier(**_given(args, ("kappa", "gamma")))
    regime = classifier.classify(cfg)
    field = emergent_field_derivative(cfg, j)
    print(f"A = ({fmt(field.A[0])}, {fmt(field.A[1])})")
    print(f"V = {fmt(field.V)}")
    print(f"regime = {regime}")
    if regime.kind in ("no-merging", "single-merging"):
        pred = asymptotic_prediction(cfg, j, regime.kind, pair=regime.pair)
        dev_a = float(np.linalg.norm(field.A - pred.A))
        print(f"predicted A = ({fmt(pred.A[0])}, {fmt(pred.A[1])})   |A - pred| = {fmt(dev_a)}")
        print(f"predicted V = {fmt(pred.V)}   |V - pred| = {fmt(abs(field.V - pred.V))}")
    return 0


def parse_grid(text: str):
    if not text.strip():
        return np.zeros(0), np.zeros(0)
    try:
        xpart, ypart = text.split(",")
        x0, x1, nx = xpart.split(":")
        y0, y1, ny = ypart.split(":")
        xs = np.linspace(float(x0), float(x1), int(nx)) if int(nx) > 0 else np.zeros(0)
        ys = np.linspace(float(y0), float(y1), int(ny)) if int(ny) > 0 else np.zeros(0)
        return xs, ys
    except ValueError as err:
        raise UsageError(f"cannot parse grid spec {text!r}; "
                         "expected x0:x1:nx,y0:y1:ny") from err


def cmd_field_map(args) -> int:
    fixed = parse_complex_list(args.holes)
    HoleConfig(w=fixed, N=args.N).require_distinct()
    xs, ys = parse_grid(args.grid)
    classifier = RegimeClassifier(**_given(args, ("kappa", "gamma")))
    j = len(fixed)
    header = "x,y,A_x,A_y,V,regime,predicted_A_x,predicted_A_y,predicted_V".split(",")
    rows = []
    for x in xs:  # one field call per grid column
        holes = np.array([fixed + (complex(x, y),) for y in ys]).reshape(len(ys), j + 1)
        a_col, v_col, refusals = emergent_field_stack(args.N, holes, j)
        for k, y in enumerate(ys):
            if k in refusals:
                coincident = isinstance(refusals[k], SingularConfigurationError)
                rows.append([fmt(x), fmt(y), *["nan"] * 3,
                             "coincident" if coincident else "degenerate", *["nan"] * 3])
                continue
            cfg = HoleConfig(w=holes[k], N=args.N)
            regime = classifier.classify(cfg)
            pa, pv = np.array([math.nan, math.nan]), math.nan
            if regime.kind in ("no-merging", "single-merging"):
                pred = asymptotic_prediction(cfg, j, regime.kind, pair=regime.pair)
                pa, pv = pred.A, pred.V
            rows.append([fmt(x), fmt(y), fmt(a_col[k, 0]), fmt(a_col[k, 1]), fmt(v_col[k]),
                         csv_field(str(regime)), fmt(pa[0]), fmt(pa[1]), fmt(pv)])
    if args.format == "json":
        text = json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
        name = "field_map.json"
    else:
        text = "\n".join(",".join(row) for row in [header, *rows]) + "\n"
        name = "field_map.csv"
    out = _outdir(args)
    if out:
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text)
        echo_config(args, out)
        print(f"wrote {out / name} ({len(rows)} rows)")
    else:
        sys.stdout.write(text)
    return 0


def cmd_mcmc(args) -> int:
    holes = parse_complex_list(args.holes)
    cfg = PlasmaConfig(N=args.N, b=args.b if args.b is not None else float(args.N),
                       holes=holes, p=args.p, mu=args.mu, sweeps=args.sweeps,
                       burn_in=args.burn_in, thin=args.thin,
                       proposal_scale=args.proposal_scale, seed=args.seed)
    samples, diag = plasma_mcmc(cfg)
    r2 = float(np.mean([np.mean(np.abs(s.positions) ** 2) for s in samples]))
    print(f"samples = {len(samples)}  acceptance = {fmt(diag.acceptance_rate)}")
    print(f"tau_int (log density, in samples) = {fmt(diag.tau_int)}")
    print(f"mean |z|^2 = {fmt(r2)}")
    if not holes and cfg.mu == 1:
        l1 = radial_density_l1(cfg, samples)
        print(f"L1 distance to exact radial profile = {fmt(l1)}")
    if args.dump:
        dump_samples(args.dump, cfg.N, samples)
        print(f"dumped {len(samples)} samples to {args.dump}")
    out = _outdir(args)
    if out:
        echo_config(args, out)
    return 0


def cmd_charpoly(args) -> int:
    holes = parse_complex_list(args.holes)
    b = args.b if args.b is not None else float(args.N)
    cfg = HoleConfig(w=holes, N=args.N, b=b)
    # the estimator draws exact samples; a chain of `samples` sweeps with no
    # burn-in or thinning has that many
    mcmc = PlasmaConfig(N=args.N, b=b, sweeps=args.samples, burn_in=0, thin=1,
                        seed=args.seed)
    est = charpoly_moment_mc(cfg, mcmc)
    print(f"log MC estimate = {fmt(est.log_estimate)} +- {fmt(est.log_std_error)}")
    print(f"log exact ratio = {fmt(est.log_exact)}")
    print(f"z-score = {fmt(est.z_score)}  samples = {est.n_samples}")
    return 0 if abs(est.z_score) <= 3.0 else 1


def run_suites(names, args) -> int:
    out = _outdir(args)
    all_ok = True
    for name in names:
        run, flags = SUITES[name]
        report = run(**_given(args, ("seed",) + flags))
        ok = report.all_passed
        all_ok &= ok
        print(f"suite {name}: {'PASS' if ok else 'FAIL'} "
              f"({len(report.rows)} rows, max ratio {fmt(report.max_ratio)})")
        for row in report.failures:
            print(f"  FAIL {row.case_id}: {row.quantity} = {fmt(row.measured)}")
        if out:
            out.mkdir(parents=True, exist_ok=True)
            (out / f"{name}.csv").write_text(report.to_csv())
            (out / f"{name}.summary.json").write_text(report.to_json())
    if out:
        echo_config(args, out)
    return 0 if all_ok else 1


def cmd_verify(args) -> int:
    if args.config:
        # a stored value fills only flags left unset on the command line
        for key, value in load_config(args.config).items():
            if key in ("suite", "out", "config") or not hasattr(args, key):
                continue
            if getattr(args, key) is None:
                setattr(args, key, tuple(value) if key == "N_list" and value else value)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    return run_suites(names, args)


def cmd_report(args) -> int:
    out = _outdir(args)
    if out is None or not out.is_dir():
        raise UsageError("report needs --out pointing at a results directory")
    ok = True
    found = False
    for path in sorted(out.glob("*.summary.json")):
        found = True
        summary = load_config(path)
        status = "PASS" if summary.get("passed") else "FAIL"
        ok &= bool(summary.get("passed"))
        print(f"{summary.get('suite', path.stem)}: {status} "
              f"({summary.get('rows', '?')} rows)")
        for failure in summary.get("failures", []):
            print(f"  FAIL {failure}")
    if not found:
        raise UsageError(f"no suite summaries found in {out}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qhflux",
        description="Determinantal quasi-hole numerics: kernels, partition "
                    "functions, emergent potentials, and verification suites.")
    sub = ap.add_subparsers(dest="command", required=True)

    def seed(p, default=None):
        p.add_argument("--seed", type=int, default=default)

    def out(p):
        p.add_argument("--out", type=str, default=None,
                       help="output directory (config echoed for provenance)")

    def regime(p):  # unset: the RegimeClassifier or suite default
        p.add_argument("--kappa", type=float, default=None)
        p.add_argument("--gamma", type=float, default=None)

    p = sub.add_parser("kernel", help="evaluate the truncated and full kernels")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--z", type=str, required=True)
    p.add_argument("--w", type=str, required=True)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("upsilon", help="Upsilon determinant and normalization")
    regime(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--holes", type=str, required=True)
    p.set_defaults(func=cmd_upsilon)

    p = sub.add_parser("potentials", help="emergent fields at one tracer")
    regime(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--holes", type=str, required=True)
    p.add_argument("--j", type=int, default=1, help="tracer index, 1-based")
    p.set_defaults(func=cmd_potentials)

    p = sub.add_parser("field-map", help="tabulate fields for a moving hole")
    out(p)
    regime(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--holes", type=str, default="", help="fixed holes")
    p.add_argument("--grid", type=str, required=True,
                   help="x0:x1:nx,y0:y1:ny for the moving hole")
    p.set_defaults(func=cmd_field_map)

    p = sub.add_parser("mcmc", help="sample the 2D Coulomb-gas density")
    seed(p, 0)
    out(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--holes", type=str, default="")
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--mu", type=int, default=1)
    p.add_argument("--sweeps", type=int, default=20000)
    p.add_argument("--burn-in", dest="burn_in", type=int, default=1000)
    p.add_argument("--thin", type=int, default=10)
    p.add_argument("--proposal-scale", dest="proposal_scale", type=float, default=None)
    p.add_argument("--dump", type=str, default=None,
                   help="binary sample dump (little-endian int64 N, then 2N f8 per sample)")
    p.set_defaults(func=cmd_mcmc)

    p = sub.add_parser("charpoly", help="characteristic-polynomial moment vs exact")
    seed(p, 0)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--holes", type=str, required=True)
    p.add_argument("--samples", type=int, default=10000,
                   help="i.i.d. draws from the no-hole Ginibre ensemble")
    p.set_defaults(func=cmd_charpoly)

    p = sub.add_parser("verify", help="run verification suites")
    seed(p)
    out(p)
    regime(p)
    p.add_argument("--suite", choices=tuple(SUITES) + ("all",), required=True)
    p.add_argument("--config", type=str, default=None,
                   help="JSON config (as echoed by a previous run) to replay")
    p.add_argument("--N-list", dest="N_list", type=parse_int_list, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--configs", type=int, default=None)
    p.add_argument("--sweep-points", dest="sweep_points", type=int, default=None)
    p.add_argument("--merging-N", dest="merging_N", type=int, default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--count", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="summarize suite results in a directory")
    out(p)
    p.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (SingularConfigurationError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (DegenerateConfigurationError, SingularMatrixError, PrecisionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
