import contextlib
import io
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhflux import cli
from qhflux.cli import (UsageError, load_config, main, parse_complex,
                        parse_complex_list, parse_grid)
from qhflux.harness.report import fmt
from qhflux.harness.suites import run_potential_suite, run_upsilon_suite
from qhflux.partition import HoleConfig
from qhflux.potentials import DegenerateConfigurationError, emergent_field_derivative


def test_parse_complex_forms():
    assert parse_complex("0.3+0i") == 0.3
    assert parse_complex("-0.3+0i") == -0.3
    assert parse_complex("0.5-0.25i") == 0.5 - 0.25j
    assert parse_complex("0.7") == 0.7
    assert parse_complex("1i") == 1j
    with pytest.raises(UsageError):
        parse_complex("zebra")


def test_parse_complex_list():
    assert parse_complex_list("0.3+0i,-0.3+0i") == (0.3, -0.3)
    assert parse_complex_list("") == ()


def test_parse_grid():
    xs, ys = parse_grid("-1:1:5,0:2:3")
    assert len(xs) == 5 and len(ys) == 3
    xs, ys = parse_grid("")
    assert len(xs) == 0
    with pytest.raises(UsageError):
        parse_grid("1:2")


def test_kernel_subcommand(capsys):
    assert main(["kernel", "--N", "64", "--z", "0.3", "--w", "0.4"]) == 0
    out = capsys.readouterr().out
    assert "K_M(z,w)" in out and "tail bound" in out


def test_kernel_prints_log_magnitude_of_k_inf(capsys):
    # K_inf = e^-1043.8 underflows to -0+0i: its log magnitude tells the value
    assert main(["kernel", "--N", "1024", "--z", "0.9+0.3i", "--w=-0.5+0.6i"]) == 0
    line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("K_inf"))
    log_mag = float(line.split("(log magnitude ")[1].rstrip(")"))
    # log(b/pi) - b(|z|^2 + |w|^2)/2 + b Re(z wbar)
    exact = math.log(1024 / math.pi) - 512 * (0.9 + 0.61) + 1024 * -0.27
    assert log_mag == pytest.approx(exact, rel=1e-14)


def test_potentials_subcommand(capsys):
    code = main(["potentials", "--N", "256", "--holes", "0.3+0i,-0.3+0i", "--j", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "A = (" in out and "V = " in out and "regime = no-merging" in out


def test_potentials_bad_index():
    assert main(["potentials", "--N", "16", "--holes", "0.3+0i", "--j", "5"]) == 2


def test_unknown_flag_exits_2():
    # flags a subcommand does not read, and the removed oracle subcommand,
    # are usage errors
    for argv in (["kernel", "--bogus", "1"],
                 ["kernel", "--N", "64", "--z", "0.3", "--w", "0.4", "--seed", "1"],
                 ["kernel", "--N", "64", "--z", "0.3", "--w", "0.4", "--holes", "0.1"],
                 ["verify", "--suite", "oracle", "--format", "json"],
                 ["charpoly", "--N", "1", "--holes", "0.7+0i", "--thin", "2"],
                 ["oracle"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


def test_potentials_degenerate_exits_3(capsys):
    assert main(["potentials", "--N", "64", "--holes", "0+0i,1e-13+0i"]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_far_outside_hole_refused_with_zero_ratio(capsys):
    # prod Q underflows to 0 for the hole at 1e8, and so does Upsilon: the
    # correlation ratio is 0, not 0/0
    assert main(["potentials", "--N", "8", "--holes", "1e8+0i,0.3+0i"]) == 3
    err = capsys.readouterr().err
    assert "Upsilon / prod Q = 0.0 below" in err and "nan" not in err


def test_charpoly_precision_error_exits_3(capsys):
    assert main(["charpoly", "--N", "1", "--holes", "0.7+0i", "--samples", "100"]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_field_map_csv(tmp_path, capsys):
    code = main(["field-map", "--N", "32", "--holes", "0.25+0i",
                 "--grid=-0.4:0.4:3,-0.4:0.4:3", "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "field_map.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0].startswith("x,y,A_x,A_y,V,regime")
    assert len(lines) == 10
    cfg = load_config(tmp_path / "config.json")
    assert cfg["N"] == 32


def test_field_map_empty_grid(tmp_path):
    code = main(["field-map", "--N", "16", "--holes", "", "--grid", "",
                 "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "field_map.csv").read_text().strip().split("\n")
    assert len(lines) == 1  # header only


def test_field_map_flags_coincident_row(tmp_path):
    code = main(["field-map", "--N", "16", "--holes", "0+0i",
                 "--grid", "0:0:1,0:0:1", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "field_map.csv").read_text().strip().split("\n")
    assert len(lines) == 2
    assert "coincident" in lines[1]


def test_field_map_radial_line_tangential(tmp_path):
    # single moving hole: A is tangential with |A| ~ N r
    code = main(["field-map", "--N", "64", "--holes", "",
                 "--grid", "0.1:0.4:4,0:0:1", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "field_map.csv").read_text().strip().split("\n")[1:]
    for line in lines:
        parts = line.split(",")
        x, a_x, a_y = float(parts[0]), float(parts[2]), float(parts[3])
        assert abs(a_x) < 1e-8
        assert a_y == pytest.approx(64 * x, rel=1e-9)


def test_field_map_dip_near_fixed_hole(tmp_path):
    # moving hole one magnetic length from the fixed one: the scalar
    # potential dips by ~ N v(1) below 2N
    import math
    N = 64
    x_probe = 0.25 + 1.0 / math.sqrt(N)
    code = main(["field-map", "--N", str(N), "--holes", "0.25+0i",
                 "--grid", f"{x_probe}:{x_probe}:1,0:0:1", "--out", str(tmp_path)])
    assert code == 0
    line = (tmp_path / "field_map.csv").read_text().strip().split("\n")[1]
    parts = line.split(",")
    assert len(parts) == 9  # the merging pair's regime carries no comma
    v_val = float(parts[4])
    v_one = 2.0 / (math.e - 1.0) ** 2
    assert v_val == pytest.approx(N * (2.0 - v_one), rel=1e-4)
    assert "single-merging" in parts[5]

    code = main(["field-map", "--N", str(N), "--holes", "0.25+0i", "--format", "json",
                 "--grid", f"{x_probe}:{x_probe}:1,0:0:1", "--out", str(tmp_path / "json")])
    assert code == 0
    [row] = json.loads((tmp_path / "json" / "field_map.json").read_text())
    assert row["regime"] == parts[5]
    assert row["predicted_V"] == parts[8]


def test_verify_oracle_like_suite_and_report(tmp_path, capsys):
    code = main(["verify", "--suite", "kernel", "--seed", "7",
                 "--N-list", "64", "--samples", "40", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "kernel.csv").exists()
    assert (tmp_path / "kernel.summary.json").exists()
    csv_first = (tmp_path / "kernel.csv").read_bytes()

    code = main(["verify", "--suite", "kernel", "--seed", "7",
                 "--N-list", "64", "--samples", "40", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "kernel.csv").read_bytes() == csv_first  # byte-identical

    code = main(["report", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "kernel: PASS" in out


def test_config_echo_round_trip(tmp_path):
    args = ["verify", "--suite", "kernel", "--seed", "5", "--N-list", "64",
            "--samples", "25", "--out", str(tmp_path)]
    assert main(args) == 0
    cfg = load_config(tmp_path / "config.json")
    assert cfg["suite"] == "kernel"
    assert cfg["seed"] == 5
    assert tuple(cfg["N_list"]) == (64,)
    assert cfg["kappa"] is None  # unset: the suite default
    # replaying the echoed config reproduces the outputs
    first = (tmp_path / "kernel.csv").read_bytes()
    replay = ["verify", "--suite", cfg["suite"], "--seed", str(cfg["seed"]),
              "--N-list", ",".join(str(x) for x in cfg["N_list"]),
              "--samples", str(cfg["samples"]), "--out", str(tmp_path)]
    assert main(replay) == 0
    assert (tmp_path / "kernel.csv").read_bytes() == first
    # consuming the echoed file directly does too
    saved = tmp_path / "saved_config.json"
    saved.write_bytes((tmp_path / "config.json").read_bytes())
    assert main(["verify", "--suite", "kernel", "--config", str(saved),
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "kernel.csv").read_bytes() == first


def test_verify_config_fills_only_unset_flags(tmp_path):
    # a stored config must not override --suite or --seed given alongside it
    stored, out = tmp_path / "K", tmp_path / "D"
    assert main(["verify", "--suite", "kernel", "--N-list", "128", "--samples", "5",
                 "--out", str(stored)]) == 0
    assert main(["verify", "--suite", "upsilon", "--seed", "3",
                 "--config", str(stored / "config.json"), "--out", str(out)]) == 0
    assert not (out / "kernel.csv").exists()
    expected = run_upsilon_suite(N_list=(128,), seed=3).to_csv()
    assert (out / "upsilon.csv").read_text() == expected
    cfg = load_config(out / "config.json")
    assert (cfg["suite"], cfg["seed"], cfg["N_list"]) == ("upsilon", 3, [128])


@pytest.mark.parametrize("suite, run", [("upsilon", run_upsilon_suite),
                                        ("potential", run_potential_suite)])
def test_verify_defaults_are_suite_defaults(tmp_path, suite, run):
    assert main(["verify", "--suite", suite, "--out", str(tmp_path)]) == 0
    assert (tmp_path / f"{suite}.csv").read_text() == run(seed=0).to_csv()


def test_mcmc_subcommand_with_dump(tmp_path, capsys):
    code = main(["mcmc", "--N", "4", "--b", "4", "--sweeps", "600",
                 "--burn-in", "100", "--thin", "10", "--seed", "3",
                 "--dump", str(tmp_path / "chain.bin")])
    assert code == 0
    out = capsys.readouterr().out
    assert "acceptance" in out and "tau_int" in out
    from qhflux.oracle.plasma import load_samples
    samples = load_samples(tmp_path / "chain.bin")
    assert len(samples) == 50
    assert samples[0].shape == (4,)


def test_mcmc_invalid_config_exits_2(capsys):
    base = ["mcmc", "--N", "4", "--sweeps", "20", "--burn-in", "5"]
    for flags in (["--b", "0"], ["--thin", "0"], ["--N", "0"]):
        assert main(base + flags) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_upsilon_rounding_noise_exits_3(capsys):
    assert main(["upsilon", "--N", "64", "--holes", "0.1+0.05j,0.1000000001+0.05j"]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_charpoly_subcommand(capsys):
    code = main(["charpoly", "--N", "1", "--holes", "0.7+0i",
                 "--samples", "10000", "--seed", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "z-score" in out and "samples = 10000" in out


def test_field_map_flags_degenerate_row(tmp_path):
    # a mover 1e-6 from the fixed hole at N = 256 merges too deep for V
    assert main(["field-map", "--N", "256", "--holes", "0.05+0.02i",
                 "--grid", "0.050001:0.050001:1,0.02:0.02:1", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "field_map.csv").read_text().strip().split("\n")
    assert lines[1].split(",")[2:6] == ["nan", "nan", "nan", "degenerate"]


def test_field_map_propagates_unexpected_errors(tmp_path, monkeypatch):
    def broken(N, holes, j):
        raise RuntimeError("not a numerical degeneracy")

    monkeypatch.setattr(cli, "emergent_field_stack", broken)
    with pytest.raises(RuntimeError):
        main(["field-map", "--N", "16", "--holes", "0.25+0i",
              "--grid", "0:0:1,0:0:1", "--out", str(tmp_path)])


@pytest.mark.parametrize("flags", [["--holes", "0.1+0i,0.1+0i", "--grid", "0:0.2:3,0:0:1"],
                                   ["--holes", "nan+0i", "--grid", ""],
                                   ["--N", "0", "--grid", ""]])
def test_field_map_invalid_input_exits_2(capsys, flags):
    # the fixed holes and N are refused before any grid point is evaluated
    argv = ["field-map", "--N", "16", *flags]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


grid_axis = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.integers(1, 4))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(N=st.integers(1, 512), xa=grid_axis, ya=grid_axis, data=st.data())
def test_field_map_rows_match_one_point_fields(N, xa, ya, data):
    # every row: coincident iff the mover is a fixed hole, degenerate iff the
    # one-point field call refuses it, else that call's A and V to the bit
    xs, ys = (np.linspace(lo, hi, k) for lo, hi, k in (xa, ya))
    on_grid = st.tuples(st.sampled_from(xs.tolist()), st.sampled_from(ys.tolist()))
    near = st.sampled_from([0.0, 1e-7, 1e-3, 0.1])
    picks = data.draw(st.lists(st.tuples(on_grid, near), min_size=1, max_size=3))
    fixed = tuple(dict.fromkeys(complex(x + d, y) for (x, y), d in picks))
    grid = f"{xa[0]!r}:{xa[1]!r}:{xa[2]},{ya[0]!r}:{ya[1]!r}:{ya[2]}"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["field-map", "--N", str(N), f"--grid={grid}", "--holes="
                     + ",".join(f"{w.real!r}{w.imag:+.17g}i" for w in fixed)]) == 0
    rows = [line.split(",") for line in out.getvalue().strip().split("\n")[1:]]
    assert len(rows) == len(xs) * len(ys)
    for row, (x, y) in zip(rows, itertools.product(xs, ys)):
        mover = complex(x, y)
        if mover in fixed:
            assert row[5] == "coincident"
            continue
        try:
            field = emergent_field_derivative(HoleConfig(w=fixed + (mover,), N=N), len(fixed))
        except DegenerateConfigurationError:
            assert row[5] == "degenerate"
            continue
        assert row[2:5] == [fmt(field.A[0]), fmt(field.A[1]), fmt(field.V)]


def test_non_finite_hole_exits_2(capsys):
    for argv in (["upsilon", "--N", "8", "--holes", "nan+0i"],
                 ["potentials", "--N", "8", "--holes", "nan+0i,0.3+0i"]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_infeasible_suite_parameters_exit_2(tmp_path, capsys):
    for flags in (["--suite", "global", "--n", "1", "--count", "4"],
                  ["--suite", "global", "--n", "0", "--count", "4"],
                  ["--suite", "potential", "--N-list", "4", "--configs", "2"],
                  ["--suite", "kernel", "--samples", "0"]):
        assert main(["verify", *flags, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
