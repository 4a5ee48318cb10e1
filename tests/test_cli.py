"""Tests of the command-line interface: schemas, exit codes, config."""

import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest

import fousldp
from fousldp import cli, sim
from fousldp.energy import c_star, rate_energy, tail_energy
from fousldp.model import ModelParams
from fousldp.sim import RngSpec, make_grid, simulate_martingale_batch, simulate_martingale_path

P = ModelParams(theta=-1.0, hurst=0.75)
MODEL = ["--theta", "-1", "--hurst", "0.75"]

#: the mc and oracle headers are the MCReport and OracleReport fields, in order
MC_HEADER = "label,estimate,std_error,replicates,closed_form,z_score,underpowered,seed"
ORACLE_HEADER = "label,lhs,rhs,abs_err,rel_err,note"


def _run(argv):
    return cli.run(argv)


def _header(text):
    return text.splitlines()[0]


def _rows(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class TestRateCommand:
    def test_csv_schema_and_values(self, capsys):
        code = _run(
            ["rate", "--theta", "-1", "--hurst", "0.75", "--target", "energy",
             "--c", "0.5", "--c", "1.0"]
        )
        assert code == cli.EXIT_OK
        rows = _rows(capsys.readouterr().out)
        assert [r["c"] for r in rows] == [
            f"{0.5:.17e}", f"{1.0:.17e}"
        ]
        assert float(rows[1]["rate"]) == rate_energy(P, 1.0)
        assert rows[0]["branch"] == "GAUSSIAN"

    def test_missing_c_is_usage_error(self, capsys):
        code = _run(["rate", "--theta", "-1", "--hurst", "0.75", "--target", "energy"])
        assert code == cli.EXIT_USAGE

    @pytest.mark.parametrize("target, levels", [
        ("energy", {-0.5: "INFINITE", 0.0: "INFINITE", 0.3: "GAUSSIAN", 0.7: "EASY",
                    c_star(P): "BOUNDARY", 3.0: "HARD"}),
        ("mle", {-0.5: "EASY", P.theta / 3.0: "BOUNDARY", -0.1: "HARD", 0.0: "ZERO",
                 0.5: "HARD"}),
    ], ids=["energy", "mle"])
    def test_every_branch_is_labelled(self, target, levels, capsys):
        argv = ["rate", "--theta", "-1", "--hurst", "0.75", "--target", target]
        for c in levels:
            argv += ["--c", repr(c)]
        assert _run(argv) == cli.EXIT_OK
        rows = _rows(capsys.readouterr().out)
        assert [r["branch"] for r in rows] == list(levels.values())

    def test_mle_target(self, capsys):
        code = _run(
            ["rate", "--theta", "-1", "--hurst", "0.75", "--target", "mle",
             "--c", "-0.5"]
        )
        assert code == cli.EXIT_OK
        rows = _rows(capsys.readouterr().out)
        assert float(rows[0]["rate"]) == pytest.approx(0.125, abs=1e-15)


class TestTailCommand:
    def test_branch_and_value(self, capsys):
        code = _run(
            ["tail", "--theta", "-1", "--hurst", "0.75", "--target", "energy",
             "--T", "40", "--c", "0.7", "--order1"]
        )
        assert code == cli.EXIT_OK
        row = _rows(capsys.readouterr().out)[0]
        assert row["branch"] == "EASY"
        ref = tail_energy(P, 0.7, 40.0, with_order1=True)
        assert float(row["value"]) == ref.value(40.0)
        assert float(row["order1"]) == ref.order1

    @pytest.mark.parametrize("c, branch", [("4", "HARD"), (repr(c_star(P)), "BOUNDARY")])
    def test_order1_away_from_the_interior_branch(self, c, branch, capsys):
        # no order-1 coefficient there: the cell is empty and every other
        # cell is the bytes of the run without --order1
        argv = ["tail", "--theta", "-1", "--hurst", "0.75", "--target", "energy",
                "--T", "100", "--c", c]
        assert _run(argv) == cli.EXIT_OK
        plain = capsys.readouterr().out
        assert _run(argv + ["--order1"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert out == plain
        row = _rows(out)[0]
        assert row["branch"] == branch
        assert row["order1"] == ""

    def test_law_of_large_numbers_point_is_invalid(self, capsys):
        code = _run(
            ["tail", "--theta", "-1", "--hurst", "0.75", "--target", "energy",
             "--c", "0.5"]
        )
        assert code == cli.EXIT_INVALID
        assert capsys.readouterr().err == (
            "invalid parameters: c = -1/(2 theta) is the law-of-large-numbers"
            " point, not a tail\n"
        )

    def test_invalid_hurst_exit_code(self, capsys):
        code = _run(
            ["tail", "--theta", "-1", "--hurst", "0.3", "--target", "energy",
             "--c", "0.7"]
        )
        assert code == cli.EXIT_INVALID

    def test_order1_with_mle_target_is_invalid(self, capsys):
        code = _run(
            ["tail", "--theta", "-1", "--hurst", "0.75", "--target", "mle",
             "--c", "-0.6", "--order1"]
        )
        err = capsys.readouterr().err
        assert code == cli.EXIT_INVALID
        assert "order-1 correction" in err
        assert "Traceback" not in err

    def test_hurst_just_above_half(self, capsys):
        # 1 - sin(pi H) cancels to 0 in floating point at H = 1/2 + 1e-10;
        # the rates and tails must still come out finite
        near = []
        for hurst in ("0.5000000001", "0.500001"):
            for target, c in (("energy", "0.7"), ("mle", "-0.6")):
                code = _run(["tail", "--theta", "-1", "--hurst", hurst,
                             "--target", target, "--c", c])
                assert code == cli.EXIT_OK
                row = _rows(capsys.readouterr().out)[0]
                near.append((float(row["rate"]), float(row["value"])))
        for close, far in zip(near[:2], near[2:]):
            assert all(math.isfinite(v) for v in close)
            assert close == pytest.approx(far, rel=1e-9)


class TestSaddleCommand:
    def test_columns(self, capsys):
        code = _run(
            ["saddle", "--theta", "-1", "--hurst", "0.75", "--T", "50",
             "--c", "4.0"]
        )
        assert code == cli.EXIT_OK
        row = _rows(capsys.readouterr().out)[0]
        for key in ("a_T", "phi_T", "scale", "a0", "a1", "a2", "expansion"):
            assert key in row
        assert row["scale"] == "1/T"

    def test_expansion_at_a_horizon_whose_square_overflows(self, capsys):
        code = _run(
            ["saddle", "--theta", "-5", "--hurst", "0.99", "--c", "10", "--T", "1e300"]
        )
        assert code == cli.EXIT_OK
        row = _rows(capsys.readouterr().out)[0]
        assert float(row["expansion"]) == float(row["a0"])


class TestEachLevel:
    # a multi-level run prints, for each level, the row a run of that level
    # alone prints
    @pytest.mark.parametrize("argv, levels", [
        (["rate", "--target", "energy"], ["-0.5", "0", "0.3", "0.7", repr(c_star(P)), "3"]),
        (["rate", "--target", "mle"], ["-0.5", repr(P.theta / 3.0), "-0.1", "0", "0.5"]),
        (["tail", "--target", "energy", "--T", "40"],
         ["0.45", "0.3", "0.7", repr(c_star(P)), "3"]),
        (["tail", "--target", "mle", "--T", "40"],
         ["-0.5", repr(P.theta / 3.0), "-0.1", "0", "0.5"]),
        (["saddle", "--T", "50"], [repr(c_star(P)), "4", "10"]),
        (["oracle", "--kind", "legendre", "--target", "energy"], ["0.3", "0.7", "4"]),
        (["oracle", "--kind", "legendre", "--target", "mle"], ["-0.6", "-0.1", "0.5"]),
    ], ids=["rate-energy", "rate-mle", "tail-energy", "tail-mle", "saddle",
            "oracle-energy", "oracle-mle"])
    def test_multi_level_rows_are_the_single_level_rows(self, argv, levels, capsys):
        base = argv + MODEL
        assert _run(base + [a for c in levels for a in ("--c", c)]) == cli.EXIT_OK
        together = capsys.readouterr().out.splitlines()
        apart = []
        for c in levels:
            assert _run(base + ["--c", c]) == cli.EXIT_OK
            header, row = capsys.readouterr().out.splitlines()
            assert header == together[0]
            apart.append(row)
        assert together[1:] == apart


class TestSimulateCommand:
    def test_reruns_byte_identical(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            code = _run(
                ["simulate", "--theta", "-1", "--hurst", "0.75", "--T", "5",
                 "--grid-n", "200", "--replicates", "16", "--seed", "9",
                 "--out", str(out)]
            )
            assert code == cli.EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_dump_paths(self, tmp_path):
        out = tmp_path / "summary.csv"
        code = _run(
            ["simulate", "--theta", "-1", "--hurst", "0.75", "--T", "5",
             "--grid-n", "150", "--replicates", "2", "--seed", "3",
             "--dump-paths", "--out", str(out)]
        )
        assert code == cli.EXIT_OK
        assert out.exists()
        dump = out.parent / "summary.csv_0.csv"
        assert dump.exists()
        rows = _rows(dump.read_text())
        assert list(rows[0].keys()) == ["t", "M", "Y", "Q", "S"]
        assert len(rows) == 151

    def test_dump_paths_summary_is_each_paths_end(self, tmp_path, capsys):
        # summary row i is the last S of <out>_i.csv and that path's
        # theta_hat, under the header of the batch mode
        base = ["simulate", *MODEL, "--T", "5", "--grid-n", "150", "--replicates", "3",
                "--seed", "3"]
        out = tmp_path / "summary.csv"
        assert _run(base + ["--dump-paths", "--out", str(out)]) == cli.EXIT_OK
        assert _run(base) == cli.EXIT_OK
        header = "replicate,S_T,theta_hat"
        assert _header(capsys.readouterr().out) == header
        assert _header(out.read_text()) == header
        rows = _rows(out.read_text())
        assert [r["replicate"] for r in rows] == ["0", "1", "2"]
        grid = make_grid(5.0, 150)
        for i, row in enumerate(rows):
            dump = _rows((tmp_path / f"summary.csv_{i}.csv").read_text())
            assert row["S_T"] == dump[-1]["S"]
            path = simulate_martingale_path(P, grid, RngSpec(3, i))
            assert row["theta_hat"] == cli._fmt(path.theta_hat)

    @pytest.mark.parametrize("replicates", ["0", "-2"])
    @pytest.mark.parametrize("dump", [[], ["--dump-paths"]], ids=["batch", "dump-paths"])
    def test_no_replicates_is_invalid(self, replicates, dump, tmp_path, capsys):
        # both paths refuse; a dump loop over no replicate would write nothing
        code = _run(
            ["simulate", "--theta", "-1", "--hurst", "0.75", "--T", "5",
             "--grid-n", "150", "--replicates", replicates,
             "--out", str(tmp_path / "summary.csv"), *dump]
        )
        assert code == cli.EXIT_INVALID
        assert "replicates must be >= 1" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestMcCommand:
    def test_underpowered_row(self, capsys, monkeypatch):
        # no path is drawn when every level is underpowered
        def refuse(*args, **kwargs):
            raise AssertionError("simulated an underpowered request")

        # cli looks the batch up in sim when it draws one
        monkeypatch.setattr(sim, "simulate_martingale_batch", refuse)
        code = _run(
            ["mc", "--theta", "-1", "--hurst", "0.75", "--target", "energy",
             "--T", "40", "--c", "6.0", "--c", "7.0", "--replicates", "10000",
             "--seed", "1"]
        )
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert _header(out) == MC_HEADER
        rows = _rows(out)
        assert [r["underpowered"] for r in rows] == ["True", "True"]
        assert [r["z_score"] for r in rows] == ["", ""]

    def test_order1_with_mle_target_is_invalid(self, capsys):
        code = _run(
            ["mc", "--theta", "-1", "--hurst", "0.75", "--target", "mle",
             "--T", "40", "--c", "-0.6", "--replicates", "10000", "--order1"]
        )
        err = capsys.readouterr().err
        assert code == cli.EXIT_INVALID
        assert "order-1 correction" in err
        assert "Traceback" not in err

    def test_one_batch_serves_every_level(self, capsys, monkeypatch):
        calls = []
        batch = sim.simulate_martingale_batch

        def counted(*args, **kwargs):
            calls.append(args)
            return batch(*args, **kwargs)

        monkeypatch.setattr(sim, "simulate_martingale_batch", counted)
        base = ["mc", "--theta", "-1", "--hurst", "0.75", "--target", "energy",
                "--T", "10", "--grid-n", "200", "--replicates", "10000",
                "--seed", "4"]
        levels = ["0.55", "0.6", "0.7"]
        assert _run(base + [a for c in levels for a in ("--c", c)]) == cli.EXIT_OK
        together = capsys.readouterr().out
        assert len(calls) == 1
        rows = _rows(together)
        assert [r["underpowered"] for r in rows] == ["False"] * 3
        apart = []
        for c in levels:
            assert _run(base + ["--c", c]) == cli.EXIT_OK
            apart += _rows(capsys.readouterr().out)
        assert rows == apart


class TestCltCommand:
    def test_report_rows(self, capsys):
        code = _run(
            ["clt", "--theta", "-1", "--hurst", "0.75", "--T", "10",
             "--grid-n", "400", "--replicates", "1000", "--seed", "2"]
        )
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert _header(out) == "label,ks_statistic,n,crit_1pct,crit_5pct,below_1pct"
        rows = _rows(out)
        assert len(rows) == 2
        assert [r["label"] for r in rows] == ["energy clt T=10.0", "mle clt T=10.0"]

    def test_rows_are_clt_test_on_the_batch_of_grid_n(self, capsys):
        # --grid-n sets the grid of the batch the CLI draws for clt_test
        argv = ["clt", "--theta", "-1", "--hurst", "0.75", "--T", "5",
                "--replicates", "1000", "--seed", "6"]
        assert _run(argv + ["--grid-n", "150"]) == cli.EXIT_OK
        rows = _rows(capsys.readouterr().out)
        batch = simulate_martingale_batch(P, make_grid(5.0, 150), 6, 1000)
        reports = cli.validate.clt_test(P, 5.0, 1000, 6, result=batch)
        assert [r["ks_statistic"] for r in rows] == [cli._fmt(r.ks_statistic) for r in reports]
        assert [r["below_1pct"] for r in rows] == [str(r.below_1pct) for r in reports]
        assert _run(argv + ["--grid-n", "200"]) == cli.EXIT_OK
        assert _rows(capsys.readouterr().out) != rows

    def test_too_few_paths_is_invalid(self, capsys):
        # the floor on the paths of a CLT batch is checked once, in sim
        code = _run(["clt", *MODEL, "--T", "5", "--grid-n", "150", "--replicates", "10"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INVALID
        assert "need at least 1000 paths for CLT statistics" in captured.err
        assert captured.out == ""


class TestOracleCommand:
    def test_legendre(self, capsys):
        code = _run(
            ["oracle", "--theta", "-1", "--hurst", "0.75", "--kind", "legendre",
             "--target", "energy", "--c", "0.7"]
        )
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert _header(out) == ORACLE_HEADER
        row = _rows(out)[0]
        assert float(row["abs_err"]) < 1e-6

    def test_gamma_contour_needs_no_model(self, capsys):
        code = _run(
            ["oracle", "--kind", "gamma-contour", "--shape", "1.0", "--nu", "0.5",
             "--gamma-freq", "1.0", "--sigma2", "1.0", "--T", "1000", "--p", "2"]
        )
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert _header(out) == ORACLE_HEADER
        row = _rows(out)[0]
        assert float(row["rel_err"]) < 1e-3

    @pytest.mark.parametrize("flag", ["--p", "--ell"])
    def test_gamma_contour_negative_order_is_invalid(self, flag, capsys):
        code = _run(["oracle", "--kind", "gamma-contour", flag, "-1"])
        err = capsys.readouterr().err
        assert code == cli.EXIT_INVALID
        assert f"{flag[2:]} must be a nonnegative integer" in err

    @pytest.mark.parametrize("flag", ["--shape", "--nu", "--gamma-freq", "--sigma2", "--T"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_gamma_contour_non_finite_is_invalid(self, flag, value, capsys):
        code = _run(["oracle", "--kind", "gamma-contour", flag, value])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INVALID
        assert "finite and positive" in captured.err
        assert captured.out == ""

    def test_bessel_against_mpmath(self, capsys):
        # the package's r_h_scaled at 40 arguments in [0.01, 500] times 5
        # Hurst indices, each within 1e-12 relative of 40-digit mpmath
        code = _run(["oracle", "--kind", "bessel"])
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert _header(out) == ORACLE_HEADER
        rows = _rows(out)
        assert len(rows) == 200
        assert all(r["label"].startswith("r_h H=") for r in rows)
        assert max(float(r["rel_err"]) for r in rows) < 1e-12

    def test_bessel_without_mpmath_is_usage_error(self, capsys, monkeypatch):
        # None in sys.modules makes "import mpmath" fail as if not installed
        monkeypatch.setitem(sys.modules, "mpmath", None)
        assert _run(["oracle", "--kind", "bessel"]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "mpmath" in err and "test extra" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["--kind", "gamma-contour", "--theta", "-1", "--hurst", "0.75", "--c", "3",
              "--target", "mle"], "--c, --hurst, --target, --theta"),
            (["--kind", "legendre", "--theta", "-1", "--hurst", "0.75", "--c", "1",
              "--T", "5", "--shape", "9"], "--T, --shape"),
            (["--kind", "legendre", "--theta", "-1", "--hurst", "0.75", "--c", "1",
              "--gamma-freq=2"], "--gamma-freq"),
            (["--kind", "bessel", "--nu", "0.5"], "--nu"),
            (["--kind", "bessel", "--theta", "-1"], "--theta"),
        ],
        ids=["gamma-contour", "legendre", "legendre-equals", "bessel-nu", "bessel-theta"],
    )
    def test_flag_the_kind_does_not_read_is_usage_error(self, argv, flags, capsys):
        assert _run(["oracle", *argv]) == cli.EXIT_USAGE
        kind = argv[1]
        assert capsys.readouterr().err == f"error: oracle --kind {kind} does not read {flags}\n"

    def test_unread_config_value_and_out_are_allowed(self, tmp_path, capsys):
        # only explicit flags are checked; --out and --config go with any kind
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"T": 5.0, "shape": 9.0, "theta": -1.0}))
        out = tmp_path / "legendre.csv"
        code = _run(["oracle", "--kind", "legendre", "--config", str(path),
                     "--hurst", "0.75", "--c", "0.7", "--out", str(out)])
        assert code == cli.EXIT_OK
        assert out.read_text().startswith(ORACLE_HEADER)

    def test_gamma_contour_quadrature_warning_goes_to_the_note(self):
        # a roundoff warning of quad here once reached stderr; the note
        # now carries the quadrature error instead
        src = os.path.dirname(os.path.dirname(os.path.abspath(fousldp.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "fousldp.cli", "oracle", "--kind", "gamma-contour",
             "--T", "200", "--ell", "1", "--p", "3"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
        assert proc.returncode == cli.EXIT_OK
        assert proc.stderr == ""
        note = _rows(proc.stdout)[0]["note"]
        assert "quadrature error" in note


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert _run(["frobnicate"]) == cli.EXIT_USAGE

    def test_unknown_flag(self, capsys):
        assert _run(
            ["rate", "--theta", "-1", "--hurst", "0.75", "--target", "energy",
             "--c", "1.0", "--no-such-flag"]
        ) == cli.EXIT_USAGE

    def test_flag_without_its_value_suggests_the_equals_form(self, capsys):
        # the message a space-separated --theta -1e-3 gets on Pythons whose
        # argparse reads -1e-3 as an option
        assert _run(["rate", "--target", "energy", "--hurst", "0.75", "--c", "1.0",
                     "--theta"]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: argument --theta: expected one argument; write a negative "
            "value with =, as in --theta=-1e-3\n")

    def test_missing_model_parameters(self, capsys):
        assert _run(["rate", "--target", "energy", "--c", "1.0"]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("argv, flags", [
        (["rate", "--theta", "-1", "--target", "energy", "--c", "1.0"], "--hurst"),
        (["saddle", *MODEL], "--c"),
        (["oracle", *MODEL, "--c", "1.0"], "--kind"),
        (["rate"], "--theta, --hurst, --target, --c"),
        (["oracle", "--kind", "legendre", "--hurst", "0.75"], "--theta, --c"),
    ], ids=["rate-hurst", "saddle-c", "oracle-kind", "rate-all", "legendre"])
    def test_missing_options_are_named(self, argv, flags, capsys):
        # one message names each missing flag and only those; without
        # --kind, oracle cannot tell what else it reads
        assert _run(argv) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"error: the following arguments are required: {flags}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv, name", [
        (["tail", "--target", "energy", "--c", "0.7", "--T", "0"], "T"),
        (["tail", "--target", "mle", "--c", "-0.6", "--T", "0"], "T"),
        (["saddle", "--c", "4", "--T", "0"], "T"),
        (["tail", "--target", "energy", "--c", "0.7", "--T", "-1"], "T"),
        (["tail", "--target", "energy", "--c", "0.7", "--T", "nan"], "T"),
        (["tail", "--target", "mle", "--c", "-0.6", "--T", "nan"], "T"),
        (["rate", "--target", "energy", "--c", "0.7", "--T", "0"], "T"),
        (["rate", "--target", "energy", "--c", "nan"], "c"),
        (["rate", "--target", "mle", "--c", "nan"], "c"),
        (["saddle", "--c", "inf"], "c"),
        (["tail", "--target", "mle", "--c", "inf"], "c"),
        (["rate", "--target", "energy", "--c=-1", "--T", "0"], "T"),
        (["oracle", "--kind", "legendre", "--target", "energy", "--c", "nan"], "c"),
        (["oracle", "--kind", "legendre", "--target", "energy", "--c", "inf"], "c"),
        (["oracle", "--kind", "legendre", "--target", "mle", "--c", "nan"], "c"),
        (["oracle", "--kind", "legendre", "--target", "mle", "--c", "inf"], "c"),
        (["simulate", "--T", "inf"], "T"),
        (["clt", "--T", "inf"], "T"),
    ])
    def test_bad_level_or_horizon_is_invalid(self, argv, name, capsys):
        code = _run(argv + ["--theta", "-1", "--hurst", "0.75"])
        err = capsys.readouterr().err
        assert code == cli.EXIT_INVALID
        assert f" {name} must be finite" in err
        assert "Traceback" not in err

    def test_numerical_failure_maps_to_three(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise ArithmeticError("forced")

        energy = cli.validate.FUNCTIONALS["energy"]
        monkeypatch.setitem(cli.validate.FUNCTIONALS, "energy",
                            dataclasses.replace(energy, rate=boom))
        code = _run(
            ["rate", "--theta", "-1", "--hurst", "0.75", "--target", "energy",
             "--c", "1.0"]
        )
        assert code == cli.EXIT_NUMERICAL


class TestConfig:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta": -1.0, "hurst": 0.75}))
        code = _run(
            ["rate", "--config", str(cfg), "--target", "energy", "--c", "1.0"]
        )
        assert code == cli.EXIT_OK
        row = _rows(capsys.readouterr().out)[0]
        assert float(row["rate"]) == rate_energy(P, 1.0)

    def test_explicit_flag_wins(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta": -2.0, "hurst": 0.75}))
        code = _run(
            ["rate", "--config", str(cfg), "--theta", "-1", "--target", "energy",
             "--c", "1.0"]
        )
        assert code == cli.EXIT_OK
        row = _rows(capsys.readouterr().out)[0]
        assert float(row["rate"]) == rate_energy(P, 1.0)

    def test_abbreviated_flag_is_usage_error(self, tmp_path, capsys):
        # "--the" would otherwise parse as --theta and lose to the config
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta": -1.0, "hurst": 0.75}))
        code = _run(
            ["rate", "--config", str(cfg), "--the", "-2", "--target", "energy",
             "--c", "1.0"]
        )
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"volatility": 1.0}))
        code = _run(
            ["rate", "--config", str(cfg), "--theta", "-1", "--hurst", "0.75",
             "--target", "energy", "--c", "1.0"]
        )
        assert code == cli.EXIT_USAGE

    def test_threads_flag_rejected(self, capsys):
        # the batch sizes its thread pool from the usable cores; there is
        # no flag for it
        code = _run(
            ["rate", "--theta", "-1", "--hurst", "0.75", "--target", "energy",
             "--c", "1.0", "--threads", "2"]
        )
        assert code == cli.EXIT_USAGE

    def test_config_values_convert_like_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta": "-1", "hurst": 0.75, "c": [1.0, "0.7"]}))
        code = _run(["rate", "--config", str(cfg), "--target", "energy"])
        assert code == cli.EXIT_OK
        rows = _rows(capsys.readouterr().out)
        assert [float(r["rate"]) for r in rows] == [
            rate_energy(P, 1.0), rate_energy(P, 0.7)
        ]

    @pytest.mark.parametrize(
        "cfg",
        [
            {"theta": "minus one"},
            {"theta": [-1.0]},
            {"theta": None},
            {"theta": True},
            {"order1": "yes"},
            {"c": {"level": 1.0}},
            {"c": ["1.0", "one"]},
            {"c": []},
        ],
    )
    def test_config_value_of_wrong_type_is_invalid(self, cfg, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"theta": -1.0, "hurst": 0.75, "c": 1.0, **cfg}))
        code = _run(["tail", "--config", str(path), "--target", "energy"])
        assert code == cli.EXIT_INVALID
        assert capsys.readouterr().err.startswith("invalid parameters: config key")

    @pytest.mark.parametrize("argv, key, value", [
        (["rate", *MODEL, "--c", "0.7", "--c", "4"], "target", "energy"),
        (["tail", *MODEL, "--c", "-0.6", "--T", "40"], "target", "mle"),
        (["mc", *MODEL, "--c", "0.7", "--T", "10", "--grid-n", "200",
          "--replicates", "10000"], "target", "energy"),
        (["oracle", *MODEL, "--c", "0.7"], "kind", "legendre"),
    ], ids=["rate", "tail", "mc", "oracle"])
    def test_config_supplies_target_and_kind(self, argv, key, value, tmp_path, capsys):
        # a config may supply any long option, the ones a command needs too
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: value}))
        assert _run(argv + [f"--{key}", value]) == cli.EXIT_OK
        flagged = capsys.readouterr().out
        assert _run(argv + ["--config", str(path)]) == cli.EXIT_OK
        assert capsys.readouterr().out == flagged

    def test_config_value_outside_choices_is_invalid(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"target": "variance"}))
        code = _run(["oracle", "--config", str(path), "--kind", "legendre",
                     "--theta", "-1", "--hurst", "0.75", "--c", "0.7"])
        assert code == cli.EXIT_INVALID
        assert capsys.readouterr().err.startswith("invalid parameters: config key")

    @pytest.mark.parametrize("text", ["{not json", None])
    def test_unreadable_config_is_usage_error(self, text, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        code = _run(["rate", "--config", str(path), "--theta", "-1",
                     "--hurst", "0.75", "--target", "energy", "--c", "1.0"])
        assert code == cli.EXIT_USAGE


def _process(code, *args):
    # a fresh interpreter that imports the package from this source tree
    src = os.path.dirname(os.path.dirname(os.path.abspath(fousldp.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, *code, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def _python(code, *args):
    proc = _process(code, *args)
    proc.check_returncode()
    return proc.stdout


class TestStartup:
    RATE = ["rate", "--theta", "-1", "--hurst", "0.75", "--target", "energy",
            "--c", "0.7", "--c", "3.0"]

    def test_python_m_prints_the_same_csv_as_main(self):
        via_m = _python(["-m", "fousldp.cli"], *self.RATE)
        via_main = _python(["-c", "from fousldp.cli import main; main()"], *self.RATE)
        assert via_m == via_main
        assert via_m.startswith("target,c,rate,branch\n")

    def test_scalar_commands_load_no_heavy_modules(self):
        # scipy.stats and scipy.optimize take about a second to import; the
        # scalar commands need no scipy module at all
        code = """
import contextlib, io, json, sys
from fousldp import cli
model = ["--theta", "-1", "--hurst", "0.75"]
loaded = {}
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["rate", "--target", "energy", "--c", "0.7"],
                 ["tail", "--target", "energy", "--c", "0.7", "--order1"],
                 ["tail", "--target", "mle", "--c", "-0.6"],
                 ["saddle", "--c", "4.0"]):
        assert cli.run(argv + model) == 0
        loaded[argv[0]] = [m for m in sys.modules if m.split(".")[0] == "scipy"]
import fousldp
from fousldp import KSReport, mc_tail
import fousldp.validate as v
loaded["same"] = [mc_tail is v.mc_tail, KSReport is v.KSReport,
                  fousldp.clt_test is v.clt_test]
print(json.dumps(loaded))
"""
        loaded = json.loads(_python(["-c", code]))
        assert loaded["rate"] == []
        assert loaded["tail"] == []
        assert loaded["saddle"] == []
        assert loaded["same"] == [True, True, True]

    def test_simulate_loads_no_scipy(self, tmp_path):
        # the martingale route needs no scipy; the BLAS product of the
        # physical route is loaded inside that route only
        code = f"""
import contextlib, io, json, sys
from fousldp import cli
heavy = ["scipy.special", "scipy.linalg"]
sim = ["simulate", "--theta", "-1", "--hurst", "0.75", "--T", "5",
       "--grid-n", "150", "--replicates", "2", "--seed", "3",
       "--out", {str(tmp_path / "out.csv")!r}]
loaded = {{}}
with contextlib.redirect_stdout(io.StringIO()):
    for name, extra in (("simulate", []), ("dump", ["--dump-paths"])):
        assert cli.run(sim + extra) == 0
        loaded[name] = [m for m in heavy if m in sys.modules]
print(json.dumps(loaded))
"""
        assert json.loads(_python(["-c", code])) == {"simulate": [], "dump": []}

    SCIPY = ["scipy.stats", "scipy.optimize", "scipy.integrate", "scipy.special",
             "scipy.linalg"]

    # each unwanted entry is a package: "scipy" forbids every scipy module
    @pytest.mark.parametrize("argv, wanted, unwanted", [
        (["mc", *MODEL, "--target", "energy", "--c", "0.7", "--T", "5",
          "--grid-n", "150", "--replicates", "10000"], [], ["scipy"]),
        (["oracle", *MODEL, "--kind", "legendre", "--c", "0.7"], [], ["scipy"]),
        (["oracle", "--kind", "bessel"], ["scipy.special"],
         ["scipy.stats", "scipy.optimize", "scipy.integrate"]),
        # scipy.integrate itself imports scipy.optimize
        (["oracle", "--kind", "gamma-contour", "--T", "1000"],
         ["scipy.integrate"], ["scipy.stats"]),
        (["clt", *MODEL, "--T", "5", "--grid-n", "150", "--replicates", "1000"],
         ["scipy.stats"], []),
    ], ids=["mc", "oracle-legendre", "oracle-bessel", "oracle-gamma-contour", "clt"])
    def test_each_command_loads_only_the_scipy_it_calls(self, argv, wanted,
                                                        unwanted):
        # each validation function imports its own scipy module, so one
        # command's import cost is not paid by the others
        code = f"""
import contextlib, io, json, sys
from fousldp import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run({argv!r}) == 0
print(json.dumps([m for m in sys.modules if m.split(".")[0] == "scipy"]))
"""
        loaded = json.loads(_python(["-c", code]))
        assert [m for m in wanted if m not in loaded] == []
        assert [m for m in loaded
                if any(m == u or m.startswith(u + ".") for u in unwanted)] == []

    def test_bare_import_loads_no_scipy(self):
        code = f"""
import json, sys
import fousldp
print(json.dumps([[m for m in {self.SCIPY!r} if m in sys.modules],
                  "fousldp.validate" in sys.modules]))
"""
        assert json.loads(_python(["-c", code])) == [[], True]

    # the closed-form commands, which are pure math
    CLOSED_FORM = {
        "rate": ["rate", *MODEL, "--target", "energy", "--c", "0.3", "--c", "0.7",
                 "--c", "4.0"],
        "tail-energy-order1": ["tail", *MODEL, "--target", "energy", "--c", "0.7",
                               "--c", "4.0", "--T", "40", "--order1"],
        "tail-mle": ["tail", *MODEL, "--target", "mle", "--c", "-0.6", "--c", "0.5",
                     "--T", "40"],
        "saddle": ["saddle", *MODEL, "--c", "4.0", "--c", "10.0"],
        "oracle-legendre": ["oracle", "--kind", "legendre", *MODEL, "--target",
                            "energy", "--c", "0.7", "--c", "4.0"],
    }

    # the names of sim that fousldp exports
    SIM_NAMES = ["BatchResult", "RngSpec", "TimeGrid", "clt_statistics", "make_grid",
                 "simulate_fbm_batch", "simulate_martingale_batch",
                 "simulate_martingale_path"]

    def test_bare_imports_load_no_numpy(self):
        code = """
import json, sys
import fousldp
bare = "numpy" in sys.modules
import fousldp.cli
print(json.dumps([bare, "numpy" in sys.modules]))
"""
        assert json.loads(_python(["-c", code])) == [False, False]

    @pytest.mark.parametrize("argv", CLOSED_FORM.values(), ids=CLOSED_FORM.keys())
    def test_closed_form_commands_run_without_numpy(self, argv):
        # numpy set to None in sys.modules makes any import of it fail
        main = "from fousldp.cli import main; main()"
        with_numpy = _process(["-c", main], *argv)
        without = _process(["-c", 'import sys; sys.modules["numpy"] = None; ' + main],
                           *argv)
        assert (without.returncode, without.stdout) == (with_numpy.returncode,
                                                        with_numpy.stdout)
        assert with_numpy.returncode == 0

    def test_sim_names_are_those_of_sim(self):
        for name in self.SIM_NAMES:
            assert getattr(fousldp, name) is getattr(sim, name)
            assert name in dir(fousldp)
        with pytest.raises(AttributeError, match="no_such_name"):
            fousldp.no_such_name
