import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import freqchan
import freqchan.verify
from freqchan import cli
from freqchan.cli import (EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAILED,
                          UsageError, build_parser, main, parse_range,
                          replay_manifest)
from freqchan.rc_bounds import delta_fn


def _read(path):
    with open(path, newline="") as fh:
        return fh.read()


def _manifest(path):
    """A manifest's header fields and its ``param.*`` options, as dicts."""
    header, params = {}, {}
    for line in _read(path).split("\n")[:-1]:
        key, _, value = line.partition("=")
        if key.startswith("param."):
            params[key[len("param."):]] = value
        else:
            header[key] = value
    return header, params


def _child_env():
    """The environment for a child interpreter that imports this freqchan."""
    src = os.path.dirname(os.path.dirname(freqchan.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


class TestParseRange:
    def test_simple_grid(self):
        assert parse_range("0:2:0.5") == [0.0, 0.5, 1.0, 1.5, 2.0]

    def test_endpoint_within_half_step(self):
        # 41 points even though 40 * 0.05 lands on 2.0000000000000004.
        assert len(parse_range("0:2:0.05")) == 41

    def test_endpoint_beyond_half_step_excluded(self):
        assert parse_range("0:2:0.6") == pytest.approx([0.0, 0.6, 1.2, 1.8])

    @pytest.mark.parametrize("bad", [
        "1:0:0.1", "0:0:1", "0:1:0", "0:1:-1", "0:1", "0:1:0.1:2",
        "a:b:c", "0:inf:1",
    ])
    def test_rejects_invalid(self, bad):
        with pytest.raises(UsageError):
            parse_range(bad)

    @pytest.mark.parametrize("big", [
        "0:1:5e-324", "0:1e12:1", "-1e308:1e308:1e300", "0:1048576:1",
    ])
    def test_rejects_oversized_grid_before_building_it(self, big,
                                                       address_space_cap):
        # A subnormal step, a trillion points, hi - lo overflowing to inf,
        # and the first span the cap refuses.
        with pytest.raises(UsageError, match="steps"):
            parse_range(big)

    def test_largest_grid_accepted(self):
        grid = parse_range("0:1048575:1")
        assert len(grid) == 1 << 20 and grid[-1] == 1048575.0


# Input outside a documented domain, each of which once ended in a
# traceback, an OverflowError or a multi-GiB allocation.
BAD_INPUT = [
    ["rates", "--r", "0:1:0.5"],
    ["rates", "--r", "1:3:1", "--g", "1e-320"],
    ["exponents", "--r", "400", "--rate=-1:0:0.5"],
    ["exponents", "--r", "400", "--rate", "0:1:5e-324"],
    ["rates", "--r", "1:2:5e-324"],
    ["exponents", "--r", "400", "--rate", "0:1e12:1", "--which", "rc"],
    ["simulate", "--n", "1", "--r", "1e300", "--M", "2", "--trials", "10"],
    ["simulate", "--n", "10", "--r", "2", "--M", "4", "--trials", "10",
     "--seed=-1"],
    ["simulate", "--n", "10", "--r", "2", "--M", "2",
     "--trials", "1000000000000"],
    ["rates", "--r", "1:3:1", "--g", "abc"],
    ["simulate", "--n", "10", "--r", "1e-300", "--M", "2", "--trials", "100"],
    ["simulate", "--n", "10", "--r", "1e-10", "--M", "2", "--trials", "100"],
    ["exponents", "--r", "1e-320", "--rate", "0:2:0.5"],
]


class TestBadInput:
    @pytest.mark.parametrize("argv", BAD_INPUT, ids=" ".join)
    def test_exit_64_without_output(self, tmp_path, capsys, argv,
                                    address_space_cap):
        out = tmp_path / "x.csv"
        assert main(argv + ["--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not out.exists()
        assert not (tmp_path / "x.csv.manifest").exists()


class TestExponentsCommand:
    def test_rc_only_csv_shape(self, tmp_path):
        out = tmp_path / "exp.csv"
        code = main(["exponents", "--r", "400", "--rate", "1.5:1.9:0.2",
                     "--which", "rc", "--out", str(out)])
        assert code == EXIT_OK
        lines = _read(out).split("\n")
        assert lines[0] == "R,E_rc,E_ex,argmax_alpha,argmax_xi,argmax_rho,rho_capped"
        assert len(lines) == 5 and lines[-1] == ""
        cells = lines[1].split(",")
        assert cells[2] == "" and cells[5] == "" and cells[6] == ""
        # The alpha supremum is the alpha = 1/2 limit on every row.
        assert all(ln.split(",")[3] == "0.5" for ln in lines[1:-1])
        # 17 significant digits round-trip exactly.
        assert float(cells[1]) == pytest.approx(0.389138027, abs=1e-6)
        assert format(float(cells[1]), ".17g") == cells[1]

    def test_ex_only_flags_column(self, tmp_path):
        out = tmp_path / "exp.csv"
        code = main(["exponents", "--r", "400", "--rate", "0.012:0.014:0.002",
                     "--which", "ex", "--out", str(out)])
        assert code == EXIT_OK
        rows = [ln.split(",") for ln in _read(out).strip().split("\n")[1:]]
        assert all(row[1] == "" and row[3] == "" and row[4] == ""
                   for row in rows)
        assert [row[6] for row in rows] == ["0", "0"]
        assert float(rows[0][5]) > 1.0

    def test_gnuplot_two_columns(self, tmp_path):
        out = tmp_path / "exp.csv"
        gp = tmp_path / "exp.dat"
        main(["exponents", "--r", "400", "--rate", "1.5:1.7:0.2",
              "--which", "rc", "--out", str(out), "--gnuplot", str(gp)])
        for line in _read(gp).strip().split("\n"):
            assert len(line.split(" ")) == 2

    def test_gnuplot_needs_single_curve(self, tmp_path):
        code = main(["exponents", "--r", "400", "--rate", "0:1:1",
                     "--which", "both", "--gnuplot", str(tmp_path / "g.dat"),
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE

    def test_bad_range_is_usage_error(self, tmp_path):
        code = main(["exponents", "--r", "400", "--rate", "0:0:1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("flag, value", [
        ("--r", "inf"), ("--r", "nan"), ("--r", "0"), ("--r", "-4"),
        ("--rho-max", "nan"), ("--rho-max", "inf"), ("--rho-max", "1"),
    ])
    def test_bad_number_is_usage_error(self, tmp_path, flag, value):
        argv = {"--r": "400", "--rho-max": "1000"}
        argv[flag] = value
        code = main(["exponents", "--r", argv["--r"], "--rate", "0:0.01:0.01",
                     "--rho-max", argv["--rho-max"],
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("r", ["1e-300", "1e-200", "1e20", "1e300"])
    def test_expurgated_r_out_of_range_is_usage_error(self, tmp_path, r):
        code = main(["exponents", "--r", r, "--rate", "0:0.01:0.01",
                     "--which", "ex", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE
        assert not (tmp_path / "x.csv").exists()

    def test_unwritable_path_is_io_error(self):
        code = main(["exponents", "--r", "400", "--rate", "1.5:1.6:0.1",
                     "--which", "rc", "--out", "/nonexistent-dir/x.csv"])
        assert code == EXIT_IO


class TestRatesCommand:
    def test_header_and_converse_column(self, tmp_path):
        out = tmp_path / "rates.csv"
        code = main(["rates", "--r", "100:400:100", "--g", "200,1000",
                     "--out", str(out)])
        assert code == EXIT_OK
        lines = _read(out).strip().split("\n")
        assert lines[0] == "r,R_LB,converse,fir_g200,fir_g1000"
        for line in lines[1:]:
            r, rlb, conv = (float(c) for c in line.split(",")[:3])
            assert conv == pytest.approx(0.5 * math.log(r), rel=1e-15)
            assert rlb < conv
            # R_LB = -log(2 (1 - exp(-Delta/r)))/2, with no search of its own.
            closed = -0.5 * math.log(-2.0 * math.expm1(-delta_fn(r) / r))
            assert rlb == pytest.approx(closed, rel=1e-15)

    def test_r_near_the_float_maximum(self, tmp_path):
        out = tmp_path / "rates.csv"
        code = main(["rates", "--r", "1e308:1.6e308:3e307",
                     "--out", str(out)])
        assert code == EXIT_OK
        lines = _read(out).strip().split("\n")
        assert len(lines) == 4
        for line in lines[1:]:
            r, rlb, conv = (float(c) for c in line.split(","))
            assert math.isfinite(rlb) and rlb < conv

    def test_r_where_the_zeta_term_underflows(self, tmp_path):
        # Delta's bracket here ends at q = 1024, past the underflow of the
        # zeta term and of the Newton slope with it.
        out = tmp_path / "rates.csv"
        code = main(["rates", "--r", "1e-300:2e-300:1e-300",
                     "--out", str(out)])
        assert code == EXIT_OK
        lines = _read(out).strip().split("\n")
        assert len(lines) == 3
        for line in lines[1:]:
            assert all(math.isfinite(float(c)) for c in line.split(","))

    def test_no_budgets(self, tmp_path):
        out = tmp_path / "rates.csv"
        assert main(["rates", "--r", "10:20:10", "--out", str(out)]) == EXIT_OK
        assert _read(out).split("\n")[0] == "r,R_LB,converse"

    def test_bad_budget_is_usage_error(self, tmp_path):
        code = main(["rates", "--r", "10:20:10", "--g", "10,-5",
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE

    def test_budget_too_small_for_r_names_g(self, tmp_path, capsys):
        code = main(["rates", "--r", "1:3:1", "--g", "1e-320",
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "g = 1e-320" in err and "t must be" not in err

    def test_caveat_recorded_in_manifest(self, tmp_path):
        out = tmp_path / "rates.csv"
        main(["rates", "--r", "10:20:10", "--g", "50", "--out", str(out)])
        keys = [ln.partition("=")[0]
                for ln in _read(str(out) + ".manifest").split("\n")]
        assert keys.index("note") == keys.index("wall_time_s") + 1
        assert "extrapolation" in _manifest(str(out) + ".manifest")[0]["note"]
        main(["rates", "--r", "10:20:10", "--out", str(out)])
        assert "note" not in _manifest(str(out) + ".manifest")[0]


class TestSimulateCommand:
    ARGS = ["simulate", "--n", "10", "--r", "2", "--M", "8",
            "--trials", "400", "--seed", "42"]

    def test_csv_row_and_determinism(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(self.ARGS + ["--out", str(out1)]) == EXIT_OK
        assert main(self.ARGS + ["--out", str(out2)]) == EXIT_OK
        body1, body2 = _read(out1), _read(out2)
        assert body1 == body2
        header, row, tail = body1.split("\n")
        assert header == ("n,r,alpha,M,R,trials,seed,errors,eps_hat,"
                          "wilson_lo,wilson_hi,thm1_bound")
        assert tail == ""
        cells = row.split(",")
        assert cells[0] == "10" and cells[3] == "8" and cells[6] == "42"

    def test_parallelism_not_in_csv(self, tmp_path):
        # 2,000 trials are three chunks at M = 8, n = 10, so a pool runs.
        args = ["simulate", "--n", "10", "--r", "2", "--M", "8",
                "--trials", "2000", "--seed", "42"]
        out1 = tmp_path / "p1.csv"
        out16 = tmp_path / "p16.csv"
        main(args + ["--parallelism", "1", "--out", str(out1)])
        main(args + ["--parallelism", "16", "--out", str(out16)])
        assert _read(out1) == _read(out16)

    def test_single_message_zero_errors(self, tmp_path):
        out = tmp_path / "m1.csv"
        main(["simulate", "--n", "4", "--r", "2", "--M", "1", "--trials",
              "50", "--seed", "0", "--out", str(out)])
        row = _read(out).strip().split("\n")[1].split(",")
        assert row[7] == "0" and float(row[8]) == 0.0

    def test_tiny_alpha_runs(self, tmp_path):
        # Most Dirichlet(0.001) gamma rows underflow to zero.
        out = tmp_path / "tiny.csv"
        code = main(["simulate", "--n", "2", "--r", "2", "--M", "2",
                     "--alpha", "0.001", "--trials", "2000", "--seed", "1",
                     "--out", str(out)])
        assert code == EXIT_OK
        row = _read(out).strip().split("\n")[1].split(",")
        assert 0 < int(row[7]) < 2000

    @pytest.mark.parametrize("alpha", ["1e-320", "1e308"])
    def test_alpha_out_of_range_names_alpha(self, tmp_path, capsys, alpha):
        # 1/alpha overflows at 1e-320, the row total n alpha at 1e308.
        out = tmp_path / "x.csv"
        code = main(["simulate", "--n", "3", "--r", "1", "--M", "2",
                     "--alpha", alpha, "--trials", "10", "--seed", "0",
                     "--out", str(out)])
        assert code == EXIT_USAGE
        assert "alpha" in capsys.readouterr().err
        assert not out.exists()

    def test_rate_spec(self, tmp_path):
        out = tmp_path / "rate.csv"
        main(["simulate", "--n", "10", "--r", "2", "--R", "0.3", "--trials",
              "50", "--seed", "0", "--out", str(out)])
        row = _read(out).strip().split("\n")[1].split(",")
        assert int(row[3]) == round(math.exp(3.0))

    def test_both_size_specs_rejected(self, tmp_path):
        code = main(["simulate", "--n", "10", "--r", "2", "--M", "4",
                     "--R", "0.3", "--trials", "10", "--seed", "0",
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE

    def test_oversized_codebook_rejected(self, tmp_path):
        for size in (["--R", "1"], ["--M", "20000000"]):
            out = tmp_path / "x.csv"
            code = main(["simulate", "--n", "1000", "--r", "1", *size,
                         "--trials", "1", "--seed", "0", "--out", str(out)])
            assert code == EXIT_USAGE
            assert not out.exists()

    def test_fractional_reads_rejected(self, tmp_path):
        code = main(["simulate", "--n", "3", "--r", "0.5", "--M", "2",
                     "--trials", "10", "--seed", "0",
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE

    def test_env_seed_default(self, tmp_path, monkeypatch):
        out_env = tmp_path / "env.csv"
        out_flag = tmp_path / "flag.csv"
        monkeypatch.setenv("FREQCHAN_SEED", "42")
        main(["simulate", "--n", "10", "--r", "2", "--M", "8",
              "--trials", "400", "--out", str(out_env)])
        monkeypatch.delenv("FREQCHAN_SEED")
        main(self.ARGS + ["--out", str(out_flag)])
        assert _read(out_env) == _read(out_flag)

    def test_bad_env_seed_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FREQCHAN_SEED", "not-a-number")
        code = main(["simulate", "--n", "10", "--r", "2", "--M", "8",
                     "--trials", "10", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE


class TestManifests:
    def test_round_trip(self, tmp_path):
        out = tmp_path / "sim.csv"
        main(["simulate", "--n", "10", "--r", "2", "--M", "8", "--trials",
              "50", "--seed", "7", "--parallelism", "1", "--out", str(out)])
        lines = _read(str(out) + ".manifest").split("\n")
        assert lines[-1] == ""
        keys = [ln.partition("=")[0] for ln in lines[:-1]]
        assert keys[:4] == ["command", "tool_version", "seed", "wall_time_s"]
        assert keys[4:] == sorted(keys[4:])
        assert all(key.startswith("param.") for key in keys[4:])
        header, params = _manifest(str(out) + ".manifest")
        assert header["command"] == "simulate" and header["seed"] == "7"
        assert float(header["wall_time_s"]) >= 0.0
        assert params["n"] == "10" and params["out"] == str(out)

    def test_replay_reproduces_bytes(self, tmp_path):
        out = tmp_path / "sim.csv"
        main(["simulate", "--n", "10", "--r", "2", "--M", "8", "--trials",
              "300", "--seed", "5", "--out", str(out)])
        body = _read(out)
        out.unlink()
        assert replay_manifest(str(out) + ".manifest") == EXIT_OK
        assert _read(out) == body

    def test_flag_parameters_replay(self, tmp_path, monkeypatch):
        replayed = []
        real_main = cli.main
        monkeypatch.setattr(cli, "main", lambda argv: (
            replayed.append(argv), real_main(argv))[1])
        out = tmp_path / "fixed.csv"
        for flag, value in (["--fixed-codebook"], "true"), ([], "false"):
            main(["simulate", "--n", "6", "--r", "2", "--M", "4", "--trials",
                  "100", "--seed", "1", "--out", str(out)] + flag)
            params = _manifest(str(out) + ".manifest")[1]
            assert params["fixed-codebook"] == value
            body = _read(out)
            out.unlink()
            assert replay_manifest(str(out) + ".manifest") == EXIT_OK
            assert _read(out) == body
            assert ("--fixed-codebook" in replayed[-1]) == bool(flag)
            assert "true" not in replayed[-1] and "false" not in replayed[-1]

    @staticmethod
    def _options(command):
        """The long option of every argument the subcommand defines."""
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        return {a.dest: a.option_strings[0].lstrip("-")
                for a in sub.choices[command]._actions
                if a.option_strings and a.dest != "help"}

    @pytest.mark.parametrize("argv", [
        ["exponents", "--r", "400", "--rate", "0:0.01:0.005", "--which", "ex",
         "--gnuplot", "{dir}/plot.dat"],
        ["rates", "--r", "1:3:1", "--g", "200,1000"],
        ["simulate", "--n", "10", "--r", "2", "--R", "0.3", "--trials", "200",
         "--seed", "4", "--fixed-codebook", "--parallelism", "1"],
    ], ids=lambda argv: argv[0])
    def test_every_option_recorded_and_replayed(self, tmp_path, argv):
        argv = [a.format(dir=tmp_path) for a in argv]
        argv += ["--out", str(tmp_path / "out.csv")]
        assert main(argv) == EXIT_OK
        parsed = vars(build_parser().parse_args(argv))
        options = self._options(argv[0])
        expected = {options[dest] for dest in options
                    if parsed[dest] is not None}
        manifest = str(tmp_path / "out.csv.manifest")
        header, params = _manifest(manifest)
        assert set(params) == expected
        assert header["seed"] == ("4" if argv[0] == "simulate" else "")
        if argv[0] == "exponents":  # ExSettings.rho_max, criterion 02's cap
            assert params["rho-max"] == "1000"
        outputs = sorted(p for p in tmp_path.iterdir()
                         if p.suffix in (".csv", ".dat"))
        bodies = [_read(p) for p in outputs]
        for p in outputs:
            p.unlink()
        assert replay_manifest(manifest) == EXIT_OK
        assert [_read(p) for p in outputs] == bodies

    def test_tool_version_matches_pyproject(self, tmp_path):
        # Manifests replay byte for byte only within one tool_version, so
        # the package and its metadata must name the same one.
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)",
                            pyproject.read_text(), re.M | re.S).group(1)
        version = re.search(r'^version\s*=\s*"([^"]+)"', project, re.M)
        assert version.group(1) == freqchan.__version__
        out = str(tmp_path / "rates.csv")
        main(["rates", "--r", "1:2:1", "--out", out])
        header = _manifest(out + ".manifest")[0]
        assert header["tool_version"] == freqchan.__version__

    @staticmethod
    def _edited_replay(tmp_path, capsys, edit):
        """Run ``rates``, rewrite its manifest's lines with ``edit``, delete
        the CSV and replay; returns the exit code, whether the CSV came
        back with the same bytes, and stderr."""
        out = tmp_path / "rates.csv"
        main(["rates", "--r", "1:3:1", "--g", "200", "--gnuplot",
              str(tmp_path / "rates.dat"), "--out", str(out)])
        body = _read(out)
        manifest = Path(str(out) + ".manifest")
        manifest.write_text("\n".join(edit(_read(manifest).split("\n"))))
        out.unlink()
        capsys.readouterr()
        code = replay_manifest(str(manifest))
        same = out.exists() and _read(out) == body
        return code, same, capsys.readouterr().err

    def test_blank_and_bare_lines_are_skipped(self, tmp_path, capsys):
        def edit(lines):
            return ["", "bare line"] + lines[:2] + ["", "param.bogus"] \
                + lines[2:]
        assert self._edited_replay(tmp_path, capsys, edit) == (EXIT_OK, True,
                                                                "")

    def test_unsorted_params_replay_the_same_bytes(self, tmp_path, capsys):
        def edit(lines):
            params = [ln for ln in lines if ln.startswith("param.")]
            assert params == sorted(params)
            return [ln for ln in lines if ln not in params] + params[::-1]
        assert self._edited_replay(tmp_path, capsys, edit) == (EXIT_OK, True,
                                                                "")

    def test_manifest_without_command_is_usage_error(self, tmp_path, capsys):
        def edit(lines):
            return [ln for ln in lines if not ln.startswith("command=")]
        code, same, err = self._edited_replay(tmp_path, capsys, edit)
        assert code == EXIT_USAGE and not same
        assert err.startswith("usage error: ")

    def test_other_tool_version_is_named_on_stderr(self, tmp_path, capsys):
        def edit(lines):
            return [("tool_version=0.0.1" if ln.startswith("tool_version=")
                     else ln) for ln in lines]
        code, same, err = self._edited_replay(tmp_path, capsys, edit)
        assert code == EXIT_OK and same
        assert len(err.splitlines()) == 1
        assert "0.0.1" in err and freqchan.__version__ in err


class TestVerifyCommand:
    def test_special_suite_passes(self, capsys):
        assert main(["verify", "--suite", "special"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert "checks=" in out and "failed=0" in out

    def test_tail_checks_show_events_and_std_err(self):
        # At seed 0 the divergence tail sees no event and the overlap tail
        # sees 9; the details say so next to the estimate and the ceiling.
        details = {name: detail for name, _, detail
                   in freqchan.verify.run_suites("channel", seed=0)}
        kl = details["divergence tail under its ceiling"]
        bc = details["overlap tail under its ceiling"]
        assert kl == "events=0/20000 emp=0 se=0 bound=0.102"
        assert bc.startswith("events=9/20000 emp=0.00045 se=")
        assert bc.endswith(" bound=3.37")

    def test_failing_check_sets_exit_code(self, monkeypatch, capsys):
        monkeypatch.setitem(
            freqchan.verify.SUITES, "special",
            lambda seed: [("forced failure", False, "injected")])
        assert main(["verify", "--suite", "special"]) == EXIT_VERIFY_FAILED
        assert "FAIL forced failure" in capsys.readouterr().out

    @pytest.mark.parametrize("suite", ["channel", "special", "all"])
    def test_negative_seed_is_usage_error(self, capsys, suite):
        # Refused before any suite runs, even one that draws nothing.
        assert main(["verify", "--suite", suite, "--seed", "-5"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: seed must be nonnegative, got -5\n"


class TestUsageSurface:
    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_flag_is_usage_error(self):
        assert main(["exponents", "--rate", "0:1:1", "--out", "x.csv"]) \
            == EXIT_USAGE

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0


class TestModuleEntryPoint:
    """``python -m freqchan`` runs the same CLI as the console script."""

    @staticmethod
    def _run(*argv):
        return subprocess.run([sys.executable, "-m", "freqchan", *argv],
                              env=_child_env(), capture_output=True,
                              text=True, timeout=120)

    def test_rates_writes_csv(self, tmp_path):
        out = tmp_path / "rates.csv"
        proc = self._run("rates", "--r", "1:2:1", "--out", str(out))
        assert proc.returncode == EXIT_OK, proc.stderr
        lines = _read(out).strip().split("\n")
        assert lines[0] == "r,R_LB,converse" and len(lines) == 3

    @pytest.mark.parametrize("row", [0, 3, 7])
    def test_bad_input_has_no_traceback(self, tmp_path, row):
        out = tmp_path / "x.csv"
        proc = self._run(*BAD_INPUT[row], "--out", str(out))
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.startswith("usage error: ")
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_huge_rho_max_has_no_traceback(self, tmp_path):
        # G at a rho_max end this far out rounds to 0: the capped rate 0
        # is refused, never a ZeroDivisionError.
        proc = self._run("exponents", "--r", "400", "--rate", "0:0.02:0.01",
                         "--which", "ex", "--rho-max", "1e100",
                         "--out", str(tmp_path / "x.csv"))
        assert proc.returncode in (EXIT_OK, EXIT_USAGE), proc.stderr
        assert "Traceback" not in proc.stderr

    def test_usage_error_exit_code(self, tmp_path):
        proc = self._run("exponents", "--r", "inf", "--rate", "0:0.01:0.01",
                         "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == EXIT_USAGE
        assert "usage error" in proc.stderr


class TestConsoleBlasThreads:
    """``console`` asks OpenBLAS for one thread unless the caller chose."""

    SCRIPT = """
import json, os, sys
from freqchan.cli import console
sys.argv = ["freqchan", "simulate", "--n", "10", "--r", "2", "--M", "4",
            "--trials", "200", "--seed", "1", "--parallelism", "1",
            "--out", sys.argv[1]]
try:
    console()
except SystemExit as exc:
    code = exc.code
tasks = "/proc/self/task"
print(json.dumps({"code": code,
                  "blas": os.environ.get("OPENBLAS_NUM_THREADS"),
                  "threads": len(os.listdir(tasks))
                  if os.path.isdir(tasks) else None}))
"""

    def _run(self, tmp_path, **env):
        child = _child_env()
        child.pop("OPENBLAS_NUM_THREADS", None)
        child.update(env)
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT,
                               str(tmp_path / "s.csv")], env=child,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout.strip().split("\n")[-1])
        assert seen["code"] == EXIT_OK
        return seen

    def test_one_thread_left_after_simulate(self, tmp_path):
        seen = self._run(tmp_path)
        assert seen["blas"] == "1"
        if seen["threads"] is None:
            pytest.skip("no /proc/self/task to count threads in")
        assert seen["threads"] == 1

    def test_caller_setting_is_kept(self, tmp_path):
        assert self._run(tmp_path, OPENBLAS_NUM_THREADS="2")["blas"] == "2"


class TestRuntimeImports:
    """The library runs on numpy alone; scipy is a test-only reference.

    The bounds need no numpy at all: it loads with the Monte Carlo layer.
    A serial simulation loads no process pool.
    """

    SCRIPT = """
import json, os, sys
import freqchan
from freqchan.cli import main
out = sys.argv[1]
codes = [
    main(["exponents", "--r", "400", "--rate", "0:0.02:0.01",
          "--which", "both", "--out", os.path.join(out, "e.csv")]),
    main(["rates", "--r", "1:21:10", "--g", "200",
          "--out", os.path.join(out, "r.csv")]),
]
try:
    main(["--help"])
except SystemExit as exc:
    codes.append(exc.code)
bounds_numpy = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
codes.append(main(["simulate", "--n", "10", "--r", "2", "--M", "4",
                   "--trials", "200", "--seed", "1", "--parallelism", "1",
                   "--out", os.path.join(out, "s.csv")]))
print(json.dumps({"codes": codes, "bounds_numpy": bounds_numpy,
                  "scipy": sorted(m for m in sys.modules
                                  if m.split(".")[0] == "scipy"),
                  "numpy.random": "numpy.random" in sys.modules,
                  "multiprocessing": "multiprocessing" in sys.modules}))
"""

    def test_commands_load_no_scipy(self, tmp_path):
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT,
                               str(tmp_path)], env=_child_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout.strip().split("\n")[-1])
        assert seen["codes"] == [EXIT_OK] * 4
        assert seen["bounds_numpy"] == []
        assert seen["scipy"] == []
        assert seen["numpy.random"]
        assert not seen["multiprocessing"]

    def test_lazy_names_are_the_channel_exports(self):
        import freqchan.channel
        assert set(freqchan._CHANNEL_NAMES) == set(freqchan.channel.__all__)

    def test_channel_names_resolve_lazily(self):
        import freqchan.channel
        for name in freqchan.channel.__all__:
            assert getattr(freqchan, name) is getattr(freqchan.channel, name)
        assert set(freqchan.channel.__all__) <= set(dir(freqchan))
        assert "rc_exponent" in dir(freqchan)
        with pytest.raises(AttributeError, match="no_such_name"):
            freqchan.no_such_name

    def test_from_import_in_a_fresh_process(self):
        # The child starts without site (-S), whose .pth files may import
        # typing, and counts the modules each step adds; site then runs,
        # for numpy.
        heavy = {"dataclasses", "inspect", "typing", "numpy"}
        script = (f"import sys\nheavy = {heavy!r}\n"
                  "before = set(sys.modules)\nimport freqchan\n"
                  "print(sorted(heavy & (set(sys.modules) - before)))\n"
                  "import site\nsite.main()\nbefore = set(sys.modules)\n"
                  "import freqchan.cli\n"
                  "from freqchan import SimConfig\n"
                  "added = set(sys.modules) - before\n"
                  "print(SimConfig.__module__, 'numpy' in added,\n"
                  "      'dataclasses' in added)")
        proc = subprocess.run([sys.executable, "-S", "-c", script],
                              env=_child_env(), capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]",
                                            "freqchan.channel True False"]
