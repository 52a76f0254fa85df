"""CLI surface: parsing, dispatch, report formats, exit codes, determinism."""

import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import foxwright
from foxwright import cli, series
from foxwright.catalog import DOUBLE_POLE, EXP_COLLAPSE, NAMED_SETS, TWIN_QUARTER
from foxwright.cli import CliUsageError, main, parse_grid, parse_k_list
from foxwright.representations import moment_identity_check


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(*argv):
    """One ``python -m foxwright.cli`` process, so its parser is built anew."""
    src = Path(foxwright.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "foxwright.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    return proc.returncode, proc.stdout, proc.stderr


def json_rows(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def readme_cli_examples():
    """Every ``foxwright ...`` line of the README's CLI code block, as argv."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("foxwright ")]


@pytest.mark.parametrize("argv", readme_cli_examples(), ids=" ".join)
def test_readme_example_exits_0(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert out and err == ""


GOLDEN = json.loads((Path(__file__).parent / "golden" / "readme_cli.json").read_text())


def test_golden_argvs_are_the_readme_lines():
    assert [entry["argv"] for entry in GOLDEN] == readme_cli_examples()


@pytest.mark.parametrize("entry", GOLDEN, ids=lambda entry: " ".join(entry["argv"]))
def test_readme_example_matches_golden(capsys, entry):
    """The README lines print the bytes and exit with the code captured in
    ``tests/golden/readme_cli.json``, so a refactor cannot move a report."""
    code, out, _ = run_cli(capsys, *entry["argv"])
    assert (code, out) == (entry["exit"], entry["stdout"])


def test_readme_examples_cover_every_command():
    commands = {argv[0] for argv in readme_cli_examples()}
    assert commands == {
        "eval", "hfun", "moments", "verify-representation", "verify-stieltjes",
        "verify-laplace", "bounds", "cm-check", "ratio-scan",
    }


class TestGridParsing:
    def test_colon_grid_inclusive(self):
        assert parse_grid("0:2:5") == [0.0, 0.5, 1.0, 1.5, 2.0]

    def test_single_count(self):
        assert parse_grid("3.5:9:1") == [3.5]

    def test_comma_list_and_scalar(self):
        assert parse_grid("1,2.5,-3") == [1.0, 2.5, -3.0]
        assert parse_grid("0.25") == [0.25]

    def test_bad_grids(self):
        with pytest.raises(CliUsageError):
            parse_grid("0:1")
        with pytest.raises(CliUsageError):
            parse_grid("0:1:0")
        with pytest.raises(CliUsageError):
            parse_grid("a,b")

    @pytest.mark.parametrize("spec", ["0:inf:3", "nan", "0.1,inf", "-inf:0:1"])
    def test_non_finite_grids(self, spec):
        with pytest.raises(CliUsageError):
            parse_grid(spec)

    def test_k_range(self):
        assert parse_k_list("0..3") == [0.0, 1.0, 2.0, 3.0]
        assert parse_k_list("0.5,1.5") == [0.5, 1.5]
        with pytest.raises(CliUsageError):
            parse_k_list("5..2")

    @pytest.mark.parametrize("spec", ["nan", "1,inf", "-inf"])
    def test_non_finite_k_lists(self, spec):
        with pytest.raises(CliUsageError):
            parse_k_list(spec)

    @pytest.mark.parametrize("argv", [
        ("hfun", "--params", "double-pole", "--z=nan"),
        ("eval", "--params", "double-pole", "--z=0:inf:3"),
        ("moments", "--params", "double-pole", "--k", "nan"),
    ])
    def test_non_finite_input_exits_1(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "non-finite" in err

    def test_overflowing_span_prints_only_the_error(self):
        # finite ends whose difference overflows a double: rejected before
        # np.linspace, which would print RuntimeWarnings to stderr first
        assert run_fresh("eval", "--params", "identity", "--z=-1.7e308:1.7e308:3") == (
            1, "", "error: non-finite value in '-1.7e308:1.7e308:3'\n"
        )


class TestFloatFlags:
    @pytest.mark.parametrize("argv", [
        ("verify-stieltjes", "--params", "double-pole", "--sigma", "nan", "--z", "0.5"),
        ("bounds", "--params", "double-pole", "--lift", "nan", "--z", "0.5"),
        ("bounds", "--params", "double-pole", "--sigma=-inf", "--z", "0.5"),
        ("verify-stieltjes", "--params", "double-pole", "--sigma", "inf", "--z", "0.5"),
        ("verify-laplace", "--params", "exp-collapse", "--lift", "inf", "--z", "0.5"),
        ("ratio-scan", "--params", "double-pole", "--delta", "nan"),
        ("ratio-scan", "--params", "double-pole", "--sigma=-inf"),
        ("verify-laplace", "--params", "exp-collapse", "--lift", "nan", "--z", "0.5"),
    ])
    def test_non_finite_flag_exits_1(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert re.fullmatch(r"error: argument --\w+: non-finite value '-?(nan|inf)'\n", err)

    def test_malformed_float_message_unchanged(self, capsys):
        argv = ("bounds", "--params", "double-pole", "--sigma", "abc", "--z", "0.5")
        assert run_cli(capsys, *argv) == (1, "", "error: argument --sigma: invalid float value: 'abc'\n")


class TestEval:
    def test_values_against_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--params", "identity", "--z", "0:2:5")
        assert code == 0
        rows = json_rows(out)
        assert len(rows) == 5
        for row in rows:
            assert row["status"] == "ok"
            assert row["value_or_verdict"] == pytest.approx(math.exp(row["z"]), rel=1e-12)

    def test_catalog_and_file_params_agree(self, capsys, tmp_path):
        path = tmp_path / "collapse.json"
        path.write_text(EXP_COLLAPSE.to_json())
        code1, out1, _ = run_cli(capsys, "eval", "--params", "exp-collapse", "--z", "1")
        code2, out2, _ = run_cli(capsys, "eval", "--params", str(path), "--z", "1")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_missing_params_file_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--params", "no_such_file.json", "--z", "1")
        assert code == 1
        assert "no_such_file.json" in err
        assert out == ""

    def test_missing_grid_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--params", "identity")
        assert code == 1
        assert "--z" in err


class TestUsageErrors:
    @pytest.mark.parametrize("argv,message", [
        (("eval", "--params", "identity", "--z", "1:x:3"), "bad grid"),
        (("moments", "--params", "double-pole", "--k", "1..x"), "bad k-range"),
        (("eval", "--z", "1"), "needs --params"),
        (("cm-check", "--function", "series"), "needs --params"),
    ], ids=" ".join)
    def test_exit_1(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert message in err

    def test_unparsable_params_file_exit_1(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, out, err = run_cli(capsys, "eval", "--params", str(path), "--z", "1")
        assert (code, out) == (1, "")
        assert "could not parse parameter file" in err


class TestMoments:
    def test_all_orders_pass(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--params", "twin-quarter", "--k", "0..8")
        assert code == 0
        rows = json_rows(out)
        assert len(rows) == 9
        assert all(r["status"] == "pass" for r in rows)
        assert all(r["rel_err"] <= 1e-6 for r in rows)

    def test_rows_are_the_library_records(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--params", "twin-quarter", "--k", "0..8")
        assert code == 0
        records = moment_identity_check(TWIN_QUARTER, [float(k) for k in range(9)])
        got = [(r["z"], r["value_or_verdict"], r["abs_err"], r["rel_err"]) for r in json_rows(out)]
        assert got == [(rec.z, rec.lhs, rec.abs_err, rec.rel_err) for rec in records]

    def test_missing_k_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "moments", "--params", "twin-quarter")
        assert code == 1
        assert "--k" in err

    def test_double_pole_numerator_pole_is_an_error_row(self, capsys):
        # gamma_ratio(double-pole, -1) has an uncancelled numerator pole
        code, out, _ = run_cli(capsys, "moments", "--params", "double-pole", "--k=-1,0")
        assert code == 2
        assert [r["status"] for r in json_rows(out)] == ["error:PoleError", "pass"]

    def test_exp_collapse_coincident_poles_pass(self, capsys):
        # numerator and denominator poles cancel at k = -3 and -1
        code, out, _ = run_cli(capsys, "moments", "--params", "exp-collapse", "--k=-3,-1")
        assert code == 0
        rows = json_rows(out)
        assert [r["status"] for r in rows] == ["pass", "pass"]
        assert rows[1]["value_or_verdict"] == pytest.approx(0.5 / math.sqrt(math.pi), rel=1e-12)


class TestUnbalancedSetErrorRows:
    @pytest.mark.parametrize("argv", [["hfun", "--z", "0.5,1"], ["moments", "--k", "0..1"]])
    def test_constraint_error_rows_exit_2(self, capsys, tmp_path, argv):
        path = tmp_path / "unbalanced.json"
        path.write_text('{"upper": [[1, 1]], "lower": [[1, 2]]}')
        code, out, err = run_cli(capsys, argv[0], "--params", str(path), *argv[1:])
        assert code == 2
        assert err == ""
        rows = json_rows(out)
        assert len(rows) == 2
        assert all(r["status"] == "error:ConstraintError" for r in rows)
        assert all(r["value_or_verdict"] is None for r in rows)


class TestVerifyCommands:
    def test_representation_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-representation", "--params", "double-pole", "--z=-1,0,1"
        )
        assert code == 0
        assert all(r["value_or_verdict"] == "pass" for r in json_rows(out))

    def test_stieltjes_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-stieltjes", "--params", "exp-collapse",
            "--sigma", "2", "--z", "0.25",
        )
        assert code == 0
        assert json_rows(out)[0]["status"] == "pass"

    def test_laplace_error_row_exits_2(self, capsys):
        # z rho >= 1 is outside the transform's domain: error row, exit 2
        code, out, _ = run_cli(
            capsys, "verify-laplace", "--params", "exp-collapse", "--lift", "1", "--z", "0.7"
        )
        assert code == 2
        rows = json_rows(out)
        assert rows[0]["status"].startswith("error:")

    def test_laplace_beyond_the_disk_passes(self, capsys):
        # rho |z| = 2 on exp-collapse: the measure route, not the series
        code, out, _ = run_cli(
            capsys, "verify-laplace", "--params", "exp-collapse", "--lift", "1.5", "--z=-1"
        )
        assert code == 0
        rows = json_rows(out)
        assert [r["value_or_verdict"] for r in rows] == ["pass"]

    def test_laplace_without_continuation_is_typed_error(self, capsys, tmp_path):
        # mu = -1/2: a set without a measure has no lifted value past the disk
        path = tmp_path / "no-measure.json"
        path.write_text('{"upper": [[1.0, 1.0]], "lower": [[0.5, 0.5], [0.5, 0.5]]}')
        code, out, _ = run_cli(
            capsys, "verify-laplace", "--params", str(path), "--lift", "2", "--z=-1"
        )
        assert code == 2
        assert json_rows(out)[0]["status"] == "error:OutsideDomainError"

    def test_laplace_past_the_disk_on_a_linear_atom_set(self, capsys):
        # twin-quarter (m = 1): the kernel continuation carries its atoms too
        code, out, _ = run_cli(
            capsys, "verify-laplace", "--params", "twin-quarter", "--lift", "2", "--z=-1"
        )
        assert code == 0
        assert [r["status"] for r in json_rows(out)] == ["pass"]

    def test_stieltjes_on_a_linear_atom_set(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-stieltjes", "--params", "twin-quarter", "--sigma", "2", "--z", "0.1,0.3"
        )
        assert code == 0
        assert [r["status"] for r in json_rows(out)] == ["pass", "pass"]

    @pytest.mark.parametrize("argv", [
        ("bounds", "--params", "twin-quarter", "--lift", "2", "--z", "1"),
        ("ratio-scan", "--params", "twin-quarter", "--z", "0.1,0.3"),
    ], ids=" ".join)
    def test_kernel_bounds_still_need_a_single_atom(self, capsys, argv):
        # Jensen's and Chebyshev's inequalities need a nonnegative measure
        code, out, _ = run_cli(capsys, *argv)
        assert code == 2
        assert json_rows(out)[0]["status"] == "error:ConstraintError"


class TestBoundsCommand:
    def test_exponential_bounds_pass(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--params", "double-pole", "--z", "0:2:5")
        assert code == 0
        for row in json_rows(out):
            assert row["status"] == "pass"
            assert row["abs_err"] >= -1e-12  # margin to the lower bound
            assert row["rel_err"] >= -1e-12  # margin to the upper bound

    def test_degenerate_set_error_rows(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--params", "exp-collapse", "--z", "1")
        assert code == 2
        assert json_rows(out)[0]["status"] == "error:DegenerateError"

    def test_sigma_bound(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--params", "double-pole", "--sigma", "3", "--z", "0.1,0.3"
        )
        assert code == 0
        assert all(r["status"] == "pass" for r in json_rows(out))

    def test_sigma_and_lift_together_is_usage_error(self, capsys):
        # the --sigma bound used to run and --lift was dropped without a word
        code, out, err = run_cli(
            capsys, "bounds", "--params", "double-pole", "--z", "1", "--sigma", "2", "--lift", "1"
        )
        assert (code, out) == (1, "")
        assert "--sigma or --lift" in err

    def test_lift_overflow_at_zero_names_the_series_error(self, capsys):
        # gamma(171.6) ratio(0) overflows at z = 0, the centre of the lifted
        # series disk: the row names the overflow, not a point outside the disk
        code, out, err = run_cli(capsys, "bounds", "--params", "double-pole", "--lift", "171.6",
                                 "--z", "0")
        assert (code, err) == (2, "")
        (row,) = json_rows(out)
        assert row["status"] == "error:NonConvergentError"


class TestCmCheckCommand:
    def test_series_clean_exit_0(self, capsys):
        code, out, _ = run_cli(capsys, "cm-check", "--params", "double-pole")
        assert code == 0
        assert json_rows(out)[0]["value_or_verdict"] == "clean"

    def test_linear_fails_exit_2(self, capsys):
        code, out, _ = run_cli(capsys, "cm-check", "--function", "linear")
        assert code == 2
        assert json_rows(out)[0]["value_or_verdict"] == "order-1-defect"

    def test_collapse_remainder_fails_at_order_0(self, capsys):
        code, out, _ = run_cli(capsys, "cm-check", "--function", "collapse-remainder")
        assert code == 2
        assert json_rows(out)[0]["value_or_verdict"] == "order-0-defect"

    @pytest.mark.parametrize("name, grid", [
        ("identity", "--z=10:40:4"),
        ("double-pole", "--z=20:60:3"),
        ("double-pole", "--z=700:800:3"),
    ], ids=" ".join)
    def test_represented_set_is_read_from_its_measure(self, capsys, name, grid):
        # the alternating series cancels to noise or overflows at these x, so
        # F(-x) must come from the measure, which adds same-sign terms only
        code, out, err = run_cli(capsys, "cm-check", "--params", name, grid)
        assert (code, err) == (0, "")
        assert [r["value_or_verdict"] for r in json_rows(out)] == ["clean"]

    def test_signed_measure_fails_at_order_0(self, capsys):
        # twin-quarter's m = 1 measure carries a derivative atom: F(-0.4) < 0
        code, out, err = run_cli(capsys, "cm-check", "--params", "twin-quarter", "--z=0.4:7:6")
        (row,) = json_rows(out)
        assert (code, err) == (2, "")
        assert (row["z"], row["value_or_verdict"], row["status"]) == (0.4, "order-0-defect", "fail")

    def test_unknown_function_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "cm-check", "--function", "nope")
        assert code == 1
        assert "nope" in err


class TestRatioScanCommand:
    def test_scan_with_summary_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "ratio-scan", "--params", "double-pole",
            "--sigma", "1", "--delta", "1", "--z", "0.05:0.95:5",
        )
        assert code == 0
        rows = json_rows(out)
        assert len(rows) == 6  # 5 grid rows + 1 summary
        assert rows[-1]["value_or_verdict"] == "nonincreasing"
        assert rows[-1]["status"] == "pass"


class TestOutputFormats:
    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--params", "identity", "--z", "0:1:3", "--output", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "command,params_hash,z,value_or_verdict,abs_err,rel_err,status"
        assert len(lines) == 4
        assert lines[1].startswith("eval,")

    def test_csv_summary_row_has_empty_z(self, capsys):
        code, out, _ = run_cli(
            capsys, "ratio-scan", "--params", "double-pole", "--z", "0.1,0.5", "--output", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4  # header, 2 grid rows, summary
        command, phash, z, verdict, violation, gap, status = lines[-1].split(",")
        assert (command, z, verdict, status) == ("ratio-scan", "", "nonincreasing", "pass")
        assert phash == DOUBLE_POLE.hash_key()
        assert float(violation) >= 0.0 and float(gap) >= 0.0
        assert lines[1].split(",")[2] == "0.1"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.jsonl"
        code, out, _ = run_cli(
            capsys, "eval", "--params", "identity", "--z", "1", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        rows = [json.loads(line) for line in target.read_text().splitlines()]
        assert rows[0]["value_or_verdict"] == pytest.approx(math.e, rel=1e-12)

    def test_unwritable_out_path_exits_1(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.jsonl"
        code, out, err = run_cli(
            capsys, "eval", "--params", "identity", "--z", "0", "--out", str(target)
        )
        assert (code, out) == (1, "")
        assert err == f"error: could not write {target}: No such file or directory\n"

    def test_byte_identical_determinism(self, capsys):
        argv = ["moments", "--params", "double-pole", "--k", "0..5", "--output", "csv"]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_float_repr_roundtrips(self, capsys):
        _, out, _ = run_cli(capsys, "eval", "--params", "identity", "--z", "0.1")
        row = json_rows(out)[0]
        assert float(repr(row["value_or_verdict"])) == row["value_or_verdict"]


class TestFlagSurface:
    """Each subcommand takes exactly the flags it reads, by their full names;
    each check fixes its own verdict tolerance and difference step."""

    @staticmethod
    def options(name):
        sub = next(action for action in cli._build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        return {opt for action in sub.choices[name]._actions for opt in action.option_strings}

    @pytest.mark.parametrize("name", sorted(cli._COMMANDS))
    def test_command_takes_exactly_its_flags(self, name):
        assert self.options(name) - {"-h", "--help"} == {
            "--params", "--output", "--out", *cli._COMMANDS[name].flags
        }

    @pytest.mark.parametrize("flag", ["--tol", "--h", "--max-order"])
    @pytest.mark.parametrize("name", sorted(cli._COMMANDS))
    def test_removed_flag_exits_1(self, capsys, name, flag):
        # --h used to abbreviate --help on every command but cm-check
        code, out, err = run_cli(capsys, name, "--params", "double-pole", flag, "1")
        assert (code, out) == (1, "")
        assert err == f"error: unrecognized arguments: {flag} 1\n"


class TestParserReuse:
    """``main`` builds its parser once per process, so every call must start
    again from the defaults and leave nothing behind."""

    def test_one_parser_per_process(self):
        assert cli._build_parser() is cli._build_parser()

    def test_omitted_flag_gets_its_default_back(self, capsys):
        base = ("verify-stieltjes", "--params", "double-pole", "--z", "0.25,0.5")
        first = run_cli(capsys, *base)
        shifted = run_cli(capsys, *base, "--sigma", "3")
        assert shifted[0] == 0 and shifted != first
        assert run_cli(capsys, *base) == first
        assert cli._build_parser().parse_args(base).sigma == 1.0

    def test_usage_error_then_good_call(self, capsys):
        bad = ("eval", "--params", "identity", "--z", "1", "--sigma", "2")
        first = run_cli(capsys, *bad)
        assert first[:2] == (1, "") and first[2].startswith("error: unrecognized arguments")
        assert run_cli(capsys, *bad) == first
        code, out, err = run_cli(capsys, "eval", "--params", "identity", "--z", "1")
        assert (code, err) == (0, "")
        assert json_rows(out)[0]["value_or_verdict"] == pytest.approx(math.e, rel=1e-12)

    @pytest.mark.parametrize("argv", [["--help"], ["bounds", "--help"]])
    def test_help_exits_0_every_time(self, capsys, argv):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] and texts[0].startswith("usage: foxwright")

    @pytest.mark.parametrize("argv", readme_cli_examples(), ids=" ".join)
    def test_readme_example_same_bytes_reused_and_fresh(self, capsys, argv):
        first = run_cli(capsys, *argv)
        assert run_cli(capsys, *argv) == first == run_fresh(*argv)


class TestSeriesOverflow:
    """A term that leaves the double range is an error row, exit 2, where an
    OverflowError traceback used to end the run with exit 1."""

    @pytest.mark.parametrize("z", ["-800", "710"])
    def test_eval_row(self, capsys, z):
        # at 710 the terms fit a double and their sum does not: the row read
        # status ok with a value of Infinity, which is not JSON
        code, out, err = run_cli(capsys, "eval", "--params", "identity", f"--z={z}")
        assert (code, err) == (2, "")
        (row,) = json_rows(out)
        assert row["status"] == "error:NonConvergentError"
        assert row["value_or_verdict"] is None

    def test_cm_check_row(self, capsys, tmp_path):
        # delta = -0.5: no representing measure, so cm-check sums the series,
        # whose terms overflow at x = 700; at small x the same set is clean
        path = tmp_path / "unrepresented.json"
        path.write_text('{"upper": [[1.0, 1.0]], "lower": [[1.0, 0.5]]}')
        code, out, err = run_cli(capsys, "cm-check", "--params", str(path), "--z=700:800:3")
        assert (code, err) == (2, "")
        (row,) = json_rows(out)
        assert row["status"] == "error:NonConvergentError"
        code, out, err = run_cli(capsys, "cm-check", "--params", str(path), "--z=0.5:3:4")
        assert (code, err) == (0, "")
        assert [r["value_or_verdict"] for r in json_rows(out)] == ["clean"]


class TestGammaOverflow:
    """A kernel exponent whose gamma overflows a double gives error rows,
    exit 2, where an OverflowError traceback from math.gamma ended the run."""

    @pytest.mark.parametrize("argv", [
        ("verify-stieltjes", "--sigma", "500", "--z", "0.5"),
        ("bounds", "--lift", "500", "--z", "0.5"),
        ("bounds", "--sigma", "500", "--z", "0.5"),
        ("verify-laplace", "--lift", "500", "--z=-0.3"),
        ("ratio-scan", "--sigma", "500"),
    ], ids=" ".join)
    def test_error_rows(self, capsys, argv):
        code, out, err = run_cli(capsys, argv[0], "--params", "double-pole", *argv[1:])
        assert (code, err) == (2, "")
        rows = json_rows(out)
        assert rows and all(row["status"] == "error:ParameterError" for row in rows)


class TestDoubleRange:
    """A value past the double range is an error row, exit 2, with nothing on
    stderr: an OverflowError traceback ended the first three runs with exit
    1, and numpy's overflow warning went to stderr in the last three."""

    @pytest.mark.parametrize("argv, status", [
        (("verify-representation", "--params", "exp-collapse", "--z=354.95"), "DomainError"),
        (("moments", "--params", "exp-collapse", "--k=1e10"), "DomainError"),
        (("moments", "--params", "twin-quarter", "--k=1e10"), "DomainError"),
        (("moments", "--params", "double-pole", "--k=-400"), "QuadratureFailure"),
        (("verify-stieltjes", "--params", "double-pole", "--sigma", "150", "--z=-0.9999999"),
         "QuadratureFailure"),
        (("ratio-scan", "--params", "double-pole", "--sigma", "150", "--delta", "1",
          "--z=-0.9999999,-0.5"), "QuadratureFailure"),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else v)
    def test_error_row(self, capsys, argv, status):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (2, "")
        (row,) = strict_json_rows(out)
        assert row["status"] == f"error:{status}"

    def test_atom_sum_past_the_double_range_beside_a_passing_point(self, capsys):
        # rho z = 709.6 on an m = 1 set: the series overflows first, so the
        # grid runs each point alone and z = -1 keeps its pass row
        code, out, err = run_cli(capsys, "verify-representation", "--params", "twin-quarter",
                                 "--z=-1,354.8")
        assert (code, err) == (2, "")
        first, second = out.splitlines()
        assert first == (
            '{"command": "verify-representation", "params_hash": "55d3a95139b192da", "z": -1.0, '
            '"value_or_verdict": "pass", "abs_err": 1.5751289161869408e-15, '
            '"rel_err": 1.5004507095058069e-15, "status": "pass"}')
        assert json.loads(second)["status"].startswith("error:")


# every subcommand form, walked over each catalog set at these grid values
_SWEEP_FORMS = [
    ("eval",), ("hfun",), ("verify-representation",), ("verify-stieltjes", "--sigma", "2"),
    ("verify-laplace", "--lift", "1.5"), ("bounds",), ("bounds", "--lift", "2"),
    ("bounds", "--sigma", "3"), ("moments",), ("cm-check",), ("ratio-scan",),
]
_SWEEP_VALUES = ["-1e10", "-800", "-400", "-354.95", "-100", "-1e-300", "0", "1e-300",
                 "0.4999", "0.5", "0.99", "1", "1.99", "2", "100", "354.95", "400", "800",
                 "1e10"]


@pytest.mark.parametrize("form", _SWEEP_FORMS, ids=" ".join)
def test_sweep_gives_typed_rows_only(capsys, form):
    """Across the double range every run exits 0 or 2 and prints strict JSON
    with nothing on stderr: no traceback, and no warning, which the test
    configuration turns into an error.  The scans take the non-negative
    values, ratio-scan as the second point of a two-point grid."""
    command, *flags = form
    if command == "cm-check":
        grids = [f"--z={v}" for v in _SWEEP_VALUES if float(v) >= 0]
    elif command == "ratio-scan":
        grids = [f"--z=0.5,{v}" for v in _SWEEP_VALUES if float(v) >= 0]
    else:
        grids = [f"--{'k' if command == 'moments' else 'z'}={v}" for v in _SWEEP_VALUES]
    failures = []
    for name in sorted(NAMED_SETS):
        for grid in grids:
            argv = [command, "--params", name, *flags, grid]
            try:
                code, out, err = run_cli(capsys, *argv)
                strict_json_rows(out)
                if code not in (0, 2) or err:
                    failures.append((argv, code, err))
            except Exception as exc:  # every escape is a failure
                failures.append((argv, type(exc).__name__, str(exc)))
    assert failures == []


@pytest.mark.parametrize("form", [f for f in _SWEEP_FORMS
                                  if f[0] not in ("cm-check", "ratio-scan")], ids=" ".join)
def test_grid_equals_its_points(capsys, form):
    """One run over all the sweep values prints, byte for byte, the rows of
    the one-point runs in order: where the grid call raises, each point runs
    alone and keeps its own error row.  The same holds for the values whose
    own runs raise no error, which the grid call serves in one piece.  Each
    run exits 2 exactly when a row fails, and writes nothing to stderr."""
    command, *flags = form
    flag = "--k" if command == "moments" else "--z"
    for name in sorted(NAMED_SETS):
        argv = [command, "--params", name, *flags]
        points = dict(zip(_SWEEP_VALUES, (run_cli(capsys, *argv, f"{flag}={v}")
                                          for v in _SWEEP_VALUES)))
        clean = [v for v, (_, out, _) in points.items() if '"error:' not in out]
        for values in [vs for vs in (_SWEEP_VALUES, clean) if vs]:
            code, out, err = run_cli(capsys, *argv, f"{flag}={','.join(values)}")
            assert err == ""
            assert out == "".join(points[v][1] for v in values), (name, values)
            failed = any(row["status"] not in ("ok", "pass") for row in json_rows(out))
            assert code == (2 if failed else 0)
        assert all(err == "" for _, _, err in points.values())


def strict_json_rows(out):
    """Rows of a JSON-lines report, refusing NaN and Infinity, which JSON lacks."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return [json.loads(line, parse_constant=refuse) for line in out.strip().splitlines()]


class TestNonFiniteRows:
    """No row carries a non-finite float: a bound past the double range is
    an error row, and any other non-finite figure is written as null on a
    failing row."""

    def test_lifted_bound_past_double_range(self, capsys):
        # gamma(171.6) fits a double, the upper bound does not: this row
        # read status pass with "rel_err": Infinity, exit 0
        code, out, err = run_cli(capsys, "bounds", "--params", "double-pole",
                                 "--lift", "171.6", "--z", "0.5")
        assert (code, err) == (2, "")
        (row,) = strict_json_rows(out)
        assert row["status"] == "error:DomainError"
        assert (row["value_or_verdict"], row["abs_err"], row["rel_err"]) == (None, None, None)

    @pytest.mark.parametrize("output", ["json", "csv"])
    def test_non_finite_value_is_null_and_fails(self, capsys, monkeypatch, output):
        class Infinite:
            def density(self, t):
                return np.full(np.shape(t), math.inf if t[0] < 0.55 else math.nan)

        monkeypatch.setattr(cli, "get_evaluator", lambda params: Infinite())
        code, out, _ = run_cli(capsys, "hfun", "--params", "double-pole", "--z", "0.5,0.6",
                               "--output", output)
        assert code == 2
        if output == "json":
            rows = strict_json_rows(out)
            assert [(r["value_or_verdict"], r["status"]) for r in rows] == [(None, "fail")] * 2
        else:
            assert out.splitlines()[1:] == [
                "hfun,0427ae0a7ebdbf5c,0.5,,,,fail", "hfun,0427ae0a7ebdbf5c,0.6,,,,fail"]

    @pytest.mark.parametrize("argv", readme_cli_examples(), ids=" ".join)
    def test_readme_rows_are_strict_json(self, capsys, argv):
        _, out, _ = run_cli(capsys, *argv)
        assert strict_json_rows(out)


class TestTermCap:
    def test_term_cap_produces_error_rows(self, capsys, monkeypatch):
        # the partial sum 1 + 25 + 312.5 + 2604.2 = 2942.7 is finite, but
        # an error row carries no value
        monkeypatch.setattr(series, "_TERM_CAP", 4)
        code, out, _ = run_cli(capsys, "eval", "--params", "identity", "--z", "25")
        assert code == 2
        (row,) = json_rows(out)
        assert row["status"] == "error:NonConvergentError"
        assert row["value_or_verdict"] is None
        monkeypatch.undo()
        code, _, _ = run_cli(capsys, "eval", "--params", "identity", "--z", "25")
        assert code == 0
