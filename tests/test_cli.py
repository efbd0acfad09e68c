"""Tests for the qt command line interface."""

from __future__ import annotations

import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import quivermoduli
import quivermoduli.core
import quivermoduli.oracle
from quivermoduli import HNType, stratum_report, verdict
from quivermoduli.cli import (
    EXIT_INPUT,
    EXIT_NONE,
    EXIT_RIGIDITY,
    EXIT_VANISHING,
    STRATA_COLUMNS,
    SWEEP_COLUMNS,
    ProblemSpecError,
    load_problem,
    main,
    parse_problem,
    render_table,
    strata_rows,
)
from quivermoduli.core import BudgetExceededError

KRONECKER_PROBLEM = {
    "vertices": 2,
    "arrows": [[1, 2], [1, 2], [1, 2]],
    "d": [2, 3],
    "theta": [3, -2],
}
TRIANGLE_A_PROBLEM = {
    "vertices": 3,
    "arrows": [[1, 2]] * 5 + [[1, 3], [2, 3]],
    "d": [4, 1, 4],
    "theta": "canonical",
}
TRIANGLE_B_PROBLEM = {
    "vertices": 3,
    "arrows": [[1, 2]] + [[1, 3]] * 6 + [[2, 3]],
    "d": [1, 6, 6],
    "theta": "canonical",
}
JORDAN_PROBLEM = {
    "vertices": 1,
    "arrows": [[1, 1]],
    "d": [1],
    "theta": [0],
}

from cases import GOLDEN_STRATA_CELLS_23 as EXPECTED_STRATA_CELLS

GOLDEN = Path(__file__).resolve().parent / "golden"


def write_problem(tmp_path, data, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def child_env():
    """os.environ with PYTHONPATH led by the src/ of the package under test,
    so a child interpreter imports the same quivermoduli as this test."""
    src = str(Path(quivermoduli.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )}


class TestParseProblem:
    def test_valid(self):
        spec = parse_problem(json.dumps(KRONECKER_PROBLEM))
        assert spec.quiver.vertex_count == 2
        assert spec.quiver.arrow_count == 3
        assert spec.d == (2, 3)
        assert spec.theta == (3, -2)

    def test_canonical_theta(self):
        data = dict(KRONECKER_PROBLEM, theta="canonical")
        spec = parse_problem(json.dumps(data))
        assert spec.theta == (3, -2)

    def test_malformed_json(self):
        with pytest.raises(ProblemSpecError, match="malformed JSON"):
            parse_problem("{not json")

    def test_not_an_object(self):
        with pytest.raises(ProblemSpecError, match="JSON object"):
            parse_problem("[1, 2]")

    def test_unknown_key(self):
        data = dict(KRONECKER_PROBLEM, extra=1)
        with pytest.raises(ProblemSpecError, match="unknown keys: extra"):
            parse_problem(json.dumps(data))

    def test_missing_key(self):
        data = {k: v for k, v in KRONECKER_PROBLEM.items() if k != "theta"}
        with pytest.raises(ProblemSpecError, match="missing keys: theta"):
            parse_problem(json.dumps(data))

    def test_bad_vertices(self):
        for bad in (0, -1, "2", True, 1.5):
            data = dict(KRONECKER_PROBLEM, vertices=bad)
            with pytest.raises(ProblemSpecError):
                parse_problem(json.dumps(data))

    def test_bad_arrows(self):
        for bad in ([[1]], [[1, 2, 3]], [1, 2], [["a", "b"]], "arrows"):
            data = dict(KRONECKER_PROBLEM, arrows=bad)
            with pytest.raises(ProblemSpecError):
                parse_problem(json.dumps(data))

    def test_arrow_out_of_range(self):
        data = dict(KRONECKER_PROBLEM, arrows=[[1, 3]])
        with pytest.raises(ProblemSpecError):
            parse_problem(json.dumps(data))

    def test_d_length_mismatch(self):
        data = dict(KRONECKER_PROBLEM, d=[2, 3, 4])
        with pytest.raises(ProblemSpecError, match="length 3, expected 2"):
            parse_problem(json.dumps(data))

    def test_negative_d(self):
        data = dict(KRONECKER_PROBLEM, d=[2, -3], theta=[3, 2])
        with pytest.raises(ProblemSpecError):
            parse_problem(json.dumps(data))

    def test_theta_d_nonzero(self):
        data = dict(KRONECKER_PROBLEM, theta=[1, 1])
        with pytest.raises(ProblemSpecError, match=r"theta\(d\) = 5, expected 0"):
            parse_problem(json.dumps(data))

    def test_theta_length_mismatch(self):
        data = dict(KRONECKER_PROBLEM, theta=[3, -2, 0])
        with pytest.raises(ProblemSpecError, match="length 3, expected 2"):
            parse_problem(json.dumps(data))

    def test_canonical_rejected_for_zero_d(self):
        data = dict(KRONECKER_PROBLEM, d=[0, 0], theta="canonical")
        with pytest.raises(ProblemSpecError, match="canonical theta"):
            parse_problem(json.dumps(data))


class TestRenderTable:
    def test_csv_quoting_round_trips(self):
        out = render_table(("a", "b"), [["(1,2)", "x"]], "csv")
        parsed = list(csv.reader(io.StringIO(out)))
        assert parsed == [["a", "b"], ["(1,2)", "x"]]

    def test_md(self):
        out = render_table(("a", "b"), [["1", "2"]], "md")
        assert out == "| a | b |\n| --- | --- |\n| 1 | 2 |"

    def test_txt_alignment(self):
        out = render_table(("col", "x"), [["v", "longer"]], "txt")
        lines = out.split("\n")
        assert lines[0] == "col  x"
        assert lines[1] == "v    longer"


class TestStrataCommand:
    def test_csv_matches_golden_table(self, tmp_path, capsys):
        path = write_problem(tmp_path, KRONECKER_PROBLEM)
        assert main(["strata", path, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        parsed = list(csv.reader(io.StringIO(out)))
        assert parsed[0] == list(STRATA_COLUMNS)
        assert parsed[1:] == EXPECTED_STRATA_CELLS

    def test_txt_summary_line(self, tmp_path, capsys):
        path = write_problem(tmp_path, KRONECKER_PROBLEM)
        assert main(["strata", path]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("hn_type")
        assert "7 unstable strata; dense semistable stratum present" in out

    def test_md_format(self, tmp_path, capsys):
        path = write_problem(tmp_path, KRONECKER_PROBLEM)
        assert main(["strata", path, "--format", "md"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "| " + " | ".join(STRATA_COLUMNS) + " |"
        assert lines[1].startswith("| ---")
        assert len(lines) == 2 + 7

    def test_failing_stratum_marked(self, tmp_path, capsys):
        path = write_problem(tmp_path, TRIANGLE_B_PROBLEM)
        assert main(["strata", path, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        parsed = list(csv.reader(io.StringIO(out)))
        failing = [r for r in parsed[1:] if r[0] == "((0,1,0),(1,5,6))"]
        assert failing == [["((0,1,0),(1,5,6))", "1", "(5,-5/12)", "12", "(60,-5)", "65", "65", "no"]]

    def test_deterministic_output(self, tmp_path, capsys):
        path = write_problem(tmp_path, KRONECKER_PROBLEM)
        main(["strata", path])
        first = capsys.readouterr().out
        main(["strata", path])
        second = capsys.readouterr().out
        assert first == second

    def test_rows_match_library(self, tmp_path):
        spec = parse_problem(json.dumps(KRONECKER_PROBLEM))
        rows, dense = strata_rows(spec)
        assert dense
        assert rows == EXPECTED_STRATA_CELLS

    def test_closed_pipe_exits_quietly(self, tmp_path):
        # K3 (10,11) has 2,769 unstable strata, about 400 kB of table, more
        # than a pipe buffer holds: the child is still writing when the
        # reader closes the pipe after one line
        problem = {"vertices": 2, "arrows": [[1, 2]] * 3, "d": [10, 11], "theta": "canonical"}
        path = write_problem(tmp_path, problem)
        with subprocess.Popen(
            [sys.executable, "-m", "quivermoduli.cli", "strata", path],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
        ) as child:
            assert child.stdout.readline().startswith(b"hn_type")
            child.stdout.close()
            _, err = child.communicate(timeout=60)
        assert child.returncode == 0
        assert err == b""


class TestReadme:
    """README's examples are run, and its printed table is real output."""

    blocks = re.findall(
        r"^```(\w*)\n(.*?)^```$",
        (Path(__file__).resolve().parents[1] / "README.md").read_text(),
        re.MULTILINE | re.DOTALL,
    )

    def test_strata_example_output(self, tmp_path, capsys):
        (problem,) = [json.loads(body) for lang, body in self.blocks if lang == "json"]
        assert problem == KRONECKER_PROBLEM
        (table,) = [body for lang, body in self.blocks if body.startswith("hn_type ")]
        assert main(["strata", write_problem(tmp_path, problem)]) == 0
        assert capsys.readouterr().out == table

    def test_python_block_runs(self, capsys):
        (code,) = [body for lang, body in self.blocks if lang == "python"]
        exec(compile(code, "README.md", "exec"), {})
        assert capsys.readouterr().out


class TestVerdictCommand:
    def test_rigidity_exit_code(self, tmp_path, capsys):
        path = write_problem(tmp_path, KRONECKER_PROBLEM)
        assert main(["verdict", path]) == EXIT_RIGIDITY
        out = capsys.readouterr().out
        assert "quiver: 2 vertices, 3 arrows, acyclic" in out
        assert "d = (2,3), theta = (3,-2)" in out
        assert "coprime: yes" in out
        assert "amply stable: yes (smallest unstable stratum codimension 3)" in out
        assert "strongly amply stable: yes" in out
        assert "vanishing: certified" in out
        assert "rigidity: certified" in out
        assert "moduli dimension: 6" in out

    def test_rigid_but_not_strong(self, tmp_path, capsys):
        path = write_problem(tmp_path, TRIANGLE_A_PROBLEM)
        assert main(["verdict", path]) == EXIT_RIGIDITY
        out = capsys.readouterr().out
        assert "strongly amply stable: no (witness e = (3,1,2) with <e,d-e> = -1)" in out
        assert "amply stable: yes (smallest unstable stratum codimension 2)" in out
        assert "rigidity: certified" in out
        assert "moduli dimension: 8" in out

    def test_no_certificate_exit_code(self, tmp_path, capsys):
        path = write_problem(tmp_path, TRIANGLE_B_PROBLEM)
        assert main(["verdict", path]) == EXIT_NONE
        out = capsys.readouterr().out
        assert "amply stable: no (smallest unstable stratum codimension 1)" in out
        assert "strata inequality: no (violated by ((0,1,0),(1,5,6)))" in out
        assert "vanishing: not certified" in out
        assert "does not disprove vanishing" in out
        assert "rigidity: not certified" in out
        assert "moduli dimension: 6" in out

    def test_vanishing_without_rigidity_exit_code(self, tmp_path, capsys):
        path = write_problem(tmp_path, JORDAN_PROBLEM)
        assert main(["verdict", path]) == EXIT_VANISHING
        out = capsys.readouterr().out
        assert "has a directed cycle" in out
        assert "vanishing: certified" in out
        assert "rigidity: not certified" in out

    @pytest.mark.parametrize("problem", [
        # Dynkin A3: 1 - <d,d> = -99, and no representation of d is stable
        {"vertices": 3, "arrows": [[1, 2], [2, 3]], "d": [10, 10, 10], "theta": "canonical"},
        # (1,1) is generic with theta = 0, so no representation is stable
        {"vertices": 2, "arrows": [[1, 2], [1, 2]], "d": [2, 2], "theta": "canonical"},
    ], ids=["A3-10-10-10", "K2-2-2"])
    def test_no_dimension_without_a_stable_point(self, tmp_path, capsys, problem):
        main(["verdict", write_problem(tmp_path, problem)])
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "moduli dimension: none (no theta-stable point)"

    def test_empty_semistable_locus_is_input_error(self, tmp_path, capsys):
        problem = {
            "vertices": 2,
            "arrows": [[1, 2]],
            "d": [2, 1],
            "theta": [1, -2],
        }
        path = write_problem(tmp_path, problem)
        assert main(["verdict", path]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "no semistable representation" in err

    @pytest.mark.parametrize("name", sorted(path.stem for path in GOLDEN.glob("*.json")))
    def test_golden_output(self, name, capsys):
        # tests/golden holds each problem with the stdout and exit code of an
        # earlier release, at sizes random_instances never reaches
        stem = GOLDEN / name
        code = main(["verdict", str(stem.with_suffix(".json"))])
        assert capsys.readouterr().out == stem.with_suffix(".out").read_text()
        assert code == int(stem.with_suffix(".exit").read_text())


class TestInputErrors:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["strata", str(tmp_path / "absent.json")]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("qt: error:")

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["verdict", str(path)]) == EXIT_INPUT
        assert "malformed JSON" in capsys.readouterr().err

    def test_theta_mismatch(self, tmp_path, capsys):
        path = write_problem(tmp_path, dict(KRONECKER_PROBLEM, theta=[1, 1]))
        assert main(["strata", path]) == EXIT_INPUT
        assert "theta(d) = 5" in capsys.readouterr().err

    # every refusal of a d or theta, by its full text: type, length, sign
    @pytest.mark.parametrize("key, value, message", [
        ("d", [1, True], '"d" must be a list of integers'),
        ("d", "1,2", '"d" must be a list of integers'),
        ("theta", "auto", '"theta" must be "canonical" or a list of integers'),
        ("theta", [1, 2.5], '"theta" must be "canonical" or a list of integers'),
        ("d", [2, 3, 4], '"d" has length 3, expected 2'),
        ("theta", [3, -2, 0], '"theta" has length 3, expected 2'),
        ("d", [2, -3], "dimension vector has a negative entry: (2, -3)"),
    ], ids=["d-bool", "d-string", "theta-word", "theta-float", "d-length", "theta-length",
            "d-negative"])
    def test_non_integer_vector(self, tmp_path, capsys, key, value, message):
        data = dict(KRONECKER_PROBLEM, **{key: value})
        with pytest.raises(ProblemSpecError) as exc:
            parse_problem(json.dumps(data))
        assert str(exc.value) == message
        assert main(["verdict", write_problem(tmp_path, data)]) == EXIT_INPUT
        assert capsys.readouterr().err == f"qt: error: {message}\n"

    @pytest.mark.parametrize("key", ["d", "theta"])
    def test_length_refused_before_the_quiver(self, tmp_path, capsys, monkeypatch, key):
        # the quiver's tables take vertices^2 entries: three of 20000^2 here
        def no_quiver(*args):
            raise AssertionError("the quiver was built before d and theta were checked")

        monkeypatch.setattr("quivermoduli.cli.Quiver", no_quiver)
        data = {"vertices": 20000, "arrows": [], "d": [0] * 20000, "theta": [0] * 20000}
        data[key] = [1]
        assert main(["verdict", write_problem(tmp_path, data)]) == EXIT_INPUT
        assert capsys.readouterr().err == f'qt: error: "{key}" has length 1, expected 20000\n'

    def test_vertex_count_refused_by_the_budget(self, tmp_path, capsys, monkeypatch):
        # a consistent file with 20000 vertices: its quiver would hold three
        # tables of 4e8 entries, so it is refused, with exit 2, at once
        monkeypatch.delenv("QT_BUDGET", raising=False)
        data = {"vertices": 20000, "arrows": [], "d": [0] * 19999 + [1], "theta": [0] * 20000}
        path = write_problem(tmp_path, data)
        start = time.perf_counter()
        assert main(["verdict", path]) == EXIT_INPUT
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == (
            "qt: error: quiver tables need 400000000 entries, budget is 10000000 "
            "(raise the budget to force the computation)\n"
        )
        monkeypatch.setenv("QT_BUDGET", "15")
        small = {"vertices": 4, "arrows": [], "d": [1, 0, 0, 0], "theta": [0] * 4}
        with pytest.raises(BudgetExceededError, match="quiver tables need 16 entries"):
            parse_problem(json.dumps(small))

    def test_every_golden_problem_fits_the_budget(self, monkeypatch):
        monkeypatch.delenv("QT_BUDGET", raising=False)
        paths = sorted(GOLDEN.glob("**/*.json"))
        assert len(paths) >= 20
        for path in paths:
            assert load_problem(str(path)).quiver.vertex_count <= 5

    def test_missing_argument_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["strata"])
        assert exc.value.code == 2


TOP_USAGE = "usage: qt {strata,verdict,sweep,oracle-census} FILE [options]\n"
STRATA_USAGE = "usage: qt strata FILE [--format txt|csv|md]\n"
SWEEP_USAGE = "usage: qt sweep FILE --dmax V [--out PATH]\n"
CENSUS_USAGE = "usage: qt oracle-census FILE --field N\n"
STRATA_CSV = "hn_type,codim,slopes,C,k,k1_minus_kl,eta,inequality\n"
SWEEP_CSV = "d,coprime,amply,strongly_amply,all_strata_inequality\n\"(0,1)\",yes"

# argv (FILE stands for a problem file), exit code, stdout prefix, stderr
# prefix; a usage error prints nothing to stdout, a success nothing to stderr
COMMAND_LINES = {
    "no-command": ([], 2, "", TOP_USAGE + "qt: error: the following arguments are required: command\n"),
    "unknown-command": (["bogus", "FILE"], 2, "", TOP_USAGE + "qt: error: argument command: invalid choice: 'bogus'"),
    "no-file": (["strata"], 2, "", STRATA_USAGE + "qt: error: the following arguments are required: FILE\n"),
    "unknown-option": (["strata", "FILE", "--bogus"], 2, "", STRATA_USAGE + "qt: error: unrecognized arguments: --bogus\n"),
    "short-option": (["strata", "-x", "FILE"], 2, "", STRATA_USAGE + "qt: error: unrecognized arguments: -x\n"),
    "no-abbreviation": (["sweep", "FILE", "--dm", "1,1"], 2, "", SWEEP_USAGE + "qt: error: unrecognized arguments: --dm\n"),
    "stray-argument": (["verdict", "FILE", "extra"], 2, "", "usage: qt verdict FILE\nqt: error: unrecognized arguments: extra\n"),
    "no-value-at-end": (["sweep", "FILE", "--dmax"], 2, "", SWEEP_USAGE + "qt: error: argument --dmax: expected one argument\n"),
    "no-value-before-option": (["sweep", "FILE", "--dmax", "--out", "x.csv"], 2, "", SWEEP_USAGE + "qt: error: argument --dmax: expected one argument\n"),
    "no-dmax": (["sweep", "FILE", "--out", "x.csv"], 2, "", SWEEP_USAGE + "qt: error: the following arguments are required: --dmax\n"),
    "no-field": (["oracle-census", "FILE"], 2, "", CENSUS_USAGE + "qt: error: the following arguments are required: --field\n"),
    "bad-format": (["strata", "FILE", "--format", "xml"], 2, "", STRATA_USAGE + "qt: error: argument --format: invalid choice: 'xml' (choose from 'txt', 'csv', 'md')\n"),
    "bad-format-equals": (["strata", "FILE", "--format=xml"], 2, "", STRATA_USAGE + "qt: error: argument --format: invalid choice: 'xml'"),
    "bad-field": (["oracle-census", "FILE", "--field", "two"], 2, "", CENSUS_USAGE + "qt: error: argument --field: invalid int value: 'two'\n"),
    "help": (["-h"], 0, TOP_USAGE, ""),
    "help-long": (["--help"], 0, TOP_USAGE, ""),
    "help-subcommand": (["verdict", "-h"], 0, TOP_USAGE, ""),
    "help-after-file": (["sweep", "FILE", "--help"], 0, TOP_USAGE, ""),
    "strata-default-txt": (["strata", "FILE"], 0, "hn_type  ", ""),
    "strata-equals": (["strata", "FILE", "--format=csv"], 0, STRATA_CSV, ""),
    "option-before-file": (["strata", "--format", "md", "FILE"], 0, "| hn_type | codim |", ""),
    "repeated-option": (["strata", "FILE", "--format", "md", "--format", "csv"], 0, STRATA_CSV, ""),
    "verdict": (["verdict", "FILE"], 0, "quiver: 2 vertices, 3 arrows, acyclic\n", ""),
    "sweep-default-stdout": (["sweep", "FILE", "--dmax", "1,1"], 0, SWEEP_CSV, ""),
    "sweep-equals-first": (["sweep", "--dmax=1,1", "FILE"], 0, SWEEP_CSV, ""),
    "census-equals-first": (["oracle-census", "--field=2", "FILE"], 0, "hn_type", ""),
}
IN_A_CHILD = ["no-command", "unknown-command", "no-dmax", "bad-field", "help",
              "help-subcommand", "strata-default-txt", "sweep-equals-first"]


class TestCommandLine:
    """The grammar `main` reads against `cli.COMMANDS`."""

    @staticmethod
    def expect(tmp_path, name):
        argv, code, out, err = COMMAND_LINES[name]
        path = write_problem(tmp_path, TestOracleCensusCommand.PROBLEM)
        return [path if arg == "FILE" else arg for arg in argv], code, out, err

    @staticmethod
    def check(captured, code, out, err):
        assert captured[0] == code
        assert captured[1].startswith(out) and (code != 2 or captured[1] == "")
        assert captured[2].startswith(err) and (code == 2 or captured[2] == "")

    @pytest.mark.parametrize("name", COMMAND_LINES)
    def test_in_process(self, tmp_path, capsys, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        argv, code, out, err = self.expect(tmp_path, name)
        try:
            got = main(argv)
        except SystemExit as exc:
            got = exc.code
        self.check((got, *capsys.readouterr()), code, out, err)

    @pytest.mark.parametrize("name", IN_A_CHILD)
    def test_in_a_child(self, tmp_path, name):
        argv, code, out, err = self.expect(tmp_path, name)
        proc = subprocess.run([sys.executable, "-m", "quivermoduli.cli", *argv], cwd=tmp_path,
                              capture_output=True, text=True, env=child_env())
        self.check((proc.returncode, proc.stdout, proc.stderr), code, out, err)


class TestSweepCommand:
    def test_one_kronecker_unit_square(self, tmp_path, capsys):
        problem = {"vertices": 2, "arrows": [[1, 2]], "d": [1, 1], "theta": [1, -1]}
        path = write_problem(tmp_path, problem)
        assert main(["sweep", path, "--dmax", "1,1"]) == 0
        parsed = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert parsed[0] == list(SWEEP_COLUMNS)
        assert parsed[1:] == [
            ["(0,1)", "yes", "yes", "yes", "yes"],
            ["(1,0)", "yes", "yes", "yes", "yes"],
            ["(1,1)", "yes", "no", "no", "no"],
        ]

    def test_cells_without_semistable_point_skipped(self, tmp_path, capsys):
        # for one arrow 1 -> 2, the generic (1,1) in (1,2) and (1,0) in
        # (2,1) have a larger canonical slope, so neither has a semistable
        # point and the sweep lists only the other six cells
        problem = {"vertices": 2, "arrows": [[1, 2]], "d": [1, 1], "theta": [1, -1]}
        path = write_problem(tmp_path, problem)
        assert main(["sweep", path, "--dmax", "2,2"]) == 0
        parsed = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert [row[0] for row in parsed[1:]] == ["(0,1)", "(0,2)", "(1,0)", "(1,1)", "(2,0)", "(2,2)"]

    def test_three_kronecker_contains_golden_row(self, tmp_path, capsys):
        path = write_problem(tmp_path, KRONECKER_PROBLEM)
        assert main(["sweep", path, "--dmax", "3,3"]) == 0
        parsed = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert ["(2,3)", "yes", "yes", "yes", "yes"] in parsed[1:]

    @pytest.mark.parametrize("name", sorted(path.stem for path in (GOLDEN / "sweep").glob("*.json")))
    def test_golden_sweep(self, name, capsys):
        # tests/golden/sweep holds the CSV of an earlier release for each
        # quiver, the stem naming its --dmax after the first dash
        stem = GOLDEN / "sweep" / name
        dmax = ",".join(name.split("-")[1:])
        assert main(["sweep", str(stem.with_suffix(".json")), "--dmax", dmax]) == 0
        assert capsys.readouterr().out == stem.with_suffix(".csv").read_text()

    @pytest.mark.parametrize("name", sorted(path.stem for path in (GOLDEN / "strata").glob("*.json")))
    def test_golden_strata(self, name, capsys):
        # tests/golden/strata holds the `qt strata` table of an earlier
        # release for each problem: every HN type, the enumeration path
        stem = GOLDEN / "strata" / name
        assert main(["strata", str(stem.with_suffix(".json"))]) == 0
        assert capsys.readouterr().out == stem.with_suffix(".txt").read_text()

    @pytest.mark.parametrize("name", sorted(path.stem for path in (GOLDEN / "census").glob("*.json")))
    def test_golden_census(self, name, capsys):
        # tests/golden/census holds the `qt oracle-census` table of an earlier
        # release for each problem, the stem naming its field after "-F"
        stem = GOLDEN / "census" / name
        field = name.rsplit("-F", 1)[1]
        assert main(["oracle-census", str(stem.with_suffix(".json")), "--field", field]) == 0
        assert capsys.readouterr().out == stem.with_suffix(".txt").read_text()

    def test_out_file(self, tmp_path):
        problem = {"vertices": 2, "arrows": [[1, 2]], "d": [1, 1], "theta": [1, -1]}
        path = write_problem(tmp_path, problem)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", path, "--dmax", "1,1", "--out", str(out)]) == 0
        parsed = list(csv.reader(io.StringIO(out.read_text())))
        assert parsed[0] == list(SWEEP_COLUMNS)
        assert len(parsed) == 4

    def test_unwritable_out_is_input_error(self, tmp_path, capsys):
        path = write_problem(tmp_path, KRONECKER_PROBLEM)
        for out in (tmp_path / "absent" / "sweep.csv", tmp_path):
            assert main(["sweep", path, "--dmax", "1,1", "--out", str(out)]) == EXIT_INPUT
            captured = capsys.readouterr()
            assert captured.err.startswith(f"qt: error: cannot write {out}: ")
            assert captured.out == ""

    def test_dmax_validation(self, tmp_path, capsys):
        path = write_problem(tmp_path, KRONECKER_PROBLEM)
        assert main(["sweep", path, "--dmax", "1"]) == EXIT_INPUT
        assert "length 1, expected 2" in capsys.readouterr().err
        assert main(["sweep", path, "--dmax", "x,y"]) == EXIT_INPUT
        capsys.readouterr()
        assert main(["sweep", path, "--dmax=-1,2"]) == EXIT_INPUT
        assert "nonnegative" in capsys.readouterr().err

    def test_cell_budget(self, tmp_path, capsys):
        path = write_problem(tmp_path, KRONECKER_PROBLEM)
        assert main(["sweep", path, "--dmax", "1000,1000"]) == EXIT_INPUT
        assert "budget" in capsys.readouterr().err

    def test_cell_budget_message(self, tmp_path, capsys):
        # the cell count is fixed, so the remedy is a smaller --dmax
        path = write_problem(tmp_path, KRONECKER_PROBLEM)
        assert main(["sweep", path, "--dmax", "1000,1000"]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            "qt: error: sweep needs 1002001 cells, budget is 100000 (lower --dmax)\n"
        )

    def test_closed_pipe_exits_quietly(self, tmp_path):
        # a consumer like head closing stdout must not produce a traceback
        path = write_problem(tmp_path, KRONECKER_PROBLEM)
        pipeline = (
            f"{shlex.quote(sys.executable)} -m quivermoduli.cli "
            f"sweep {shlex.quote(path)} --dmax 5,5 | head -c 80 > /dev/null; "
            'exit "${PIPESTATUS[0]}"'
        )
        proc = subprocess.run(["bash", "-c", pipeline], capture_output=True, env=child_env())
        assert proc.returncode == 0
        assert proc.stderr == b""


class TestOracleCensusCommand:
    PROBLEM = {
        "vertices": 2,
        "arrows": [[1, 2], [1, 2], [1, 2]],
        "d": [1, 1],
        "theta": [1, -1],
    }

    def test_census_table(self, tmp_path, capsys):
        path = write_problem(tmp_path, self.PROBLEM)
        assert main(["oracle-census", path, "--field", "2"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].split() == ["hn_type", "count"]
        assert "((1,0),(0,1))  1" in out
        assert "((1,1))" in out and "7" in out
        assert "total: 8 representations (= 2^3)" in out
        assert "WARNING" not in out

    def test_warns_of_types_missing_from_enumeration(self, tmp_path, capsys, monkeypatch):
        # the census's types are checked against the enumeration: with one
        # type dropped from it, the warning names that type
        dropped = HNType([(1, 0), (0, 1)])
        enumerate_types = quivermoduli.cli.enumerate_hn_types
        monkeypatch.setattr(
            quivermoduli.cli,
            "enumerate_hn_types",
            lambda *args: tuple(t for t in enumerate_types(*args) if t != dropped),
        )
        path = write_problem(tmp_path, self.PROBLEM)
        assert main(["oracle-census", path, "--field", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "WARNING: census types missing from enumeration: ((1,0),(0,1))"

    def test_budget_env(self, tmp_path, capsys, monkeypatch):
        path = write_problem(tmp_path, self.PROBLEM)
        monkeypatch.setenv("QT_BUDGET", "5")
        assert main(["oracle-census", path, "--field", "2"]) == EXIT_INPUT
        assert "budget" in capsys.readouterr().err

    def test_bad_env_values(self, tmp_path, capsys, monkeypatch):
        path = write_problem(tmp_path, self.PROBLEM)
        monkeypatch.setenv("QT_BUDGET", "lots")
        assert main(["oracle-census", path, "--field", "2"]) == EXIT_INPUT
        assert "QT_BUDGET" in capsys.readouterr().err
        monkeypatch.setenv("QT_BUDGET", "0")
        assert main(["oracle-census", path, "--field", "2"]) == EXIT_INPUT
        capsys.readouterr()

    def test_non_prime_field(self, tmp_path, capsys):
        path = write_problem(tmp_path, self.PROBLEM)
        assert main(["oracle-census", path, "--field", "4"]) == EXIT_INPUT
        assert "prime" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["1", "4", "0"])
    def test_field_below_two_or_composite(self, tmp_path, capsys, field):
        # --field 1 used to die on a ZeroDivisionError traceback, exit 1
        path = write_problem(tmp_path, self.PROBLEM)
        assert main(["oracle-census", path, "--field", field]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("qt: error:") and "prime" in captured.err

    def test_huge_prime_refused_on_the_budget(self, tmp_path, capsys, monkeypatch):
        # --field 2^61 - 1 used to trial-divide up to sqrt(p), past 15 s
        def no_trial_division(p):
            raise AssertionError("primality tested before the budget")

        monkeypatch.setattr(quivermoduli.oracle, "_require_prime", no_trial_division)
        monkeypatch.delenv("QT_BUDGET", raising=False)
        path = write_problem(tmp_path, KRONECKER_PROBLEM)
        start = time.perf_counter()
        assert main(["oracle-census", path, "--field", str(2**61 - 1)]) == EXIT_INPUT
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("qt: error: census merge needs ")
        assert captured.err.endswith(" products, budget is 10000000 "
                                     "(raise the budget to force the computation)\n")

    @pytest.mark.parametrize("field", [10000019, 2**61 - 1])
    def test_spans_refused_on_the_budget(self, tmp_path, capsys, monkeypatch, field):
        # one representation, yet the lattice build listed p vectors twice:
        # 27 s and 933 MB at 10000019, trial division for ever at 2^61 - 1
        def no_trial_division(p):
            raise AssertionError("primality tested before the budget")

        monkeypatch.setattr(quivermoduli.oracle, "_require_prime", no_trial_division)
        monkeypatch.delenv("QT_BUDGET", raising=False)
        path = write_problem(tmp_path, {"vertices": 1, "arrows": [], "d": [1], "theta": [0]})
        start = time.perf_counter()
        assert main(["oracle-census", path, "--field", str(field)]) == EXIT_INPUT
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"qt: error: subspace spans need {2 * field + 1} vectors, "
                                "budget is 10000000 (raise the budget to force the computation)\n")

    # the one-loop quiver at (4)/F_2 reads its loop matrix by matrix:
    # (2 * 67 + 4 + 1 + 5 + 2^16) words per 64 of its 67 tuples, 2 blocks
    LOOP_PROBLEM = {"vertices": 1, "arrows": [[1, 1]], "d": [4], "theta": [0]}

    def test_table_budget(self, tmp_path, capsys, monkeypatch):
        path = write_problem(tmp_path, self.LOOP_PROBLEM)
        monkeypatch.setenv("QT_BUDGET", str(10**5))
        assert main(["oracle-census", path, "--field", "2"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("qt: error:") and "budget is 100000" in err

    def test_table_budget_message(self, tmp_path, capsys, monkeypatch):
        path = write_problem(tmp_path, self.LOOP_PROBLEM)
        monkeypatch.setenv("QT_BUDGET", str(10**5))
        assert main(["oracle-census", path, "--field", "2"]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(
            "qt: error: subspace tables need 131360 64-bit words, budget is 100000 "
        )

    def test_merge_budget(self, tmp_path, capsys, monkeypatch):
        # K3 (2,2)/F_3 merges 3 * 41 + 3 * 41 * 41 = 5166 products: refused
        # with exit 2 below that, before any mask is built
        def refuse(*args):
            raise AssertionError("built despite the budget")

        for name in ("_lattice", "_arrow_masks", "_scalar_classes", "_rank_classes"):
            monkeypatch.setattr(quivermoduli.oracle, name, refuse)
        problem = {"vertices": 2, "arrows": [[1, 2]] * 3, "d": [2, 2], "theta": "canonical"}
        path = write_problem(tmp_path, problem)
        monkeypatch.setenv("QT_BUDGET", "5165")
        assert main(["oracle-census", path, "--field", "3"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("qt: error: census merge needs 5166 products, budget is 5165 "
                                "(raise the budget to force the computation)\n")

    def test_rank_read_first_arrow_within_table_budget(self, capsys, monkeypatch):
        # K1 (4,4)/F_2 builds the 4 masks of R_1, ..., R_4 (21797 words),
        # so 10^5 no longer refuses it as if all 2^16 were built
        stem = GOLDEN / "census" / "K1-4-4-F2"
        monkeypatch.setenv("QT_BUDGET", str(10**5))
        assert main(["oracle-census", str(stem.with_suffix(".json")), "--field", "2"]) == 0
        assert capsys.readouterr().out == stem.with_suffix(".txt").read_text()


class TestFreshProcess:
    """`qt` in its own interpreter: what it imports, and the subcommands
    whose modules it imports only when they run."""

    # never needed by `qt verdict`; dataclasses alone pulls in inspect,
    # ast, dis and tokenize, and argparse pulls in gettext, whose lookups
    # import locale
    UNUSED_BY_VERDICT = {
        "dataclasses", "inspect", "csv", "pathlib", "fractions", "decimal", "numbers",
        "quivermoduli.oracle", "argparse", "gettext", "locale",
    }

    def test_verdict_imports_nothing_it_never_runs(self):
        # added modules are counted against the child's own starting set,
        # so a site hook that preloads some of them cannot fail the test
        problem = str(GOLDEN / "K3-20-21.json")
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import quivermoduli.cli\n"
            "imported = set(sys.modules) - before\n"
            f"code = quivermoduli.cli.main(['verdict', {problem!r}])\n"
            "ran = set(sys.modules) - before - imported\n"
            "import json\n"
            "sys.stderr.write(json.dumps([code, sorted(imported), sorted(ran)]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        code, imported, ran = json.loads(proc.stderr)
        assert "quivermoduli.cli" in imported
        assert self.UNUSED_BY_VERDICT.isdisjoint(imported)
        assert self.UNUSED_BY_VERDICT.isdisjoint(ran)
        assert proc.stdout == (GOLDEN / "K3-20-21.out").read_text()
        assert code == int((GOLDEN / "K3-20-21.exit").read_text())

    def test_oracle_census_never_loads_dataclasses(self):
        # its one record, `FiniteFieldRep`, is a named tuple; dataclasses
        # would pull in inspect, ast, dis and tokenize
        problem = str(GOLDEN / "census" / "K1-4-4-F2.json")
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import quivermoduli.cli\n"
            f"code = quivermoduli.cli.main(['oracle-census', {problem!r}, '--field', '2'])\n"
            "import json\n"
            "sys.stderr.write(json.dumps([code, sorted(set(sys.modules) - before)]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        code, loaded = json.loads(proc.stderr)
        assert code == 0 and "quivermoduli.oracle" in loaded
        assert {"dataclasses", "inspect", "ast", "dis", "tokenize"}.isdisjoint(loaded)
        assert proc.stdout == (GOLDEN / "census" / "K1-4-4-F2.txt").read_text()

    @pytest.mark.parametrize("problem, args, expected", [
        (KRONECKER_PROBLEM, ["strata", "--format", "csv"], 0),
        (KRONECKER_PROBLEM, ["sweep", "--dmax", "1,1"], 0),
        (KRONECKER_PROBLEM, ["sweep", "--dmax", "1000,1000"], EXIT_INPUT),
        (TestOracleCensusCommand.PROBLEM, ["oracle-census", "--field", "2"], 0),
    ], ids=["strata-csv", "sweep", "sweep-budget", "oracle-census"])
    def test_child_matches_in_process(self, tmp_path, capsys, monkeypatch, problem, args, expected):
        monkeypatch.delenv("QT_BUDGET", raising=False)
        argv = [args[0], write_problem(tmp_path, problem), *args[1:]]
        assert main(argv) == expected
        captured = capsys.readouterr()
        assert captured.out if expected == 0 else captured.err.startswith("qt: error: sweep needs ")
        proc = subprocess.run([sys.executable, "-m", "quivermoduli.cli", *argv],
                              capture_output=True, text=True, env=child_env())
        assert (proc.returncode, proc.stdout, proc.stderr) == (expected, captured.out, captured.err)

    def test_one_budget_error_class(self):
        assert quivermoduli.oracle.BudgetExceededError is quivermoduli.core.BudgetExceededError


RECORD_FIELDS = {
    "ProblemSpec": ("quiver", "d", "theta"),
    "OneParameterSubgroup": ("scale", "weights"),
    "StratumReport": (
        "hn_type", "subgroup", "codim", "ambient_canonical_weight",
        "stratum_canonical_weight", "window_width", "max_bundle_weight",
        "inequality_holds",
    ),
    "Verdict": (
        "coprime", "acyclic", "strongly_amply_stable", "strong_failure_witness",
        "amply_stable", "all_strata_inequality", "vanishing_certified",
        "rigidity_certified", "failing_strata", "min_unstable_codim", "stable",
    ),
}


def example_records():
    spec = parse_problem(json.dumps(KRONECKER_PROBLEM))
    report = stratum_report(spec.quiver, spec.theta, HNType([(1, 0), (1, 1), (0, 2)]))
    return {
        "ProblemSpec": spec,
        "OneParameterSubgroup": report.subgroup,
        "StratumReport": report,
        "Verdict": verdict(spec.quiver, spec.d, spec.theta),
    }


class TestRecords:
    """The result records are immutable named tuples, with the fields in
    the order they had as frozen dataclasses."""

    @pytest.mark.parametrize("name", RECORD_FIELDS)
    def test_contract(self, name):
        record = example_records()[name]
        cls, fields = type(record), RECORD_FIELDS[name]
        assert cls.__name__ == name
        assert cls._fields == fields
        values = [getattr(record, f) for f in fields]
        by_keyword = cls(**dict(zip(fields, values)))
        by_position = cls(*values)
        assert by_keyword == by_position == record
        assert hash(by_keyword) == hash(by_position) == hash(record)
        for f in fields:
            with pytest.raises(AttributeError):
                setattr(record, f, None)
