"""Tests for the qt command line interface."""

from __future__ import annotations

import csv
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import quivermoduli
from quivermoduli.cli import (
    EXIT_INPUT,
    EXIT_NONE,
    EXIT_RIGIDITY,
    EXIT_VANISHING,
    STRATA_COLUMNS,
    SWEEP_COLUMNS,
    ProblemSpecError,
    main,
    parse_problem,
    render_table,
    strata_rows,
)

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


def write_problem(tmp_path, data, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


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

    def test_missing_argument_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["strata"])
        assert exc.value.code == 2


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

    def test_three_kronecker_contains_golden_row(self, tmp_path, capsys):
        path = write_problem(tmp_path, KRONECKER_PROBLEM)
        assert main(["sweep", path, "--dmax", "3,3"]) == 0
        parsed = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert ["(2,3)", "yes", "yes", "yes", "yes"] in parsed[1:]

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
        # the child imports the same package as this test, wherever it lives
        src = str(Path(quivermoduli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )}
        proc = subprocess.run(["bash", "-c", pipeline], capture_output=True, env=env)
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

    def test_table_budget(self, tmp_path, capsys, monkeypatch):
        # the per-matrix masks of K1 (4,4)/F_2 need about 4.6 M words
        problem = {"vertices": 2, "arrows": [[1, 2]], "d": [4, 4], "theta": [1, -1]}
        path = write_problem(tmp_path, problem)
        monkeypatch.setenv("QT_BUDGET", str(10**5))
        assert main(["oracle-census", path, "--field", "2"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("qt: error:") and "budget is 100000" in err

    def test_table_budget_message(self, tmp_path, capsys, monkeypatch):
        problem = {"vertices": 2, "arrows": [[1, 2]], "d": [4, 4], "theta": [1, -1]}
        path = write_problem(tmp_path, problem)
        monkeypatch.setenv("QT_BUDGET", str(10**5))
        assert main(["oracle-census", path, "--field", "2"]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(
            "qt: error: subspace tables need 4672794 64-bit words, budget is 100000 "
        )
