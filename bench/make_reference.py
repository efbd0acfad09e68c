"""Regenerate bench/reference.json, the answers the benchmark checks.

Run from the repository root:

    PYTHONPATH=src python3 bench/make_reference.py

Answers come from the command line's own output (`qt verdict`,
`qt sweep`) and from `oracle.stratum_census`, for every vertex
relabeling a seed can choose.  Sweep rows and census counts are stored
once, in the instance's own labels, after checking that every
relabeling gives the same answer mapped through the permutation.  The
ladder stores each relabeling's verdict text, because the strong-ample
witness is the lexicographically smallest one and so depends on the
labels.  The tests/cases.py goldens are checked against the result.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "tests"))

import problems  # noqa: E402
import quivermoduli as qm  # noqa: E402
from quivermoduli import cli, oracle  # noqa: E402

WORK = HERE / "results" / "reference-work"

# HN type counts measured before this benchmark existed
KNOWN_TYPES = {"K3-10-11": 2769, "K3-14-15": 29500, "A3-5": 3717, "A3-6": 17126}


def run_cli(argv) -> tuple[int, str]:
    qm.clear_caches()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def problem_file(name, problem) -> str:
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"{name}.json"
    path.write_text(json.dumps(problem))
    return str(path)


def relabelings(name, n, arrows, d, theta):
    for perm in problems.permutations(n):
        rng = random.Random(f"reference:{name}")
        yield perm, problems.relabel_problem(n, arrows, d, theta, perm, rng)


def ladder_reference() -> dict:
    out = {}
    for name, (n, arrows, d, theta) in problems.LADDER.items():
        spec = cli.parse_problem(json.dumps({"vertices": n, "arrows": arrows, "d": d, "theta": theta}))
        qm.clear_caches()
        types = qm.enumerate_hn_types(spec.quiver, spec.d, spec.theta)
        unstable = [problems.fmt_type(t) for t in types if len(t) > 1]
        by_perm = {}
        for perm, problem in relabelings(name, n, arrows, d, theta):
            code, text = run_cli(["verdict", problem_file(name, problem)])
            by_perm[problems.perm_key(perm)] = {"exit": code, "lines": text.splitlines()}
        out[name] = {
            "types": len(types),
            "unstable_types": len(unstable),
            "unstable_list": unstable if len(unstable) <= 16 else None,
            "by_perm": by_perm,
        }
        print(f"ladder {name}: {len(types)} types", file=sys.stderr)
    return out


def sweep_reference() -> dict:
    out = {}
    for name, (n, arrows, dmax) in problems.SWEEP.items():
        canonical = None
        for perm, problem in relabelings(name, n, arrows, dmax, "canonical"):
            dmax_arg = ",".join(str(x) for x in problems.relabel_vector(dmax, perm))
            code, text = run_cli(["sweep", problem_file(name, problem), "--dmax", dmax_arg])
            assert code == 0, (name, perm, code)
            rows = list(csv.reader(io.StringIO(text)))[1:]
            cells = {}
            for row in rows:
                e = problems.unlabel_vector([int(x) for x in row[0].strip("()").split(",")], perm)
                cells[problems.fmt_vector(e)] = [x == "yes" for x in row[1:]]
            if canonical is None:
                canonical = cells
            assert cells == canonical, f"sweep {name} differs under relabeling {perm}"
        q = qm.Quiver(n, [tuple(a) for a in arrows])
        table = {}
        qm.clear_caches()
        for e in qm.subdimension_vectors(qm.DimensionVector(dmax))[1:]:
            key = problems.fmt_vector(e)
            if key in canonical:
                theta = q.canonical_stability(e)
                table[key] = canonical[key] + [len(qm.enumerate_hn_types(q, e, theta))]
            else:
                table[key] = None
        out[name] = {"cells": table}
        print(f"sweep {name}: {len(canonical)} semistable cells of {len(table)}", file=sys.stderr)
    return out


def census_reference() -> dict:
    out = {}
    for name, (n, arrows, d, field) in problems.CENSUS.items():
        canonical = None
        for perm, problem in relabelings(name, n, arrows, d, "canonical"):
            spec = cli.parse_problem(json.dumps(problem))
            census = oracle.stratum_census(spec.quiver, spec.d, spec.theta, field)
            counts = {problems.unlabel_type(t, perm): c for t, c in census.items()}
            if canonical is None:
                canonical = counts
            assert counts == canonical, f"census {name} differs under relabeling {perm}"
        spec = cli.parse_problem(json.dumps({"vertices": n, "arrows": arrows, "d": d, "theta": "canonical"}))
        types = qm.enumerate_hn_types(spec.quiver, spec.d, spec.theta)
        assert sum(canonical.values()) == oracle.rep_count(field, spec.quiver, spec.d)
        assert set(canonical) <= {problems.fmt_type(t) for t in types}
        out[name] = {"types": len(types), "counts": dict(sorted(canonical.items()))}
        print(f"census {name}: {len(canonical)} of {len(types)} types", file=sys.stderr)
    return out


def check_goldens(ref: dict) -> None:
    """Cross-check against the frozen answers in tests/cases.py."""
    import cases

    golden = ref["ladder"]["K3-2-3-golden"]
    assert golden["unstable_types"] == len(cases.GOLDEN_UNSTABLE_23) == 7
    assert sorted(golden["unstable_list"]) == sorted(problems.fmt_type(t) for t in cases.GOLDEN_UNSTABLE_23)
    failing = problems.fmt_type(cases.FAILING_B)
    line = next(x for x in ref["ladder"]["triangle-B"]["by_perm"]["123"]["lines"] if x.startswith("strata inequality"))
    assert line == f"strata inequality: no (violated by {failing})", line
    assert ref["ladder"]["triangle-B"]["by_perm"]["123"]["exit"] == cli.EXIT_NONE
    for name, n in KNOWN_TYPES.items():
        assert ref["ladder"][name]["types"] == n, (name, ref["ladder"][name]["types"])
    k2 = ref["census"]["K2-2-2-F3"]
    assert sum(k2["counts"].values()) == 6561 and len(k2["counts"]) == k2["types"] == 5
    ref["goldens"] = {
        "K3-2-3-golden": {"unstable_list": golden["unstable_list"]},
        "triangle-B": {"failing": [failing]},
    }


def main() -> int:
    ref = {
        "ladder": ladder_reference(),
        "sweep": sweep_reference(),
        "census": census_reference(),
    }
    check_goldens(ref)
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
