"""End-to-end acceptance checks, one test per criterion.

Every numeric comparison in this module is exact: the library works in
integers and Fractions, so the tolerance is zero everywhere.  The only
approximate quantities are the wall-clock bounds, checked with
time.perf_counter against a cold cache:

    criterion  1: < 1 s for the golden stratum table via the CLI
    criterion  2: < 10 s per instance for the stratum counts
    criterion  9: < 60 s for the whole finite-field census battery

Each test prints one "[acceptance] criterion NN PASS/FAIL" line (visible
with pytest -s; under plain pytest -v the per-test PASSED/FAILED line
carries the same information).
"""

from __future__ import annotations

import csv
import io
import json
import time

import quivermoduli
from quivermoduli import (
    DimensionVector,
    HNType,
    StabilityParameter,
    Quiver,
    codimension,
    codimension_cuts,
    enumerate_hn_types,
    has_semistable,
    moduli_dimension,
    one_parameter_subgroup,
    verdict,
)
from quivermoduli.cli import EXIT_NONE, EXIT_RIGIDITY, STRATA_COLUMNS, main
from quivermoduli.oracle import rep_count, stratum_census
from quivermoduli.windows import (
    ambient_canonical_weight,
    stratum_canonical_weight,
    window_width,
)

from cases import (
    CENSUS_BATTERY,
    CORPUS,
    D_23,
    D_A,
    D_B,
    FAILING_B,
    GOLDEN_STRATA_CELLS_23,
    KRONECKER_3,
    THETA_23,
    THETA_A,
    THETA_B,
    TRIANGLE_A,
    TRIANGLE_B,
    random_instances,
)

INSTANCES = [
    (KRONECKER_3, D_23, THETA_23),
    (TRIANGLE_A, D_A, THETA_A),
    (TRIANGLE_B, D_B, THETA_B),
]


def _criterion(num: int, desc: str, check) -> None:
    try:
        check()
    except BaseException:
        print(f"[acceptance] criterion {num:2d} FAIL  {desc}")
        raise
    print(f"[acceptance] criterion {num:2d} PASS  {desc}")


def _problem_file(tmp_path, q: Quiver, d, theta, name="problem.json") -> str:
    path = tmp_path / name
    path.write_text(
        json.dumps(
            {
                "vertices": q.vertex_count,
                "arrows": [list(a) for a in q.arrows],
                "d": list(d),
                "theta": list(theta),
            }
        )
    )
    return str(path)


def test_criterion_01_golden_stratum_table(tmp_path, capsys):
    def check():
        path = _problem_file(tmp_path, KRONECKER_3, D_23, THETA_23)
        quivermoduli.clear_caches()
        start = time.perf_counter()
        code = main(["strata", path, "--format", "csv"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0
        parsed = list(csv.reader(io.StringIO(out)))
        assert parsed[0] == list(STRATA_COLUMNS)
        assert len(parsed) == 1 + 7
        assert sorted(map(tuple, parsed[1:])) == sorted(
            map(tuple, GOLDEN_STRATA_CELLS_23)
        )
        assert elapsed < 1.0, f"took {elapsed:.3f}s, bound is 1s"

    _criterion(1, "golden stratum table, exact, < 1s", check)


def test_criterion_02_stratum_counts():
    def check():
        expected = [8, 41, 85]
        for (q, d, theta), count in zip(INSTANCES, expected):
            quivermoduli.clear_caches()
            start = time.perf_counter()
            types = enumerate_hn_types(q, d, theta)
            elapsed = time.perf_counter() - start
            assert len(types) == count
            assert elapsed < 10.0, f"took {elapsed:.3f}s, bound is 10s"

    _criterion(2, "stratum counts 8 / 41 / 85, each < 10s", check)


def test_criterion_03_canonical_stability():
    def check():
        assert KRONECKER_3.canonical_stability(D_23) == (3, -2)
        assert TRIANGLE_A.canonical_stability(D_A) == (9, -16, -5)
        assert TRIANGLE_B.canonical_stability(D_B) == (42, 5, -12)

    _criterion(3, "canonical stability parameters", check)


def test_criterion_04_stability_flags():
    def check():
        v = verdict(TRIANGLE_A, D_A, THETA_A)
        assert v.amply_stable
        assert v.min_unstable_codim == 2
        assert not v.strongly_amply_stable
        assert v.strong_failure_witness == (3, 1, 2)
        w = DimensionVector((3, 1, 2))
        assert TRIANGLE_A.euler_pairing(w, D_A - w) == -1

        v = verdict(TRIANGLE_B, D_B, THETA_B)
        assert not v.amply_stable
        assert v.min_unstable_codim == 1
        assert FAILING_B in enumerate_hn_types(TRIANGLE_B, D_B, THETA_B)
        assert codimension(TRIANGLE_B, FAILING_B) == 1

    _criterion(4, "ample/strong stability flags and witnesses", check)


def test_criterion_05_verdict_exit_codes(tmp_path, capsys):
    def check():
        codes = []
        for i, (q, d, theta) in enumerate(INSTANCES):
            path = _problem_file(tmp_path, q, d, theta, name=f"p{i}.json")
            codes.append(main(["verdict", path]))
            capsys.readouterr()
        assert codes == [EXIT_RIGIDITY, EXIT_RIGIDITY, EXIT_NONE]

    _criterion(5, "verdict exit codes 0 / 0 / 20", check)


def test_criterion_06_weight_identities():
    def check():
        batch = INSTANCES + random_instances(200, seed=20260822)
        assert len(batch) >= 203
        for q, d, theta in batch:
            for t in enumerate_hn_types(q, d, theta):
                sub = one_parameter_subgroup(theta, t)
                k = sub.weights
                assert all(a > b for a, b in zip(k, k[1:]))
                assert sum(km * sum(piece) for km, piece in zip(k, t)) == 0
                eta = window_width(q, t, sub)
                assert eta == ambient_canonical_weight(
                    q, t, sub
                ) - stratum_canonical_weight(q, t, sub)

    _criterion(6, "weight identities on 200+ randomized instances", check)


def test_criterion_07_scale_invariance():
    def check():
        for q, d, theta in CORPUS:
            types = enumerate_hn_types(q, d, theta)
            base = verdict(q, d, theta)
            for n in (2, 3):
                scaled = StabilityParameter(n * x for x in theta)
                assert enumerate_hn_types(q, d, scaled) == types
                assert verdict(q, d, scaled) == base

    _criterion(7, "stability-scale invariance of types and verdicts", check)


def test_criterion_08_strong_stability_implications():
    def check():
        batch = CORPUS + random_instances(60, seed=8)
        exercised = 0
        for q, d, theta in batch:
            if not has_semistable(q, d, theta):
                continue
            v = verdict(q, d, theta)
            if not v.strongly_amply_stable:
                continue
            exercised += 1
            assert v.all_strata_inequality
            for t in enumerate_hn_types(q, d, theta):
                if len(t) > 1:
                    assert all(n_r >= 2 for n_r in codimension_cuts(q, t))
        assert exercised >= 5

    _criterion(8, "strong stability forces the inequality and cuts >= 2", check)


def test_criterion_09_finite_field_census_agreement():
    def check():
        # the paper's instance over F_2: 2^18 representations
        battery = CENSUS_BATTERY + [(KRONECKER_3, D_23, THETA_23, 2)]
        start = time.perf_counter()
        for q, d, theta, p in battery:
            census = stratum_census(q, d, theta, field=p)
            assert sum(census.values()) == rep_count(p, q, d)
            predicted = set(enumerate_hn_types(q, d, theta))
            assert set(census) <= predicted
            if HNType((d,)) in census:
                assert has_semistable(q, d, theta)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.3f}s, bound is 60s"

    _criterion(9, "finite-field census agrees with the enumeration, < 60s", check)


def test_criterion_10_moduli_dimensions():
    def check():
        assert moduli_dimension(KRONECKER_3, D_23) == 6
        assert moduli_dimension(TRIANGLE_B, D_B) == 6

    _criterion(10, "two six-dimensional moduli spaces", check)
