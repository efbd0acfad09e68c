"""Checks from two exact symmetries of the problem, at sizes no brute
force reaches.

Duality (King 1994): V -> V* takes representations of Q of dimension d
to those of Q^op, every arrow reversed; a subrepresentation of
dimension f becomes a quotient of dimension f, so V is theta-semistable
iff V* is (-theta)-semistable, the generic subdimension vectors of Q^op
at d are the d - f for f generic for Q, and an HN type comes out
reversed, its slopes negated, so a stratum keeps its codimension and
window and its subgroup's weights come out reversed and negated.
Relabeling: permuting the vertices permutes every answer.

A slip that is symmetric under duality passes the duality check, so
these checks add to the brute-force references; they do not replace
them.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from quivermoduli import (
    DimensionVector,
    HNType,
    Quiver,
    StabilityParameter,
    enumerate_hn_types,
    generic_subdimension_vectors,
    has_semistable,
    stratum_report,
    verdict,
)
from quivermoduli.cli import load_problem
from quivermoduli.oracle import stratum_census

from cases import CORPUS, TRIANGLE_B, random_instances

GOLDEN = Path(__file__).resolve().parent / "golden"
A3 = Quiver(3, [(1, 2)] * 3 + [(2, 3)] * 3)
A4_2 = Quiver(4, [(1, 2)] * 2 + [(2, 3)] * 2 + [(3, 4)] * 2)

# the flags that neither symmetry moves; the witness is a lexicographic
# choice, so only whether it exists is compared
FLAGS = (
    "coprime", "acyclic", "strongly_amply_stable", "amply_stable", "all_strata_inequality",
    "vanishing_certified", "rigidity_certified", "min_unstable_codim", "stable",
)
# the stratum report's fields that duality keeps
REPORT_FIELDS = ("codim", "window_width", "max_bundle_weight", "inequality_holds")


def canonical(q, d):
    d = DimensionVector(d)
    return q, d, q.canonical_stability(d)


def large_instances():
    """Fixed instances beyond every brute-force reference, and every
    golden problem, as pytest parameters named after them."""
    out = [
        pytest.param(*canonical(Quiver.kronecker(3), (50, 51)), id="K3-50-51"),
        pytest.param(*canonical(A3, (10, 10, 10)), id="A3-10-10-10"),
        pytest.param(*canonical(A4_2, (5, 5, 5, 5)), id="A4x2-5-5-5-5"),
        pytest.param(
            TRIANGLE_B, DimensionVector((3, 18, 18)), StabilityParameter((42, 5, -12)),
            id="triangle-B-3-18-18",
        ),
    ]
    for path in sorted(GOLDEN.glob("*.json")):
        spec = load_problem(str(path))
        out.append(pytest.param(spec.quiver, spec.d, spec.theta, id=f"golden-{path.stem}"))
    return out


def small_instances():
    return CORPUS + random_instances(120, seed=23)


def strata_instances():
    """Instances whose HN types are few enough to enumerate."""
    return CORPUS + random_instances(150, seed=3)


def opposite(q):
    return Quiver(q.vertex_count, [(t, s) for s, t in q.arrows])


def relabel(q, d, theta, rng):
    """The instance with vertex i renamed perm[i] (0-based), perm a
    shuffle drawn from rng, with perm and the map that moves a vector."""
    perm = list(range(q.vertex_count))
    rng.shuffle(perm)

    def move(v):
        out = [0] * len(v)
        for i, x in enumerate(v):
            out[perm[i]] = x
        return tuple(out)

    arrows = [(perm[s - 1] + 1, perm[t - 1] + 1) for s, t in q.arrows]
    moved = Quiver(q.vertex_count, arrows)
    return moved, DimensionVector(move(d)), StabilityParameter(move(theta)), perm, move


def assert_same_flags(v, w, where):
    for flag in FLAGS:
        assert getattr(v, flag) == getattr(w, flag), (flag, where)
    assert (v.strong_failure_witness is None) == (w.strong_failure_witness is None), where


def check_duality(q, d, theta):
    op, minus = opposite(q), StabilityParameter(-x for x in theta)
    semistable = has_semistable(q, d, theta)
    assert has_semistable(op, d, minus) == semistable, (q, d)
    generic = generic_subdimension_vectors(q, d)
    dual = {DimensionVector(x - y for x, y in zip(d, f)) for f in generic}
    assert generic_subdimension_vectors(op, d) == dual, (q, d)
    if semistable:
        v, w = verdict(q, d, theta), verdict(op, d, minus)
        assert_same_flags(v, w, (q, d))
        reversed_types = sorted(tuple(reversed(t)) for t in v.failing_strata)
        assert reversed_types == sorted(w.failing_strata), (q, d)


def check_relabeling(q, d, theta, rng):
    p, pd, ptheta, perm, move = relabel(q, d, theta, rng)
    semistable = has_semistable(q, d, theta)
    assert has_semistable(p, pd, ptheta) == semistable, (q, d, perm)
    moved = {move(f) for f in generic_subdimension_vectors(q, d)}
    assert generic_subdimension_vectors(p, pd) == moved, (q, d, perm)
    if semistable:
        v, w = verdict(q, d, theta), verdict(p, pd, ptheta)
        assert_same_flags(v, w, (q, d, perm))
        moved = sorted(tuple(map(move, t)) for t in v.failing_strata)
        assert moved == sorted(tuple(map(tuple, t)) for t in w.failing_strata), (q, d, perm)


def check_strata_duality(q, d, theta):
    op, minus = opposite(q), StabilityParameter(-x for x in theta)
    types = enumerate_hn_types(q, d, theta)
    dual = enumerate_hn_types(op, d, minus)
    assert sorted(tuple(reversed(t)) for t in types) == sorted(dual), (q, d)
    for t in types:
        v, w = stratum_report(q, theta, t), stratum_report(op, minus, HNType(reversed(t)))
        for field in REPORT_FIELDS:
            assert getattr(v, field) == getattr(w, field), (field, q, d, t)
        weights = tuple(-k for k in reversed(v.subgroup.weights))
        assert w.subgroup == (v.subgroup.scale, weights), (q, d, t)
    return len(types)


def check_strata_relabeling(q, d, theta, rng):
    p, pd, ptheta, perm, move = relabel(q, d, theta, rng)
    types = enumerate_hn_types(q, d, theta)
    moved = [HNType(map(move, t)) for t in types]
    assert sorted(moved) == sorted(enumerate_hn_types(p, pd, ptheta)), (q, d, perm)
    for t, u in zip(types, moved):
        assert stratum_report(p, ptheta, u) == stratum_report(q, theta, t)._replace(hn_type=u)


class TestDuality:
    def test_small(self):
        for q, d, theta in small_instances():
            check_duality(q, d, theta)

    @pytest.mark.parametrize("q, d, theta", large_instances())
    def test_large(self, q, d, theta):
        check_duality(q, d, theta)

    def test_strata(self):
        reports = sum(check_strata_duality(q, d, theta) for q, d, theta in strata_instances())
        assert reports > 400

    @pytest.mark.parametrize("q, d, field", [
        (Quiver.kronecker(2), (2, 2), 3),
        (Quiver.kronecker(3), (1, 2), 2),
        (Quiver(3, [(1, 2), (2, 3)]), (1, 2, 1), 2),
    ], ids=["K2-2-2-F3", "K3-1-2-F2", "path-1-2-1-F2"])
    def test_census(self, q, d, field):
        # V -> V* is a bijection between the representations over F_field,
        # so every type keeps its count, reversed
        q, d, theta = canonical(q, d)
        census = stratum_census(q, d, theta, field)
        dual = stratum_census(opposite(q), d, StabilityParameter(-x for x in theta), field)
        assert len(census) > 1
        assert dual == {HNType(reversed(t)): count for t, count in census.items()}


class TestRelabeling:
    def test_small(self):
        rng = random.Random(5)
        for q, d, theta in small_instances():
            check_relabeling(q, d, theta, rng)

    @pytest.mark.parametrize("q, d, theta", large_instances())
    def test_large(self, q, d, theta):
        check_relabeling(q, d, theta, random.Random(sum(d)))

    def test_strata(self):
        rng = random.Random(7)
        for q, d, theta in strata_instances():
            check_strata_relabeling(q, d, theta, rng)

    def test_failing_strata_seen(self):
        # the checks compare nonempty failing strata, not only empty ones
        failing = [
            (q, d) for q, d, theta in small_instances() + [p.values for p in large_instances()]
            if has_semistable(q, d, theta) and verdict(q, d, theta).failing_strata
        ]
        assert len(failing) >= 5
