"""Checks from two exact symmetries of the problem, at sizes no brute
force reaches.

Duality (King 1994): V -> V* takes representations of Q of dimension d
to those of Q^op, every arrow reversed; a subrepresentation of
dimension f becomes a quotient of dimension f, so V is theta-semistable
iff V* is (-theta)-semistable, the generic subdimension vectors of Q^op
at d are the d - f for f generic for Q, and an HN type comes out
reversed.  Relabeling: permuting the vertices permutes every answer.

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
    Quiver,
    StabilityParameter,
    generic_subdimension_vectors,
    has_semistable,
    verdict,
)
from quivermoduli.cli import load_problem

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


def opposite(q):
    return Quiver(q.vertex_count, [(t, s) for s, t in q.arrows])


def relabel(q, d, theta, perm):
    """The instance with vertex i renamed perm[i] (0-based)."""
    def move(v):
        out = [0] * len(v)
        for i, x in enumerate(v):
            out[perm[i]] = x
        return tuple(out)

    arrows = [(perm[s - 1] + 1, perm[t - 1] + 1) for s, t in q.arrows]
    moved = Quiver(q.vertex_count, arrows)
    return moved, DimensionVector(move(d)), StabilityParameter(move(theta)), move


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
    perm = list(range(q.vertex_count))
    rng.shuffle(perm)
    p, pd, ptheta, move = relabel(q, d, theta, perm)
    semistable = has_semistable(q, d, theta)
    assert has_semistable(p, pd, ptheta) == semistable, (q, d, perm)
    moved = {move(f) for f in generic_subdimension_vectors(q, d)}
    assert generic_subdimension_vectors(p, pd) == moved, (q, d, perm)
    if semistable:
        v, w = verdict(q, d, theta), verdict(p, pd, ptheta)
        assert_same_flags(v, w, (q, d, perm))
        moved = sorted(tuple(map(move, t)) for t in v.failing_strata)
        assert moved == sorted(tuple(map(tuple, t)) for t in w.failing_strata), (q, d, perm)


class TestDuality:
    def test_small(self):
        for q, d, theta in small_instances():
            check_duality(q, d, theta)

    @pytest.mark.parametrize("q, d, theta", large_instances())
    def test_large(self, q, d, theta):
        check_duality(q, d, theta)


class TestRelabeling:
    def test_small(self):
        rng = random.Random(5)
        for q, d, theta in small_instances():
            check_relabeling(q, d, theta, rng)

    @pytest.mark.parametrize("q, d, theta", large_instances())
    def test_large(self, q, d, theta):
        check_relabeling(q, d, theta, random.Random(sum(d)))

    def test_failing_strata_seen(self):
        # the checks compare nonempty failing strata, not only empty ones
        failing = [
            (q, d) for q, d, theta in small_instances() + [p.values for p in large_instances()]
            if has_semistable(q, d, theta) and verdict(q, d, theta).failing_strata
        ]
        assert len(failing) >= 5
