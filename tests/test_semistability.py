"""Tests for generic subdimension vectors and stability predicates."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import gcd
from operator import mul, sub
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quivermoduli
from quivermoduli import (
    DimensionVector,
    Quiver,
    StabilityParameter,
    enumerate_hn_types,
    generic_subdimension_vectors,
    has_semistable,
    is_strongly_amply_stable,
    slope,
    subdimension_vectors,
    verdict,
)
from quivermoduli import semistability
from quivermoduli.cli import load_problem
from quivermoduli.oracle import enumerate_reps, has_subrep_of_dimension
from quivermoduli.semistability import _extreme_rays, _rays

from cases import (
    CORPUS,
    D_23,
    D_A,
    D_B,
    KRONECKER_3,
    THETA_23,
    THETA_A,
    THETA_B,
    TRIANGLE_A,
    TRIANGLE_B,
    random_instances,
    wide_instances,
)
from weight_oracles import (
    reference_generic_subdimension_vectors,
    reference_has_semistable,
    reference_strongly_amply_stable,
    reference_verdict,
)

K1 = Quiver.kronecker(1)
GOLDEN = Path(__file__).resolve().parent / "golden"


class TestGenericSubdimensionVectors:
    def test_zero(self):
        assert generic_subdimension_vectors(K1, DimensionVector((0, 0))) == frozenset(
            {(0, 0)}
        )

    def test_one_kronecker(self):
        # a generic map k -> k is injective, so (1,0) is not generic in (1,1)
        gen = generic_subdimension_vectors(K1, DimensionVector((1, 1)))
        assert gen == frozenset({(0, 0), (0, 1), (1, 1)})

    def test_contains_endpoints(self):
        for q, d, _ in CORPUS:
            gen = generic_subdimension_vectors(q, d)
            assert DimensionVector(len(d) * (0,)) in gen
            assert d in gen

    def test_membership_criterion(self):
        # f is generic inside e exactly when every generic f' in f pairs
        # non-negatively with e - f
        for q, d, _ in CORPUS:
            gen = generic_subdimension_vectors(q, d)
            for f in subdimension_vectors(d):
                f = DimensionVector(f)
                expected = f.is_zero() or f == d or all(
                    q.euler_pairing(fp, d - f) >= 0
                    for fp in generic_subdimension_vectors(q, f)
                )
                assert (f in gen) == expected

    def test_finite_field_containment(self):
        # every rep contains a subrep of each generic subdimension vector;
        # for this instance the non-generic (1,0) is also missing from some rep
        d = DimensionVector((1, 1))
        gen = generic_subdimension_vectors(K1, d)
        for p in (2, 3):
            reps = list(enumerate_reps(p, K1, d))
            for f in gen:
                assert all(has_subrep_of_dimension(r, DimensionVector(f)) for r in reps)
            assert not all(
                has_subrep_of_dimension(r, DimensionVector((1, 0))) for r in reps
            )


class TestHasSemistable:
    def test_examples(self):
        assert has_semistable(KRONECKER_3, D_23, THETA_23)
        assert has_semistable(KRONECKER_3, DimensionVector((1, 2)), StabilityParameter((2, -1)))
        assert has_semistable(TRIANGLE_A, D_A, THETA_A)
        assert has_semistable(TRIANGLE_B, D_B, THETA_B)

    def test_negative_example(self):
        # (1,0) is generic in (2,1) for one arrow and has larger slope
        assert not has_semistable(K1, DimensionVector((2, 1)), StabilityParameter((1, -2)))

    def test_single_vertex(self):
        q = Quiver(1, [])
        assert has_semistable(q, DimensionVector((3,)), StabilityParameter((0,)))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            has_semistable(K1, DimensionVector((0, 0)), StabilityParameter((1, -1)))

    def test_scale_invariance(self):
        for q, d, theta in CORPUS:
            base = has_semistable(q, d, theta)
            for n in (2, 3):
                scaled = StabilityParameter(n * t for t in theta)
                assert has_semistable(q, d, scaled) == base


class TestStronglyAmplyStable:
    def test_kronecker_holds(self):
        ok, witness = is_strongly_amply_stable(KRONECKER_3, D_23, THETA_23)
        assert ok and witness is None

    def test_triangle_a_fails(self):
        ok, witness = is_strongly_amply_stable(TRIANGLE_A, D_A, THETA_A)
        assert not ok
        assert witness == (3, 1, 2)
        assert TRIANGLE_A.euler_pairing(witness, D_A - witness) == -1
        assert slope(THETA_A, witness) > slope(THETA_A, D_A - witness)

    def test_triangle_b_fails(self):
        ok, witness = is_strongly_amply_stable(TRIANGLE_B, D_B, THETA_B)
        assert not ok
        assert witness == (0, 1, 0)
        assert TRIANGLE_B.euler_pairing(witness, D_B - witness) == -1

    def test_witness_is_lex_smallest(self):
        _, witness = is_strongly_amply_stable(TRIANGLE_A, D_A, THETA_A)
        earlier = [
            e
            for e in subdimension_vectors(D_A)[1:-1]
            if tuple(e) < tuple(witness)
            and slope(THETA_A, e) > slope(THETA_A, D_A - DimensionVector(e))
        ]
        for e in earlier:
            e = DimensionVector(e)
            assert TRIANGLE_A.euler_pairing(e, D_A - e) <= -2

    def test_vacuous_when_nothing_destabilizes(self):
        ok, witness = is_strongly_amply_stable(K1, DimensionVector((1, 1)), StabilityParameter((0, 0)))
        assert ok and witness is None

    def test_requires_theta_d_zero(self):
        with pytest.raises(ValueError):
            is_strongly_amply_stable(K1, DimensionVector((1, 1)), StabilityParameter((1, 0)))


class TestStabilityReport:
    """The ample-stability fields of the verdict."""

    def test_kronecker(self):
        v = verdict(KRONECKER_3, D_23, THETA_23)
        assert v.amply_stable
        assert v.min_unstable_codim == 3
        assert v.strongly_amply_stable
        assert v.strong_failure_witness is None

    def test_triangle_a(self):
        v = verdict(TRIANGLE_A, D_A, THETA_A)
        assert v.amply_stable
        assert v.min_unstable_codim == 2
        assert not v.strongly_amply_stable
        assert v.strong_failure_witness == (3, 1, 2)

    def test_triangle_b(self):
        v = verdict(TRIANGLE_B, D_B, THETA_B)
        assert not v.amply_stable
        assert v.min_unstable_codim == 1
        assert not v.strongly_amply_stable
        assert v.strong_failure_witness == (0, 1, 0)

    def test_strong_implies_ample(self):
        for q, d, theta in CORPUS + random_instances(40, seed=11):
            if theta(d) != 0 or not has_semistable(q, d, theta):
                continue
            v = verdict(q, d, theta)
            if v.strongly_amply_stable:
                assert v.amply_stable
            if v.strong_failure_witness is not None:
                w = v.strong_failure_witness
                assert slope(theta, w) > slope(theta, d - w)
                assert q.euler_pairing(w, d - w) >= -1

    def test_converse_fails(self):
        # ample stability does not imply the strong form
        v = verdict(TRIANGLE_A, D_A, THETA_A)
        assert v.amply_stable and not v.strongly_amply_stable

    def test_rejects_empty_semistable_locus(self):
        with pytest.raises(ValueError):
            verdict(K1, DimensionVector((2, 1)), StabilityParameter((1, -2)))

    def test_rejects_nonzero_theta_d(self):
        with pytest.raises(ValueError):
            verdict(K1, DimensionVector((1, 1)), StabilityParameter((1, 1)))


class TestPlainInputs:
    def test_cold_calls_match_typed_calls(self):
        # each answer must not depend on whether a typed call cached it first
        d, theta = tuple(D_23), tuple(THETA_23)
        calls = [
            (generic_subdimension_vectors, (KRONECKER_3, d), (KRONECKER_3, D_23)),
            (has_semistable, (KRONECKER_3, d, theta), (KRONECKER_3, D_23, THETA_23)),
            (
                is_strongly_amply_stable,
                (TRIANGLE_A, tuple(D_A), tuple(THETA_A)),
                (TRIANGLE_A, D_A, THETA_A),
            ),
            (
                enumerate_hn_types,
                (KRONECKER_3, list(d), list(theta)),
                (KRONECKER_3, D_23, THETA_23),
            ),
            (verdict, (KRONECKER_3, list(d), list(theta)), (KRONECKER_3, D_23, THETA_23)),
        ]
        for fn, plain, typed in calls:
            quivermoduli.clear_caches()
            cold = fn(*plain)
            quivermoduli.clear_caches()
            assert cold == fn(*typed), fn.__name__


class TestVertexCount:
    def test_wrong_length_rejected(self):
        # zip would silently truncate these to the shorter vector
        calls = [
            (has_semistable, (KRONECKER_3, (1,), (0,))),
            (has_semistable, (KRONECKER_3, (1, 2), (2, -1, 0))),
            (generic_subdimension_vectors, (KRONECKER_3, (1,))),
            (is_strongly_amply_stable, (KRONECKER_3, (2,), (0,))),
        ]
        for fn, args in calls:
            with pytest.raises(ValueError, match="on a quiver with 2 vertices"):
                fn(*args)


def assert_matches_reference(q, d, theta):
    reference = reference_generic_subdimension_vectors(q, d)
    assert generic_subdimension_vectors(q, d) == reference
    for e in subdimension_vectors(d)[1:]:
        assert has_semistable(q, e, theta) == reference_has_semistable(q, e, theta), e
    ok, witness = is_strongly_amply_stable(q, d, theta)
    assert (ok, witness) == reference_strongly_amply_stable(q, d, theta)
    assert witness is None or type(witness) is DimensionVector


@st.composite
def instances(draw):
    """(quiver, d, theta) with theta(d) = 0, semistable locus empty or not."""
    n = draw(st.integers(1, 3))
    arrows = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=6))
    q = Quiver(n, arrows)
    d = DimensionVector(draw(st.integers(0, 4)) for _ in range(n))
    # |d| u - (u.d) (1,...,1) pairs to zero against d
    u = [draw(st.integers(-3, 3)) for _ in range(n)]
    u_dot_d = sum(ui * di for ui, di in zip(u, d))
    return q, d, StabilityParameter(sum(d) * ui - u_dot_d for ui in u)


class TestMatchesReference:
    """The integer recursion and slope tests against the Fraction references."""

    @pytest.mark.parametrize("seed", [5, 29])
    def test_corpus_and_random(self, seed):
        for q, d, theta in CORPUS + random_instances(200, seed):
            assert_matches_reference(q, d, theta)

    @settings(max_examples=80, deadline=None)
    @given(instances())
    def test_generated(self, instance):
        assert_matches_reference(*instance)


def least_sign(points, u):
    least = min(sum(map(mul, u, g)) for g in points)
    return (least > 0) - (least < 0)


def parallel(a, b):
    return all(a[i] * b[j] == a[j] * b[i] for i in range(len(a)) for j in range(i))


def least_per_direction(points):
    """The least point on each ray through `points`, sorted: from four
    vertices on, what the ray tables keep of a generic set."""
    least = {}
    for g in sorted(points):
        least.setdefault(tuple(x // gcd(*g) for x in g), g)
    return sorted(least.values())


def probe_functionals(points, seed=0, count=60):
    """Small random functionals, plus those vanishing on one of the points
    (n = 2) or on two (n = 3): the supporting lines and planes of the
    cone's faces are among these, so they find a missing ray where random
    ones may not."""
    n = len(points[0])
    rng = random.Random(seed)
    out = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(count)]
    if n == 2:
        out += [[-a[1], a[0]] for a in points]
    if n == 3:
        for a in points:
            for b in points:
                out.append([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]])
    return out + [[-x for x in u] for u in out]


def assert_extreme_rays(points):
    out = _extreme_rays(points)
    assert out and all(g in points for g in out)
    for u in probe_functionals(points):
        assert least_sign(out, u) == least_sign(points, u), u
    # one generator per ray
    assert not any(parallel(a, b) for i, a in enumerate(out) for b in out[:i])
    if len(points[0]) > 3:
        # only repeated rays are dropped
        assert all(any(parallel(g, h) for h in out) for g in points)
    return out


nonneg_points = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.tuples(*[st.integers(0, 6)] * n).filter(any), min_size=1, max_size=14
    )
)


@st.composite
def degenerate_points(draw):
    """Nonnegative combinations of at most two vectors: repeated rays
    (g, 2g) and points on one projected line."""
    n = draw(st.integers(2, 3))
    base = draw(st.lists(st.tuples(*[st.integers(0, 4)] * n).filter(any), min_size=1, max_size=2))
    points = []
    for _ in range(draw(st.integers(1, 8))):
        coeffs = [draw(st.integers(0, 3)) for _ in base]
        g = tuple(sum(c * b[i] for c, b in zip(coeffs, base)) for i in range(n))
        if any(g):
            points.append(g)
    return points or [base[0]]


class TestExtremeRays:
    """The ray helper keeps the least sign of every linear functional."""

    def test_single_point(self):
        assert assert_extreme_rays([(2, 3)]) == [(2, 3)]
        assert assert_extreme_rays([(1, 0, 2)]) == [(1, 0, 2)]

    def test_one_vertex(self):
        assert assert_extreme_rays([(2,), (1,), (3,)]) == [(2,)]

    def test_two_vertices_repeated_rays(self):
        out = assert_extreme_rays([(1, 2), (2, 4), (3, 1), (6, 2), (1, 1)])
        assert sorted(out) == [(1, 2), (3, 1)]
        assert assert_extreme_rays([(1, 1), (2, 2), (3, 3)]) == [(1, 1)]

    def test_three_vertices_repeated_rays(self):
        points = [(1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (0, 3, 0), (1, 1, 0)]
        assert sorted(assert_extreme_rays(points)) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
        assert assert_extreme_rays([(1, 2, 3), (2, 4, 6)]) == [(1, 2, 3)]

    def test_three_vertices_one_projected_line(self):
        # all in the span of (1,0,1) and (0,1,1): only the two ends remain
        points = [(1, 1, 2), (1, 0, 1), (2, 1, 3), (0, 2, 2), (3, 3, 6), (0, 1, 1)]
        assert sorted(assert_extreme_rays(points)) == [(0, 2, 2), (1, 0, 1)]

    def test_three_vertices_quadrilateral(self):
        corners = [(3, 1, 0), (1, 3, 0), (0, 1, 3), (1, 0, 3)]
        inside = [(1, 1, 1), (2, 2, 1), (4, 4, 3)]
        assert sorted(assert_extreme_rays(inside + corners)) == sorted(corners)

    def test_four_vertices_one_per_direction(self):
        # (2,0,0,0) and (2,2,2,2) repeat a ray; (1,1,0,1) is not extreme
        # but stays, as the hull is not taken from four vertices on
        points = [(1, 0, 0, 0), (2, 0, 0, 0), (1, 1, 1, 1), (2, 2, 2, 2), (0, 1, 0, 1), (1, 1, 0, 1)]
        out = assert_extreme_rays(points)
        assert sorted(out) == [(0, 1, 0, 1), (1, 0, 0, 0), (1, 1, 0, 1), (1, 1, 1, 1)]

    @settings(max_examples=150, deadline=None)
    @given(nonneg_points)
    def test_generated(self, points):
        assert_extreme_rays(points)

    @settings(max_examples=100, deadline=None)
    @given(degenerate_points())
    def test_generated_degenerate(self, points):
        out = assert_extreme_rays(points)
        assert len(out) <= 2


FOUR_VERTEX = Quiver(4, [(1, 2), (1, 2), (2, 3), (3, 4), (4, 1), (1, 3), (2, 2)])


def thetas(e, seed):
    """A few theta with theta(e) = 0."""
    rng = random.Random(seed)
    for _ in range(3):
        u = [rng.randint(-3, 3) for _ in e]
        u_dot_e = sum(a * b for a, b in zip(u, e))
        yield StabilityParameter(sum(e) * a - u_dot_e for a in u)


# dense quivers on which some field of the box pass holds a pairing
# |<g, e - f>| >= 2^(w-2): a field one bit narrower than w overflows there
# and changes a ray
NEAR_THE_BOUND = [
    (Quiver.kronecker(5), (1, 2)),
    (Quiver(2, [(1, 1), (1, 2), (2, 2)]), (1, 3)),
    (Quiver(2, [(2, 1), (2, 1), (2, 2), (2, 1), (1, 1)]), (2, 1)),
    (Quiver(3, [(3, 3), (2, 2), (2, 2), (1, 1), (3, 3)]), (1, 1, 0)),
    (Quiver(3, [(2, 3), (1, 2), (1, 2), (2, 2), (3, 3)]), (0, 1, 3)),
]


def memo_instances():
    """(q, d, theta): CORPUS, random instances (loops, one vertex, zero
    entries), dense quivers near the field bound, the arrowless and the
    Jordan quiver at d = (30), and quivers on four and five vertices,
    where the one-vector filter runs."""
    out = CORPUS + random_instances(60, seed=43)
    one_vertex = [(Quiver(1, []), (30,)), (Quiver(1, [(1, 1)]), (30,))]
    for q, d in NEAR_THE_BOUND + one_vertex + [(FOUR_VERTEX, (2, 1, 2, 1))] + wide_instances(100, seed=13):
        d = DimensionVector(d)
        out.append((q, d, next(thetas(d, seed=3))))
    return out


def hom_closure(q, d):
    """The nonzero f reached from d by the steps e -> f, f <= e, f != 0,
    with <f, e - f> >= 0, d included: brute force."""
    out, todo = {d}, [d]
    while todo:
        e = todo.pop()
        for f in product(*(range(x + 1) for x in e)):
            if any(f) and f not in out and q.euler_pairing(f, tuple(map(sub, e, f))) >= 0:
                out.add(f)
                todo.append(f)
    return out


def assert_holds_closures(q, table):
    """The table's invariant: each held e holds every f of its hom
    closure, and its right form."""
    for e, (_, form) in table.items():
        assert form == q.right_form(e)
        for f in product(*(range(x + 1) for x in e)):
            if any(f) and q.euler_pairing(f, tuple(map(sub, e, f))) >= 0:
                assert f in table, (q, e, f)


def visit(d, order):
    """The e <= d in the order a memo test asks for them: d first, so its
    cold box is filled in one pass; ascending, one vector at a time; or
    shuffled, a mix of the two."""
    vectors = [tuple(e) for e in subdimension_vectors(d)]
    if order == "cold":
        return [vectors[-1]] + vectors[:-1]
    if order == "shuffled":
        random.Random(len(vectors)).shuffle(vectors)
    return vectors


@pytest.mark.parametrize("order", ["cold", "ascending", "shuffled"])
class TestMemoPaths:
    """Every reader of the ray memo against the references, whichever way
    the memo was filled: by the closure and box passes, which every cold
    box takes, or by the one-vector filter."""

    def test_paths_taken(self, order, monkeypatch):
        # a cold read at d, not 0 or a unit vector, on at most three
        # vertices runs one box pass, ending at d; it leaves the table
        # holding 0 and d's hom closure, whatever the size of the box, as
        # the one-vector filter does from four vertices on; after every
        # read, each held e holds its hom closure
        passes = []
        fill_box = semistability._fill_box
        monkeypatch.setattr(
            semistability, "_fill_box",
            lambda table, box: passes.append(box[-1]) or fill_box(table, box),
        )
        for q, d, _ in memo_instances():
            quivermoduli.clear_caches()
            table = semistability._memo[q]
            for k, e in enumerate(visit(d, order)):
                _rays(q, e)
                if k == 0 and order == "cold":
                    assert len(d) > 3 or sum(d) < 2 or passes[-1] == tuple(d)
                    assert set(table) == {(0,) * len(d)} | hom_closure(q, tuple(d)), (q, d)
                if k in (0, 1):
                    assert_holds_closures(q, table)
            assert_holds_closures(q, table)
        if order == "ascending":
            assert passes == []
        else:
            assert len(passes) > 50 and all(len(d) <= 3 for d in passes)

    def test_rays(self, order):
        for q, d, _ in memo_instances():
            quivermoduli.clear_caches()
            for e in visit(d, order):
                full = [tuple(f) for f in reference_generic_subdimension_vectors(q, e) if any(f)]
                rays = _rays(q, e)
                assert semistability._memo[q][e] == (rays, q.right_form(e)), (q, e)
                assert all(pairing == q.euler_pairing(g, e) for g, pairing in rays)
                kept = [g for g, _ in rays]
                if not full:
                    assert kept == []
                    continue
                assert all(g in full for g in kept), (q, e)
                if len(e) > 3:
                    assert sorted(kept) == least_per_direction(full), (q, e)
                assert not any(parallel(a, b) for i, a in enumerate(kept) for b in kept[:i])
                for u in probe_functionals(kept, seed=len(full)):
                    assert least_sign(kept, u) == least_sign(full, u), (q, e, u)

    def test_generic_sets(self, order):
        for q, d, _ in memo_instances():
            quivermoduli.clear_caches()
            for e in visit(d, order):
                assert generic_subdimension_vectors(q, e) == reference_generic_subdimension_vectors(q, e)

    def test_has_semistable(self, order):
        for q, d, theta in memo_instances():
            quivermoduli.clear_caches()
            for e in visit(d, order):
                if any(e):
                    for t in (theta, *thetas(e, seed=sum(e))):
                        assert has_semistable(q, e, t) == reference_has_semistable(q, e, t), (q, e, t)

    def test_verdict(self, order):
        verdicts = 0
        for q, d, _ in memo_instances():
            quivermoduli.clear_caches()
            for e in visit(d, order):
                _rays(q, e)
            theta = q.canonical_stability(d)
            if has_semistable(q, d, theta):
                assert verdict(q, d, theta) == reference_verdict(q, d, theta), (q, d)
                verdicts += 1
        assert verdicts > 150


def closure_instances():
    """(q, d): CORPUS, random instances, instances on four and five
    vertices, and every golden problem."""
    out = [(q, d) for q, d, _ in CORPUS + random_instances(200, seed=11)]
    out += wide_instances(100, seed=17)
    out += [(spec.quiver, spec.d) for spec in map(load_problem, map(str, sorted(GOLDEN.glob("*.json"))))]
    return [(q, tuple(d)) for q, d in out]


class TestClosureFill:
    def test_equals_the_full_box_pass(self):
        # a cold read at d fills d's hom closure; each of its entries equals
        # the entry the whole box gives: one box pass over every e <= d on
        # up to three vertices, the one-vector filter in ascending order,
        # with every f <= e held, from four on
        skipped = 0
        for q, d in closure_instances():
            quivermoduli.clear_caches()
            _rays(q, d)
            closure = dict(semistability._memo[q])
            quivermoduli.clear_caches()
            table = semistability._memo[q]
            box = list(product(*(range(x + 1) for x in d)))
            if len(d) <= 3:
                semistability._fill_whole(table, box)
            else:
                for e in box:
                    table[e]
            assert len(table) == len(box)
            assert all(closure[e] == table[e] for e in closure), (q, d)
            skipped += len(box) - len(closure)
        assert skipped > 10_000

    def test_box_pass_seeds_the_zero_entry(self):
        # 0 has no rays and the zero form; the box pass puts it in the table
        # for both of its callers, as neither the closure pass nor d's box
        # without 0 lists it
        for q, d in closure_instances():
            if len(d) > 3 or sum(d) < 2:  # the one-vector filter runs there
                continue
            zero = (0,) * len(d)
            quivermoduli.clear_caches()
            table = semistability._memo[q]
            table.fill_cold(d)
            assert table.get(zero) == ((), zero), (q, d)
            quivermoduli.clear_caches()
            table = semistability._memo[q]
            semistability._fill_whole(table, list(product(*(range(x + 1) for x in d))))
            assert table.get(zero) == ((), zero), (q, d)


class TestRayTables:
    """The memoized ray generators against the reference generic sets."""

    def test_rays_represent_the_generic_set(self):
        for q, d, _ in CORPUS + random_instances(100, seed=7):
            for e in subdimension_vectors(d):
                full = [tuple(f) for f in reference_generic_subdimension_vectors(q, e) if any(f)]
                rays = _rays(q, tuple(e))
                assert all(g in full for g, _ in rays)
                assert all(pairing == q.euler_pairing(g, e) for g, pairing in rays)
                if not full:
                    assert rays == ()
                    continue
                kept = [g for g, _ in rays]
                for u in probe_functionals(kept, seed=len(full)):
                    assert least_sign(kept, u) == least_sign(full, u)

    def test_four_vertices_unpruned(self):
        d = DimensionVector((2, 1, 2, 1))
        for e in subdimension_vectors(d):
            reference = reference_generic_subdimension_vectors(FOUR_VERTEX, e)
            assert generic_subdimension_vectors(FOUR_VERTEX, e) == reference
            members = [tuple(f) for f in reference if any(f)]
            assert sorted(g for g, _ in _rays(FOUR_VERTEX, tuple(e))) == least_per_direction(members)
            if any(e):
                for theta in thetas(e, seed=sum(e)):
                    assert has_semistable(FOUR_VERTEX, e, theta) == reference_has_semistable(
                        FOUR_VERTEX, e, theta
                    )
        assert_matches_reference(FOUR_VERTEX, d, next(thetas(d, seed=1)))

    def test_clear_caches_leaves_no_ray_and_no_form(self):
        for q, d, _ in CORPUS + [(FOUR_VERTEX, DimensionVector((2, 1, 2, 1)), None)]:
            generic_subdimension_vectors(q, d)
        held = list(semistability._memo.values())
        assert len(held) >= 4
        assert all(held)
        quivermoduli.clear_caches()
        assert not semistability._memo
        for q, _, _ in CORPUS:
            table = semistability._memo[q]
            assert not table
            assert all(table is not old for old in held)

    def test_three_vertex_chain_skips_members_off_their_own_hull(self, monkeypatch):
        # a cold read at A3 (8,8,8) fills the rays of d's hom closure, 13 %
        # of the box, and feeds the monotone chain, for each closure vector
        # e in lexicographic order, the first member per projected point
        # among e and the members parallel to one of their own rays
        q, d = Quiver(3, [(1, 2)] * 3 + [(2, 3)] * 3), (8, 8, 8)
        fed = []
        chain = semistability._chain
        monkeypatch.setattr(
            semistability, "_chain", lambda ordered: fed.append(list(ordered)) or chain(ordered)
        )
        _rays(q, d)
        fed = list(fed)
        closure = sorted(hom_closure(q, d))
        assert len(fed) == len(closure) < 0.14 * 9**3
        walked = 0
        for e, got in zip(closure, fed):
            members = sorted(
                (tuple(Fraction(x, sum(f)) for x in f), tuple(f))
                for f in generic_subdimension_vectors(q, e) if any(f)
            )
            walked += len({point for point, _ in members})
            kept = {}
            for point, f in members:
                if f == e or any(parallel(f, g) for g, _ in _rays(q, f)):
                    kept.setdefault(point, f)
            assert got == list(kept.values()), e
        assert sum(map(len, fed)) < 0.8 * walked

    def test_dropping_a_ray_is_caught(self, monkeypatch):
        # a mutant per-quiver table whose entries lose one ray wherever they
        # have two or more, on every read: the box pass packing the rays of
        # each f, the one-vector filter and the semistability test
        class OneShort(semistability._QuiverRays):
            def __getitem__(self, e):
                rays, form = super().__getitem__(e)
                return (rays[:-1] if len(rays) > 1 else rays), form

        monkeypatch.setattr(semistability, "_QuiverRays", OneShort)
        caught = 0
        for q, d, theta in CORPUS + random_instances(200, seed=5):
            if generic_subdimension_vectors(q, d) != reference_generic_subdimension_vectors(q, d):
                caught += 1
            elif any(has_semistable(q, e, theta) != reference_has_semistable(q, e, theta)
                     for e in subdimension_vectors(d)[1:]):
                caught += 1
        assert caught > 0
        assert {type(table) for table in semistability._memo.values()} == {OneShort}
