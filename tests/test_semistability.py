"""Tests for generic subdimension vectors and stability predicates."""

from __future__ import annotations

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
from quivermoduli.oracle import enumerate_reps, has_subrep_of_dimension

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
)
from weight_oracles import (
    reference_generic_subdimension_vectors,
    reference_has_semistable,
    reference_strongly_amply_stable,
)

K1 = Quiver.kronecker(1)


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
