"""Tests for stratification types, codimensions, and subgroup weights."""

from __future__ import annotations

from fractions import Fraction
from operator import le, sub

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quivermoduli import (
    DimensionVector,
    HNType,
    Quiver,
    StabilityParameter,
    codimension,
    codimension_cuts,
    enumerate_hn_types,
    has_semistable,
    one_parameter_subgroup,
    slope,
    validate_hn_type,
    window_width,
)
from quivermoduli.hn import _cut_tables, _piece_data

from cases import (
    CORPUS,
    D_23,
    D_A,
    D_B,
    FAILING_B,
    GOLDEN_TYPES_23,
    GOLDEN_UNSTABLE_23,
    KRONECKER_3,
    THETA_23,
    THETA_A,
    THETA_B,
    TRIANGLE_A,
    TRIANGLE_B,
    random_instances,
)
from weight_oracles import reference_hn_types

K1 = Quiver.kronecker(1)


@st.composite
def instances(draw):
    """(quiver, d, theta) with theta(d) = 0; d need not be semistable."""
    n = draw(st.integers(1, 3))
    arrows = draw(
        st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=6)
    )
    q = Quiver(n, arrows)
    d = DimensionVector(draw(st.integers(0, 4)) for _ in range(n))
    assume(not d.is_zero() and sum(d) <= 9)
    # |d| u - (u.d) (1,...,1) pairs to zero against d
    u = [draw(st.integers(-3, 3)) for _ in range(n)]
    u_dot_d = sum(ui * di for ui, di in zip(u, d))
    return q, d, StabilityParameter(sum(d) * ui - u_dot_d for ui in u)


class TestHNType:
    def test_total(self):
        t = HNType(((1, 0), (1, 3)))
        assert t.total() == (2, 3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            HNType(())

    def test_rejects_zero_piece(self):
        with pytest.raises(ValueError):
            HNType(((1, 0), (0, 0)))

    def test_rejects_ragged_pieces(self):
        with pytest.raises(ValueError):
            HNType(((1, 0), (1, 2, 3)))

    def test_enumerated_pieces_are_dimension_vectors(self):
        # the search wraps its pieces unchecked, so they must already be
        # the checked DimensionVectors a public HNType(...) would hold
        batch = CORPUS + random_instances(100, seed=41)
        for q, d, theta in batch:
            types = enumerate_hn_types(q, d, theta)
            assert types == reference_hn_types(q, d, theta)
            for t in types:
                assert type(t) is HNType
                assert all(type(p) is DimensionVector for p in t)


class TestValidateHNType:
    def test_accepts_golden_types(self):
        for t in GOLDEN_TYPES_23:
            validate_hn_type(KRONECKER_3, THETA_23, t, d=D_23)

    def test_rejects_wrong_total(self):
        t = HNType(((1, 1), (1, 1)))
        with pytest.raises(ValueError, match="sums to"):
            validate_hn_type(KRONECKER_3, THETA_23, t, d=D_23)

    def test_rejects_increasing_slopes(self):
        t = HNType(((0, 3), (2, 0)))
        with pytest.raises(ValueError, match="strictly decreasing"):
            validate_hn_type(KRONECKER_3, THETA_23, t)

    def test_rejects_equal_slopes(self):
        t = HNType(((1, 1), (2, 2)))
        with pytest.raises(ValueError, match="strictly decreasing"):
            validate_hn_type(KRONECKER_3, THETA_23, t)

    def test_rejects_piece_without_semistable_rep(self):
        t = HNType(((2, 1),))
        with pytest.raises(ValueError, match="no semistable"):
            validate_hn_type(K1, StabilityParameter((1, -2)), t)


class TestEnumerateHNTypes:
    def test_kronecker_exact_set(self):
        types = enumerate_hn_types(KRONECKER_3, D_23, THETA_23)
        assert types == GOLDEN_TYPES_23

    def test_counts(self):
        assert len(enumerate_hn_types(KRONECKER_3, D_23, THETA_23)) == 8
        assert len(enumerate_hn_types(TRIANGLE_A, D_A, THETA_A)) == 41
        assert len(enumerate_hn_types(TRIANGLE_B, D_B, THETA_B)) == 85

    def test_sorted_and_unique(self):
        # the search tries pieces lexicographically, so no final sort is needed
        for q, d, theta in CORPUS + random_instances(200, seed=11):
            types = enumerate_hn_types(q, d, theta)
            assert list(types) == sorted(set(types))

    def test_every_type_is_valid_and_totals_d(self):
        for q, d, theta in CORPUS:
            for t in enumerate_hn_types(q, d, theta):
                assert t.total() == d
                validate_hn_type(q, theta, t, d=d)

    def test_dense_type_membership_tracks_semistability(self):
        for q, d, theta in CORPUS:
            types = enumerate_hn_types(q, d, theta)
            assert (HNType((d,)) in types) == has_semistable(q, d, theta)

    def test_no_semistable_locus(self):
        types = enumerate_hn_types(K1, DimensionVector((2, 1)), StabilityParameter((1, -2)))
        assert types == (HNType(((1, 0), (1, 1))), HNType(((2, 0), (0, 1))))
        assert HNType((DimensionVector((2, 1)),)) not in types

    def test_matches_reference(self):
        batch = CORPUS + random_instances(200, seed=3) + random_instances(200, seed=17)
        unstable = 0
        for q, d, theta in batch:
            assert enumerate_hn_types(q, d, theta) == reference_hn_types(q, d, theta)
            unstable += not has_semistable(q, d, theta)
        # the batch also covers d without a semistable representation
        assert unstable >= 10

    @settings(max_examples=80, deadline=None)
    @given(instances())
    def test_matches_reference_generated(self, instance):
        q, d, theta = instance
        assert enumerate_hn_types(q, d, theta) == reference_hn_types(q, d, theta)

    def test_rejects_zero_d(self):
        with pytest.raises(ValueError):
            enumerate_hn_types(K1, DimensionVector((0, 0)), StabilityParameter((1, -1)))

    def test_rejects_nonzero_theta_d(self):
        with pytest.raises(ValueError):
            enumerate_hn_types(K1, DimensionVector((1, 1)), StabilityParameter((1, 0)))


class TestFitLists:
    """`_cut_tables` reads each fit list off per-coordinate bitmasks; the
    reference is the plain filter over the pieces in slope order."""

    @staticmethod
    def reference_fits(d, theta, pieces):
        by_slope = sorted(pieces, key=lambda p: slope(theta, p[0]))
        fits = {}
        todo = [tuple(d - p[0]) for p in pieces if p[0] != d]
        while todo:
            rest = todo.pop()
            if rest in fits or not any(rest):
                continue
            fits[rest] = [p for p in by_slope if all(map(le, p[0], rest))]
            todo.extend(tuple(map(sub, rest, p[0])) for p in fits[rest])
        return fits

    def test_equal_to_filter(self):
        for q, d, theta in CORPUS + random_instances(200, seed=23):
            pieces = _piece_data(q, d, theta)
            tables = _cut_tables(q, d, pieces)
            expected = self.reference_fits(d, theta, pieces)
            assert tables.keys() == expected.keys()
            for rest, fit in expected.items():
                assert [p for p, _ in tables[rest][4]] == fit, (q, d, rest)
                assert all(tuple(p[0] + tail) == rest for p, tail in tables[rest][4])

    def test_ties_in_lexicographic_order(self):
        ties = 0
        for q, d, theta in CORPUS:
            pieces = _piece_data(q, d, theta)
            for *_, fit in _cut_tables(q, d, pieces).values():
                for (a, _), (b, _) in zip(fit, fit[1:]):
                    assert slope(theta, a[0]) <= slope(theta, b[0])
                    if slope(theta, a[0]) == slope(theta, b[0]):
                        assert tuple(a[0]) < tuple(b[0])
                        ties += 1
        assert ties > 0


class TestCodimension:
    def test_golden_values(self):
        for t, (codim, *_rest) in GOLDEN_UNSTABLE_23.items():
            assert codimension(KRONECKER_3, t) == codim

    def test_dense_is_zero(self):
        assert codimension(KRONECKER_3, HNType((D_23,))) == 0

    def test_failing_stratum(self):
        assert codimension(TRIANGLE_B, FAILING_B) == 1

    def test_positive_on_unstable(self):
        for q, d, theta in CORPUS:
            for t in enumerate_hn_types(q, d, theta):
                if len(t) > 1:
                    assert codimension(q, t) >= 1


class TestCodimensionCuts:
    def test_two_piece_type_has_single_cut(self):
        t = HNType(((1, 1), (1, 2)))
        assert codimension_cuts(KRONECKER_3, t) == (3,)

    def test_three_piece_type(self):
        t = HNType(((1, 0), (1, 2), (0, 1)))
        assert codimension_cuts(KRONECKER_3, t) == (8, 4)

    def test_weighted_sum_matches_window_width(self):
        # sum over cuts of (k_r - k_{r+1}) * N_r telescopes to the width
        for q, d, theta in CORPUS:
            for t in enumerate_hn_types(q, d, theta):
                if len(t) == 1:
                    continue
                sub = one_parameter_subgroup(theta, t)
                cuts = codimension_cuts(q, t)
                acc = sum(
                    (sub.weights[r] - sub.weights[r + 1]) * cuts[r]
                    for r in range(len(t) - 1)
                )
                assert acc == window_width(q, t, sub)


class TestOneParameterSubgroup:
    def test_golden_values(self):
        for t, (_codim, slopes, scale, weights, *_rest) in GOLDEN_UNSTABLE_23.items():
            sub = one_parameter_subgroup(THETA_23, t)
            assert sub.scale == scale
            assert sub.weights == weights
            assert tuple(slope(THETA_23, piece) for piece in t) == slopes

    def test_failing_stratum(self):
        sub = one_parameter_subgroup(THETA_B, FAILING_B)
        assert sub.scale == 12
        assert sub.weights == (60, -5)

    def test_dense_type(self):
        sub = one_parameter_subgroup(THETA_23, HNType((D_23,)))
        assert sub.scale == 1
        assert sub.weights == (0,)

    def test_weights_integral_and_decreasing(self):
        for q, d, theta in CORPUS:
            for t in enumerate_hn_types(q, d, theta):
                sub = one_parameter_subgroup(theta, t)
                assert sub.scale >= 1
                assert all(isinstance(k, int) for k in sub.weights)
                assert all(
                    a > b for a, b in zip(sub.weights, sub.weights[1:])
                )
                # scale recovers the exact slopes
                for k, piece in zip(sub.weights, t):
                    assert Fraction(k, sub.scale) == slope(theta, piece)

    def test_weighted_dimensions_sum_to_zero(self):
        for q, d, theta in CORPUS:
            for t in enumerate_hn_types(q, d, theta):
                sub = one_parameter_subgroup(theta, t)
                assert sum(k * sum(piece) for k, piece in zip(sub.weights, t)) == 0

    def test_rejects_non_decreasing_slopes(self):
        with pytest.raises(ValueError):
            one_parameter_subgroup(THETA_23, HNType(((0, 3), (2, 0))))


class TestScaleInvariance:
    def test_types_and_weight_ratios(self):
        for q, d, theta in CORPUS:
            base = enumerate_hn_types(q, d, theta)
            for n in (2, 3):
                scaled_theta = StabilityParameter(n * x for x in theta)
                scaled = enumerate_hn_types(q, d, scaled_theta)
                assert scaled == base
                for t in base:
                    a = one_parameter_subgroup(theta, t).weights
                    b = one_parameter_subgroup(scaled_theta, t).weights
                    for i in range(len(t)):
                        for j in range(len(t)):
                            assert a[i] * b[j] == a[j] * b[i]
