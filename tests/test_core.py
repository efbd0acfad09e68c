"""Tests for quivers, vectors, pairings, slopes, and coprimality."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivermoduli import (
    DimensionVector,
    HNType,
    Quiver,
    StabilityParameter,
    codimension,
    codimension_cuts,
    enumerate_hn_types,
    generic_subdimension_vectors,
    has_semistable,
    is_strongly_amply_stable,
    is_theta_coprime,
    moduli_dimension,
    one_parameter_subgroup,
    pairing_table,
    slope,
    stratum_report,
    subdimension_vectors,
    validate_hn_type,
    verdict,
)

from cases import (
    CORPUS,
    KRONECKER_3,
    TRIANGLE_A,
    TRIANGLE_B,
    D_23,
    D_A,
    D_B,
    random_instances,
    wide_instances,
)


@st.composite
def quiver_with_vectors(draw, count=2, lo=-4, hi=4):
    n = draw(st.integers(1, 3))
    arrows = draw(
        st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=5)
    )
    vecs = [
        tuple(draw(st.integers(lo, hi)) for _ in range(n)) for _ in range(count)
    ]
    return Quiver(n, arrows), vecs


class TestQuiverConstruction:
    def test_kronecker(self):
        q = Quiver.kronecker(3)
        assert q.vertex_count == 2
        assert q.arrows == ((1, 2), (1, 2), (1, 2))
        assert q.arrow_count == 3

    def test_adjacency(self):
        assert KRONECKER_3.adjacency == ((0, 3), (0, 0))
        assert TRIANGLE_A.adjacency == ((0, 5, 1), (0, 0, 1), (0, 0, 0))

    def test_loops_and_multiarrows_allowed(self):
        q = Quiver(2, [(1, 1), (1, 2), (1, 2), (2, 1)])
        assert q.adjacency == ((1, 2), (1, 0))

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError):
            Quiver(2, [(1, 3)])
        with pytest.raises(ValueError):
            Quiver(2, [(0, 1)])

    def test_vertex_count_positive(self):
        with pytest.raises(ValueError):
            Quiver(0, [])

    def test_vertex_count_not_bool(self):
        with pytest.raises(ValueError, match="vertex_count"):
            Quiver(True, [])

    def test_arrow_endpoints_integral(self):
        with pytest.raises(ValueError, match="integer vertices"):
            Quiver(2, [(1.5, 2)])
        with pytest.raises(ValueError, match="integer vertices"):
            Quiver(2, [(1, "2")])

    def test_acyclicity(self):
        assert KRONECKER_3.is_acyclic
        assert TRIANGLE_A.is_acyclic
        assert not Quiver(1, [(1, 1)]).is_acyclic
        assert not Quiver(2, [(1, 2), (2, 1)]).is_acyclic

    def test_hash_and_eq(self):
        assert Quiver(2, [(1, 2), (1, 2)]) == Quiver.kronecker(2)
        assert hash(Quiver(2, [(1, 2)])) == hash(Quiver(2, [(1, 2)]))
        assert Quiver(2, [(1, 2)]) != Quiver(2, [(2, 1)])


class TestVectors:
    def test_dimension_vector_rejects_negative(self):
        with pytest.raises(ValueError):
            DimensionVector((1, -1))

    def test_arithmetic(self):
        d = DimensionVector((2, 3))
        e = DimensionVector((1, 1))
        assert d - e == (1, 2)
        assert d + e == (3, 4)
        assert 2 * d == (4, 6)
        assert d.dot((3, -2)) == 0

    def test_leq(self):
        assert DimensionVector((1, 2)).leq((2, 3))
        assert not DimensionVector((3, 0)).leq((2, 3))

    def test_is_zero(self):
        assert DimensionVector((0, 0)).is_zero()
        assert not DimensionVector((0, 1)).is_zero()

    def test_dimension_vector_rejects_float(self):
        with pytest.raises(ValueError, match="integers"):
            DimensionVector([1.7, 2])

    def test_stability_rejects_float(self):
        with pytest.raises(ValueError, match="integers"):
            StabilityParameter([0.5, -0.5])

    def test_rejects_fraction_and_string(self):
        with pytest.raises(ValueError, match="integers"):
            DimensionVector([Fraction(4, 2), 1])
        with pytest.raises(ValueError, match="integers"):
            StabilityParameter(["1", -1])

    def test_ints_and_bools_accepted(self):
        assert DimensionVector([True, 2]) == (1, 2)
        assert type(DimensionVector([True, 2])[0]) is int
        assert StabilityParameter((3, -2)) == (3, -2)

    def test_stability_call(self):
        theta = StabilityParameter((3, -2))
        assert theta((2, 3)) == 0
        assert theta((1, 1)) == 1


class TestEulerPairing:
    def test_kronecker_values(self):
        q = KRONECKER_3
        assert q.euler_pairing((2, 3), (2, 3)) == -5
        assert q.euler_pairing((1, 1), (1, 2)) == -3
        assert q.euler_pairing((1, 2), (1, 1)) == 0

    def test_triangle_values(self):
        assert TRIANGLE_A.euler_pairing(D_A, D_A) == -7
        assert TRIANGLE_B.euler_pairing(D_B, D_B) == -5

    def test_no_arrows_is_dot_product(self):
        q = Quiver(3, [])
        assert q.euler_pairing((1, 2, 3), (4, 5, 6)) == 32

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            KRONECKER_3.euler_pairing((1, 2, 3), (1, 2))

    @settings(deadline=None)
    @given(quiver_with_vectors(count=3))
    def test_bilinearity(self, data):
        q, (a, b, c) = data
        ab = tuple(x + y for x, y in zip(a, b))
        assert q.euler_pairing(ab, c) == q.euler_pairing(a, c) + q.euler_pairing(b, c)
        assert q.euler_pairing(c, ab) == q.euler_pairing(c, a) + q.euler_pairing(c, b)


class TestCanonicalStability:
    def test_examples(self):
        assert KRONECKER_3.canonical_stability(D_23) == (3, -2)
        assert TRIANGLE_A.canonical_stability(D_A) == (9, -16, -5)
        assert TRIANGLE_B.canonical_stability(D_B) == (42, 5, -12)

    def test_primitive(self):
        # entries share no common factor even when the raw form does
        theta = KRONECKER_3.canonical_stability(DimensionVector((1, 2)))
        assert theta == (2, -1)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            KRONECKER_3.canonical_stability(DimensionVector((0, 0)))

    @settings(deadline=None)
    @given(quiver_with_vectors(count=1, lo=0, hi=5))
    def test_pairs_to_zero_with_d(self, data):
        q, (d,) = data
        if all(x == 0 for x in d):
            return
        d = DimensionVector(d)
        theta = q.canonical_stability(d)
        assert theta(d) == 0

    def test_matches_euler_forms(self):
        # <d,-> - <-,d> divided by its gcd, on every e <= d; the extra
        # quivers have loops, 2-cycles and a vertex with no arrow
        extra = [
            (Quiver(2, [(1, 2), (2, 1)]), (3, 4)),
            (Quiver(2, [(1, 2), (2, 1), (2, 1), (1, 1)]), (4, 3)),
            (Quiver(3, [(1, 1), (1, 2), (2, 1), (2, 3), (2, 3), (3, 3)]), (3, 2, 3)),
            (Quiver(3, [(1, 2), (1, 2)]), (2, 2, 2)),
        ]
        cases = [(q, d) for q, d, _ in CORPUS + random_instances(200, seed=41)]
        cases += wide_instances(60, seed=13) + extra
        checked = 0
        for q, d in cases:
            for e in subdimension_vectors(DimensionVector(d))[1:]:
                raw = [a - b for a, b in zip(q.left_form(e), q.right_form(e))]
                g = math.gcd(*raw) or 1
                theta = q.canonical_stability(e)
                assert theta == tuple(x // g for x in raw), (q, e)
                assert type(theta) is StabilityParameter
                checked += 1
        assert checked > 1000


class TestPublicInputsChecked:
    """Every public entry that takes a dimension vector or a stability
    parameter still rejects floats, negative dimensions and wrong lengths;
    the library skips these checks only on vectors it built itself."""

    BAD_D = [(1.5, 2), (2, -1), (2,), (2, 3, 0)]
    BAD_THETA = [(1.5, -1), (3,), (3, -2, 0)]

    @staticmethod
    def calls_with_d(d):
        theta = (3, -2)
        if len(d) == 2:  # a lone vector has no length to match
            yield DimensionVector, (d,)
            yield subdimension_vectors, (d,)
        yield KRONECKER_3.canonical_stability, (d,)
        yield generic_subdimension_vectors, (KRONECKER_3, d)
        yield has_semistable, (KRONECKER_3, d, theta)
        yield is_strongly_amply_stable, (KRONECKER_3, d, theta)
        yield enumerate_hn_types, (KRONECKER_3, d, theta)
        yield verdict, (KRONECKER_3, d, theta)
        yield is_theta_coprime, (theta, d)
        yield HNType, (((1, 1), d),)
        yield moduli_dimension, (KRONECKER_3, d)
        # a type given as a plain list of vectors, one of them d
        for fn in (pairing_table, codimension, codimension_cuts):
            yield fn, (KRONECKER_3, [(1, 0), d])
        # a one-piece type given as a plain list: d is checked before its slope
        yield one_parameter_subgroup, (theta, [d])
        yield stratum_report, (KRONECKER_3, theta, [d])

    @staticmethod
    def calls_with_theta(theta):
        d = (2, 3)
        if len(theta) == 2:
            yield StabilityParameter, (theta,)
        yield has_semistable, (KRONECKER_3, d, theta)
        yield is_strongly_amply_stable, (KRONECKER_3, d, theta)
        yield enumerate_hn_types, (KRONECKER_3, d, theta)
        yield verdict, (KRONECKER_3, d, theta)
        yield is_theta_coprime, (theta, d)
        # an HN type of d at theta = (3, -2)
        yield one_parameter_subgroup, (theta, [(1, 0), (1, 3)])
        yield stratum_report, (KRONECKER_3, theta, [(1, 0), (1, 3)])
        yield validate_hn_type, (KRONECKER_3, theta, [(1, 0), (1, 3)])

    @pytest.mark.parametrize("d", BAD_D)
    def test_bad_dimension_vector(self, d):
        for fn, args in self.calls_with_d(d):
            with pytest.raises(ValueError):
                fn(*args)

    @pytest.mark.parametrize("theta", BAD_THETA)
    def test_bad_stability_parameter(self, theta):
        for fn, args in self.calls_with_theta(theta):
            with pytest.raises(ValueError):
                fn(*args)


class TestSlope:
    def test_examples(self):
        theta = StabilityParameter((3, -2))
        assert slope(theta, (1, 1)) == Fraction(1, 2)
        assert slope(theta, (1, 2)) == Fraction(-1, 3)
        assert slope(theta, (2, 3)) == 0

    def test_exact_fraction(self):
        mu = slope(StabilityParameter((1, 0)), (1, 2))
        assert isinstance(mu, Fraction)
        assert mu == Fraction(1, 3)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            slope(StabilityParameter((1, -1)), (0, 0))

    @settings(deadline=None)
    @given(quiver_with_vectors(count=1, lo=0, hi=5), st.integers(1, 6))
    def test_homogeneous_in_e_and_linear_in_theta(self, data, n):
        q, (d,) = data
        if all(x == 0 for x in d):
            return
        theta = StabilityParameter(
            (len(d) + 1) * i - sum(d) for i, _ in enumerate(d)
        )
        e = DimensionVector(d)
        assert slope(theta, n * e) == slope(theta, e)
        scaled = StabilityParameter(n * t for t in theta)
        assert slope(scaled, e) == n * slope(theta, e)

    def test_slope_comparison_matches_theta_sign(self):
        # for theta(d) = 0: mu(e) > mu(d - e) exactly when theta(e) > 0
        for q, d in [(KRONECKER_3, D_23), (TRIANGLE_B, DimensionVector((1, 2, 2)))]:
            theta = q.canonical_stability(d)
            assert theta(d) == 0
            for e in subdimension_vectors(d)[1:-1]:
                lhs = slope(theta, e) > slope(theta, d - e)
                assert lhs == (theta(e) > 0)


class TestSubdimensionVectors:
    def test_small(self):
        assert subdimension_vectors(DimensionVector((1, 1))) == [
            (0, 0),
            (0, 1),
            (1, 0),
            (1, 1),
        ]

    def test_count_and_order(self):
        subs = subdimension_vectors(D_23)
        assert len(subs) == 12
        assert subs == sorted(subs)
        assert subs[0] == (0, 0) and subs[-1] == D_23

    def test_all_bounded(self):
        for e in subdimension_vectors(D_A):
            assert DimensionVector(e).leq(D_A)


class TestThetaCoprime:
    def test_examples(self):
        assert is_theta_coprime(StabilityParameter((3, -2)), D_23)
        assert not is_theta_coprime(StabilityParameter((1, -1)), DimensionVector((2, 2)))

    def test_triangles(self):
        from cases import THETA_A, THETA_B

        assert is_theta_coprime(THETA_A, D_A)
        assert is_theta_coprime(THETA_B, D_B)

    def test_single_vertex(self):
        # no proper nonzero subvectors at d = (1,), so coprime holds
        assert is_theta_coprime(StabilityParameter((0,)), DimensionVector((1,)))
        assert not is_theta_coprime(StabilityParameter((0,)), DimensionVector((2,)))

    def test_requires_theta_d_zero(self):
        with pytest.raises(ValueError):
            is_theta_coprime(StabilityParameter((1, 1)), D_23)


class TestThetaLength:
    def test_wrong_length_rejected(self):
        # zip would silently truncate theta or the vector to the shorter one
        calls = [
            (is_theta_coprime, ((1, -1, 7), (1, 1))),
            (is_theta_coprime, ((1,), (0, 3))),
            (slope, ((1, 2), (1, 1, 5))),
            (one_parameter_subgroup, ((3, -2, 9), ((1, 1), (1, 2)))),
        ]
        for fn, args in calls:
            with pytest.raises(ValueError, match="length mismatch"):
                fn(*args)
