"""Tests for the finite-field brute-force oracle."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivermoduli import (
    DimensionVector,
    HNType,
    Quiver,
    StabilityParameter,
    enumerate_hn_types,
    has_semistable,
    subdimension_vectors,
)
from quivermoduli import oracle
from quivermoduli.oracle import (
    BudgetExceededError,
    FiniteFieldRep,
    enumerate_reps,
    has_subrep_of_dimension,
    hn_type_of,
    rep_count,
    stratum_census,
    subspace_count,
)

from cases import (
    CENSUS_BATTERY,
    D_23,
    GOLDEN_TYPES_23,
    KRONECKER_3,
    THETA_23,
    TRIANGLE_A,
    TRIANGLE_B,
)
from weight_oracles import (
    reference_hn_type_of,
    reference_subrep_dimensions,
    reference_subspaces_by_dim,
)

K1 = Quiver.kronecker(1)
D11 = DimensionVector((1, 1))
THETA11 = StabilityParameter((1, -1))


class TestEnumeration:
    def test_counts(self):
        assert rep_count(2, K1, D11) == 2
        assert rep_count(2, KRONECKER_3, D11) == 8
        assert rep_count(3, KRONECKER_3, DimensionVector((1, 2))) == 729
        assert rep_count(2, KRONECKER_3, D_23) == 2**18

    def test_exhaustive_and_deterministic(self):
        reps = list(enumerate_reps(2, KRONECKER_3, D11))
        assert len(reps) == 8
        assert len(set(reps)) == 8
        assert reps == list(enumerate_reps(2, KRONECKER_3, D11))
        zero = reps[0]
        assert all(all(all(x == 0 for x in row) for row in m) for m in zero.matrices)

    def test_matrix_shapes(self):
        # one matrix per arrow, rows match the target, columns the source
        (rep,) = list(enumerate_reps(2, K1, DimensionVector((2, 1))))[:1]
        assert len(rep.matrices) == 1
        m = rep.matrices[0]
        assert len(m) == 1 and len(m[0]) == 2

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError) as exc:
            list(enumerate_reps(2, KRONECKER_3, D_23, budget=100))
        assert exc.value.needed == 2**18
        assert exc.value.budget == 100

    def test_field_must_be_prime(self):
        with pytest.raises(ValueError):
            list(enumerate_reps(4, K1, D11))
        with pytest.raises(ValueError):
            list(enumerate_reps(1, K1, D11))


class TestSubspaceCount:
    def test_gaussian_values(self):
        assert subspace_count(0, 2) == 1
        assert subspace_count(1, 2) == 2
        assert subspace_count(2, 2) == 5
        assert subspace_count(2, 3) == 6
        assert subspace_count(3, 2) == 16

    def test_listed_subspaces_match_count(self):
        # the tables and the reference each list the subspaces their own way
        for n, p in [(0, 2), (1, 3), (2, 2), (2, 5), (3, 2), (3, 3), (4, 2)]:
            listed = oracle._subspaces(n, p)
            assert len(set(listed)) == len(listed) == subspace_count(n, p)
            assert listed[0] == () and len(listed[-1]) == n
            assert [b for group in reference_subspaces_by_dim(n, p) for b in group] == listed


class TestSubreps:
    def test_identity_map_has_no_left_kernel(self):
        rep = FiniteFieldRep(2, K1, D11, (((1,),),))
        assert has_subrep_of_dimension(rep, DimensionVector((0, 1)))
        assert has_subrep_of_dimension(rep, D11)
        assert not has_subrep_of_dimension(rep, DimensionVector((1, 0)))

    def test_zero_map_has_everything(self):
        rep = FiniteFieldRep(2, K1, D11, (((0,),),))
        assert has_subrep_of_dimension(rep, DimensionVector((1, 0)))


class TestHNTypeOf:
    def test_zero_rep_splits(self):
        rep = FiniteFieldRep(2, KRONECKER_3, D11, (((0,),), ((0,),), ((0,),)))
        assert hn_type_of(rep, THETA11) == HNType(((1, 0), (0, 1)))

    def test_generic_rep_is_semistable(self):
        rep = FiniteFieldRep(2, KRONECKER_3, D11, (((1,),), ((0,),), ((0,),)))
        assert hn_type_of(rep, THETA11) == HNType((D11,))

    def test_random_reps_of_coprime_instance_are_dense(self):
        # seeded spot checks over F_5
        rng = random.Random(20260822)
        theta = THETA_23
        for _ in range(5):
            mats = []
            for _arrow in range(3):
                mats.append(
                    tuple(
                        tuple(rng.randrange(5) for _ in range(2)) for _ in range(3)
                    )
                )
            rep = FiniteFieldRep(5, KRONECKER_3, D_23, tuple(mats))
            t = hn_type_of(rep, theta)
            assert t.total() == D_23
            assert t == HNType((D_23,))

    def test_budget_refusal(self):
        rep = FiniteFieldRep(2, K1, D11, (((0,),),))
        with pytest.raises(BudgetExceededError):
            hn_type_of(rep, THETA11, budget=1)

    def test_zero_dimension_rejected(self):
        rep = FiniteFieldRep(2, Quiver(1, []), DimensionVector((0,)), ())
        with pytest.raises(ValueError):
            hn_type_of(rep, StabilityParameter((0,)))


class TestCensus:
    def test_three_kronecker_unit(self):
        census = stratum_census(KRONECKER_3, D11, THETA11, field=2)
        assert census == {
            HNType((D11,)): 7,
            HNType(((1, 0), (0, 1))): 1,
        }

    def test_three_kronecker_one_two(self):
        theta = StabilityParameter((2, -1))
        census = stratum_census(KRONECKER_3, DimensionVector((1, 2)), theta, field=3)
        assert census == {
            HNType(((1, 2),)): 624,
            HNType(((1, 1), (0, 1))): 104,
            HNType(((1, 0), (0, 2))): 1,
        }

    def test_empty_semistable_locus(self):
        theta = StabilityParameter((1, -2))
        census = stratum_census(K1, DimensionVector((2, 1)), theta, field=2)
        assert census == {
            HNType(((1, 0), (1, 1))): 3,
            HNType(((2, 0), (0, 1))): 1,
        }

    def test_partition_and_containment(self):
        instances = [
            (KRONECKER_3, D11, THETA11, 2),
            (KRONECKER_3, D11, THETA11, 3),
            (KRONECKER_3, DimensionVector((1, 2)), StabilityParameter((2, -1)), 2),
            (K1, DimensionVector((2, 1)), StabilityParameter((1, -2)), 2),
            (Quiver(3, [(1, 2), (1, 3), (2, 3)]), DimensionVector((1, 1, 1)), StabilityParameter((1, 0, -1)), 2),
        ]
        for q, d, theta, p in instances:
            census = stratum_census(q, d, theta, field=p)
            assert sum(census.values()) == rep_count(p, q, d)
            predicted = set(enumerate_hn_types(q, d, theta))
            assert set(census) <= predicted
            dense = HNType((d,))
            if dense in census:
                assert has_semistable(q, d, theta)

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError):
            stratum_census(KRONECKER_3, D_23, THETA_23, field=2, budget=1000)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            stratum_census(K1, DimensionVector((0, 0)), THETA11, field=2)

    def test_field_must_be_prime(self):
        with pytest.raises(ValueError):
            stratum_census(K1, D11, THETA11, field=6)


def random_rep(rng, field, q, d):
    matrices = tuple(
        tuple(tuple(rng.randrange(field) for _ in range(d[s - 1])) for _ in range(d[t - 1]))
        for s, t in q.arrows
    )
    return FiniteFieldRep(field, q, d, matrices)


@st.composite
def small_reps(draw):
    """(rep, theta): at most 3 vertices, 3 arrows (loops too), d <= 2, F_2 or F_3."""
    n = draw(st.integers(1, 3))
    q = Quiver(n, draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=3)))
    d = DimensionVector(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    field = draw(st.sampled_from([2, 3]))
    matrices = tuple(
        tuple(
            tuple(draw(st.integers(0, field - 1)) for _ in range(d[s - 1]))
            for _ in range(d[t - 1])
        )
        for s, t in q.arrows
    )
    theta = StabilityParameter(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
    return FiniteFieldRep(field, q, d, matrices), theta


class TestMatchesReference:
    """The bitmask tables against Gaussian elimination and quotients."""

    def test_every_rep_of_the_battery(self):
        for q, d, theta, p in CENSUS_BATTERY:
            for rep in enumerate_reps(p, q, d):
                assert hn_type_of(rep, theta) == reference_hn_type_of(rep, theta)
                dims = reference_subrep_dimensions(rep)
                for f in subdimension_vectors(d):
                    assert has_subrep_of_dimension(rep, f) == (f in dims)

    def test_census_is_a_counter_of_reference_types(self):
        # same counts and the same insertion order, that of enumerate_reps
        for q, d, theta, p in CENSUS_BATTERY + [
            (Quiver.kronecker(2), DimensionVector((2, 2)), StabilityParameter((1, -1)), 3),
        ]:
            census = stratum_census(q, d, theta, field=p)
            reference = Counter(reference_hn_type_of(rep, theta) for rep in enumerate_reps(p, q, d))
            assert list(census.items()) == list(reference.items())

    def test_random_reps_over_f5(self):
        rng = random.Random(20261018)
        instances = [
            (KRONECKER_3, D_23, THETA_23),
            (TRIANGLE_A, DimensionVector((2, 1, 2)), None),
            (TRIANGLE_B, DimensionVector((1, 2, 2)), None),
            (TRIANGLE_B, DimensionVector((1, 2, 2)), StabilityParameter((4, 1, -3))),
            (Quiver(2, [(1, 1), (1, 2), (2, 1)]), DimensionVector((2, 1)), StabilityParameter((1, -2))),
        ]
        for q, d, theta in instances:
            theta = theta or q.canonical_stability(d)
            for _ in range(6):
                rep = random_rep(rng, 5, q, d)
                assert hn_type_of(rep, theta) == reference_hn_type_of(rep, theta)
            # a sparse point, so that some types are not dense
            zero = FiniteFieldRep(5, q, d, tuple(
                tuple((0,) * d[s - 1] for _ in range(d[t - 1])) for s, t in q.arrows
            ))
            assert hn_type_of(zero, theta) == reference_hn_type_of(zero, theta)

    @settings(max_examples=60, deadline=None)
    @given(small_reps())
    def test_generated(self, drawn):
        rep, theta = drawn
        if not rep.dim.is_zero():
            assert hn_type_of(rep, theta) == reference_hn_type_of(rep, theta)
        dims = reference_subrep_dimensions(rep)
        for f in subdimension_vectors(rep.dim):
            assert has_subrep_of_dimension(rep, f) == (f in dims)


class TestGoldenCensus:
    def test_every_golden_stratum_has_an_f2_point(self):
        census = stratum_census(KRONECKER_3, D_23, THETA_23, field=2)
        assert sum(census.values()) == 2**18
        assert set(census) == set(GOLDEN_TYPES_23)


class TestValidation:
    def test_non_prime_field_rejected_first(self):
        # p^k - 1 = 0 at p = 1 used to divide by zero before the check
        for field in (0, 1, 4, 6):
            with pytest.raises(ValueError, match="prime"):
                stratum_census(K1, D11, THETA11, field=field)
            with pytest.raises(ValueError, match="prime"):
                FiniteFieldRep(field, K1, D11, (((0,),),))

    def test_rep_checks_itself(self):
        with pytest.raises(ValueError):  # one vertex short
            FiniteFieldRep(2, K1, DimensionVector((1,)), (((0,),),))
        with pytest.raises(ValueError):  # one matrix per arrow
            FiniteFieldRep(2, KRONECKER_3, D11, (((0,),),))
        with pytest.raises(ValueError):  # 1x2 where 2x1 is needed
            FiniteFieldRep(2, K1, DimensionVector((1, 2)), (((0, 0),),))
        with pytest.raises(ValueError):  # 2 is not an entry of F_2
            FiniteFieldRep(2, K1, D11, (((2,),),))
        with pytest.raises(ValueError):
            FiniteFieldRep(3, K1, D11, (((-1,),),))
        rep = FiniteFieldRep(2, K1, (1, 1), (((1,),),))
        assert isinstance(rep.dim, DimensionVector)

    def test_theta_length_checked(self):
        rep = FiniteFieldRep(2, K1, D11, (((1,),),))
        with pytest.raises(ValueError):
            hn_type_of(rep, StabilityParameter((1, -1, 0)))
        with pytest.raises(ValueError):
            stratum_census(K1, D11, StabilityParameter((1,)), field=2)


class TestBudgetMessages:
    """Each refusal names the quantity it counted; the CLI tests cover sweep cells."""

    def test_points(self):
        with pytest.raises(BudgetExceededError, match="^enumeration needs 262144 points, budget is 100 "):
            list(enumerate_reps(2, KRONECKER_3, D_23, budget=100))

    def test_lattice_tuples(self):
        rep = FiniteFieldRep(2, K1, DimensionVector((4, 4)), (((0,) * 4,) * 4,))
        with pytest.raises(BudgetExceededError, match="^subspace lattice needs 4489 tuples, budget is 1000 "):
            hn_type_of(rep, StabilityParameter((1, -1)), budget=1000)

    def test_table_words(self):
        # (2 * (67 + 67) + 8 + 2) words per 64 tuples, 71 blocks of 64
        rep = FiniteFieldRep(2, K1, DimensionVector((4, 4)), (((0,) * 4,) * 4,))
        with pytest.raises(BudgetExceededError, match="^subspace tables need 19738 64-bit words, budget is 10000 "):
            hn_type_of(rep, StabilityParameter((1, -1)), budget=10**4)


class TestTableBudget:
    def test_tables_refused_before_they_are_built(self, monkeypatch):
        # 2^16 matrices, each a mask over 67^2 = 4489 tuples: about 4.6 M words
        q, d = K1, DimensionVector((4, 4))
        assert rep_count(2, q, d) == 65_536 and subspace_count(4, 2) ** 2 == 4_489

        def refuse(*args):
            raise AssertionError("built despite the budget")

        monkeypatch.setattr(oracle, "_lattice", refuse)
        monkeypatch.setattr(oracle, "_all_matrices", refuse)
        with pytest.raises(BudgetExceededError) as exc:
            stratum_census(q, d, q.canonical_stability(d), field=2, budget=10**5)
        assert exc.value.needed >= 65_536 * 71
        assert exc.value.budget == 10**5

    def test_lattice_words_bound_single_reps(self):
        # 67 subspaces per vertex: the tuples fit 10^4, their masks do not
        rep = FiniteFieldRep(2, K1, DimensionVector((4, 4)), (((0,) * 4,) * 4,))
        with pytest.raises(BudgetExceededError):
            hn_type_of(rep, StabilityParameter((1, -1)), budget=10**4)
