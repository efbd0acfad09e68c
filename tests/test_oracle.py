"""Tests for the finite-field brute-force oracle."""

from __future__ import annotations

import random

import pytest

from quivermoduli import (
    DimensionVector,
    HNType,
    Quiver,
    StabilityParameter,
    enumerate_hn_types,
    has_semistable,
)
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

from cases import D_23, KRONECKER_3, THETA_23

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
