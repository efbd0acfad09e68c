"""Tests for the finite-field brute-force oracle."""

from __future__ import annotations

import itertools
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
    reference_arrow_mask,
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

    def test_dimension_not_below_rep_builds_no_lattice(self, monkeypatch):
        # f not <= dim V is refused before any subspace lattice is built
        built = []
        checked_lattice = oracle._checked_lattice
        monkeypatch.setattr(
            oracle, "_checked_lattice", lambda *args: built.append(args) or checked_lattice(*args)
        )
        rep = FiniteFieldRep(2, K1, D11, (((0,),),))
        assert has_subrep_of_dimension(rep, DimensionVector((2, 0))) is False
        assert has_subrep_of_dimension(rep, DimensionVector((0, 2))) is False
        assert built == []
        assert has_subrep_of_dimension(rep, DimensionVector((1, 0))) is True
        assert len(built) == 1


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
        # same counts and the same insertion order, that of enumerate_reps;
        # the first arrow is read by rank class unless it is a loop, so the
        # instances include first arrows with ranks up to 2 met once, and a loop
        for q, d, theta, p in CENSUS_BATTERY + [
            (Quiver.kronecker(2), DimensionVector((2, 2)), StabilityParameter((1, -1)), 3),
            (K1, DimensionVector((2, 2)), THETA11, 3),
            (K1, DimensionVector((3, 2)), StabilityParameter((2, -3)), 2),
            (Quiver(3, [(1, 2), (2, 3)]), DimensionVector((2, 2, 2)), StabilityParameter((1, 0, -1)), 2),
            (Quiver(2, [(1, 1), (1, 2)]), DimensionVector((2, 1)), StabilityParameter((1, -2)), 2),
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


def _rank(m, p):
    """Rank of a matrix over F_p, by Gaussian elimination."""
    rows, rank = [list(row) for row in m], 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][c], -1, p)
        for i in range(rank + 1, len(rows)):
            factor = rows[i][c] * inverse
            rows[i] = [(x - factor * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class TestRankClasses:
    @pytest.mark.parametrize("p, most", [(2, 3), (3, 3), (5, 2)])
    def test_first_matrix_of_each_rank_and_class_sizes(self, p, most):
        for rows in range(most + 1):
            for cols in range(most + 1):
                classes = oracle._rank_classes(rows, cols, p)
                first, sizes = {}, Counter()
                for m in oracle._all_matrices(rows, cols, p):
                    r = _rank(m, p)
                    first.setdefault(r, m)
                    sizes[r] += 1
                assert classes == [(first[r], sizes[r]) for r in range(min(rows, cols) + 1)]
                assert sum(n for _, n in classes) == p ** (rows * cols)


def lattice_of(p, d):
    """The census's lattice of F_p^d, through the budget check."""
    return oracle._checked_lattice(p, d, 10**7)


def per_matrix_masks(lat, s, t, matrices):
    return [reference_arrow_mask(lat, s, t, m) for m in matrices]


class TestArrowMasks:
    """The batched kernel against the per-matrix formula."""

    @pytest.mark.parametrize("p, most", [(2, 3), (3, 3), (5, 2)])
    def test_every_pair_matches_the_per_matrix_formula(self, p, most):
        # every pair of two vertices, loops and d_s = 0 or d_t = 0 among
        # them; at most 300 matrices a pair, drawn from a fixed seed
        rng = random.Random(p)
        for d in itertools.product(range(most + 1), repeat=2):
            lat = lattice_of(p, d)
            for s, t in [(0, 1), (1, 0), (0, 0), (1, 1)]:
                matrices = oracle._all_matrices(d[t], d[s], p)
                if len(matrices) > 300:
                    matrices = matrices[:10] + rng.sample(matrices, 290)
                masks = oracle._arrow_masks(lat, s, t, matrices)
                assert masks == per_matrix_masks(lat, s, t, matrices), (d, s, t)
                assert [oracle._arrow_masks(lat, s, t, [m])[0] for m in matrices[:5]] == masks[:5]

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_arithmetic_tables(self, p):
        for n in range(4 if p < 5 else 3):
            lat = lattice_of(p, (n,))
            plus, times = lat.arithmetic(0)
            vectors = list(itertools.product(range(p), repeat=n))
            number = {v: sum(c * p**i for i, c in enumerate(v)) for v in vectors}
            for u in vectors:
                for c in range(p):
                    assert times[c][number[u]] == number[tuple(c * a % p for a in u)]
                for v in vectors:
                    assert plus[number[u]][number[v]] == number[tuple((a + b) % p for a, b in zip(u, v))]
            assert lat.arithmetic(0) is lat.arithmetic(0)

    def test_unit_rows_build_no_tables(self):
        # K3 (1,2): the one basis row at the source is e_0
        for p in (2, 3):
            stratum_census(KRONECKER_3, DimensionVector((1, 2)), StabilityParameter((2, -1)), field=p)
            assert lattice_of(p, (1, 2))._arithmetic == {}

    def test_census_matches_the_per_matrix_route(self):
        # same dicts, order included, as a fold that reads every matrix of
        # every arrow with the per-matrix formula, on seeded instances with
        # loops and parallel arrows over F_3, F_5 and F_2: the census reads
        # one matrix per scalar class, and its first arrow by rank class
        # unless a loop
        rng = random.Random(20261020)
        instances = []
        while len(instances) < 60:
            n = rng.randint(1, 3)
            arrows = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 3))]
            if len(instances) % 2:
                v = rng.randint(1, n)
                arrows.insert(rng.randint(0, len(arrows)), (v, v))
            if arrows and len(instances) % 3 == 0:
                arrows.insert(rng.randint(0, len(arrows)), rng.choice(arrows))
            q = Quiver(n, arrows)
            d = DimensionVector(rng.randint(0, 2) for _ in range(n))
            p = (3, 5, 2)[len(instances) % 3]
            if any(d) and rep_count(p, q, d) <= 5**6:
                instances.append((q, d, p))
        for q, d, p in instances:
            census = stratum_census(q, d, q.canonical_stability(d), p)
            assert list(census.items()) == list(per_matrix_census(q, d, p).items())
            assert sum(census.values()) == rep_count(p, q, d)


def per_matrix_census(q, d, p):
    """`stratum_census` with every matrix of every arrow read on its own,
    in `_all_matrices` order, and no classes: the invariant sets ANDed
    arrow by arrow, each new one met first at its first representation."""
    lat = lattice_of(p, d)
    reached = Counter({lat.full: 1})
    for s, t in q.arrows:
        matrices = oracle._all_matrices(d[t - 1], d[s - 1], p)
        masks = Counter(per_matrix_masks(lat, s - 1, t - 1, matrices))
        merged = Counter()
        for part, n in reached.items():
            for mask, k in masks.items():
                merged[part & mask] += n * k
        reached = merged
    census = Counter()
    for inv, n in reached.items():
        census[oracle._type_from_invariants(lat, inv, q.canonical_stability(d))] += n
    return census


class TestScalarClasses:
    """The census reads one matrix per class {c M : c != 0}."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_first_member_of_each_class(self, p):
        for rows, cols in itertools.product(range(3), repeat=2):
            if p ** (rows * cols) > 5**4:
                continue
            first = {}
            for m in oracle._all_matrices(rows, cols, p):
                flat = sum(m, ())
                c = next((x for x in flat if x), 1)  # the class is named by its member with a leading 1
                key = tuple(x * pow(c, -1, p) % p for x in flat)
                first.setdefault(key, m)
            assert oracle._scalar_classes(rows, cols, p) == list(first.values())

    @pytest.mark.parametrize("p", [3, 5])
    def test_scaled_matrix_keeps_its_mask(self, p):
        # c M U_s = M U_s for c != 0: every pair of two vertices, loops and
        # d_s = 0 or d_t = 0 among them, at most 40 matrices a pair
        rng = random.Random(p)
        for d in itertools.product(range(3), repeat=2):
            lat = lattice_of(p, d)
            for s, t in [(0, 1), (1, 0), (0, 0), (1, 1)]:
                matrices = oracle._all_matrices(d[t], d[s], p)
                for m in rng.sample(matrices, min(40, len(matrices))):
                    mask = reference_arrow_mask(lat, s, t, m)
                    for c in range(2, p):
                        scaled = tuple(tuple(c * x % p for x in row) for row in m)
                        assert reference_arrow_mask(lat, s, t, scaled) == mask, (d, s, t, m, c)


class TestMaskCalls:
    @pytest.mark.parametrize("p, calls", [(2, 4), (3, 5)])
    def test_parallel_first_arrow_builds_its_pair_once(self, monkeypatch, p, calls):
        # K3 (1,2): the first arrow's pair recurs, so its 1 + (p^2 - 1) / (p - 1)
        # scalar classes' masks are built once and R_1's mask is read off
        # them, not built a second time
        made = []
        arrow_masks = oracle._arrow_masks
        monkeypatch.setattr(oracle, "_arrow_masks", lambda *a: made.append(a[-1]) or arrow_masks(*a))
        stratum_census(KRONECKER_3, DimensionVector((1, 2)), StabilityParameter((2, -1)), field=p)
        (matrices,) = made
        assert len(matrices) == calls == len(set(matrices))


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

    def test_budget_before_trial_division(self, monkeypatch):
        # 2^61 - 1 is prime: trial division up to its square root used to run first
        def no_trial_division(p):
            raise AssertionError("primality tested before the budget")

        monkeypatch.setattr(oracle, "_require_prime", no_trial_division)
        with pytest.raises(BudgetExceededError, match="^census merge needs "):
            stratum_census(KRONECKER_3, D_23, THETA_23, field=2**61 - 1)
        with pytest.raises(BudgetExceededError, match="^enumeration needs "):
            list(enumerate_reps(2**61 - 1, KRONECKER_3, D_23))

    def test_primality_tested_once(self, monkeypatch):
        calls = []
        require_prime = oracle._require_prime

        def spy(p):
            calls.append(p)
            return require_prime(p)

        monkeypatch.setattr(oracle, "_require_prime", spy)
        stratum_census(K1, D11, THETA11, field=3)
        assert calls == [3]

    def test_non_integral_field_rejected(self):
        rep = FiniteFieldRep(2, K1, D11, (((1,),),))
        for field in (2.0, 3.0, "3"):
            with pytest.raises(ValueError, match=f"^field size must be prime, got {field}$"):
                FiniteFieldRep(field, K1, D11, (((1,),),))
            with pytest.raises(ValueError, match="prime"):
                stratum_census(KRONECKER_3, DimensionVector((1, 2)), (2, -1), field)
            with pytest.raises(ValueError, match="prime"):
                list(enumerate_reps(field, K1, D11))
            with pytest.raises(ValueError, match="prime"):
                hn_type_of(FiniteFieldRep(field, K1, D11, rep.matrices), THETA11)

        class Three:
            def __index__(self):
                return 3

        assert FiniteFieldRep(Three(), K1, D11, rep.matrices).field == 3
        assert len(list(enumerate_reps(Three(), K1, D11))) == 3

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

    def test_rep_is_a_named_tuple(self):
        # the fields and their order are those of the former dataclass
        m = (((1,),),)
        rep = FiniteFieldRep(2, K1, (1, 1), m)
        assert FiniteFieldRep._fields == ("field", "quiver", "dim", "matrices")
        assert rep == FiniteFieldRep(field=2, quiver=K1, dim=D11, matrices=m) == (2, K1, D11, m)
        assert hash(rep) == hash(FiniteFieldRep(2, K1, D11, m))
        assert type(rep.field) is int and type(rep.dim) is DimensionVector
        for name in FiniteFieldRep._fields:
            with pytest.raises(AttributeError):
                setattr(rep, name, None)
        with pytest.raises(AttributeError):
            rep.extra = 1

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
        # (2 * (67 + 67) + 8 + 2 + 5 * 5) words per 64 tuples, 71 blocks of 64
        rep = FiniteFieldRep(2, K1, DimensionVector((4, 4)), (((0,) * 4,) * 4,))
        with pytest.raises(BudgetExceededError, match="^subspace tables need 21513 64-bit words, budget is 10000 "):
            hn_type_of(rep, StabilityParameter((1, -1)), budget=10**4)


class TestTableBudget:
    def test_tables_refused_before_they_are_built(self, monkeypatch):
        # the one-loop quiver at (4)/F_2, its loop read matrix by matrix:
        # 1 + (2^16 - 1) / (2 - 1) = 2^16 masks over 67 tuples, 2 blocks of
        # 64, with 2 * 67 + 4 + 1 + 5 words per block: (134 + 10 + 2^16) * 2
        q, d = Quiver(1, [(1, 1)]), DimensionVector((4,))
        assert rep_count(2, q, d) == 65_536 and subspace_count(4, 2) == 67

        def refuse(*args):
            raise AssertionError("built despite the budget")

        monkeypatch.setattr(oracle, "_lattice", refuse)
        monkeypatch.setattr(oracle, "_all_matrices", refuse)
        monkeypatch.setattr(oracle, "_scalar_classes", refuse)
        with pytest.raises(BudgetExceededError, match="^subspace tables need 131360 64-bit words") as exc:
            stratum_census(q, d, (0,), field=2, budget=10**5)
        assert exc.value.needed == (134 + 10 + 65_536) * 2
        assert exc.value.budget == 10**5

    @pytest.mark.parametrize("q, d, p, masks", [
        (K1, (4, 4), 2, 4),  # R_1, ..., R_4 alone, not 2^16 matrices
        (KRONECKER_3, (1, 2), 3, 5),  # the pair recurs: 1 + (3^2 - 1) / 2 classes
        (Quiver(1, [(1, 1)]), (2,), 3, 41),  # a loop first arrow: 1 + (3^4 - 1) / 2
        (Quiver(2, [(1, 2), (2, 2)]), (2, 2), 3, 2 + 41),
    ], ids=["K1-4-4-F2", "K3-1-2-F3", "loop-2-F3", "arrow-loop-2-2-F3"])
    def test_masks_counted_as_built(self, monkeypatch, q, d, p, masks):
        counted, built = [], []
        checked_lattice, arrow_masks = oracle._checked_lattice, oracle._arrow_masks
        monkeypatch.setattr(oracle, "_checked_lattice", lambda *a: counted.append(a[-1]) or checked_lattice(*a))
        monkeypatch.setattr(oracle, "_arrow_masks", lambda *a: built.extend(a[-1]) or arrow_masks(*a))
        stratum_census(q, d, q.canonical_stability(d), field=p)
        assert counted == [masks] and len(built) == masks

    def test_points_not_counted(self):
        # the census lists no representation: K2 (3,3)/F_3 has 3^18 of
        # them, over the default budget, and its merge makes 4 * 9842
        # products, R_0, ..., R_3 of the first arrow by the second's classes
        q, d = Quiver.kronecker(2), DimensionVector((3, 3))
        assert rep_count(3, q, d) == 3**18 > 10**7
        census = stratum_census(q, d, q.canonical_stability(d), field=3)
        assert sum(census.values()) == 3**18

    def test_merge_products_refused_before_masks_are_built(self, monkeypatch):
        # K3 (2,2)/F_3: 3 rank classes for the first arrow, then 41 scalar
        # classes for each of the other two: 3 * 41 + 3 * 41 * 41 products,
        # the only count over 5000 (41 masks, 80 words, 36 tuples)
        for name in ("_lattice", "_arrow_masks", "_scalar_classes", "_rank_classes"):
            monkeypatch.setattr(oracle, name, TestTableBudget.refuse)
        d = DimensionVector((2, 2))
        theta = KRONECKER_3.canonical_stability(d)
        with pytest.raises(BudgetExceededError, match="^census merge needs 5166 products, budget is 5000 ") as exc:
            stratum_census(KRONECKER_3, d, theta, field=3, budget=5000)
        assert exc.value.needed == 3 * 41 + 3 * 41 * 41
        monkeypatch.undo()
        census = stratum_census(KRONECKER_3, d, theta, field=3, budget=5166)
        assert sum(census.values()) == rep_count(3, KRONECKER_3, d) == 3**12

    def test_dimension_masks_counted_before_they_are_built(self, monkeypatch):
        # 21513 words with the 25 masks of f <= (4,4), 19738 without them
        monkeypatch.setattr(oracle, "_lattice", TestTableBudget.refuse)
        rep = FiniteFieldRep(2, K1, DimensionVector((4, 4)), (((0,) * 4,) * 4,))
        with pytest.raises(BudgetExceededError, match="^subspace tables need 21513 64-bit words, budget is 20000 "):
            hn_type_of(rep, StabilityParameter((1, -1)), budget=20_000)

    def test_arithmetic_tables_counted_before_they_are_built(self, monkeypatch):
        # K1 (2,3)/F_5: the sums and multiples of F_5^3, 125 * (125 + 5)
        # entries, are all that exceed 10^4: 512 tuples, 1304 words
        monkeypatch.setattr(oracle, "_lattice", TestTableBudget.refuse)
        rep = FiniteFieldRep(5, K1, DimensionVector((2, 3)), (((0, 0),) * 3,))
        with pytest.raises(BudgetExceededError, match="^arithmetic tables need 16250 entries, budget is 10000 "):
            hn_type_of(rep, StabilityParameter((3, -2)), budget=10**4)
        # d_s = 1: the one basis row is e_0, so no tables are built or counted
        rep = FiniteFieldRep(5, K1, DimensionVector((1, 3)), (((0,),) * 3,))
        monkeypatch.undo()
        assert hn_type_of(rep, StabilityParameter((3, -1)), budget=10**4).total() == (1, 3)

    @staticmethod
    def refuse(*args):
        raise AssertionError("built despite the budget")

    def test_lattice_words_bound_single_reps(self):
        # 67 subspaces per vertex: the tuples fit 10^4, their masks do not
        rep = FiniteFieldRep(2, K1, DimensionVector((4, 4)), (((0,) * 4,) * 4,))
        with pytest.raises(BudgetExceededError):
            hn_type_of(rep, StabilityParameter((1, -1)), budget=10**4)
