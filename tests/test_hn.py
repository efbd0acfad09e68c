"""Tests for stratification types, codimensions, and subgroup weights."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from heapq import heappush
from itertools import product
from math import lcm
from operator import le, mul, sub
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import quivermoduli
import quivermoduli.hn
from quivermoduli import semistability
from quivermoduli import (
    DimensionVector,
    HNType,
    Quiver,
    StabilityParameter,
    codimension,
    codimension_cuts,
    enumerate_hn_types,
    has_semistable,
    is_strongly_amply_stable,
    is_theta_coprime,
    one_parameter_subgroup,
    slope,
    subdimension_vectors,
    validate_hn_type,
    verdict,
    window_width,
)
from quivermoduli.cli import load_problem
from quivermoduli.core import _box_weights
from quivermoduli.hn import _dot, _Tables

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
    wide_instances,
)
from weight_oracles import (
    reference_hn_types,
    reference_strongly_amply_stable,
    reference_theta_coprime,
)

K1 = Quiver.kronecker(1)
GOLDEN = Path(__file__).resolve().parent / "golden"


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

    def test_plain_sequences(self):
        validate_hn_type(KRONECKER_3, THETA_23, [(1, 0), (1, 3)], (2, 3))
        validate_hn_type(KRONECKER_3, (3, -2), [[1, 1], [1, 2]])
        with pytest.raises(ValueError, match="sums to"):
            validate_hn_type(KRONECKER_3, THETA_23, [(1, 1), (1, 1)], D_23)
        with pytest.raises(ValueError, match="at least one piece"):
            validate_hn_type(KRONECKER_3, THETA_23, [])
        with pytest.raises(ValueError, match="nonzero"):
            validate_hn_type(KRONECKER_3, THETA_23, [(2, 3), (0, 0)])


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
    """The full tables of `_Tables` key a table by the place r of each
    remainder in the lexicographic list of the vectors 0 <= rest <= d, but
    only where an HN type of d can leave that remainder: rest = d,
    rest = 0, and theta(rest) < 0 with N(rest) = -<d - rest, rest> >= 0
    (lemma (c)).  No other place has a table.  A built table keeps
    only the pieces e <= rest that complete to a type: rest - e is zero
    or has a type with every slope below mu(e), and its place is stored.
    The reference is the plain filter over the pieces in slope order,
    with the completions read off `reference_hn_types`, restricted to
    those whose every remainder, rest - e first, has theta < 0 and
    N >= 0."""

    @staticmethod
    def cut(q, d, rest):
        """N(rest) = -<d - rest, rest>."""
        return -q.euler_pairing(d - rest, rest)

    @staticmethod
    def built(q, d, theta, rest):
        return rest == d or theta.dot(rest) < 0 and TestFitLists.cut(q, d, rest) >= 0

    @staticmethod
    def reference_entries(q, d, theta):
        pieces = [e for e in subdimension_vectors(d)[1:] if has_semistable(q, e, theta)]
        by_slope = sorted(pieces, key=lambda e: slope(theta, e))
        tail_types = {}

        def kept(tail, t):
            """Whether tail and every later remainder of its type t have N >= 0."""
            for piece in (None, *t[:-1]):
                tail = tail if piece is None else tail - piece
                if TestFitLists.cut(q, d, tail) < 0:
                    return False
            return True

        def completions(e, rest):
            """The types of rest - e with every slope below mu(e), if
            rest - e is zero or has theta < 0, whose remainders have N >= 0."""
            tail = rest - e
            if tail.is_zero():
                return [()]
            if theta.dot(tail) >= 0:
                return []
            if tail not in tail_types:
                tail_types[tail] = reference_hn_types(q, tail, theta)
            return [t for t in tail_types[tail]
                    if slope(theta, t[0]) < slope(theta, e) and kept(tail, t)]

        return {
            tuple(rest): [(e, tails) for e in by_slope
                          if all(map(le, e, rest)) and (tails := completions(e, rest))]
            for rest in subdimension_vectors(d)[1:]
            if TestFitLists.built(q, d, theta, rest)
        }

    @staticmethod
    def failure_sum(q, d, theta, e, rest, t):
        """sum over the pieces p of t of (mu before p - mu(p)) (N(rest) - 1),
        rest running down from the tail rest by each p."""
        total, mu, rest = Fraction(0), slope(theta, e), DimensionVector(rest)
        for p in t:
            n = -q.euler_pairing(d - rest, rest)
            total += (mu - slope(theta, p)) * (n - 1)
            rest, mu = rest - p, slope(theta, p)
        return total

    def test_equal_to_filter(self):
        pruned = empty = 0
        for q, d, theta in CORPUS + random_instances(200, seed=23):
            vectors = subdimension_vectors(d)
            tables = _Tables(q, d, theta, "test").tables
            expected = self.reference_entries(q, d, theta)
            scale = lcm(*{sum(e) for e in vectors[1:] if has_semistable(q, e, theta)})
            # tables[r] belongs to the remainder vectors[r], key 0 to zero
            assert vectors[0].is_zero()
            # the keys are exactly 0, d and the remainders with theta < 0
            # and N >= 0 that the filter below finds an entry for, as it
            # finds none where every type of rest has a remainder with
            # N < 0; and only the zero remainder's table is empty
            negative = {r for r, rest in enumerate(vectors) if theta.dot(rest) < 0}
            kept = {r for r in negative if self.cut(q, d, vectors[r]) >= 0}
            assert set(tables) == {0, len(vectors) - 1} | {
                r for r in kept if expected[tuple(vectors[r])]
            }
            assert [r for r in tables if not tables[r][3]] == [0]
            pruned += len(negative - kept)
            empty += sum(not entries for entries in expected.values())
            for r, rest in enumerate(vectors[1:], 1):
                if r not in tables:
                    continue
                entries, stored = expected[tuple(rest)], tables[r][3]
                assert [x[0] for x in stored] == [e for e, _ in entries], (q, d, rest)
                assert all(vectors[tail] == rest - e for e, _, tail, *_ in stored)
                # F: the least failure sum from the state (rest - e, mu(e)) on,
                # in units of 1/scale
                for (e, _, tail, f), (_, tails) in zip(stored, entries):
                    assert f == scale * min(self.failure_sum(q, d, theta, e, vectors[tail], t)
                                            for t in tails)
        # the batch has remainders with theta < 0 and N < 0, left without a
        # table, and remainders with theta < 0 and N >= 0 but no entry, left
        # without one too
        assert pruned > 100 and empty > 0

    def test_enumeration_with_remainders_left_out(self):
        # on instances where some remainder with theta < 0 has N < 0, which
        # the full tables leave out by lemma (c), the enumeration is still
        # the reference's
        instances = types = 0
        for q, d, theta in random_instances(300, seed=47):
            if not any(theta.dot(rest) < 0 and self.cut(q, d, rest) < 0
                       for rest in subdimension_vectors(d)):
                continue
            found = enumerate_hn_types(q, d, theta)
            assert found == reference_hn_types(q, d, theta), (q, d, theta)
            instances += 1
            types += len(found)
        assert instances >= 40 and types >= 80

    def test_prefix_minima_never_empty(self):
        for q, d, theta in CORPUS + random_instances(50, seed=29):
            tables = _Tables(q, d, theta, "test").tables
            assert tables[0][3] == []
            vectors = subdimension_vectors(d)
            for r, (c, slopes, best_f, entries) in tables.items():
                if r:
                    assert self.built(q, d, theta, vectors[r])
                    assert entries and None not in best_f
                    assert len(slopes) == len(best_f) == len(entries)

    def test_every_remainder_of_a_type_has_negative_theta(self):
        # the lemma that lets `_Tables` build no table where theta(rest) >= 0
        remainders = 0
        for q, d, theta in CORPUS + random_instances(200, seed=31):
            for t in reference_hn_types(q, d, theta):
                rest = d
                for piece in t[:-1]:
                    rest = rest - piece
                    assert theta.dot(rest) < 0, (q, d, t)
                    remainders += 1
        assert remainders > 100

    def test_readers_need_only_the_entries(self):
        for q, d, theta in CORPUS:
            tables = _Tables(q, d, theta, "test")
            # the prefix minima serve only the build: a reader of them would now fail
            tables.tables = {
                r: (c, s, None, entries) for r, (c, s, _, entries) in tables.tables.items()
            }
            found = tables.search(lambda e, low: True, tables.tables)
            assert found == reference_hn_types(q, d, theta)

    def test_ties_in_lexicographic_order(self):
        ties = 0
        for q, d, theta in CORPUS:
            for *_, entries in _Tables(q, d, theta, "test").tables.values():
                for a, b in zip(entries, entries[1:]):
                    assert slope(theta, a[0]) <= slope(theta, b[0])
                    if slope(theta, a[0]) == slope(theta, b[0]):
                        assert tuple(a[0]) < tuple(b[0])
                        ties += 1
        assert ties > 0

    def test_length_checked_before_listing_vectors(self, monkeypatch):
        # (60,60,60) on a 2-vertex quiver used to list 226,981 vectors first
        def never(d):
            raise AssertionError("subdimension vectors listed before the length check")

        monkeypatch.setattr(quivermoduli.hn, "_box", never)
        for call in (verdict, enumerate_hn_types):
            with pytest.raises(ValueError, match="^vector of length 3 on a quiver with 2 vertices$"):
                call(KRONECKER_3, (60, 60, 60), (1, 1, -2))
            with pytest.raises(ValueError, match="^vector of length 3 on a quiver with 2 vertices$"):
                call(KRONECKER_3, (2, 3), (1, 1, -2))

    def test_validation_names_the_caller(self):
        with pytest.raises(ValueError, match="^caller requires a nonzero dimension vector$"):
            _Tables(K1, (0, 0), (1, -1), "caller")
        with pytest.raises(ValueError, match=r"^caller requires theta\(d\) = 0$"):
            _Tables(K1, (1, 1), (1, 0), "caller")


class TestBoxWeights:
    """`_box_weights`, theta(e) for every e <= d by outer sums, against one
    `_dot` per vector in lexicographic order."""

    def test_equal_to_dot(self):
        rng = random.Random(11)
        zeros = 0
        for _, d, theta in CORPUS + random_instances(300, seed=23):
            # the instance's theta, and a free one with zero and negative entries
            for t in (tuple(theta), tuple(rng.randint(-3, 3) for _ in d)):
                zeros += 0 in t
                expected = [_dot(t, e) for e in product(*(range(x + 1) for x in d))]
                assert _box_weights(t, tuple(d)) == expected
        assert zeros > 50


class TestLeastCodim:
    """`_Tables.least_codim`, the best-first search from d, against the
    least codimension over the reference HN types, and, with made-up
    pieces, against the plain min-path recursion over the same edges."""

    def test_equal_to_reference(self):
        unstrong = 0
        wide = [(q, d, q.canonical_stability(d)) for q, d in wide_instances(200, seed=5)]
        for q, d, theta in CORPUS + random_instances(300, seed=43) + wide:
            tables = _Tables(q, d, theta, "test")
            codims = [codimension(q, t) for t in reference_hn_types(q, d, theta) if t != (d,)]
            # lemma (b) needs no strong ample stability, and no table
            assert tables.least_codim() == min(codims, default=None), (q, d, theta)
            assert "tables" not in vars(tables)
            unstrong += tables.strong_failure_witness is not None
        assert unstrong >= 50

    def test_exact_on_any_edges_at_least_zero(self, monkeypatch):
        # Dijkstra is exact when every edge is >= 0, whatever the pieces.
        # Loops at every vertex and no negative arrow count make every
        # entry of the Euler matrix <= 0, so every edge -<e, tail> is >= 0
        # on any set of pieces, which `_semistable` is made to return.
        # The root edges of least weight are no pieces, so the search pops
        # a non-piece first; the last edge of a type weighs -<e, 0> = 0, so
        # a non-piece there holds its parent's key; and two states that
        # share a remainder but not a slope stay apart
        rng = random.Random(53)
        nonpieces = set()
        tested = []

        def made_up(q, e, theta, weight):
            tested.append(e)
            return e not in nonpieces

        monkeypatch.setattr(quivermoduli.hn, "_semistable", made_up)
        for _ in range(300):
            n = rng.randint(2, 3)
            d = tuple(rng.randint(1, 3) for _ in range(n))
            q = Quiver(n, [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                           for _ in range(rng.randint(i == j, 2))])
            u = [rng.randint(-3, 3) for _ in d]
            theta = tuple(sum(d) * x - sum(map(mul, u, d)) for x in u)
            vectors = [tuple(v) for v in subdimension_vectors(DimensionVector(d))]
            mu = {v: Fraction(sum(map(mul, theta, v)), sum(v)) for v in vectors[1:]}
            roots = {e: -q.euler_pairing(e, tuple(map(sub, d, e))) for e in mu if mu[e] > 0}
            nonpieces.clear()
            nonpieces.update(e for e in vectors[1:-1] if rng.random() < 0.4)
            nonpieces.update(e for e in roots if roots[e] == min(roots.values()))
            memo = {}

            def least(rest, bound):
                """The least path length from (rest, bound) to 0, or None."""
                if not any(rest):
                    return 0
                if (rest, bound) not in memo:
                    lengths = []
                    for e in mu:
                        tail = tuple(map(sub, rest, e))
                        if (e not in nonpieces and e != d and (bound is None or mu[e] < bound)
                                and all(map(le, e, rest))
                                and (not any(tail) or mu[tail] < 0)
                                and (length := least(tail, mu[e])) is not None):
                            lengths.append(length - q.euler_pairing(e, tail))
                    memo[rest, bound] = min(lengths, default=None)
                return memo[rest, bound]

            tables = _Tables(q, d, theta, "test")
            tested.clear()
            assert tables.least_codim() == least(d, None), (q, d, theta, sorted(nonpieces))
            if roots:
                assert tested[0] in nonpieces

    def test_a_state_seen_before_is_skipped(self, monkeypatch):
        # the one instance found (among 8,800 random and wide ones) on which
        # a state (r, mu(e)) is popped twice: the second pop pushes no edges,
        # 83 pushes in all, where a search without the closed set makes 86
        q, d, theta = Quiver(3, [(3, 2)]), DimensionVector((2, 2, 4)), StabilityParameter((-22, 2, 10))
        pushes = []

        def counted(heap, entry):
            pushes.append(entry)
            heappush(heap, entry)

        monkeypatch.setattr(quivermoduli.hn, "heappush", counted)
        codims = [codimension(q, t) for t in reference_hn_types(q, d, theta) if t != (d,)]
        assert _Tables(q, d, theta, "test").least_codim() == min(codims) == 0
        assert len(pushes) == 83

def forms_by_outer_sums(q, table, tables):
    """Whether `tables.forms` are every e <= d's right forms, built by outer
    sums: equal to `right_form`, with some e the ray `table` does not hold."""
    return (tables.forms == [q.right_form(e) for e in tables.vectors]
            and not all(e in table for e in tables.vectors))


class TestForms:
    """`_Tables.forms`, the right forms of d's box by number, against
    `right_form` one vector at a time: by outer sums on a cold table, which
    the lean pass leaves as it found it, and off the ray table's entries
    once `_fill_whole` has filled the box."""

    def test_equal_to_right_form(self):
        wide = [(q, d, q.canonical_stability(d)) for q, d in wide_instances(80, seed=7)]
        goldens = [load_problem(str(path)) for path in sorted(GOLDEN.glob("*.json"))]
        instances = CORPUS + random_instances(300, seed=53) + wide
        read_off = 0
        for q, d, theta in instances + [(g.quiver, g.d, g.theta) for g in goldens]:
            quivermoduli.clear_caches()
            table = semistability._memo[q]
            cold = _Tables(q, d, theta, "test")
            assert forms_by_outer_sums(q, table, cold), (q, d)
            assert not table
            semistability._fill_whole(table, cold.vectors)
            tables = _Tables(q, d, theta, "test")
            assert tables.forms == [q.right_form(e) for e in tables.vectors], (q, d)
            if len(d) <= 3:  # from four vertices on `_fill_whole` fills nothing
                assert all(form is table[e][1] for e, form in zip(tables.vectors, tables.forms))
                read_off += 1
        assert read_off >= 300


class TestVerdictFlags:
    """The coprime flag and the strong ample witness come out of the lean
    pass, and `is_theta_coprime` and `is_strongly_amply_stable` read it;
    `reference_theta_coprime` and `reference_strongly_amply_stable`, one
    e at a time, are the references for both."""

    def test_equal_to_reference(self):
        seen = Counter()
        for q, d, theta in CORPUS + random_instances(300, seed=37):
            tables = _Tables(q, d, theta, "test")
            strong, witness = reference_strongly_amply_stable(q, d, theta)
            assert tables.coprime == reference_theta_coprime(theta, d), (q, d, theta)
            assert tables.strong_failure_witness == witness, (q, d, theta)
            assert type(tables.strong_failure_witness) is type(witness)
            seen[tables.coprime, strong] += 1
        # every combination of the two flags occurs, witnesses included
        assert len(seen) == 4 and min(seen.values()) >= 10, seen

    def test_public_flags_equal_to_reference(self):
        wide = [(q, d, q.canonical_stability(d)) for q, d in wide_instances(80, seed=7)]
        goldens = [load_problem(str(path)) for path in sorted(GOLDEN.glob("*.json"))]
        instances = CORPUS + random_instances(300, seed=37) + wide
        seen = Counter()
        for q, d, theta in instances + [(g.quiver, g.d, g.theta) for g in goldens]:
            coprime = is_theta_coprime(theta, d)
            strong, witness = is_strongly_amply_stable(q, d, theta)
            assert coprime == reference_theta_coprime(theta, d), (q, d, theta)
            assert (strong, witness) == reference_strongly_amply_stable(q, d, theta), (q, d, theta)
            assert type(coprime) is type(strong) is bool
            assert witness is None or type(witness) is DimensionVector
            seen[coprime, strong] += 1
        assert len(seen) == 4 and min(seen.values()) >= 10, seen

    def test_zero_d(self):
        # no e has theta(e) > 0, and no 0 < e < 0 exists
        for q in (K1, KRONECKER_3, TRIANGLE_B):
            zero = (0,) * q.vertex_count
            for theta in (zero, (1,) * q.vertex_count):
                assert is_strongly_amply_stable(q, zero, theta) == (True, None)
                assert is_theta_coprime(theta, zero)


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


class TestBoxHeldInPart:
    """A d whose box the ray table holds only in part, d's hom closure, as
    `has_semistable` or a verdict at d leaves it: the stage that reads
    every e <= d fills the rest of the box in one box pass, and the lean
    pass reads no ray before it."""

    A3 = Quiver(3, [(1, 2)] * 3 + [(2, 3)] * 3)
    A4_2 = Quiver(4, [(1, 2)] * 2 + [(2, 3)] * 2 + [(3, 4)] * 2)

    @pytest.mark.parametrize("d", [(2, 2, 2, 2), (2, 1, 2, 1), (1, 1, 1, 1)])
    def test_lean_pass_fills_no_ray(self, d):
        # however small the box, the lean pass reads the forms built by
        # outer sums, not the ray table, so the witness is known before
        # any ray of a vector off d's hom closure is filled
        q, d = self.A4_2, DimensionVector(d)
        theta = q.canonical_stability(d)
        quivermoduli.clear_caches()
        has_semistable(q, d, theta)
        table = semistability._memo[q]
        held = len(table)
        tables = _Tables(q, d, theta, "verdict")
        assert len(table) == held
        assert forms_by_outer_sums(q, table, tables)

    @pytest.mark.parametrize("q, d, theta, whole", [
        (TRIANGLE_B, (3, 18, 18), (42, 5, -12), True),  # the remainder (0,8,4) has N = 0
        (TRIANGLE_A, (4, 1, 4), (9, -16, -5), False),
    ], ids=["triangle-B", "triangle-A"])
    def test_lean_pass_fills_no_ray_with_a_witness(self, q, d, theta, whole):
        # with a strong failure witness too the constructor fills nothing;
        # `semistable`, which a verdict reads after it, fills the whole box
        # only when a remainder has N = 0 and the full tables will be built
        quivermoduli.clear_caches()
        has_semistable(q, d, theta)
        table = semistability._memo[q]
        held = len(table)
        tables = _Tables(q, d, theta, "verdict")
        assert tables.strong_failure_witness is not None
        assert len(table) == held
        assert tables.zero_cut is not whole
        assert tables.semistable
        assert all(e in table for e in product(*(range(x + 1) for x in d))) is whole

    def test_flag_fills_no_ray(self):
        quivermoduli.clear_caches()
        assert is_strongly_amply_stable(TRIANGLE_B, (3, 18, 18), (42, 5, -12)) == (False, (0, 1, 0))
        assert not any(rays for rays, _ in semistability._memo[TRIANGLE_B].values())

    @pytest.mark.parametrize("q, d, first, then", [
        (TRIANGLE_B, (3, 18, 18), has_semistable, verdict),  # with a witness
        (A3, (6, 6, 6), verdict, enumerate_hn_types),  # without one: the tables
    ], ids=["triangle-B-verdict", "A3-enumeration"])
    def test_one_box_pass(self, monkeypatch, q, d, first, then):
        d = DimensionVector(d)
        theta = q.canonical_stability(d)
        passes = []
        fill_box = semistability._fill_box
        monkeypatch.setattr(semistability, "_fill_box",
                            lambda table, box: passes.append(box[-1]) or fill_box(table, box))
        quivermoduli.clear_caches()
        cold = then(q, d, theta)
        quivermoduli.clear_caches()
        first(q, d, theta)
        table = semistability._memo[q]
        box = list(product(*(range(x + 1) for x in d)))
        assert not all(e in table for e in box)
        passes.clear()
        assert then(q, d, theta) == cold
        assert passes == [tuple(d)] and all(e in table for e in box)
