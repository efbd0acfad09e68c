"""Tests for window weights, stratum reports, and certificates."""

from __future__ import annotations

import random
import re
from collections import Counter
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import quivermoduli.hn
import quivermoduli.windows
from quivermoduli import (
    DimensionVector,
    HNType,
    OneParameterSubgroup,
    Quiver,
    StabilityParameter,
    ambient_canonical_weight,
    codimension,
    codimension_cuts,
    enumerate_hn_types,
    has_semistable,
    hom_bundle_weights,
    moduli_dimension,
    one_parameter_subgroup,
    stratum_canonical_weight,
    stratum_report,
    subdimension_vectors,
    verdict,
    window_width,
)
from quivermoduli.cli import load_problem

from cases import (
    CORPUS,
    D_23,
    D_A,
    D_B,
    FAILING_B,
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
    ambient_weight_by_blocks,
    codimension_by_blocks,
    reference_generic_subdimension_vectors,
    reference_verdict,
    stratum_weight_by_blocks,
)

JORDAN = Quiver(1, [(1, 1)])
GOLDEN = Path(__file__).resolve().parent / "golden"


def _total(pieces):
    return tuple(map(sum, zip(*pieces)))


BUILD_TABLES = quivermoduli.hn._Tables.tables.func


def replace_table_stage(monkeypatch, stage):
    """Run stage(self, BUILD_TABLES) as the tables stage of `hn._Tables`."""
    tables = cached_property(lambda self: stage(self, BUILD_TABLES))
    tables.__set_name__(quivermoduli.hn._Tables, "tables")
    monkeypatch.setattr(quivermoduli.hn._Tables, "tables", tables)


def count_table_builds(monkeypatch):
    """The list each run of the tables stage of `hn._Tables` appends to."""
    builds = []
    replace_table_stage(monkeypatch, lambda self, build: builds.append(self) or build(self))
    return builds


def has_zero_cut(q, d, theta):
    """Whether some remainder 0 <= rest <= d with theta(rest) < 0 has
    N(rest) = -<d - rest, rest> = 0, the case the zero-cut rule leaves to
    the full tables."""
    return any(
        theta.dot(rest) < 0 and q.euler_pairing(d - rest, rest) == 0
        for rest in subdimension_vectors(d)
    )


def all_instances():
    extra = [
        (q, d, theta)
        for q, d, theta in random_instances(40, seed=7)
        if has_semistable(q, d, theta)
    ]
    return CORPUS + extra


@st.composite
def semistable_instances(draw):
    """(quiver, d, theta) with theta(d) = 0 and a semistable locus."""
    n = draw(st.integers(1, 3))
    arrows = draw(
        st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=6)
    )
    q = Quiver(n, arrows)
    d = DimensionVector(draw(st.integers(0, 4)) for _ in range(n))
    assume(not d.is_zero() and sum(d) <= 9)
    if draw(st.booleans()):
        theta = q.canonical_stability(d)
    else:
        # |d| u - (u.d) (1,...,1) pairs to zero against d
        u = [draw(st.integers(-3, 3)) for _ in range(n)]
        u_dot_d = sum(ui * di for ui, di in zip(u, d))
        theta = StabilityParameter(sum(d) * ui - u_dot_d for ui in u)
    assume(has_semistable(q, d, theta))
    return q, d, theta


class TestWeightFormulas:
    def test_block_oracle_agreement(self):
        # the closed formulas match a blockwise recount on every stratum
        for q, d, theta in all_instances():
            for t in enumerate_hn_types(q, d, theta):
                sub = one_parameter_subgroup(theta, t)
                assert ambient_canonical_weight(q, t, sub) == ambient_weight_by_blocks(
                    q, t, sub.weights
                )
                assert stratum_canonical_weight(q, t, sub) == stratum_weight_by_blocks(
                    q, t, sub.weights
                )
                assert codimension(q, t) == codimension_by_blocks(q, t)
                # cut r is the codimension of the two-piece coarsening at r
                assert codimension_cuts(q, t) == tuple(
                    codimension_by_blocks(q, (_total(t[:r]), _total(t[r:])))
                    for r in range(1, len(t))
                )

    def test_width_is_difference(self):
        for q, d, theta in all_instances():
            for t in enumerate_hn_types(q, d, theta):
                sub = one_parameter_subgroup(theta, t)
                assert window_width(q, t, sub) == ambient_canonical_weight(
                    q, t, sub
                ) - stratum_canonical_weight(q, t, sub)

    def test_frozen_values(self):
        t = HNType(((1, 1), (1, 2)))
        sub = one_parameter_subgroup(THETA_23, t)
        assert ambient_canonical_weight(KRONECKER_3, t, sub) == 15
        assert stratum_canonical_weight(KRONECKER_3, t, sub) == 0
        assert window_width(KRONECKER_3, t, sub) == 15

        t = HNType(((1, 0), (1, 1), (0, 2)))
        sub = one_parameter_subgroup(THETA_23, t)
        assert sub.weights == (6, 1, -4)
        assert ambient_canonical_weight(KRONECKER_3, t, sub) == 105
        assert stratum_canonical_weight(KRONECKER_3, t, sub) == 15
        assert window_width(KRONECKER_3, t, sub) == 90

        t = HNType(((2, 0), (0, 3)))
        sub = one_parameter_subgroup(THETA_23, t)
        assert ambient_canonical_weight(KRONECKER_3, t, sub) == 90
        assert stratum_canonical_weight(KRONECKER_3, t, sub) == 0

        sub = one_parameter_subgroup(THETA_B, FAILING_B)
        assert ambient_canonical_weight(TRIANGLE_B, FAILING_B, sub) == 325
        assert stratum_canonical_weight(TRIANGLE_B, FAILING_B, sub) == 260
        assert window_width(TRIANGLE_B, FAILING_B, sub) == 65

    def test_golden_widths(self):
        for t, (*_rest, eta) in GOLDEN_UNSTABLE_23.items():
            sub = one_parameter_subgroup(THETA_23, t)
            assert window_width(KRONECKER_3, t, sub) == eta

    def test_dense_type_weights_vanish(self):
        t = HNType((D_23,))
        sub = one_parameter_subgroup(THETA_23, t)
        assert ambient_canonical_weight(KRONECKER_3, t, sub) == 0
        assert stratum_canonical_weight(KRONECKER_3, t, sub) == 0
        assert window_width(KRONECKER_3, t, sub) == 0


class TestHomBundleWeights:
    def test_two_piece_example(self):
        t = HNType(((1, 1), (1, 2)))
        sub = one_parameter_subgroup(THETA_23, t)
        assert hom_bundle_weights(t, sub, 1, 2) == Counter({-5: 1, 0: 3, 5: 2})

    def test_disjoint_support(self):
        t = HNType(((2, 0), (0, 3)))
        sub = one_parameter_subgroup(THETA_23, t)
        assert hom_bundle_weights(t, sub, 1, 2) == Counter({5: 6})

    def test_dense_type(self):
        t = HNType((D_23,))
        sub = one_parameter_subgroup(THETA_23, t)
        assert hom_bundle_weights(t, sub, 1, 2) == Counter({0: 6})

    def test_total_multiplicity(self):
        for q, d, theta in CORPUS:
            n = len(d)
            for t in enumerate_hn_types(q, d, theta):
                sub = one_parameter_subgroup(theta, t)
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        weights = hom_bundle_weights(t, sub, i, j)
                        assert sum(weights.values()) == d[i - 1] * d[j - 1]
                        spread = {
                            a - b for a in sub.weights for b in sub.weights
                        }
                        assert set(weights) <= spread

    def test_max_weight_bound(self):
        # the largest possible weight is k_1 - k_l, attained exactly when
        # the first piece is supported at i and the last at j
        for q, d, theta in CORPUS:
            n = len(d)
            for t in enumerate_hn_types(q, d, theta):
                sub = one_parameter_subgroup(theta, t)
                top = sub.weights[0] - sub.weights[-1]
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        weights = hom_bundle_weights(t, sub, i, j)
                        if not weights:
                            continue
                        assert max(weights) <= top
                        attained = t[0][i - 1] * t[-1][j - 1] > 0
                        assert (max(weights) == top) == attained

    def test_vertex_out_of_range(self):
        t = HNType(((1, 1), (1, 2)))
        sub = one_parameter_subgroup(THETA_23, t)
        with pytest.raises(ValueError):
            hom_bundle_weights(t, sub, 0, 1)
        with pytest.raises(ValueError):
            hom_bundle_weights(t, sub, 1, 3)

    def test_vertex_not_an_integer(self):
        t = HNType(((1, 1), (1, 2)))
        sub = one_parameter_subgroup(THETA_23, t)
        for i, j in ((1.0, 2), (1, 2.0), ("1", 2)):
            with pytest.raises(ValueError, match="vertices must be integers"):
                hom_bundle_weights(t, sub, i, j)


class TestSubgroupLength:
    """A subgroup must carry one weight per piece of the type."""

    TYPE = HNType(((1, 0), (1, 1), (0, 2)))
    SHORT = OneParameterSubgroup(2, (6, 1))
    LONG = OneParameterSubgroup(2, (6, 1, -4, -5))

    @pytest.mark.parametrize(
        "weight",
        [ambient_canonical_weight, stratum_canonical_weight, window_width],
    )
    def test_window_weights_reject_wrong_length(self, weight):
        for sub in (self.SHORT, self.LONG):
            with pytest.raises(ValueError, match="weights for a type with 3 pieces"):
                weight(KRONECKER_3, self.TYPE, sub)

    def test_hom_bundle_weights_reject_wrong_length(self):
        for sub in (self.SHORT, self.LONG):
            with pytest.raises(ValueError, match="weights for a type with 3 pieces"):
                hom_bundle_weights(self.TYPE, sub, 1, 2)


class TestEmptyType:
    """Every per-type function refuses [] with HNType's own error; some
    used to return (), 0 or a weightless subgroup, others IndexError."""

    NONE = OneParameterSubgroup(1, ())

    @pytest.mark.parametrize(
        "call",
        [
            lambda t: HNType(t),
            lambda t: quivermoduli.hn.validate_hn_type(KRONECKER_3, THETA_23, t),
            lambda t: quivermoduli.hn.pairing_table(KRONECKER_3, t),
            lambda t: codimension(KRONECKER_3, t),
            lambda t: codimension_cuts(KRONECKER_3, t),
            lambda t: one_parameter_subgroup(THETA_23, t),
            lambda t: ambient_canonical_weight(KRONECKER_3, t, TestEmptyType.NONE),
            lambda t: stratum_canonical_weight(KRONECKER_3, t, TestEmptyType.NONE),
            lambda t: window_width(KRONECKER_3, t, TestEmptyType.NONE),
            lambda t: hom_bundle_weights(t, TestEmptyType.NONE, 1, 1),
            lambda t: stratum_report(KRONECKER_3, THETA_23, t),
        ],
        ids=[
            "HNType", "validate_hn_type", "pairing_table", "codimension",
            "codimension_cuts", "one_parameter_subgroup", "ambient_canonical_weight",
            "stratum_canonical_weight", "window_width", "hom_bundle_weights",
            "stratum_report",
        ],
    )
    def test_refused(self, call):
        for t in ([], ()):
            with pytest.raises(ValueError, match="^an HN type must have at least one piece$"):
                call(t)

    def test_hom_bundle_weights_checks_piece_lengths(self):
        sub = OneParameterSubgroup(2, (1, -1))
        with pytest.raises(ValueError, match="^HN type pieces must have equal length$"):
            hom_bundle_weights([(1, 0), (1, 1, 1)], sub, 1, 2)


class TestStratumReport:
    def test_golden_rows(self):
        for t, (codim, _slopes, scale, weights, max_bw, eta) in GOLDEN_UNSTABLE_23.items():
            rep = stratum_report(KRONECKER_3, THETA_23, t)
            assert rep.hn_type == t
            assert rep.codim == codim
            assert rep.subgroup.scale == scale
            assert rep.subgroup.weights == weights
            assert rep.max_bundle_weight == max_bw
            assert rep.window_width == eta
            assert rep.inequality_holds

    def test_plain_type_is_stored_checked(self):
        rep = stratum_report(KRONECKER_3, THETA_23, [(1, 0), (0, 1)])
        assert type(rep.hn_type) is HNType
        assert rep.hn_type == ((1, 0), (0, 1))

    def test_failing_stratum(self):
        rep = stratum_report(TRIANGLE_B, THETA_B, FAILING_B)
        assert rep.codim == 1
        assert rep.subgroup.scale == 12
        assert rep.subgroup.weights == (60, -5)
        assert rep.max_bundle_weight == 65
        assert rep.window_width == 65
        assert not rep.inequality_holds

    def test_dense_convention(self):
        rep = stratum_report(KRONECKER_3, THETA_23, HNType((D_23,)))
        assert rep.codim == 0
        assert rep.max_bundle_weight == 0
        assert rep.window_width == 0
        assert rep.inequality_holds

    def test_inequality_is_a_sum_over_cuts(self):
        # eta - (k_1 - k_l) = sum_r (k_r - k_{r+1}) (N_r - 1): the
        # identity the verdict DP minimizes over remainders
        for q, d, theta in all_instances():
            for t in enumerate_hn_types(q, d, theta):
                if len(t) == 1:
                    continue
                rep = stratum_report(q, theta, t)
                k = rep.subgroup.weights
                cuts = codimension_cuts(q, t)
                margin = sum((k[r] - k[r + 1]) * (cuts[r] - 1) for r in range(len(cuts)))
                assert margin == rep.window_width - rep.max_bundle_weight
                assert rep.inequality_holds == (margin > 0)

    def test_codimension_is_a_sum_over_pieces(self):
        # codim = sum_r -<d^r, rest_r - d^r>, rest_r = d^r + ... + d^l
        for q, d, theta in all_instances():
            for t in enumerate_hn_types(q, d, theta):
                if len(t) == 1:
                    continue
                assert stratum_report(q, theta, t).codim == sum(
                    -q.euler_pairing(t[r], _total(t[r + 1 :]))
                    for r in range(len(t) - 1)
                )

    def test_inequality_definition_on_unstable(self):
        for q, d, theta in all_instances():
            for t in enumerate_hn_types(q, d, theta):
                if len(t) == 1:
                    continue
                rep = stratum_report(q, theta, t)
                assert rep.inequality_holds == (
                    rep.max_bundle_weight < rep.window_width
                )


class TestVerdict:
    def test_kronecker(self):
        v = verdict(KRONECKER_3, D_23, THETA_23)
        assert v.coprime
        assert v.acyclic
        assert v.strongly_amply_stable
        assert v.amply_stable
        assert v.all_strata_inequality
        assert v.vanishing_certified
        assert v.rigidity_certified
        assert v.failing_strata == ()
        assert v.min_unstable_codim == 3

    def test_triangle_a(self):
        v = verdict(TRIANGLE_A, D_A, THETA_A)
        assert v.coprime and v.acyclic
        assert not v.strongly_amply_stable
        assert v.amply_stable
        assert v.min_unstable_codim == 2
        assert v.all_strata_inequality
        assert v.vanishing_certified and v.rigidity_certified

    def test_triangle_b(self):
        v = verdict(TRIANGLE_B, D_B, THETA_B)
        assert v.coprime and v.acyclic
        assert not v.strongly_amply_stable
        assert not v.amply_stable
        assert v.min_unstable_codim == 1
        assert not v.all_strata_inequality
        assert v.failing_strata == (FAILING_B,)
        assert not v.vanishing_certified
        assert not v.rigidity_certified

    def test_loop_quiver_vanishing_without_rigidity(self):
        v = verdict(JORDAN, DimensionVector((1,)), StabilityParameter((0,)))
        assert v.coprime
        assert not v.acyclic
        assert v.all_strata_inequality
        assert v.vanishing_certified
        assert not v.rigidity_certified

    def test_non_coprime_blocks_vanishing(self):
        v = verdict(
            Quiver.kronecker(2), DimensionVector((2, 2)), StabilityParameter((1, -1))
        )
        assert not v.coprime
        assert not v.vanishing_certified
        assert not v.rigidity_certified

    def test_flag_consistency(self):
        for q, d, theta in all_instances():
            v = verdict(q, d, theta)
            assert v.vanishing_certified == (v.coprime and v.all_strata_inequality)
            assert v.rigidity_certified == (v.vanishing_certified and v.acyclic)
            assert v.acyclic == q.is_acyclic
            assert v.all_strata_inequality == (len(v.failing_strata) == 0)
            unstable = [
                t for t in enumerate_hn_types(q, d, theta) if len(t) > 1
            ]
            for t in v.failing_strata:
                assert t in unstable
                assert not stratum_report(q, theta, t).inequality_holds
            if unstable:
                assert v.min_unstable_codim == min(
                    stratum_report(q, theta, t).codim for t in unstable
                )
                assert v.amply_stable == (v.min_unstable_codim >= 2)
            else:
                assert v.min_unstable_codim is None
                assert v.amply_stable

    def test_matches_reference(self, monkeypatch):
        batch = CORPUS + [
            (q, d, theta)
            for count, seeds in ((150, (7, 11, 23)), (300, (3, 17, 41, 101)))
            for seed in seeds
            for q, d, theta in random_instances(count, seed)
            if has_semistable(q, d, theta)
        ]
        for q, d in wide_instances(200, 5):
            theta = q.canonical_stability(d)
            if has_semistable(q, d, theta):
                batch.append((q, d, theta))
        builds = count_table_builds(monkeypatch)
        failing, branches = 0, Counter()
        for q, d, theta in batch:
            before = len(builds)
            v = verdict(q, d, theta)
            tables = len(builds) > before
            # the full tables are built exactly when a remainder has N = 0
            assert tables == has_zero_cut(q, d, theta)
            branches[tables, v.strongly_amply_stable] += 1
            assert v == reference_verdict(q, d, theta)
            failing += bool(v.failing_strata)
        # the batch exercises the failing-strata search, not just the flags,
        # and the best-first branch without a witness, the zero-cut rule
        # with one, and the full tables
        assert failing >= 10
        assert branches[False, True] >= 100 and branches[False, False] >= 100
        assert branches[True, False] >= 15 and branches[True, True] == 0

    def test_each_regime_matches_reference(self):
        # random instances at canonical theta, with few arrows so that both
        # sides of the choice list failing strata: the zero-cut rule when
        # no remainder has N = 0, the full tables when one does
        rng = random.Random(31)
        failing = Counter()
        for _ in range(400):
            n = rng.randint(2, 3)
            q = Quiver(n, [(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(1, 3))])
            d = DimensionVector(rng.randint(1, 4) for _ in range(n))
            theta = q.canonical_stability(d)
            if has_semistable(q, d, theta):
                v = verdict(q, d, theta)
                assert v == reference_verdict(q, d, theta), (q, d)
                failing[has_zero_cut(q, d, theta)] += bool(v.failing_strata)
        assert failing[False] >= 20 and failing[True] >= 5, failing

    def test_zero_cut_rule_keys_few_tables(self, monkeypatch):
        # under the zero-cut rule a verdict never fills the whole box and
        # builds tables at 0, d and the N = 1 remainders alone, and builds
        # none with no N = 1 remainder, as without a witness (lemma (a)).
        # Its pieces are the semistable differences rest - tail of two of
        # those with tail <= rest.  With an N = 0 remainder it fills the box
        # and builds the full tables at every remainder with theta < 0 and
        # N >= 0.  Either way a table with no entry gets no key, save d's
        fills, keys, built, pieces = [], [], [], []
        fill_whole, build = quivermoduli.hn._fill_whole, quivermoduli.hn._Tables._build

        def spy_fill(table, box):
            fills.append(box[-1])
            fill_whole(table, box)

        def spy_build(self, cuts, numbers):
            tables = build(self, cuts, numbers)
            keys.append(set(cuts))
            built.append(set(tables))
            pieces.append(numbers)
            return tables

        monkeypatch.setattr(quivermoduli.hn, "_fill_whole", spy_fill)
        monkeypatch.setattr(quivermoduli.hn._Tables, "_build", spy_build)
        specs = [load_problem(str(path)) for path in sorted(GOLDEN.glob("*.json"))]
        instances = [(s.quiver, s.d, s.theta) for s in specs]
        a3 = Quiver(3, [(1, 2), (2, 3)])
        instances.append((a3, DimensionVector((3, 3, 3)), a3.canonical_stability((3, 3, 3))))
        # three N = 1 remainders, two of them not <= one another, whose
        # difference as numbers is a semistable vector that is no piece here
        q = Quiver(3, [(1, 3), (2, 3), (1, 3)])
        instances.append((q, DimensionVector((4, 2, 2)), q.canonical_stability((4, 2, 2))))
        seen = Counter()
        for q, d, theta in instances:
            vectors = subdimension_vectors(d)
            cuts = {r: -q.euler_pairing(d - rest, rest)
                    for r, rest in enumerate(vectors) if theta.dot(rest) < 0}
            ends = {0, len(vectors) - 1}
            fills.clear()
            keys.clear()
            built.clear()
            pieces.clear()
            v = verdict(q, d, theta)
            seen[0 in cuts.values(), v.strongly_amply_stable, bool(keys)] += 1
            for asked, found in zip(keys, built):
                assert ends <= found <= ends | asked
            if 0 in cuts.values():
                assert fills and keys == [{r for r, n in cuts.items() if n >= 0}]
                continue
            ones = {r for r, n in cuts.items() if n == 1}
            assert fills == [] and keys == ([ones] if ones else [])
            if ones:
                rests = [vectors[r] for r in ends | ones]
                differences = {a - b for a in rests for b in rests if a != b and b.leq(a)}
                assert pieces == [[r for r, e in enumerate(vectors)
                                   if e in differences and has_semistable(q, e, theta)]]
        # goldens without a witness, four with one under the zero-cut rule
        # (triangle A and B, K2 (60,61), (4,2,2)), and two with the full
        # tables (A3 with single arrows at (10,10,10) and (3,3,3))
        assert seen[False, True, False] >= 7
        assert seen[False, False, True] >= 4 and seen[True, False, True] == 2

    def test_failing_strata_in_lexicographic_order(self):
        # two failing types share a first piece, so the search has to
        # order sibling branches as well as first pieces
        q = Quiver(3, [(3, 2), (2, 2), (2, 1)])
        d, theta = DimensionVector((3, 3, 3)), StabilityParameter((-1, 0, 1))
        v = verdict(q, d, theta)
        assert v.failing_strata == (
            HNType(((0, 0, 1), (2, 3, 2), (1, 0, 0))),
            HNType(((0, 0, 1), (3, 3, 2))),
            HNType(((2, 3, 3), (1, 0, 0))),
        )
        assert v == reference_verdict(q, d, theta)

    @settings(max_examples=80, deadline=None)
    @given(semistable_instances())
    def test_matches_reference_generated(self, instance):
        q, d, theta = instance
        assert verdict(q, d, theta) == reference_verdict(q, d, theta)

    def test_never_enumerates_types(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("verdict must not enumerate the HN types")

        monkeypatch.setattr(quivermoduli.hn, "enumerate_hn_types", refuse)
        monkeypatch.setattr(quivermoduli.windows, "enumerate_hn_types", refuse, raising=False)
        monkeypatch.setattr(quivermoduli.windows, "stratum_report", refuse)
        assert verdict(KRONECKER_3, D_23, THETA_23).min_unstable_codim == 3
        assert verdict(TRIANGLE_A, D_A, THETA_A).min_unstable_codim == 2
        assert verdict(TRIANGLE_B, D_B, THETA_B).failing_strata == (FAILING_B,)

    def test_strongly_amply_stable_builds_no_table(self, monkeypatch):
        def refuse(self, build):
            raise AssertionError("a verdict with no N = 0 remainder must not build the full tables")

        replace_table_stage(monkeypatch, refuse)
        theta = KRONECKER_3.canonical_stability(D_23)
        golden_23 = min(codim for codim, *_ in GOLDEN_UNSTABLE_23.values())
        assert verdict(KRONECKER_3, D_23, theta).min_unstable_codim == golden_23
        spec = load_problem(str(GOLDEN / "K3-20-21.json"))
        out = (GOLDEN / "K3-20-21.out").read_text()
        golden = int(re.search(r"smallest unstable stratum codimension (\d+)", out)[1])
        assert verdict(spec.quiver, spec.d, spec.theta).min_unstable_codim == golden

        # so does one with a witness when no remainder has N = 0 (the
        # zero-cut rule); with an N = 0 remainder the verdict falls back to
        # the full tables
        assert verdict(TRIANGLE_B, D_B, THETA_B).failing_strata == (FAILING_B,)
        builds = count_table_builds(monkeypatch)
        q, d = Quiver(3, [(1, 2), (2, 3)]), DimensionVector((3, 3, 3))
        theta = q.canonical_stability(d)
        assert has_zero_cut(q, d, theta)
        assert verdict(q, d, theta) == reference_verdict(q, d, theta)
        assert len(builds) == 1

    def test_strongly_amply_stable_tests_few_pieces(self, monkeypatch):
        # the lean pass tests d alone, and the search only the pieces of
        # the edges it pops: 3 tests in all on every golden below, against
        # one per nonzero e <= d (461 at K3 (20,21)) when every piece was
        # tested up front
        semistable = quivermoduli.hn._semistable
        tested = []
        monkeypatch.setattr(
            quivermoduli.hn, "_semistable", lambda *args: tested.append(args) or semistable(*args)
        )
        strong = 0
        for path in sorted(GOLDEN.glob("*.json")):
            spec = load_problem(str(path))
            tested.clear()
            if verdict(spec.quiver, spec.d, spec.theta).strongly_amply_stable:
                strong += 1
                assert 1 <= len(tested) <= 5, (path.name, len(tested))
        assert strong >= 7

    def test_fallback_tests_each_piece_once(self, monkeypatch):
        # with a strong failure witness, least_codim and the tables share
        # one piece memo, so no vector is tested twice: at most one test
        # per nonzero e <= d (49 and 97 here), against 54 and 103 when the
        # tables tested again what the search had tested
        semistable = quivermoduli.hn._semistable
        tested = []
        monkeypatch.setattr(
            quivermoduli.hn, "_semistable", lambda *args: tested.append(args) or semistable(*args)
        )
        for name, nonzero in (("triangle-A", 49), ("triangle-B", 97)):
            spec = load_problem(str(GOLDEN / f"{name}.json"))
            tested.clear()
            assert verdict(spec.quiver, spec.d, spec.theta).strong_failure_witness is not None
            assert len({args[1] for args in tested}) == len(tested) <= nonzero, name

    def test_rejects_nonzero_theta_d(self):
        with pytest.raises(ValueError):
            verdict(KRONECKER_3, D_23, StabilityParameter((1, 1)))

    def test_rejects_zero_d(self):
        with pytest.raises(ValueError, match="nonzero dimension vector"):
            verdict(KRONECKER_3, DimensionVector((0, 0)), THETA_23)

    def test_rejects_non_integral_d(self):
        with pytest.raises(ValueError, match="integers"):
            verdict(KRONECKER_3, [2.9, 3], [3, -2])

    def test_rejects_empty_semistable_locus(self):
        with pytest.raises(ValueError, match=r"dimension \(2,1\) exists"):
            verdict(
                Quiver.kronecker(1), DimensionVector((2, 1)), StabilityParameter((1, -2))
            )


class TestModuliDimension:
    def test_examples(self):
        assert moduli_dimension(KRONECKER_3, D_23) == 6
        assert moduli_dimension(TRIANGLE_B, D_B) == 6
        assert moduli_dimension(TRIANGLE_A, D_A) == 8

    def test_point_cases(self):
        assert moduli_dimension(Quiver(1, []), DimensionVector((1,))) == 0
        assert moduli_dimension(JORDAN, DimensionVector((1,))) == 1


class TestStable:
    """`Verdict.stable` against the brute force: the general representation
    is stable iff theta(f) < 0 for every generic 0 < f < d."""

    @staticmethod
    def brute_force(q, d, theta):
        return all(
            theta.dot(f) < 0
            for f in reference_generic_subdimension_vectors(q, d)
            if not f.is_zero() and f != d
        )

    def test_matches_brute_force(self):
        batch = [
            (q, d, theta)
            for q, d, theta in CORPUS + random_instances(300, seed=29)
            if has_semistable(q, d, theta)
        ]
        seen = Counter()
        for q, d, theta in batch:
            stable = verdict(q, d, theta).stable
            assert stable == self.brute_force(q, d, theta), (q, d, theta)
            # whether a proper multiple of d / gcd(d) is generic: the second
            # part of the test, where the first reads the rays off d's line
            on_line = any(
                0 < sum(f) < sum(d) and all(x * sum(d) == y * sum(f) for x, y in zip(f, d))
                for f in reference_generic_subdimension_vectors(q, d)
            )
            seen[stable, on_line] += 1
        assert seen[True, False] >= 50
        assert seen[False, True] >= 20 and seen[False, False] >= 10

    @pytest.mark.parametrize("q, d", [
        (Quiver(3, [(1, 2), (2, 3)]), (10, 10, 10)),  # Dynkin A3, where 1 - <d,d> = -99
        (Quiver.kronecker(2), (2, 2)),  # (1,1) is generic with theta = 0
        (Quiver.kronecker(2), (1, 1)),  # stable, with gcd 1
        (Quiver(1, []), (2,)),  # a semisimple point
    ])
    def test_examples(self, q, d):
        d = DimensionVector(d)
        theta = q.canonical_stability(d)
        assert verdict(q, d, theta).stable == self.brute_force(q, d, theta)
        assert verdict(q, d, theta).stable == (d == (1, 1))
