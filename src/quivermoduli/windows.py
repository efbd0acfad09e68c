"""Quantization-window weights and the vanishing/rigidity certificates.

For each unstable HN stratum, the attached one-parameter subgroup acts
on the determinants of the canonical bundles of the ambient
representation space and of the stratum; the difference of the two
weights is the window width.  Writing k for the subgroup weights and
d^1, ..., d^l for the type,

    ambient weight   sum_{m<n} (k_n - k_m) (<d^m,d^n> - <d^n,d^m>)
    stratum weight   sum_{m<n} (k_m - k_n) <d^n,d^m>
    window width     sum_{m<n} (k_n - k_m) <d^m,d^n>

so ambient = width + stratum.  All three, and the codimension, are
sums over one table of the pairings <d^m,d^n> (`hn.pairing_table`),
evaluated once per stratum.  The stratum passes the weight
inequality when k_1 - k_l < width.  The subgroup's weights on End(U),
U the universal bundle, are the k_m - k_n (`hom_bundle_weights`), at
most k_1 - k_l, so the inequality puts all of them inside the window
of the stratum.  If every unstable stratum passes and theta is coprime
to d, Teleman quantization gives H^{>0}(M, End U) = 0 on the moduli
space M; with an acyclic quiver this yields rigidity, H^1(M, T_M) = 0.
A failed inequality only withholds the certificate, it does not
disprove vanishing.

`verdict` decides the inequality on every unstable stratum without
listing the HN types, whose number grows exponentially with d.  Write
rest_r = d^{r+1} + ... + d^l for the remainder after r pieces and
N_r = -<d - rest_r, rest_r> for the codimension of the cut there
(`hn.codimension_cuts`).  Then k_m - k_n telescopes over the cuts
between m and n, and

    width - (k_1 - k_l) = sum_r (k_r - k_{r+1}) (N_r - 1),

so with k = C mu a stratum fails iff sum_r (mu_r - mu_{r+1}) (N_r - 1)
<= 0.  Each term depends only on the state (rest_r, mu_r) and the next
piece, so the least such sum over all types is a minimum-path value

    F(rest, mu) = min over semistable e <= rest with mu(e) < mu of
                  (mu - mu(e)) (N(rest) - 1) + F(rest - e, mu(e)),

with F(0, .) = 0; some stratum fails iff F(d - e, mu(e)) <= 0 for a
first piece e != d.  The codimension sum_r -<d^r, rest_r> is the same
recursion G with edge weight -<e, rest - e>, and its minimum is the
smallest unstable codimension.  Every remainder rest_r with 0 < r < l
has theta(rest_r) < 0, by the lemma in the `hn._Tables` docstring, so
F and G are needed only at states whose remainder is 0 or has
theta < 0, and F only where it also has N >= 0 (lemma (c) below).
The edge term of F is
mu (N(rest) - 1) - mu(e) (N(rest) - 1), so one table for d and for
each such remainder, keyed by number, and none for any other
remainder (a piece whose tail has no table is skipped), keeping only
the pieces e that complete to a type, each with F at its state
(rest - e, mu(e)), and with prefix minima over them in slope order,
answers every bound mu by bisection: the cost is
O(remainders x pieces), polynomial in d.
Slopes are scaled to integers, so all of it is exact.  `hn._Tables`
holds those tables (its docstring has their layout) and the one search
over them that also lists every type for `hn.enumerate_hn_types`.  Its
lean pass over the e <= d, which runs before any table and tests
only d for semistability, also yields the instance flags: coprime
when no 0 < e < d has theta(e) = 0, and strongly amply stable when
N(d - e) - 1 >= 1, i.e. <e, d - e> <= -2, for every e with
theta(e) > 0.

The full tables are built only when some remainder with theta < 0 has
N = 0, and G never needs one.  Three lemmas:

(c) Every cut of an HN type has N_r >= 0.  Proof: N_r is the sum of
-<d^m, d^n> over m <= r < n.  For semistable M, N with mu(M) > mu(N),
Hom(M, N) = 0 (King 1994), so -<d^m, d^n> = dim Ext(M, N) >= 0 for
semistable M, N of dimensions d^m, d^n.  So F needs no state whose
remainder has N < 0: the full tables skip those remainders.  And if no
remainder with theta < 0 has N = 0 (the zero-cut rule), every cut of a
type has N_r >= 1, so every term (mu_r - mu_{r+1}) (N_r - 1) is >= 0,
and a stratum fails iff N_r = 1 at every cut.  The failing types are
then the paths from d to the zero remainder through N = 1 remainders
alone, each step a piece: a DP keyed at 0, d and those remainders,
whose pieces are the differences rest - tail of two keys with
tail <= rest, with F = 0 at every state.  It tests only those
differences, not every e <= d.  Which rule applies depends only on the
instance.

(a) A strongly amply stable instance has no failing stratum: the
zero-cut rule with no N = 1 remainder.  Proof: each cut's remainder
rest_r has theta < 0, so rest_r = d - e with
theta(e) = -theta(rest_r) > 0, and N_r = -<e, d - e> >= 2 by strong
ample stability.  So no remainder with theta < 0 has N <= 1, the
zero-cut DP is keyed at 0 and d alone, and its only path is the
dense type (d).

(b) The least unstable codimension is a shortest path that Dijkstra's
search (1959) finds from d, over the states (rest, mu), with the edges
of G: a piece e <= rest of slope below mu (e != d at the root) whose
tail rest - e is 0 or has theta < 0, of weight -<e, rest - e>.  Proof:
a path from d to the zero remainder is a list of pieces of strictly
decreasing slope summing to d, so it is a genuine HN type and its
length is that type's codimension; every type is such a path.  If a
state (rest - e, mu(e)) completes, by pieces d^n of slope below mu(e),
the edge into it is sum_n -<e, d^n>.  For semistable M, N with
mu(M) > mu(N), Hom(M, N) = 0 (King 1994), so <e, d^n> = -dim Ext <= 0
and the edge is >= 0.  Every state on a path to the zero remainder
completes, so the shortest path to any such state uses only edges
>= 0; an edge into a state that does not complete may be negative, but
no path through it reaches the zero remainder.  Dijkstra's argument
then holds for the states that complete: each is popped at its least
distance, and the first zero remainder popped is the least
codimension.  The proof does not use strong ample stability, so every
verdict takes the least codimension from this search, and no table.
The search tests whether e is a piece only when it pops the edge, and
drops the edge if not.  An edge's validity depends only on e, so
testing it at pop runs Dijkstra on the same graph as testing it at
push.  A strongly amply stable verdict thus tests d and the vectors of
the edges it pops: 3 tests in all on every such golden instance in
`tests/golden`, which have up to 2,651 nonzero e <= d.

For the failing types the search over the tables, the full ones or
the zero-cut ones, enters a branch only when its partial sum plus F of
its state is <= 0; each branch entered ends in a failing type, so the
search costs in proportion to the failures and returns them sorted.
`stratum_report` is the per-stratum view `qt strata` prints.
"""

from __future__ import annotations

from collections import Counter
from operator import index
from typing import NamedTuple

from .core import DimensionVector, Quiver, StabilityParameter
from .hn import (
    HNType,
    OneParameterSubgroup,
    _Tables,
    one_parameter_subgroup,
    pairing_table,
    table_codimension,
)


def _require_weights(pieces: int, k: tuple[int, ...]) -> None:
    if len(k) != pieces:
        raise ValueError(f"subgroup has {len(k)} weights for a type with {pieces} pieces")


def _window_weights(table: list[list[int | None]], k: tuple[int, ...]) -> tuple[int, int]:
    """(stratum weight, window width) from the pairing table and weights k."""
    _require_weights(len(table), k)
    stratum = width = 0
    for m, row in enumerate(table):
        for n in range(m + 1, len(k)):
            gap = k[m] - k[n]
            width -= gap * row[n]
            stratum += gap * table[n][m]
    return stratum, width


def ambient_canonical_weight(q: Quiver, t: HNType, sub: OneParameterSubgroup) -> int:
    """Weight of the canonical bundle of the representation space."""
    return sum(_window_weights(pairing_table(q, t), sub.weights))


def stratum_canonical_weight(q: Quiver, t: HNType, sub: OneParameterSubgroup) -> int:
    """Weight of the canonical bundle of the stratum."""
    return _window_weights(pairing_table(q, t), sub.weights)[0]


def window_width(q: Quiver, t: HNType, sub: OneParameterSubgroup) -> int:
    """Weight of the determinant of the conormal bundle of the stratum.

    Equals ambient_canonical_weight - stratum_canonical_weight.
    """
    return _window_weights(pairing_table(q, t), sub.weights)[1]


def hom_bundle_weights(
    t: HNType, sub: OneParameterSubgroup, i: int, j: int
) -> Counter:
    """Subgroup weights on the hom bundle between vertices i and j.

    Weight k_m - k_n occurs with multiplicity d^m_i * d^n_j; the result
    maps weight -> multiplicity and totals d_i * d_j.  Vertices are
    1-based.
    """
    t = HNType(t)
    length = len(t[0])
    try:
        i, j = index(i), index(j)
    except TypeError:
        raise ValueError(f"vertices must be integers, got ({i!r}, {j!r})") from None
    if not (1 <= i <= length and 1 <= j <= length):
        raise ValueError(f"vertex pair ({i}, {j}) out of range for {length} vertices")
    k = sub.weights
    _require_weights(len(t), k)
    out: Counter = Counter()
    for m in range(len(t)):
        for n in range(len(t)):
            mult = t[m][i - 1] * t[n][j - 1]
            if mult:
                out[k[m] - k[n]] += mult
    return out


class StratumReport(NamedTuple):
    """Weight data deciding the inequality on a single stratum."""

    hn_type: HNType
    subgroup: OneParameterSubgroup
    codim: int
    ambient_canonical_weight: int
    stratum_canonical_weight: int
    window_width: int
    max_bundle_weight: int
    inequality_holds: bool


def stratum_report(q: Quiver, theta: StabilityParameter, t: HNType) -> StratumReport:
    """Full weight report for one stratum.

    The dense stratum (a single piece) passes by convention: there is
    nothing to quantize away.  t is checked as an `HNType` unless it is
    one already, and stored as one.
    """
    if type(t) is not HNType:
        t = HNType(t)
    sub = one_parameter_subgroup(theta, t)
    table = pairing_table(q, t)
    stratum, width = _window_weights(table, sub.weights)
    max_bw = sub.weights[0] - sub.weights[-1]
    return StratumReport(
        hn_type=t,
        subgroup=sub,
        codim=table_codimension(table),
        ambient_canonical_weight=width + stratum,
        stratum_canonical_weight=stratum,
        window_width=width,
        max_bundle_weight=max_bw,
        inequality_holds=True if len(t) == 1 else max_bw < width,
    )


class Verdict(NamedTuple):
    """Certificate summary for one (quiver, d, theta) instance.

    `strong_failure_witness` is the lexicographically smallest e that
    breaks strong ample stability, or None when it holds.  `stable` says
    whether a theta-stable representation of dimension d exists, so that
    the moduli space of stable ones has dimension `moduli_dimension`.
    """

    coprime: bool
    acyclic: bool
    strongly_amply_stable: bool
    strong_failure_witness: DimensionVector | None
    amply_stable: bool
    all_strata_inequality: bool
    vanishing_certified: bool
    rigidity_certified: bool
    failing_strata: tuple[HNType, ...]
    min_unstable_codim: int | None
    stable: bool


def verdict(q: Quiver, d: DimensionVector, theta: StabilityParameter) -> Verdict:
    """Decide the vanishing and rigidity certificates.

    vanishing_certified = coprime and every unstable stratum passes the
    weight inequality; rigidity_certified additionally needs an acyclic
    quiver.  amply_stable means every unstable stratum has codimension
    at least 2.  Requires theta(d) = 0 and a nonempty semistable locus.
    The strata are decided as the module docstring says, never by
    enumerating the HN types: the least codimension by the best-first
    search of lemma (b), the failing strata by the min-path DP over the
    N = 1 remainders under the zero-cut rule of lemma (c), and over
    every remainder with N >= 0 when one has N = 0.  Without a witness,
    d and the vectors of the edges the search pops are the only e <= d
    tested for semistability (lemma (a)).  `stable` holds iff no generic
    0 < f < d has theta(f) = 0 (`hn._Tables.stable`).
    """
    tables = _Tables(q, d, theta, "verdict")
    d = tables.d
    if not tables.semistable:
        raise ValueError(
            "no semistable representation of dimension "
            f"({','.join(map(str, d))}) exists"
        )
    min_codim = tables.least_codim()
    failing = tables.failing_strata()
    vanishing = tables.coprime and not failing
    return Verdict(
        coprime=tables.coprime,
        acyclic=q.is_acyclic,
        strongly_amply_stable=tables.strong_failure_witness is None,
        strong_failure_witness=tables.strong_failure_witness,
        amply_stable=min_codim is None or min_codim >= 2,
        all_strata_inequality=not failing,
        vanishing_certified=vanishing,
        rigidity_certified=vanishing and q.is_acyclic,
        failing_strata=failing,
        min_unstable_codim=min_codim,
        stable=tables.stable(),
    )


def moduli_dimension(q: Quiver, d: DimensionVector) -> int:
    """Dimension 1 - <d, d> of the moduli space of theta-stable
    representations of dimension d, when one exists (`Verdict.stable`);
    if theta is coprime to d, every semistable one is stable."""
    d = q._vertex_tuple(d, DimensionVector)
    return 1 - q.euler_pairing(d, d)
