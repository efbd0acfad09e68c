"""Harder-Narasimhan types and the stratification they index.

Every representation of dimension d has a unique filtration whose
subquotients are semistable of strictly decreasing slope; the tuple of
their dimension vectors is its HN type.  The locus of representations
with a fixed type t = (d^1, ..., d^l) is a locally closed stratum of
codimension sum_{m<n} -<d^m, d^n>.  The type (d) itself indexes the
dense semistable stratum, present exactly when a semistable
representation exists.

Each stratum carries a distinguished one-parameter subgroup acting
blockwise with integer weights k_m = C * mu(d^m), C minimal; the weight
vector is all later weight computations need, so the subgroup is never
materialized as a group element.

The types are listed by one depth-first search over the states
(remainder, slope bound).  It runs on `_Tables`, the one object built
per (q, d, theta) that `enumerate_hn_types` and `windows.verdict` both
read: the pieces, and for every remainder an HN type of d can leave
(d itself and each rest <= d with theta(rest) < 0 whose cut
codimension N(rest) = -<d - rest, rest> is >= 0) one entry per
piece e <= rest that completes to a type, that is whose tail rest - e
is zero or has a type with every slope below mu(e).  The remainders
are numbered by their place in `subdimension_vectors(d)`, a
mixed-radix number linear in the vector, so the tables form a dict
keyed by number and a tail's number is the difference of two
numbers.  Each entry carries the value of the DP F (derived in the
`windows` module docstring) at its tail, and each table the prefix
minima of those values in slope order.  Every entry completes, so
`enumerate_hn_types` enters them all; `verdict` enters only those
that can still fail the weight inequality.  The tables are built on
first use, and a verdict builds them only when some remainder has
N = 0: otherwise a stratum fails iff every cut has N = 1, and smaller
tables at those remainders alone list the failing strata.  The
least codimension of an unstable type needs no table either: a
best-first search from d finds it, and tests for semistability only
the pieces of the edges it pops.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property, reduce
from heapq import heapify, heappop, heappush
from itertools import accumulate, compress, repeat
from math import gcd, lcm
from operator import and_, itemgetter, le, mul
from typing import NamedTuple

from .core import (
    DimensionVector,
    Quiver,
    StabilityParameter,
    _box_weights,
    slope,
)
from .semistability import (
    _below_masks,
    _box,
    _fill_whole,
    _memo,
    _semistable,
    has_semistable,
)


class HNType(tuple):
    """An ordered tuple of nonzero dimension vectors.

    Construction rejects empty tuples and zero pieces; the slope and
    semistability conditions depend on (quiver, theta) and are
    guaranteed by `enumerate_hn_types`, or checked explicitly with
    `validate_hn_type`.
    """

    def __new__(cls, pieces):
        t = super().__new__(cls, (DimensionVector(p) for p in pieces))
        if not t:
            raise ValueError("an HN type must have at least one piece")
        length = len(t[0])
        for p in t:
            if len(p) != length:
                raise ValueError("HN type pieces must have equal length")
            if p.is_zero():
                raise ValueError("HN type pieces must be nonzero")
        return t

    @classmethod
    def _trusted(cls, pieces) -> HNType:
        """Wrap nonzero, equal-length `DimensionVector`s, unchecked."""
        return super().__new__(cls, pieces)

    def total(self) -> DimensionVector:
        return DimensionVector(map(sum, zip(*self)))


def validate_hn_type(
    q: Quiver,
    theta: StabilityParameter,
    t: HNType,
    d: DimensionVector | None = None,
) -> None:
    """Raise ValueError unless t is a genuine HN type (for d, if given):
    strictly decreasing slopes and every piece admitting a semistable
    representation.  t may be any sequence of vectors."""
    t = HNType(t)
    if d is not None and t.total() != DimensionVector(d):
        raise ValueError(f"HN type sums to {tuple(t.total())}, expected {tuple(d)}")
    _decreasing_slopes(theta, t)
    for p in t:
        if not has_semistable(q, p, theta):
            raise ValueError(f"piece {tuple(p)} admits no semistable representation")


def _decreasing_slopes(theta: StabilityParameter, t: HNType) -> list:
    """The slopes of t's pieces, once they are strictly decreasing; theta
    is checked unless it is a `StabilityParameter`."""
    if type(theta) is not StabilityParameter:
        theta = StabilityParameter(theta)
    slopes = [slope(theta, p) for p in t]
    if any(a <= b for a, b in zip(slopes, slopes[1:])):
        raise ValueError("HN type slopes must be strictly decreasing")
    return slopes


def enumerate_hn_types(
    q: Quiver, d: DimensionVector, theta: StabilityParameter
) -> tuple[HNType, ...]:
    """All HN types for (q, d, theta), in lexicographic order.

    Requires d nonzero and theta(d) = 0.  This is the search entering
    every branch: each branch it enters completes to a type, so the cost
    follows types x depth, and no tail is stored.  The count grows
    exponentially with d; `windows.verdict` never enumerates them.
    """
    t = _Tables(q, d, theta, "enumerate_hn_types")
    return t.search(lambda e, low: True, t.tables)


def is_strongly_amply_stable(
    q: Quiver, d: DimensionVector, theta: StabilityParameter
) -> tuple[bool, DimensionVector | None]:
    """Check <e, d-e> <= -2 for every e with mu(e) > mu(d-e).

    With theta(d) = 0, mu(e) > mu(d-e) exactly when theta(e) > 0, which
    leaves out e = 0 and e = d.  Returns (True, None) or (False, w) with
    w the lexicographically smallest violating vector, from the verdict's
    lean pass.  This condition is sufficient for the weight inequality
    on every unstable stratum, but not necessary.
    """
    d = q._vertex_tuple(d, DimensionVector)
    theta = q._vertex_tuple(theta, StabilityParameter)
    if not any(d):
        return True, None  # no e has theta(e) > 0
    w = _Tables(q, d, theta, "is_strongly_amply_stable").strong_failure_witness
    return w is None, w


def _dot(a: tuple, b: tuple) -> int:
    return sum(map(mul, a, b))


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _bits(mask: int) -> bytes:
    """The binary digits of mask, lowest first, as the bytes 0 and 1:
    `compress(items, _bits(mask))` yields items[k] for each set bit k."""
    return bin(mask)[:1:-1].encode().translate(_BIT_BYTES)


class _Tables:
    """The verdict flags of (q, d, theta), and the DP tables over the
    remainders, in two stages.  The constructor is the lean pass every
    verdict runs: the vectors e <= d, their theta weights, c at each
    remainder (`cuts`), `coprime` and `strong_failure_witness`; it tests
    no e for semistability and fills no ray.  `semistable`, which says
    whether d itself is a piece, tests d on first read.  The table stage
    builds the full tables on the first read of `tables`, which
    `enumerate_hn_types` makes, and `failing_strata` with an N = 0
    remainder: it tests every e <= d, then runs the table loop
    (`_build`).  `failing_strata` runs the same loop on the zero-cut
    tables instead when it can, which test only the differences of the
    N = 1 remainders.  `least_codim` reads no table, and tests only the
    pieces of the edges it pops.  All of them test through `is_piece`,
    which keeps each answer by number, so no vector is tested twice.

    A piece is a nonzero e <= d admitting a semistable representation;
    in the tables its slope s is scaled by the lcm of the piece sizes to
    an integer.

    Each e <= d is numbered by its place in the lexicographic list of
    the vectors 0 <= e <= d, zero first and d last.  The number is the
    mixed-radix value sum_j e_j prod_{k>j} (d_k + 1), linear in e: if
    rest is numbered r and a piece e <= rest is numbered i, the tail
    rest - e is numbered r - i, and d - rest is the (r+1)-th vector from
    the end.

    Only the remainders an HN type of d can leave get a table.  Lemma:
    if (d^1, ..., d^l) is an HN type of some v and 0 < r < l, the
    remainder rest = d^{r+1} + ... + d^l has mu(rest) < mu(v).  Proof:
    the prefix v - rest has a slope that is a weighted mean of
    mu(d^1), ..., mu(d^r), all >= mu(d^r), and mu(rest) is a weighted
    mean of mu(d^{r+1}), ..., mu(d^l), all <= mu(d^{r+1}) < mu(d^r);
    so mu(rest) < mu(v - rest), and mu(v) lies between the two.  With
    theta(d) = 0 every remainder of a type of d has theta(rest) < 0.
    Lemma (c) below prunes further: every remainder of a type of d has
    N >= 0.  So `tables` is a dict with one key r for each of rest = 0,
    rest = d and every rest with theta(rest) < 0 and N(rest) >= 0 (the
    keys of `cuts` with c >= -1) whose table has an entry, and no other.
    A piece e <= rest whose tail rest - e has no key is skipped: by the
    two lemmas, or as the tail has no type, it completes to no type of d
    through rest.  So at every state the search reaches
    from d, whose completions are the ends of types of d, each table and
    each F equal those the unrestricted DP would build.

    tables[r], for the remainder rest numbered r, is
    (c, slopes, best_f, entries): c = N(rest) - 1 with
    N(rest) = -<d - rest, rest>, but c = 0 at d, as no cut comes before
    a first piece; `entries` one (e, s, t, f) for each
    piece e <= rest that completes to a type, in ascending slope order,
    ties in lexicographic order, with t the number of the tail rest - e
    and f = F(tail, s); `slopes` their s; best_f[i] the minimum of
    f - s c over the first i+1 entries.  A remainder whose table would
    be empty, as when every type of it has a remainder with N < 0, gets
    no key: the search never reaches it.  d's table has an entry, the
    first piece of any HN type of d.  tables[0], the zero remainder,
    has no entries and holds the DP's base case F = 0:
    c = 0 and one slope below every piece's, so every bound reads it.

    The tables are built in ascending order of number, which puts every
    tail before rest: F at a tail state (t, s) is read off the
    finished tables[t] by bisection, and a piece with no slope of the
    tail below s does not complete and is dropped.  The pieces tried at
    rest are those e <= rest, a bitmask over the pieces in slope order
    (the AND of `_below_masks` over the coordinates of rest), read in
    bit order by `_bits`; a tail with no table costs one dict miss.
    The lean pass runs on plain int tuples with theta(e) computed once
    per e, by outer sums (`_box_weights`).  It looks the quiver's ray
    table up once, as `table`.  The cuts and the edges of `least_codim`
    read a vector's right form off its entry in `entries`.  That is
    `table` if it holds every e <= d, and otherwise (None, right form)
    for every e <= d, the forms built by outer sums: so no ray is read
    before `strong_failure_witness` is known, and a box held only in
    part (d's hom closure, as `has_semistable` at d leaves it) runs no
    closure pass per miss.  The tables test every e <= d, so `tables`
    fills the entry (rays, right form) of every e <= d before its first
    test, by `_fill_whole`: a box pass unless the table holds the whole
    box, and then a scan.  With an N = 0 remainder `semistable` does so
    first, before d's test, as the verdict will build the full tables.
    Otherwise d's test fills d's hom closure (the
    `semistability` module docstring), and a piece off the closure is
    filled when `least_codim` or the zero-cut tables test it.  `stable()`
    reads the rays of the e the table holds, as no other e is generic
    in d.  Only the pieces are wrapped as `DimensionVector`s, for the entries,
    unchecked: they come out of the box of a checked d.

    The flags: `coprime` says that no 0 < e < d has theta(e) = 0, as
    `is_theta_coprime` does, and `stable()` that no generic one does,
    which for a semistable d means that a theta-stable point exists; it
    scans the same e, none when coprime, and tests each for genericity
    off its rays.  `strong_failure_witness` is the first e in
    numbering order with theta(e) > 0 and <e, d - e> > -2, that is with
    c < 1 at the remainder d - e, or None; it is what
    `is_strongly_amply_stable` returns.  That remainder has
    theta = -theta(e) < 0, so it is one an HN type can leave.  The lean
    pass keeps c for each such remainder in `cuts`, and the table loop
    and the root edges of `least_codim`, of weight c + 1, read it there.

    Three lemmas (the `windows` module docstring has them in full) let
    `verdict` find the least codimension without a table, and the
    failing strata with the full tables only when a remainder has N = 0:
    (c) Every cut of an HN type of d has N >= 0.  N_r is the sum of
    -<d^m, d^n> over m <= r < n, and each is dim Ext between semistable
    pieces of decreasing slope, as Hom between them vanishes (King
    1994).  So the full tables skip the remainders with N < 0, and if
    no remainder with theta < 0 has N = 0, each term (mu_r - mu_{r+1}) c
    of the failure sum, at a remainder rest_r of a type, where
    mu_r > mu_{r+1} (the zero-cut rule), is >= 0: a stratum fails iff
    c = 0, N = 1, at every cut.  `failing_strata` then keys its tables
    at 0, d and the N = 1 remainders, with c = 0 at each, so F = 0 at
    every state, and the pieces are the differences rest - tail of two
    keys with tail <= rest, each tested through `is_piece`; no whole box
    is filled.  d is a piece then, so d's table has an entry: an
    unstable d's generic HN type has codimension 0, a sum of terms >= 0,
    so every cut of it has N = 0.
    (a) Without a witness no stratum fails: it is the zero-cut rule with
    no N = 1 remainder.  Each remainder rest_r has theta < 0 (the lemma
    above), so rest_r = d - e with theta(e) > 0, and with no witness
    c >= 1 there.  The zero-cut tables are keyed at 0 and d alone, and
    d's only entry is d itself, which no unstable type starts with.
    (b) With or without a witness, an edge of the search from d into a
    state (rest - e, mu(e)) that completes, by pieces d^n of slope below
    mu(e), has weight -<e, rest - e> = sum_n -<e, d^n> >= 0: Hom
    vanishes from a semistable of larger slope to one of smaller slope
    (King 1994), so <e, d^n> = -dim Ext <= 0.  A path to the zero
    remainder is a genuine HN type, and every state on it completes; an
    edge into a state that does not complete may be negative, but no
    path through it reaches the zero remainder.  So Dijkstra's search
    (1959), `least_codim`, pops the least codimension first.  An edge's
    validity depends only on e, so testing it at pop runs Dijkstra on
    the same graph as testing it at push.
    """

    def __init__(self, q: Quiver, d: DimensionVector, theta: StabilityParameter, caller: str):
        d = q._vertex_tuple(d, DimensionVector)
        theta = q._vertex_tuple(theta, StabilityParameter)
        if not any(d):
            raise ValueError(f"{caller} requires a nonzero dimension vector")
        if _dot(theta, d) != 0:
            raise ValueError(f"{caller} requires theta(d) = 0")
        self.d, self.theta = d, theta
        self.table = table = _memo[q]
        self.vectors = vectors = _box(d)
        self.weights = weights = _box_weights(theta, d)
        last = len(vectors) - 1

        # the cuts and `least_codim` read right forms off `entries`: the ray
        # table if it holds every e <= d, else (None, right form) per e, by
        # outer sums as right_form(e)_i = sum_j M_ij e_j is linear in e, so
        # that no ray is read before the witness is known
        held = all(map(table.__contains__, vectors))
        self.entries = entries = table if held else dict(
            zip(vectors, zip(repeat(None), zip(*(_box_weights(row, d) for row in q.euler_matrix))))
        )
        # c = N(rest) - 1 = -<d - rest, rest> - 1 at each rest with theta < 0,
        # d - rest being the (r+1)-th vector from the end
        self.cuts = cuts = {
            r: -_dot(vectors[last - r], entries[rest][1]) - 1
            for r, rest in enumerate(vectors) if weights[r] < 0
        }
        self.coprime = 0 not in weights[1:-1]
        # lemma (c): the zero-cut rule lists the failing strata unless some
        # remainder with theta < 0 has N = 0
        self.zero_cut = -1 not in cuts.values()
        self.strong_failure_witness = next(
            (DimensionVector._trusted(vectors[i]) for i in range(1, last)
             if weights[i] > 0 and cuts[last - i] < 1),
            None,
        )
        self.piece = {}  # number -> is that vector a piece, tested once

    @property
    def semistable(self) -> bool:
        """Whether d itself is a piece.  With an N = 0 remainder the failing
        strata need the full tables, which test every e <= d, so the whole
        box is filled first; otherwise testing a cold d fills d's hom
        closure."""
        if not self.zero_cut:
            _fill_whole(self.table, self.vectors)
        return self.is_piece(len(self.vectors) - 1)

    @cached_property
    def tables(self) -> dict[int, tuple]:
        """The full DP tables, built on first use; see the class docstring."""
        vectors = self.vectors
        _fill_whole(self.table, vectors)  # they test every e <= d
        cuts = {r: c for r, c in self.cuts.items() if c >= -1}  # lemma (c): N >= 0
        return self._build(cuts, [i for i in range(1, len(vectors)) if self.is_piece(i)])

    def failing_strata(self) -> tuple[HNType, ...]:
        """The unstable types that fail the weight inequality, in
        lexicographic order: by the zero-cut rule when it holds, else by
        the full tables.  Under the zero-cut rule the tables are built at
        0, d and the N = 1 remainders, with c = 0 at each, and their
        pieces are the differences rest - tail of two of those with
        tail <= rest; no other e <= d is tested.  With no N = 1
        remainder no table is built: d's would hold d alone."""
        d, vectors = self.d, self.vectors

        def keep(e, low):
            return low <= 0 and e != d

        if not self.zero_cut:
            return self.search(keep, self.tables)
        if 0 not in self.cuts.values():  # d's table would hold d alone, as in lemma (a)
            return ()
        ones = {r: 0 for r, c in self.cuts.items() if not c}
        keys = [0, *ones, len(vectors) - 1]
        # below[j][v] has bit k set iff the k-th key has rest_j <= v
        below = _below_masks(d, ((vectors[t], 1 << k) for k, t in enumerate(keys)))
        pieces = {
            r - t
            for r in keys
            for t in compress(keys, _bits(reduce(and_, map(list.__getitem__, below, vectors[r]))))
            if t != r
        }
        return self.search(keep, self._build(ones, [i for i in sorted(pieces) if self.is_piece(i)]))

    def _build(self, cuts: dict[int, int], pieces: list[int]) -> dict[int, tuple]:
        """The DP tables at 0, d and each remainder numbered in `cuts`, whose
        value is its c, that has an entry, over the pieces numbered in
        `pieces`, ascending; see the class docstring."""
        vectors, weights = self.vectors, self.weights
        pieces = [(DimensionVector._trusted(vectors[i]), weights[i], i) for i in pieces]
        scale = lcm(*{sum(e) for e, _, _ in pieces})
        by_slope = sorted(((e, w * (scale // sum(e)), i) for e, w, i in pieces), key=itemgetter(1))
        # below[j][v] has bit k set iff the k-th piece in slope order has e_j <= v
        below = _below_masks(self.d, ((e, 1 << k) for k, (e, _, _) in enumerate(by_slope)))
        tables = {0: (0, [by_slope[0][1] - 1], [0], [])}
        for r in (*cuts, len(vectors) - 1):  # ascending: the cuts were numbered in order
            c = cuts.get(r, 0)  # at d: no cut before a first piece
            entries, slopes, fs = [], [], []
            mask = reduce(and_, map(list.__getitem__, below, vectors[r]))
            for e, s, i in compress(by_slope, _bits(mask)):
                t = r - i
                tail = tables.get(t)
                if tail is None:
                    continue
                tail_c, tail_slopes, tail_f, _ = tail
                j = bisect_left(tail_slopes, s)
                if j:
                    f = s * tail_c + tail_f[j - 1]
                    entries.append((e, s, t, f))
                    slopes.append(s)
                    fs.append(f - s * c)
            if entries:  # an empty table reads as a missing key
                tables[r] = (c, slopes, list(accumulate(fs, min)), entries)
        return tables

    def least_codim(self) -> int | None:
        """The least codimension of an unstable type, by first piece e != d,
        without the tables: Dijkstra from d over the edges of lemma (b),
        each heap entry (g, r, i) an edge by the vector e numbered i into
        the remainder numbered r, g the length of the path through it.
        The root's edges are every e with theta(e) > 0, of weight c + 1
        at d - e.  A popped entry's e is tested for semistability then,
        once per number, and the entry dropped if e is no piece; otherwise
        a zero remainder returns g, and a state (r, mu(e)) seen before is
        skipped.  A state's edges are the e <= rest of slope below mu,
        slopes compared by cross multiplication, whose tail is 0 or has
        theta < 0, each of weight -<e, tail> = -e . right_form(tail), the
        form read off tail's entry in `entries`.  By lemma (b) the first
        zero remainder popped has the least codimension.
        """
        vectors, weights, entries = self.vectors, self.weights, self.entries
        last = len(vectors) - 1
        heap = [(c + 1, r, last - r) for r, c in self.cuts.items()]
        heapify(heap)
        seen = set()
        while heap:
            g, r, i = heappop(heap)
            if not self.is_piece(i):
                continue
            if not r:
                return g
            w, size = weights[i], sum(vectors[i])
            k = gcd(w, size)
            state = (r, w // k, size // k)
            if state in seen:
                continue
            seen.add(state)
            rest, floor = vectors[r], weights[r]
            for j in range(1, r + 1):
                e = vectors[j]
                if ((weights[j] > floor or j == r) and weights[j] * size < w * sum(e)
                        and all(map(le, e, rest))):
                    heappush(heap, (g - _dot(e, entries[vectors[r - j]][1]), r - j, j))
        return None

    def stable(self) -> bool:
        """Whether a theta-stable representation of dimension d exists, for
        a semistable d: one does unless some generic 0 < e < d has
        theta(e) = 0 (King 1994, Schofield 1992).  Each such e is tested as
        `_members` tests it, by Schofield's criterion read off e's rays in
        `table` against d's right form.  An e the table does not hold is
        off d's hom closure, which the table holds with d, so
        <e, d - e> < 0 and e is not generic.  With `coprime` there is no
        such e."""
        vectors, weights, table = self.vectors, self.weights, self.table
        form = table[self.d][1]
        return self.coprime or all(
            (entry := table.get(vectors[i])) is None or any(_dot(g, form) < ge for g, ge in entry[0])
            for i in range(1, len(vectors) - 1) if not weights[i]
        )

    def is_piece(self, i: int) -> bool:
        """Whether the vector numbered i admits a semistable
        representation, tested once per number for both stages."""
        piece = self.piece
        if i not in piece:
            piece[i] = _semistable(self.table, self.vectors[i], self.theta, self.weights[i])
        return piece[i]

    def search(self, keep, tables: dict[int, tuple]) -> tuple[HNType, ...]:
        """The HN types of d reached through children that `keep`
        accepts, in lexicographic order, over `tables`.

        Depth-first over the states (r, bound), r the number of the
        remainder, from d's number.  The children of a state are the
        entries of tables[r] of slope below bound (all of them at the
        root), a prefix found by bisection, tried in lexicographic order
        of e.  Every entry
        completes to a type, so a child e is entered iff keep(e, low)
        holds, low being the partial sum plus the entry's F: the least
        failure sum of the `windows` module docstring over the types that
        continue this branch.  For both callers every branch entered ends
        in at least one type.
        """
        out = []
        stack = [(len(self.vectors) - 1, 0, 0, ())]
        while stack:
            r, bound, partial, prefix = stack.pop()
            if not r:
                out.append(HNType._trusted(prefix))
                continue
            c, slopes, _, entries = tables[r]
            if prefix:
                entries = entries[: bisect_left(slopes, bound)]
            children = []
            for e, s, t, f in sorted(entries):
                total = partial + (bound - s) * c
                if keep(e, total + f):
                    children.append((t, s, total, prefix + (e,)))
            stack.extend(reversed(children))
        return tuple(out)


def pairing_table(q: Quiver, t: HNType) -> list[list[int | None]]:
    """Off-diagonal Euler pairings P[m][n] = <d^m, d^n> between the pieces.

    The diagonal is None: no stratum quantity reads it.  Codimension,
    the cuts and every window weight are sums over this one table.  t is
    checked as an `HNType` unless it is one already.
    """
    if type(t) is not HNType:
        t = HNType(t)
    pair = q.euler_pairing
    return [
        [None if m == n else pair(a, b) for n, b in enumerate(t)]
        for m, a in enumerate(t)
    ]


def table_codimension(table: list[list[int | None]]) -> int:
    """sum_{m<n} -P[m][n]."""
    return -sum(sum(row[m + 1 :]) for m, row in enumerate(table))


def codimension(q: Quiver, t: HNType) -> int:
    """Codimension of the stratum with HN type t: sum_{m<n} -<d^m, d^n>."""
    return table_codimension(pairing_table(q, t))


def codimension_cuts(q: Quiver, t: HNType) -> tuple[int, ...]:
    """The partial-sum pairings N_r = -<d^1+..+d^r, d^{r+1}+..+d^l>.

    By bilinearity N_r = -sum_{m<r<=n} <d^m, d^n>.  The window width
    decomposes as sum_r (k_r - k_{r+1}) N_r, so N_r >= 2 for all r
    forces the weight inequality on the stratum.
    """
    table = pairing_table(q, t)
    return tuple(
        -sum(sum(table[m][r:]) for m in range(r)) for r in range(1, len(t))
    )


class OneParameterSubgroup(NamedTuple):
    """Blockwise-scaling subgroup attached to a stratum.

    `weights[m] = scale * mu(d^m)`, with `scale` the least positive
    integer clearing all slope denominators.  Weights are strictly
    decreasing and satisfy sum_m weights[m] * |d^m| = scale * theta(d).
    """

    scale: int
    weights: tuple[int, ...]


def one_parameter_subgroup(theta: StabilityParameter, t: HNType) -> OneParameterSubgroup:
    """Integral weight data of the destabilizing subgroup for type t.

    Requires the slopes of t to be strictly decreasing.  theta and t
    are checked unless they are a `StabilityParameter` and an `HNType`.
    """
    if type(t) is not HNType:
        t = HNType(t)
    slopes = _decreasing_slopes(theta, t)
    scale = lcm(*(mu.denominator for mu in slopes))
    weights = tuple(int(scale * mu) for mu in slopes)
    return OneParameterSubgroup(scale=scale, weights=weights)
