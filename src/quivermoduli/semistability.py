"""Existence of semistable representations, and ample stability.

Nonemptiness of the semistable locus is decided combinatorially through
generic subdimension vectors: f <= e is generic when every
representation of dimension e admits a subrepresentation of dimension f.
Schofield's recursive characterization, used here, is

    f generic in e  <=>  <g, e - f> >= 0 for every generic g in f,

with f = 0 and f = e always generic.  A semistable representation of
dimension e exists iff no generic f has mu(f) > mu(e) (King), tested in
integers as theta(f) |e| - theta(e) |f| > 0.

Both tests are linear functionals that vanish at 0: Schofield's in g,
King's in f.  A linear functional is >= 0 on a finite set of vectors
iff it is >= 0 on the cone they span, iff it is >= 0 on one generator of
each extreme ray of that cone.  So the memo table keeps, per e, only
those ray generators g, each with its pairing <g, e>.  Since
<g, e - f> = g . right_form(e) - <g, f>, the candidates f <= e are
filtered with one linear form per e.  The rays are found exactly, in
integers.  The endpoint scan covers one and two vertices: it keeps the
members of least and greatest g_0 / |g|, one if they are parallel.  For
three, the convex hull of the points projected to |g| = 1, with
orientations read off 3 x 3 determinants, so collinear points and
repeated rays (g, 2g) drop out.  From four vertices on one member per
projected point is kept, so repeated rays drop out too, but the points
inside the hull stay, correct but not pruned.
`generic_subdimension_vectors` still returns the whole set by running
the filter for e once against the ray tables below it.

The closure lemma.  g = f is one of f's generic vectors, so f generic
in e needs <f, e - f> >= 0 (it is hom(f, e - f) once ext vanishes), and
f's rays are read only when f passes this test against some e whose rays
are read.  The hom closure of d is d with every f != 0 reached from it
by steps e -> f, f <= e, <f, e - f> >= 0; no f outside it is ever
tested against a vector whose rays are read.  It is 11-13 % of the box
on A3 and A4^2, 37-43 % on K3.

The memo `_memo` has one table per quiver q, `_memo[q]`, keyed by
plain int tuples: e maps to the pair (e's rays, right_form(e)), and the
table holds with each e its hom closure.  So each form is computed once,
when e's rays are stored, and read there by the filter, the box pass
and `hn._Tables`, which on a d the table does not hold yet builds the
forms of d's box by outer sums.  A hot loop looks its quiver's table up
once and then reads vectors only.  `clear_caches` empties `_memo`, rays
and forms of every quiver.  The one-vector filter (`_members`) puts an f with no entry to
the closure lemma's test before it reads f's entry, so it fills only
e's closure; an f already held is read at once.  A miss at d whose
predecessors d - u_j are all held runs it for d alone, as an ascending
sweep does, and so does a miss at 0 or a unit vector.  Any other miss at
d, on at most three vertices, is cold (`_QuiverRays.fill_cold`): a box
of at least `_CLOSURE_MIN_BOX` vectors takes two packed passes,

1. the closure pass (`_closure`).  Every e <= d, 0 included, owns the
   field numbered by its place in lexicographic order.  The columns are
   F_i = sum_k f_i 2^(wk) and Q = sum_k (BIAS - <f, f>) 2^(wk), built by
   outer sums as `_box_weights` builds theta, so that for x the sum
   sum_i right_form(x)_i F_i + Q has BIAS + <f, x - f> in f's field,
   BIAS > B and every d_j as below; ANDed with one mask of the f with
   f_j <= x_j per coordinate, (BIAS + x_j) * ones - F_j read at the sign
   bits, its sign bits are x's closure steps.  From d, each vector
   reached and not held is expanded once, and only the bits new to the
   pass are read off; a held vector is reached but not expanded, as the
   table holds its closure;
2. the box pass (`_fill_box`) below, over the vectors the closure pass
   reached;

and a smaller box one box pass over the whole box, as it did before the
closure pass: there the closure, and the second one that a later miss
at a piece off it costs (the least-codimension search makes such
misses), outweigh what it skips.  No layout outlives its pass.
`_fill_whole` fills the whole box for `hn._Tables` with a strong
failure witness, or building its DP tables for
`hn.enumerate_hn_types`: those test every e <= d for semistability.

The box pass over a list of vectors, each <= its last one d:

- Layout.  The vectors are numbered by their projected point f / |f|,
  scaled to integers by the lcm of the sizes, ties in lexicographic
  order; number k owns bits [wk, wk + w) of every packed integer, its
  field.  Ray slot s holds, for each f with more than s rays, its s-th
  ray g: columns G_i = sum_k g_i 2^(wk) and
  Q = sum_k (BIAS - <g, f>) 2^(wk).  The field of an f with fewer rays
  is 0 in every G_i and BIAS in Q.
- The test.  For e, V = sum_i right_form(e)_i G_i + Q equals
  sum_k (BIAS + <g, e - f>) 2^(wk), by linearity and exact integers,
  with <g, e - f> read as 0 in an empty field.  Since 0 <= g <= d and
  -d <= e - f <= d, |<g, e - f>| <= B = sum_ij d_i |M_ij| d_j for the
  Euler matrix M.  With w = bitlength(B) + 1 and BIAS = 2^(w-1) > B,
  every field's value lies in [0, 2^w), so V is exactly the fields side
  by side: none borrows from or carries into the next.  The top bit of a
  field, its sign bit, is set iff <g, e - f> >= 0.  V's sign bits,
  ANDed over the slots and with one mask of the f with f_j <= e_j per
  coordinate, are e's nonzero generic subdimension vectors; f = e
  pairs to 0 and is one of them.
- The hull.  Bit order is projected order.  With n <= 2 vertices the
  rays are the lowest and highest members, one if they are parallel;
  with n = 3, one monotone chain over the members in bit order, which
  `_extreme_rays` shares.  e's rays are then packed into e's field.
  The vectors are visited in lexicographic order, so every f < e is
  packed before e is tested; the fields still empty are those of e and
  of vectors not <= e.  The list holds e's closure with each e that has
  no entry yet, and an f <= e in the list but off e's closure is packed
  too, so its field fails e's test as its rays say.  A held e is packed
  from its entry, not tested.
- The prefilter, n = 3.  Lemma: if f is generic in e, so is every
  generic g of f (Schofield 1992), so C(f) lies in C(e), the cone that
  e's generic vectors span.  So a member h of e on an extreme ray of
  C(e), as h lies in C(h), is on an extreme ray of C(h): it is parallel
  to one of its own rays.  One mask `hull` keeps the sign bits of the
  packed fields whose vector is parallel to one of its rays, set as
  each field is packed; a held e's rays may have no field, so their
  projected points are computed.  The chain reads e's members ANDed
  with `hull`
  and e's own bit (e is not packed yet): every member on an extreme ray
  of C(e) stays, so the chain keeps the same first member per extreme
  point, and only interior points leave its input.

From four vertices on the one-vector filter always runs: every
projected point of a member is kept there, so the slots would be as
many as the largest generic set has directions.
"""

from __future__ import annotations

from itertools import product, zip_longest
from math import lcm
from operator import mul, sub

from .core import DimensionVector, Quiver, StabilityParameter


def _det3(a: tuple, b: tuple, c: tuple) -> int:
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def _extreme_rays(points: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Members of `points` that span the same cone, no two parallel.

    The points are nonzero, nonnegative and of one length n.  For n <= 3
    the output has one point per extreme ray, for n >= 4 one point per
    projected point g / |g|.  A linear functional has the same least
    sign over the output as over the input.
    """
    if len(points) <= 1:
        return list(points)
    n = len(points[0])
    if n <= 2:
        # by g_0 / |g|: the angle on two vertices, a tie on one
        lo = hi = points[0]
        lo_size = hi_size = sum(lo)
        for g in points:
            size = sum(g)
            if g[0] * lo_size > lo[0] * size:
                lo, lo_size = g, size
            if hi[0] * size > g[0] * hi_size:
                hi, hi_size = g, size
        return [lo] if lo[0] * hi_size == hi[0] * lo_size else [lo, hi]
    # one point per projected point, sorted by exact integer coordinates;
    # the first n - 1 of them fix the last, as all n sum to the scale
    scale = lcm(*{sum(g) for g in points})
    by_point = {}
    for g in points:
        s = scale // sum(g)
        by_point.setdefault(tuple(x * s for x in g[:-1]), g)
    ordered = [by_point[k] for k in sorted(by_point)]
    return _chain(ordered) if n == 3 else ordered


def _chain(ordered: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    """One member on each extreme ray, for nonzero 3-vectors whose projected
    points g / |g| are distinct and in sorted order: the monotone chain.
    The orientation of three projected points is the sign of det(a, b, c)."""
    if len(ordered) <= 2:
        return ordered
    lower, upper = [], []
    for chain, run in ((lower, ordered), (upper, reversed(ordered))):
        for g in run:
            while len(chain) >= 2 and _det3(chain[-2], chain[-1], g) <= 0:
                chain.pop()
            chain.append(g)
    return lower[:-1] + upper[:-1]


def _below_masks(d: tuple[int, ...], pairs) -> list[list[int]]:
    """masks[j][v]: the OR of the bits of those (vector, bit) `pairs`
    whose j-th entry is at most v, for 0 <= v <= d_j."""
    masks = [[0] * (x + 1) for x in d]
    for f, bit in pairs:
        for row, x in zip(masks, f):
            row[x] |= bit
    for row in masks:
        for v in range(1, len(row)):
            row[v] |= row[v - 1]
    return masks


def _box_weights(theta: tuple, d: tuple) -> list[int]:
    """theta(e) for every 0 <= e <= d, in lexicographic order of e.

    theta is linear, so the list is built by outer sums, one pass per
    coordinate: each weight of the vectors over the first j coordinates
    is followed by its sums with theta_j * x for x = 0, ..., d_j."""
    out = [0]
    for a, x in zip(theta, d):
        steps = [a * k for k in range(x + 1)]
        out = [v + s for v in out for s in steps]
    return out


def _box_squares(m: tuple, d: tuple) -> list[int]:
    """<e, e> = sum_ij e_i m_ij e_j for every 0 <= e <= d, in lexicographic
    order of e, by outer sums as `_box_weights`: appending y to a prefix v
    adds y (c . v) + y^2 m_jj, with c_i = m_ij + m_ji linear in v."""
    out = [0]
    for j, x in enumerate(d):
        cross = _box_weights([m[i][j] + m[j][i] for i in range(j)], d[:j])
        out = [s + y * (c + y * m[j][j]) for s, c in zip(out, cross) for y in range(x + 1)]
    return out


def _pack(values: list[int], w: int) -> int:
    """sum_k values[k] 2^(wk), by pairing neighbours, so that no step
    shifts more than half of the result."""
    while len(values) > 1:
        values = [a + (b << w) for a, b in zip_longest(values[::2], values[1::2], fillvalue=0)]
        w *= 2
    return values[0]


def _members(table: _QuiverRays, e: tuple, form: tuple) -> list[tuple[int, ...]]:
    """The generic subdimension vectors of e, in lexicographic order, read
    off the quiver's `table`, with form = right_form(e): on the one-vector
    path e has no entry yet.  An f with no entry is first put to the
    closure lemma's test <f, e - f> >= 0, and filled only if it passes.

    Recurses only on vectors of smaller total, so it terminates."""
    out = []
    get, right_form = table.get, table.q.right_form
    for f in product(*(range(x + 1) for x in e)):
        entry = get(f)
        if entry is None:
            if f == e:  # e has no entry yet, and is always generic
                out.append(f)
                continue
            if sum(map(mul, f, form)) < sum(map(mul, f, right_form(f))):
                continue
            entry = table[f]
        for g, gf in entry[0]:  # f = 0 has no rays; a held e passes its own
            if sum(map(mul, g, form)) < gf:
                break
        else:
            out.append(f)
    return out


class _QuiverRays(dict):
    """e -> (`_rays(q, e)`, q.right_form(e)) for one quiver q, its only
    memo of either.  A miss fills the table as the module docstring
    describes, so it holds with each e the hom closure of e."""

    def __init__(self, q: Quiver):
        super().__init__()
        self.q = q

    def __missing__(self, e):
        if len(e) <= 3 and sum(e) > 1:  # 0 and the unit vectors cost nothing
            for j, x in enumerate(e):
                if x and e[:j] + (x - 1,) + e[j + 1 :] not in self:
                    self.fill_cold(e)
                    return self[e]
        form = self.q.right_form(e)
        gens = _extreme_rays(_members(self, e, form)[1:])
        entry = self[e] = (tuple((g, sum(map(mul, g, form))) for g in gens), form)
        return entry

    def fill_cold(self, d: tuple[int, ...]) -> None:
        """A cold miss at d: the closure pass from d, then the box pass
        over the vectors it reaches; a box of fewer than
        `_CLOSURE_MIN_BOX` vectors is filled whole."""
        box = _box(d)
        self.setdefault(box[0], ((), box[0]))
        _fill_box(self, box[1:] if len(box) < _CLOSURE_MIN_BOX else _closure(self, box))


# the smallest box the closure pass fills.  Below it the pass and the second
# one that a piece off d's closure costs outweigh what it skips: cold verdicts
# in process through the closure, against the whole box, took K3 (8,9), 90
# vectors, 16 % longer, triangle B (1,6,6), 98 with a witness, 30 %, and
# K3 (10,11), 132, 6 %; K3 (12,13), 182, took 8 % less, A3 (5,5,5), 216, 62 %
_CLOSURE_MIN_BOX = 150


class _RayMemo(dict):
    """q -> q's `_QuiverRays`, made empty on first read."""

    def __missing__(self, q):
        table = self[q] = _QuiverRays(q)
        return table


_memo = _RayMemo()


def _rays(q: Quiver, e: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(g, <g, e>) for one generic g of e on each extreme ray of the cone
    the generic subdimension vectors of e span; empty for e = 0."""
    return _memo[q][e][0]


def _box(d: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The vectors 0 <= e <= d in lexicographic order."""
    return list(product(*(range(x + 1) for x in d)))


def _bound(q: Quiver, d: tuple[int, ...]) -> int:
    """B = sum_ij d_i |M_ij| d_j >= |<g, e - f>| for 0 <= g, f, e <= d."""
    return sum(x * abs(m) * y for x, row in zip(d, q.euler_matrix) for m, y in zip(row, d))


def _fill_whole(table: _QuiverRays, box: list[tuple[int, ...]]) -> None:
    """Hold every vector of d's `box`, 0 first, for a caller that reads
    them all: on at most three vertices, in one box pass over the whole
    box, which packs the entries already held; from four on, each miss
    runs the one-vector filter."""
    if len(box[0]) <= 3 and not all(map(table.__contains__, box)):
        table.setdefault(box[0], ((), box[0]))
        _fill_box(table, box[1:])


def _closure(table: _QuiverRays, box: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The closure pass over d's `box`, in lexicographic order, 0 first:
    the vectors reached from d, d included, by the closure lemma's step to
    the f <= x, f != 0, with <f, x - f> >= 0, taken only from the x that
    `table` does not hold, as a held x holds its closure; sorted.  The
    vector numbered k in `box` owns the w-bit field k.  The
    columns are f_i per field, and BIAS - <f, f> last, so that
    V = sum_i right_form(x)_i F_i + Q has BIAS + <f, x - f> in the field
    of f; `below[j][v]` holds the sign bits of the f != 0 with f_j <= v.
    Each x is expanded once, and only the bits new to `seen` are read."""
    q, d = table.q, box[-1]
    n = len(d)
    # BIAS = 2^(w-1) exceeds every |<f, x - f>| and every d_j
    w = max(_bound(q, d), *d).bit_length() + 1
    bias = 1 << w - 1
    ones = ((1 << w * len(box)) - 1) // ((1 << w) - 1)
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    columns = [_pack(_box_weights(u, d), w) for u in units]
    columns.append(_pack([bias - s for s in _box_squares(q.euler_matrix, d)], w))
    signs = ones << w - 1 ^ bias  # every field's sign bit but 0's
    # BIAS + v - f_j >= BIAS iff f_j <= v
    below = [[((bias + v) * ones - column) & signs for v in range(x + 1)]
             for column, x in zip(columns, d)]
    right_form = q.right_form
    seen = 1 << w * len(box) - 1  # d's sign bit
    todo, reached = [d], []
    while todo:
        x = todo.pop()
        reached.append(x)
        if x in table:
            continue
        new = sum(map(mul, right_form(x), columns), columns[-1]) & ~seen
        for row, v in zip(below, x):
            new &= row[v]
        seen |= new
        while new:
            top = new.bit_length() - 1
            new ^= 1 << top
            todo.append(box[top // w])
    return sorted(reached)


def _fill_box(table: _QuiverRays, box: list[tuple[int, ...]]) -> None:
    """Put the entry (rays, right form) of every vector of `box` in the
    quiver's `table`, on at most three vertices, in one pass over packed
    integers.  `box` is nonzero vectors in lexicographic order, the last
    one d and the others <= d, and holds, with each vector the table does
    not hold yet, its hom closure; the entries held are packed, not
    recomputed.  The module docstring has the layout, the bound on w and
    the lemma behind the n = 3 prefilter, which feeds the chain only e and
    the members parallel to one of their own rays."""
    q = table.q
    d = box[-1]
    n = len(d)
    scale = lcm(*range(1, sum(d) + 1))
    # numbered by projected point, ties in lexicographic order
    points, vectors = zip(*sorted((tuple(x * (scale // sum(f)) for x in f), f) for f in box))
    field = {f: k for k, f in enumerate(vectors)}

    w = _bound(q, d).bit_length() + 1
    # BIAS = 2^(w-1) in every field, which is also every field's sign bit
    signs = ((1 << w * len(box)) - 1) // ((1 << w) - 1) << (w - 1)
    below = _below_masks(d, ((f, 1 << w * k + w - 1) for k, f in enumerate(vectors)))
    slots = []  # [G_0, ..., G_{n-1}, Q] per ray slot
    hull = 0  # n = 3: the sign bits of the packed f parallel to one of their own rays
    for e in box:
        own = field[e]
        shift = w * own
        if e not in table:
            form = q.right_form(e)
            m = signs
            for row, x in zip(below, e):
                m &= row[x]
            for slot in slots:
                m &= sum(map(mul, form, slot), slot[n])
            if n <= 2:
                lo = (m & -m).bit_length() // w - 1
                hi = m.bit_length() // w - 1
                gens = [vectors[lo]] if points[lo] == points[hi] else [vectors[lo], vectors[hi]]
            else:
                m &= hull | 1 << shift + w - 1
                ordered, last = [], None
                while m:
                    low = m & -m
                    m ^= low
                    k = low.bit_length() // w - 1
                    if points[k] != last:
                        ordered.append(vectors[k])
                        last = points[k]
                gens = _chain(ordered)
                if any(points[field[g]] == points[own] for g in gens):
                    hull |= 1 << shift + w - 1
            table[e] = (tuple((g, sum(map(mul, g, form))) for g in gens), form)
        elif n == 3 and any(
            tuple(x * (scale // sum(g)) for x in g) == points[own] for g, _ in table[e][0]
        ):  # a held e's rays may have no field here
            hull |= 1 << shift + w - 1
        rays = table[e][0]
        for s, (g, ge) in enumerate(rays):
            if s == len(slots):
                slots.append([0] * n + [signs])
            slot = slots[s]
            for i, x in enumerate(g):
                slot[i] += x << shift
            slot[n] -= ge << shift


def generic_subdimension_vectors(q: Quiver, e: DimensionVector) -> frozenset[DimensionVector]:
    """The set of generic subdimension vectors of e; always contains 0 and e."""
    e = q._vertex_tuple(e, DimensionVector)
    table = _memo[q]
    form = table[e][1]  # a cold box is filled in one pass, not one vector at a time
    return frozenset(map(DimensionVector._trusted, _members(table, e, form)))


def has_semistable(q: Quiver, e: DimensionVector, theta: StabilityParameter) -> bool:
    """Does a theta-semistable representation of dimension e exist?

    True iff theta(f) |e| <= theta(e) |f|, i.e. mu(f) <= mu(e), for every
    generic subdimension vector f of e: a generic f of larger slope
    destabilizes every representation of dimension e.  The test is
    linear in f, so the extreme rays of the generic set decide it.
    """
    e = q._vertex_tuple(e, DimensionVector)
    theta = q._vertex_tuple(theta, StabilityParameter)
    if not any(e):
        raise ValueError("has_semistable requires a nonzero dimension vector")
    return _semistable(q, e, theta, sum(map(mul, theta, e)))


def _semistable(q: Quiver, e: tuple, theta: tuple, weight: int) -> bool:
    """`has_semistable` on a valid nonzero e, with weight = theta(e), unchecked."""
    size = sum(e)
    for f, _ in _memo[q][e][0]:
        if sum(map(mul, theta, f)) * size > weight * sum(f):
            return False
    return True


def is_strongly_amply_stable(
    q: Quiver, d: DimensionVector, theta: StabilityParameter
) -> tuple[bool, DimensionVector | None]:
    """Check <e, d-e> <= -2 for every e with mu(e) > mu(d-e).

    With theta(d) = 0, mu(e) > mu(d-e) exactly when theta(e) > 0, which
    leaves out e = 0 and e = d.  Returns (True, None) or (False, w) with
    w the lexicographically smallest violating vector.  This condition
    is sufficient for the weight inequality on every unstable stratum,
    but not necessary.
    """
    d = q._vertex_tuple(d, DimensionVector)
    theta = q._vertex_tuple(theta, StabilityParameter)
    if sum(map(mul, theta, d)) != 0:
        raise ValueError("is_strongly_amply_stable requires theta(d) = 0")
    for e in product(*(range(x + 1) for x in d)):
        if sum(map(mul, theta, e)) > 0 and q.euler_pairing(e, tuple(map(sub, d, e))) > -2:
            return False, DimensionVector._trusted(e)
    return True, None


def clear_caches() -> None:
    """Drop every quiver's ray generators and right forms (for cold starts)."""
    _memo.clear()
