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

The memo `_memo` has one table per quiver q, `_memo[q]`, keyed by
plain int tuples: e maps to the pair (e's rays, right_form(e)), and the
table holds with each e every f <= e.  So each form is computed once,
when e's rays are stored: the filter, the box pass, and the cuts,
search edges and stable test of `hn._Tables` read it there.  A hot
loop looks its quiver's table up once and then reads vectors only.
`clear_caches` empties `_memo`, rays and forms of every quiver.  A
miss at d whose predecessors d - u_j are all in the table runs the
filter for d alone, as an ascending sweep does.  Any other miss, on at
most three vertices, fills the whole box 0 <= e <= d in one
bit-parallel pass (`_fill_box`):

- Layout.  The nonzero vectors f <= d are numbered by their
  projected point f / |f|, scaled to integers by the lcm of the sizes,
  ties in lexicographic order; number k owns bits [wk, wk + w) of every
  packed integer, its field.  Ray slot s holds, for each f with more
  than s rays, its s-th ray g: columns G_i = sum_k g_i 2^(wk) and
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
  of vectors not <= e.
- The prefilter, n = 3.  Lemma: if f is generic in e, so is every
  generic g of f (Schofield 1992), so C(f) lies in C(e), the cone that
  e's generic vectors span.  So a member h of e on an extreme ray of
  C(e), as h lies in C(h), is on an extreme ray of C(h): it is parallel
  to one of its own rays.  One mask `hull` keeps the sign bits of the
  packed fields whose vector is parallel to one of its rays, set as
  each field is packed.  The chain reads e's members ANDed with `hull`
  and e's own bit (e is not packed yet): every member on an extreme ray
  of C(e) stays, so the chain keeps the same first member per extreme
  point, and only interior points leave its input.

From four vertices on the one-vector filter always runs: every
projected point of a member is kept there, so the slots would be as
many as the largest generic set has directions.
"""

from __future__ import annotations

from itertools import product
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


def _members(table: _QuiverRays, e: tuple, form: tuple) -> list[tuple[int, ...]]:
    """The generic subdimension vectors of e, in lexicographic order, read
    off the quiver's `table`, with form = right_form(e): on the one-vector
    path e has no entry yet.

    Recurses only on vectors of smaller total, so it terminates."""
    out = []
    for f in product(*(range(x + 1) for x in e)):
        # f = 0 has no rays, and f = e is always generic
        for g, gf in table[f][0] if f != e else ():
            if sum(map(mul, g, form)) < gf:
                break
        else:
            out.append(f)
    return out


class _QuiverRays(dict):
    """e -> (`_rays(q, e)`, q.right_form(e)) for one quiver q, its only
    memo of either.  A miss fills the table as the module docstring
    describes, so it holds with each e every f <= e."""

    def __init__(self, q: Quiver):
        super().__init__()
        self.q = q

    def __missing__(self, e):
        if len(e) <= 3:
            for j, x in enumerate(e):
                if x and e[:j] + (x - 1,) + e[j + 1 :] not in self:
                    _fill_box(self, e)
                    return self[e]
        form = self.q.right_form(e)
        gens = _extreme_rays(_members(self, e, form)[1:])
        entry = self[e] = (tuple((g, sum(map(mul, g, form))) for g in gens), form)
        return entry


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


def _fill_box(table: _QuiverRays, d: tuple[int, ...]) -> None:
    """Put the entry (rays, right form) of every e <= d in the quiver's
    `table`, on at most three vertices, in one pass over packed integers;
    the module docstring has the layout, the bound on w and the lemma
    behind the n = 3 prefilter, which feeds the chain only e and the
    members parallel to one of their own rays."""
    q = table.q
    n = len(d)
    box = list(product(*(range(x + 1) for x in d)))
    table[box[0]] = ((), (0,) * n)
    box = box[1:]
    scale = lcm(*range(1, sum(d) + 1))
    # numbered by projected point, ties in lexicographic order
    points, vectors = zip(*sorted((tuple(x * (scale // sum(f)) for x in f), f) for f in box))
    field = {f: k for k, f in enumerate(vectors)}

    bound = sum(x * abs(m) * y for x, row in zip(d, q.euler_matrix) for m, y in zip(row, d))
    w = bound.bit_length() + 1
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
            table[e] = (tuple((g, sum(map(mul, g, form))) for g in gens), form)
        rays = table[e][0]
        if n == 3 and any(points[field[g]] == points[own] for g, _ in rays):
            hull |= 1 << shift + w - 1
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
