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
integers: for two vertices the two extreme vectors by cross products;
for three, the convex hull of the points projected to |g| = 1, with
orientations read off 3 x 3 determinants, so collinear points and
repeated rays (g, 2g) drop out.  With one vertex any member spans the
ray.  From four vertices on every nonzero member is kept: correct, just
not pruned.  `generic_subdimension_vectors` still returns the whole set
by running the filter for e once against the ray tables below it.
"""

from __future__ import annotations

from functools import lru_cache
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
    """One member on each extreme ray of the cone spanned by `points`.

    The points are nonzero, nonnegative and of one length n.  For n <= 3
    the output is a subset of them with one point per extreme ray; for
    n >= 4 it is all of them.  A linear functional has the same least
    sign over the output as over the input.
    """
    if len(points) <= 1:
        return list(points)
    n = len(points[0])
    if n == 1:
        return points[:1]
    if n == 2:
        # in the quadrant the vectors are totally ordered by angle
        lo = hi = points[0]
        for g in points:
            if g[0] * lo[1] > g[1] * lo[0]:
                lo = g
            if hi[0] * g[1] > hi[1] * g[0]:
                hi = g
        return [lo] if lo[0] * hi[1] == lo[1] * hi[0] else [lo, hi]
    if n > 3:
        return list(points)
    # monotone chain over g / |g|, sorted by exact integer coordinates;
    # the orientation of three projected points is the sign of det(a, b, c)
    scale = lcm(*{sum(g) for g in points})
    by_point = {}
    for g in points:
        s = scale // sum(g)
        by_point.setdefault((g[0] * s, g[1] * s), g)
    ordered = [by_point[k] for k in sorted(by_point)]
    if len(ordered) <= 2:
        return ordered
    lower, upper = [], []
    for chain, run in ((lower, ordered), (upper, reversed(ordered))):
        for g in run:
            while len(chain) >= 2 and _det3(chain[-2], chain[-1], g) <= 0:
                chain.pop()
            chain.append(g)
    return lower[:-1] + upper[:-1]


def _members(q: Quiver, e: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The generic subdimension vectors of e, in lexicographic order.

    Recurses only on vectors of smaller total, so it terminates."""
    form = q.right_form(e)
    out = []
    for f in product(*(range(x + 1) for x in e)):
        # f = 0 has no rays, and f = e is always generic
        for g, gf in _rays(q, f) if f != e else ():
            if sum(map(mul, g, form)) < gf:
                break
        else:
            out.append(f)
    return out


@lru_cache(maxsize=None)
def _rays(q: Quiver, e: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(g, <g, e>) for one generic g of e on each extreme ray of the cone
    the generic subdimension vectors of e span; empty for e = 0."""
    form = q.right_form(e)
    return tuple((g, sum(map(mul, g, form))) for g in _extreme_rays(_members(q, e)[1:]))


def generic_subdimension_vectors(q: Quiver, e: DimensionVector) -> frozenset[DimensionVector]:
    """The set of generic subdimension vectors of e; always contains 0 and e."""
    return frozenset(map(DimensionVector, _members(q, q._vertex_tuple(e, DimensionVector))))


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
    return all(sum(map(mul, theta, f)) * size <= weight * sum(f) for f, _ in _rays(q, e))


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
            return False, DimensionVector(e)
    return True, None


def clear_caches() -> None:
    """Drop the memo table of generic ray generators (for cold starts)."""
    _rays.cache_clear()
