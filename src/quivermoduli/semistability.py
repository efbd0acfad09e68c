"""Existence of semistable representations, and ample stability.

Nonemptiness of the semistable locus is decided combinatorially through
generic subdimension vectors: f <= e is generic when every
representation of dimension e admits a subrepresentation of dimension f.
Schofield's recursive characterization, used here, is

    f generic in e  <=>  <f', e - f> >= 0 for every generic f' in f,

with f = 0 and f = e always generic.  The form <-, e - f> is read once
per f off the quiver's Euler matrix and dotted with every generic f'.
The generic vectors of each e are plain int tuples in one memo table.
A semistable representation of dimension e exists iff no generic f has
mu(f) > mu(e) (King), tested in integers as theta(f) |e| > theta(e) |f|.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from operator import mul, sub

from .core import DimensionVector, Quiver, StabilityParameter


@lru_cache(maxsize=None)
def _generic(q: Quiver, e: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The generic subdimension vectors of e, in lexicographic order.

    Recurses only on vectors of smaller total, so it terminates."""
    out = []
    for f in product(*(range(x + 1) for x in e)):
        if any(f) and f != e:
            form = q.right_form(tuple(map(sub, e, f)))
            if not all(sum(map(mul, g, form)) >= 0 for g in _generic(q, f)):
                continue
        out.append(f)
    return tuple(out)


def generic_subdimension_vectors(q: Quiver, e: DimensionVector) -> frozenset[DimensionVector]:
    """The set of generic subdimension vectors of e; always contains 0 and e."""
    return frozenset(map(DimensionVector, _generic(q, q._vertex_tuple(e, DimensionVector))))


def has_semistable(q: Quiver, e: DimensionVector, theta: StabilityParameter) -> bool:
    """Does a theta-semistable representation of dimension e exist?

    True iff theta(f) |e| <= theta(e) |f|, i.e. mu(f) <= mu(e), for every
    generic subdimension vector f of e: a generic f of larger slope
    destabilizes every representation of dimension e.
    """
    e = q._vertex_tuple(e, DimensionVector)
    theta = q._vertex_tuple(theta, StabilityParameter)
    if not any(e):
        raise ValueError("has_semistable requires a nonzero dimension vector")
    size, weight = sum(e), sum(map(mul, theta, e))
    return all(sum(map(mul, theta, f)) * size <= weight * sum(f) for f in _generic(q, e))


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
    """Drop the memo table of generic subdimension vectors (for cold starts)."""
    _generic.cache_clear()
