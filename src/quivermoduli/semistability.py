"""Existence of semistable representations, and ample stability.

Nonemptiness of the semistable locus is decided combinatorially through
generic subdimension vectors: f <= e is generic when every
representation of dimension e admits a subrepresentation of dimension f.
The recursive characterization used here is

    f generic in e  <=>  <f', e - f> >= 0 for every generic f' in f,

with f = 0 and f = e always generic.  A semistable representation of
dimension e exists iff no generic subdimension vector has slope above
mu(e).
"""

from __future__ import annotations

from functools import lru_cache

from .core import (
    DimensionVector,
    Quiver,
    StabilityParameter,
    slope,
    subdimension_vectors,
)


@lru_cache(maxsize=None)
def generic_subdimension_vectors(q: Quiver, e: DimensionVector) -> frozenset[DimensionVector]:
    """The set of generic subdimension vectors of e.

    Always contains 0 and e.  Memoized globally; the recursion only ever
    descends to vectors with strictly smaller total, so it terminates.
    """
    e = DimensionVector(e)
    result = []
    for f in subdimension_vectors(e):
        if f.is_zero() or f == e:
            result.append(f)
            continue
        rest = e - f
        if all(
            q.euler_pairing(fp, rest) >= 0
            for fp in generic_subdimension_vectors(q, f)
        ):
            result.append(f)
    return frozenset(result)


@lru_cache(maxsize=None)
def has_semistable(q: Quiver, e: DimensionVector, theta: StabilityParameter) -> bool:
    """Does a theta-semistable representation of dimension e exist?

    True iff slope(theta, f) <= slope(theta, e) for every nonzero
    generic subdimension vector f != e.  A generic f of larger slope
    destabilizes every representation of dimension e.
    """
    e = DimensionVector(e)
    if e.is_zero():
        raise ValueError("has_semistable requires a nonzero dimension vector")
    mu = slope(theta, e)
    for f in generic_subdimension_vectors(q, e):
        if f.is_zero() or f == e:
            continue
        if slope(theta, f) > mu:
            return False
    return True


def is_strongly_amply_stable(
    q: Quiver, d: DimensionVector, theta: StabilityParameter
) -> tuple[bool, DimensionVector | None]:
    """Check <e, d-e> <= -2 for every e with mu(e) > mu(d-e).

    Quantifies over 0 < e < d componentwise.  Returns (True, None) or
    (False, w) with w the lexicographically smallest violating vector.
    This condition is sufficient for the weight inequality on every
    unstable stratum, but not necessary.
    """
    d = DimensionVector(d)
    theta = StabilityParameter(theta)
    if theta.dot(d) != 0:
        raise ValueError("is_strongly_amply_stable requires theta(d) = 0")
    for e in subdimension_vectors(d)[1:-1]:
        if slope(theta, e) > slope(theta, d - e) and q.euler_pairing(e, d - e) > -2:
            return False, e
    return True, None


def clear_caches() -> None:
    """Drop the global memo tables (useful for cold-start timing)."""
    generic_subdimension_vectors.cache_clear()
    has_semistable.cache_clear()
