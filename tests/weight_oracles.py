"""Slow second routes to the library's numbers, for cross-checks only.

The block evaluators enumerate the graded blocks of the linearized
action directly, arrow by arrow and vertex by vertex, never touching the
Euler pairing. They give a second route to the same integers as the
closed formulas in quivermoduli.windows. `reference_hn_types` lists the
HN types by a recursion on `Fraction` slopes that memoizes every tail,
where `quivermoduli.enumerate_hn_types` walks the verdict's integer
remainder tables. `reference_verdict` decides the certificates stratum
by stratum over those reference types, the route that
`quivermoduli.verdict` replaces with a DP over remainders.

The semistability references recurse on `DimensionVector`s, evaluate one
Euler pairing per (generic f', f) and compare `Fraction` slopes, where
`quivermoduli.semistability` works on plain int tuples with one linear
form per f and cross-multiplied integer slopes.
"""

from __future__ import annotations

from functools import lru_cache

from quivermoduli import (
    DimensionVector,
    HNType,
    StabilityParameter,
    Verdict,
    has_semistable,
    is_strongly_amply_stable,
    is_theta_coprime,
    slope,
    stratum_report,
    subdimension_vectors,
)


@lru_cache(maxsize=None)
def reference_generic_subdimension_vectors(quiver, e):
    """Generic f <= e: f is 0 or e, or <f', e - f> >= 0 for every generic f' in f."""
    e = DimensionVector(e)
    result = []
    for f in subdimension_vectors(e):
        if f.is_zero() or f == e:
            result.append(f)
            continue
        rest = e - f
        if all(
            quiver.euler_pairing(fp, rest) >= 0
            for fp in reference_generic_subdimension_vectors(quiver, f)
        ):
            result.append(f)
    return frozenset(result)


def reference_has_semistable(quiver, e, theta):
    """No nonzero generic subdimension vector has a larger Fraction slope than e."""
    e = DimensionVector(e)
    mu = slope(theta, e)
    return all(
        slope(theta, f) <= mu
        for f in reference_generic_subdimension_vectors(quiver, e)
        if not f.is_zero()
    )


def reference_strongly_amply_stable(quiver, d, theta):
    """The first 0 < e < d with mu(e) > mu(d - e) and <e, d - e> > -2, by
    comparing the two Fraction slopes."""
    d = DimensionVector(d)
    for e in subdimension_vectors(d)[1:-1]:
        if slope(theta, e) > slope(theta, d - e) and quiver.euler_pairing(e, d - e) > -2:
            return False, e
    return True, None


def ambient_weight_by_blocks(quiver, hn_type, weights):
    """Weight of the subgroup on the anticanonical line of the ambient space.

    The representation space splits along the grading into blocks indexed
    by an arrow a: s -> t and a pair (m, n) of pieces; the block has size
    d^m_s * d^n_t and carries weight k_m - k_n. Summing weight * size over
    every block gives the determinant weight.
    """
    total = 0
    for s, t in quiver.arrows:
        for m, dm in enumerate(hn_type):
            for n, dn in enumerate(hn_type):
                total += (weights[m] - weights[n]) * dm[s - 1] * dn[t - 1]
    return total


def stratum_weight_by_blocks(quiver, hn_type, weights):
    """Weight of the subgroup on the anticanonical line of the stratum.

    The stratum fibers over the flag locus with affine fibers, so its
    tangent determinant is det(g) + det(R+) - det(p) computed blockwise:
    g is the full group Lie algebra (its determinant weight cancels to
    zero), R+ the non-negatively graded part of the representation space,
    p the parabolic. The anticanonical weight is the negative.
    """
    length = len(hn_type)
    det_g = 0
    for i in range(quiver.vertex_count):
        for m in range(length):
            for n in range(length):
                det_g += (weights[m] - weights[n]) * hn_type[m][i] * hn_type[n][i]
    det_r_plus = 0
    for s, t in quiver.arrows:
        for n in range(length):
            for m in range(n + 1, length):
                det_r_plus += (weights[n] - weights[m]) * hn_type[n][t - 1] * hn_type[m][s - 1]
    det_p = 0
    for i in range(quiver.vertex_count):
        for n in range(length):
            for m in range(n + 1, length):
                det_p += (weights[n] - weights[m]) * hn_type[n][i] * hn_type[m][i]
    return -(det_g + det_r_plus - det_p)


def codimension_by_blocks(quiver, hn_type):
    """Codimension of the stratum, counted blockwise.

    For every pair of pieces m < n, the arrow blocks d^m_s * d^n_t over
    arrows s -> t are the normal directions, and the vertex blocks
    d^m_i * d^n_i are absorbed by the group; the codimension is the
    difference summed over all such pairs.
    """
    total = 0
    for m, dm in enumerate(hn_type):
        for dn in hn_type[m + 1 :]:
            total += sum(dm[s - 1] * dn[t - 1] for s, t in quiver.arrows)
            total -= sum(dm[i] * dn[i] for i in range(quiver.vertex_count))
    return total


def reference_hn_types(quiver, d, theta):
    """All HN types of d in lexicographic order, by recursion on the remainder.

    A type is a first piece e (nonzero, semistable locus nonempty, slope
    below the running bound) followed by a type of d - e bounded by
    mu(e); memoized on (remainder, bound), so it holds every tail.
    """
    d = DimensionVector(d)
    theta = StabilityParameter(theta)
    candidates = [
        (e, slope(theta, e))
        for e in subdimension_vectors(d)[1:]
        if has_semistable(quiver, e, theta)
    ]
    memo = {}

    def extend(rest, bound):
        if rest.is_zero():
            return ((),)
        key = (rest, bound)
        if key not in memo:
            memo[key] = tuple(
                (e,) + tail
                for e, mu in candidates
                if (bound is None or mu < bound) and e.leq(rest)
                for tail in extend(rest - e, mu)
            )
        return memo[key]

    return tuple(HNType(seq) for seq in extend(d, None))


def reference_verdict(quiver, d, theta):
    """The verdict by enumeration: one stratum report per HN type.

    Its cost grows with the number of HN types, exponentially in d.
    """
    d = DimensionVector(d)
    if not has_semistable(quiver, d, theta):
        raise ValueError("no semistable representation")
    failing = []
    min_codim = None
    for t in reference_hn_types(quiver, d, theta):
        if len(t) == 1:
            continue
        report = stratum_report(quiver, theta, t)
        if not report.inequality_holds:
            failing.append(t)
        if min_codim is None or report.codim < min_codim:
            min_codim = report.codim
    coprime = is_theta_coprime(theta, d)
    strong, witness = is_strongly_amply_stable(quiver, d, theta)
    vanishing = coprime and not failing
    return Verdict(
        coprime=coprime,
        acyclic=quiver.is_acyclic,
        strongly_amply_stable=strong,
        strong_failure_witness=witness,
        amply_stable=min_codim is None or min_codim >= 2,
        all_strata_inequality=not failing,
        vanishing_certified=vanishing,
        rigidity_certified=vanishing and quiver.is_acyclic,
        failing_strata=tuple(failing),
        min_unstable_codim=min_codim,
    )
