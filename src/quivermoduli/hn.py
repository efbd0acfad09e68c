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
(remainder, slope bound).  It reads one table per remainder reachable
from d, built once for `windows.verdict` too: the pieces that fit in
the remainder, in slope order, with their tails and the DP minima that
tell whether a branch completes to a type.  `enumerate_hn_types` enters
every branch that completes; `verdict` enters only those that can still
fail the weight inequality.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import lcm
from operator import itemgetter, mul, sub

from .core import (
    DimensionVector,
    Quiver,
    StabilityParameter,
    slope,
    subdimension_vectors,
)
from .semistability import has_semistable


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
    representation."""
    if d is not None and t.total() != DimensionVector(d):
        raise ValueError(f"HN type sums to {tuple(t.total())}, expected {tuple(d)}")
    slopes = [slope(theta, p) for p in t]
    if any(a <= b for a, b in zip(slopes, slopes[1:])):
        raise ValueError("HN type slopes must be strictly decreasing")
    for p in t:
        if not has_semistable(q, p, theta):
            raise ValueError(f"piece {tuple(p)} admits no semistable representation")


def enumerate_hn_types(
    q: Quiver, d: DimensionVector, theta: StabilityParameter
) -> tuple[HNType, ...]:
    """All HN types for (q, d, theta), in lexicographic order.

    Requires d nonzero and theta(d) = 0.  This is `_search` entering
    every branch: each branch it enters completes to a type, so the cost
    follows types x depth, and no tail is stored.  The count grows
    exponentially with d; `windows.verdict` never enumerates them.
    """
    d = DimensionVector(d)
    if d.is_zero():
        raise ValueError("enumerate_hn_types requires a nonzero dimension vector")
    theta = StabilityParameter(theta)
    if theta.dot(d) != 0:
        raise ValueError("enumerate_hn_types requires theta(d) = 0")
    pieces = _piece_data(q, d, theta)
    return _search(d, pieces, _cut_tables(q, d, pieces), lambda e, low: True)


def _sub(a: tuple, b: tuple) -> tuple:
    return tuple(map(sub, a, b))


def _dot(a: tuple, b: tuple) -> int:
    return sum(map(mul, a, b))


def _piece_data(q: Quiver, d: DimensionVector, theta: StabilityParameter) -> list[tuple]:
    """(e, scaled slope, row, <e,e>) for every piece an HN type of d can
    have: the nonzero e <= d admitting a semistable representation, in
    lexicographic order, so d is last iff it is semistable.

    Slopes are multiplied by the lcm of the piece sizes, so they are
    integers; row = <e, ->, so <e, b> = row . b for any b.
    """
    pieces = [e for e in subdimension_vectors(d)[1:] if has_semistable(q, e, theta)]
    scale = lcm(*{sum(e) for e in pieces})
    out = []
    for e in pieces:
        row = q.left_form(e)
        out.append((e, _dot(theta, e) * (scale // sum(e)), row, _dot(row, e)))
    return out


def _cut_tables(q: Quiver, d: DimensionVector, pieces: list[tuple]) -> dict:
    """The failure and codimension DPs, one table per reachable remainder.

    tables[rest] = (c, slopes, best_f, best_g, fit) with c = N(rest) - 1,
    `fit` the pairs (piece e <= rest, rest - e) in ascending slope order,
    `slopes` theirs, and best_f[i], best_g[i] the minima of
    F(rest-e, mu_e) - mu_e c and -<e, rest-e> + G(rest-e, mu_e) over the
    first i+1 of them (None while none of them completes to a type).
    F and G are the minimum-path values of the `windows` module docstring.
    Each fit list is the AND of one bitmask per coordinate over the
    pieces in slope order (ties in lexicographic order), read in bit order.
    """
    by_slope = sorted(pieces, key=itemgetter(1))
    # below[i][v] has bit k set iff piece k of by_slope has e_i <= v
    below = [[0] * (x + 1) for x in d]
    for k, p in enumerate(by_slope):
        for row, x in zip(below, p[0]):
            row[x] |= 1 << k
    for row in below:
        for v in range(1, len(row)):
            row[v] |= row[v - 1]
    # only the remainders reachable from d
    fits = {}
    todo = [_sub(d, p[0]) for p in pieces if p[0] != d]
    while todo:
        rest = todo.pop()
        if rest in fits or not any(rest):
            continue
        mask = -1
        for row, v in zip(below, rest):
            mask &= row[v]
        fits[rest] = fit = []
        while mask:
            low = mask & -mask
            p = by_slope[low.bit_length() - 1]
            fit.append((p, _sub(rest, p[0])))
            mask ^= low
        todo.extend(tail for _, tail in fit)

    tables = {}
    for rest in sorted(fits):
        c = -q.euler_pairing(_sub(d, rest), rest) - 1
        slopes, best_f, best_g = [], [], []
        low_f = low_g = None
        for (e, s, row, ee), tail in fits[rest]:
            best = _best(tables, tail, s)
            if best is not None:
                f = best[0] - s * c
                g = best[1] + ee - _dot(row, rest)
                if low_f is None:
                    low_f, low_g = f, g
                else:
                    low_f, low_g = min(low_f, f), min(low_g, g)
            slopes.append(s)
            best_f.append(low_f)
            best_g.append(low_g)
        tables[rest] = (c, slopes, best_f, best_g, fits[rest])
    return tables


def _best(tables: dict, rest: tuple, bound: int) -> tuple[int, int] | None:
    """(F, G) at the state (rest, bound), or None if no type of rest has
    every slope below bound."""
    if not any(rest):
        return 0, 0
    c, slopes, best_f, best_g, _ = tables[rest]
    i = bisect_left(slopes, bound)
    if i == 0 or best_f[i - 1] is None:
        return None
    return bound * c + best_f[i - 1], best_g[i - 1]


def _search(d: DimensionVector, pieces: list[tuple], tables: dict, keep) -> tuple[HNType, ...]:
    """The HN types of d reached through children that `keep` accepts,
    in lexicographic order.

    Depth-first over the states (rest, bound).  The root's children are
    all pieces; those of any other state are the pieces e <= rest of
    slope below bound, the prefix of tables[rest]'s fit list found by
    bisection, tried in lexicographic order.  A child e is entered iff
    some type of rest - e has every slope below mu(e) and keep(e, low)
    holds, low being the least failure sum of the `windows` module
    docstring over the types that continue this branch.  For both
    callers every branch entered ends in at least one type.
    """
    out = []
    stack = [(d, 0, 0, ())]
    while stack:
        rest, bound, partial, prefix = stack.pop()
        if not any(rest):
            out.append(HNType._trusted(prefix))
            continue
        if prefix:
            c, slopes, _, _, fit = tables[rest]
            fit = sorted(fit[: bisect_left(slopes, bound)])
        else:  # no cut before the first piece
            c, fit = 0, [(p, _sub(d, p[0])) for p in pieces]
        children = []
        for (e, s, _, _), tail in fit:
            best = _best(tables, tail, s)
            if best is None:
                continue
            total = partial + (bound - s) * c
            if keep(e, total + best[0]):
                children.append((tail, s, total, prefix + (e,)))
        stack.extend(reversed(children))
    return tuple(out)


def pairing_table(q: Quiver, t: HNType) -> list[list[int | None]]:
    """Off-diagonal Euler pairings P[m][n] = <d^m, d^n> between the pieces.

    The diagonal is None: no stratum quantity reads it.  Codimension,
    the cuts and every window weight are sums over this one table.
    """
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


@dataclass(frozen=True)
class OneParameterSubgroup:
    """Blockwise-scaling subgroup attached to a stratum.

    `weights[m] = scale * mu(d^m)`, with `scale` the least positive
    integer clearing all slope denominators.  Weights are strictly
    decreasing and satisfy sum_m weights[m] * |d^m| = scale * theta(d).
    """

    scale: int
    weights: tuple[int, ...]


def one_parameter_subgroup(theta: StabilityParameter, t: HNType) -> OneParameterSubgroup:
    """Integral weight data of the destabilizing subgroup for type t.

    Requires the slopes of t to be strictly decreasing.
    """
    slopes = [slope(theta, p) for p in t]
    if any(a <= b for a, b in zip(slopes, slopes[1:])):
        raise ValueError("one_parameter_subgroup requires strictly decreasing slopes")
    scale = lcm(*(mu.denominator for mu in slopes))
    weights = tuple(int(scale * mu) for mu in slopes)
    return OneParameterSubgroup(scale=scale, weights=weights)
