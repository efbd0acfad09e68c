"""Brute-force ground truth over small prime fields.

Test support, not production surface: enumerate every representation of
a dimension vector over F_p, read off its Harder-Narasimhan type, and
tally a census per stratum.  The census is one-sided evidence: a type
that shows up has a point over F_p, one that does not may still be
nonempty over the algebraic closure.

No quotient is ever formed.  A vector of F_p^n is numbered by its base-p
digits, a subspace is the set of its vectors' numbers, and a tuple of
subspaces, one per vertex, is one bit of an integer.  The invariant
tuples of a representation are the AND of one integer per arrow, built
once per matrix, and its HN type depends only on them.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from operator import index

from .core import BudgetExceededError, DimensionVector, Quiver, StabilityParameter, slope
from .hn import HNType

DEFAULT_BUDGET = 10_000_000


def _field_size(p: int) -> int:
    """p as an int, once it is an integer of at least 2: enough to count
    points and subspaces, so the budget can be checked before
    `_require_prime` trial-divides up to sqrt(p)."""
    try:
        n = index(p)
    except TypeError:
        n = 0
    if n < 2:
        raise ValueError(f"field size must be prime, got {p}")
    return n


def _require_prime(p: int) -> int:
    """p as an int, once it is a prime integer."""
    n = _field_size(p)
    if any(n % k == 0 for k in range(2, isqrt(n) + 1)):
        raise ValueError(f"field size must be prime, got {p}")
    return n


@dataclass(frozen=True)
class FiniteFieldRep:
    """A representation over F_field: one matrix per arrow, in arrow order.

    Construction checks that the field is prime, that dim has one entry
    per vertex, and that arrow s -> t has a d_t x d_s tuple of row tuples
    (so () if d_t = 0) with entries in range(field).
    """

    field: int
    quiver: Quiver
    dim: DimensionVector
    matrices: tuple

    def __post_init__(self):
        object.__setattr__(self, "field", _require_prime(self.field))
        dim = DimensionVector(self.quiver._vertex_tuple(self.dim, DimensionVector))
        object.__setattr__(self, "dim", dim)
        if len(self.matrices) != self.quiver.arrow_count:
            raise ValueError("a representation needs one matrix per arrow")
        for (s, t), m in zip(self.quiver.arrows, self.matrices):
            rows, cols, p = dim[t - 1], dim[s - 1], self.field
            if [len(row) for row in m] != [cols] * rows or not all(
                isinstance(x, int) and 0 <= x < p for row in m for x in row
            ):
                raise ValueError(f"arrow {s}->{t} needs a {rows}x{cols} matrix over range({p})")


def rep_count(field: int, q: Quiver, d: DimensionVector) -> int:
    """Number of representations of d over F_field: prod p^(d_s * d_t)."""
    total = 1
    for s, t in q.arrows:
        total *= field ** (d[s - 1] * d[t - 1])
    return total


def _all_matrices(rows: int, cols: int, p: int) -> list[tuple]:
    flats = itertools.product(range(p), repeat=rows * cols)
    return [tuple(flat[r * cols : (r + 1) * cols] for r in range(rows)) for flat in flats]


def enumerate_reps(field: int, q: Quiver, d: DimensionVector, budget: int = DEFAULT_BUDGET):
    """Yield every representation of d over F_field, in a fixed order, within the budget."""
    field = _field_size(field)
    d = q._vertex_tuple(d, DimensionVector)
    needed = rep_count(field, q, d)
    if needed > budget:
        raise BudgetExceededError(needed, budget)
    _require_prime(field)
    per_arrow = [_all_matrices(d[t - 1], d[s - 1], field) for s, t in q.arrows]
    for combo in itertools.product(*per_arrow):
        yield FiniteFieldRep(field, q, d, combo)


def _gaussian(n: int, r: int, p: int) -> int:
    """Number of r-dimensional subspaces of F_p^n (a Gaussian binomial)."""
    g = 1
    for i in range(r):
        g = g * (p ** (n - i) - 1) // (p ** (i + 1) - 1)
    return g


def subspace_count(n: int, p: int) -> int:
    """Total number of subspaces of F_p^n (Gaussian binomial sums)."""
    return sum(_gaussian(n, r, p) for r in range(n + 1))


@lru_cache(maxsize=None)
def _subspaces(n: int, p: int) -> list[tuple]:
    """Every subspace of F_p^n as its RREF basis, by dimension, zero first."""
    out = []
    for r in range(n + 1):
        for pivots in itertools.combinations(range(n), r):
            free = [(i, j) for i, c in enumerate(pivots) for j in range(c + 1, n)]
            free = [(i, j) for i, j in free if j not in pivots]
            for values in itertools.product(range(p), repeat=len(free)):
                rows = [[int(j == c) for j in range(n)] for c in pivots]
                for (i, j), x in zip(free, values):
                    rows[i][j] = x
                out.append(tuple(map(tuple, rows)))
    return out


def _number(v, p: int) -> int:
    """The vector's number: its entries are its base-p digits, first lowest."""
    return sum(c * p**i for i, c in enumerate(v))


class _Lattice:
    """Every subspace tuple of F_p^d: tuple (j_1, ..., j_n) in `_subspaces`
    order is bit sum_v j_v * stride_v.  Per vertex v, holders[v][x] is
    the set of subspaces holding vector number x; slices[v][j], slabs[v][r]
    and up_of[v][A] are the sets of tuples whose subspace at v is j, has
    dimension r, or lies in A, for A the set of subspaces above some one.
    """

    def __init__(self, p: int, d: tuple, size: int):
        self.p, self.d = p, d
        self.bases = [_subspaces(n, p) for n in d]
        self.full, stride = (1 << size) - 1, size
        self.holders, self.slices, self.slabs, self.up_of = [], [], [], []
        for n, bases in zip(d, self.bases):
            count = len(bases)
            stride //= count
            holders = [0] * p**n
            for j, basis in enumerate(bases):
                span = [(0,) * n]
                for row in basis:
                    span = [tuple((a + c * b) % p for a, b in zip(u, row))
                            for u in span for c in range(p)]
                for u in span:
                    holders[_number(u, p)] |= 1 << j
            repeat = self.full // ((1 << stride * count) - 1)  # one bit every stride * count
            slices = [(((1 << stride) - 1) << (j * stride)) * repeat for j in range(count)]
            aboves = [(1 << count) - 1] * count
            for j, basis in enumerate(bases):
                for row in basis:
                    aboves[j] &= holders[_number(row, p)]
            self.holders.append(holders)
            self.slices.append(slices)
            self.slabs.append([sum(x for x, b in zip(slices, bases) if len(b) == r)
                               for r in range(n + 1)])
            self.up_of.append({a: sum(x for k, x in enumerate(slices) if a >> k & 1)
                               for a in aboves})


_lattice = lru_cache(maxsize=8)(_Lattice)


def _checked_lattice(p: int, d: tuple, budget: int, reps: int = 0, masks: int = 0) -> _Lattice:
    """The lattice of F_p^d, once none of `reps`, its tuples, the words
    of its integers with `masks` more and the vectors its build lists
    exceeds the budget and then p, an int of at least 2, is prime.

    The build lists, per vertex v, the p^{d_v} entries of `holders` and
    the p^r vectors spanned by each r-dimensional subspace."""
    by_rank = [[_gaussian(n, r, p) for r in range(n + 1)] for n in d]
    counts = [sum(row) for row in by_rank]
    size = 1
    for c in counts:
        size *= c
    words = (2 * sum(counts) + sum(d) + len(d) + masks) * -(-size // 64)
    vectors = sum(p**n + sum(g * p**r for r, g in enumerate(row)) for n, row in zip(d, by_rank))
    for needed, what in (
        (reps, "enumeration needs {} points"),
        (size, "subspace lattice needs {} tuples"),
        (words, "subspace tables need {} 64-bit words"),
        (vectors, "subspace spans need {} vectors"),
    ):
        if needed > budget:
            raise BudgetExceededError(needed, budget, what)
    _require_prime(p)
    return _lattice(p, tuple(d), size)


def _arrow_mask(lat: _Lattice, s: int, t: int, m: tuple) -> int:
    """The tuples U with m U_s inside U_t (s, t 0-based), as bits."""
    p, holders = lat.p, lat.holders[t]
    images = {}
    groups = {}  # the subspaces at t holding the image -> those slices at s
    for j, basis in enumerate(lat.bases[s]):
        into = (1 << len(lat.bases[t])) - 1
        for row in basis:
            if row not in images:
                images[row] = _number([sum(a * b for a, b in zip(r, row)) % p for r in m], p)
            into &= holders[images[row]]
        groups[into] = groups.get(into, 0) | lat.slices[s][j]
    # for a loop s = t the AND keeps the j in groups[into] that lie in into
    return sum(src & lat.up_of[t][into] for into, src in groups.items())


def _invariants(rep: FiniteFieldRep, budget: int) -> tuple[_Lattice, int]:
    """rep's lattice of subspace tuples and its invariant tuples in it."""
    lat = _checked_lattice(rep.field, rep.dim, budget)
    inv = lat.full
    for (s, t), m in zip(rep.quiver.arrows, rep.matrices):
        inv &= _arrow_mask(lat, s - 1, t - 1, m)
    return lat, inv


@lru_cache(maxsize=1024)
def _by_slope(theta: tuple, low: tuple, d: tuple) -> list[tuple]:
    """(f, f - low) for low < f <= d, by decreasing slope, then size, of f - low."""
    fs = itertools.product(*(range(a, b + 1) for a, b in zip(low, d)))
    out = [(f, DimensionVector._trusted(a - b for a, b in zip(f, low))) for f in fs if f != low]
    out.sort(key=lambda fe: (slope(theta, fe[1]), sum(fe[1])), reverse=True)
    return out


def _type_from_invariants(lat: _Lattice, inv: int, theta: tuple) -> HNType:
    """HN type of every representation whose invariant tuples are inv.

    V_{i+1} is the invariant tuple containing V_i whose difference has the
    largest slope, then size, so the first f > dim V_i in `_by_slope` order
    that an invariant tuple has is dim V_{i+1}.  An invariant W, dim W >=
    dim V_i, not containing V_i never comes first: W/(W n V_i) lies in
    V/V_i, of slope <= mu_{i+1}, and V_i/(W n V_i) != 0 has slope >= mu_i
    > mu_{i+1}, so dim W - dim V_i has slope below mu_{i+1}.
    """
    pieces = []
    low = (0,) * len(lat.d)
    while low != lat.d:
        for f, e in _by_slope(theta, low, lat.d):
            hit = inv
            for slabs, r in zip(lat.slabs, f):
                hit &= slabs[r]
            if hit:
                break
        pieces.append(e)
        low = f
    return HNType._trusted(pieces)


def has_subrep_of_dimension(rep: FiniteFieldRep, f: DimensionVector) -> bool:
    """Does rep contain an invariant subspace tuple of dimension f?"""
    f = DimensionVector(f)
    if not f.leq(rep.dim):
        return False
    lat, inv = _invariants(rep, DEFAULT_BUDGET)
    for slabs, r in zip(lat.slabs, f):
        inv &= slabs[r]
    return inv != 0


def hn_type_of(rep: FiniteFieldRep, theta, budget: int = DEFAULT_BUDGET) -> HNType:
    """Harder-Narasimhan type of a single representation of nonzero dimension."""
    if rep.dim.is_zero():
        raise ValueError("the zero representation has no HN type")
    theta = rep.quiver._vertex_tuple(theta, StabilityParameter)
    return _type_from_invariants(*_invariants(rep, budget), theta)


def stratum_census(
    q: Quiver, d: DimensionVector, theta, field: int, budget: int = DEFAULT_BUDGET
) -> dict[HNType, int]:
    """Tally the HN type of every representation of d over F_field.

    Types come in the order of their first representation in
    `enumerate_reps`.  The integers of the matrices of each vertex pair
    count against the budget.  They are ANDed arrow by arrow, equal
    partial results merged, so each invariant set is met once.
    """
    field = _field_size(field)
    d = q._vertex_tuple(d, DimensionVector)
    if not any(d):
        raise ValueError("stratum_census requires a nonzero dimension vector")
    theta = q._vertex_tuple(theta, StabilityParameter)
    pairs = dict.fromkeys((s - 1, t - 1) for s, t in q.arrows)
    masks = sum(field ** (d[s] * d[t]) for s, t in pairs)
    lat = _checked_lattice(field, d, budget, rep_count(field, q, d), masks)
    for s, t in pairs:
        matrices = _all_matrices(d[t], d[s], field)
        pairs[s, t] = Counter(_arrow_mask(lat, s, t, m) for m in matrices)
    reached = Counter({lat.full: 1})
    for s, t in q.arrows:
        merged = Counter()
        for part, n in reached.items():
            for mask, k in pairs[s - 1, t - 1].items():
                merged[part & mask] += n * k
        reached = merged
    census = Counter()
    for inv, n in reached.items():
        census[_type_from_invariants(lat, inv, theta)] += n
    return dict(census)
