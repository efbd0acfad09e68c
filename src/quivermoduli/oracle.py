"""Brute-force ground truth over small prime fields.

Test support, not production surface: enumerate every representation of
a dimension vector over F_p, read off its Harder-Narasimhan type, and
tally a census per stratum.  The census is one-sided evidence: a type
that shows up has a point over F_p, one that does not may still be
nonempty over the algebraic closure.

No quotient is ever formed.  A vector of F_p^n is numbered by its base-p
digits, a subspace is the set of its vectors' numbers, and a tuple of
subspaces, one per vertex, is one bit of an integer.  The invariant
tuples of a representation are the AND of one integer per arrow, and its
HN type depends only on them.  The integers of a vertex pair s -> t are
built in one batch (`_arrow_masks`): a matrix is read as the numbers of
its columns, and the image of each basis row is folded from them with
tables of the sums and multiples of F_p^(d_t), kept on the lattice.  The
tables of a vertex that depend only on its dimension n are built once
per (n, p) (`_space`).  The type is read with one AND per dimension
vector tried, against the tuples of that dimension.

The HN type is an isomorphism invariant, and the GL(d_t) x GL(d_s)
orbits of the matrices of an arrow s -> t with s != t are their rank
classes.  So the census reads the first arrow, when it is not a loop,
at one matrix per rank, weighted by the size of that rank class.  An
arrow's integer does not change when its matrix M is scaled by c != 0,
since c M U_s = M U_s.  So every other arrow, and a loop first arrow,
is read at one matrix per scalar class {c M : c != 0}, weighted by its
p - 1 members, and at the zero matrix, alone in its class.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache, reduce
from math import isqrt, lcm
from operator import and_, index, mul
from typing import NamedTuple

from .core import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    DimensionVector,
    Quiver,
    StabilityParameter,
)
from .hn import HNType


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


class _Rep(NamedTuple):
    field: int
    quiver: Quiver
    dim: DimensionVector
    matrices: tuple


class FiniteFieldRep(_Rep):
    """A representation over F_field: one matrix per arrow, in arrow order.

    Construction checks that the field is prime, that dim has one entry
    per vertex, and that arrow s -> t has a d_t x d_s tuple of row tuples
    (so () if d_t = 0) with entries in range(field).
    """

    __slots__ = ()

    def __new__(cls, field: int, quiver: Quiver, dim: DimensionVector, matrices: tuple):
        field = _require_prime(field)
        dim = DimensionVector(quiver._vertex_tuple(dim, DimensionVector))
        if len(matrices) != quiver.arrow_count:
            raise ValueError("a representation needs one matrix per arrow")
        for (s, t), m in zip(quiver.arrows, matrices):
            rows, cols = dim[t - 1], dim[s - 1]
            if [len(row) for row in m] != [cols] * rows or not all(
                isinstance(x, int) and 0 <= x < field for row in m for x in row
            ):
                raise ValueError(f"arrow {s}->{t} needs a {rows}x{cols} matrix over range({field})")
        return super().__new__(cls, field, quiver, dim, matrices)


def rep_count(field: int, q: Quiver, d: DimensionVector) -> int:
    """Number of representations of d over F_field: prod p^(d_s * d_t)."""
    total = 1
    for s, t in q.arrows:
        total *= field ** (d[s - 1] * d[t - 1])
    return total


def _all_matrices(rows: int, cols: int, p: int) -> list[tuple]:
    return _shaped(itertools.product(range(p), repeat=rows * cols), rows, cols)


def _scalar_classes(rows: int, cols: int, p: int) -> list[tuple]:
    """The first matrix of each class {c M : c != 0} in `_all_matrices`
    order, in that order: zero, then each matrix whose first nonzero entry,
    row by row, is 1, the later that entry the sooner."""
    n = rows * cols
    flats = [(0,) * n] + [(0,) * i + (1,) + tail for i in reversed(range(n))
                          for tail in itertools.product(range(p), repeat=n - 1 - i)]
    return _shaped(flats, rows, cols)


def _shaped(flats, rows: int, cols: int) -> list[tuple]:
    return [tuple(flat[r * cols : (r + 1) * cols] for r in range(rows)) for flat in flats]


def _rank_classes(rows: int, cols: int, p: int) -> list[tuple[tuple, int]]:
    """(R_r, number of rank-r matrices) for r = 0..min(rows, cols), over F_p.

    R_r is the first matrix of rank r in `_all_matrices` order: zero rows,
    then rows e_cols, e_(cols-1), ..., e_(cols-r+1).  The class size is
    prod_{i<r} (p^rows - p^i)(p^cols - p^i) over |GL_r(F_p)| =
    prod_{i<r} (p^r - p^i), both products kept whole and divided once."""
    out, size, orbit, units = [], 1, 1, ()
    zero = (0,) * cols
    for r in range(min(rows, cols) + 1):
        if r:
            size *= (p**rows - p ** (r - 1)) * (p**cols - p ** (r - 1))
            orbit *= p ** (r - 1) * (p**r - 1)  # |GL_r| / |GL_(r-1)|
            units += (zero[: cols - r] + (1,) + zero[cols - r + 1 :],)
        out.append(((zero,) * (rows - r) + units, size // orbit))
    return out


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


@lru_cache(maxsize=None)
def _space(n: int, p: int) -> tuple:
    """The tables of F_p^n that do not depend on where a vertex of
    dimension n sits in a lattice: (bases, holders, aboves, rows, spans,
    ranks), subspaces numbered j in `_subspaces` order, bases[j].

    holders[x] is the set of subspaces holding vector number x, aboves[j]
    the set of those holding subspace j, and ranks[r] the numbers of the
    r-dimensional subspaces.  rows and spans let `_arrow_masks` build the
    image of every subspace from a matrix's columns.  The basis rows are
    numbered e_0, ..., e_(n-1) first, then the other nonzero vectors whose
    first nonzero entry is 1, by vector number; rows holds (k, c, i) for
    each of the others, which is c e_k plus the row numbered i, k its last
    nonzero entry.  spans holds, for each subspace j > 0, the subspace
    spanned by its basis but the last row, and that last row's number.
    """
    bases = _subspaces(n, p)
    holders = [0] * p**n
    for j, basis in enumerate(bases):
        span = [(0,) * n]
        for row in basis:
            span = [tuple((a + c * b) % p for a, b in zip(u, row)) for u in span for c in range(p)]
        for u in span:
            holders[_number(u, p)] |= 1 << j
    aboves = [(1 << len(bases)) - 1] * len(bases)
    for j, basis in enumerate(bases):
        for row in basis:
            aboves[j] &= holders[_number(row, p)]
    # a row less its last nonzero entry c e_k has a smaller number
    vectors = sorted({row for basis in bases for row in basis},
                     key=lambda row: (row.count(0) < n - 1, _number(row, p)))
    number = {row: i for i, row in enumerate(vectors)}
    place = {basis: j for j, basis in enumerate(bases)}
    rows = [(k, row[k], number[row[:k] + (0,) + row[k + 1:]])
            for row in vectors[n:] for k in [max(i for i, c in enumerate(row) if c)]]
    spans = [(place[basis[:-1]], number[basis[-1]]) for basis in bases[1:]]
    ranks = [[j for j, basis in enumerate(bases) if len(basis) == r] for r in range(n + 1)]
    return bases, holders, aboves, rows, spans, ranks


class _Lattice:
    """Every subspace tuple of F_p^d: tuple (j_1, ..., j_n) in `_subspaces`
    order is bit sum_v j_v * stride_v.  Per vertex v, bases[v], holders[v],
    rows[v] and spans[v] are those of `_space(d_v, p)`, shared by every
    vertex of that dimension; slices[v][j] and up_of[v][A] are the sets of
    tuples whose subspace at v is j or lies in A, for A the set of
    subspaces above some one.  dims[f], for each f <= d, is the set of
    tuples of dimension f.  `arithmetic(v)` holds the sums and multiples
    of F_p^(d_v).
    """

    def __init__(self, p: int, d: tuple, size: int):
        self.p, self.d = p, d
        self.full, stride = (1 << size) - 1, size
        self.bases, self.holders, self.rows, self.spans = [], [], [], []
        self.slices, self.up_of, slabs = [], [], []
        for n in d:
            bases, holders, aboves, rows, spans, ranks = _space(n, p)
            count = len(bases)
            stride //= count
            repeat = self.full // ((1 << stride * count) - 1)  # one bit every stride * count
            slices = [(((1 << stride) - 1) << (j * stride)) * repeat for j in range(count)]
            self.bases.append(bases)
            self.holders.append(holders)
            self.slices.append(slices)
            self.up_of.append({a: sum(x for k, x in enumerate(slices) if a >> k & 1)
                               for a in aboves})
            self.rows.append(rows)
            self.spans.append(spans)
            slabs.append([sum(slices[j] for j in js) for js in ranks])
        self.dims = dict(zip(itertools.product(*(range(n + 1) for n in d)),
                             (reduce(and_, masks, self.full) for masks in itertools.product(*slabs))))
        self._arithmetic = {}

    def arithmetic(self, v: int) -> tuple[list, list]:
        """(plus, times) over F_p^(d_v) by vector number, built on first use:
        plus[x][y] is x + y and times[c][x] is c x.  The lowest digit is
        added and multiplied mod p, the others by the tables of d_v - 1."""
        if v not in self._arithmetic:
            p, plus, times = self.p, [[0]], [[0]] * self.p
            for _ in range(self.d[v]):
                n = len(plus) * p
                plus = [[(x + y) % p + p * plus[x // p][y // p] for y in range(n)] for x in range(n)]
                times = [[c * x % p + p * row[x // p] for x in range(n)] for c, row in enumerate(times)]
            self._arithmetic[v] = plus, times
        return self._arithmetic[v]


_lattice = lru_cache(maxsize=8)(_Lattice)


def _checked_lattice(
    p: int, d: tuple, budget: int, arrows=(), products: int = 0, masks: int = 0
) -> _Lattice:
    """The lattice of F_p^d, once none of the census merge's `products`,
    its tuples, the words of its integers with `masks` more, the vectors
    its build lists and the entries of the arithmetic tables of `arrows`
    exceeds the budget and then p, an int of at least 2, is prime.

    The integers are two per subspace at each vertex, one per dimension
    at each vertex and one per f <= d.  The build lists, per vertex v,
    the p^{d_v} entries of `holders` and the p^r vectors spanned by each
    r-dimensional subspace.  `_arrow_masks` on an arrow s -> t (s, t
    0-based) with d_s >= 2 builds `arithmetic(t)`: p^{d_t} (p^{d_t} + p)
    entries."""
    by_rank = [[_gaussian(n, r, p) for r in range(n + 1)] for n in d]
    counts = [sum(row) for row in by_rank]
    size = dims = 1
    for c, n in zip(counts, d):
        size *= c
        dims *= n + 1
    words = (2 * sum(counts) + sum(d) + len(d) + dims + masks) * -(-size // 64)
    vectors = sum(p**n + sum(g * p**r for r, g in enumerate(row)) for n, row in zip(d, by_rank))
    entries = sum(p ** d[t] * (p ** d[t] + p) for t in {t for s, t in arrows if d[s] >= 2})
    for needed, what in (
        (products, "census merge needs {} products"),
        (size, "subspace lattice needs {} tuples"),
        (words, "subspace tables need {} 64-bit words"),
        (vectors, "subspace spans need {} vectors"),
        (entries, "arithmetic tables need {} entries"),
    ):
        if needed > budget:
            raise BudgetExceededError(needed, budget, what)
    _require_prime(p)
    return _lattice(p, tuple(d), size)


def _arrow_masks(lat: _Lattice, s: int, t: int, matrices) -> list[int]:
    """For each matrix m of s -> t (s, t 0-based), the tuples U with
    m U_s inside U_t, as bits.

    m is read as the numbers of its columns, the images of e_0, e_1, ...;
    each other basis row at s, c e_k plus an earlier row (`rows[s]`),
    has for image one multiple and one sum off `arithmetic(t)`, built
    only when there is such a row.  The subspaces at t holding the image
    of a subspace j at s hold that of its span less the last row and
    that of the last row (`spans[s]`), one AND.  The subspaces at s that
    map under the same set share one AND with the tuples above it."""
    p, steps, spans = lat.p, lat.rows[s], lat.spans[s]
    holders, slices, up_of = lat.holders[t], lat.slices[s], lat.up_of[t]
    if steps:
        plus, times = lat.arithmetic(t)
        steps = [(times[c], k, i) for k, c, i in steps]
    places = [p**i for i in range(lat.d[t])]
    zero = [0] * lat.d[s]  # the columns when d_t = 0
    top = (1 << len(lat.bases[t])) - 1
    out = []
    for m in matrices:
        images = [sum(map(mul, column, places)) for column in zip(*m)] if m else zero[:]
        for scale, k, i in steps:
            images.append(plus[images[i]][scale[images[k]]])
        into = [top]
        for parent, row in spans:
            into.append(into[parent] & holders[images[row]])
        groups = {}  # the subspaces at t holding the image -> those slices at s
        for x, src in zip(into, slices):
            groups[x] = groups.get(x, 0) | src
        # for a loop s = t the AND keeps the j in groups[into] that lie in into
        out.append(sum(src & up_of[x] for x, src in groups.items()))
    return out


def _invariants(rep: FiniteFieldRep, budget: int) -> tuple[_Lattice, int]:
    """rep's lattice of subspace tuples and its invariant tuples in it."""
    arrows = [(s - 1, t - 1) for s, t in rep.quiver.arrows]
    lat = _checked_lattice(rep.field, rep.dim, budget, arrows)
    inv = lat.full
    for (s, t), m in zip(arrows, rep.matrices):
        inv &= _arrow_masks(lat, s, t, [m])[0]
    return lat, inv


@lru_cache(maxsize=1024)
def _by_slope(theta: tuple, low: tuple, d: tuple) -> list[tuple]:
    """(f, f - low) for low < f <= d, by decreasing slope, then size, of
    f - low.  A slope theta(e) / |e| is compared as the integer
    theta(e) (L / |e|), L the lcm of 1, ..., |d|, so no Fraction is made."""
    scale = lcm(*range(1, sum(d) + 1))
    fs = itertools.product(*(range(a, b + 1) for a, b in zip(low, d)))
    out = [(f, DimensionVector._trusted(a - b for a, b in zip(f, low))) for f in fs if f != low]
    out.sort(key=lambda fe: (sum(map(mul, theta, fe[1])) * (scale // sum(fe[1])), sum(fe[1])),
             reverse=True)
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
    pieces, dims = [], lat.dims
    low = (0,) * len(lat.d)
    while low != lat.d:
        for f, e in _by_slope(theta, low, lat.d):
            if inv & dims[f]:
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
    return inv & lat.dims[f] != 0


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
    `enumerate_reps`.  The integers of each vertex pair, built in one
    `_arrow_masks` batch, count against the budget, as many as are
    built.  They are ANDed arrow by arrow, equal partial results merged,
    so each invariant set is met once.  The ANDs count too, before any
    integer is built: each arrow's merge makes at most (the bound on the
    partial results so far) x (its pair's class count) of them.  No
    representation is listed, so their number is not counted.  At p = 2
    the products can outnumber the representations, by the sum over the
    merges before the last, as a pair has 2^(d_s d_t) classes there.

    Each pair is read at one matrix per scalar class (`_scalar_classes`):
    the zero matrix, weighted 1, and each matrix M whose first nonzero
    entry is 1, weighted p - 1 for its class {c M : c != 0}.  This is
    exact: c M U_s = M U_s for every subspace U_s, so c M has the mask of
    M.  It keeps the order too: the chosen M is the first of its class in
    `_all_matrices` order, so every mask is met first where it was met
    before.

    A first arrow s -> t that is not a loop is read at one matrix R_r per
    rank r (`_rank_classes`), weighted by its class.  This is exact: for
    g in prod_v GL(d_v) with g M_1 = M'_1, the map that sends the other
    matrices M_a to g M_a is a bijection from the representations with
    first matrix M_1 to those with M'_1, and it keeps every HN type.  It
    keeps the order too.  In `enumerate_reps` order the first matrix is
    the slowest digit, so a block of M_1 that is not the first of its rank
    meets no type its rank's first block has not met, and the first
    blocks come in increasing rank, as the R_r do.  A loop's orbits are
    conjugacy classes, so a loop first arrow is read by scalar class only,
    as every later arrow is.  The R_r are first of their scalar classes,
    so a parallel arrow's batch holds their masks.
    """
    field = _field_size(field)
    d = q._vertex_tuple(d, DimensionVector)
    if not any(d):
        raise ValueError("stratum_census requires a nonzero dimension vector")
    theta = q._vertex_tuple(theta, StabilityParameter)
    arrows = [(s - 1, t - 1) for s, t in q.arrows]
    first = arrows[0] if arrows and arrows[0][0] != arrows[0][1] else None
    rest = arrows[1:] if first else arrows
    classes = {(s, t): 1 + (field ** (d[s] * d[t]) - 1) // (field - 1) for s, t in rest}
    masks = sum(classes.values())
    # `reached` holds R_0, R_1, ... of the first arrow, then at most its
    # size times the classes of each arrow merged into it
    bound = min(d[first[0]], d[first[1]]) + 1 if first is not None else 1
    if first is not None and first not in classes:
        masks += bound - 1  # R_1, R_2, ... of `_rank_classes`
    products = 0
    for pair in rest:
        products += bound * classes[pair]
        bound *= classes[pair]
    lat = _checked_lattice(field, d, budget, arrows, products, masks)
    pairs = dict.fromkeys(rest)
    by_matrix = {}  # vertex pair -> the first matrix of each scalar class -> mask
    for s, t in pairs:
        matrices = _scalar_classes(d[t], d[s], field)
        built = _arrow_masks(lat, s, t, matrices)
        by_matrix[s, t] = dict(zip(matrices, built))
        pairs[s, t] = weights = Counter({built[0]: 1})  # the zero matrix, alone in its class
        for mask in built[1:]:
            weights[mask] += field - 1
    reached = Counter({lat.full: 1})
    if first is not None:
        s, t = first
        # R_0 = 0 keeps every tuple, so its mask is lat.full, counted once;
        # a parallel arrow has built the pair's masks, R_r's among them
        ranked = _rank_classes(d[t], d[s], field)[1:]
        ranks = [m for m, _ in ranked]
        known = by_matrix.get(first) or dict(zip(ranks, _arrow_masks(lat, s, t, ranks)))
        for m, n in ranked:
            reached[known[m]] += n
    for pair in rest:
        merged = Counter()
        for part, n in reached.items():
            for mask, k in pairs[pair].items():
                merged[part & mask] += n * k
        reached = merged
    census = Counter()
    for inv, n in reached.items():
        census[_type_from_invariants(lat, inv, theta)] += n
    return dict(census)
