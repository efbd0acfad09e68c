"""Brute-force ground truth over small prime fields.

Test support, not production surface: enumerate every representation of
a dimension vector over F_p, extract Harder-Narasimhan types by
repeatedly splitting off the maximal-slope (then maximal-dimension)
invariant subrepresentation, and tally a census per stratum.

The census is one-sided evidence.  A type that shows up certifies its
stratum has a point over F_p; a type that does not show up proves
nothing, because small fields can miss strata that are nonempty over
the algebraic closure.

Matrices are tuples of row tuples with entries reduced mod p; a map
into a 0-dimensional space is the empty tuple, a map out of one is a
tuple of empty rows.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .core import DimensionVector, Quiver, slope
from .hn import HNType

DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """Raised instead of starting an enumeration that is too large."""

    def __init__(self, needed: int, budget: int):
        super().__init__(
            f"enumeration needs {needed} points, budget is {budget} "
            "(raise the budget to force the computation)"
        )
        self.needed = needed
        self.budget = budget


def _require_prime(p: int) -> None:
    if p < 2 or any(p % k == 0 for k in range(2, int(p**0.5) + 1)):
        raise ValueError(f"field size must be prime, got {p}")


@dataclass(frozen=True)
class FiniteFieldRep:
    """A representation over F_field: one matrix per arrow, in arrow order."""

    field: int
    quiver: Quiver
    dim: DimensionVector
    matrices: tuple


def rep_count(field: int, q: Quiver, d: DimensionVector) -> int:
    """Number of representations of d over F_field: prod p^(d_s * d_t)."""
    total = 1
    for s, t in q.arrows:
        total *= field ** (d[s - 1] * d[t - 1])
    return total


def _all_matrices(rows: int, cols: int, p: int) -> list[tuple]:
    out = []
    for flat in itertools.product(range(p), repeat=rows * cols):
        out.append(tuple(flat[r * cols : (r + 1) * cols] for r in range(rows)))
    return out


def enumerate_reps(field: int, q: Quiver, d: DimensionVector, budget: int = DEFAULT_BUDGET):
    """Yield every representation of d over F_field, deterministically.

    Refuses to start if the total count exceeds the budget.
    """
    _require_prime(field)
    d = DimensionVector(d)
    if len(d) != q.vertex_count:
        raise ValueError("dimension vector length does not match the quiver")
    needed = rep_count(field, q, d)
    if needed > budget:
        raise BudgetExceededError(needed, budget)
    per_arrow = [_all_matrices(d[t - 1], d[s - 1], field) for s, t in q.arrows]
    for combo in itertools.product(*per_arrow):
        yield FiniteFieldRep(field, q, d, combo)


# --- linear algebra mod p ---------------------------------------------------


def _mat_vec(M: tuple, v: tuple, p: int) -> tuple:
    return tuple(sum(row[i] * v[i] for i in range(len(v))) % p for row in M)


def _mat_mul(A: tuple, B: tuple, p: int) -> tuple:
    cols = len(B[0]) if B else 0
    return tuple(
        tuple(sum(row[k] * B[k][j] for k in range(len(row))) % p for j in range(cols))
        for row in A
    )


def _mat_inv(M: tuple, p: int) -> tuple:
    """Invert a square matrix over F_p by Gauss-Jordan elimination."""
    n = len(M)
    aug = [list(M[r]) + [1 if c == r else 0 for c in range(n)] for r in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] % p)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = pow(aug[col][col], p - 2, p)
        aug[col] = [x * inv % p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [(x - factor * y) % p for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def _pivot_columns(rows: tuple) -> list[int]:
    return [next(i for i, x in enumerate(row) if x) for row in rows]


def _in_span(v: tuple, rows: tuple, p: int) -> bool:
    """Membership in the row span of an RREF basis."""
    w = list(v)
    for row in rows:
        c = next(i for i, x in enumerate(row) if x)
        if w[c]:
            f = w[c]
            w = [(x - f * y) % p for x, y in zip(w, row)]
    return not any(w)


@lru_cache(maxsize=None)
def _subspaces_by_dim(n: int, p: int) -> tuple[tuple, ...]:
    """All subspaces of F_p^n as RREF bases, grouped by dimension.

    Entry r is a tuple of bases; a basis is a tuple of row vectors.
    """
    by_dim = []
    for r in range(n + 1):
        bases = []
        for pivots in itertools.combinations(range(n), r):
            pivot_set = set(pivots)
            free = [
                (i, j)
                for i, c in enumerate(pivots)
                for j in range(c + 1, n)
                if j not in pivot_set
            ]
            for values in itertools.product(range(p), repeat=len(free)):
                rows = [[0] * n for _ in range(r)]
                for i, c in enumerate(pivots):
                    rows[i][c] = 1
                for (i, j), val in zip(free, values):
                    rows[i][j] = val
                bases.append(tuple(tuple(row) for row in rows))
        by_dim.append(tuple(bases))
    return tuple(by_dim)


def subspace_count(n: int, p: int) -> int:
    """Total number of subspaces of F_p^n (Gaussian binomial sums)."""
    total = 0
    for r in range(n + 1):
        g = 1
        for i in range(r):
            g = g * (p ** (n - i) - 1) // (p ** (i + 1) - 1)
        total += g
    return total


def _check_subspace_budget(field: int, d: DimensionVector, budget: int) -> None:
    needed = 1
    for n in d:
        needed *= subspace_count(n, field)
    if needed > budget:
        raise BudgetExceededError(needed, budget)


def _is_invariant(rep: FiniteFieldRep, bases: tuple) -> bool:
    p = rep.field
    for (s, t), M in zip(rep.quiver.arrows, rep.matrices):
        target = bases[t - 1]
        for v in bases[s - 1]:
            if not _in_span(_mat_vec(M, v, p), target, p):
                return False
    return True


def _invariant_tuples(rep: FiniteFieldRep):
    """Yield (dimension vector, bases) for every invariant subspace tuple."""
    per_vertex = [
        [b for group in _subspaces_by_dim(n, rep.field) for b in group]
        for n in rep.dim
    ]
    for bases in itertools.product(*per_vertex):
        if _is_invariant(rep, bases):
            yield DimensionVector(len(b) for b in bases), bases


def has_subrep_of_dimension(rep: FiniteFieldRep, f: DimensionVector) -> bool:
    """Does rep contain an invariant subspace tuple of dimension f?"""
    f = DimensionVector(f)
    if not f.leq(rep.dim):
        return False
    per_vertex = [
        _subspaces_by_dim(n, rep.field)[r] for n, r in zip(rep.dim, f)
    ]
    return any(
        _is_invariant(rep, bases) for bases in itertools.product(*per_vertex)
    )


def _quotient(rep: FiniteFieldRep, bases: tuple) -> FiniteFieldRep:
    """Quotient of rep by an invariant subspace tuple."""
    p = rep.field
    subdims = [len(b) for b in bases]
    transforms = []
    inverses = []
    for n, basis in zip(rep.dim, bases):
        pivots = set(_pivot_columns(basis))
        columns = [list(row) for row in basis]
        for j in range(n):
            if j not in pivots:
                columns.append([1 if i == j else 0 for i in range(n)])
        T = tuple(tuple(col[r] for col in columns) for r in range(n))
        transforms.append(T)
        inverses.append(_mat_inv(T, p))
    new_matrices = []
    for (s, t), M in zip(rep.quiver.arrows, rep.matrices):
        us, ut = subdims[s - 1], subdims[t - 1]
        changed = _mat_mul(inverses[t - 1], _mat_mul(M, transforms[s - 1], p), p)
        if any(x for row in changed[ut:] for x in row[:us]):
            raise ValueError("subspace tuple is not invariant")
        new_matrices.append(tuple(row[us:] for row in changed[ut:]))
    new_dim = DimensionVector(n - u for n, u in zip(rep.dim, subdims))
    return FiniteFieldRep(p, rep.quiver, new_dim, tuple(new_matrices))


# --- HN type extraction -----------------------------------------------------


def _scss(rep: FiniteFieldRep, theta):
    """The maximal-slope, then maximal-dimension, invariant subspace tuple."""
    best = None
    best_key = None
    for e, bases in _invariant_tuples(rep):
        if e.is_zero():
            continue
        key = (slope(theta, e), sum(e))
        if best_key is None or key > best_key:
            best_key = key
            best = (e, bases)
    return best


def _hn_type(rep: FiniteFieldRep, theta) -> HNType:
    pieces = []
    cur = rep
    while not cur.dim.is_zero():
        e, bases = _scss(cur, theta)
        pieces.append(e)
        cur = _quotient(cur, bases)
    return HNType(pieces)


def hn_type_of(rep: FiniteFieldRep, theta, budget: int = DEFAULT_BUDGET) -> HNType:
    """Harder-Narasimhan type of a single representation.

    The cost driver is subspace enumeration, so the budget is checked
    against the product of per-vertex subspace counts.  Requires a
    nonzero dimension vector.
    """
    if rep.dim.is_zero():
        raise ValueError("the zero representation has no HN type")
    _check_subspace_budget(rep.field, rep.dim, budget)
    return _hn_type(rep, theta)


def stratum_census(
    q: Quiver,
    d: DimensionVector,
    theta,
    field: int,
    budget: int = DEFAULT_BUDGET,
) -> dict[HNType, int]:
    """Tally the HN type of every representation of d over F_field.

    Counts sum to rep_count(field, q, d).
    """
    d = DimensionVector(d)
    if d.is_zero():
        raise ValueError("stratum_census requires a nonzero dimension vector")
    _check_subspace_budget(field, d, budget)
    reps = enumerate_reps(field, q, d, budget)
    return dict(Counter(_hn_type(rep, theta) for rep in reps))
