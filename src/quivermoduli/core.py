"""Quivers, dimension vectors, and stability parameters.

A quiver is a finite directed multigraph.  A representation assigns a
vector space of dimension d_i to each vertex i and a linear map to each
arrow.  A stability parameter theta is an integer vector with
theta(d) = 0; it induces the slope function

    mu(e) = theta(e) / |e|,   |e| = sum of entries,

defined for nonzero dimension vectors e.  Everything in this module is
exact: slopes are `fractions.Fraction`, all other data is integer.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from operator import index, mul
from typing import Iterable


DEFAULT_BUDGET = 10_000_000  # `QT_BUDGET`'s default, the one bound on work and memory


class BudgetExceededError(RuntimeError):
    """Raised instead of starting a computation that is too large.

    `what` names the counted quantity, a format string whose `{}` takes
    `needed`; `remedy` says how to get past the refusal."""

    def __init__(
        self,
        needed: int,
        budget: int,
        what: str = "enumeration needs {} points",
        remedy: str = "raise the budget to force the computation",
    ):
        super().__init__(f"{what.format(needed)}, budget is {budget} ({remedy})")
        self.needed = needed
        self.budget = budget


class IntVector(tuple):
    """Immutable integer vector with componentwise arithmetic.

    Subclasses tuple, so equality, hashing, and lexicographic ordering
    come for free.  `+`, `-`, and scalar `*` are redefined to mean
    vector arithmetic rather than concatenation and repetition.
    """

    def __new__(cls, entries: Iterable[int]):
        entries = map(index, entries)
        try:
            vec = super().__new__(cls, entries)
        except TypeError as exc:
            raise ValueError(f"vector entries must be integers: {exc}") from None
        vec._check_entries()
        return vec

    @classmethod
    def _trusted(cls, entries: Iterable[int]):
        """Wrap integers that already satisfy this class's checks, unchecked:
        only for vectors the library built itself from checked input."""
        return super().__new__(cls, entries)

    def _check_entries(self) -> None:
        pass

    def _require_same_length(self, other: tuple) -> None:
        if len(self) != len(other):
            raise ValueError(
                f"vector length mismatch: {len(self)} vs {len(other)}"
            )

    def __add__(self, other):
        self._require_same_length(other)
        return type(self)(x + y for x, y in zip(self, other))

    def __sub__(self, other):
        self._require_same_length(other)
        return type(self)(x - y for x, y in zip(self, other))

    def __mul__(self, scalar):
        if not isinstance(scalar, int):
            return NotImplemented
        return type(self)(scalar * x for x in self)

    __rmul__ = __mul__

    def dot(self, other: tuple) -> int:
        self._require_same_length(other)
        return sum(x * y for x, y in zip(self, other))

    def is_zero(self) -> bool:
        return not any(self)

    def leq(self, other: tuple) -> bool:
        """Componentwise <= (a partial order, unlike tuple comparison)."""
        self._require_same_length(other)
        return all(x <= y for x, y in zip(self, other))


class DimensionVector(IntVector):
    """Dimension vector of a representation: componentwise >= 0."""

    def _check_entries(self) -> None:
        if any(x < 0 for x in self):
            raise ValueError(f"dimension vector has a negative entry: {tuple(self)}")


class StabilityParameter(IntVector):
    """Integer stability parameter, used as the linear form theta(e)."""

    def __call__(self, e: tuple) -> int:
        return self.dot(e)


class Quiver:
    """A finite directed multigraph with 1-based vertex labels.

    Arrows are (source, target) pairs; parallel arrows and loops are
    allowed.  Instances are immutable by convention and hashable, so
    they can key memoization tables.
    """

    def __init__(self, vertex_count: int, arrows: Iterable[tuple[int, int]]):
        if isinstance(vertex_count, bool) or not isinstance(vertex_count, int) or vertex_count < 1:
            raise ValueError(f"vertex_count must be a positive integer, got {vertex_count!r}")
        self.vertex_count = vertex_count
        checked = []
        for arrow in arrows:
            try:
                s, t = map(index, arrow)
            except TypeError:
                raise ValueError(f"arrow {arrow!r} must join integer vertices") from None
            if not (1 <= s <= vertex_count and 1 <= t <= vertex_count):
                raise ValueError(
                    f"arrow {tuple(arrow)} out of range for {vertex_count} vertices"
                )
            checked.append((s, t))
        self.arrows = tuple(checked)
        self._hash = hash((vertex_count, self.arrows))
        n = vertex_count
        counts = [[0] * n for _ in range(n)]
        for s, t in self.arrows:
            counts[s - 1][t - 1] += 1
        self.adjacency = tuple(tuple(row) for row in counts)
        # the Euler form I - A: <a, b> = sum_ij a_i euler_matrix[i][j] b_j
        self.euler_matrix = tuple(
            tuple(int(i == j) - counts[i][j] for j in range(n)) for i in range(n)
        )
        # the rows of A - A^T: canonical theta_i = skew_rows[i] . d
        self.skew_rows = tuple(
            tuple(counts[i][j] - counts[j][i] for j in range(n)) for i in range(n)
        )

    @classmethod
    def kronecker(cls, arrow_count: int) -> Quiver:
        """Two vertices joined by `arrow_count` parallel arrows 1 -> 2."""
        return cls(2, [(1, 2)] * arrow_count)

    @property
    def arrow_count(self) -> int:
        return len(self.arrows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Quiver):
            return NotImplemented
        return self.vertex_count == other.vertex_count and self.arrows == other.arrows

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Quiver({self.vertex_count}, {list(self.arrows)})"

    @cached_property
    def is_acyclic(self) -> bool:
        """True iff the arrow digraph has no directed cycle (loops count)."""
        n = self.vertex_count
        indegree = [0] * n
        for _, t in self.arrows:
            indegree[t - 1] += 1
        queue = [i for i in range(n) if indegree[i] == 0]
        seen = 0
        while queue:
            i = queue.pop()
            seen += 1
            for j in range(n):
                if self.adjacency[i][j]:
                    indegree[j] -= self.adjacency[i][j]
                    if indegree[j] == 0:
                        queue.append(j)
        return seen == n

    def _vertex_tuple(self, v, kind: type) -> tuple[int, ...]:
        """v as a plain tuple, once it is a valid `kind` with one entry per vertex.

        A value of type `kind` was checked when it was made."""
        if type(v) is not kind:
            v = kind(v)
        if len(v) != self.vertex_count:
            raise ValueError(
                f"vector of length {len(v)} on a quiver with {self.vertex_count} vertices"
            )
        return tuple(v)

    def left_form(self, a: tuple) -> tuple[int, ...]:
        """The linear form <a, -> as a vector: <a, b> = left_form(a) . b."""
        return tuple(sum(map(mul, a, column)) for column in zip(*self.euler_matrix))

    def right_form(self, b: tuple) -> tuple[int, ...]:
        """The linear form <-, b> as a vector: <a, b> = a . right_form(b)."""
        return tuple(sum(map(mul, row, b)) for row in self.euler_matrix)

    def euler_pairing(self, a: tuple, b: tuple) -> int:
        """Euler pairing <a, b> = sum_i a_i b_i - sum_{arrows s->t} a_s b_t."""
        n = self.vertex_count
        if len(a) != n or len(b) != n:
            raise ValueError(
                f"vectors of length {len(a)}, {len(b)} on a quiver with {n} vertices"
            )
        return sum(map(mul, a, self.right_form(b)))

    def canonical_stability(self, d: DimensionVector) -> StabilityParameter:
        """Primitive stability parameter on the ray of <d,-> - <-,d>.

        That difference is theta_i = sum_j (A_ij - A_ji) d_j, one dot
        product of d with each of `skew_rows`; it is divided by the gcd of
        its entries so that parallel arrows do not inflate the output.
        Always satisfies theta(d) = 0.
        """
        d = self._vertex_tuple(d, DimensionVector)
        if not any(d):
            raise ValueError("canonical stability is undefined for the zero vector")
        raw = [sum(map(mul, row, d)) for row in self.skew_rows]
        g = math.gcd(*raw)
        if g > 1:
            raw = [x // g for x in raw]
        return StabilityParameter._trusted(raw)


_Fraction = None  # fractions.Fraction, bound by the first `slope` call


def slope(theta: StabilityParameter, e: tuple) -> fractions.Fraction:
    """Slope mu(e) = theta(e) / |e| as an exact Fraction.

    Undefined (raises) for the zero vector.  theta and e are checked
    unless they are a `StabilityParameter` and a `DimensionVector`.
    `fractions` is imported on the first call, so a process that never
    takes a slope never loads it.
    """
    global _Fraction
    if _Fraction is None:
        from fractions import Fraction as _Fraction

    if type(theta) is not StabilityParameter:
        theta = StabilityParameter(theta)
    if type(e) is not DimensionVector:
        e = DimensionVector(e)
    if len(theta) != len(e):
        raise ValueError(f"vector length mismatch: {len(theta)} vs {len(e)}")
    total = sum(e)
    if total == 0:
        raise ValueError("slope is undefined for the zero dimension vector")
    return _Fraction(sum(map(mul, theta, e)), total)


def subdimension_vectors(d: DimensionVector) -> list[DimensionVector]:
    """All e with 0 <= e <= d componentwise, in lexicographic order.

    The first element is always the zero vector and the last is d.
    """
    if type(d) is not DimensionVector:
        d = DimensionVector(d)
    return [
        DimensionVector._trusted(e)
        for e in itertools.product(*(range(x + 1) for x in d))
    ]


def is_theta_coprime(theta: StabilityParameter, d: DimensionVector) -> bool:
    """True iff theta(e) != 0 for every 0 < e < d componentwise.

    Requires theta(d) = 0.  Coprimality forces semistable = stable, the
    setting in which the vanishing certificate applies.
    """
    d = DimensionVector(d)
    if StabilityParameter(theta).dot(d) != 0:
        raise ValueError("is_theta_coprime requires theta(d) = 0")
    for e in subdimension_vectors(d)[1:-1]:
        if sum(t * x for t, x in zip(theta, e)) == 0:
            return False
    return True
