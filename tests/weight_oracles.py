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

The semistability references recurse on `DimensionVector`s, build the
linear form <-, e - f> from the arrow list once per f and compare
`Fraction` slopes, where `quivermoduli.semistability` works on plain int
tuples with one linear form per e read off the Euler matrix, packed
ray tests and cross-multiplied integer slopes.  The two instance flags
loop over the 0 < e < d one dot product or pair of slopes at a time,
where the library reads both off the verdict's lean pass.

`reference_hn_type_of` finds the HN type of one finite-field
representation by Gaussian elimination mod p: it tests every subspace
tuple for invariance, splits off the maximal-slope, then
maximal-dimension one, passes to the quotient and starts again, where
`quivermoduli.oracle` reads the type off bitmask tables of the invariant
tuples without forming a quotient.  `reference_arrow_mask` builds one
matrix's mask in those tables by multiplying each basis row out, where
`quivermoduli.oracle._arrow_masks` folds the images of a batch of
matrices from their column numbers.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import mul

from quivermoduli import (
    DimensionVector,
    HNType,
    StabilityParameter,
    Verdict,
    has_semistable,
    slope,
    stratum_report,
    subdimension_vectors,
)
from quivermoduli.oracle import FiniteFieldRep


@lru_cache(maxsize=None)
def reference_generic_subdimension_vectors(quiver, e):
    """Generic f <= e: f is 0 or e, or <f', e - f> >= 0 for every generic f' in f.

    <f', e - f> = sum_i f'_i (e - f)_i - sum_{arrows s->t} f'_s (e - f)_t
    is read as f' . form, the form built once per f from the arrows."""
    e = DimensionVector(e)
    result = []
    for f in subdimension_vectors(e):
        if f.is_zero() or f == e:
            result.append(f)
            continue
        rest = [x - y for x, y in zip(e, f)]
        form = rest[:]
        for s, t in quiver.arrows:
            form[s - 1] -= rest[t - 1]
        if all(
            sum(map(mul, fp, form)) >= 0
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


def reference_theta_coprime(theta, d):
    """True iff theta(e) != 0 for every 0 < e < d, one dot product per e."""
    for e in subdimension_vectors(d)[1:-1]:
        if sum(t * x for t, x in zip(theta, e)) == 0:
            return False
    return True


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
    coprime = reference_theta_coprime(theta, d)
    strong, witness = reference_strongly_amply_stable(quiver, d, theta)
    vanishing = coprime and not failing
    # the general representation is stable: theta < 0 on every generic 0 < f < d
    stable = all(
        theta.dot(f) < 0
        for f in reference_generic_subdimension_vectors(quiver, d)
        if not f.is_zero() and f != d
    )
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
        stable=stable,
    )


# --- finite-field representations by linear algebra mod p ----------------


@lru_cache(maxsize=None)
def reference_subspaces_by_dim(n, p):
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


def _mat_vec(M, v, p):
    return tuple(sum(row[i] * v[i] for i in range(len(v))) % p for row in M)


def _mat_mul(A, B, p):
    cols = len(B[0]) if B else 0
    return tuple(
        tuple(sum(row[k] * B[k][j] for k in range(len(row))) % p for j in range(cols))
        for row in A
    )


def _mat_inv(M, p):
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


def _pivot_columns(rows):
    return [next(i for i, x in enumerate(row) if x) for row in rows]


def _in_span(v, rows, p):
    """Membership in the row span of an RREF basis."""
    w = list(v)
    for row in rows:
        c = next(i for i, x in enumerate(row) if x)
        if w[c]:
            f = w[c]
            w = [(x - f * y) % p for x, y in zip(w, row)]
    return not any(w)


def _is_invariant(rep, bases):
    p = rep.field
    for (s, t), M in zip(rep.quiver.arrows, rep.matrices):
        target = bases[t - 1]
        for v in bases[s - 1]:
            if not _in_span(_mat_vec(M, v, p), target, p):
                return False
    return True


def _invariant_tuples(rep):
    """Yield (dimension vector, bases) for every invariant subspace tuple."""
    per_vertex = [
        [b for group in reference_subspaces_by_dim(n, rep.field) for b in group]
        for n in rep.dim
    ]
    for bases in itertools.product(*per_vertex):
        if _is_invariant(rep, bases):
            yield DimensionVector(len(b) for b in bases), bases


def _quotient(rep, bases):
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


def _scss(rep, theta):
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


def reference_hn_type_of(rep, theta):
    """HN type of rep: split off the scss, pass to the quotient, repeat."""
    pieces = []
    cur = rep
    while not cur.dim.is_zero():
        e, bases = _scss(cur, theta)
        pieces.append(e)
        cur = _quotient(cur, bases)
    return HNType(pieces)


def reference_subrep_dimensions(rep):
    """The dimension vectors of rep's invariant subspace tuples."""
    return {e for e, _ in _invariant_tuples(rep)}


def reference_arrow_mask(lat, s, t, m):
    """The tuples U of the lattice `lat` with m U_s inside U_t (s, t
    0-based), as bits, for one matrix m: each basis row's image is m
    times the row, numbered by its base-p digits, first lowest."""
    p, holders = lat.p, lat.holders[t]
    images = {}
    groups = {}  # the subspaces at t holding the image -> those slices at s
    for j, basis in enumerate(lat.bases[s]):
        into = (1 << len(lat.bases[t])) - 1
        for row in basis:
            if row not in images:
                image = [sum(a * b for a, b in zip(r, row)) % p for r in m]
                images[row] = sum(c * p**i for i, c in enumerate(image))
            into &= holders[images[row]]
        groups[into] = groups.get(into, 0) | lat.slices[s][j]
    return sum(src & lat.up_of[t][into] for into, src in groups.items())
