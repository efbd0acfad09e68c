"""Quantization-window weights and the vanishing/rigidity certificates.

For each unstable HN stratum, the attached one-parameter subgroup acts
on the determinants of the canonical bundles of the ambient
representation space and of the stratum; the difference of the two
weights is the window width.  Writing k for the subgroup weights and
d^1, ..., d^l for the type,

    ambient weight   sum_{m<n} (k_n - k_m) (<d^m,d^n> - <d^n,d^m>)
    stratum weight   sum_{m<n} (k_m - k_n) <d^n,d^m>
    window width     sum_{m<n} (k_n - k_m) <d^m,d^n>

so ambient = width + stratum.  All three, and the codimension, are
sums over one table of the pairings <d^m,d^n> (`hn.pairing_table`),
evaluated once per stratum.  The stratum passes the weight
inequality when k_1 - k_l < width; if every unstable stratum
passes and theta is coprime to d, higher cohomology of the structure
sheaf vanishes on the moduli space, and acyclicity of the quiver
upgrades this to rigidity.  A failed inequality only withholds the
certificate, it does not disprove vanishing.

`verdict` decides the inequality on every unstable stratum without
listing the HN types, whose number grows exponentially with d.  Write
rest_r = d^{r+1} + ... + d^l for the remainder after r pieces and
N_r = -<d - rest_r, rest_r> for the codimension of the cut there
(`hn.codimension_cuts`).  Then k_m - k_n telescopes over the cuts
between m and n, and

    width - (k_1 - k_l) = sum_r (k_r - k_{r+1}) (N_r - 1),

so with k = C mu a stratum fails iff sum_r (mu_r - mu_{r+1}) (N_r - 1)
<= 0.  Each term depends only on the state (rest_r, mu_r) and the next
piece, so the least such sum over all types is a minimum-path value

    F(rest, mu) = min over semistable e <= rest with mu(e) < mu of
                  (mu - mu(e)) (N(rest) - 1) + F(rest - e, mu(e)),

with F(0, .) = 0; some stratum fails iff F(d - e, mu(e)) <= 0 for a
first piece e != d.  The codimension sum_r -<d^r, rest_r> is the same
recursion G with edge weight -<e, rest - e>, and its minimum is the
smallest unstable codimension.  The edge term of F is
mu (N(rest) - 1) - mu(e) (N(rest) - 1), so one table per remainder,
prefix minima over its pieces in slope order, answers every bound mu
by bisection: the cost is O(reachable remainders x pieces), polynomial
in d.  Slopes are scaled to integers, so all of it is exact.  One
depth-first search over the pieces in lexicographic order, `hn._search`,
lists both the failing types and, for `hn.enumerate_hn_types`, all
types.  For the failing ones it enters a branch only when its partial
sum plus F of its state is <= 0; each branch entered ends in a failing
type, so the search costs in proportion to the failures and returns
them sorted.  `stratum_report` is the per-stratum view `qt strata`
prints.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .core import (
    DimensionVector,
    Quiver,
    StabilityParameter,
    is_theta_coprime,
)
from .hn import (
    HNType,
    OneParameterSubgroup,
    _best,
    _cut_tables,
    _dot,
    _piece_data,
    _search,
    _sub,
    one_parameter_subgroup,
    pairing_table,
    table_codimension,
)
from .semistability import is_strongly_amply_stable


def _window_weights(table: list[list[int | None]], k: tuple[int, ...]) -> tuple[int, int]:
    """(stratum weight, window width) from the pairing table and weights k."""
    stratum = width = 0
    for m, row in enumerate(table):
        for n in range(m + 1, len(k)):
            gap = k[m] - k[n]
            width -= gap * row[n]
            stratum += gap * table[n][m]
    return stratum, width


def ambient_canonical_weight(q: Quiver, t: HNType, sub: OneParameterSubgroup) -> int:
    """Weight of the canonical bundle of the representation space."""
    return sum(_window_weights(pairing_table(q, t), sub.weights))


def stratum_canonical_weight(q: Quiver, t: HNType, sub: OneParameterSubgroup) -> int:
    """Weight of the canonical bundle of the stratum."""
    return _window_weights(pairing_table(q, t), sub.weights)[0]


def window_width(q: Quiver, t: HNType, sub: OneParameterSubgroup) -> int:
    """Weight of the determinant of the conormal bundle of the stratum.

    Equals ambient_canonical_weight - stratum_canonical_weight.
    """
    return _window_weights(pairing_table(q, t), sub.weights)[1]


def hom_bundle_weights(
    t: HNType, sub: OneParameterSubgroup, i: int, j: int
) -> Counter:
    """Subgroup weights on the hom bundle between vertices i and j.

    Weight k_m - k_n occurs with multiplicity d^m_i * d^n_j; the result
    maps weight -> multiplicity and totals d_i * d_j.  Vertices are
    1-based.
    """
    length = len(t[0])
    if not (1 <= i <= length and 1 <= j <= length):
        raise ValueError(f"vertex pair ({i}, {j}) out of range for {length} vertices")
    k = sub.weights
    out: Counter = Counter()
    for m in range(len(t)):
        for n in range(len(t)):
            mult = t[m][i - 1] * t[n][j - 1]
            if mult:
                out[k[m] - k[n]] += mult
    return out


@dataclass(frozen=True)
class StratumReport:
    """Weight data deciding the inequality on a single stratum."""

    hn_type: HNType
    subgroup: OneParameterSubgroup
    codim: int
    ambient_canonical_weight: int
    stratum_canonical_weight: int
    window_width: int
    max_bundle_weight: int
    inequality_holds: bool


def stratum_report(q: Quiver, theta: StabilityParameter, t: HNType) -> StratumReport:
    """Full weight report for one stratum.

    The dense stratum (a single piece) passes by convention: there is
    nothing to quantize away.
    """
    sub = one_parameter_subgroup(theta, t)
    table = pairing_table(q, t)
    stratum, width = _window_weights(table, sub.weights)
    max_bw = sub.weights[0] - sub.weights[-1]
    return StratumReport(
        hn_type=t,
        subgroup=sub,
        codim=table_codimension(table),
        ambient_canonical_weight=width + stratum,
        stratum_canonical_weight=stratum,
        window_width=width,
        max_bundle_weight=max_bw,
        inequality_holds=True if len(t) == 1 else max_bw < width,
    )


@dataclass(frozen=True)
class Verdict:
    """Certificate summary for one (quiver, d, theta) instance.

    `strong_failure_witness` is the lexicographically smallest e that
    breaks strong ample stability, or None when it holds.
    """

    coprime: bool
    acyclic: bool
    strongly_amply_stable: bool
    strong_failure_witness: DimensionVector | None
    amply_stable: bool
    all_strata_inequality: bool
    vanishing_certified: bool
    rigidity_certified: bool
    failing_strata: tuple[HNType, ...]
    min_unstable_codim: int | None


def verdict(q: Quiver, d: DimensionVector, theta: StabilityParameter) -> Verdict:
    """Decide the vanishing and rigidity certificates.

    vanishing_certified = coprime and every unstable stratum passes the
    weight inequality; rigidity_certified additionally needs an acyclic
    quiver.  amply_stable means every unstable stratum has codimension
    at least 2.  Requires theta(d) = 0 and a nonempty semistable locus.
    The strata are decided by the min-path DP of the module docstring,
    never by enumerating the HN types.
    """
    d = DimensionVector(d)
    theta = StabilityParameter(theta)
    if theta.dot(d) != 0:
        raise ValueError("verdict requires theta(d) = 0")
    if d.is_zero():
        raise ValueError("verdict requires a nonzero dimension vector")
    pieces = _piece_data(q, d, theta)
    if pieces[-1][0] != d:
        raise ValueError(
            "no semistable representation of dimension "
            f"({','.join(map(str, d))}) exists"
        )

    tables = _cut_tables(q, d, pieces)
    # the least codimension over the unstable types, by first piece e != d
    codims = []
    for e, s, row, ee in pieces[:-1]:
        best = _best(tables, _sub(d, e), s)
        if best is not None:
            codims.append(best[1] + ee - _dot(row, d))
    min_codim = min(codims, default=None)
    failing = _search(d, pieces, tables, lambda e, low: low <= 0 and e != d)

    coprime = is_theta_coprime(theta, d)
    strong, witness = is_strongly_amply_stable(q, d, theta)
    vanishing = coprime and not failing
    return Verdict(
        coprime=coprime,
        acyclic=q.is_acyclic,
        strongly_amply_stable=strong,
        strong_failure_witness=witness,
        amply_stable=min_codim is None or min_codim >= 2,
        all_strata_inequality=not failing,
        vanishing_certified=vanishing,
        rigidity_certified=vanishing and q.is_acyclic,
        failing_strata=failing,
        min_unstable_codim=min_codim,
    )


def moduli_dimension(q: Quiver, d: DimensionVector) -> int:
    """Dimension 1 - <d, d> of the moduli space in the coprime case."""
    return 1 - q.euler_pairing(d, d)
