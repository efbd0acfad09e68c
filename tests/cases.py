"""Shared test instances and frozen golden data."""

from __future__ import annotations

import random
from fractions import Fraction

from quivermoduli import DimensionVector, HNType, Quiver, StabilityParameter

# 3-Kronecker at d = (2,3), the fully worked 6-dimensional instance
KRONECKER_3 = Quiver.kronecker(3)
D_23 = DimensionVector((2, 3))
THETA_23 = StabilityParameter((3, -2))

# triangle quiver with arrow multiplicities (5,1,1): rigid but not strongly stable
TRIANGLE_A = Quiver(3, [(1, 2)] * 5 + [(1, 3), (2, 3)])
D_A = DimensionVector((4, 1, 4))
THETA_A = StabilityParameter((9, -16, -5))

# triangle quiver with arrow multiplicities (1,6,1): has a codimension-1 stratum
TRIANGLE_B = Quiver(3, [(1, 2)] + [(1, 3)] * 6 + [(2, 3)])
D_B = DimensionVector((1, 6, 6))
THETA_B = StabilityParameter((42, 5, -12))

FAILING_B = HNType(((0, 1, 0), (1, 5, 6)))

# golden data for every unstable stratum of the 3-Kronecker instance:
# hn_type -> (codim, slopes, C, k, k1 - kl, eta)
GOLDEN_UNSTABLE_23 = {
    HNType(((1, 1), (1, 2))): (3, (Fraction(1, 2), Fraction(-1, 3)), 6, (3, -2), 5, 15),
    HNType(((2, 2), (0, 1))): (4, (Fraction(1, 2), Fraction(-2)), 2, (1, -4), 5, 20),
    HNType(((2, 1), (0, 2))): (10, (Fraction(4, 3), Fraction(-2)), 3, (4, -6), 10, 100),
    HNType(((1, 0), (1, 3))): (8, (Fraction(3), Fraction(-3, 4)), 4, (12, -3), 15, 120),
    HNType(((1, 0), (1, 2), (0, 1))): (9, (Fraction(3), Fraction(-1, 3), Fraction(-2)), 3, (9, -1, -6), 15, 100),
    HNType(((1, 0), (1, 1), (0, 2))): (12, (Fraction(3), Fraction(1, 2), Fraction(-2)), 2, (6, 1, -4), 10, 90),
    HNType(((2, 0), (0, 3))): (18, (Fraction(3), Fraction(-2)), 1, (3, -2), 5, 90),
}

GOLDEN_TYPES_23 = tuple(
    sorted(list(GOLDEN_UNSTABLE_23) + [HNType(((2, 3),))])
)

# the same seven strata as rendered by the command line table
GOLDEN_STRATA_CELLS_23 = [
    ["((1,0),(1,1),(0,2))", "12", "(3,1/2,-2)", "2", "(6,1,-4)", "10", "90", "yes"],
    ["((1,0),(1,2),(0,1))", "9", "(3,-1/3,-2)", "3", "(9,-1,-6)", "15", "100", "yes"],
    ["((1,0),(1,3))", "8", "(3,-3/4)", "4", "(12,-3)", "15", "120", "yes"],
    ["((1,1),(1,2))", "3", "(1/2,-1/3)", "6", "(3,-2)", "5", "15", "yes"],
    ["((2,0),(0,3))", "18", "(3,-2)", "1", "(3,-2)", "5", "90", "yes"],
    ["((2,1),(0,2))", "10", "(4/3,-2)", "3", "(4,-6)", "10", "100", "yes"],
    ["((2,2),(0,1))", "4", "(1/2,-2)", "2", "(1,-4)", "5", "20", "yes"],
]

# instances used by the scale-invariance and implication properties
CORPUS = [
    (KRONECKER_3, D_23, THETA_23),
    (TRIANGLE_A, D_A, THETA_A),
    (TRIANGLE_B, D_B, THETA_B),
    (Quiver.kronecker(1), DimensionVector((1, 1)), StabilityParameter((1, -1))),
    (Quiver.kronecker(2), DimensionVector((1, 1)), StabilityParameter((1, -1))),
    (KRONECKER_3, DimensionVector((1, 2)), StabilityParameter((2, -1))),
    (Quiver(1, []), DimensionVector((2,)), StabilityParameter((0,))),
    (Quiver(1, [(1, 1)]), DimensionVector((1,)), StabilityParameter((0,))),
    (Quiver(3, [(1, 2), (1, 3), (2, 3)]), DimensionVector((1, 1, 1)), StabilityParameter((1, 0, -1))),
]

# (quiver, d, theta, field) for the finite-field census, small enough to
# check every representation against the quotient-based reference
CENSUS_BATTERY = [
    (KRONECKER_3, DimensionVector((1, 1)), StabilityParameter((1, -1)), 2),
    (KRONECKER_3, DimensionVector((1, 1)), StabilityParameter((1, -1)), 3),
    (KRONECKER_3, DimensionVector((1, 2)), StabilityParameter((2, -1)), 2),
    (KRONECKER_3, DimensionVector((1, 2)), StabilityParameter((2, -1)), 3),
    (Quiver.kronecker(1), DimensionVector((1, 1)), StabilityParameter((1, -1)), 2),
    (Quiver.kronecker(1), DimensionVector((2, 1)), StabilityParameter((1, -2)), 2),
    (Quiver.kronecker(1), DimensionVector((2, 1)), StabilityParameter((1, -2)), 3),
    (Quiver.kronecker(2), DimensionVector((1, 1)), StabilityParameter((1, -1)), 3),
    (Quiver(3, [(1, 2), (1, 3), (2, 3)]), DimensionVector((1, 1, 1)), StabilityParameter((1, 0, -1)), 2),
]


def random_instances(count: int, seed: int):
    """Seeded random (quiver, d, theta) triples with theta(d) = 0.

    At most 3 vertices and entries of d at most 4; total dimension is
    capped so the whole batch enumerates quickly.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, 3)
        arrows = [
            (rng.randint(1, n), rng.randint(1, n))
            for _ in range(rng.randint(0, 4))
        ]
        q = Quiver(n, arrows)
        d = DimensionVector(rng.randint(0, 4) for _ in range(n))
        if d.is_zero() or sum(d) > 9:
            continue
        if rng.random() < 0.4:
            theta = q.canonical_stability(d)
        else:
            # |d|*u - (u.d)*ones pairs to zero against d for any integer u
            u = [rng.randint(-3, 3) for _ in range(n)]
            total = sum(d)
            u_dot_d = sum(ui * di for ui, di in zip(u, d))
            theta = StabilityParameter(total * ui - u_dot_d for ui in u)
        out.append((q, d, theta))
    return out
