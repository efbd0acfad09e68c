"""The benchmark's fixed instances and their seeded presentation.

Every workload runs a fixed, stated set of instances.  The seed never
changes how much work an instance is: it relabels the vertices by a
permutation, shuffles the arrow list and shuffles the order in which
items run.  Relabeling gives an isomorphic problem, so the answers map
through the permutation and the work is the same up to the order in
which the lexicographic enumerations meet it.

Standard library only: run.py imports this module without importing
quivermoduli.
"""

from __future__ import annotations

import itertools
import json
import random

K3 = [[1, 2]] * 3
A3 = [[1, 2]] * 3 + [[2, 3]] * 3
TRIANGLE_A = [[1, 2]] * 5 + [[1, 3], [2, 3]]
TRIANGLE_B = [[1, 2]] + [[1, 3]] * 6 + [[2, 3]]

# verdict-ladder rungs: name -> (vertices, arrows, d, theta)
LADDER = {
    **{f"K3-{a}-{a + 1}": (2, K3, [a, a + 1], "canonical") for a in range(2, 16, 2)},
    **{f"A3-{a}": (3, A3, [a, a, a], "canonical") for a in range(3, 7)},
    # the three tests/cases.py instances, with their stated theta
    "K3-2-3-golden": (2, K3, [2, 3], [3, -2]),
    "triangle-A": (3, TRIANGLE_A, [4, 1, 4], [9, -16, -5]),
    "triangle-B": (3, TRIANGLE_B, [1, 6, 6], [42, 5, -12]),
}

# canonical-sweep quivers: name -> (vertices, arrows, dmax).  R1..R6 were
# drawn once from random.Random(1): 3 to 7 arrows s -> t with s != t.
SWEEP = {
    "K3": (2, K3, [9, 9]),
    "R1": (3, [[2, 1], [2, 1], [2, 3], [3, 1]], [3, 3, 3]),
    "R2": (3, [[2, 1], [3, 1], [3, 2]], [3, 3, 3]),
    "R3": (3, [[1, 2], [2, 1], [3, 1], [3, 1], [3, 1]], [3, 3, 3]),
    "R4": (3, [[1, 2], [2, 1], [3, 1], [3, 1], [3, 1], [3, 1]], [3, 3, 3]),
    "R5": (3, [[1, 3], [1, 3], [2, 3], [2, 3], [3, 1], [3, 1], [3, 2]], [3, 3, 3]),
    "R6": (3, [[1, 2], [1, 3], [2, 3], [2, 3], [2, 3]], [3, 3, 3]),
}

# fp-census instances: name -> (vertices, arrows, d, field)
CENSUS = {
    "K2-2-2-F3": (2, [[1, 2]] * 2, [2, 2], 3),
    "K3-1-2-F3": (2, K3, [1, 2], 3),
    "K3-1-2-F2": (2, K3, [1, 2], 2),
}

WORKLOADS = ("verdict-ladder", "canonical-sweep", "fp-census")


def permutations(n: int) -> list[tuple[int, ...]]:
    """All relabelings of n vertices; perm[i - 1] is the new label of i."""
    return list(itertools.permutations(range(1, n + 1)))


def perm_key(perm) -> str:
    return "".join(str(x) for x in perm)


def relabel_vector(v, perm) -> list[int]:
    out = [0] * len(v)
    for i, x in enumerate(v):
        out[perm[i] - 1] = x
    return out


def relabel_problem(vertices, arrows, d, theta, perm, rng) -> dict:
    new_arrows = [[perm[s - 1], perm[t - 1]] for s, t in arrows]
    rng.shuffle(new_arrows)
    return {
        "vertices": vertices,
        "arrows": new_arrows,
        "d": relabel_vector(d, perm),
        "theta": theta if theta == "canonical" else relabel_vector(theta, perm),
    }


def items(workload: str, seed: int) -> list[dict]:
    """The workload's items for this seed, in run order.

    Each item has a name, the vertex relabeling `perm`, the problem as a
    JSON-ready dict, and the workload's extra field (dmax or field).
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    out = []
    if workload == "verdict-ladder":
        table = {k: (*v, None) for k, v in LADDER.items()}
    elif workload == "canonical-sweep":
        # a sweep problem file needs d and theta; only the quiver is used
        table = {k: (n, a, dmax, "canonical", dmax) for k, (n, a, dmax) in SWEEP.items()}
    else:
        table = {k: (n, a, d, "canonical", field) for k, (n, a, d, field) in CENSUS.items()}
    for name, (n, arrows, d, theta, extra) in table.items():
        rng = random.Random(f"{seed}:{name}")
        perm = tuple(rng.sample(range(1, n + 1), n))
        item = {
            "name": name,
            "perm": perm_key(perm),
            "problem": relabel_problem(n, arrows, d, theta, perm, rng),
        }
        if workload == "canonical-sweep":
            item["dmax"] = relabel_vector(extra, perm)
        elif workload == "fp-census":
            item["field"] = extra
        out.append(item)
    random.Random(f"{seed}:order").shuffle(out)
    return out


def problem_text(item: dict) -> str:
    return json.dumps(item["problem"])


def fmt_vector(v) -> str:
    """The command line's vector format, e.g. (1,0,2)."""
    return "(" + ",".join(str(int(x)) for x in v) + ")"


def fmt_type(t) -> str:
    return "(" + ",".join(fmt_vector(p) for p in t) + ")"


def unlabel_vector(v, perm) -> tuple[int, ...]:
    """Inverse of relabel_vector: back to the instance's own labels."""
    return tuple(v[perm[i] - 1] for i in range(len(perm)))


def unlabel_type(t, perm) -> str:
    """An HN type in relabeled coordinates, printed in the instance's own labels."""
    return fmt_type(tuple(unlabel_vector(p, perm) for p in t))


def parse_perm(key: str) -> tuple[int, ...]:
    return tuple(int(c) for c in key)
