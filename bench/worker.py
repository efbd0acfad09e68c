"""One benchmark child process: reads a task as JSON on stdin, prints
its result as one JSON line on stdout.

Every child is a fresh interpreter, so each task starts with empty
memo tables, as a separate `qt` process would.  run.py sets the
memory and CPU caps before this module runs; this module adds the
per-item time cap where one child runs many items.  Every task but
`trace` runs under a speed.Speedometer and reports its times at the
reference speed, with the bursts' summary under "speed".

Tasks:
  setup    import quivermoduli, generate and parse the workload's problems
  sweep    the calls `qt sweep` makes, one cell at a time, for one quiver
  census   one `oracle.stratum_census` call
  trace    the same instances with a span around each call into a layer
"""

from __future__ import annotations

import json
import random
import signal
import sys
import time
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import problems  # noqa: E402
import speed  # noqa: E402

T_START = time.perf_counter()


class ItemTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ItemTimeout()


@contextmanager
def item_cap(seconds: float):
    """Raise ItemTimeout in the item if it runs longer than `seconds`."""
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def failure_status(exc: BaseException) -> str:
    """Map an exception raised by an item to the status recorded for it."""
    if isinstance(exc, ItemTimeout):
        return "timeout"
    if isinstance(exc, MemoryError):
        return "killed"
    return "refused"


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, item id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    @contextmanager
    def span(self, name: str, item: str, start: float | None = None):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter() if start is None else start, None, parent, item])
        self.stack.append(idx)
        try:
            yield self.spans[idx]
        finally:
            self.spans[idx][2] = time.perf_counter()
            self.stack.pop()


def clear_caches(qm) -> None:
    """Empty the library's global memo tables, where it has them."""
    clear = getattr(qm, "clear_caches", None)
    if clear is not None:
        clear()


# --- untraced tasks -----------------------------------------------------------


def task_setup(task, sp):
    import quivermoduli  # noqa: F401
    from quivermoduli.cli import parse_problem

    for item in problems.items(task["workload"], task["seed"]):
        parse_problem(problems.problem_text(item))
    return {"module": quivermoduli.__file__}


def sweep_cell(qm, q, e):
    """The calls `qt sweep` makes for one cell: its CSV row, or None."""
    theta = q.canonical_stability(e)
    if not qm.has_semistable(q, e, theta):
        return None
    v = qm.verdict(q, e, theta)
    return [v.coprime, v.amply_stable, v.strongly_amply_stable, v.all_strata_inequality]


def task_sweep(task, sp):
    import quivermoduli as qm
    from quivermoduli.cli import parse_problem

    q = parse_problem(problems.problem_text(task["item"])).quiver
    cells = []
    for e in qm.subdimension_vectors(qm.DimensionVector(task["item"]["dmax"]))[1:]:
        t0, spent = time.perf_counter(), sp.spent
        try:
            with item_cap(task["item_cap_s"]):
                row, status = sweep_cell(qm, q, e), "ok"
        except (ItemTimeout, MemoryError, ValueError) as exc:
            row, status = None, failure_status(exc)
        t1 = time.perf_counter()
        cells.append([list(e), status, t0, t1, t1 - t0 - (sp.spent - spent), row])
    sp.stop()
    # [e, status, seconds at the reference speed, row, seconds as measured]
    return {"cells": [[e, status, sp.calibrated(raw, t0, t1), row, raw] for e, status, t0, t1, raw, row in cells]}


def census_counts(census) -> list:
    return [[[list(p) for p in t], n] for t, n in census.items()]


def task_census(task, sp):
    from quivermoduli import oracle
    from quivermoduli.cli import parse_problem

    spec = parse_problem(problems.problem_text(task["item"]))
    t0, spent = time.perf_counter(), sp.spent
    census = oracle.stratum_census(spec.quiver, spec.d, spec.theta, task["item"]["field"])
    t1 = time.perf_counter()
    raw = t1 - t0 - (sp.spent - spent)
    sp.stop()
    return {"seconds": sp.calibrated(raw, t0, t1), "raw_seconds": raw, "counts": census_counts(census)}


# --- traced task --------------------------------------------------------------


def random_rep(oracle, q, d, field, rng):
    matrices = tuple(
        tuple(tuple(rng.randrange(field) for _ in range(d[s - 1])) for _ in range(d[t - 1]))
        for s, t in q.arrows
    )
    return oracle.FiniteFieldRep(field, q, d, matrices)


def subspace_product(oracle, d, field) -> int:
    out = 1
    for n in d:
        out *= oracle.subspace_count(n, field)
    return out


def trace_instance(tr, qm, cli, oracle, item, spec, counts, out, sample):
    """Call each layer's public functions on one instance, one span each.

    Calls run in dependency order, so each finds the memo entries of the
    layers below it already filled and its span holds its own layer's
    work.  The cold verdict runs last, after the memo tables are emptied.
    """
    q, d, theta = spec.quiver, spec.d, spec.theta

    def count(name, n):
        counts[name] = counts.get(name, 0) + n

    clear_caches(qm)
    with tr.span("core.canonical", item):
        q.canonical_stability(d)
    with tr.span("core.subdims", item):
        subs = qm.subdimension_vectors(d)
    count("core.subdims", len(subs))
    with tr.span("core.coprime", item):
        qm.is_theta_coprime(theta, d)
    with tr.span("semistability.generic", item):
        generic = qm.generic_subdimension_vectors(q, d)
    with tr.span("semistability.generic_warm", item):
        qm.generic_subdimension_vectors(q, d)
    count("semistability.generic_vectors", len(generic))
    with tr.span("semistability.has_semistable", item):
        candidates = [e for e in subs[1:] if qm.has_semistable(q, e, theta)]
    count("semistability.candidates", len(candidates))
    semistable = bool(candidates) and candidates[-1] == d
    out["semistable"] = semistable
    if not semistable:
        return
    with tr.span("semistability.strong_ample", item):
        qm.is_strongly_amply_stable(q, d, theta)
    with tr.span("hn.enumerate", item):
        types = qm.enumerate_hn_types(q, d, theta)
    with tr.span("hn.enumerate_warm", item):
        qm.enumerate_hn_types(q, d, theta)
    unstable = [t for t in types if len(t) > 1]
    count("hn.types", len(types))
    count("hn.unstable_types", len(unstable))
    failing = []
    with tr.span("windows.reports", item):
        for t in unstable:
            with tr.span("windows.report", item):
                report = qm.stratum_report(q, theta, t)
            if not report.inequality_holds:
                failing.append(t)
    count("windows.failing_strata", len(failing))
    with tr.span("windows.verdict_warm", item):
        qm.verdict(q, d, theta)
    with tr.span("cli.format", item):
        rows, _ = cli.strata_rows(spec)
        cli.render_table(cli.STRATA_COLUMNS, rows, "txt")
    out.update(
        types=len(types),
        unstable=len(unstable),
        failing=[[list(p) for p in t] for t in failing],
        unstable_list=[[list(p) for p in t] for t in unstable] if len(unstable) <= 16 else None,
    )
    if sample and subspace_product(oracle, d, 2) <= sample["max_subspaces"]:
        # brute-force cross-check: the HN type of a random F_2 point must
        # be one of the enumerated types
        rng = random.Random(sample["seed"] + ":" + item)
        known = set(types)
        found = set()
        for _ in range(sample["reps"]):
            rep = random_rep(oracle, q, d, 2, rng)
            with tr.span("oracle.hn_type_of", item):
                t = oracle.hn_type_of(rep, theta)
            found.add(t)
        count("oracle.reps", sample["reps"])
        count("oracle.types_found", len(found))
        count("oracle.types_enumerated", len(types))
        out["oracle_stray"] = len(found - known)
    clear_caches(qm)
    with tr.span("windows.verdict", item):
        qm.verdict(q, d, theta)


def task_trace(task, sp):
    tr = Tracer()
    kind = task["kind"]
    item = task["item"]
    root = item["name"]
    counts: dict = {}
    result: dict = {"counts": counts}
    with tr.span("process", root, start=T_START):
        with tr.span("cli.import", root):
            import quivermoduli as qm
            from quivermoduli import cli, oracle
        with tr.span("cli.parse", root):
            spec = cli.parse_problem(problems.problem_text(item))
        if kind == "verdict-ladder":
            trace_instance(tr, qm, cli, oracle, root, spec, counts, result, task["sample"])
        elif kind == "canonical-sweep":
            cells = []
            for e in qm.subdimension_vectors(qm.DimensionVector(item["dmax"]))[1:]:
                cell = root + ":" + problems.fmt_vector(e)
                theta = spec.quiver.canonical_stability(e)
                cell_spec = cli.ProblemSpec(quiver=spec.quiver, d=e, theta=theta)
                cell_out: dict = {}
                with tr.span("cell", cell):
                    trace_instance(tr, qm, cli, oracle, cell, cell_spec, counts, cell_out, task["sample"])
                cells.append([list(e), cell_out])
            result["cells"] = cells
        else:
            trace_instance(tr, qm, cli, oracle, root, spec, counts, result, None)
            q, d, theta, field = spec.quiver, spec.d, spec.theta, item["field"]
            with tr.span("oracle.census", root):
                census = oracle.stratum_census(q, d, theta, field)
            tally: dict = {}
            with tr.span("oracle.reps", root):
                for rep in oracle.enumerate_reps(field, q, d):
                    with tr.span("oracle.hn_type_of", root):
                        t = oracle.hn_type_of(rep, theta)
                    tally[t] = tally.get(t, 0) + 1
            counts["oracle.reps"] = sum(tally.values())
            counts["oracle.types_found"] = len(census)
            counts["oracle.types_enumerated"] = result["types"]
            result["counts_by_type"] = census_counts(census)
            result["per_rep_agrees"] = tally == census
    result["spans"] = tr.spans
    return result


TASKS = {"setup": task_setup, "sweep": task_sweep, "census": task_census, "trace": task_trace}


def main() -> int:
    task = json.loads(sys.stdin.read())
    # the traced run reports times as measured; every other task is calibrated
    sp = None if task["task"] == "trace" else speed.Speedometer()
    if sp is not None:
        sp.start()
    result = TASKS[task["task"]](task, sp)
    if sp is not None:
        sp.stop()
        result["speed"] = sp.summary()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
