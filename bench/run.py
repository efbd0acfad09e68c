#!/usr/bin/env python3
"""The quivermoduli benchmark.

Run from the repository root:

    python3 bench/run.py --workload verdict-ladder --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload in turn
    python3 bench/run.py --compare OLD_RESULTS NEW_RESULTS

Workloads, metrics and the predictions they test are described in
bench/README.md.  Each run writes a result file to bench/results/ and
prints, as its last line, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are
the end-to-end metrics of BENCHMARK.json; with `--trace 1` they are its
per-layer metrics, from a separate traced run.

This process never imports quivermoduli.  All library work runs in
child interpreters started with PYTHONPATH set to this checkout's src/,
each under a memory and CPU cap set with resource.setrlimit in the child.
The end-to-end times are taken at a reference speed (speed.py): each
timed child samples the speed of its CPU as it works, and its time is
scaled to what it would be at that speed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import selectors
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))
import problems  # noqa: E402
import speed  # noqa: E402
from qt import SPEED_PREFIX  # noqa: E402

MEM_CAP_BYTES = 1 << 30  # address space of one child
CPU_CAP_S = 120  # CPU seconds of one child
ITEM_CAP_S = 60  # wall seconds of one item inside a child that runs many
CHILD_CAP_S = 150  # wall seconds of one child
RUN_DEADLINE_S = 170  # a run ends within 180 s whatever its children do
SETUP_REPEATS = 11
MIN_SAMPLES = 5
LADDER_SAMPLE = {"reps": 32, "max_subspaces": 256}
SWEEP_SAMPLE = {"reps": 2, "max_subspaces": 256}

LAYERS = ("core", "semistability", "hn", "windows", "oracle", "cli")


# --- child processes ----------------------------------------------------------


@dataclass
class Child:
    status: str  # ok, exit, killed, timeout
    code: int | None
    stdout: str
    stderr: str
    wall: float
    rss_kb: int


def _limits():
    resource.setrlimit(resource.RLIMIT_AS, (MEM_CAP_BYTES, MEM_CAP_BYTES))
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_CAP_S, CPU_CAP_S + 5))


def run_child(argv: list[str], stdin: str, timeout: float) -> Child:
    """Run one capped child to completion or until `timeout` wall seconds.

    Waits with wait4 so the child's own peak RSS is known, and drains its
    pipes while it runs so a large result cannot block it.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    if timeout <= 0:
        return Child("timeout", None, "", "", 0.0, 0)
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        cwd=ROOT, env=env, preexec_fn=_limits,
    )
    pidfd = os.pidfd_open(proc.pid)
    try:
        proc.stdin.write(stdin.encode())
        proc.stdin.close()
    except BrokenPipeError:
        pass
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks = {out_fd: [], err_fd: []}
    sel = selectors.DefaultSelector()
    for fd in chunks:
        sel.register(fd, selectors.EVENT_READ)
    sel.register(pidfd, selectors.EVENT_READ)
    end = None
    timed_out = False
    try:
        while end is None or len(sel.get_map()) > 1:
            remaining = start + timeout - time.perf_counter()
            if remaining <= 0:
                proc.kill()
                timed_out = True
                break
            for key, _ in sel.select(remaining):
                if key.fd == pidfd:
                    end = time.perf_counter()
                    sel.unregister(pidfd)
                elif data := os.read(key.fd, 1 << 16):
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
    finally:
        sel.close()
        _, wait_status, usage = os.wait4(proc.pid, 0)
        os.close(pidfd)
        proc.returncode = os.waitstatus_to_exitcode(wait_status)
        proc.stdout.close()
        proc.stderr.close()
    wall = (end or time.perf_counter()) - start
    out, err = (b"".join(chunks[fd]).decode() for fd in (out_fd, err_fd))
    code = proc.returncode
    if timed_out or code == -signal.SIGXCPU:
        status = "timeout"
    elif code < 0 or "MemoryError" in err:
        status = "killed"
    else:
        status = "ok" if code == 0 else "exit"
    return Child(status, code, out, err, wall, usage.ru_maxrss)


def child_failure(child: Child) -> str:
    """The status recorded for a child that did not finish its work."""
    if child.status == "exit":
        return "refused" if child.code == 2 else "error"
    return child.status


def split_speed(child: Child) -> dict | None:
    """Take the Speedometer summary that bench/qt.py writes last to stderr
    out of the child's stderr, and return it."""
    lines = child.stderr.splitlines()
    for i in range(len(lines) - 1, -1, -1):
        if lines[i].startswith(SPEED_PREFIX):
            child.stderr = "\n".join(lines[:i] + lines[i + 1:]).strip("\n")
            child.stderr += "\n" if child.stderr else ""
            return json.loads(lines[i][len(SPEED_PREFIX):])
    return None


def run_worker(task: dict, timeout: float) -> tuple[Child, dict | None]:
    child = run_child([sys.executable, str(HERE / "worker.py")], json.dumps(task), timeout)
    if child.status != "ok":
        return child, None
    return child, json.loads(child.stdout.splitlines()[-1])


# --- statistics ---------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Percentile, q in [0, 1], interpolated between the closest ranks
    (the "inclusive" method of statistics.quantiles)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def parse_vectors(text: str) -> list[tuple[int, ...]]:
    """The vectors in a printed vector or HN type, e.g. ((1,0),(1,3))."""
    return [tuple(int(x) for x in g.split(",")) for g in re.findall(r"\(([0-9,]+)\)", text)]


# --- one run ------------------------------------------------------------------


class Run:
    """State of one benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.start = time.perf_counter()
        self.deadline = self.start + RUN_DEADLINE_S
        self.items = problems.items(workload, seed)
        self.reference = json.loads((HERE / "reference.json").read_text())
        self.failures: list[dict] = []
        self.attempted = 0
        self.peak_rss_kb = 0
        self.files = {}
        for item in self.items:
            path = workdir / f"{item['name']}.json"
            path.write_text(problems.problem_text(item))
            self.files[item["name"]] = str(path)

    def budget(self, cap: float = CHILD_CAP_S) -> float:
        return min(cap, self.deadline - time.perf_counter())

    def fail(self, item: str, status: str, detail: str = "") -> None:
        self.failures.append({"item": item, "status": status, "detail": detail[-400:]})

    def failed(self) -> int:
        """Items with at least one failure; an item can fail several checks."""
        return len({f["item"] for f in self.failures})

    def child_done(self, child: Child) -> None:
        self.peak_rss_kb = max(self.peak_rss_kb, child.rss_kb)

    # setup -------------------------------------------------------------------

    def setup(self) -> float:
        """Median time, at the reference speed, of fresh interpreters that
        import the library and generate and parse this workload's problems."""
        walls = []
        task = {"task": "setup", "workload": self.workload, "seed": self.seed}
        for _ in range(SETUP_REPEATS):
            child, result = run_worker(task, self.budget())
            if result is None:
                raise RuntimeError(f"setup failed ({child.status}): {child.stderr[-2000:]}")
            module = Path(result["module"]).resolve()
            if ROOT / "src" not in module.parents:
                raise RuntimeError(f"imported quivermoduli from {module}, not from this checkout")
            walls.append(speed.calibrated_process(child.wall, result["speed"]))
        return statistics.median(walls)

    # untraced items ---------------------------------------------------------

    def ladder_item(self, item: dict) -> tuple[float, list]:
        """One `qt verdict` process, checked against the reference."""
        name = item["name"]
        child = run_child([sys.executable, str(HERE / "qt.py"), "verdict", self.files[name]], "", self.budget())
        summary = split_speed(child)
        self.attempted += 1
        self.child_done(child)
        expected = self.reference["ladder"][name]["by_perm"][item["perm"]]
        status = child.status
        if status in ("ok", "exit"):
            if child.code == 2:
                status = "refused"
            elif child.code != expected["exit"] or child.stdout.splitlines() != expected["lines"]:
                status = "wrong"
            elif summary is None:
                status = "error"
            else:
                status = "ok"
        if status != "ok":
            self.fail(name, status, child.stderr or child.stdout)
            return child.wall, []
        raw = child.wall - summary["spent"]
        return raw, [(name, speed.calibrated_process(child.wall, summary), raw)]

    def sweep_item(self, item: dict) -> tuple[float, list]:
        """One child doing what one `qt sweep` process does for a quiver."""
        name = item["name"]
        perm = problems.parse_perm(item["perm"])
        expected = self.reference["sweep"][name]["cells"]
        task = {"task": "sweep", "item": item, "item_cap_s": ITEM_CAP_S}
        child, result = run_worker(task, self.budget())
        self.child_done(child)
        if result is None:
            for key in expected:
                self.attempted += 1
                self.fail(f"{name}:{key}", child_failure(child), child.stderr)
            return child.wall, []
        samples = []
        for e, status, seconds, row, raw in result["cells"]:
            self.attempted += 1
            key = problems.fmt_vector(problems.unlabel_vector(e, perm))
            want = expected[key]
            if status == "ok" and row != (want[:4] if want else None):
                status = "wrong"
            if status != "ok":
                self.fail(f"{name}:{key}", status)
                continue
            samples.append((f"{name}:{key}", seconds, raw))
        return child.wall - result["speed"]["spent"], samples

    def census_item(self, item: dict) -> tuple[float, list]:
        """One child making one `oracle.stratum_census` call."""
        name = item["name"]
        child, result = run_worker({"task": "census", "item": item}, self.budget())
        self.attempted += 1
        self.child_done(child)
        if result is None:
            self.fail(name, child_failure(child), child.stderr)
            return child.wall, []
        if self.census_counts(item, result["counts"]) != self.reference["census"][name]["counts"]:
            self.fail(name, "wrong")
            return child.wall - result["speed"]["spent"], []
        return child.wall - result["speed"]["spent"], [(name, result["seconds"], result["raw_seconds"])]

    def census_counts(self, item: dict, counts: list) -> dict:
        perm = problems.parse_perm(item["perm"])
        return {problems.unlabel_type(t, perm): n for t, n in counts}

    def run_item(self, item: dict) -> tuple[float, list]:
        """Run one item.  Returns its child's wall time less the bursts, and
        a (key, seconds at the reference speed, seconds as measured) sample
        for each of its parts that passed."""
        return {
            "verdict-ladder": self.ladder_item,
            "canonical-sweep": self.sweep_item,
            "fp-census": self.census_item,
        }[self.workload](item)

    def timed(self) -> tuple[float, dict, list]:
        """Closed loop, one item at a time, for `seconds`.

        One full pass first.  Then, while time is left, the next item is
        one that fits in it: first any cheap item (at most 1/20 of the
        run) with fewer than MIN_SAMPLES runs, then the item that most
        reduces the noise of the pass time, the largest t / (n (n + 1))
        for median time t over n runs.  Returns the wall time, every
        latency sample by item, and a record of each item run.
        """
        t0 = time.perf_counter()
        samples: dict[str, list[float]] = {}
        durations: dict[str, list[float]] = {}
        records = []

        def run(item):
            wall, got = self.run_item(item)
            durations.setdefault(item["name"], []).append(wall)
            for key, seconds, _ in got:
                samples.setdefault(key, []).append(seconds)
            records.append({"item": item["name"], "wall_s": wall, "samples": got})

        for item in self.items:
            run(item)
        while True:
            remaining = self.seconds - (time.perf_counter() - t0)
            median = {it["name"]: statistics.median(durations[it["name"]]) for it in self.items}
            fits = [it for it in self.items if median[it["name"]] <= remaining]
            if not fits:
                break

            def gain(it):
                t, n = median[it["name"]], len(durations[it["name"]])
                return (n < MIN_SAMPLES and t <= self.seconds / 20, t / (n * (n + 1)))

            run(max(fits, key=gain))
        return time.perf_counter() - t0, samples, records


def end_to_end(run: Run, setup_s: float, samples: dict) -> tuple[dict, dict]:
    medians = [statistics.median(v) for v in samples.values()]
    if not medians:
        raise RuntimeError("no item completed")
    metrics = {
        "setup_s": setup_s,
        # one pass over the workload at each item's median time
        "wall_s": sum(medians),
        "item_p50_ms": 1000 * percentile(medians, 0.50),
        "item_p95_ms": 1000 * percentile(medians, 0.95),
        "peak_rss_mb": run.peak_rss_kb / 1024,
    }
    info = {
        "items": len(medians),
        "samples": sum(len(v) for v in samples.values()),
        "failed_frac": run.failed() / max(run.attempted, 1),
    }
    return metrics, info


# --- traced run ----------------------------------------------------------------


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


class Traced:
    """Per-layer metrics from spans recorded around the calls into each layer."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, item, child, self time]
        self.counts: dict[str, int] = {}

    def add(self, child_index: int, result: dict) -> None:
        spans = result["spans"]
        base = len(self.spans)
        for (name, start, end, parent, item), own in zip(spans, self_times(spans)):
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, item, child_index, own])
        for k, v in result["counts"].items():
            self.counts[k] = self.counts.get(k, 0) + v

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def layer_self(self, child=None) -> dict[str, float]:
        """Self time by layer, over every span or one child's spans."""
        out = {layer: 0.0 for layer in LAYERS}
        out["unattributed"] = 0.0
        for s in self.spans:
            if child is not None and s[5] != child:
                continue
            layer = s[0].split(".")[0]
            out[layer if layer in out else "unattributed"] += s[6]
        return out


def check_instance(run: Run, item: str, ref: dict, got: dict, perm) -> None:
    """Trace-side answers: type counts, failing strata and the goldens."""
    if got.get("types") != ref["types"]:
        run.fail(item, "wrong", f"{got.get('types')} HN types, expected {ref['types']}")
    if "unstable_types" in ref and got.get("unstable") != ref["unstable_types"]:
        run.fail(item, "wrong", f"{got.get('unstable')} unstable types, expected {ref['unstable_types']}")
    golden = run.reference["goldens"].get(item, {})
    if "unstable_list" in golden:
        mine = sorted(problems.unlabel_type(t, perm) for t in got["unstable_list"])
        if mine != sorted(golden["unstable_list"]):
            run.fail(item, "wrong", "unstable strata differ from the golden table")
    if "failing" in golden and sorted(problems.unlabel_type(t, perm) for t in got["failing"]) != golden["failing"]:
        run.fail(item, "wrong", "failing strata differ from the golden list")
    if got.get("oracle_stray"):
        run.fail(item, "wrong", "the oracle found a type the enumeration lacks")


def traced(run: Run, seed: int) -> tuple[dict, list, list]:
    """One untraced pass, then the traced pass, then one `qt` process per
    item for the whole-process overhead."""
    untraced_walls = {}
    in_process = {}
    for item in run.items:
        wall, got = run.run_item(item)
        untraced_walls[item["name"]] = wall
        in_process[item["name"]] = sum(raw for _, _, raw in got)
    tr = Traced()
    traced_walls = {}
    sample = None
    if run.workload == "verdict-ladder":
        sample = dict(LADDER_SAMPLE, seed=str(seed))
    elif run.workload == "canonical-sweep":
        sample = dict(SWEEP_SAMPLE, seed=str(seed))
    overheads = []
    rows = []
    for index, item in enumerate(run.items):
        name = item["name"]
        perm = problems.parse_perm(item["perm"])
        task = {"task": "trace", "kind": run.workload, "item": item, "sample": sample}
        child, result = run_worker(task, run.budget())
        if result is None:
            run.attempted += 1
            run.fail(name, child_failure(child), child.stderr)
            continue
        run.attempted += len(result["cells"]) if "cells" in result else 1
        traced_walls[name] = child.wall
        tr.add(index, result)
        rows.append({"item": name, "wall_s": child.wall, "counts": result["counts"],
                     **{f"{k}_self_s": v for k, v in tr.layer_self(index).items()}})
        if run.workload == "verdict-ladder":
            check_instance(run, name, run.reference["ladder"][name], result, perm)
            cold = [s[2] - s[1] for s in result["spans"] if s[0] == "windows.verdict"]
            overheads.append(untraced_walls[name] - sum(cold))
        elif run.workload == "canonical-sweep":
            cells = run.reference["sweep"][name]["cells"]
            for e, got in result["cells"]:
                key = problems.fmt_vector(problems.unlabel_vector(e, perm))
                want = cells[key]
                if got["semistable"] != (want is not None):
                    run.fail(f"{name}:{key}", "wrong", "semistability differs")
                elif want is not None:
                    check_instance(run, f"{name}:{key}", {"types": want[4]}, got, perm)
            child = qt_process(run, item, ["sweep", "--dmax", ",".join(map(str, item["dmax"]))])
            rows_out = list(csv.reader(io.StringIO(child.stdout)))[1:]
            got = {problems.fmt_vector(problems.unlabel_vector(parse_vectors(r[0])[0], perm)): [x == "yes" for x in r[1:]] for r in rows_out}
            if got != {k: v[:4] for k, v in cells.items() if v is not None}:
                run.fail(name, "wrong", "qt sweep rows differ from the reference")
            overheads.append(child.wall - in_process[name])
        else:
            ref = run.reference["census"][name]
            check_instance(run, name, ref, result, perm)
            if run.census_counts(item, result["counts_by_type"]) != ref["counts"] or not result["per_rep_agrees"]:
                run.fail(name, "wrong", "census counts differ")
            child = qt_process(run, item, ["oracle-census", "--field", str(item["field"])])
            table = [line.split() for line in child.stdout.splitlines()[1:] if line.startswith("(")]
            if {problems.unlabel_type(parse_vectors(t), perm): int(n) for t, n in table} != ref["counts"]:
                run.fail(name, "wrong", "qt oracle-census counts differ from the reference")
            overheads.append(child.wall - in_process[name])
    metrics = layer_metrics(tr, overheads, sum(traced_walls.values()), sum(untraced_walls[n] for n in traced_walls))
    spans = [
        {"name": n, "start": a - run.start, "end": b - run.start, "parent": p, "item": i, "child": c}
        for n, a, b, p, i, c, _ in tr.spans
    ]
    return metrics, rows, spans


def qt_process(run: Run, item: dict, args: list[str]) -> Child:
    """One real `qt` process on the item."""
    name = item["name"]
    argv = [sys.executable, "-m", "quivermoduli.cli", args[0], run.files[name], *args[1:]]
    child = run_child(argv, "", run.budget())
    run.attempted += 1
    if child.status != "ok":
        run.fail(name, child_failure(child), child.stderr)
    return child


def layer_metrics(tr: Traced, overheads: list, traced_wall: float, untraced_wall: float) -> dict:
    c = tr.counts
    reps = tr.durations("oracle.hn_type_of")
    reports = tr.durations("windows.report")
    census = tr.total("oracle.census")
    selfs = tr.layer_self()
    out = {
        "hn.enumerate_s": tr.total("hn.enumerate"),
        "hn.enumerate_warm_s": tr.total("hn.enumerate_warm"),
        "hn.types": c.get("hn.types", 0),
        "hn.unstable_types": c.get("hn.unstable_types", 0),
        "hn.types_per_s": c.get("hn.types", 0) / tr.total("hn.enumerate"),
        "windows.reports_s": tr.total("windows.reports"),
        "windows.report_p50_us": 1e6 * statistics.median(reports),
        "windows.failing_strata": c.get("windows.failing_strata", 0),
        "windows.verdict_s": tr.total("windows.verdict"),
        "windows.verdict_warm_s": tr.total("windows.verdict_warm"),
        "semistability.generic_s": tr.total("semistability.generic"),
        "semistability.generic_warm_s": tr.total("semistability.generic_warm"),
        "semistability.generic_vectors": c.get("semistability.generic_vectors", 0),
        "semistability.has_semistable_s": tr.total("semistability.has_semistable"),
        "semistability.candidates": c.get("semistability.candidates", 0),
        "semistability.strong_ample_s": tr.total("semistability.strong_ample"),
        "core.subdims": c.get("core.subdims", 0),
        "core.coprime_s": tr.total("core.coprime"),
        "core.canonical_s": tr.total("core.canonical"),
        "oracle.census_s": census if census else sum(reps),
        "oracle.reps": c.get("oracle.reps", 0),
        "oracle.rep_p50_us": 1e6 * percentile(reps, 0.50),
        "oracle.rep_p99_us": 1e6 * percentile(reps, 0.99),
        "oracle.types_found": c.get("oracle.types_found", 0),
        "oracle.type_hit_ratio": c.get("oracle.types_found", 0) / c.get("oracle.types_enumerated", 1),
        "cli.import_s": statistics.median(tr.durations("cli.import")),
        "cli.parse_s": tr.total("cli.parse"),
        "cli.format_s": tr.total("cli.format"),
        "cli.process_overhead_s": statistics.median(overheads),
        "trace.overhead_frac": (traced_wall - untraced_wall) / untraced_wall,
        "trace.unattributed_s": selfs.pop("unattributed"),
    }
    out.update({f"{layer}.self_s": v for layer, v in selfs.items()})
    return out


# --- result files and output ---------------------------------------------------


def stamp() -> dict:
    """Where and on what code a result was measured."""
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS, prefix="problems-") as workdir:
        run = Run(workload, seed, seconds, Path(workdir))
        setup_s = run.setup()
        extra: dict = {}
        if trace:
            metrics, extra["per_item"], extra["spans"] = traced(run, seed)
        else:
            wall, samples, extra["records"] = run.timed()
            metrics, extra["info"] = end_to_end(run, setup_s, samples)
            extra["info"]["timed_wall_s"] = wall
    names = [m["name"] for m in spec()["per_layer" if trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec()["per_layer" if trace else "end_to_end"]}
    if sorted(metrics) != sorted(names):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(names))} disagree with BENCHMARK.json")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed(),
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "stamp": stamp(),
        "problems": run.items,
        "failures": run.failures,
        **result,
        **extra,
    }
    name = f"{workload}-seed{seed}-trace{int(trace)}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    (RESULTS / name).write_text(json.dumps(record))
    report(record, RESULTS / name)
    return result


def report(record: dict, path: Path) -> None:
    print(f"== {record['workload']}  seed {record['seed']}  trace {record['trace']}  -> {path.relative_to(ROOT)}")
    for name, m in record["metrics"].items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    if "info" in record:
        info = record["info"]
        print(f"  item latency over {info['items']} items, {info['samples']} samples; "
              f"timed section {info['timed_wall_s']:.2f} s")
    print(f"  failed_frac {record['failed']}/{record['attempted']} = "
          f"{record['failed'] / max(record['attempted'], 1):.4g}")
    for row in record.get("per_item", []):
        selfs = "  ".join(f"{k.split('_self')[0]}={v:.3f}" for k, v in row.items() if k.endswith("_self_s"))
        counts = row["counts"]
        print(f"  {row['item']:14s} wall={row['wall_s']:.3f}s  {selfs}  "
              f"types={counts.get('hn.types', 0)} unstable={counts.get('hn.unstable_types', 0)} "
              f"reps={counts.get('oracle.reps', 0)} "
              f"hit={counts.get('oracle.types_found', 0)}/{counts.get('oracle.types_enumerated', 0)}")
    for failure in record["failures"][:20]:
        print(f"  FAILED {failure['item']}: {failure['status']} {failure['detail'][:200]}")


# --- compare mode ---------------------------------------------------------------


def load_results(directory: Path) -> dict[str, dict[int, dict]]:
    out: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") == 0 and "metrics" in record:
            out.setdefault(record["workload"], {})[record["seed"]] = record
    return out


def judge(old: list[float], new: list[float], pairs: list[tuple[float, float]], better: str, bound: float) -> str:
    """Verdict for one metric: improved needs 9 in 10 pairs won and a median
    gap wider than the old side's quartile distance; a spread wider than
    the bound is unresolved unless every new run beats every old run."""
    sign = 1 if better == "lower" else -1
    q1, med_old, q3 = quartiles(old)
    med_new = statistics.median(new)
    wins = sum(1 for a, b in pairs if sign * (a - b) > 0)
    if pairs and wins >= 0.9 * len(pairs) and sign * (med_old - med_new) > q3 - q1:
        return "improved"
    if (q3 - q1) / med_old > bound and not all(sign * (a - b) > 0 for a in old for b in new):
        return "unresolved"
    if sign * (med_new - med_old) > bound * med_old:
        return "worse"
    return "unchanged"


def compare(old_dir: Path, new_dir: Path) -> int:
    old, new = load_results(old_dir), load_results(new_dir)
    metrics = spec()["end_to_end"]
    print(f"{'workload':16s} {'metric':12s} {'old median [q1, q3]':>32s} {'new median [q1, q3]':>32s} "
          f"{'won':>7s}  verdict")
    for workload in sorted(set(old) & set(new)):
        seeds = sorted(set(old[workload]) & set(new[workload]))
        for m in metrics:
            a = [r["metrics"][m["name"]]["value"] for r in old[workload].values()]
            b = [r["metrics"][m["name"]]["value"] for r in new[workload].values()]
            pairs = [(old[workload][s]["metrics"][m["name"]]["value"],
                      new[workload][s]["metrics"][m["name"]]["value"]) for s in seeds]
            sign = 1 if m["better"] == "lower" else -1
            wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
            cells = ["{1:.5g} [{0:.4g}, {2:.4g}]".format(*quartiles(v)) for v in (a, b)]
            print(f"{workload:16s} {m['name']:12s} {cells[0]:>32s} {cells[1]:>32s} {wins:3d}/{len(pairs):<3d}  "
                  f"{judge(a, b, pairs, m['better'], m['bound'])}")
        failed = [sum(r["failed"] for r in side[workload].values()) for side in (old, new)]
        print(f"{workload:16s} failed items: old {failed[0]}, new {failed[1]}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*problems.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("OLD_DIR", "NEW_DIR"), type=Path)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "quivermoduli" / "__init__.py").is_file():
        print(f"bench: no quivermoduli sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec()["run_seconds"]
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    else:
        parts = {w: run_workload(w, args.seed, seconds, bool(args.trace)) for w in problems.WORKLOADS}
        result = {
            "correct": all(r["correct"] for r in parts.values()),
            "attempted": sum(r["attempted"] for r in parts.values()),
            "failed": sum(r["failed"] for r in parts.values()),
            "metrics": {f"{w}/{n}": m for w, r in parts.items() for n, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
