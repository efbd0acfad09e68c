"""Command line interface.

Four subcommands on JSON problem files:

    qt strata <file>         table of unstable strata and their weights
    qt verdict <file>        vanishing/rigidity certificates, exit code encodes them
    qt sweep <file> --dmax   canonical-stability survey over all d <= dmax
    qt oracle-census <file>  brute-force stratum census over a small prime field

A problem file is an object with exactly the keys "vertices", "arrows"
(1-based [source, target] pairs), "d", and "theta" (an integer vector,
or "canonical").  Exit codes: 0 rigidity certified, 10 vanishing but not
rigidity, 20 no certificate, 2 bad input.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import oracle
from .core import (
    DimensionVector,
    Quiver,
    StabilityParameter,
    subdimension_vectors,
)
from .hn import enumerate_hn_types
from .semistability import has_semistable
from .windows import moduli_dimension, stratum_report, verdict

STRATA_COLUMNS = ("hn_type", "codim", "slopes", "C", "k", "k1_minus_kl", "eta", "inequality")
SWEEP_COLUMNS = ("d", "coprime", "amply", "strongly_amply", "all_strata_inequality")
SWEEP_CELL_BUDGET = 100_000

EXIT_RIGIDITY = 0
EXIT_VANISHING = 10
EXIT_NONE = 20
EXIT_INPUT = 2


class ProblemSpecError(ValueError):
    """Bad problem file: reported on stderr with exit code 2."""


@dataclass(frozen=True)
class ProblemSpec:
    quiver: Quiver
    d: DimensionVector
    theta: StabilityParameter


def parse_problem(text: str) -> ProblemSpec:
    """Parse and validate a JSON problem description."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemSpecError(f"malformed JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ProblemSpecError("problem must be a JSON object")
    required = {"vertices", "arrows", "d", "theta"}
    unknown = sorted(set(data) - required)
    if unknown:
        raise ProblemSpecError(f"unknown keys: {', '.join(unknown)}")
    missing = sorted(required - set(data))
    if missing:
        raise ProblemSpecError(f"missing keys: {', '.join(missing)}")

    vertices = data["vertices"]
    if not isinstance(vertices, int) or isinstance(vertices, bool) or vertices < 1:
        raise ProblemSpecError(f"\"vertices\" must be a positive integer, got {vertices!r}")
    arrows = data["arrows"]
    if not isinstance(arrows, list) or not all(
        isinstance(a, list) and len(a) == 2 and all(_is_int(x) for x in a)
        for a in arrows
    ):
        raise ProblemSpecError("\"arrows\" must be a list of [source, target] integer pairs")
    try:
        quiver = Quiver(vertices, [tuple(a) for a in arrows])
    except ValueError as exc:
        raise ProblemSpecError(str(exc)) from exc

    d_raw = data["d"]
    if not isinstance(d_raw, list) or not all(_is_int(x) for x in d_raw):
        raise ProblemSpecError("\"d\" must be a list of integers")
    if len(d_raw) != vertices:
        raise ProblemSpecError(
            f"\"d\" has length {len(d_raw)}, expected {vertices}"
        )
    try:
        d = DimensionVector(d_raw)
    except ValueError as exc:
        raise ProblemSpecError(str(exc)) from exc

    theta_raw = data["theta"]
    if theta_raw == "canonical":
        if d.is_zero():
            raise ProblemSpecError("canonical theta is undefined for d = 0")
        theta = quiver.canonical_stability(d)
    else:
        if not isinstance(theta_raw, list) or not all(_is_int(x) for x in theta_raw):
            raise ProblemSpecError("\"theta\" must be \"canonical\" or a list of integers")
        if len(theta_raw) != vertices:
            raise ProblemSpecError(
                f"\"theta\" has length {len(theta_raw)}, expected {vertices}"
            )
        theta = StabilityParameter(theta_raw)
    pairing = theta.dot(d)
    if pairing != 0:
        raise ProblemSpecError(f"theta(d) = {pairing}, expected 0")
    return ProblemSpec(quiver=quiver, d=d, theta=theta)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def load_problem(path: str) -> ProblemSpec:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ProblemSpecError(f"cannot read {path}: {exc}") from exc
    return parse_problem(text)


# --- formatting --------------------------------------------------------------


def fmt_vector(v) -> str:
    return "(" + ",".join(str(int(x)) for x in v) + ")"


def fmt_hn_type(t) -> str:
    return "(" + ",".join(fmt_vector(p) for p in t) + ")"


def fmt_bool(b: bool) -> str:
    return "yes" if b else "no"


def render_table(columns, rows, fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        return buf.getvalue().rstrip("\n")
    if fmt == "md":
        lines = ["| " + " | ".join(columns) + " |"]
        lines.append("| " + " | ".join("---" for _ in columns) + " |")
        lines.extend("| " + " | ".join(row) + " |" for row in rows)
        return "\n".join(lines)
    widths = [
        max(len(col), *(len(row[i]) for row in rows)) if rows else len(col)
        for i, col in enumerate(columns)
    ]
    lines = ["  ".join(col.ljust(w) for col, w in zip(columns, widths)).rstrip()]
    lines.extend(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    )
    return "\n".join(lines)


def strata_rows(spec: ProblemSpec) -> tuple[list[list[str]], bool]:
    """Formatted table rows for the unstable strata, plus a dense-stratum flag."""
    types = enumerate_hn_types(spec.quiver, spec.d, spec.theta)
    rows = []
    dense_present = False
    for t in types:
        if len(t) == 1:
            dense_present = True
            continue
        report = stratum_report(spec.quiver, spec.theta, t)
        sub = report.subgroup
        slopes = "(" + ",".join(str(Fraction(w, sub.scale)) for w in sub.weights) + ")"
        rows.append(
            [
                fmt_hn_type(t),
                str(report.codim),
                slopes,
                str(sub.scale),
                fmt_vector(sub.weights),
                str(report.max_bundle_weight),
                str(report.window_width),
                fmt_bool(report.inequality_holds),
            ]
        )
    return rows, dense_present


# --- subcommands -------------------------------------------------------------


def cmd_strata(args) -> int:
    spec = load_problem(args.problem)
    rows, dense_present = strata_rows(spec)
    print(render_table(STRATA_COLUMNS, rows, args.format))
    if args.format == "txt":
        dense = "present" if dense_present else "absent"
        print(f"{len(rows)} unstable strata; dense semistable stratum {dense}")
    return 0


def cmd_verdict(args) -> int:
    spec = load_problem(args.problem)
    q, d, theta = spec.quiver, spec.d, spec.theta
    v = verdict(q, d, theta)

    shape = "acyclic" if q.is_acyclic else "has a directed cycle"
    vertices = "vertex" if q.vertex_count == 1 else "vertices"
    arrows = "arrow" if q.arrow_count == 1 else "arrows"
    print(f"quiver: {q.vertex_count} {vertices}, {q.arrow_count} {arrows}, {shape}")
    print(f"d = {fmt_vector(d)}, theta = {fmt_vector(theta)}")
    print(f"coprime: {fmt_bool(v.coprime)} "
          f"({'no' if v.coprime else 'some'} proper nonzero e <= d has theta(e) = 0)")
    print(f"acyclic: {fmt_bool(v.acyclic)} (rigidity needs an acyclic quiver)")
    if v.min_unstable_codim is None:
        print("amply stable: yes (no unstable strata)")
    else:
        print(f"amply stable: {fmt_bool(v.amply_stable)} "
              f"(smallest unstable stratum codimension {v.min_unstable_codim})")
    if v.strongly_amply_stable:
        print("strongly amply stable: yes (every destabilizing e <= d has <e,d-e> <= -2)")
    else:
        witness = v.strong_failure_witness
        print(f"strongly amply stable: no (witness e = {fmt_vector(witness)} "
              f"with <e,d-e> = {q.euler_pairing(witness, d - witness)})")
    if v.all_strata_inequality:
        print("strata inequality: yes (k_1 - k_l < eta on every unstable stratum)")
    else:
        failing = ", ".join(fmt_hn_type(t) for t in v.failing_strata)
        print(f"strata inequality: no (violated by {failing})")
    if v.vanishing_certified:
        print("vanishing: certified (coprime and all strata pass the weight inequality)")
    else:
        print("vanishing: not certified (this withholds the certificate, "
              "it does not disprove vanishing)")
    if v.rigidity_certified:
        print("rigidity: certified (vanishing plus an acyclic quiver)")
    else:
        print("rigidity: not certified")
    print(f"moduli dimension: {moduli_dimension(q, d)}")

    if v.rigidity_certified:
        return EXIT_RIGIDITY
    if v.vanishing_certified:
        return EXIT_VANISHING
    return EXIT_NONE


def cmd_sweep(args) -> int:
    spec = load_problem(args.problem)
    q = spec.quiver
    try:
        d_max = [int(x) for x in args.dmax.split(",")]
    except ValueError as exc:
        raise ProblemSpecError(f"--dmax must be comma-separated integers: {exc}") from exc
    if len(d_max) != q.vertex_count:
        raise ProblemSpecError(
            f"--dmax has length {len(d_max)}, expected {q.vertex_count}"
        )
    if any(x < 0 for x in d_max):
        raise ProblemSpecError("--dmax entries must be nonnegative")
    cells = 1
    for x in d_max:
        cells *= x + 1
    if cells > SWEEP_CELL_BUDGET:
        raise oracle.BudgetExceededError(
            cells, SWEEP_CELL_BUDGET, "sweep needs {} cells", "lower --dmax"
        )

    try:
        out = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    except OSError as exc:
        raise ProblemSpecError(f"cannot write {args.out}: {exc}") from exc
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        for e in subdimension_vectors(DimensionVector(d_max))[1:]:
            theta = q.canonical_stability(e)
            if not has_semistable(q, e, theta):
                continue
            v = verdict(q, e, theta)
            writer.writerow(
                [
                    fmt_vector(e),
                    fmt_bool(v.coprime),
                    fmt_bool(v.amply_stable),
                    fmt_bool(v.strongly_amply_stable),
                    fmt_bool(v.all_strata_inequality),
                ]
            )
            out.flush()
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_oracle_census(args) -> int:
    spec = load_problem(args.problem)
    budget = _env_int("QT_BUDGET", oracle.DEFAULT_BUDGET)
    census = oracle.stratum_census(
        spec.quiver, spec.d, spec.theta, args.field, budget=budget
    )
    rows = [[fmt_hn_type(t), str(census[t])] for t in sorted(census)]
    print(render_table(("hn_type", "count"), rows, "txt"))
    dim_rep = sum(
        spec.d[s - 1] * spec.d[t - 1] for s, t in spec.quiver.arrows
    )
    total = sum(census.values())
    print(f"total: {total} representations (= {args.field}^{dim_rep})")
    known = set(enumerate_hn_types(spec.quiver, spec.d, spec.theta))
    stray = [t for t in sorted(census) if t not in known]
    if stray:
        print(f"WARNING: census types missing from enumeration: "
              f"{', '.join(fmt_hn_type(t) for t in stray)}")
    return 0


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ProblemSpecError(f"{name} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ProblemSpecError(f"{name} must be positive, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qt",
        description="Harder-Narasimhan strata and quantization-window certificates "
        "for quiver moduli.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_strata = sub.add_parser("strata", help="table of unstable strata")
    p_strata.add_argument("problem", help="JSON problem file")
    p_strata.add_argument(
        "--format", choices=("txt", "csv", "md"), default="txt", help="output format"
    )
    p_strata.set_defaults(func=cmd_strata)

    p_verdict = sub.add_parser("verdict", help="vanishing/rigidity certificates")
    p_verdict.add_argument("problem", help="JSON problem file")
    p_verdict.set_defaults(func=cmd_verdict)

    p_sweep = sub.add_parser(
        "sweep", help="survey all d <= dmax at canonical stability"
    )
    p_sweep.add_argument("problem", help="JSON problem file (only the quiver is used)")
    p_sweep.add_argument("--dmax", required=True, help="comma-separated bounds, one per vertex")
    p_sweep.add_argument("--out", default="-", help="output CSV path (default stdout)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_census = sub.add_parser(
        "oracle-census", help="brute-force stratum census over a prime field"
    )
    p_census.add_argument("problem", help="JSON problem file")
    p_census.add_argument("--field", type=int, required=True, help="prime field size")
    p_census.set_defaults(func=cmd_oracle_census)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # downstream closed the pipe (e.g. | head); suppress the shutdown
        # flush error and exit quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except oracle.BudgetExceededError as exc:
        print(f"qt: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"qt: error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
