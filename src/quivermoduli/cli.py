"""Command line interface.

Four subcommands on JSON problem files:

    qt strata <file>         table of unstable strata and their weights
    qt verdict <file>        vanishing/rigidity certificates, exit code encodes them
    qt sweep <file> --dmax   canonical-stability survey over all d <= dmax
    qt oracle-census <file>  brute-force stratum census over a small prime field

A problem file is an object with exactly the keys "vertices", "arrows"
(1-based [source, target] pairs), "d", and "theta" (an integer vector,
or "canonical"); `main` loads it once and hands the checked `ProblemSpec`
to the subcommand's handler.  Exit codes: 0 rigidity certified, 10
vanishing but not rigidity, 20 no certificate, 2 bad input or a usage
error.

The command line is read against one table, `COMMANDS`, of each
subcommand's handler and options, not by `argparse`, which with
`gettext` and `locale` would cost a cold process several milliseconds.
Options take `--name VALUE` or `--name=VALUE`, before or after the file;
they are not abbreviated.  `csv` and `quivermoduli.oracle` are imported
by the subcommands that use them, so a `qt verdict` process never loads
them.
"""

from __future__ import annotations

import json
import os
import sys
from typing import NamedTuple

from .core import (
    DEFAULT_BUDGET,
    BudgetExceededError,
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


class ProblemSpec(NamedTuple):
    quiver: Quiver
    d: DimensionVector
    theta: StabilityParameter


def parse_problem(text: str) -> ProblemSpec:
    """Parse and validate a JSON problem description.

    A quiver whose vertices^2 tables exceed `QT_BUDGET` is refused with
    `BudgetExceededError` before they are allocated."""
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
    # d, theta and the budget are checked before the quiver, whose tables take vertices^2
    d = _vector(data, "d", vertices, DimensionVector, "a list of integers")
    canonical = data["theta"] == "canonical"
    if not canonical:
        theta = _vector(data, "theta", vertices, StabilityParameter,
                        "\"canonical\" or a list of integers")
    budget = _env_int("QT_BUDGET", DEFAULT_BUDGET)
    if vertices * vertices > budget:
        raise BudgetExceededError(vertices * vertices, budget, "quiver tables need {} entries")
    try:
        quiver = Quiver(vertices, [tuple(a) for a in arrows])
    except ValueError as exc:
        raise ProblemSpecError(str(exc)) from exc
    if canonical:
        if d.is_zero():
            raise ProblemSpecError("canonical theta is undefined for d = 0")
        theta = quiver.canonical_stability(d)
    pairing = theta.dot(d)
    if pairing != 0:
        raise ProblemSpecError(f"theta(d) = {pairing}, expected 0")
    return ProblemSpec(quiver=quiver, d=d, theta=theta)


def _vector(data: dict, key: str, vertices: int, kind: type, what: str):
    """data[key] as a `kind` with one entry per vertex; `what` names the
    values the key accepts."""
    raw = data[key]
    if not isinstance(raw, list) or not all(_is_int(x) for x in raw):
        raise ProblemSpecError(f"\"{key}\" must be {what}")
    if len(raw) != vertices:
        raise ProblemSpecError(f"\"{key}\" has length {len(raw)}, expected {vertices}")
    try:
        return kind(raw)
    except ValueError as exc:
        raise ProblemSpecError(str(exc)) from exc


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def load_problem(path: str) -> ProblemSpec:
    try:
        with open(path) as handle:
            text = handle.read()
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
        import csv
        import io

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
    from fractions import Fraction

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


def cmd_strata(spec: ProblemSpec, format: str) -> int:
    rows, dense_present = strata_rows(spec)
    print(render_table(STRATA_COLUMNS, rows, format))
    if format == "txt":
        dense = "present" if dense_present else "absent"
        print(f"{len(rows)} unstable strata; dense semistable stratum {dense}")
    return 0


def cmd_verdict(spec: ProblemSpec) -> int:
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
    if v.stable:
        print(f"moduli dimension: {moduli_dimension(q, d)}")
    else:
        print("moduli dimension: none (no theta-stable point)")

    if v.rigidity_certified:
        return EXIT_RIGIDITY
    if v.vanishing_certified:
        return EXIT_VANISHING
    return EXIT_NONE


def cmd_sweep(spec: ProblemSpec, dmax: str, out: str) -> int:
    import csv

    q = spec.quiver
    try:
        d_max = [int(x) for x in dmax.split(",")]
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
        raise BudgetExceededError(
            cells, SWEEP_CELL_BUDGET, "sweep needs {} cells", "lower --dmax"
        )

    try:
        sink = sys.stdout if out == "-" else open(out, "w", newline="")
    except OSError as exc:
        raise ProblemSpecError(f"cannot write {out}: {exc}") from exc
    try:
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        for e in subdimension_vectors(DimensionVector(d_max))[1:]:
            theta = q.canonical_stability(e)
            # asked first, not caught from `verdict`'s ValueError: `verdict`
            # runs `_Tables`' lean pass before it finds no semistable point
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
            sink.flush()
    finally:
        if sink is not sys.stdout:
            sink.close()
    return 0


def cmd_oracle_census(spec: ProblemSpec, field: int) -> int:
    from . import oracle

    budget = _env_int("QT_BUDGET", DEFAULT_BUDGET)
    census = oracle.stratum_census(
        spec.quiver, spec.d, spec.theta, field, budget=budget
    )
    rows = [[fmt_hn_type(t), str(census[t])] for t in sorted(census)]
    print(render_table(("hn_type", "count"), rows, "txt"))
    dim_rep = sum(
        spec.d[s - 1] * spec.d[t - 1] for s, t in spec.quiver.arrows
    )
    total = sum(census.values())
    print(f"total: {total} representations (= {field}^{dim_rep})")
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


# --- command line ------------------------------------------------------------


class Option(NamedTuple):
    """One `--name VALUE` option of a subcommand."""

    metavar: str  # "a|b|c" lists the only values accepted
    default: str | None  # None: the option is required
    help: str
    kind: type = str


# subcommand -> (handler, summary, options by name); `main` calls the handler
# with the problem loaded from FILE and each option's value as a keyword
COMMANDS = {
    "strata": (cmd_strata, "table of unstable strata", {
        "format": Option("txt|csv|md", "txt", "output format"),
    }),
    "verdict": (cmd_verdict, "vanishing/rigidity certificates", {}),
    "sweep": (cmd_sweep, "survey all d <= dmax at canonical stability", {
        "dmax": Option("V", None, "comma-separated bounds, one per vertex"),
        "out": Option("PATH", "-", "output CSV path, - for stdout"),
    }),
    "oracle-census": (cmd_oracle_census, "brute-force stratum census over a prime field", {
        "field": Option("N", None, "prime field size", int),
    }),
}
USAGE = "qt {" + ",".join(COMMANDS) + "} FILE [options]"


def usage(command: str) -> str:
    """The usage line of one subcommand, without the leading "usage: "."""
    parts = [f"qt {command} FILE"]
    for name, opt in COMMANDS[command][2].items():
        part = f"--{name} {opt.metavar}"
        parts.append(part if opt.default is None else f"[{part}]")
    return " ".join(parts)


def help_text() -> str:
    """What -h prints: the grammar, and each subcommand with its options."""
    lines = [
        f"usage: {USAGE}",
        "",
        "Harder-Narasimhan strata and quantization-window certificates for quiver moduli.",
        "FILE is a JSON problem file.  Options may come before or after FILE, as",
        "--name VALUE or --name=VALUE; a repeated option keeps its last value.",
    ]
    for command, (_, summary, options) in COMMANDS.items():
        lines += ["", f"  {usage(command)}", f"      {summary}"]
        for name, opt in options.items():
            default = "" if opt.default is None else f" (default {opt.default})"
            lines.append(f"      --{name} {opt.metavar}: {opt.help}{default}")
    return "\n".join(lines)


def _usage_error(line: str, reason: str):
    print(f"usage: {line}\nqt: error: {reason}", file=sys.stderr)
    raise SystemExit(EXIT_INPUT)


def parse_args(argv: list[str]):
    """(handler, FILE, option values by name) for the arguments after
    `qt`, read against COMMANDS.  A usage error prints the usage line and
    the reason to stderr and raises SystemExit(2); -h or --help prints
    `help_text` to stdout and raises SystemExit(0), wherever it stands."""
    if "-h" in argv or "--help" in argv:
        print(help_text())
        raise SystemExit(0)
    if not argv:
        _usage_error(USAGE, "the following arguments are required: command")
    command, *rest = argv
    if command not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        _usage_error(USAGE, f"argument command: invalid choice: {command!r} (choose from {choices})")
    handler, _, options = COMMANDS[command]
    line = usage(command)
    kwargs, files, args = {}, [], iter(rest)
    for arg in args:
        if arg == "-" or not arg.startswith("-"):
            files.append(arg)
            continue
        name, eq, value = arg[2:].partition("=")
        opt = options.get(name) if arg.startswith("--") else None
        if opt is None:
            _usage_error(line, f"unrecognized arguments: {arg}")
        if not eq:
            value = next(args, None)
            if value is None or value.startswith("--"):
                _usage_error(line, f"argument --{name}: expected one argument")
        choices = opt.metavar.split("|")
        if len(choices) > 1 and value not in choices:
            listed = ", ".join(map(repr, choices))
            _usage_error(line, f"argument --{name}: invalid choice: {value!r} (choose from {listed})")
        try:
            kwargs[name] = opt.kind(value)
        except ValueError:
            _usage_error(line, f"argument --{name}: invalid {opt.kind.__name__} value: {value!r}")
    if not files:
        _usage_error(line, "the following arguments are required: FILE")
    if len(files) > 1:
        _usage_error(line, f"unrecognized arguments: {' '.join(files[1:])}")
    for name, opt in options.items():
        if name not in kwargs:
            if opt.default is None:
                _usage_error(line, f"the following arguments are required: --{name}")
            kwargs[name] = opt.default
    return handler, files[0], kwargs


def main(argv=None) -> int:
    handler, path, options = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return handler(load_problem(path), **options)
    except BrokenPipeError:
        # downstream closed the pipe (e.g. | head); suppress the shutdown
        # flush error and exit quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except (BudgetExceededError, ValueError) as exc:
        print(f"qt: error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
