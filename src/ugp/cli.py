"""Command-line front end.

Subcommands:

* ``ugp reduce <file>``  -- dump reduced-distribution curves as CSV
* ``ugp solve <file>``   -- solve at one confidence level, print a report
* ``ugp sweep <file>``   -- solve a grid of confidence levels, emit CSV
* ``ugp tables``         -- run both bundled benchmark problems and write
  table1.csv / table2.csv

Problem files are JSON documents: a ``variables`` name list, an
``objective`` list of term records and a ``constraints`` list of term
record blocks; every term record carries ``family`` ("tri" or "tra"),
``params``, ``theta_l``, ``theta_r`` and an ``exponents`` map from
variable name to real exponent.

``solve`` is a sweep over one confidence level, so both commands run the
same pipeline and fail the same way.  An error prints ``error: <message>``
on stderr and exits with its class's ``exit_code`` (see :mod:`ugp.errors`):
0 success, 2 problem-file parse error, 3 domain error (invalid values,
infeasible or rank-deficient model, a solution outside the
double-precision range, an output that cannot be written, or any other
``ValueError``), 4 negative degree of difficulty, 5 solver
non-convergence.  A sweep exits non-zero only when every row fails, with
the code of its first failed row.  CSV output is deterministic: dot
decimal separator, 17 significant digits, LF line endings.

The argument parser is built once per process, on the first ``main``
call, and shared by every later call; it holds no per-call state.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import re
import stat
import sys
from importlib import resources
from pathlib import Path

from .chance import (
    FailedRow,
    SweepRow,
    UncertainGPProblem,
    UncertainTerm,
    solve_chance,
    sweep,
)
from .errors import (
    EXIT_DOMAIN,
    EXIT_OK,
    AlphaOutOfRange,
    ProblemFormatError,
    UGPError,
)
from .twofold import ReductionCriterion, TwoFoldVariable, curve_samples

_FAMILIES = {"tri": "triangular", "tra": "trapezoidal"}
_NUMBER_OPTIONS = ("--gamma", "--gammas", "--alpha")
_NEGATIVE = re.compile(r"-(?:[\d.]|inf|nan)", re.IGNORECASE)  # a value, not an option
_MAX_ROWS = 1_000_000  # per gamma grid or reduce curve: ~1,000x the longest run


def _fmt(value: float) -> str:
    return format(value, ".17g")


# ---------------------------------------------------------------------------
# Problem files
# ---------------------------------------------------------------------------


def load_problem(path: str | Path) -> tuple[list[str], UncertainGPProblem]:
    """Parse a JSON problem file into variable names and the problem.

    Every JSON number is read as a double, so an integer beyond the double
    range is +-inf, rejected like NaN and Infinity with a ValueError naming
    the field.  Schema violations, a boolean where a number belongs or a
    non-string ``family`` among them, raise ProblemFormatError; value
    violations (params not increasing, thetas outside [0, 1], ...) surface
    as the domain constructors' ValueError, prefixed with the term's place.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ProblemFormatError(f"cannot read problem file: {exc}") from exc
    try:
        doc = json.loads(text, parse_int=float)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"invalid JSON: {exc}") from exc

    if not isinstance(doc, dict):
        raise ProblemFormatError("problem file must be a JSON object")
    variables = doc.get("variables")
    if (
        not isinstance(variables, list)
        or not variables
        or not all(isinstance(v, str) for v in variables)
    ):
        raise ProblemFormatError("field 'variables' must be a nonempty name list")
    if len(set(variables)) != len(variables):
        raise ProblemFormatError("field 'variables' contains duplicates")

    def parse_term(record: object, where: str) -> UncertainTerm:
        if not isinstance(record, dict):
            raise ProblemFormatError(f"{where}: term record must be an object")
        for key in ("family", "params", "theta_l", "theta_r", "exponents"):
            if key not in record:
                raise ProblemFormatError(f"{where}: missing field '{key}'")
        family = record["family"]
        family = _FAMILIES.get(family) if isinstance(family, str) else None
        if family is None:
            raise ProblemFormatError(
                f"{where}: field 'family' must be 'tri' or 'tra', "
                f"got {record['family']!r}"
            )
        params = record["params"]
        # every JSON number loads as a float, and JSON true/false as bool
        if not isinstance(params, list) or not all(type(p) is float for p in params):
            raise ProblemFormatError(f"{where}: field 'params' must be a number list")
        for key in ("theta_l", "theta_r"):
            if type(record[key]) is not float:
                raise ProblemFormatError(f"{where}: field '{key}' must be a number")
        exponents = record["exponents"]
        if not isinstance(exponents, dict):
            raise ProblemFormatError(
                f"{where}: field 'exponents' must map variable names to reals"
            )
        row = [0.0] * len(variables)
        for name, power in exponents.items():
            if name not in variables:
                raise ProblemFormatError(
                    f"{where}: exponent key {name!r} is not a declared variable"
                )
            if type(power) is not float:
                raise ProblemFormatError(
                    f"{where}: exponent for {name!r} must be a number"
                )
            row[variables.index(name)] = power
        for key, values in (
            ("params", params),
            ("theta_l", [record["theta_l"]]),
            ("theta_r", [record["theta_r"]]),
            ("exponents", row),
        ):
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{where}: field '{key}' must be finite, got {values}")
        try:
            coefficient = TwoFoldVariable(
                family, tuple(params), record["theta_l"], record["theta_r"]
            )
            return UncertainTerm(coefficient=coefficient, exponents=tuple(row))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc

    objective_doc = doc.get("objective")
    if not isinstance(objective_doc, list) or not objective_doc:
        raise ProblemFormatError("field 'objective' must be a nonempty term list")
    objective = tuple(
        parse_term(rec, f"objective[{i}]") for i, rec in enumerate(objective_doc)
    )
    constraints_doc = doc.get("constraints", [])
    if not isinstance(constraints_doc, list):
        raise ProblemFormatError("field 'constraints' must be a list of term lists")
    constraints = []
    for k, block in enumerate(constraints_doc):
        if not isinstance(block, list) or not block:
            raise ProblemFormatError(
                f"constraints[{k}] must be a nonempty term list"
            )
        constraints.append(
            tuple(
                parse_term(rec, f"constraints[{k}][{i}]")
                for i, rec in enumerate(block)
            )
        )
    return list(variables), UncertainGPProblem(
        objective=objective, constraints=tuple(constraints)
    )


def bundled_problem_path(name: str) -> Path:
    """Filesystem path of a packaged benchmark problem file."""
    return Path(resources.files("ugp") / "data" / name)


# ---------------------------------------------------------------------------
# CSV helpers
# ---------------------------------------------------------------------------


def _write_csv(path: Path, header: list[str], rows: list[list[str] | str]) -> None:
    """Write the CSV over ``path`` in place, then cut off any old tail.

    A row given as a ``str`` is a comment line and is written as it is.
    Opening an existing file with ``"w"`` truncates it to zero bytes, after
    which ext4 starts a disk write on close; overwriting skips that.  A pipe
    or terminal is written as a stream, not truncated.  A path that cannot
    be opened or written raises UGPError.
    """
    flags = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)  # no CRLF on Windows
    try:
        fd = os.open(path, flags, 0o666)
        with open(fd, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                if isinstance(row, str):
                    handle.write(row + "\n")
                else:
                    writer.writerow(row)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                handle.truncate()
    except OSError as exc:
        raise UGPError(f"cannot write {path}: {exc.strerror}") from exc


def _cells(row: SweepRow) -> list[float]:
    return [row.gamma, *row.x_star, *row.delta_star, row.expected_objective]


def _write_sweep(
    path: Path, problem: UncertainGPProblem, outcomes: list[SweepRow | FailedRow]
) -> list[str]:
    """Write a sweep CSV, a failed row as a comment line; return its header."""
    n_terms = len(problem.objective) + sum(map(len, problem.constraints))
    header = (
        ["gamma"]
        + [f"x{j + 1}" for j in range(problem.n_variables)]
        + [f"delta{i + 1}" for i in range(n_terms)]
        + ["objective"]
    )
    rows = [
        f"# gamma={_fmt(o.gamma)} error={o.error}: {o.message}"
        if isinstance(o, FailedRow)
        else [_fmt(cell) for cell in _cells(o)]
        for o in outcomes
    ]
    _write_csv(path, header, rows)
    return header


def _print_table(outcomes: list[SweepRow | FailedRow], header: list[str]) -> None:
    print("  ".join(f"{name:>9s}" for name in header))
    for outcome in outcomes:
        if isinstance(outcome, FailedRow):
            print(f"# gamma={outcome.gamma:g} failed: {outcome.error}")
        else:
            print("  ".join(f"{cell:9.3f}" for cell in _cells(outcome)))


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _parse_gammas(text: str) -> list[float]:
    """A gamma grid: 'start:stop:step' (inclusive) or a comma list; '' is empty."""
    text = text.strip()
    if not text:
        return []
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("gamma range must be start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if not all(map(math.isfinite, (start, stop, step))):
            raise ValueError("gamma range start, stop and step must be finite")
        if step <= 0:
            raise ValueError("gamma range step must be positive")
        if stop < start:
            raise ValueError("gamma range stop must not be below start")
        count = (stop - start) / step  # inf when the step underflows the range
        if count >= _MAX_ROWS:
            raise ValueError(f"gamma range must have at most {_MAX_ROWS} rows")
        grid = []
        for i in range(int(round(count)) + 1):
            g = start + i * step
            if g <= stop + 1e-12:
                grid.append(round(g, 12))
        return grid
    return [float(p) for p in text.split(",")]


def _criterion_from_args(args: argparse.Namespace) -> ReductionCriterion:
    if args.criterion != "expected" and args.alpha is None:
        raise AlphaOutOfRange(
            f"criterion '{args.criterion}' needs --alpha in (0, 1)"
        )
    return ReductionCriterion(args.criterion, args.alpha)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ugp`` parser, built on the first call and shared by every later
    one, so callers must not change it; ``parse_args`` gives a new namespace."""
    parser = argparse.ArgumentParser(
        prog="ugp",
        allow_abbrev=False,
        description=(
            "Geometric programming with two-fold uncertain coefficients: "
            "reduction curves, chance-constrained solves and confidence sweeps."
        ),
        epilog=(
            "exit codes: 0 ok, 2 parse error, 3 domain error, "
            "4 negative degree of difficulty, 5 non-convergence"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_criterion(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--criterion",
            choices=("expected", "optimistic", "pessimistic"),
            default="expected",
        )
        p.add_argument("--alpha", type=float, default=None)

    p_reduce = sub.add_parser(
        "reduce",
        help="dump reduced single-fold distribution curves as CSV",
        allow_abbrev=False,
    )
    p_reduce.add_argument("file")
    add_criterion(p_reduce)
    p_reduce.add_argument("--samples", type=int, default=1000)
    p_reduce.add_argument("-o", "--output", required=True)

    p_solve = sub.add_parser(
        "solve", help="solve at one confidence level", allow_abbrev=False
    )
    p_solve.add_argument("file")
    p_solve.add_argument("--gamma", type=float, required=True)
    add_criterion(p_solve)
    p_solve.add_argument("-o", "--output", default=None)

    p_sweep = sub.add_parser(
        "sweep", help="solve a grid of confidence levels", allow_abbrev=False
    )
    p_sweep.add_argument("file")
    p_sweep.add_argument(
        "--gammas", required=True, help="start:stop:step or comma list"
    )
    add_criterion(p_sweep)
    p_sweep.add_argument("-o", "--output", required=True)

    p_tables = sub.add_parser(
        "tables",
        help="run both bundled benchmark problems and write table1.csv/table2.csv",
        allow_abbrev=False,
    )
    p_tables.add_argument("--outdir", default=".")
    return parser


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_reduce(args: argparse.Namespace) -> int:
    _, problem = load_problem(args.file)
    criterion = _criterion_from_args(args)
    if args.samples < 2:
        raise ValueError("--samples must be at least 2")
    if args.samples > _MAX_ROWS:
        raise ValueError(f"--samples must be at most {_MAX_ROWS}")

    header: list[str] = []
    columns: list[list[float]] = []
    blocks = [("obj", problem.objective)] + [
        (f"c{k}t", block) for k, block in enumerate(problem.constraints, start=1)
    ]
    for prefix, block in blocks:
        for i, term in enumerate(block, start=1):
            xs, (values,) = curve_samples(term.coefficient, [criterion], args.samples)
            header.extend([f"x_{prefix}{i}", f"cdf_{prefix}{i}"])
            columns.extend([xs, values])

    rows = [[_fmt(value) for value in row] for row in zip(*columns)]
    _write_csv(Path(args.output), header, rows)
    print(f"wrote {args.samples} samples for {len(columns) // 2} coefficients "
          f"to {args.output}")
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    _, problem = load_problem(args.file)
    criterion = _criterion_from_args(args)
    row = solve_chance(problem, args.gamma, criterion)
    if args.output:  # before the report, which would read as a success
        _write_sweep(Path(args.output), problem, [row])
    diag = row.diagnostics

    print(f"gamma = {args.gamma:g}  (criterion: {criterion.kind})")
    print("x* = (" + ", ".join(f"{v:.6f}" for v in row.x_star) + ")")
    print("delta* = (" + ", ".join(f"{d:.6f}" for d in row.delta_star) + ")")
    print(f"expected objective = {row.expected_objective:.6f}")
    print(f"duality gap (relative) = {diag.duality_gap_rel:.3e}")
    if diag.constraint_values:
        values = ", ".join(f"{v:.9f}" for v in diag.constraint_values)
        print(f"constraint values = ({values})")
    print(f"stationarity residual = {diag.linear_residual:.3e}")

    if args.output:
        print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    _, problem = load_problem(args.file)
    criterion = _criterion_from_args(args)
    gammas = _parse_gammas(args.gammas)
    outcomes = sweep(problem, gammas, criterion)
    header = _write_sweep(Path(args.output), problem, outcomes)

    successes = [o for o in outcomes if isinstance(o, SweepRow)]
    _print_table(outcomes, header)
    print(f"wrote {len(successes)}/{len(outcomes)} rows to {args.output}")
    if gammas and not successes:
        first = next(o for o in outcomes if isinstance(o, FailedRow))
        raise first.exception
    return EXIT_OK


def _cmd_tables(args: argparse.Namespace) -> int:
    outdir = Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UGPError(f"cannot write {outdir}: {exc.strerror}") from exc
    grid = [round(0.1 * i, 12) for i in range(1, 10)]
    for name, out in (
        ("triangular_case.json", "table1.csv"),
        ("trapezoidal_case.json", "table2.csv"),
    ):
        _, problem = load_problem(bundled_problem_path(name))
        outcomes = sweep(problem, grid, ReductionCriterion.expected())
        header = _write_sweep(outdir / out, problem, outcomes)
        print(f"{name} -> {outdir / out}")
        _print_table(outcomes, header)
    return EXIT_OK


_COMMANDS = {
    "reduce": _cmd_reduce,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "tables": _cmd_tables,
}


def main(argv: list[str] | None = None) -> int:
    # argparse takes "-0.1,0.5" or "-1e-3" for an option, not a value, so a
    # negative value is first joined to its option: "--gammas=-0.1,0.5".  The
    # parsers accept no option prefixes, so no other spelling needs joining.
    tokens: list[str] = []
    for token in sys.argv[1:] if argv is None else argv:
        if tokens and tokens[-1] in _NUMBER_OPTIONS and _NEGATIVE.match(token):
            token = f"{tokens.pop()}={token}"
        tokens.append(token)
    args = build_parser().parse_args(tokens)
    try:
        return _COMMANDS[args.command](args)
    except (UGPError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, UGPError) else EXIT_DOMAIN

if __name__ == "__main__":
    sys.exit(main())
