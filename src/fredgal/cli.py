"""Command-line front end.

Subcommands: solve (print coefficients and monomial form), table (CSV error
table against the known solution), converge (CSV max-error study over
degrees), basis (CSV of sampled basis functions).  Exit codes: 0 success,
1 on an ``InputError`` or a file that cannot be opened, 2 on any other
``FredgalError``.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np

from .basis import BasisSpec, basis_row, bernstein_to_monomial, float_interval
from .errors import FredgalError, InputError, _endpoint_text, number_text
from .galerkin import convergence_study, error_table, solve
from .problems import BUILTIN_NAMES, builtin, load_problem


# most points a table grid or a basis sample may have, checked before any
# point is built
MAX_GRID_POINTS = 10**6


class _Parser(argparse.ArgumentParser):
    """Raises InputError; flags count only in full (`--degree` is no `--degrees`)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise InputError(message)


def fmt10(value: float) -> str:
    """Exactly 10 significant digits, positional where possible."""
    value = float(value)
    if value == 0.0:
        return "0.000000000"
    return str(Decimal(f"{value:.9e}"))


def gfmt(value: float) -> str:
    """Compact 10-significant-digit form (for x and error columns)."""
    return format(float(value), ".10g")


def scalar_text(c) -> str:
    """A coefficient as printed: exact for a Fraction, else 10 digits."""
    return number_text(c) if isinstance(c, Fraction) else gfmt(c)


def format_polynomial(coeffs) -> str:
    """Human-readable ascending-power polynomial in x, exact or float."""
    parts: list[str] = []
    for power, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = -c if c < 0 else c
        term = "x" if power == 1 else f"x^{power}"
        if power == 0:
            body = scalar_text(mag)
        elif mag == 1:
            body = term
        else:
            body = f"{scalar_text(mag)}*{term}"
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(parts) if parts else "0"


def _resolve_problem(args):
    if args.builtin is not None:
        return builtin(args.builtin)
    return load_problem(args.problem)


def _default_grid(problem, step: float | None) -> list[float]:
    a, b = float_interval(problem.a, problem.b)
    width = b - a
    h = width / 10.0 if step is None else step
    if not (h > 0 and math.isfinite(h)):
        raise InputError(f"--grid-step must be a finite positive number, got {h}")
    steps = width / h + 1e-9  # the grid has int(steps) + 1 points
    if not steps < MAX_GRID_POINTS:
        raise InputError(f"--grid-step {h} gives more than {MAX_GRID_POINTS} grid points")
    count = int(steps)
    grid = [a + k * h for k in range(count + 1)]
    grid[-1] = min(grid[-1], b)
    return grid


def _cmd_solve(args) -> str:
    problem = _resolve_problem(args)
    solution = solve(problem, args.degree, mode=args.mode, q=args.quadrature)
    monomial = bernstein_to_monomial(list(solution.coefficients), solution.spec)
    a, b = solution.spec.a, solution.spec.b
    # an exact solve's interval may have no float points: then the float
    # views would print it as a single point
    endpoint = _endpoint_text if float(a) == float(b) else gfmt
    lines = [
        f"mode: {solution.mode}",
        f"degree: {solution.spec.n}",
        f"interval: [{endpoint(a)}, {endpoint(b)}]",
        f"coefficients: {' '.join(map(scalar_text, solution.coefficients))}",
        f"monomial: {format_polynomial(monomial)}",
        f"condition: {solution.condition:.6g}",
    ]
    if solution.quadrature_order is not None:
        lines.insert(2, f"quadrature: {solution.quadrature_order}")
    return "\n".join(lines) + "\n"


def _cmd_table(args) -> str:
    problem = _resolve_problem(args)
    if problem.exact_expr is None:
        raise InputError("problem has no exact solution; 'table' requires one")
    grid = _default_grid(problem, args.grid_step)
    solution = solve(problem, args.degree, mode=args.mode, q=args.quadrature)
    rows = error_table(solution, problem.exact_expr, grid)
    lines = ["x,exact,approx,E,E_kind"]
    for row in rows:
        lines.append(
            f"{gfmt(row.x)},{fmt10(row.exact)},{fmt10(row.approx)},"
            f"{gfmt(row.error)},{row.kind}"
        )
    return "\n".join(lines) + "\n"


def _cmd_converge(args) -> str:
    problem = _resolve_problem(args)
    results = convergence_study(problem, args.degrees, q=args.quadrature, mode=args.mode)
    lines = ["n,max_E,condition"]
    for row in results:
        lines.append(f"{row.n},{gfmt(row.max_error)},{gfmt(row.condition)}")
    return "\n".join(lines) + "\n"


def _cmd_basis(args) -> str:
    """CSV of all basis members sampled at equispaced points.

    Full float precision (17 significant digits) so downstream consumers
    see the partition-of-unity property intact.
    """
    n, a, b, samples = args.degree, args.interval_a, args.interval_b, args.samples
    if samples < 2:
        raise InputError("--samples must be at least 2")
    if samples > MAX_GRID_POINTS:
        raise InputError(f"--samples must be at most {MAX_GRID_POINTS}")
    spec = BasisSpec(n, a, b)
    header = "x," + ",".join(f"B{i}" for i in range(n + 1))
    xs = np.linspace(*float_interval(a, b), samples)
    table = np.column_stack([xs, basis_row(spec, xs)]).tolist()
    row_format = ",".join(["%.17g"] * (n + 2))
    lines = [header, *[row_format % tuple(row) for row in table]]
    return "\n".join(lines) + "\n"


def _parse_degrees(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise InputError(f"--degrees expects comma-separated integers, got {text!r}") from None
    if not values:
        raise InputError("--degrees must list at least one degree")
    return values


# built once per process: argparse set-up costs about ten times a parse
@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each subcommand's own parser by name."""
    parser = _Parser(
        prog="fredgal",
        description="Solve second-kind Fredholm integral equations with a "
        "Bernstein-basis Galerkin method.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_solve_command(name, summary, handler, *degree, **degree_options):
        """A subcommand that solves one problem: its source, its degree
        flag, --quadrature, --mode and --out."""
        p = sub.add_parser(name, help=summary)
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--builtin", choices=BUILTIN_NAMES, metavar="NAME",
                           help=f"bundled problem ({', '.join(BUILTIN_NAMES)})")
        group.add_argument("--problem", metavar="PATH", help="problem file to load")
        p.add_argument(*degree, required=True, **degree_options)
        p.add_argument("--quadrature", type=int, default=None, metavar="Q")
        p.add_argument("--mode", choices=("auto", "float", "exact"), default="auto")
        p.add_argument("--out", default=None, metavar="PATH")
        p.set_defaults(handler=handler)
        return p

    add_solve_command("solve", "print expansion coefficients", _cmd_solve,
                      "--degree", type=int, metavar="N")
    p_table = add_solve_command("table", "CSV error table on a point grid", _cmd_table,
                                "--degree", type=int, metavar="N")
    p_table.add_argument("--grid-step", type=float, default=None, metavar="H")
    add_solve_command("converge", "CSV max-error study over degrees", _cmd_converge,
                      "--degrees", type=_parse_degrees, metavar="N1,N2,...")

    p_basis = sub.add_parser("basis", help="CSV of sampled basis functions")
    p_basis.add_argument("--degree", type=int, required=True, metavar="N")
    p_basis.add_argument("--interval-a", type=float, default=0.0, metavar="A")
    p_basis.add_argument("--interval-b", type=float, default=1.0, metavar="B")
    p_basis.add_argument("--samples", type=int, default=101, metavar="S")
    p_basis.add_argument("--out", default=None, metavar="PATH")
    p_basis.set_defaults(handler=_cmd_basis)

    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "--":  # `fredgal -- solve ...` reads as `fredgal solve ...`
        argv = argv[1:]
    try:
        # the top-level parser hands everything after a subcommand's name to
        # that subcommand's parser; calling it directly skips half the work
        if argv and argv[0] in commands:
            args = commands[argv[0]].parse_args(argv[1:])
        else:
            args = parser.parse_args(argv)
        text = args.handler(args)
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
    # OSError: a problem file that cannot be read, an --out path that cannot be written
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FredgalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
