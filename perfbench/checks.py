"""Correctness checks on CLI output, against the workload's reference solutions.

Each check returns None when the output is correct and a one-line reason
otherwise.  Exact-path coefficients must equal phi* as rationals once
converted to monomial form; float results must be within the op's tolerance,
measured as max|approx - phi*| / max|phi*| over the checked points.
"""

from __future__ import annotations

import math
from fractions import Fraction as Q

from manufacture import bernstein_eval, bernstein_to_monomial, ptrim

# Printed values carry 10 significant digits, so a value the program computed
# exactly can still differ from the reference by this share of its scale.
PRINT_TOL = 2e-9


def _lines(text):
    return [line for line in text.splitlines() if line.strip()]


def _fields(text):
    out = {}
    for line in _lines(text):
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def parse_monomial(text):
    """Ascending Fractions from the CLI's exact monomial form."""
    if text.strip() == "0":
        return [Q(0)]
    coeffs = {}
    sign = 1
    for tok in text.split():
        if tok in ("+", "-"):
            sign = 1 if tok == "+" else -1
            continue
        if tok.startswith("-"):
            sign, tok = -sign, tok[1:]
        if "*" in tok:
            scalar, var = tok.split("*", 1)
        elif tok.startswith("x"):
            scalar, var = "1", tok
        else:
            scalar, var = tok, ""
        power = 0 if var == "" else (1 if var == "x" else int(var.split("^")[1]))
        coeffs[power] = coeffs.get(power, Q(0)) + sign * Q(scalar)
        sign = 1
    out = [Q(0)] * (max(coeffs) + 1)
    for power, c in coeffs.items():
        out[power] = c
    return ptrim(out)


def _relative_error(pairs):
    """max|approx - ref| / max|ref| over (ref, approx) pairs."""
    scale = max(abs(ref) for ref, _ in pairs)
    return max(abs(approx - ref) for ref, approx in pairs) / scale


def _check_solve(op, out):
    fields = _fields(out)
    problem = op.problem
    n = op.degrees[0]
    if fields.get("degree") != str(n):
        return f"degree line {fields.get('degree')!r}, expected {n}"
    coeff_text = fields.get("coefficients", "").split()
    if len(coeff_text) != n + 1:
        return f"{len(coeff_text)} coefficients, expected {n + 1}"
    condition = float(fields.get("condition", "nan"))
    if not (math.isfinite(condition) and condition > 0):
        return f"condition {condition} not positive and finite"
    mode = fields.get("mode")
    if mode == "exact":
        coeffs = [Q(c) for c in coeff_text]
        want = ptrim(problem.phi)
        if bernstein_to_monomial(coeffs, problem.a, problem.b) != want:
            return "exact coefficients differ from phi* as rationals"
        if parse_monomial(fields.get("monomial", "")) != want:
            return "exact monomial line differs from phi*"
        return None
    if mode != "float":
        return f"unknown mode {mode!r}"
    coeffs = [float(c) for c in coeff_text]
    a, b = float(problem.a), float(problem.b)
    xs = [a + (b - a) * k / 20 for k in range(21)]
    err = _relative_error([(problem.reference(x), bernstein_eval(coeffs, a, b, x)) for x in xs])
    if not err <= op.tol:
        return f"float solve error {err:.3e} above tolerance {op.tol:.0e}"
    return None


def _check_table(op, out):
    rows = _lines(out)
    if rows[0] != "x,exact,approx,E,E_kind" or len(rows) != 12:
        return f"table has header {rows[0]!r} and {len(rows) - 1} rows, expected 11"
    problem = op.problem
    a, b = float(problem.a), float(problem.b)
    pairs = []
    for k, row in enumerate(rows[1:]):
        x, exact, approx = (float(v) for v in row.split(",")[:3])
        if abs(x - (a + (b - a) * k / 10)) > 1e-9 * (b - a):
            return f"table row {k} at x={x}"
        ref = problem.reference(x)
        pairs.append((ref, approx))
        if abs(exact - ref) > PRINT_TOL * max(1.0, abs(ref)):
            return f"table exact column {exact} at x={x}, reference {ref}"
    err = _relative_error(pairs)
    if not err <= op.tol:
        return f"table error {err:.3e} above tolerance {op.tol:.0e}"
    return None


def _check_converge(op, out):
    rows = _lines(out)
    if rows[0] != "n,max_E,condition" or len(rows) != len(op.degrees) + 1:
        return f"converge output has {len(rows) - 1} rows, expected {len(op.degrees)}"
    for n, row in zip(op.degrees, rows[1:]):
        got_n, max_e, cond = row.split(",")
        if int(got_n) != n:
            return f"converge row for n={got_n}, expected {n}"
        if not float(max_e) <= op.tol:
            return f"converge max_E {max_e} at n={n} above tolerance {op.tol:.0e}"
        if not (math.isfinite(float(cond)) and float(cond) > 0):
            return f"converge condition {cond} at n={n}"
    return None


def _check_basis(op, out):
    n = op.degrees[0]
    a, b, samples = op.basis
    rows = _lines(out)
    if rows[0] != "x," + ",".join(f"B{i}" for i in range(n + 1)) or len(rows) != samples + 1:
        return f"basis CSV has {len(rows) - 1} rows, expected {samples}"
    for k, row in enumerate(rows[1:]):
        values = [float(v) for v in row.split(",")]
        x = a + (b - a) * k / (samples - 1)
        if abs(values[0] - x) > 1e-12 * (b - a):
            return f"basis row {k} at x={values[0]}, expected {x}"
        u = (x - a) / (b - a)
        ref = [math.comb(n, i) * u**i * (1.0 - u) ** (n - i) for i in range(n + 1)]
        if max(abs(v - r) for v, r in zip(values[1:], ref)) > 1e-12:
            return f"basis values at x={x} differ from the Bernstein formula"
        if abs(math.fsum(values[1:]) - 1.0) > 1e-12:
            return f"basis row at x={x} does not sum to 1"
    return None


_CHECKS = {
    "solve": _check_solve,
    "table": _check_table,
    "converge": _check_converge,
    "basis": _check_basis,
}


def check(op, result):
    """None if the op's result is correct, else the reason it failed."""
    if result.get("exception"):
        return f"raised {result['exception']}"
    if result["rc"] != 0:
        return f"exit code {result['rc']}: {result['err'].strip()[:200]}"
    try:
        return _CHECKS[op.kind](op, result["out"])
    except (ValueError, IndexError, KeyError, ZeroDivisionError) as exc:
        return f"unparseable {op.kind} output: {exc!r}"
