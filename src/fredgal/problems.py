"""Problem definitions: bundled benchmark equations and the flat key=value
problem-file format.

File grammar: one ``key = value`` pair per line; blank lines and lines
starting with ``#`` are ignored.  Keys: interval_a, interval_b, coefficient
(expression for a(x)), lambda (number), kernel (expression in t and x),
rhs (expression in x), and optional exact (expression in x).  Numbers are
read exactly, so ``lambda = 0.1`` means 1/10 and ``lambda = 1/2`` is valid.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

from . import expr
from .errors import (
    BadInterval,
    DuplicateKey,
    ExpressionError,
    ExpressionSyntaxError,
    InvalidProblem,
    MissingKey,
    ProblemFileError,
    UnknownBuiltin,
    UnknownKey,
)
from .galerkin import FredholmProblem

REQUIRED_KEYS = ("interval_a", "interval_b", "coefficient", "lambda", "kernel", "rhs")
ALL_KEYS = REQUIRED_KEYS + ("exact",)
_EXPRESSION_KEYS = ("coefficient", "kernel", "rhs", "exact")

def _parse_pairs(text: str) -> dict[str, tuple[str, int]]:
    """key -> (raw value, line number), validating key set and uniqueness."""
    pairs: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ExpressionError("expected 'key = value'", lineno)
        key = key.strip()
        value = value.strip()
        if key not in ALL_KEYS:
            raise UnknownKey(key, lineno)
        if key in pairs:
            raise DuplicateKey(key, lineno)
        if not value:
            raise ExpressionError(f"empty value for '{key}'", lineno)
        pairs[key] = (value, lineno)
    return pairs


def _number(pairs, key: str) -> Fraction:
    """The exact value of a number key (integer, decimal or p/q), held to
    the size rule of expression literals; its float view must be finite."""
    text, lineno = pairs[key]
    if (ratio := expr.plain_ratio(text)) is not None:
        num, den = ratio
        return Fraction(num) if den == 1 else Fraction(num, den)
    try:
        # Fraction builds a decimal's power of ten in full, so the size rule
        # is checked first, on Decimal's reading; a p/q has integer parts only
        if "/" not in text:
            expr.decimal_ratio(Decimal(text))
        value = Fraction(text)
        float(value)  # OverflowError beyond the float range
    except (ValueError, ArithmeticError):  # Decimal's InvalidOperation too
        raise ExpressionError(
            f"invalid number for '{key}': {text!r} (need a finite number within the size rule)",
            lineno,
        ) from None
    return value


def _expression(pairs, key: str):
    """The parsed value of an expression key."""
    text, lineno = pairs[key]
    try:
        return expr.parse(text)
    except ExpressionSyntaxError as exc:
        raise ExpressionError(f"bad expression for '{key}': {exc}", lineno) from exc


def parse_problem(text: str) -> FredholmProblem:
    """Build a problem from problem-file text."""
    pairs = _parse_pairs(text)
    for key in REQUIRED_KEYS:
        if key not in pairs:
            raise MissingKey(key)
    a = _number(pairs, "interval_a")
    b = _number(pairs, "interval_b")
    if not b > a:
        # quoted as written in the file, which is what the user can find
        raise BadInterval(f"interval [{pairs['interval_a'][0]}, {pairs['interval_b'][0]}] is empty")
    lam = _number(pairs, "lambda")
    nodes = {}
    try:
        for key in _EXPRESSION_KEYS:
            if key in pairs:
                nodes[key] = _expression(pairs, key)
        return FredholmProblem(
            nodes["coefficient"], lam, nodes["kernel"], nodes["rhs"], a, b, nodes.get("exact")
        )
    except (ExpressionError, InvalidProblem):
        # FredholmProblem walks each expression for t once; only on an error
        # are the keys parsed so far walked again, so that the first one that
        # uses t is reported, before a bad expression on a later key
        # (variables() finds only x and t, so the kernel has nothing to check)
        for key, node in nodes.items():
            if key != "kernel" and "t" in expr.variables(node):
                message = f"'{key}' may only use ['x'], found ['t']"
                raise ExpressionError(message, pairs[key][1]) from None
        raise


def load_problem(path) -> FredholmProblem:
    """Read and parse a UTF-8 problem file; a leading byte-order mark is
    dropped, as the utf-8-sig codec does.  Raises ProblemFileError for a
    file that is not UTF-8, naming the byte offset of the fault."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        # decoded as utf-8, not utf-8-sig, so the offset counts the mark too
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ProblemFileError(
            f"{path}: not UTF-8 text: byte 0x{data[exc.start]:02x} at offset {exc.start} "
            f"({exc.reason})"
        ) from None
    return parse_problem(text)


# Classic second-kind benchmark equations, all written as
# phi(x) - ∫ k(t,x)·phi(t) dt = f(x), i.e. coefficient 1 and lambda -1.
# Each carries its known closed-form solution.  Each is read once, when the
# module loads, as the problem file this template gives with its fields
# filled in.
_BUILTIN_FILE = """
coefficient = 1
lambda = -1
interval_a = {}
interval_b = {}
kernel = {}
rhs = {}
exact = {}
"""
_BUILTINS = {
    name: parse_problem(_BUILTIN_FILE.format(*fields))
    for name, fields in {
        "example1": (-1, 1, "x*t + x^2*t^2", "1", "1 + 10/9*x^2"),
        "example2": (-1, 1, "x^4 - t^4", "x", "x"),
        "example3": (0, 1, "t*x^2 + x*t^2", "x", "180/119*x + 80/119*x^2"),
        "example4": (0, 1, "2*exp(x)*exp(t)", "exp(x)", "exp(x)/(2 - e^2)"),
    }.items()
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def builtin(name: str) -> FredholmProblem:
    """One of the bundled benchmark problems (example1..example4)."""
    try:
        return _BUILTINS[name]
    except KeyError:
        raise UnknownBuiltin(name, list(BUILTIN_NAMES)) from None
