"""Exception types shared across the solver, and the text of a number in
their messages.  An ``InputError`` blames the input (the problem, its file,
a flag): the CLI exits 1 on it, and 2 on any other ``FredgalError``."""

from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Decimal, Inexact, localcontext
from fractions import Fraction

# Decimal(int) takes time quadratic in the digits; past this many bits the
# split conversion of _integer_text is faster
_SPLIT_BITS = 50_000
# the pieces the split conversion writes with Decimal(int) directly
_LEAF_BITS = 128


def number_text(value) -> str:
    """str(value), but an int or a Fraction is written through Decimal, which
    prints digits past the interpreter's limit on int/str conversion too."""
    if not isinstance(value, (int, Fraction)):
        return str(value)
    text = _integer_text(value.numerator)
    return text if value.denominator == 1 else f"{text}/{_integer_text(value.denominator)}"


def _endpoint_text(value) -> str:
    """An interval endpoint as quoted where its float view cannot tell it
    apart: number_text(value) when that takes at most 64 characters, else
    the exact value rounded to 10 significant digits, in exponent form
    (1e-400, not a 401-digit denominator)."""
    text = number_text(value)
    if len(text) <= 64:
        return text
    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = 10, MAX_EMAX, MIN_EMIN
        rounded = Decimal(value.numerator) / Decimal(value.denominator)
    mantissa, exponent = f"{rounded:.9e}".split("e")
    return f"{mantissa.rstrip('0').rstrip('.')}e{exponent}"


def _integer_text(n: int) -> str:
    """str(Decimal(n)).  Past _SPLIT_BITS, n is split by bits into a high and
    a low half, each half converted the same way, and the two joined as
    high·2^k + low by decimal's multiplication, which is subquadratic, under
    a context that keeps every digit (the method of CPython 3.12's
    ``_pylong.int_to_decimal_string``)."""
    if n.bit_length() <= _SPLIT_BITS:
        return str(Decimal(n))
    powers = {}  # 2^k as a Decimal; the halves' widths differ by at most one

    def power(k: int) -> Decimal:
        if k not in powers:
            powers[k] = Decimal(2) ** k if k <= _LEAF_BITS else power(k >> 1) * power(k - (k >> 1))
        return powers[k]

    def split(n: int, bits: int) -> Decimal:
        if bits <= _LEAF_BITS:
            return Decimal(n)
        k = bits >> 1
        high = n >> k
        return split(n - (high << k), k) + split(high, bits - k) * power(k)

    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = MAX_PREC, MAX_EMAX, MIN_EMIN
        ctx.traps[Inexact] = True
        digits = str(split(abs(n), n.bit_length()))
    return "-" + digits if n < 0 else digits


class FredgalError(Exception):
    """Base class for every error this package raises deliberately."""


class InputError(FredgalError):
    """The input is at fault: the CLI exits 1 on this, and 2 on every other
    FredgalError."""


class ExpressionSyntaxError(FredgalError):
    """Malformed expression text; ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifier(ExpressionSyntaxError):
    """Name outside the whitelist x, t, pi, e, exp, sin, cos, log, sqrt."""


class DomainError(FredgalError):
    """Evaluation left the real domain (log of nonpositive, sqrt of negative,
    division by zero, overflow)."""


class MissingBinding(FredgalError):
    """Expression references t but no t value was supplied."""


class InvalidInterval(InputError):
    """Interval endpoints do not satisfy b > a, or the interval has no
    float points where it is turned into floats."""


class InvalidDegree(InputError):
    """Basis or polynomial degree not an integer, or outside the supported
    range."""


class InvalidProblem(InputError):
    """Problem data violates a structural requirement (e.g. t in the
    coefficient or right-hand side, or a missing exact solution)."""


class OrderOutOfRange(InputError):
    """Quadrature order outside the supported 1..128 range, or too small for
    the degree it is asked to solve."""


class SingularSystem(FredgalError):
    """The assembled Galerkin system has no unique solution."""


class ExactPathUnavailable(FredgalError):
    """Exact mode requested but the problem data is not a polynomial with
    rational coefficients, or its exact solve is past the work bound."""


class OutOfInterval(FredgalError):
    """Evaluation point lies outside [a, b]; extrapolation is refused."""


class ProblemFileError(InputError):
    """Base for problem-file parsing failures."""


class MissingKey(ProblemFileError):
    def __init__(self, key: str):
        super().__init__(f"missing required key '{key}'")
        self.key = key


class DuplicateKey(ProblemFileError):
    def __init__(self, key: str, line: int):
        super().__init__(f"duplicate key '{key}' on line {line}")
        self.key = key
        self.line = line


class UnknownKey(ProblemFileError):
    def __init__(self, key: str, line: int):
        super().__init__(f"unknown key '{key}' on line {line}")
        self.key = key
        self.line = line


class ExpressionError(ProblemFileError):
    """A value in a problem file failed to parse."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class BadInterval(ProblemFileError):
    """interval_a / interval_b do not define a nonempty interval."""


class UnknownBuiltin(InputError):
    def __init__(self, name: str, known: list[str]):
        super().__init__(
            f"unknown builtin '{name}' (expected one of: {', '.join(known)})"
        )
        self.name = name


class IllConditionedWarning(UserWarning):
    """System condition number exceeds the reliability threshold."""
