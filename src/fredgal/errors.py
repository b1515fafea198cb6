"""Exception types shared across the solver, and the text of a number in
their messages."""

from decimal import Decimal
from fractions import Fraction


def number_text(value) -> str:
    """str(value), but an int or a Fraction is written through Decimal, which
    prints digits past the interpreter's limit on int/str conversion too."""
    if not isinstance(value, (int, Fraction)):
        return str(value)
    text = str(Decimal(value.numerator))
    return text if value.denominator == 1 else f"{text}/{Decimal(value.denominator)}"


class FredgalError(Exception):
    """Base class for every error this package raises deliberately."""


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


class InvalidInterval(FredgalError):
    """Interval endpoints do not satisfy b > a, or the interval has no
    float points where it is turned into floats."""


class InvalidDegree(FredgalError):
    """Basis or polynomial degree not an integer, or outside the supported
    range."""


class InvalidProblem(FredgalError):
    """Problem data violates a structural requirement (e.g. t in the
    coefficient or right-hand side, or a missing exact solution)."""


class OrderOutOfRange(FredgalError):
    """Quadrature order outside the supported 1..128 range, or too small for
    the degree it is asked to solve."""


class SingularSystem(FredgalError):
    """The assembled Galerkin system has no unique solution."""


class ExactPathUnavailable(FredgalError):
    """Exact mode requested but the problem data is not a polynomial with
    rational coefficients, or its exact solve is past the work bound."""


class OutOfInterval(FredgalError):
    """Evaluation point lies outside [a, b]; extrapolation is refused."""


class ProblemFileError(FredgalError):
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


class UnknownBuiltin(FredgalError):
    def __init__(self, name: str, known: list[str]):
        super().__init__(
            f"unknown builtin '{name}' (expected one of: {', '.join(known)})"
        )
        self.name = name


class IllConditionedWarning(UserWarning):
    """System condition number exceeds the reliability threshold."""
