import dataclasses
import math
import random
import time
from fractions import Fraction

import pytest

from fredgal.errors import (
    BadInterval,
    DuplicateKey,
    ExpressionError,
    MissingKey,
    UnknownBuiltin,
    UnknownKey,
)
from fredgal.expr import evaluate, parse
from fredgal.galerkin import FredholmProblem, as_exact_problem, solve
from fredgal.problems import (
    BUILTIN_NAMES,
    _number,
    builtin,
    load_problem,
    parse_problem,
)
from fredgal.quadrature import gauss_legendre

from exact_oracle import format_problem, reference_builtin, write_problem


def test_builtin_names():
    assert BUILTIN_NAMES == ("example1", "example2", "example3", "example4")


def test_unknown_builtin_lists_valid_names():
    with pytest.raises(UnknownBuiltin) as err:
        builtin("example9")
    message = str(err.value)
    assert all(name in message for name in BUILTIN_NAMES)


def test_builtins_share_operator_form():
    # every bundled problem is phi - integral(k phi) = f
    for name in BUILTIN_NAMES:
        problem = builtin(name)
        assert problem.lam == -1.0
        assert evaluate(problem.a_expr, 0.37) == 1.0
        assert problem.exact_expr is not None


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_equals_the_problem_built_by_hand(name):
    # read once from problem-file text: the same fields, with exact numbers
    problem, reference = builtin(name), reference_builtin(name)
    for field in dataclasses.fields(FredholmProblem):
        assert getattr(problem, field.name) == getattr(reference, field.name), field.name
    assert all(type(v) is Fraction for v in (problem.lam, problem.a, problem.b))
    assert builtin(name) is problem


def test_builtin_exact_solutions_satisfy_their_equations():
    # independent residual check by direct quadrature
    rule = gauss_legendre(48)
    for name in BUILTIN_NAMES:
        problem = builtin(name)

        def phi(x):
            return evaluate(problem.exact_expr, x)

        half = 0.5 * (problem.b - problem.a)
        ts = half * rule.nodes + 0.5 * (problem.a + problem.b)
        for x in (problem.a, 0.5 * (problem.a + problem.b), problem.b, 0.123):
            if not problem.a <= x <= problem.b:
                continue
            integral = half * float(rule.weights @ (evaluate(problem.kernel_expr, x, ts) * phi(ts)))
            residual = (
                evaluate(problem.a_expr, x) * phi(x)
                + problem.lam * integral
                - evaluate(problem.f_expr, x)
            )
            assert abs(residual) <= 1e-10, (name, x)


def test_builtin_intervals():
    assert (builtin("example1").a, builtin("example1").b) == (-1.0, 1.0)
    assert (builtin("example3").a, builtin("example3").b) == (0.0, 1.0)
    kernel = builtin("example4").kernel_expr
    assert evaluate(kernel, 0.0, 0.0) == 2.0  # 2 e^0 e^0


EXAMPLE1_TEXT = """\
# even quadratic benchmark
interval_a = -1
interval_b = 1
coefficient = 1
lambda = -1
kernel = x*t + x^2*t^2
rhs = 1
exact = 1 + 10/9*x^2
"""


def test_parse_problem_matches_builtin():
    problem = parse_problem(EXAMPLE1_TEXT)
    reference = builtin("example1")
    assert problem.kernel_expr == reference.kernel_expr
    assert problem.f_expr == reference.f_expr
    assert problem.exact_expr == reference.exact_expr
    assert (problem.a, problem.b, problem.lam) == (-1.0, 1.0, -1.0)


def test_load_problem_roundtrip(tmp_path):
    for name in ("example1", "example4"):
        path = tmp_path / f"{name}.fie"
        original = builtin(name)
        write_problem(original, path)
        loaded = load_problem(path)
        assert loaded == original


def test_format_problem_without_exact_roundtrips():
    problem = parse_problem(
        "interval_a = 0\ninterval_b = 2.5\ncoefficient = 1 + x\n"
        "lambda = 0.125\nkernel = exp(x*t)\nrhs = sin(x)\n"
    )
    again = parse_problem(format_problem(problem))
    assert again == problem
    assert again.exact_expr is None


def test_missing_key():
    text = EXAMPLE1_TEXT.replace("kernel = x*t + x^2*t^2\n", "")
    with pytest.raises(MissingKey) as err:
        parse_problem(text)
    assert err.value.key == "kernel"


def test_duplicate_key():
    with pytest.raises(DuplicateKey) as err:
        parse_problem(EXAMPLE1_TEXT + "rhs = 2\n")
    assert err.value.key == "rhs"


def test_unknown_key():
    with pytest.raises(UnknownKey):
        parse_problem(EXAMPLE1_TEXT + "order = 3\n")


def test_empty_interval():
    text = EXAMPLE1_TEXT.replace("interval_b = 1", "interval_b = -1")
    with pytest.raises(BadInterval):
        parse_problem(text)


def test_bad_number_reports_line():
    text = EXAMPLE1_TEXT.replace("lambda = -1", "lambda = minus one")
    with pytest.raises(ExpressionError) as err:
        parse_problem(text)
    assert err.value.line == 5


def test_bad_expression_reports_line():
    text = EXAMPLE1_TEXT.replace("kernel = x*t + x^2*t^2", "kernel = x*t +")
    with pytest.raises(ExpressionError) as err:
        parse_problem(text)
    assert err.value.line == 6


def test_stray_variable_rejected():
    text = EXAMPLE1_TEXT.replace("rhs = 1", "rhs = t")
    with pytest.raises(ExpressionError):
        parse_problem(text)
    text = EXAMPLE1_TEXT.replace("kernel = x*t + x^2*t^2", "kernel = y")
    with pytest.raises(ExpressionError):
        parse_problem(text)


def test_line_without_equals():
    with pytest.raises(ExpressionError):
        parse_problem("interval_a -1\n")


def test_comments_and_blank_lines_ignored():
    text = "\n\n# header\n" + EXAMPLE1_TEXT + "\n   \n# trailing\n"
    problem = parse_problem(text)
    assert math.isclose(problem.b, 1.0)


def test_numbers_are_read_exactly():
    text = EXAMPLE1_TEXT.replace("lambda = -1", "lambda = 1/2").replace(
        "interval_a = -1", "interval_a = -0.1"
    )
    problem = parse_problem(text)
    assert problem.lam == Fraction(1, 2)
    assert problem.a == Fraction(-1, 10)
    assert as_exact_problem(problem).a == Fraction(-1, 10)
    assert parse_problem(format_problem(problem)) == problem


def test_decimal_lambda_reaches_exact_path_as_decimal():
    # phi + 0.1·∫ phi = 1.1 on [0, 1] is solved by phi = 1, which needs
    # lambda to be exactly 1/10
    problem = parse_problem(
        "interval_a = 0\ninterval_b = 1\ncoefficient = 1\nlambda = 0.1\n"
        "kernel = 1\nrhs = 11/10\n"
    )
    assert solve(problem, 1, mode="exact").coefficients == (Fraction(1), Fraction(1))


def test_decimal_numbers_leave_float_results_unchanged():
    text = (
        "interval_a = 0.1\ninterval_b = 1.3\ncoefficient = 1\nlambda = -0.3\n"
        "kernel = exp(x*t)\nrhs = sin(x)\n"
    )
    exact_numbers = parse_problem(text)
    float_numbers = FredholmProblem(
        exact_numbers.a_expr, -0.3, exact_numbers.kernel_expr, exact_numbers.f_expr, 0.1, 1.3
    )
    got = solve(exact_numbers, 5)
    want = solve(float_numbers, 5)
    assert got.mode == "float"
    assert got.coefficients == want.coefficients
    assert got.condition == want.condition


@pytest.mark.parametrize(
    "old, new, line",
    [
        ("lambda = -1", "lambda = inf", 5),
        ("lambda = -1", "lambda = nan", 5),
        ("lambda = -1", "lambda = 1e400", 5),
        ("interval_b = 1", "interval_b = inf", 3),
        ("lambda = -1", "lambda = 1/0", 5),
    ],
)
def test_nonfinite_numbers_rejected(old, new, line):
    with pytest.raises(ExpressionError) as err:
        parse_problem(EXAMPLE1_TEXT.replace(old, new))
    assert err.value.line == line


def read_number(text):
    """The value a number key reads to, or None when it is refused."""
    try:
        return _number({"lambda": (text, 1)}, "lambda")
    except ExpressionError:
        return None


def fraction_number(text):
    """What Fraction(text) read before number keys obeyed the size rule."""
    try:
        value = Fraction(text)
        float(value)
    except (ValueError, ZeroDivisionError, OverflowError):
        return None
    return value


def test_number_keys_read_as_fraction_reads_them():
    # short random texts with signs, points, exponents, p/q, underscores,
    # whitespace and non-ASCII digits: every one within the size rule, so
    # each reads to Fraction's value or is refused where Fraction refuses it
    rng = random.Random(2013)
    pieces = [*"0123456789_.eE+-/ d", "\u0663", "\u0660", "\uff11", "inf", "nan"]
    accepted = 0
    for _ in range(20000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(1, 6))).strip()
        if text:
            want = fraction_number(text)
            assert read_number(text) == want, repr(text)
            accepted += want is not None
    assert 2000 < accepted < 18000


@pytest.mark.parametrize(
    "text, value",
    [
        ("1e-30000", Fraction(1, 10**30000)),
        # 10**30825 has 102,399 bits, within the rule's 102,400
        ("-1e-30825", Fraction(-1, 10**30825)),
        ("2.5e-320", Fraction(1, 4 * 10**319)),
        ("4_6.0_5", Fraction(4605, 100)),
        ("0e30000", Fraction(0)),
        ("1" * 4300 + "/" + "3" * 4300, Fraction(1, 3)),
        # either side of the plain-decimal reader's 300 digits
        ("-" + "9" * 300 + "." + "\u0663" * 300, -Fraction(int("9" * 300 + "3" * 300), 10**300)),
        ("+" + "9" * 301 + ".5", Fraction(int("9" * 301 + "5"), 10)),
        ("0." + "0" * 300 + "7", Fraction(7, 10**301)),
    ],
    ids=lambda v: v[:20] if isinstance(v, str) else None,
)
def test_numbers_within_the_size_rule_read_exactly(text, value):
    assert read_number(text) == value


@pytest.mark.parametrize(
    "text",
    [
        "1e-1000000", "1e-300000", "1e-3000000", "-1e-30826", "1e-" + "9" * 19, "1e" + "9" * 30,
        # Fraction builds 10**E even for a zero mantissa: the written exponent is held to the rule
        "0e100000", "0e5000000",
        # refused by Fraction as before: underscores Decimal would skip,
        # more digits than int() reads, and a zero denominator
        "_4", "24_", "4_6._05", "1" * 5000, "1" * 5000 + "/3", "1/0",
    ],
    ids=lambda v: v[:20],
)
def test_numbers_past_the_size_rule_or_badly_written_are_refused_at_once(text):
    start = time.perf_counter()
    with pytest.raises(ExpressionError) as err:
        parse_problem(EXAMPLE1_TEXT.replace("lambda = -1", f"lambda = {text}"))
    assert time.perf_counter() - start < 1.0
    assert err.value.line == 5 and "'lambda'" in str(err.value)


def test_an_empty_interval_is_reported_as_written():
    text = EXAMPLE1_TEXT.replace("interval_a = -1", "interval_a = 1e-5000").replace(
        "interval_b = 1", "interval_b = -0.5"
    )
    with pytest.raises(BadInterval, match=r"interval \[1e-5000, -0.5\] is empty"):
        parse_problem(text)
