import copy
import functools
import importlib
import math
import pickle
import random
import sys
import time
from dataclasses import FrozenInstanceError
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from fredgal.errors import (
    DomainError,
    ExpressionSyntaxError,
    MissingBinding,
    UnknownIdentifier,
)
from fredgal.expr import (
    MAX_DEPTH,
    BinOp,
    Call,
    Const,
    Neg,
    Num,
    Var,
    _literal,
    _NotPolynomial,
    _tokenize,
    evaluate,
    parse,
    to_polynomial,
    variables,
)
from fredgal.problems import BUILTIN_NAMES, _number, builtin
from fredgal.quadrature import gauss_legendre

from exact_oracle import (
    from_pair,
    reference_evaluate,
    reference_literal,
    reference_parse,
    reference_polynomial,
    reference_tokenize,
    to_text,
)


def test_parse_product_sum_kernel_structure():
    ast = parse("x*t + x^2*t^2")
    expected = BinOp(
        "+",
        BinOp("*", Var("x"), Var("t")),
        BinOp("*", BinOp("^", Var("x"), Num("2")), BinOp("^", Var("t"), Num("2"))),
    )
    assert ast == expected


def test_parse_exponential_kernel_structure():
    ast = parse("2*exp(x)*exp(t)")
    expected = BinOp(
        "*",
        BinOp("*", Num("2"), Call("exp", Var("x"))),
        Call("exp", Var("t")),
    )
    assert ast == expected


def test_nodes_are_immutable_values_that_ignore_pos():
    node = parse("-exp(x)/(2 - e^2)")
    twin = parse(" -exp(x) / (2-e^2)")  # the same tree at other offsets
    assert node == twin and not node != twin and hash(node) == hash(twin)
    assert node != parse("-exp(t)/(2 - e^2)")
    assert repr(Num("2", 4)) == "Num(text='2', pos=4)"
    assert Num("2", 4) != ("2", 4) and ("2", 4) != Num("2", 4)  # a node is not a plain tuple
    with pytest.raises(TypeError):
        Num("1") < Num("2")  # nodes have no order
    assert repr(node.left) == "Neg(operand=Call(func='exp', arg=Var(name='x', pos=5), pos=1), pos=0)"
    for copied in (copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
        assert repr(copied) == repr(node)
    for attempt in (lambda: setattr(node, "op", "*"), lambda: setattr(node, "extra", 1),
                    lambda: delattr(node, "pos")):
        with pytest.raises(FrozenInstanceError):
            attempt()
    match node:
        case BinOp("/", Neg(Call("exp", Var("x"))), BinOp("-", Num("2"), _, 11), 7):
            pass
        case _:
            pytest.fail(f"no match: {node!r}")
    # the parser builds a node of each kind as the value its constructor makes
    parsed = parse("-sin(x) * pi + 2^t")
    built = BinOp("+", BinOp("*", Neg(Call("sin", Var("x", 5), 1), 0), Const("pi", 10), 8),
                  BinOp("^", Num("2", 15), Var("t", 17), 16), 13)
    pairs = [(parsed, built)]
    for got, want in pairs:
        pairs += [(a, b) for a, b in zip(got, want) if isinstance(b, tuple)]
        assert type(got) is type(want) and got == want and not got != want
        assert hash(got) == hash(want) and repr(got) == repr(want)
        for copied in (copy.copy(got), copy.deepcopy(got), pickle.loads(pickle.dumps(got))):
            assert type(copied) is type(want) and repr(copied) == repr(want)
        moved = got._replace(pos=99)
        assert type(moved) is type(want) and moved == want and moved.pos == 99
        with pytest.raises(FrozenInstanceError):
            setattr(got, got._fields[0], None)
    assert {type(node) for node, _ in pairs} == {BinOp, Neg, Call, Var, Const, Num}


def test_dangling_operator_offset():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse("x +")
    assert err.value.offset == 3


def test_unbalanced_parens():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse("(x")
    assert err.value.offset == 2
    with pytest.raises(ExpressionSyntaxError) as err:
        parse("x)")
    assert err.value.offset == 1


def test_empty_expression():
    with pytest.raises(ExpressionSyntaxError):
        parse("   ")


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier):
        parse("y")
    with pytest.raises(UnknownIdentifier):
        parse("foo(x)")


def test_function_requires_parenthesis():
    with pytest.raises(ExpressionSyntaxError):
        parse("sin + 1")


def test_no_implicit_multiplication():
    # "xt" is one (unknown) identifier, "2 x" is a syntax error
    with pytest.raises(UnknownIdentifier):
        parse("xt")
    with pytest.raises(ExpressionSyntaxError):
        parse("2 x")


@pytest.mark.parametrize(
    "text,x,t,value",
    [
        ("x^2", 3.0, None, 9.0),
        ("x*t + x^2*t^2", 1.0, 2.0, 6.0),  # 1*2 + 1*4
        ("exp(x)", 0.0, None, 1.0),
        ("2^3^2", 0.0, None, 512.0),  # right associative
        ("-x^2", 2.0, None, -4.0),  # ^ binds tighter than unary minus
        ("(-x)^2", 2.0, None, 4.0),
        ("6/3/2", 0.0, None, 1.0),  # left associative
        ("1 - 2 - 3", 0.0, None, -4.0),
        ("1 + 2*3^2", 0.0, None, 19.0),
        ("pi", 0.0, None, math.pi),
        ("e^2", 0.0, None, math.e**2),
        ("10/9", 0.0, None, 10.0 / 9.0),
        ("sqrt(x)", 9.0, None, 3.0),
        ("cos(0)", 0.0, None, 1.0),
        ("1.5e2", 0.0, None, 150.0),
    ],
)
def test_evaluate(text, x, t, value):
    assert evaluate(parse(text), x, t) == pytest.approx(value, rel=1e-15)


def test_evaluate_domain_errors():
    with pytest.raises(DomainError):
        evaluate(parse("log(x)"), 0.0)
    with pytest.raises(DomainError):
        evaluate(parse("log(x)"), -1.0)
    with pytest.raises(DomainError):
        evaluate(parse("sqrt(x)"), -1.0)
    with pytest.raises(DomainError):
        evaluate(parse("1/x"), 0.0)
    with pytest.raises(DomainError):
        evaluate(parse("x^0.5"), -2.0)


def test_missing_t_binding():
    with pytest.raises(MissingBinding):
        evaluate(parse("x*t"), 1.0)
    # supplying t for a t-free expression is harmless
    assert evaluate(parse("x"), 2.0, 5.0) == 2.0


def test_variables():
    assert variables(parse("x*t + exp(x)")) == {"x", "t"}
    assert variables(parse("pi + 1")) == set()


def test_to_polynomial_difference_of_powers():
    poly = to_polynomial(parse("x^4 - t^4"))
    assert from_pair(poly) == {(4, 0): Fraction(1), (0, 4): Fraction(-1)}


def test_to_polynomial_binomial_square():
    # oracle: binomial expansion of (x+t)^2
    expected = {(k, 2 - k): Fraction(math.comb(2, k)) for k in range(3)}
    assert from_pair(to_polynomial(parse("(x+t)^2"))) == expected


@pytest.mark.parametrize(
    "text",
    ["exp(x)", "e^2", "pi*x", "x^t", "x^(1+1)", "x^-1", "x/t", "sqrt(x)", "x^1.5", "x^101", "1/0"],
)
def test_not_polynomial(text):
    assert to_polynomial(parse(text)) is None


def test_polynomial_fraction_folding():
    poly = to_polynomial(parse("260/119*x - 0.25"))
    assert from_pair(poly) == {(1, 0): Fraction(260, 119), (0, 0): Fraction(-1, 4)}


def test_decimal_literals_are_exact():
    # 0.1 as text folds to 1/10, not the binary double
    assert from_pair(to_polynomial(parse("0.1"))) == {(0, 0): Fraction(1, 10)}


CORPUS = [
    "1",
    "x",
    "t",
    "pi",
    "e",
    "-x",
    "x + t",
    "x - t",
    "x*t",
    "x/t",
    "x^2",
    "x^t",
    "2^3^2",
    "-x^2",
    "(-x)^2",
    "x*t + x^2*t^2",
    "x^4 - t^4",
    "t*x^2 + x*t^2",
    "2*exp(x)*exp(t)",
    "exp(x)/(2 - e^2)",
    "1 + 10/9*x^2",
    "180/119*x + 80/119*x^2",
    "sin(x)*cos(t)",
    "log(x + 1)",
    "sqrt(x^2 + 1)",
    "exp(-x^2)",
    "1/(1 + x^2)",
    "x^2^2",
    "((x))",
    "-(x + t)",
    "x - -t",
    "3.25*x",
    "1e3*x",
    "2.5e-2 + x",
    "x*(t + 1)*(t - 1)",
    "(x + t)^3",
    "x/2 + t/3",
    "pi*e",
    "sin(cos(exp(x)))",
    "x^0",
    "0.001",
    "x*x*x",
    "x - t^2/2",
    "exp(x + t)",
    "1/2/3",
    "-(-(-x))",
    "(x - 1)*(x + 1)",
    "10/9",
    "x^2*t - t^2*x",
    "sqrt(sqrt(x))",
]


def test_roundtrip_corpus():
    assert len(CORPUS) >= 50
    for text in CORPUS:
        ast = parse(text)
        assert parse(to_text(ast)) == ast, text


def test_polynomial_matches_evaluation():
    rng = np.random.default_rng(42)
    for text in ["x*t + x^2*t^2", "(x+t)^3", "1 + 10/9*x^2", "x^4 - t^4", "x/2 - 0.75*t"]:
        ast = parse(text)
        poly = to_polynomial(ast)
        assert poly is not None
        for _ in range(100):
            x, t = rng.uniform(-2.0, 2.0, size=2)
            direct = evaluate(ast, x, t)
            # the expansion evaluated exactly at the same point
            x_, t_ = Fraction(x), Fraction(t)
            via_poly = float(sum(c * x_**i * t_**j for (i, j), c in from_pair(poly).items()))
            assert via_poly == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_evaluation_is_deterministic():
    ast = parse("sin(x)*exp(t) - x^3/7")
    first = evaluate(ast, 0.37, 1.21)
    assert all(evaluate(ast, 0.37, 1.21) == first for _ in range(5))


# a 2-D (x, t) grid on which every CORPUS expression is defined: x > 0, t != 0
GRID_X = np.linspace(0.05, 1.9, 23)[:, None]
GRID_T = np.linspace(-0.7, 0.9, 19)[None, :]


@pytest.mark.parametrize("text", CORPUS)
def test_array_evaluation_matches_scalar_points(text):
    ast = parse(text)
    grid = evaluate(ast, GRID_X, GRID_T)
    assert isinstance(grid, np.ndarray) and grid.shape == (23, 19)
    points = np.array(
        [[evaluate(ast, float(x), float(t)) for t in GRID_T[0]] for x in GRID_X[:, 0]]
    )
    assert (np.abs(grid - points) <= np.spacing(np.abs(points))).all(), text


BAD_POINTS = [
    ("log(x)", 0.0, "log of nonpositive value 0.0 (offset 0)"),
    ("log(x)", -1.5, "log of nonpositive value -1.5 (offset 0)"),
    ("sqrt(x)", -2.25, "sqrt of negative value -2.25 (offset 0)"),
    ("x/(x - 1.5)", 1.5, "division of 1.5 by zero (offset 1)"),
    ("exp(x)", 800.0, "exp(800.0) is undefined (offset 0)"),
    ("x^(-1)", 0.0, "0.0 ^ -1.0 is undefined (offset 1)"),
    ("x^0.5", -2.0, "-2.0 ^ 0.5 is undefined (offset 1)"),
    ("x^2", 1e200, "1e+200 ^ 2.0 is undefined (offset 1)"),
    ("sin(x*x)", 1e200, "sin(inf) is undefined (offset 0)"),
    ("cos(-(x*x))", 1e200, "cos(-inf) is undefined (offset 0)"),
]


def bad_point_grid(bad):
    return np.array([0.25, 0.5, 0.75, bad, 1.0, 1.25])


@pytest.mark.parametrize("text,bad,message", BAD_POINTS)
def test_array_domain_errors_name_the_bad_point(text, bad, message):
    ast = parse(text)
    xs = bad_point_grid(bad)
    with pytest.raises(DomainError) as err:
        evaluate(ast, xs)
    assert str(err.value) == message
    # the same point evaluated alone fails the same way
    with pytest.raises(DomainError) as err:
        evaluate(ast, bad)
    assert str(err.value) == message


def test_array_domain_error_on_kernel_grid():
    xs = np.array([0.0, 0.5, 1.0])[:, None]
    ts = np.array([0.25, 0.75])[None, :]
    with pytest.raises(DomainError) as err:
        evaluate(parse("sqrt(t - x)"), xs, ts)
    assert str(err.value) == "sqrt of negative value -0.25 (offset 0)"


def test_scalar_input_gives_float_and_array_input_gives_broadcast_array():
    for value in (evaluate(parse("x^2"), 3.0), evaluate(parse("pi"), np.float64(0.5)),
                  evaluate(parse("x*t"), 2, 0.5)):
        assert type(value) is float
    grid = evaluate(parse("1"), np.zeros((4, 1)), np.zeros((1, 3)))
    assert grid.shape == (4, 3) and (grid == 1.0).all()
    xs = np.array([1.0, 2.0])
    out = evaluate(parse("x"), xs)
    out[0] = 5.0  # the result is a fresh array, never the caller's input
    assert xs.tolist() == [1.0, 2.0]


def test_missing_t_binding_for_arrays():
    with pytest.raises(MissingBinding):
        evaluate(parse("x*t"), np.linspace(0.0, 1.0, 5))


# -- polynomial detection against the node-by-node Fraction expansion --------

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@functools.cache
def benchmark_problems(workload: str, seed: int) -> tuple:
    """The benchmark's manufactured problems for one workload and seed, from
    its own generator."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads.build(workload, seed, "problems").problems


def benchmark_texts(workload: str, seed: int) -> tuple[str, ...]:
    """The coefficient, kernel and rhs texts of those problems."""
    problems = benchmark_problems(workload, seed)
    return tuple(text for p in problems for text in (p.coefficient, p.kernel, p.rhs))


def builtin_nodes():
    for name in BUILTIN_NAMES:
        problem = builtin(name)
        yield from (problem.a_expr, problem.kernel_expr, problem.f_expr, problem.exact_expr)


EDGE_CASES = [
    "x^101",
    "x^60*x^60 - x^60*x^60",
    "(x-x)^200",
    "(x+t)^50*(x+t)^51",
    "0*x^101",
    "x^2.0",
    "x^1e1",
    "x/(t-t)",
    "2^0.5",
    "0^0",
    "(x-x)^0",
    "x^60*x^40*(x-x)",
    "(x-x)*x^60*x^60",
    "-x/(-3)",
    "(2/4)^3",
    "x^1.5e1",
    "x^1e-1",
    # literals past the 4,300-digit int-string limit that the size rule admits
    "1" * 5000 + "*x",
    "0" * 5000 + "7",
    "1" * 5000 + ".5*x - t/" + "3" * 4400,
    "2" + "0" * 30825,
    "3e" + "0" * 5000 + "2*x",
    "3e-" + "0" * 5000 + "1*t^2",
    "0." + "0" * 5000 + "1e" + "0" * 5000 + "5002",
    "x^" + "0" * 5000 + "3",
    "(" + "7" * 4400 + "/" + "9" * 4301 + " + x)^2",
]

LITERALS = ["0", "1", "2", "7", "12", "0.5", "0.25", "3.125", "0.001", "1e2", "2.5e-3",
            "1.5E1", "2.0", "6.02e1", "0.0"]
EXPONENTS = ["0", "1", "2", "3", "2.0", "1e1", "4", "0.5", "1e-1"]


def random_expression(rng: random.Random, depth: int) -> str:
    """Expression text with decimal and exponent literals, p/q quotients,
    unary minus, division by constants, powers of sums, and some pieces
    that are not polynomials."""
    if depth == 0 or rng.random() < 0.15:
        return rng.choice(LITERALS) if rng.random() < 0.4 else rng.choice("xt")

    def sub():
        return f"({random_expression(rng, depth - 1)})"

    pick = rng.random()
    if pick < 0.3:
        return f"{sub()} {rng.choice('+-')} {sub()}"
    if pick < 0.55:
        return f"{sub()}*{sub()}"
    if pick < 0.62:
        return f"-{sub()}"
    if pick < 0.7:
        return f"{sub()}/{rng.choice(['3', '7', '0.5', '-4', '(2 - 2)', '(1/3 - t)'])}"
    if pick < 0.78:
        return f"{rng.randint(-9, 9)}/{rng.randint(1, 12)}*{sub()}"
    if pick < 0.95:
        return f"({sub()} {rng.choice('+-')} {sub()})^{rng.choice(EXPONENTS)}"
    return rng.choice(["exp(x)", "pi", "x^t", "x/t", "x^(1+1)", f"x^99*{sub()}"])


def assert_same_expansion(node) -> bool:
    """to_polynomial gives the reference's polynomial as integer numerators
    over one positive denominator with no common factor, or None where the
    reference does; True when the expression is a polynomial."""
    want = reference_polynomial(node)
    got = to_polynomial(node)
    if want is None:
        assert got is None, to_text(node)
        return False
    assert got is not None, to_text(node)
    terms, den = got
    assert (
        type(den) is int and den > 0
        and all(type(c) is int and c for c in terms.values())
        and math.gcd(den, *terms.values()) == 1
    ), to_text(node)
    assert from_pair(got) == want, to_text(node)
    return True


def test_to_polynomial_matches_the_reference_on_the_corpus_builtins_and_edge_cases():
    for text in CORPUS + EDGE_CASES:
        assert_same_expansion(parse(text))
    for node in builtin_nodes():
        assert_same_expansion(node)


@pytest.mark.parametrize("workload", ["exact_poly", "float_smooth", "float_kinked"])
def test_to_polynomial_matches_the_reference_on_the_benchmark_problems(workload):
    texts = {text for seed in range(1, 6) for text in benchmark_texts(workload, seed)}
    polynomials = sum(assert_same_expansion(parse(text)) for text in sorted(texts))
    assert polynomials > 0


def test_to_polynomial_matches_the_reference_on_random_expressions():
    rng = random.Random(2013)
    outcomes = [assert_same_expansion(parse(random_expression(rng, 3))) for _ in range(2000)]
    # both kinds occur in quantity
    assert 500 < sum(outcomes) < 1500


@pytest.mark.parametrize(
    "text",
    ["3^10000000", "(((3^100)^100)^100)^100", "2^51201", "(1/2)^51201", "(3/7 + x)^1e5",
     "1 + 1e1000000*0", "1e-1000000*x", "1 + 1e10000000*0", "x^1e1000000", "1e30826",
     "1e-30826", "0.5e-30826"],
)
def test_powers_past_the_size_bound_are_not_polynomials(text):
    # the result's bit length, k times the base's, may be at most
    # MAX_TOTAL_DEGREE·1024; these are refused before any expansion, and a
    # literal, held to the rule with k = 1, before its power of ten is built
    start = time.perf_counter()
    assert to_polynomial(parse(text)) is None
    assert time.perf_counter() - start < 1.0


def test_powers_within_the_size_bound_expand_exactly():
    cases = {
        "10^300": {(0, 0): 10**300},
        "(1/3)^100": {(0, 0): Fraction(1, 3**100)},
        "(2*x)^100": {(100, 0): 2**100},
        "(x+t)^100": {(k, 100 - k): math.comb(100, k) for k in range(101)},
        "2^51200": {(0, 0): 2**51200},
        "(1/2)^51200": {(0, 0): Fraction(1, 2**51200)},
        "(2/4)^51200": {(0, 0): Fraction(1, 2**51200)},
        "1e300": {(0, 0): 10**300},
        "1e-300": {(0, 0): Fraction(1, 10**300)},
        "2.5e-320": {(0, 0): Fraction(1, 4 * 10**319)},
        # 10**30825 has 102,399 bits and 2·10**30825 has 102,400, the bound
        "1e30825": {(0, 0): 10**30825},
        "1e-30825": {(0, 0): Fraction(1, 10**30825)},
        "5e-30826": {(0, 0): Fraction(1, 2 * 10**30825)},  # reduced before the rule applies
        "0e-99999999": {},
    }
    assert (2 * 10**30825).bit_length() == 102400
    for text, terms in cases.items():
        assert from_pair(to_polynomial(parse(text))) == terms, text


def test_literals_past_the_int_string_limit_are_read_exactly():
    # Python refuses int(text) past 4,300 digits; the size rule, not that
    # limit, decides whether a long literal is a polynomial
    from decimal import Decimal

    within = {
        "1" * 5000 + "*x": {(1, 0): int(Decimal("1" * 5000))},
        "0" * 5000 + "7": {(0, 0): 7},
        "1" * 5000 + ".5": {(0, 0): Fraction(int(Decimal("1" * 5000 + "5")), 10)},
        # 2·10**30825 has 102,400 bits, the bound
        "2" + "0" * 30825: {(0, 0): 2 * 10**30825},
        # exponents written with more digits than int() reads
        "3e" + "0" * 5000 + "2": {(0, 0): 300},
        "3e-" + "0" * 5000 + "1": {(0, 0): Fraction(3, 10)},
        "0e" + "1" * 5000: {},
        "0." + "0" * 5000 + "1e" + "0" * 5000 + "5002": {(0, 0): 10},
    }
    for text, terms in within.items():
        assert from_pair(to_polynomial(parse(text))) == terms, text[:20]
    huge_exponents = ("1e" + "0" * 4301 + "1" + "0" * 4300, "1e-" + "9" * 5000, "1e" + "1" * 19)
    for text in ("4" + "0" * 30825, "1" * 40000, "1" * 1_000_000, "0." + "1" * 1_000_000, *huge_exponents):
        start = time.perf_counter()
        assert to_polynomial(parse(text)) is None, text[:20]
        assert time.perf_counter() - start < 1.0


# -- evaluate against the walker that checks every node ---------------------


def outcome(evaluator, node, x, t):
    """(value, None) on success, (None, (exception type, message)) on a
    domain or binding error."""
    try:
        return evaluator(node, x, t), None
    except (DomainError, MissingBinding) as exc:
        return None, (type(exc), str(exc))


def assert_same_evaluation(node, x, t=None) -> bool:
    """evaluate gives the reference's bits, type and shape, or the same
    exception with the same message; True when no exception was raised."""
    want, want_error = outcome(reference_evaluate, node, x, t)
    got, got_error = outcome(evaluate, node, x, t)
    assert got_error == want_error, to_text(node)
    if want_error:
        return False
    assert type(got) is type(want), to_text(node)
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype, to_text(node)
    assert got.tobytes() == want.tobytes(), to_text(node)  # bit-equal, -0.0 and nan too
    for arg in (x, t):
        assert not np.shares_memory(got, np.asarray(arg)), to_text(node)
    return True


SCALAR_POINTS = [(0.5, -0.25), (0.0, 2.0), (-1.5, 0.0), (1e200, -3.0)]
GRIDS = [
    (np.array([-2.0, -0.5, 0.0, 0.3, 1.0, 1e200])[:, None], np.array([-1.0, 0.0, 0.25, 2.0])[None, :]),
    (np.array([-1e200, -0.75, 0.0, 0.5, 2.0]), np.array([0.5, 0.0, -2.0, 1e200, 1.5])),
]


def test_evaluate_matches_the_reference_on_the_corpus_builtins_and_bad_points():
    nodes = [parse(text) for text in CORPUS] + list(builtin_nodes())
    for node in nodes:
        assert_same_evaluation(node, GRID_X, GRID_T)
        for x, t in SCALAR_POINTS + GRIDS:
            assert_same_evaluation(node, x, t)
        assert_same_evaluation(node, GRID_X[:, 0])  # t missing where it is used
    for text, bad, _ in BAD_POINTS:
        assert not assert_same_evaluation(parse(text), bad_point_grid(bad))
        assert not assert_same_evaluation(parse(text), bad)


@pytest.mark.parametrize("workload", ["exact_poly", "float_smooth", "float_kinked"])
def test_evaluate_matches_the_reference_on_the_benchmark_problems(workload):
    # the kernel on the q-by-q Gauss grid and a, f on the q nodes, as assembly samples them
    for q in (32, 64, 128):
        rule = gauss_legendre(q)
        for seed in range(1, 6):
            for problem in benchmark_problems(workload, seed):
                a, b = float(problem.a), float(problem.b)
                pts = 0.5 * (b - a) * rule.nodes + 0.5 * (a + b)
                assert assert_same_evaluation(parse(problem.kernel), pts[:, None], pts[None, :])
                for text in (problem.coefficient, problem.rhs):
                    assert assert_same_evaluation(parse(text), pts)


EVAL_LITERALS = ["0", "1", "2", "0.5", "3.25", "1e308", "1e-320", "-1", "pi", "e"]
EVAL_EXPONENTS = ["2", "3", "0.5", "1.5", "-1", "-2", "-0.5", "0", "t", "x"]


def random_evaluation(rng: random.Random, depth: int) -> str:
    """Expression text with every function, division, powers with
    fractional and negative exponents, and literals at the float range's ends."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(EVAL_LITERALS) if rng.random() < 0.4 else rng.choice("xt")

    def sub():
        return f"({random_evaluation(rng, depth - 1)})"

    pick = rng.random()
    if pick < 0.3:
        return f"{rng.choice(['exp', 'sin', 'cos', 'log', 'sqrt'])}{sub()}"
    if pick < 0.45:
        return f"{sub()}/{sub()}"
    if pick < 0.6:
        return f"{sub()}^{rng.choice(EVAL_EXPONENTS)}"
    if pick < 0.7:
        return f"-{sub()}"
    return f"{sub()} {rng.choice('+-*')} {sub()}"


def test_evaluate_matches_the_reference_on_random_expressions():
    rng = random.Random(2013)
    ok = failed = 0
    for _ in range(2000):
        node = parse(random_evaluation(rng, 4))
        for x, t in SCALAR_POINTS[:2] + GRIDS:
            if assert_same_evaluation(node, x, t):
                ok += 1
            else:
                failed += 1
    # domain errors and clean results both occur in quantity
    assert ok > 1000 and failed > 1000


def test_a_clean_grid_builds_no_domain_mask(monkeypatch):
    # the masks and their reductions are built only where a checked node's
    # result is not finite, so a grid on which CORPUS is defined never needs them
    def refuse(*args):
        raise AssertionError("a domain mask was built on a clean grid")

    monkeypatch.setattr("fredgal.expr._check", refuse)
    for text in CORPUS:
        evaluate(parse(text), GRID_X, GRID_T)
        evaluate(parse(text), 0.5, 0.25)


def test_finite_values_whose_sum_overflows_raise_nothing(monkeypatch):
    # a checked node first sums its values; a sum past the float range is
    # not finite, so the point masks are built, and they find no bad point
    masks = []
    check = importlib.import_module("fredgal.expr")._check

    def spy(bad, *args):
        masks.append(np.asarray(bad).shape)
        return check(bad, *args)

    monkeypatch.setattr("fredgal.expr._check", spy)
    for text, x in (("exp(x)", np.full(4, 709.0)), ("x^2", np.full(4, 1e154)),
                    ("x/1", np.full(4, 1e308)), ("x^1", np.full((2, 3), 1e308))):
        masks.clear()
        with np.errstate(all="raise"):  # no floating-point warning escapes either
            got = evaluate(parse(text), x)
        assert masks, text
        assert np.isfinite(got).all(), text
        with np.errstate(over="ignore"):
            assert np.add.reduce(got, None) == math.inf, text
        assert assert_same_evaluation(parse(text), x)


@pytest.mark.parametrize(
    "text,bad,message",
    [
        ("log(x)", 0.0, "log of nonpositive value 0.0 (offset 0)"),
        ("sqrt(x)", -1.0, "sqrt of negative value -1.0 (offset 0)"),
        ("1/x", 0.0, "division of 1.0 by zero (offset 1)"),
        ("x^0.5", -1.0, "-1.0 ^ 0.5 is undefined (offset 1)"),
        ("exp(x)", 1000.0, "exp(1000.0) is undefined (offset 0)"),
    ],
)
def test_a_single_bad_point_anywhere_on_a_grid_is_named(text, bad, message):
    node = parse(text)
    for i in range(3):
        for j in range(4):
            x = np.linspace(0.25, 3.0, 12).reshape(3, 4)
            x[i, j] = bad
            with pytest.raises(DomainError) as err:
                evaluate(node, x)
            assert str(err.value) == message, (i, j)
            assert not assert_same_evaluation(node, x)


def test_variables_of_a_deep_tree():
    # the walk is iterative: a chain deeper than the recursion limit is fine;
    # parse refuses one that deep, so the chain is built from nodes
    chain = functools.reduce(lambda left, _: BinOp("+", left, Var("x")), range(4999), Var("x"))
    assert variables(BinOp("-", chain, Call("exp", Neg(Var("t"))))) == {"x", "t"}


# -- the scanner and the literal reader against the code they replaced -------


WHITESPACE = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
# digits (ASCII and other Unicode decimal digits), names, operators, and
# characters that start no token: a superscript digit, a zero-width space
# (not whitespace), a letter outside ASCII, punctuation and a NUL
TEXT_PIECES = [*"0123456789", "\u0663", "\u0660", "\uff11", *"xtepiE_", "exp", "sqrt", "a9",
               *"+-*/^().", "e-", "e+", "\u00b2", "\u200b", "\u00e9", "$", ",", "=", "\x00"]


def tokenize_outcome(tokenize, text):
    try:
        return tokenize(text)
    except ExpressionSyntaxError as exc:
        return str(exc), exc.offset


def test_tokenize_matches_the_reference_on_random_text():
    rng = random.Random(2013)
    errors = 0
    for _ in range(30000):
        pieces = [rng.choice(WHITESPACE if rng.random() < 0.3 else TEXT_PIECES)
                  for _ in range(rng.randint(0, 12))]
        text = "".join(pieces)
        want = tokenize_outcome(reference_tokenize, text)
        assert tokenize_outcome(_tokenize, text) == want, repr(text)
        errors += isinstance(want, tuple)
    assert 3000 < errors < 27000  # both kinds occur in quantity


def test_tokenize_matches_the_reference_on_every_whitespace_character():
    for text in ("x".join(WHITESPACE), "1.5e3".join(WHITESPACE), "".join(WHITESPACE) + "t",
                 "".join(WHITESPACE), "x" + "".join(WHITESPACE) + "\u00b2"):
        assert tokenize_outcome(_tokenize, text) == tokenize_outcome(reference_tokenize, text)


def test_tokenize_time_is_linear_in_trailing_whitespace():
    start = time.perf_counter()
    assert _tokenize("x" + " " * 1_000_000) == [("name", "x", 0), ("end", "", 1_000_001)]
    assert time.perf_counter() - start < 1.0


def digit_run(rng, length, unicode):
    pool = "0123456789" + ("\u0660\u0663\uff11\u0969" if unicode else "")
    return "".join(rng.choice(pool) for _ in range(length))


def random_literal(rng):
    """Number-token text: short and long digit runs (past the 4,300-digit
    limit of int()), leading zeros, zero mantissas, and exponents from one
    digit to thousands.  Other Unicode digits appear only in runs shorter
    than 19 digits, where the old reader read them as int() does."""
    long_run = rng.random() < 0.15
    whole_len = rng.choice([4299, 4300, 4301, 5000]) if long_run else rng.randint(1, 8)
    whole = digit_run(rng, whole_len, unicode=not long_run)
    if rng.random() < 0.2:
        whole = "0" * rng.randint(1, 30) + whole
    if rng.random() < 0.1:
        whole = "0" * len(whole)
    text = whole
    if rng.random() < 0.5:
        frac_len = rng.choice([1, 2, 5, 30, 4400]) if not long_run else rng.randint(1, 50)
        text += "." + digit_run(rng, frac_len, unicode=frac_len < 19 and not long_run)
    if rng.random() < 0.6:
        kind = rng.random()
        if kind < 0.6:
            exponent = str(rng.randint(0, 400))
        elif kind < 0.8:
            exponent = str(rng.randint(30000, 31500))  # either side of the size rule
        elif kind < 0.9:
            exponent = "0" * rng.randint(1, 5000) + str(rng.randint(0, 99))
        else:
            exponent = rng.choice(["1" * 19, "9" * 18, "1" + "0" * 4400, "9" * 5000])
        if len(exponent) < 19 and rng.random() < 0.2:
            exponent = digit_run(rng, len(exponent), unicode=True)
        text += rng.choice("eE") + rng.choice(["", "+", "-"]) + exponent
    return text


def literal_outcome(text):
    try:
        return _literal(text)
    except _NotPolynomial:
        return None


def test_literal_matches_the_reference_on_random_literals():
    rng = random.Random(2013)
    refused = 0
    for _ in range(1200):
        text = random_literal(rng)
        assert _tokenize(text)[:-1] == [("num", text, 0)], text[:40]
        want = reference_literal(text)
        assert literal_outcome(text) == want, text[:40]
        refused += want is None
    assert 100 < refused < 1000  # both kinds occur in quantity


def plain_edge_texts():
    """Plain numbers at the edges of the integer reader: 300 and 301 digits
    on either side of the point, leading zeros, all-zero fractions and
    digits other than ASCII."""
    nines, threes = "9" * 300, "\u0663" * 300
    return [
        nines, nines + "9", nines + "." + nines, nines + "9." + nines, nines + "." + nines + "9",
        "1." + "0" * 299 + "1", "1." + "0" * 300 + "1", "0" * 300 + ".5", "0" * 301 + ".5",
        "007", "000123.4500", "0.0", "7.000", "0." + "0" * 300, "0." + "0" * 301,
        "\u0663.\u0665", "\uff11\uff12.\uff15\uff10", threes + "." + threes, "\u0660" * 301 + ".1",
    ]


def test_plain_numbers_at_the_readers_edges_read_exactly():
    for text in plain_edge_texts():
        assert _tokenize(text)[:-1] == [("num", text, 0)], text[:40]
        assert _literal(text) == reference_literal(text), text[:40]
        for signed in (text, "-" + text, "+" + text):  # a number key may carry a sign
            assert _number({"lambda": (signed, 1)}, "lambda") == Fraction(signed), signed[:40]


def test_the_size_rule_holds_a_literal_to_its_value():
    # the old reader refused these: the first for the integer its digits
    # spell without the point (102,401 bits), the others for leading zeros
    # other than ASCII "0", which it did not strip
    cases = {
        "4" + "0" * 30825 + "e-1": (4 * 10**30824, 1),
        "1e" + "\u0660" * 19 + "1": (10, 1),
        "\u0660" * 40000 + "1": (1, 1),
    }
    for text, ratio in cases.items():
        assert reference_literal(text) is None
        assert _literal(text) == ratio


# -- the depth bound ---------------------------------------------------------

DEEP_TEXTS = {
    "sum": lambda k: "+".join(["x"] * k),
    "product": lambda k: "*".join(["x"] * k),
    "parentheses": lambda k: "(" * (k - 1) + "x" + ")" * (k - 1),
    "unary minus": lambda k: "-" * (k - 1) + "x",
    "powers": lambda k: "x" + "^1" * (k - 1),
    "calls": lambda k: "sin(" * (k - 1) + "x" + ")" * (k - 1),
}


@pytest.mark.parametrize("shape", DEEP_TEXTS)
def test_expressions_nested_past_the_depth_bound_are_syntax_errors(shape):
    node = parse(DEEP_TEXTS[shape](MAX_DEPTH))
    # every walker takes the deepest tree parse gives
    to_polynomial(node)
    assert np.isfinite(evaluate(node, GRID_X, GRID_T)).all()
    for k in (MAX_DEPTH + 1, 2000, 3000):
        with pytest.raises(ExpressionSyntaxError, match="nested deeper than 100 levels"):
            parse(DEEP_TEXTS[shape](k))


# -- the parser against the one it replaced ----------------------------------

FIELDS = {Num: ("text",), Var: ("name",), Const: ("name",), Neg: ("operand",),
          BinOp: ("op", "left", "right"), Call: ("func", "arg")}


def spelled_out(node):
    """The tree as nested tuples of each node's type, fields and pos, which
    == on nodes leaves out."""
    fields = (getattr(node, name) for name in FIELDS[type(node)])
    return (type(node).__name__, node.pos,
            *(spelled_out(v) if type(v) in FIELDS else v for v in fields))


def parse_outcome(parser, text):
    try:
        return spelled_out(parser(text))
    except ExpressionSyntaxError as exc:
        return type(exc), str(exc), exc.offset


def grammar_text(rng: random.Random, depth: int, rule: str = "expr") -> str:
    """Valid expression text drawn rule by rule from the grammar, with few
    parentheses and random spacing, so precedence and associativity decide
    the tree."""
    def space():
        return rng.choice(["", "", " ", "  ", "\t"])

    if rule == "expr":
        parts = [grammar_text(rng, depth, "term") for _ in range(rng.randint(1, 3))]
        return "".join(f"{space()}{rng.choice('+-')}{space()}{p}" if i else p
                       for i, p in enumerate(parts))
    if rule == "term":
        parts = [grammar_text(rng, depth, "factor") for _ in range(rng.randint(1, 3))]
        return "".join(f"{space()}{rng.choice('*/')}{space()}{p}" if i else p
                       for i, p in enumerate(parts))
    if rule == "factor":
        if depth > 0 and rng.random() < 0.15:
            return "-" + space() + grammar_text(rng, depth - 1, "factor")
        atom = grammar_text(rng, depth, "atom")
        if depth > 0 and rng.random() < 0.25:
            return f"{atom}{space()}^{space()}{grammar_text(rng, depth - 1, 'factor')}"
        return atom
    pick = rng.random()
    if depth == 0 or pick < 0.5:
        return rng.choice(["x", "t", "pi", "e", "2", "0.5", "1.5e-3", "10", "007", "3E2"])
    inner = grammar_text(rng, depth - 1)
    if pick < 0.75:
        return f"({space()}{inner}{space()})"
    return f"{rng.choice(['exp', 'sin', 'cos', 'log', 'sqrt'])}{space()}({inner})"


def test_parse_matches_the_reference_on_random_text():
    rng = random.Random(2013)
    pieces = TEXT_PIECES + ["x", "t", "(", ")", "-", "^", "*", "exp(", "sin(", "1.5", " "]
    errors = 0
    for _ in range(30000):
        text = "".join(rng.choice(WHITESPACE if rng.random() < 0.1 else pieces)
                       for _ in range(rng.randint(0, 12)))
        want = parse_outcome(reference_parse, text)
        assert parse_outcome(parse, text) == want, repr(text)
        errors += type(want[0]) is type
    assert 3000 < errors < 29000  # both trees and errors occur in quantity


def test_parse_matches_the_reference_on_grammar_generated_expressions():
    rng = random.Random(2013)
    texts = [grammar_text(rng, 3) for _ in range(1000)]
    texts += [random_expression(rng, 4) for _ in range(500)]
    texts += [random_evaluation(rng, 4) for _ in range(500)]
    for text in texts:
        want = parse_outcome(reference_parse, text)
        assert type(want[0]) is str, text  # a tree, not an error
        assert parse_outcome(parse, text) == want, text


@pytest.mark.parametrize("shape", DEEP_TEXTS)
def test_parse_matches_the_reference_around_the_depth_bound(shape):
    for k in (99, 100, 101, 2000):
        text = DEEP_TEXTS[shape](k)
        assert parse_outcome(parse, text) == parse_outcome(reference_parse, text), (shape, k)
