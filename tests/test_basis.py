import math
import struct
import sys
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from scipy.integrate import quad

from fredgal.basis import (
    BasisSpec,
    _binomials,
    basis_row,
    bernstein_to_monomial,
    float_interval,
    legendre_row,
    legendre_to_bernstein,
)
from fredgal.errors import (
    InvalidDegree,
    InvalidInterval,
    OutOfInterval,
    _endpoint_text,
    number_text,
)
from fredgal.expr import evaluate, parse
from fredgal.galerkin import (
    ZERO_REFERENCE_TOL,
    FredholmProblem,
    error_table,
    evaluate_solution,
    solve,
)
from fredgal.quadrature import gauss_legendre

from exact_oracle import legendre_in_bernstein, reference_bernstein_to_monomial


def bernstein_value(i, n, u):
    """Member i of degree n at the float u, exact: C(n,i)·U^i·(1-U)^(n-i)
    for U the Fraction of u."""
    u = Fraction(u)
    return math.comb(n, i) * u**i * (1 - u) ** (n - i)


def test_spec_validation():
    with pytest.raises(InvalidInterval):
        BasisSpec(3, 1.0, 1.0)
    with pytest.raises(InvalidInterval):
        BasisSpec(3, 2.0, -2.0)
    with pytest.raises(InvalidDegree):
        BasisSpec(-1, 0.0, 1.0)
    with pytest.raises(InvalidDegree):
        BasisSpec(51, 0.0, 1.0)
    with pytest.raises(InvalidDegree, match=r"^degree must be an integer, got 2\.5$"):
        BasisSpec(2.5, 0.0, 1.0)
    assert BasisSpec(50, 0.0, 1.0).n == 50
    assert basis_row(BasisSpec(np.int64(3), 0.0, 1.0), 0.5).shape == (4,)


# endpoints that are finite but fail b > a
EMPTY_ENDS = [(1.0, 1.0), (2.0, -2.0), (Fraction(1, 3), Fraction(1, 3)), (Fraction(1, 10**5000), 0)]


@pytest.mark.parametrize(
    "a, b",
    [
        (0.0, math.inf),
        (-math.inf, 1.0),
        (math.nan, 1.0),
        (0.0, Fraction(10**400)),
        (-Fraction(10**5000), Fraction(1)),
        *EMPTY_ENDS,
    ],
)
def test_spec_rejects_nonfinite_endpoints(a, b):
    # one rule, basis.check_interval, for a basis and for a problem
    reason = "need b > a" if (a, b) in EMPTY_ENDS else "endpoints must be finite"
    message = f"{reason}, got [{number_text(a)}, {number_text(b)}]"
    problem = partial(FredholmProblem, parse("1"), 1.0, parse("x*t"), parse("x"))
    for build in (partial(BasisSpec, 2), problem):
        with pytest.raises(InvalidInterval) as info:
            build(a, b)
        assert str(info.value) == message


@pytest.mark.parametrize(
    "a, b",
    [
        (-1e308, 1e308),
        (Fraction(-10**308), Fraction(10**308)),
        # the exact width overflows, the endpoints' float difference does not
        (Fraction(-(2**960)), Fraction(2**1024 - 2**971) + 2**970 - 1),
        # the endpoints' float difference overflows, the exact width does not
        (Fraction(-8.98846567431158e307), Fraction(2**1024 - 2**971, 2) - 1),
    ],
)
def test_spec_wider_than_the_float_range_gives_no_rows(a, b):
    # where b - a overflows, u = (x-a)/(b-a) reads 0 at every x; where
    # x - a does, u is inf at b and the row NaN
    spec = BasisSpec(2, a, b)
    for row in (basis_row, legendre_row):
        with pytest.raises(InvalidInterval, match="wider than the float range"):
            row(spec, np.array([float(a), float(b)]))


def test_value_midpoint_degree_ten():
    spec = BasisSpec(10, 0.0, 1.0)
    assert basis_row(spec, 0.5)[0] == 0.5**10  # 0.0009765625


def test_value_vanishes_at_left_endpoint_for_interior_index():
    spec = BasisSpec(5, -3.0, 4.0)
    assert basis_row(spec, -3.0)[2] == 0.0
    assert basis_row(spec, 4.0)[2] == 0.0


def test_row_linear_case():
    spec = BasisSpec(1, 0.0, 1.0)
    assert basis_row(spec, 0.25).tolist() == [0.75, 0.25]


def test_row_endpoints_exact():
    spec = BasisSpec(3, -1.0, 1.0)
    assert basis_row(spec, -1.0).tolist() == [1.0, 0.0, 0.0, 0.0]
    assert basis_row(spec, 1.0).tolist() == [0.0, 0.0, 0.0, 1.0]


def test_row_degree_zero():
    assert basis_row(BasisSpec(0, 2.0, 5.0), 3.3).tolist() == [1.0]


def test_partition_of_unity_and_nonnegativity():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(0, 11))
        a = rng.uniform(-5.0, 5.0)
        b = a + rng.uniform(0.1, 10.0)
        spec = BasisSpec(n, a, b)
        x = rng.uniform(a, b)
        row = basis_row(spec, x)
        assert abs(row.sum() - 1.0) <= 1e-12
        assert (row >= 0.0).all()


def test_row_matches_direct_values():
    # points / 3 are not multiples of 2^-53, so 1 - u rounds; more lie
    # within 1e-6 of each end
    rng = np.random.default_rng(11)
    inner = rng.uniform(0.0, 1.0, 12) / 3
    near = rng.uniform(0.0, 1e-6, 4)
    units = np.concatenate([[0.0, 1.0], inner, 1.0 - inner, near, 1.0 - near])
    for n in (0, 1, 5, 20, 40, 50):
        bound = Fraction(n + 8, 2**53)
        for a, b in ((0.0, 1.0), (-2.0, 3.0)):
            xs = a + (b - a) * units
            table = basis_row(BasisSpec(n, a, b), xs)
            for u, row in zip(((xs - a) / (b - a)).tolist(), table.tolist()):  # the code's u
                for i, value in enumerate(row):
                    exact = bernstein_value(i, n, u)
                    assert value == pytest.approx(float(exact), abs=1e-13)
                    if float(exact) >= sys.float_info.min:  # a normal float
                        assert abs(Fraction(value) - exact) <= bound * exact, (n, u, i)


def test_binomials_are_exact_cached_and_read_only():
    for n in (0, 1, 25, 50):
        row = _binomials(n)
        assert row.tolist() == [math.comb(n, k) for k in range(n + 1)]  # C(50, 25) < 2^53
        assert _binomials(n) is row
        assert not row.flags.writeable


def test_table_equals_stacked_rows():
    # the table runs the scalar sweep's operations per element, so == holds
    rng = np.random.default_rng(17)
    specs = [BasisSpec(0, 2.0, 5.0), BasisSpec(1, 0.0, 1.0), BasisSpec(50, -1.0, 1.0),
             BasisSpec(7, Fraction(-1, 3), Fraction(7, 2)), BasisSpec(0, Fraction(1, 10), 1)]
    for _ in range(20):
        a = rng.uniform(-5.0, 5.0)
        specs.append(BasisSpec(int(rng.integers(0, 21)), a, a + rng.uniform(0.1, 10.0)))
    near = np.random.default_rng(19).uniform(0.0, 1e-6, size=4)  # within 1e-6 of either end
    for spec in specs:
        a, b = float(spec.a), float(spec.b)
        xs = np.concatenate([[a, b], rng.uniform(a, b, size=30), a + near, b - near])
        table = basis_row(spec, xs)
        assert table.shape == (40, spec.n + 1)
        assert (table == np.stack([basis_row(spec, x) for x in xs])).all()


def _per_point_rows(solution, exact, grid):
    # one point at a time, the way the table was built before it was batched
    rows = []
    for x in grid:
        x = float(x)
        reference = evaluate(exact, x)
        approx = evaluate_solution(solution, x)
        if abs(reference) < ZERO_REFERENCE_TOL:
            rows.append((x, reference, approx, abs(reference - approx), "absolute-at-zero"))
        else:
            rows.append((x, reference, approx, abs((reference - approx) / reference), "relative"))
    return rows


def test_error_table_matches_per_point_rows_on_exact_solution():
    # phi = 2 - x + 3x^2 solves phi + 1/2·∫ x·t·phi(t) dt = f on [-1/3, 7/2];
    # the exact path gives a Fraction spec
    problem = FredholmProblem(
        parse("1"), Fraction(1, 2), parse("x*t"), parse("2 - x + 3*x^2 + 572171/10368*x"),
        Fraction(-1, 3), Fraction(7, 2), parse("2 - x + 3*x^2"),
    )
    solution = solve(problem, 3)
    assert solution.mode == "exact" and isinstance(solution.spec.a, Fraction)
    grid = np.linspace(-1 / 3, 3.5, 41)
    rows = error_table(solution, problem.exact_expr, grid)
    for row, old in zip(rows, _per_point_rows(solution, problem.exact_expr, grid), strict=True):
        assert (row.x, row.exact, row.kind) == (old[0], old[1], old[4])
        assert row.approx == pytest.approx(old[2], rel=1e-15)
        assert row.error <= 1e-15


def test_error_table_refuses_grid_outside_interval():
    problem = FredholmProblem(parse("1"), 0.0, parse("x*t"), parse("x"), 0.0, 1.0, parse("x"))
    solution = solve(problem, 2, mode="float")
    with pytest.raises(OutOfInterval):
        error_table(solution, problem.exact_expr, [0.0, 0.5, 1.0 + 1e-9])
    with pytest.raises(OutOfInterval):
        error_table(solution, problem.exact_expr, np.linspace(-0.1, 1.0, 12))


def test_error_table_accepts_float_view_of_fraction_endpoint():
    # float(1/10) lies just above 1/10; the grid the CLI builds ends there
    problem = FredholmProblem(
        parse("1"), Fraction(0), parse("x*t"), parse("x"), Fraction(0), Fraction(1, 10), parse("x")
    )
    solution = solve(problem, 2)
    assert solution.mode == "exact"
    rows = error_table(solution, problem.exact_expr, np.linspace(0.0, 0.1, 11))
    assert rows[-1].x == 0.1 and rows[-1].error <= 1e-15
    assert evaluate_solution(solution, 0.1) == rows[-1].approx


def test_evaluate_solution_on_a_grid_is_the_error_table_approx_column():
    problem = FredholmProblem(
        parse("1"), Fraction(1, 2), parse("x*t"), parse("2 - x + 3*x^2 + 572171/10368*x"),
        Fraction(-1, 3), Fraction(7, 2), parse("2 - x + 3*x^2"),
    )
    grid = np.linspace(-1 / 3, 3.5, 41)
    for mode in ("exact", "float"):
        solution = solve(problem, 3, mode=mode)
        approx = [row.approx for row in error_table(solution, problem.exact_expr, grid)]
        values = evaluate_solution(solution, grid)
        assert isinstance(values, np.ndarray) and values.shape == (41,)
        assert values.tolist() == approx


def test_symmetry():
    rng = np.random.default_rng(13)
    spec = BasisSpec(7, -1.5, 2.5)
    for _ in range(200):
        s = rng.uniform(0.0, spec.b - spec.a)
        for i in range(spec.n + 1):
            left = basis_row(spec, spec.a + s)[i]
            right = basis_row(spec, spec.b - s)[spec.n - i]
            assert abs(left - right) <= 1e-12


def member_integrals(spec):
    """Gauss-Legendre integrals of all n+1 members over [a, b]."""
    rule = gauss_legendre(spec.n + 1)  # exact through degree 2n+1
    half = 0.5 * (spec.b - spec.a)
    return half * (rule.weights @ basis_row(spec, half * rule.nodes + 0.5 * (spec.a + spec.b)))


def test_integral_closed_form_against_quadrature():
    spec = BasisSpec(3, -1.0, 1.0)
    integrals = member_integrals(spec)
    for i in range(4):
        assert integrals[i] == pytest.approx(0.5, rel=1e-14)
        oracle, _ = quad(lambda x: basis_row(spec, x)[i], -1.0, 1.0)
        assert integrals[i] == pytest.approx(oracle, rel=1e-10)


def test_integral_degree_zero():
    assert member_integrals(BasisSpec(0, 0.0, 1.0)).tolist() == [1.0]


def test_integral_degree_ten():
    spec = BasisSpec(10, 0.0, 1.0)
    assert member_integrals(spec) == pytest.approx([1.0 / 11.0] * 11, rel=1e-13)
    oracle, _ = quad(lambda x: basis_row(spec, x)[4], 0.0, 1.0)
    assert oracle == pytest.approx(1.0 / 11.0, rel=1e-10)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 30, 50])
def test_legendre_row_matches_numpy_legendre_series(n):
    spec = BasisSpec(n, -2.0, 3.0)
    x = np.linspace(-2.0, 3.0, 23)
    table = legendre_row(spec, x)
    assert table.shape == (23, n + 1)
    s = 2.0 * (x + 2.0) / 5.0 - 1.0
    for k in range(n + 1):
        want = math.sqrt(2 * k + 1) * np.polynomial.legendre.legval(s, [0] * k + [1])
        assert table[:, k] == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert legendre_row(spec, 0.5).shape == (n + 1,)


def test_legendre_row_is_orthonormal():
    spec = BasisSpec(12, 1.0, 4.0)
    rule = gauss_legendre(13)  # exact through degree 25
    u = 0.5 * rule.nodes + 0.5
    table = legendre_row(spec, spec.a + 3.0 * u)
    gram = (table * (0.5 * rule.weights)[:, None]).T @ table
    assert np.abs(gram - np.eye(13)).max() <= 1e-13


@pytest.mark.parametrize("n", [0, 1, 5, 20, 37, 50])
def test_legendre_to_bernstein_is_the_rounded_rational_map(n):
    # an independent rational construction, through the power form
    scale = np.sqrt(2.0 * np.arange(n + 1) + 1.0)
    want = np.array(legendre_in_bernstein(n), dtype=float) * scale
    T = legendre_to_bernstein(n)
    assert T.shape == (n + 1, n + 1)
    assert np.abs(T - want).max() <= 2e-16 * np.abs(T).max()
    assert legendre_to_bernstein(n) is T  # built once per degree
    assert not T.flags.writeable


def test_monomial_conversion_even_quadratic():
    spec = BasisSpec(3, -1.0, 1.0)
    coeffs = [Fraction(19, 9), Fraction(17, 27), Fraction(17, 27), Fraction(19, 9)]
    assert bernstein_to_monomial(coeffs, spec) == [
        Fraction(1),
        Fraction(0),
        Fraction(10, 9),
        Fraction(0),
    ]


def test_monomial_conversion_identity_function():
    spec = BasisSpec(3, -1.0, 1.0)
    coeffs = [Fraction(-1), Fraction(-1, 3), Fraction(1, 3), Fraction(1)]
    assert bernstein_to_monomial(coeffs, spec) == [
        Fraction(0),
        Fraction(1),
        Fraction(0),
        Fraction(0),
    ]


def test_monomial_conversion_constant_row():
    spec = BasisSpec(4, 0.25, 2.0)
    coeffs = [Fraction(7, 2)] * 5
    assert bernstein_to_monomial(coeffs, spec) == [Fraction(7, 2)] + [Fraction(0)] * 4
    for count in (4, 6):
        with pytest.raises(ValueError, match=f"expected 5 coefficients, got {count}"):
            bernstein_to_monomial([Fraction(7, 2)] * count, spec)


def test_monomial_conversion_float_agrees_with_direct_sum():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(0, 9))
        a = rng.uniform(-3.0, 1.0)
        b = a + rng.uniform(0.5, 4.0)
        spec = BasisSpec(n, a, b)
        coeffs = rng.uniform(-2.0, 2.0, size=n + 1).tolist()
        mono = bernstein_to_monomial(coeffs, spec)
        assert all(isinstance(c, float) for c in mono)
        for _ in range(100 // 20 + 3):
            x = rng.uniform(a, b)
            direct = float(basis_row(spec, x) @ np.asarray(coeffs))
            horner = 0.0
            for c in reversed(mono):
                horner = horner * x + c
            assert horner == pytest.approx(direct, abs=1e-10, rel=1e-10)


def test_monomial_conversion_exact_mode_is_exact():
    # independent oracle: evaluate both forms at rational points with the
    # raw binomial formula, entirely in Fraction arithmetic
    rng = np.random.default_rng(29)
    n = 5
    a, b = Fraction(-1), Fraction(2)
    spec = BasisSpec(n, float(a), float(b))
    coeffs = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))) for _ in range(n + 1)]
    mono = bernstein_to_monomial(coeffs, spec)
    for numerator in range(-2, 7):
        x = Fraction(numerator, 3)
        direct = sum(
            c
            * math.comb(n, i)
            * (x - a) ** i
            * (b - x) ** (n - i)
            / (b - a) ** n
            for i, c in enumerate(coeffs)
        )
        via_mono = sum(c * x**k for k, c in enumerate(mono))
        assert via_mono == direct


def test_monomial_conversion_float_input_at_degree_forty():
    # float input is converted exactly and rounded once at the end
    rng = np.random.default_rng(31)
    spec = BasisSpec(40, -0.3, 1.7)
    coeffs = rng.uniform(-2.0, 2.0, size=41).tolist()
    exact = bernstein_to_monomial([Fraction(c) for c in coeffs], spec)
    assert bernstein_to_monomial(coeffs, spec) == [float(c) for c in exact]


def rational_monomial_reference(coeffs, spec):
    """The Fraction-per-step conversion the integer kernel replaced, kept as
    its reference: forward differences and the shift (x-a)^k, each step a
    normalised Fraction, rounded to float at the end for float input."""
    exact = all(isinstance(c, (int, Fraction)) for c in coeffs)
    n, a = spec.n, Fraction(spec.a)
    h = Fraction(spec.b) - a
    c = [Fraction(v) for v in coeffs]
    d = []
    for k in range(n + 1):
        d.append(math.comb(n, k) * c[0] / h**k)
        c = [right - left for left, right in zip(c, c[1:])]
    shift = [(-a) ** e for e in range(n + 1)]
    out = [
        sum(d[k] * math.comb(k, m) * shift[k - m] for k in range(m, n + 1))
        for m in range(n + 1)
    ]
    return out if exact else [float(v) for v in out]


def assert_identical(got, want):
    # == plus element type, and for floats the same bits (the sign of zero too)
    assert [type(v) for v in got] == [type(v) for v in want]
    assert got == want
    for g, w in zip(got, want):
        if isinstance(w, float):
            assert struct.pack("<d", g) == struct.pack("<d", w)


KINDS = ("float", "fraction", "mixed")


def draw_coefficients(rng, n, kind):
    if kind == "float":
        return (rng.uniform(-2.0, 2.0, size=n + 1) * 10.0 ** rng.integers(-4, 5)).tolist()
    if kind == "fraction":
        return [Fraction(int(rng.integers(-99, 100)), int(rng.integers(1, 100))) for _ in range(n + 1)]
    pick = [
        lambda: int(rng.integers(-5, 6)),
        lambda: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10))),
        lambda: float(rng.uniform(-2.0, 2.0)),
    ]
    return [pick[int(rng.integers(0, 3))]() for _ in range(n + 1)]


INTERVALS = [
    (0.0, 1.0),
    (0.1, 1.1),
    (-0.3, 1.7),
    (0.1, 0.1 + 1e-8),
    (-1.0, 1.0),
    (Fraction(-1, 3), Fraction(7, 2)),
]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("interval", range(len(INTERVALS)))
def test_monomial_conversion_is_identical_to_the_rational_reference(kind, interval):
    # the intervals share out the degrees 0..50 between them, and each also
    # takes the top degree
    a, b = INTERVALS[interval]
    rng = np.random.default_rng([51, KINDS.index(kind), interval])
    for n in sorted({*range(interval, 51, len(INTERVALS)), 50}):
        spec = BasisSpec(n, a, b)
        coeffs = draw_coefficients(rng, n, kind)
        try:
            want = rational_monomial_reference(coeffs, spec)
        except OverflowError:  # the reference cannot round past the float range
            continue
        assert_identical(bernstein_to_monomial(coeffs, spec), want)


def test_monomial_conversion_keeps_the_sign_of_zero():
    # zero inputs give +0.0; on [0, 1e300] the slope -1e-300/1e300 underflows to -0.0
    for coeffs, spec in (
        ([0.0] * 4, BasisSpec(3, 0.0, 1.0)),
        ([-0.0] * 4, BasisSpec(3, 0.0, 1.0)),
        ([0.0, -1e-300], BasisSpec(1, 0.0, 1e300)),
    ):
        got = bernstein_to_monomial(coeffs, spec)
        assert_identical(got, rational_monomial_reference(coeffs, spec))
    assert math.copysign(1.0, got[1]) == -1.0


def test_monomial_conversion_rounds_past_the_float_range_to_infinity():
    # on [0, 1e-10] the degree-one member x/1e-10 scales 1e300 to 1e310
    spec = BasisSpec(1, 0.0, 1e-10)
    assert bernstein_to_monomial([0.0, 1e300], spec) == [0.0, math.inf]
    assert bernstein_to_monomial([0.0, -1e300], spec) == [0.0, -math.inf]
    with pytest.raises(OverflowError):
        rational_monomial_reference([0.0, 1e300], spec)
    # exact input has no float range to leave
    exact = bernstein_to_monomial([Fraction(0), Fraction(10**300)], spec)
    assert exact[1] == Fraction(10**300) / Fraction(1e-10)


def test_monomial_conversion_reads_numpy_scalars_as_their_values():
    # numpy floats carry as_integer_ratio, numpy integers do not; both are
    # read into Python integers, so no int64 product wraps
    spec = BasisSpec(2, 0.25, 1.5)
    want = bernstein_to_monomial([0.5, 0.25, 2.0], spec)
    scalars = [np.float64(0.5), np.float32(0.25), np.int64(2)]
    for coeffs in (scalars, list(np.array([0.5, 0.25, 2.0]))):
        assert bernstein_to_monomial(coeffs, spec) == want
    spec = BasisSpec(2, np.float64(0.25), np.float32(1.5))
    assert bernstein_to_monomial([0.5, 0.25, 2.0], spec) == want
    assert bernstein_to_monomial([1.0, 3.0], BasisSpec(1, np.int64(-1), np.int64(3))) == [1.5, 0.5]
    big = [np.int64(0), np.int64(2**62)]  # slope 2^64 on [0, 1/4], past int64
    assert bernstein_to_monomial(big, BasisSpec(1, 0.0, 0.25)) == [0.0, 2.0**64]


PARITY_INTERVALS = [
    (0.0, 1.0),
    (-0.3, 1.7),
    (0.1, 0.1 + 1e-8),
    (1e-300, 1.0),
    (-1e300, 1e300),
    (Fraction(-1, 3), Fraction(7, 2)),
    (Fraction(1, 10**40), Fraction(3, 4)),
]
EXTREMES = [1e300, -1e300, 5e-324, -5e-324, 0.0, -0.0]


@pytest.mark.parametrize("kind", ["float", "fraction"])
def test_monomial_conversion_is_identical_to_the_hand_scaled_shift(kind):
    # the same types, Fractions and float bits (±inf included) as the
    # conversion that scaled its power form by hand before its Taylor shift
    rng = np.random.default_rng([52, kind == "float"])
    intervals = PARITY_INTERVALS
    if kind == "fraction":  # over the float endpoints 1e-300 and ±1e300 they cost seconds
        intervals = PARITY_INTERVALS[:3] + PARITY_INTERVALS[5:]
    for case in range(140):
        n = int(rng.integers(0, 51)) if case % 10 else 50
        a, b = intervals[case % len(intervals)]
        if kind == "float":
            coeffs = rng.uniform(-2.0, 2.0, size=n + 1).tolist()
            for i in rng.integers(0, n + 1, size=int(rng.integers(0, 3))):
                coeffs[i] = EXTREMES[int(rng.integers(0, len(EXTREMES)))]
        else:
            coeffs = [
                Fraction(int(rng.integers(-10**6, 10**6)), int(rng.integers(1, 10**6)))
                for _ in range(n + 1)
            ]
        spec = BasisSpec(n, a, b)
        assert_identical(
            bernstein_to_monomial(coeffs, spec), reference_bernstein_to_monomial(coeffs, spec)
        )


def float_interval_exact_width_first(a, b):
    """``float_interval`` as it was written before it tested the float width
    first: the exact width b - a rounded once, then the float width, on
    every call."""
    fa, fb = float(a), float(b)
    if not fb > fa:
        raise InvalidInterval(
            f"interval [{_endpoint_text(a)}, {_endpoint_text(b)}] is empty in floating point: "
            f"both endpoints round to {fa}"
        )
    try:
        wide = float(b - a) == math.inf or fb - fa == math.inf
    except OverflowError:
        wide = True
    if wide:
        raise InvalidInterval(f"interval [{fa}, {fb}] is wider than the float range")
    return fa, fb


def interval_outcome(function, a, b):
    try:
        return function(a, b)
    except (InvalidInterval, OverflowError) as exc:
        return type(exc), str(exc)


def test_float_interval_matches_the_exact_width_first_rule():
    top = Fraction(2**1023)
    # b - a is past the largest float by more than half an ulp, while the
    # endpoints' floats are 2^1023 - 2^971 and -2^1023, a finite difference:
    # only the exact width finds the interval too wide
    past_edge = (-top - (2**970 - 1), top - 2**971 + 2**969 - 1)
    assert float(past_edge[1]) - float(past_edge[0]) < math.inf
    with pytest.raises(InvalidInterval, match="wider than the float range"):
        float_interval(*past_edge)
    one_ulp = math.nextafter(1.0, 2.0)
    cases = [
        (-8.98e307, 8.98e307),
        (-8.99e307, 8.99e307),
        (-1e308, 1e308),
        (-sys.float_info.max, sys.float_info.max),
        (0.0, sys.float_info.max),
        (-2.0**1023, 2.0**1023),
        past_edge,
        (Fraction(-8.98e307), Fraction(8.98e307)),
        (Fraction(-1e308), Fraction(1, 3)),
        (1.0, one_ulp),
        (Fraction(1), Fraction(one_ulp)),
        (0.0, 5e-324),
        (Fraction(1), Fraction(10**30 + 1, 10**30)),
        (Fraction(0), Fraction("1e-400")),
        (0, Fraction("1e-400")),
        (-math.inf, math.inf),
        (0.0, math.inf),
        (-math.inf, 0.0),
        (Fraction(1, 3), math.inf),
        (math.nan, 1.0),
        (0.0, math.nan),
        (Fraction(1, 3), Fraction(7, 5)),
        (-1.0, 1.0),
    ]
    for low in (2**970 - 1, 2**970, 2**969, 1):  # around the rounding of each endpoint
        for high in (2**969 - 1, 2**969, 2**968, 1):
            cases.append((-top - low, top - 2**971 + high))
    rng = np.random.default_rng(31)
    for _ in range(300):  # Fraction endpoints whose exact width rounds to the edge or past it
        lo = -top + Fraction(int(rng.integers(0, 2**62)), 3) * 2**911
        hi = top - Fraction(int(rng.integers(0, 2**62)), 7) * 2**911
        cases.append((lo, hi))
        cases.append((float(lo), float(hi)))
    seen = set()
    for a, b in cases:
        want = interval_outcome(float_interval_exact_width_first, a, b)
        assert interval_outcome(float_interval, a, b) == want, (a, b)
        seen.add(want[0] if isinstance(want[0], type) else "floats")
    assert seen == {"floats", InvalidInterval}
