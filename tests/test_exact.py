import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from fredgal.basis import BasisSpec, _shift, bernstein_to_monomial, legendre_to_bernstein_exact
from fredgal.errors import ExactPathUnavailable, InvalidDegree, SingularSystem
from fredgal.exact import (
    MAX_EXACT_WORK,
    MOMENT_MAPS,
    ExactProblem,
    _moment_map,
    exact_assemble,
    exact_work,
    solve_rational_system,
)
from fredgal.expr import parse, to_polynomial
from fredgal.galerkin import FredholmProblem, as_exact_problem, assemble, solve
from fredgal.problems import builtin

from exact_oracle import (
    bernstein_solve,
    bernstein_system,
    fraction_system,
    horner_shift,
    integer_rows,
    legendre_system,
    orthonormal,
    poly,
    poly_add,
    reference_polynomial,
    reference_solve,
    residual_poly,
    to_pair,
)


def F(*args):
    return Fraction(*args)


def x_poly(*ascending):
    return poly({(k, 0): c for k, c in enumerate(ascending)})


# the polynomials 1 and 0 as (terms, den) pairs
ONE = ({(0, 0): 1}, 1)
ZERO = ({}, 1)


def unit(i, n):
    return [F(int(k == i)) for k in range(n + 1)]


def phi_poly(coeffs, a, b):
    n = len(coeffs) - 1
    return x_poly(*bernstein_to_monomial(coeffs, BasisSpec(n, a, b)))


def test_fraction_addition_matches_cross_multiplication():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a, c = (int(v) for v in rng.integers(-50, 51, size=2))
        b, d = (int(v) for v in rng.integers(1, 50, size=2))
        left = F(a, b) + F(c, d)
        right = F(a * d + c * b, b * d)
        assert left == right
        assert math.gcd(left.numerator, left.denominator) == 1
        assert left.denominator > 0


def test_poly_canonical_no_zero_terms():
    assert to_polynomial(parse("2*x + 3*t - 2*x")) == ({(0, 1): 3}, 1)
    assert to_polynomial(parse("6/4*x - 1/2 + 1/2")) == ({(1, 0): 3}, 2)
    assert to_polynomial(parse("x - x")) == ({}, 1)


def test_poly_pow_cap():
    assert to_polynomial(parse("x^60*x^60")) is None
    # the oracle polynomials keep the same cap
    with pytest.raises(InvalidDegree):
        poly({(101, 0): F(1)})
    with pytest.raises(InvalidDegree):
        poly({(50, 51): F(1, 3)})


def test_bernstein_exact_linear():
    assert phi_poly(unit(0, 1), 0, 1) == x_poly(1, -1)


def test_bernstein_exact_degree_ten_is_one_minus_x_to_the_tenth():
    got = phi_poly(unit(0, 10), 0, 1)
    want = {(k, 0): F((-1) ** k * math.comb(10, k)) for k in range(11)}
    assert got == want


def test_bernstein_exact_middle_of_quadratic_in_t():
    got = phi_poly(unit(1, 2), -1, 1)
    assert got == {(0, 0): F(1, 2), (2, 0): F(-1, 2)}


def test_partition_of_unity_is_exact_identity():
    for n in range(11):
        total = {}
        for i in range(n + 1):
            total = poly_add(total, phi_poly(unit(i, n), F(-1, 3), F(7, 2)))
        assert total == {(0, 0): F(1)}


def exact_path(problem, n):
    """Bernstein coefficients as ``solve`` computes them on the exact path."""
    rows, _, f_den = exact_assemble(problem, n)
    nums, den = solve_rational_system(rows)
    return legendre_to_bernstein_exact(nums, den * f_den)


def legendre_fractions(problem, n):
    """The assembled Legendre system as dense Fractions."""
    return fraction_system(*exact_assemble(problem, n))


def integer_solve(A, rhs):
    """``solve_rational_system`` on a rational system, as Fractions."""
    nums, den = solve_rational_system(integer_rows(A, rhs))
    return [F(v, den) for v in nums]


def test_assemble_rhs_is_constant_for_unit_rhs():
    problem = as_exact_problem(builtin("example1"))
    _, rhs = bernstein_system(problem, 3)
    assert rhs == [F(1, 2)] * 4  # (b - a)/(n + 1) on [-1, 1]
    # in the Legendre basis only P_0 sees f = 1: ∫ P_0 = b - a
    _, rhs = legendre_fractions(problem, 3)
    assert rhs == [F(2), F(0), F(0), F(0)]


def test_assemble_degree_zero_quartic_difference_kernel():
    problem = as_exact_problem(builtin("example2"))
    A, rhs = legendre_fractions(problem, 0)
    assert A == [[F(2)]]
    assert rhs == [F(0)]


def test_assemble_orientation_is_test_by_trial():
    # antisymmetric kernel x^4 - t^4 at n=2 on [-1,1]; entries worked out
    # by hand from the Gram matrix and the moments of t^4: row j is test
    # member j, column i trial member i
    problem = as_exact_problem(builtin("example2"))
    A, _ = bernstein_system(problem, 2)
    assert A[1][0] == F(29, 105)
    assert A[0][1] == F(13, 105)
    # in the Legendre basis on [-1, 1], with ∫ P_i = 2·δ_i0 and
    # ∫ x^4·P_2 = 8/35, the kernel gives -(8/35·2) at [2][0] and +(2·8/35)
    # at [0][2]
    A, _ = legendre_fractions(problem, 2)
    assert A[2][0] == F(-16, 35)
    assert A[0][2] == F(16, 35)


def test_assemble_without_kernel_term_gives_symmetric_gram():
    problem = ExactProblem(ONE, F(0), to_polynomial(parse("x*t")), ONE, F(0), F(1))
    A, _ = bernstein_system(problem, 3)
    legendre, _ = legendre_fractions(problem, 3)
    for i in range(4):
        for j in range(4):
            assert A[i][j] == A[j][i]
            want = F(math.comb(3, i) * math.comb(3, j), 7 * math.comb(6, i + j))
            assert A[i][j] == want
            # ∫₀¹ P_i·P_j = δ_ij/(2i+1)
            assert legendre[i][j] == (F(1, 2 * i + 1) if i == j else 0)


def test_assemble_degree_cap():
    # the basis cap of 50 is the only limit; solve checks it before any
    # exact work
    for n in (-1, 51):
        with pytest.raises(InvalidDegree):
            solve(builtin("example1"), n, mode="exact")
    # a degree that is no integer is refused on either path (example4 is
    # not polynomial), before range() or a slice sees it
    for name in ("example1", "example4"):
        with pytest.raises(InvalidDegree, match=r"^degree must be an integer, got 2\.0$"):
            solve(builtin(name), 2.0)
    rows, dens, _ = exact_assemble(as_exact_problem(builtin("example1")), 50)
    assert len(rows) == len(dens) == 51


def test_solve_even_quadratic_problem():
    got = solve(builtin("example1"), 3, mode="exact").coefficients
    assert got == (F(19, 9), F(17, 27), F(17, 27), F(19, 9))


def test_solve_identity_solution_problem():
    got = solve(builtin("example2"), 3, mode="exact").coefficients
    assert got == (F(-1), F(-1, 3), F(1, 3), F(1))


def elevate_to_bernstein(mono, n):
    # degree-elevation oracle on [0,1]: coefficient i of the Bernstein form
    # is sum_k mono[k]*C(i,k)/C(n,k)
    return [
        sum(F(c) * F(math.comb(i, k), math.comb(n, k)) for k, c in enumerate(mono) if k <= i)
        for i in range(n + 1)
    ]


def test_solve_mixed_quadratic_problem():
    got = solve(builtin("example3"), 3, mode="exact").coefficients
    oracle = elevate_to_bernstein([F(0), F(180, 119), F(80, 119)], 3)
    assert oracle == [F(0), F(60, 119), F(440, 357), F(260, 119)]
    assert list(got) == oracle


def test_solutions_have_zero_residual():
    for name in ("example1", "example2", "example3"):
        problem = as_exact_problem(builtin(name))
        for n in (3, 4, 5):
            coeffs = solve(builtin(name), n, mode="exact").coefficients
            phi = phi_poly(list(coeffs), problem.a, problem.b)
            assert residual_poly(problem, phi) == {}, (name, n)


def manufactured_problem(a_text, kernel_text, lam, a, b, phi_star):
    """(problem, phi_star): the problem with these data and f manufactured
    so that phi_star solves it."""
    a_poly = to_polynomial(parse(a_text))
    kernel = to_polynomial(parse(kernel_text))
    unforced = ExactProblem(a_poly, lam, kernel, ZERO, a, b)
    f_poly = to_pair(residual_poly(unforced, phi_star))
    return ExactProblem(a_poly, lam, kernel, f_poly, a, b), phi_star


def shifted_problem():
    # non-constant a(x) on [1/2, 2]: a != 0 and b - a != 1; f is manufactured
    # so that phi* = 2 - x + 3x^2 solves the equation
    return manufactured_problem("1 + x", "x*t - 2*t^2 + 1/3", F(1, 3), F(1, 2), F(2), x_poly(2, -1, 3))


def quartic_problem():
    # a(x) of degree 4, so an a(x) block of bandwidth 4, on [-1/3, 5/2], with
    # a kernel in both x and t; phi* = 1 + 2x - x^3/4
    return manufactured_problem(
        "3 - x/2 + x^2/5 - x^3/7 + x^4/11", "x^2*t - 3*x*t^3 + t/2 - 1/5",
        F(2, 5), F(-1, 3), F(5, 2), x_poly(1, 2, 0, F(-1, 4)),
    )


def test_shifted_interval_with_variable_coefficient_recovers_solution():
    problem, phi_star = shifted_problem()
    for n in (2, 3, 5):
        coeffs = exact_path(problem, n)
        assert coeffs == bernstein_solve(problem, n), n
        phi = phi_poly(coeffs, problem.a, problem.b)
        assert phi == phi_star, n
        assert residual_poly(problem, phi) == {}, n


def test_closed_form_assembly_matches_quadrature():
    problem = FredholmProblem(
        parse("1 + x"), F(1, 3), parse("x*t - 2*t^2 + 1/3"), parse("x^2 - 1"), F(1, 2), F(2)
    )
    # the float path's orthonormal system is the closed-form Legendre
    # system scaled by sqrt(2k+1) on both sides
    exact_view = as_exact_problem(problem)
    for n in (0, 4, 9):
        want_A, want_rhs = orthonormal(*legendre_fractions(exact_view, n))
        float_A, float_rhs = assemble(problem, n)
        assert np.allclose(float_A, want_A, rtol=1e-12, atol=1e-14)
        assert np.allclose(float_rhs, want_rhs, rtol=1e-12, atol=1e-14)


def legendre_cases():
    problems = {name: as_exact_problem(builtin(name)) for name in ("example1", "example2", "example3")}
    problems["shifted"] = shifted_problem()[0]
    problems["quartic"] = quartic_problem()[0]
    return problems


LEGENDRE_CASES = ["example1", "example2", "example3", "shifted", "quartic"]


@pytest.mark.parametrize("name", LEGENDRE_CASES)
def test_legendre_system_is_the_bernstein_system_transformed(name):
    # R.T @ A_B @ R == A_L and R.T @ F_B == F_L exactly, with R the rational
    # Legendre-to-Bernstein map: the paper's formulation, in another basis
    problem = legendre_cases()[name]
    for n in range(21):
        assert legendre_system(*bernstein_system(problem, n)) == legendre_fractions(problem, n), n


@pytest.mark.parametrize("name", LEGENDRE_CASES)
def test_assembled_rows_are_integers_in_lowest_terms(name):
    # each row holds nonzero integers only, the right-hand side in column
    # n + 1; the matrix entries are over one positive denominator that
    # shares no factor with all of them
    problem = legendre_cases()[name]
    for n in range(21):
        rows, dens, f_den = exact_assemble(problem, n)
        assert type(f_den) is int and f_den > 0
        for row, den in zip(rows, dens):
            assert type(den) is int and den > 0
            assert set(row) <= set(range(n + 2))
            assert all(type(v) is int and v for v in row.values())
            assert math.gcd(den, *row.values()) == 1
            assert math.gcd(den, *(v for i, v in row.items() if i <= n)) == 1


@pytest.mark.parametrize("name", LEGENDRE_CASES)
def test_exact_coefficients_equal_the_bernstein_oracle(name):
    problem = legendre_cases()[name]
    for n in range(25):
        coeffs = exact_path(problem, n)
        assert coeffs == bernstein_solve(problem, n), n
        assert all(type(c) is Fraction for c in coeffs), n


# a = 0 and a != 0, the non-dyadic [1/3, 7/5] among them
ORACLE_INTERVALS = [(F(0), F(1)), (F(0), F(2)), (F(-1), F(1)), (F(1, 3), F(7, 5)), (F(0), F(3, 7)),
                    (F(-5, 2), F(1, 9))]


def random_kernel(rng, shape):
    """(terms, den) of a random kernel: zero, in x only, in t only, or dense
    up to 12-by-12 coefficients."""
    dx, dt = rng.randint(0, 11), rng.randint(0, 11)
    dx, dt = {"zero": (-1, -1), "x": (dx, 0), "t": (0, dt), "dense": (dx, dt)}[shape]
    terms = {(p, q): rng.randint(-50, 50) for p in range(dx + 1) for q in range(dt + 1)}
    return {k: c for k, c in terms.items() if c}, rng.randint(1, 30)


def random_in_x(rng, degree):
    """(terms, den) of a random polynomial in x of at most the degree."""
    terms = {(k, 0): rng.randint(-9, 9) for k in range(degree + 1)}
    return {k: c for k, c in terms.items() if c}, rng.randint(1, 9)


@pytest.mark.parametrize("shape", ["zero", "x", "t", "dense"])
def test_assembly_equals_the_bernstein_oracle_on_random_problems(shape):
    # the kernel corner Mxᵀ·K·Mt and f's moments Mfᵀ·f from the cached
    # moment maps, against the paper's Bernstein system in closed form; the
    # data degrees run past n, so the corner and f's moments are truncated
    rng = random.Random(f"oracle-{shape}")
    for case in range(24):
        a, b = ORACLE_INTERVALS[case % len(ORACLE_INTERVALS)]
        n = rng.randint(0, 6)
        lam = F(rng.randint(-9, 9), rng.randint(1, 9))
        problem = ExactProblem(random_in_x(rng, rng.randint(0, 3)), lam, random_kernel(rng, shape),
                               random_in_x(rng, rng.randint(0, 9)), a, b)
        got = legendre_fractions(problem, n)
        assert got == legendre_system(*bernstein_system(problem, n)), (shape, case)


def test_shift_from_zero_is_the_horner_expansion():
    rng = random.Random(54)
    for _ in range(200):
        nums = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(1, 12))]
        hi, g = rng.randint(2, 10**5), rng.randint(2, 10**5)
        for hi, g in ((hi, g), (hi, 1), (1, g), (1, 1)):
            assert _shift(nums, 0, hi, g) == horner_shift(nums, 0, hi, g)
    for _ in range(50):  # and with lo != 0, where _shift takes its Horner steps
        nums = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(1, 12))]
        lo, hi, g = rng.randint(-99, 99) or 1, rng.randint(1, 99), rng.randint(1, 99)
        assert _shift(nums, lo, hi, g) == horner_shift(nums, lo, hi, g)


def test_moment_maps_are_bounded_and_read_only():
    # exact solves on more intervals than the cache holds: it stays within
    # its bound, and each table it keeps is tuples of integers
    assert _moment_map.cache_info().maxsize == MOMENT_MAPS
    for k in range(MOMENT_MAPS + 8):
        b = F(k + 1, 3)
        problem = FredholmProblem(parse("1"), F(1, 2), parse("x*t"), parse("x^2"), F(0), b)
        assert solve(problem, 1, mode="exact").mode == "exact"
    info = _moment_map.cache_info()
    assert info.currsize <= info.maxsize
    table = _moment_map(2, 0, 1, 3)
    assert type(table) is tuple and all(type(col) is tuple for col in table)
    assert all(type(v) is int for col in table for v in col)


def nonzeros(A):
    return {(j, i) for j, row in enumerate(A) for i, v in enumerate(row) if v}


def test_example1_system_is_sparse():
    # a = 1 gives a diagonal, the kernel x*t + x^2*t^2 a corner on members 0..2
    A, _ = legendre_fractions(as_exact_problem(builtin("example1")), 40)
    assert len(A) == 41
    assert len(nonzeros(A)) <= 43


def test_linear_coefficient_gives_a_tridiagonal_system_plus_the_kernel_corner():
    # a = 1 + x couples neighbouring members only; the kernel
    # x*t - 2*t^2 + 1/3 has x-degree 1 and t-degree 2
    problem = shifted_problem()[0]
    for n in (5, 12):
        A, _ = legendre_fractions(problem, n)
        band = {(j, i) for j in range(n + 1) for i in range(n + 1) if abs(i - j) <= 1}
        corner = {(j, i) for j in range(2) for i in range(3)}
        assert nonzeros(A) <= band | corner
        assert band - corner <= nonzeros(A)


def test_rational_elimination_swaps_rows_when_a_pivot_is_zero():
    A = [[F(0), F(1), F(0)], [F(1), F(0), F(0)], [F(0), F(0), F(1, 3)]]
    assert integer_solve(A, [F(1), F(2), F(1)]) == [F(2), F(1), F(3)]


def test_rational_elimination_detects_a_singular_matrix():
    with pytest.raises(SingularSystem, match="column 1"):
        integer_solve([[F(1), F(2)], [F(2), F(4)]], [F(1), F(1)])


def test_rational_elimination_solves_random_dense_systems_exactly():
    rng = np.random.default_rng(11)
    for _ in range(40):
        m = int(rng.integers(2, 10))
        A = [[F(int(rng.integers(-9, 10)), int(rng.integers(1, 7))) for _ in range(m)] for _ in range(m)]
        for row in A:  # zeros in the way of the first-nonzero pivot search
            row[int(rng.integers(0, m))] = F(0)
        want = [F(int(rng.integers(-9, 10)), int(rng.integers(1, 5))) for _ in range(m)]
        rhs = [sum(a * x for a, x in zip(row, want)) for row in A]
        try:
            got = integer_solve(A, rhs)
        except SingularSystem:
            assert abs(np.linalg.det(np.array(A, dtype=float))) <= 1e-12
            continue
        assert got == want
        assert [sum(a * x for a, x in zip(row, got)) for row in A] == rhs


@pytest.mark.parametrize("density", [1.0, 0.6, 0.25])
def test_integer_elimination_matches_the_fraction_elimination(density):
    # seeded random rational systems, m = 1..12: the same solution as the
    # Fraction elimination, in lowest terms over a positive denominator, or
    # the same SingularSystem message, naming the same column
    rng = random.Random(f"elimination:{density}")
    seen = {"swapped": 0, "dependent row": 0, "zero column": 0, "singular": 0, "solved": 0}
    for trial in range(240):
        m = trial % 12 + 1
        A = [
            [F(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < density else F(0) for _ in range(m)]
            for _ in range(m)
        ]
        kind = trial // 12 % 4
        if kind == 1:  # no pivot in the first row: the elimination swaps rows
            A[0][0] = F(0)
            seen["swapped"] += any(row[0] for row in A[1:])
        elif kind == 2 and m > 1:  # a row that combines two others
            i, k = rng.sample(range(m), 2)
            A[k] = [2 * u - F(1, 3) * v for u, v in zip(A[i], A[rng.randrange(m)])]
            seen["dependent row"] += 1
        elif kind == 3:
            col = rng.randrange(m)
            for row in A:
                row[col] = F(0)
            seen["zero column"] += 1
        rhs = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(m)]
        rows = integer_rows(A, rhs)
        before = [dict(row) for row in rows]
        try:
            want = reference_solve(A, rhs)
        except SingularSystem as exc:
            with pytest.raises(SingularSystem) as got:
                solve_rational_system(rows)
            assert str(got.value) == str(exc)
            assert rows == before
            seen["singular"] += 1
            continue
        nums, den = solve_rational_system(rows)
        assert rows == before  # the input rows are left as they were
        assert all(type(v) is int for v in nums) and type(den) is int
        assert den > 0 and math.gcd(den, *nums) == 1
        assert [F(v, den) for v in nums] == want
        seen["solved"] += 1
    assert min(seen.values()) >= 10, seen


def reference_work(problem: FredholmProblem, n: int) -> int:
    """``exact_work``'s documented formula, (n+1)·(n+1+D)·S, on the
    reference expansion's Fractions: each piece written over the lcm of
    its denominators."""

    def bits(value):
        value = F(value)
        return value.numerator.bit_length() + value.denominator.bit_length()

    def over_lcm(p):
        den = math.lcm(*(c.denominator for c in p.values()))
        return [int(c * den) for c in p.values()], den

    a_poly, kernel, f_poly = (
        reference_polynomial(node) for node in (problem.a_expr, problem.kernel_expr, problem.f_expr)
    )
    degree = max([1] + [i + j for p in (a_poly, kernel, f_poly) for i, j in p])
    size = max(
        [0]
        + [
            abs(c).bit_length() + den.bit_length()
            for nums, den in map(over_lcm, (a_poly, kernel))
            for c in nums
        ]
    )
    size += degree * (bits(problem.a) + bits(problem.b)) + bits(problem.lam)
    return (n + 1) * (n + 1 + degree) * size


def random_polynomial_text(rng, variables):
    """A sum of up to five terms c·x^p·t^q, c a fraction of up to 40 digits."""
    terms = []
    for _ in range(rng.randint(1, 5)):
        digits = rng.choice([1, 3, 12, 40])
        num = rng.randint(-(10**digits), 10**digits)
        den = rng.randint(1, 10 ** rng.choice([1, 3, 12, 40]))
        powers = "".join(f"*{v}^{rng.randint(0, 4)}" for v in variables)
        terms.append(f"{num}/{den}{powers}")
    return " + ".join(terms)


def test_exact_work_is_the_documented_formula_on_the_reference_terms():
    # the bound routes auto between the paths, so its value is pinned: the
    # builtins, seeded random polynomial problems, a right-hand side with a
    # 51,200-bit denominator, and a 100,000-bit endpoint
    problems = [builtin(name) for name in ("example1", "example2", "example3")]
    rng = random.Random("exact work")
    for _ in range(150):
        a, b = sorted(F(rng.randint(-99, 99), rng.randint(1, 10 ** rng.randint(0, 30))) for _ in "ab")
        problems.append(
            FredholmProblem(
                parse(random_polynomial_text(rng, "x")),
                F(rng.randint(-9, 9), rng.randint(1, 10 ** rng.randint(0, 20))),
                parse(random_polynomial_text(rng, "xt")),
                parse(random_polynomial_text(rng, "x")),
                a,
                b + 1,
            )
        )
    problems.append(
        FredholmProblem(parse("1"), 1, parse("x*t"), parse("x^3/(2^51200 - 1) + x"), F(0), F(1))
    )
    wide = FredholmProblem(parse("1"), 1, parse("x*t"), parse("x"), F("1e-30000"), F(3, 4))
    problems.append(wide)
    # a(x) with 16 coefficients over distinct 32-bit denominators: each
    # coefficient is small, but the rows carry the lcm of all of them
    rng = random.Random(7)
    a_text = " + ".join(
        ["2"] + [f"{rng.getrandbits(64)}/{rng.getrandbits(32) | 1}*x^{k}" for k in range(1, 17)]
    )
    many_dens = FredholmProblem(
        parse(a_text), F(1, 3), parse("x^6*t^5 + 1"), parse("x^8 - 1/7"), F(-1), F(3, 4)
    )
    problems.append(many_dens)
    for problem in problems:
        for n in (0, 2, 9, 20, 50):
            assert exact_work(as_exact_problem(problem), n) == reference_work(problem, n), (problem, n)
    assert exact_work(as_exact_problem(wide), 4) > MAX_EXACT_WORK
    assert all(exact_work(as_exact_problem(p), 20) <= MAX_EXACT_WORK for p in problems[:3])
    assert exact_work(as_exact_problem(many_dens), 30) > MAX_EXACT_WORK
    assert solve(many_dens, 30).mode == "float"
    with pytest.raises(ExactPathUnavailable, match="work bound"):
        solve(many_dens, 30, mode="exact")


def test_the_matrix_is_the_operators_alone():
    # f(x) builds only the right-hand side: over a 51,200-bit denominator
    # it leaves every matrix entry and row denominator as rhs = x does, and
    # only column n + 1 and f's denominator differ
    plain, wide = (
        as_exact_problem(
            FredholmProblem(
                parse("2 + x^4"), F(1, 3), parse("x*t - t^2/7"), parse(rhs), F(-1), F(3, 4)
            )
        )
        for rhs in ("x", "x^3/(2^51200 - 1) + x")
    )
    for n in (0, 1, 3, 12):
        rows, dens, f_den = exact_assemble(plain, n)
        wide_rows, wide_dens, wide_f_den = exact_assemble(wide, n)
        assert wide_dens == dens
        for row, wide_row in zip(rows, wide_rows):
            assert {i: v for i, v in wide_row.items() if i <= n} == {
                i: v for i, v in row.items() if i <= n
            }
        assert [row.get(n + 1) for row in wide_rows] != [row.get(n + 1) for row in rows]
        assert max(v.bit_length() for row in rows for v in row.values()) < 100
        assert f_den.bit_length() < 100 and wide_f_den.bit_length() > 51200


def big_rhs_problem():
    """a(x) = 2 + x^4 on [1e-11, 0.75], kernel x·t, lambda 1, and f(x) over
    the 102,000-bit denominator 10^30800 - 1."""
    rhs = "x^3/" + "9" * 30800 + " + x"
    return FredholmProblem(parse("2 + x^4"), F(1), parse("x*t"), parse(rhs), F("1e-11"), F(3, 4))


def test_a_large_rhs_denominator_keeps_the_exact_answer():
    problem = big_rhs_problem()
    got = solve(problem, 8, mode="exact").coefficients
    assert list(got) == bernstein_solve(as_exact_problem(problem), 8)


def test_a_large_rhs_denominator_stays_on_the_exact_path():
    # f's denominator enters only the right-hand side, so it does not count
    # in the work, and the largest matrix entry has a few hundred bits
    # against the denominator's 102,000
    problem = big_rhs_problem()
    view = as_exact_problem(problem)
    assert exact_work(view, 50) <= MAX_EXACT_WORK
    rows, _, f_den = exact_assemble(view, 50)
    assert max(abs(v).bit_length() for row in rows for i, v in row.items() if i <= 50) <= 300
    assert f_den.bit_length() > 102_000
    start = time.perf_counter()
    solution = solve(problem, 50)
    assert time.perf_counter() - start < 5.0
    assert solution.mode == "exact"


def test_the_degree_of_f_still_counts_in_the_work():
    # shifting f(x) to u costs g^(deg f), so f's degree stays in D: with a
    # 10,000-bit endpoint this problem is far past the bound at degree 2
    problem = FredholmProblem(parse("1"), 1, parse("x*t"), parse("x^100 + x"), F("1e-3000"), F(1))
    assert exact_work(as_exact_problem(problem), 2) > MAX_EXACT_WORK
    assert solve(problem, 2).mode == "float"


def test_singular_operator_detected():
    # phi - integral of phi over [0,1] annihilates constants
    problem = ExactProblem(ONE, F(-1), ONE, ONE, F(0), F(1))
    with pytest.raises(SingularSystem):
        solve_rational_system(exact_assemble(problem, 2)[0])


def test_residual_poly_flags_nonsolutions():
    problem = as_exact_problem(builtin("example1"))
    assert residual_poly(problem, x_poly(1)) != {}


def test_residual_poly_integrates_the_kernel_over_t():
    # with a = 0, lam = 1 and f = 0 the residual of phi is ∫ k(t,x)·phi(t) dt
    def integral(kernel, phi, a, b):
        problem = ExactProblem(ZERO, F(1), to_polynomial(parse(kernel)), ZERO, a, b)
        return residual_poly(problem, phi)

    assert integral("t^2", x_poly(1), F(-1), F(1)) == {(0, 0): F(2, 3)}
    assert integral("x*t + x^2*t^2", x_poly(1), F(-1), F(1)) == x_poly(0, 0, F(2, 3))
    assert integral("t", x_poly(1), F(0), F(1)) == {(0, 0): F(1, 2)}
    # phi(t) = t against the kernel x: ∫ x·t dt over [0, 2] is 2x
    assert integral("x", x_poly(0, 1), F(0), F(2)) == x_poly(0, 2)
