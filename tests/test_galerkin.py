import math
import re
import warnings
from dataclasses import replace
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from fredgal import galerkin
from fredgal.basis import (
    MAX_DEGREE,
    BasisSpec,
    bernstein_to_monomial,
    legendre_row,
    legendre_to_bernstein,
)
from fredgal.errors import (
    DomainError,
    ExactPathUnavailable,
    IllConditionedWarning,
    InvalidDegree,
    InvalidInterval,
    InvalidProblem,
    OrderOutOfRange,
    OutOfInterval,
    SingularSystem,
)
from fredgal.exact import exact_assemble
from fredgal.expr import parse
from fredgal.galerkin import (
    FredholmProblem,
    _float_view,
    _invert,
    as_exact_problem,
    assemble,
    convergence_study,
    default_quadrature_order,
    error_table,
    evaluate_solution,
    solve,
)
from fredgal.problems import builtin
from fredgal.quadrature import gauss_legendre

from exact_oracle import (
    bernstein_solve,
    bernstein_system,
    fraction_system,
    legendre_system,
    orthonormal,
)


def test_default_quadrature_order():
    assert default_quadrature_order(3) == 32
    assert default_quadrature_order(14) == 32
    assert default_quadrature_order(20) == 44


def test_problem_validation():
    one = parse("1")
    with pytest.raises(InvalidInterval):
        FredholmProblem(one, -1.0, parse("x*t"), one, 1.0, 1.0)
    # rationals past the interpreter's int/str limit print in the message too
    with pytest.raises(InvalidInterval, match=r"^need b > a, got \[1/10{5000}, 0\]$"):
        FredholmProblem(one, 1, parse("x*t"), parse("x"), Fraction(1, 10**5000), Fraction(0))
    # an endpoint that is not finite breaks the interval rule BasisSpec shares
    with pytest.raises(InvalidInterval, match=r"^endpoints must be finite, got \[10{5000}, 0\]$"):
        FredholmProblem(one, 1, parse("x*t"), parse("x"), Fraction(10**5000), Fraction(0))
    with pytest.raises(InvalidProblem):
        FredholmProblem(parse("t"), -1.0, parse("x*t"), one, 0.0, 1.0)
    with pytest.raises(InvalidProblem):
        FredholmProblem(one, -1.0, parse("x*t"), parse("t^2"), 0.0, 1.0)


@pytest.mark.parametrize("mode", ["auto", "exact", "float"])
@pytest.mark.parametrize(
    "lam,b",
    [
        (math.inf, 1.0),
        (-math.inf, 1.0),
        (math.nan, 1.0),
        (1.0, math.inf),
        (Fraction(10**400), 1.0),
        (Fraction(10**5000), 1.0),
    ],
)
def test_nonfinite_problem_numbers_are_invalid(lam, b, mode):
    # lambda has the problem's own rule; an endpoint has the interval rule
    error = InvalidInterval if b == math.inf else InvalidProblem
    with pytest.raises(error):
        solve(FredholmProblem(parse("1"), lam, parse("x*t"), parse("x"), 0.0, b), 2, mode=mode)


def test_assemble_rhs_constant_for_unit_rhs():
    # the Bernstein rhs of f = 1 on [-1, 1] is constant; in the orthonormal
    # basis only the constant member sees it: ∫ L_0 = b - a
    bernstein_A, bernstein_F = bernstein_system(as_exact_problem(builtin("example1")), 3)
    assert bernstein_F == [Fraction(1, 2)] * 4
    _, F = assemble(builtin("example1"), 3)
    want = orthonormal(*legendre_system(bernstein_A, bernstein_F))[1]
    assert F == pytest.approx(want, abs=1e-13)
    assert F == pytest.approx([2.0, 0.0, 0.0, 0.0], abs=1e-13)


def test_assemble_exponential_rhs_first_entry():
    _, F = assemble(builtin("example4"), 3)
    # ∫ e^x·L_0 = e - 1 and ∫ e^x·sqrt(3)·(2x - 1) = sqrt(3)·(3 - e) over [0, 1]
    assert abs(F[0] - (math.e - 1.0)) <= 1e-13
    assert abs(F[1] - math.sqrt(3.0) * (3.0 - math.e)) <= 1e-13
    # back in Bernstein form, F = T.T @ F_B: the first entry is the integral
    # of e^x (1-x)^3 over [0,1] = 6e - 16, by parts
    bernstein_F = np.linalg.solve(legendre_to_bernstein(3).T, F)
    assert abs(bernstein_F[0] - (6.0 * math.e - 16.0)) <= 1e-12


def test_assemble_gram_when_kernel_disabled():
    # the Gram matrix of an orthonormal basis on [0, 1] is the identity
    problem = FredholmProblem(parse("1"), 0.0, parse("exp(x*t)"), parse("1"), 0.0, 1.0)
    A, _ = assemble(problem, 4)
    assert np.abs(A - A.T).max() <= 1e-14
    assert (np.linalg.eigvalsh(A) > 0.0).all()
    assert np.abs(A - np.eye(5)).max() <= 1e-14


def test_assemble_matches_exact_entries():
    # float A, F are T.T @ A_B @ T and T.T @ F_B of the rational Bernstein system
    problem = builtin("example2")
    exact_view = as_exact_problem(problem)
    legendre = fraction_system(*exact_assemble(exact_view, 2))
    assert legendre == legendre_system(*bernstein_system(exact_view, 2))
    want_A, want_F = orthonormal(*legendre)
    A, F = assemble(problem, 2)
    for j in range(3):
        assert abs(F[j] - want_F[j]) <= 1e-14
        for i in range(3):
            assert abs(A[j, i] - want_A[j, i]) <= 1e-14


def test_solve_exponential_problem_matches_reference_monomials():
    from fredgal.basis import bernstein_to_monomial

    solution = solve(builtin("example4"), 3, q=32)
    assert solution.mode == "float"
    mono = bernstein_to_monomial(list(solution.coefficients), solution.spec)
    reference = (-0.185387, -0.188957, -0.078167, -0.051702)
    for got, want in zip(mono, reference):
        assert abs(got - want) <= 5e-6


def test_float_solve_agrees_with_exact_path():
    problem = builtin("example1")
    exact_coeffs = solve(problem, 3, mode="exact").coefficients
    float_solution = solve(problem, 3, mode="float")
    for got, want in zip(float_solution.coefficients, exact_coeffs):
        assert abs(got - float(want)) <= 1e-10


def test_auto_mode_routing():
    assert solve(builtin("example1"), 3).mode == "exact"
    assert solve(builtin("example4"), 3).mode == "float"
    with pytest.raises(ExactPathUnavailable):
        solve(builtin("example4"), 3, mode="exact")
    with pytest.raises(ValueError, match="mode must be auto, float or exact"):
        solve(builtin("example1"), 3, mode="bogus")


@pytest.mark.parametrize("n", [21, 24, 40, 50])
def test_auto_takes_the_exact_path_up_to_the_basis_cap(n):
    problem = builtin("example1")
    solution = solve(problem, n)
    assert solution.mode == "exact"
    assert solution.condition == pytest.approx(3.0629514607, rel=1e-6)
    if n <= 24:
        assert list(solution.coefficients) == bernstein_solve(as_exact_problem(problem), n)
    else:
        # phi* = 1 + 10/9*x^2, recovered exactly
        mono = bernstein_to_monomial(list(solution.coefficients), solution.spec)
        assert mono == [1, 0, Fraction(10, 9)] + [0] * (n - 2)


def test_auto_mode_exact_coefficients_are_fractions():
    solution = solve(builtin("example2"), 3)
    assert solution.coefficients == (
        Fraction(-1),
        Fraction(-1, 3),
        Fraction(1, 3),
        Fraction(1),
    )
    assert solution.quadrature_order is None
    assert solution.condition > 0.0


def test_degenerate_operator_is_singular():
    # phi - mean(phi) on [0,1] annihilates constants
    problem = FredholmProblem(parse("1"), -1.0, parse("1"), parse("1"), 0.0, 1.0)
    with pytest.raises(SingularSystem):
        solve(problem, 2, mode="float")
    with pytest.raises(SingularSystem):
        solve(problem, 2)  # exact route hits the same wall


def test_exact_solve_of_a_float_singular_system_reports_infinite_condition():
    # lam = -1 + 2^-50 leaves the exact system regular (phi = 2^50) while its
    # float view rounds to the singular lam = -1 system above
    problem = FredholmProblem(
        parse("1"), Fraction(-1) + Fraction(1, 2**50), parse("1"), parse("1"), 0.0, 1.0
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solution = solve(problem, 2, mode="exact")
    assert solution.coefficients == (Fraction(2**50),) * 3
    assert solution.condition == math.inf
    assert any(issubclass(w.category, IllConditionedWarning) for w in caught)
    with pytest.raises(SingularSystem):
        solve(problem, 2, mode="float")


def test_evaluate_solution_identity_problem():
    solution = solve(builtin("example2"), 3, mode="float")
    value = evaluate_solution(solution, 0.5)
    assert type(value) is float
    assert abs(value - 0.5) <= 1e-12


def test_evaluate_solution_left_endpoint_is_first_coefficient():
    solution = solve(builtin("example4"), 4)
    assert evaluate_solution(solution, 0.0) == pytest.approx(
        float(solution.coefficients[0]), abs=1e-15
    )


def test_evaluate_solution_interpolates_reference_value():
    solution = solve(builtin("example4"), 5)
    assert abs(evaluate_solution(solution, 0.5) - (-0.30593893)) <= 1e-6


def test_evaluate_solution_refuses_extrapolation():
    solution = solve(builtin("example4"), 3)
    with pytest.raises(OutOfInterval):
        evaluate_solution(solution, 1.0 + 1e-9)
    with pytest.raises(OutOfInterval):
        evaluate_solution(solution, -0.1)
    with pytest.raises(OutOfInterval, match=r"x=1\.25 outside"):
        evaluate_solution(solution, np.array([0.0, 0.5, 1.25, 1.0]))
    # NaN compares false with both endpoints: it is outside, not a NaN value
    with pytest.raises(OutOfInterval, match=r"^x=nan outside \[0\.0, 1\.0\]$"):
        evaluate_solution(solution, math.nan)
    with pytest.raises(OutOfInterval, match=r"^x=nan outside"):
        error_table(solution, builtin("example4").exact_expr, [0.5, math.nan])
    narrow = FredholmProblem(
        parse("1"), 1, parse("x*t"), parse("x"), Fraction(0), Fraction(1, 10**5000)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        solution = solve(narrow, 1, mode="exact")
    with pytest.raises(OutOfInterval, match=r"^x=0\.5 outside \[0, 1/10{5000}\]$"):
        evaluate_solution(solution, 0.5)


def grid_11(problem):
    return [problem.a + k * (problem.b - problem.a) / 10.0 for k in range(11)]


def test_error_table_exponential_problem():
    problem = builtin("example4")
    rows = error_table(solve(problem, 3, q=32), problem.exact_expr, grid_11(problem))
    assert len(rows) == 11
    assert all(r.kind == "relative" for r in rows)
    e0 = rows[0].error
    assert abs(e0 - 9.40e-4) <= 0.05 * 9.40e-4
    e07 = rows[7].error
    assert abs(e07 - 4.8e-5) <= 0.10 * 4.8e-5


def test_error_table_degree_four():
    problem = builtin("example4")
    rows = error_table(solve(problem, 4, q=32), problem.exact_expr, grid_11(problem))
    assert abs(rows[0].error - 5.26782e-5) <= 0.10 * 5.26782e-5


def test_error_table_flags_zeros_of_exact_solution():
    problem = builtin("example2")
    rows = error_table(solve(problem, 3, mode="float"), problem.exact_expr, grid_11(problem))
    kinds = [r.kind for r in rows]
    assert kinds[5] == "absolute-at-zero"  # x = 0
    assert all(k == "relative" for i, k in enumerate(kinds) if i != 5)
    assert all(r.error <= 1e-12 for r in rows)


def test_error_table_and_convergence_study_need_an_exact_solution():
    problem = replace(builtin("example4"), exact_expr=None)
    solution = solve(problem, 3)
    with pytest.raises(InvalidProblem, match="^error table requires an exact solution$"):
        error_table(solution, problem.exact_expr, grid_11(problem))
    with pytest.raises(InvalidProblem, match="^convergence study requires an exact solution$"):
        convergence_study(problem, [2, 3])


def test_convergence_exponential_problem_decreases():
    rows = convergence_study(builtin("example4"), [3, 4, 5, 6])
    errors = [r.max_error for r in rows]
    assert errors[0] <= 2e-3
    assert errors[1] <= 1e-4
    assert errors[2] <= 5e-6
    assert errors[3] <= 5e-6
    assert all(first > second for first, second in zip(errors, errors[1:]))


def test_convergence_polynomial_problems_hit_floor():
    rows = convergence_study(builtin("example1"), [2, 3, 4, 5], mode="float")
    assert all(r.max_error <= 1e-12 for r in rows)
    rows = convergence_study(builtin("example3"), [3])
    assert rows[0].max_error <= 1e-12


def test_convergence_requires_exact_solution():
    problem = FredholmProblem(parse("1"), -1.0, parse("x*t"), parse("1"), 0.0, 1.0)
    with pytest.raises(InvalidProblem):
        convergence_study(problem, [3])


def test_exact_representability_across_degrees():
    # once the trial space contains the true solution, higher degrees
    # keep reproducing it
    problem = builtin("example3")
    for n in (2, 3, 4, 6):
        solution = solve(problem, n, mode="float")
        for x in np.linspace(0.0, 1.0, 17):
            want = 180.0 / 119.0 * x + 80.0 / 119.0 * x**2
            assert abs(evaluate_solution(solution, float(x)) - want) <= 1e-10


def test_residual_orthogonality():
    problem = builtin("example4")
    for n in range(3, 7):
        A, F = assemble(problem, n, 32)
        solution = solve(problem, n, q=32)
        legendre = np.linalg.solve(legendre_to_bernstein(n), solution.coefficients)
        residual = A @ legendre - F
        assert np.abs(residual).max() <= 1e-8 * np.abs(F).max()


def test_quadrature_order_stability():
    problem = builtin("example4")
    for n in (3, 5):
        low = solve(problem, n, q=32).coefficients
        high = solve(problem, n, q=64).coefficients
        assert max(abs(l - h) for l, h in zip(low, high)) <= 1e-12


def test_refining_degree_never_hurts_converged_error():
    rows = convergence_study(builtin("example4"), [3, 4, 5, 6], q=32, mode="float")
    errors = [r.max_error for r in rows]
    assert all(first >= second for first, second in zip(errors, errors[1:]))


def near_singular(lam):
    # phi + lam·∫ phi on [0, 1]: the constants scale by 1 + lam, everything
    # orthogonal to them by 1, so the condition is 1/(1 + lam)
    return FredholmProblem(parse("1"), lam, parse("1"), parse("1"), 0.0, 1.0)


def test_condition_warning_on_high_degree():
    # the condition measures the operator, not the basis: the Gram system at
    # degree 22 reads 1 and does not warn, a near-singular operator does
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        gram = solve(near_singular(0.0), 22, mode="float")
    assert gram.condition == pytest.approx(1.0, rel=1e-12)
    assert not any(issubclass(w.category, IllConditionedWarning) for w in caught)
    with pytest.warns(IllConditionedWarning) as record:
        solution = solve(near_singular(-1.0 + 2e-13), 22, mode="float")
    assert solution.condition == pytest.approx(5.0e12, rel=1e-2)
    assert all(c == pytest.approx(5.0e12, rel=1e-2) for c in solution.coefficients)
    # the warning points at the caller of solve or of convergence_study
    assert [w.filename for w in record] == [__file__]
    studied = replace(near_singular(-1.0 + 2e-13), exact_expr=parse("5e12"))
    with pytest.warns(IllConditionedWarning) as record:
        convergence_study(studied, [22], mode="float")
    assert [w.filename for w in record] == [__file__]


def test_condition_warning_names_the_condition_number():
    # the figure is the exact 1-norm condition number of the system, not an estimate
    pattern = r"^system condition number \d\.\d{3}e\+12 exceeds 1e\+12; coefficients may"
    with pytest.warns(IllConditionedWarning, match=pattern):
        solve(near_singular(-1.0 + 2e-13), 2, mode="float")


def test_condition_beyond_the_singular_bound_is_singular():
    problem = near_singular(-1.0 + 1e-14)  # condition about 1e14
    with pytest.raises(SingularSystem, match="condition"):
        solve(problem, 2, mode="float")
    with pytest.warns(IllConditionedWarning):
        solution = solve(problem, 2, mode="exact")
    assert solution.condition == math.inf
    assert solution.coefficients == (1 / (1 + Fraction(problem.lam)),) * 3


@pytest.mark.parametrize(
    "name, modes, condition",
    [("example1", ("float", "exact"), 3.0629514607), ("example4", ("float",), 8.418864)],
)
def test_condition_measures_the_operator_at_every_degree(name, modes, condition):
    # once the trial space resolves the operator, its condition no longer
    # depends on n (the Bernstein system's grew past 1e12 by n = 22)
    problem = builtin(name)
    for mode in modes:
        for n in (6, 14, 20):
            assert solve(problem, n, mode=mode).condition == pytest.approx(condition, rel=1e-6)
    if "float" in modes:
        assert solve(problem, 50, mode="float").condition == pytest.approx(condition, rel=1e-6)


def test_quadrature_order_must_exceed_the_degree():
    # with q <= n nodes the projection system has rank at most q < n + 1
    problem = builtin("example4")
    with pytest.raises(OrderOutOfRange, match="must exceed the degree 3"):
        solve(problem, 3, q=3)
    with pytest.raises(OrderOutOfRange):
        convergence_study(problem, [3, 4], q=4)
    assert solve(problem, 3, q=4).quadrature_order == 4


@pytest.mark.parametrize("q", [0, -5, 129, 500])
def test_exact_path_refuses_an_order_outside_the_rules(q):
    # the exact path uses no quadrature rule, but an order no rule has is
    # refused with one error on both paths, before the path is chosen:
    # example4 has no exact path, and "exact" there is refused for the order
    for name in ("example1", "example4"):
        problem = builtin(name)
        for mode in ("auto", "float", "exact"):
            with pytest.raises(OrderOutOfRange, match=rf"^order {q} outside 1\.\.128$"):
                solve(problem, 2, mode=mode, q=q)
            with pytest.raises(OrderOutOfRange, match=rf"^order {q} outside 1\.\.128$"):
                convergence_study(problem, [2, 3], q=q, mode=mode)
    solution = solve(builtin("example1"), 2, q=128)
    assert solution.mode == "exact" and solution.quadrature_order is None


@pytest.mark.parametrize("q", [2.5, 32.0, "8"])
def test_non_integer_quadrature_order_is_refused_on_either_path(q):
    # checked before q <= n, as a degree is, and before any rule is built
    message = re.escape(f"quadrature order must be an integer, got {q!r}")
    for name in ("example1", "example4"):
        problem = builtin(name)
        for mode in ("auto", "float", "exact"):
            for call in (partial(solve, problem, 3), partial(convergence_study, problem, [3, 4])):
                with pytest.raises(OrderOutOfRange, match=f"^{message}$"):
                    call(mode=mode, q=q)


DEGREE_ERRORS = [
    ("3", r"^degree must be an integer, got '3'$"),
    (None, r"^degree must be an integer, got None$"),
    (2.5, r"^degree must be an integer, got 2\.5$"),
    (-1, r"^degree must be nonnegative$"),
    (51, r"^degree 51 exceeds the cap of 50$"),
]


@pytest.mark.parametrize("n, message", DEGREE_ERRORS)
def test_a_bad_degree_gets_one_error_on_every_path(n, message):
    # example1 is polynomial and example4 is not, so auto routes them to
    # different paths; the degree is refused before either, as a basis does
    with pytest.raises(InvalidDegree, match=message):
        BasisSpec(n, 0.0, 1.0)
    for name in ("example1", "example4"):
        problem = builtin(name)
        with pytest.raises(InvalidDegree, match=message):
            assemble(problem, n)
        for mode in ("auto", "float"):
            with pytest.raises(InvalidDegree, match=message):
                solve(problem, n, mode=mode)
            with pytest.raises(InvalidDegree, match=message):
                convergence_study(problem, [n], mode=mode)


@pytest.mark.parametrize(
    "n, q, error",
    [
        (51, None, InvalidDegree),
        ("3", None, InvalidDegree),
        (60, 40, InvalidDegree),  # the degree first, not q <= n
        (60, 0, InvalidDegree),
        (2, 0, OrderOutOfRange),
        (2, 2.5, OrderOutOfRange),
    ],
)
def test_a_refused_degree_or_order_does_no_work(monkeypatch, n, q, error):
    def refuse(*args, **kwargs):
        raise AssertionError("work began before the degree and order were checked")

    monkeypatch.setattr(galerkin, "as_exact_problem", refuse)
    monkeypatch.setattr(galerkin, "assemble", refuse)
    for name in ("example1", "example4"):
        problem = builtin(name)
        for mode in ("auto", "float", "exact"):
            with pytest.raises(error):
                solve(problem, n, mode=mode, q=q)
            with pytest.raises(error):
                convergence_study(problem, [n], q=q, mode=mode)


@pytest.mark.parametrize("name", ["example1", "example2", "example3"])
def test_float_coefficients_match_exact_ones_at_degree_20(name):
    problem = builtin(name)
    exact = solve(problem, 20, mode="exact").coefficients
    approx = solve(problem, 20, mode="float").coefficients
    assert max(abs(f - float(e)) for f, e in zip(approx, exact)) <= 1e-9


def test_exponential_error_does_not_rise_with_degree():
    rows = convergence_study(builtin("example4"), range(14, 51))
    assert max(r.max_error for r in rows) <= 1e-12


def test_no_warning_on_well_conditioned_solve():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solve(builtin("example4"), 3)
    assert not any(issubclass(w.category, IllConditionedWarning) for w in caught)
    # an exact solve on [0, 10^-k] has entries far below the float range,
    # but its condition is that of [0, 1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        conditions = [
            solve(
                FredholmProblem(parse("1"), 1, parse("x*t"), parse("x"), 0, Fraction(1, 10**k)),
                1,
                mode="exact",
            ).condition
            for k in (300, 400, 5000)
        ]
    assert conditions == [conditions[0]] * 3 and conditions[0] < 1.1


def test_domain_error_names_offending_piece():
    problem = FredholmProblem(parse("1"), -1.0, parse("sqrt(t - x)"), parse("1"), 0.0, 1.0)
    with pytest.raises(DomainError) as err:
        assemble(problem, 2)
    assert "kernel" in str(err.value)


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_each_solve_factors_its_matrix_once(monkeypatch, mode):
    import fredgal.galerkin

    calls = []
    inv = np.linalg.inv

    def counting(matrix):
        calls.append(np.shape(matrix))
        return inv(matrix)

    monkeypatch.setattr(fredgal.galerkin.np.linalg, "inv", counting)
    solution = solve(builtin("example1"), 3, mode=mode)
    assert solution.condition > 1.0
    assert calls == [(4, 4)]


def test_exact_solve_does_not_build_the_float_map(monkeypatch):
    # the exact path maps its Legendre coefficients with the integer closed
    # form and takes its condition from the scaled Legendre system
    import fredgal.basis
    import fredgal.galerkin

    def refuse(n):
        raise AssertionError("legendre_to_bernstein called on the exact path")

    calls = []
    inv = np.linalg.inv

    def counting(matrix):
        calls.append(np.shape(matrix))
        return inv(matrix)

    monkeypatch.setattr(fredgal.basis, "legendre_to_bernstein", refuse)
    monkeypatch.setattr(fredgal.galerkin, "legendre_to_bernstein", refuse)
    monkeypatch.setattr(fredgal.galerkin.np.linalg, "inv", counting)
    for n in (3, 24):
        assert solve(builtin("example1"), n).mode == "exact"
    assert calls == [(4, 4), (25, 25)]


def dense_view_condition(problem, n):
    """The exact path's condition computed from np.array(A, dtype=float),
    converting every entry of the rational matrix, each one a Fraction."""
    A, _ = fraction_system(*exact_assemble(as_exact_problem(problem), n))
    scale = np.sqrt(2.0 * np.arange(n + 1) + 1.0)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return _invert(np.array(A, dtype=float) * np.outer(scale, scale))[1]
    except (SingularSystem, OverflowError):
        return math.inf


def test_exact_condition_equals_the_dense_float_view():
    # the float view divides each nonzero integer entry by its row
    # denominator; an int/int division is correctly rounded whatever the
    # representation, as Fraction.__float__ is, so the condition is
    # bit-identical
    problems = [builtin(name) for name in ("example1", "example2", "example3")]
    problems.append(FredholmProblem(parse("1 + x"), Fraction(1, 3), parse("x*t - 2*t^2 + 1/3"),
                                    parse("x^2 - 1"), Fraction(1, 2), Fraction(2)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        for problem in problems:
            for n in range(51):
                assert solve(problem, n, mode="exact").condition == dense_view_condition(problem, n)
        huge = FredholmProblem(parse("1"), -1, parse("1e400*x*t"), parse("x"), 0, 1)
        assert solve(huge, 2).condition == dense_view_condition(huge, 2) == math.inf


def test_exact_float_view_rounds_each_entry_once():
    # numerators and denominators far past 2**53: the view divides each
    # integer entry by its row denominator times one power of two for the
    # whole matrix, once, which rounds as float() of the scaled entry's
    # Fraction does; the scale takes the largest entry to [1/2, 2]
    problem = FredholmProblem(parse("1 + x/999999937"), Fraction(1, 1000000007),
                              parse("123456789123456789/1000000009*x*t^2 - x^3/998244353"),
                              parse("x^2"), Fraction(1, 99991), Fraction(7, 5))
    # entries far below and far above the float range
    narrow = replace(problem, a=Fraction(0), b=Fraction(1, 10**400))
    huge = FredholmProblem(parse("1"), -1, parse("1e400*x*t"), parse("x"), 0, 1)
    shifts = []
    for case, n in [(problem, 3), (problem, 12), (narrow, 12), (huge, 2)]:
        rows, dens, f_den = exact_assemble(as_exact_problem(case), n)
        if case is problem:
            assert max(dens).bit_length() > 53
        shift = max(
            abs(v).bit_length() - den.bit_length()
            for row, den in zip(rows, dens)
            for i, v in row.items()
            if i <= n
        )
        scale = Fraction(2) ** shift
        A, _ = fraction_system(rows, dens, f_den)
        want = np.array([[float(v / scale) for v in row] for row in A])
        view = _float_view(rows, dens)
        assert view.tobytes() == want.tobytes()
        assert 0.5 <= np.abs(view).max() <= 2.0
        shifts.append(shift)
    assert shifts[0] == shifts[1] == 0 and shifts[2] < -1000 and shifts[3] > 1000


def test_exact_solve_with_an_entry_beyond_float_range():
    problem = FredholmProblem(parse("1"), -1, parse("1e400*x*t"), parse("x"), 0, 1)
    with pytest.warns(IllConditionedWarning):
        solution = solve(problem, 2)
    assert solution.mode == "exact" and solution.condition == math.inf
    # the coefficients still solve the rational Bernstein system
    A, F = bernstein_system(as_exact_problem(problem), 2)
    assert [sum(a * c for a, c in zip(row, solution.coefficients)) for row in A] == F
    with pytest.raises(DomainError), np.errstate(invalid="ignore"):
        solve(problem, 2, mode="float")


def test_float_solve_whose_coefficients_overflow_is_a_domain_error():
    # a finite system whose solution, 1e600·exp(x), is beyond the float range
    problem = FredholmProblem(
        parse("1e-300"), 0, parse("exp(x*t)"), parse("1e300*exp(x)"), 0, 1, parse("exp(x)")
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for attempt in (partial(solve, problem, 3), partial(convergence_study, problem, [2, 3])):
            with pytest.raises(DomainError, match="^solution coefficients are beyond the float range$"):
                attempt()
    assert caught == []


@pytest.mark.parametrize("a, b", [(0.0, 2.0), (-4.0, 4.0), (0.0, 0.5), (-1.0, 1.0)])
def test_legendre_table_is_the_basis_at_the_mapped_nodes(a, b):
    # on intervals whose affine map rounds as the table's own does, the
    # cached columns are legendre_row at the nodes assemble samples on
    for q in (4, 32, 51, 128):
        rule = gauss_legendre(q)
        pts = 0.5 * (b - a) * rule.nodes + 0.5 * (a + b)
        table, weighted = galerkin._legendre_table(q)
        for n in sorted({1, min(q - 1, 20), min(q - 1, 50)}):
            want = legendre_row(BasisSpec(n, a, b), pts)
            assert np.abs(table[:, : n + 1] - want).max() <= 1e-15
        assert np.array_equal(weighted, rule.weights[:, None] * table)


def test_legendre_table_is_cached_and_read_only():
    table, weighted = galerkin._legendre_table(32)
    assert galerkin._legendre_table(32)[0] is table
    assert table.shape == weighted.shape == (32, MAX_DEGREE + 1)
    for array in (table, weighted):
        with pytest.raises(ValueError):
            array[0, 0] = 0.0


def test_sweep_samples_each_piece_once_per_quadrature_order(monkeypatch):
    problem = builtin("example4")
    calls, probes = [], []
    evaluate, as_exact_problem = galerkin.evaluate, galerkin.as_exact_problem
    monkeypatch.setattr(
        galerkin, "evaluate", lambda node, *xt: calls.append(node) or evaluate(node, *xt)
    )
    monkeypatch.setattr(
        galerkin, "as_exact_problem", lambda p: probes.append(p) or as_exact_problem(p)
    )
    # degrees 3-14 share q = 32, and 16 and 20 take 36 and 44
    convergence_study(problem, [3, 14, 16, 4, 20, 16])
    for node in (problem.a_expr, problem.f_expr, problem.kernel_expr):
        assert sum(c is node for c in calls) == 3
    assert sum(c is problem.exact_expr for c in calls) == 1
    assert len(calls) == 10
    assert probes == [problem]
    # a float sweep never builds the exact view
    calls.clear()
    convergence_study(problem, [3, 4], q=40, mode="float")
    assert len(calls) == 4 and probes == [problem]
    # a sweep that crosses paths, exact at 2 and 4 and float at 6 and 8,
    # builds one view and samples each piece once for the shared q = 32
    crossing = big_denominator_problem()
    calls.clear()
    probes.clear()
    convergence_study(crossing, [2, 6, 4, 8])
    assert probes == [crossing]
    for node in (crossing.a_expr, crossing.f_expr, crossing.kernel_expr, crossing.exact_expr):
        assert sum(c is node for c in calls) == 1
    assert len(calls) == 4
    # a lone solve: one view, and one assembly on the float path only
    systems, rules = [], []
    assemble, gauss_legendre = galerkin.assemble, galerkin.gauss_legendre
    monkeypatch.setattr(
        galerkin, "assemble", lambda *args, **kw: systems.append(args) or assemble(*args, **kw)
    )
    monkeypatch.setattr(galerkin, "gauss_legendre", lambda q: rules.append(q) or gauss_legendre(q))
    probes.clear()
    assert solve(problem, 6).mode == "float"
    assert probes == [problem] and len(systems) == 1
    # the exact path checks an explicit order but builds no rule
    for seen in (probes, systems, rules):
        seen.clear()
    assert solve(builtin("example1"), 2, q=128).mode == "exact"
    assert len(probes) == 1 and systems == [] and rules == []


def test_sweep_assembles_through_assemble(monkeypatch):
    calls = []
    assemble = galerkin.assemble

    def counting(problem, n, q, **samples):
        calls.append(n)
        return assemble(problem, n, q, **samples)

    monkeypatch.setattr(galerkin, "assemble", counting)
    convergence_study(builtin("example4"), [3, 4, 5], mode="float")
    assert calls == [3, 4, 5]


def test_interval_wider_than_the_float_range_is_refused_where_it_becomes_floats():
    # the exact path solves it; evaluating the solution in floats is refused
    problem = FredholmProblem(
        parse("1"), 0, parse("x*t"), parse("1"), Fraction(-10**308), Fraction(10**308), parse("1")
    )
    solution = solve(problem, 2, mode="exact")
    assert solution.coefficients == (1, 1, 1)
    with pytest.raises(InvalidInterval, match="wider than the float range"):
        evaluate_solution(solution, 0.0)
    with pytest.raises(InvalidInterval, match="wider than the float range"):
        error_table(solution, problem.exact_expr, [0.0])
    with pytest.raises(InvalidInterval, match="wider than the float range"):
        convergence_study(problem, [1, 2])
    # [0, 1e-400] has no float points either: its upper end rounds to 0.0,
    # where u = (x-a)/(b-a) would be 0/0
    tiny = FredholmProblem(
        parse("1"), 1, parse("x*t"), parse("x"), Fraction(0), Fraction(1, 10**400), parse("x")
    )
    solution = solve(tiny, 2, mode="exact")
    for call in (
        partial(evaluate_solution, solution, 0.0),
        partial(error_table, solution, tiny.exact_expr, [0.0]),
        partial(convergence_study, tiny, [1, 2]),
    ):
        with pytest.raises(InvalidInterval, match=r"empty in floating point: .* round to 0\.0$"):
            call()


def big_denominator_problem():
    # the kernel's 1,500-digit decimal puts exact_work past MAX_EXACT_WORK
    # from n = 6 on, so auto solves n <= 4 exactly and the rest in floats
    literal = "0.5" + "0" * 1500 + "1"
    return FredholmProblem(
        parse("1"), 1, parse(f"x*t*{literal}"), parse("x"), 0, 1, parse("6*x/7")
    )


@pytest.mark.parametrize(
    "problem, n_values, q, mode, paths",
    [
        (builtin("example4"), range(10, 21), None, "auto", {"float"}),
        (builtin("example4"), [5, 3, 5, 8], 40, "float", {"float"}),
        (big_denominator_problem(), [2, 6, 4, 8], None, "auto", {"exact", "float"}),
        (builtin("example1"), [2, 3, 5], None, "auto", {"exact"}),
    ],
)
def test_sweep_rows_equal_solve_and_error_table(problem, n_values, q, mode, paths):
    grid = np.linspace(float(problem.a), float(problem.b), 101)
    want, seen = [], set()
    for n in n_values:
        solution = solve(problem, n, mode=mode, q=q)
        seen.add(solution.mode)
        rows = error_table(solution, problem.exact_expr, grid)
        want.append((n, max(r.error for r in rows), solution.condition))
    assert seen == paths
    assert [tuple(row) for row in convergence_study(problem, n_values, q=q, mode=mode)] == want


def test_sweep_domain_errors_are_those_of_solve_and_error_table():
    kernel = FredholmProblem(
        parse("1"), -1.0, parse("sqrt(t - x)"), parse("1"), 0.0, 1.0, parse("1")
    )
    with pytest.raises(DomainError) as direct:
        solve(kernel, 2)
    with pytest.raises(DomainError) as swept:
        convergence_study(kernel, [2, 3])
    assert str(swept.value) == str(direct.value)
    assert str(swept.value) == (
        "kernel expression: sqrt of negative value -0.005826175152106594 (offset 0)"
    )
    # the reference is evaluated after the first solve, as error_table does
    reference = replace(builtin("example4"), exact_expr=parse("log(x - 1/2)"))
    with pytest.raises(DomainError) as direct:
        error_table(solve(reference, 3), reference.exact_expr, np.linspace(0.0, 1.0, 101))
    with pytest.raises(DomainError) as swept:
        convergence_study(reference, [3, 4])
    assert str(swept.value) == str(direct.value)
    assert str(swept.value) == "exact expression: log of nonpositive value -0.5 (offset 0)"
    with pytest.raises(OrderOutOfRange):
        convergence_study(reference, [3], q=3)
