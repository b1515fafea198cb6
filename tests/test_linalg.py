"""The linear algebra of a solve: numpy.linalg on the orthonormal-basis
system, the 1-norm condition number both paths report, and the rule that
calls a system singular."""

import math
from fractions import Fraction

import numpy as np
import pytest

from fredgal.basis import legendre_to_bernstein
from fredgal.errors import IllConditionedWarning, SingularSystem
from fredgal.expr import parse
from fredgal.galerkin import FredholmProblem, _invert, assemble, solve


def operator_problem(lam, a="1", kernel="1", rhs="1", interval=(0.0, 1.0)):
    return FredholmProblem(parse(a), lam, parse(kernel), parse(rhs), *interval)


def test_identity():
    # with lam = 0 the operator is the identity and phi = f
    solution = solve(operator_problem(0.0, rhs="1 + x"), 3, mode="float")
    assert solution.coefficients == pytest.approx([1.0, 4 / 3, 5 / 3, 2.0], abs=1e-14)


def test_solve_two_by_two():
    # phi - x·∫ t·phi = 2x/3 has phi = x: Bernstein coefficients 0, 1 at degree 1
    problem = operator_problem(-1.0, kernel="x*t", rhs="2/3*x")
    solution = solve(problem, 1, mode="float")
    assert solution.coefficients == pytest.approx([0.0, 1.0], abs=1e-14)


def test_reconstruction_and_residual_on_random_systems():
    # random polynomial problems: the float solve reconstructs the exact
    # path's coefficients and leaves a small residual in the Legendre system
    rng = np.random.default_rng(101)
    for _ in range(30):
        n = int(rng.integers(1, 13))
        a = Fraction(int(rng.integers(-8, 8)), 4)
        b = a + Fraction(int(rng.integers(1, 12)), 4)
        p, q = (int(v) for v in rng.integers(0, 4, size=2))
        lam = Fraction(int(rng.integers(-9, 10)), 10)
        problem = operator_problem(
            lam, a=f"2 + x^2/{1 + abs(a) + abs(b)}", kernel=f"x^{p}*t^{q}", rhs="1 - x^3",
            interval=(a, b),
        )
        exact = np.array(solve(problem, n, mode="exact").coefficients, dtype=float)
        approx = np.array(solve(problem, n, mode="float").coefficients)
        assert np.abs(approx - exact).max() <= 1e-10 * np.abs(exact).max()

        A, F = assemble(problem, n)
        residual = A @ np.linalg.solve(legendre_to_bernstein(n), approx) - F
        assert np.abs(residual).max() <= 1e-12 * (np.abs(A).max() + np.abs(F).max())


def test_condition_identity():
    for mode in ("float", "exact"):
        solution = solve(operator_problem(0, rhs="x^2"), 5, mode=mode)
        assert solution.condition == pytest.approx(1.0, rel=1e-12)


def test_condition_diagonal():
    # lam = 999 scales the constants by 1000 and leaves the rest alone
    for mode in ("float", "exact"):
        solution = solve(operator_problem(999), 4, mode=mode)
        assert solution.condition == pytest.approx(1000.0, rel=1e-12)


def bernstein_gram(n):
    # closed form on [0,1]: integral of B_i * B_j is
    # C(n,i)*C(n,j) / ((2n+1)*C(2n,i+j))
    g = np.empty((n + 1, n + 1))
    for i in range(n + 1):
        for j in range(n + 1):
            g[i, j] = float(
                Fraction(math.comb(n, i) * math.comb(n, j), (2 * n + 1) * math.comb(2 * n, i + j))
            )
    return g


def test_condition_of_bernstein_gram_against_inverse_oracle():
    # the exact path reports the condition of its Bernstein Gram system in
    # the orthonormal basis, T.T @ G @ T, which is the identity
    g = bernstein_gram(3)
    T = legendre_to_bernstein(3)
    oracle = np.linalg.cond(T.T @ g @ T, 1)
    got = solve(operator_problem(0), 3, mode="exact").condition
    assert np.linalg.cond(g, 1) > 40.0
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got == pytest.approx(1.0, rel=1e-12)


def test_singular_condition():
    # read exactly, lambda leaves the system regular, but its float view is
    # singular to working precision: no inverse, so no finite condition
    lam = Fraction(-(10**17) + 1, 10**17)
    near = FredholmProblem(parse("1"), lam, parse("1"), parse("1"), 0, 1)
    with pytest.warns(IllConditionedWarning):
        solution = solve(near, 2, mode="exact")
    assert solution.condition == math.inf
    assert solution.coefficients == (Fraction(10**17),) * 3


def test_tiny_pivot_is_singular_relative_to_the_norm():
    # a system scaled by 1e-20 is as regular as the unscaled one; a constant
    # mode 1e-14 times smaller than the rest is singular, at either scale
    for scale in (1.0, 1e-20):
        tiny = operator_problem(0.0, a=f"{scale}")
        assert solve(tiny, 3, mode="float").coefficients == pytest.approx([1 / scale] * 4)
        with pytest.raises(SingularSystem):
            solve(operator_problem(-scale * (1 - 1e-14), a=f"{scale}"), 3, mode="float")


def test_condition_of_nonsymmetric_matrix_uses_column_sums():
    # the kernel x^3 + t makes the system nonsymmetric, so its row sums
    # (the infinity norm) give another condition number
    problem = operator_problem(-1.0, kernel="x^3 + t")
    A, _ = assemble(problem, 6)
    assert np.abs(A - A.T).max() > 0.1
    want = np.linalg.cond(A, 1)
    assert want == pytest.approx(10.2395, rel=1e-4)
    assert np.linalg.cond(A, np.inf) == pytest.approx(9.2770, rel=1e-4)
    for mode in ("float", "exact"):
        assert solve(problem, 6, mode=mode).condition == pytest.approx(want, rel=1e-10)


def test_condition_is_numpys_one_norm_product_bit_for_bit():
    # _invert sums the columns' absolute values itself; the figure must stay
    # the one np.linalg.norm(., 1) gives, to the last bit
    rng = np.random.default_rng(55)
    for m in range(1, 52):
        scale = 10.0 ** int(rng.integers(-20, 21))
        A = (rng.standard_normal((m, m)) + rng.uniform(0, m) * np.eye(m)) * scale
        inverse, cond = _invert(A)
        assert cond == float(np.linalg.norm(A, 1)) * float(np.linalg.norm(inverse, 1)), m
