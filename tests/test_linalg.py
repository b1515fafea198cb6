import math
from fractions import Fraction

import numpy as np
import pytest

from fredgal.errors import IllConditionedWarning, SingularMatrix
from fredgal.expr import parse
from fredgal.galerkin import FredholmProblem, solve
from fredgal.linalg import condition_1norm, lu_factor, lu_solve


def reconstruct(factors):
    lu = factors.lu
    m = lu.shape[0]
    lower = np.tril(lu, -1) + np.eye(m)
    upper = np.triu(lu)
    return lower @ upper


def test_identity():
    factors = lu_factor(np.eye(3))
    assert (factors.lu == np.eye(3)).all()
    assert factors.perm.tolist() == [0, 1, 2]


def test_pure_row_swap():
    factors = lu_factor([[0.0, 1.0], [1.0, 0.0]])
    assert factors.perm.tolist() == [1, 0]
    assert (factors.lu == np.eye(2)).all()


def test_rank_one_matrix_reports_failing_column():
    with pytest.raises(SingularMatrix) as err:
        lu_factor([[1.0, 2.0], [2.0, 4.0]])
    assert err.value.column == 1


def test_zero_matrix_fails_at_first_column():
    with pytest.raises(SingularMatrix) as err:
        lu_factor(np.zeros((3, 3)))
    assert err.value.column == 0


def test_solve_two_by_two():
    factors = lu_factor([[2.0, 1.0], [1.0, 3.0]])
    x = lu_solve(factors, [5.0, 10.0])
    assert x == pytest.approx([1.0, 3.0], abs=1e-13)


def test_solve_identity_and_swap():
    b = np.array([7.0, 9.0])
    assert (lu_solve(lu_factor(np.eye(2)), b) == b).all()
    assert lu_solve(lu_factor([[0.0, 1.0], [1.0, 0.0]]), b).tolist() == [9.0, 7.0]


def test_solve_many_right_hand_sides_at_once():
    rng = np.random.default_rng(103)
    a = _random_well_conditioned(rng, 7)
    rhs = rng.uniform(-5.0, 5.0, size=(7, 4))
    factors = lu_factor(a)
    x = lu_solve(factors, rhs)
    assert x.shape == (7, 4)
    for j in range(4):
        assert x[:, j] == pytest.approx(lu_solve(factors, rhs[:, j]), rel=1e-13, abs=1e-13)
    with pytest.raises(ValueError):
        lu_solve(factors, np.ones(6))
    with pytest.raises(ValueError):
        lu_solve(factors, np.ones((6, 2)))
    with pytest.raises(ValueError):
        lu_solve(factors, np.ones((7, 2, 2)))


def test_requires_square_and_finite():
    with pytest.raises(ValueError):
        lu_factor(np.ones((2, 3)))
    with pytest.raises(ValueError):
        lu_factor([[1.0, np.nan], [0.0, 1.0]])


def _random_well_conditioned(rng, m):
    while True:
        a = rng.uniform(-1.0, 1.0, size=(m, m))
        if np.linalg.cond(a) < 1e6:
            return a


def test_reconstruction_and_residual_on_random_systems():
    rng = np.random.default_rng(101)
    for _ in range(100):
        m = int(rng.integers(1, 13))
        a = _random_well_conditioned(rng, m)
        b = rng.uniform(-5.0, 5.0, size=m)
        factors = lu_factor(a)

        norm_inf = np.abs(a).sum(axis=1).max()
        assert np.abs(reconstruct(factors) - a[factors.perm]).max() <= 1e-12 * norm_inf

        x = lu_solve(factors, b)
        residual = np.abs(a @ x - b).max()
        bound = 1e-10 * (norm_inf * np.abs(x).max() + np.abs(b).max())
        assert residual <= bound


def test_condition_identity():
    assert condition_1norm(lu_factor(np.eye(5))) == 1.0


def test_condition_diagonal():
    assert condition_1norm(lu_factor(np.diag([1.0, 1000.0]))) == pytest.approx(1000.0, rel=1e-12)


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
    g = bernstein_gram(3)
    got = condition_1norm(lu_factor(g))
    oracle = np.abs(g).sum(axis=0).max() * np.abs(np.linalg.inv(g)).sum(axis=0).max()
    assert got > 1.0
    assert got == pytest.approx(oracle, rel=1e-6)


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
    with pytest.raises(SingularMatrix):
        lu_factor([[1e-20, 1.0], [0.0, 1.0]])
    # the same pivot passes when the rest of the matrix is as small
    factors = lu_factor([[1e-20, 0.0], [0.0, 1e-20]])
    assert factors.perm.tolist() == [0, 1]


def test_condition_of_nonsymmetric_matrix_uses_column_sums():
    rng = np.random.default_rng(107)
    a = _random_well_conditioned(rng, 6)
    assert condition_1norm(lu_factor(a)) == pytest.approx(np.linalg.cond(a, 1), rel=1e-10)
