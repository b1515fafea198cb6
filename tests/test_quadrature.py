import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from fredgal.errors import DomainError, OrderOutOfRange
from fredgal.expr import evaluate, parse
from fredgal.galerkin import solve
from fredgal.problems import builtin
from fredgal.quadrature import gauss_legendre


def integrate_1d(f, a, b, rule):
    """Weighted sum of f at the rule's nodes mapped onto [a, b]."""
    half = 0.5 * (b - a)
    return half * float(rule.weights @ f(half * rule.nodes + 0.5 * (a + b)))


def integrate_2d(g, a, b, rule):
    """Tensor-product weighted sum of g(t, x) over [a, b] x [a, b]."""
    half = 0.5 * (b - a)
    pts = half * rule.nodes + 0.5 * (a + b)
    return half * half * float(rule.weights @ g(pts[:, None], pts[None, :]) @ rule.weights)


def test_single_node_rule():
    rule = gauss_legendre(1)
    assert rule.nodes.tolist() == [0.0]
    assert rule.weights.tolist() == [2.0]


def test_two_node_rule():
    rule = gauss_legendre(2)
    r = 1.0 / math.sqrt(3.0)
    assert rule.nodes == pytest.approx([-r, r], abs=1e-15)
    assert rule.weights == pytest.approx([1.0, 1.0], abs=1e-15)


def test_three_node_rule():
    rule = gauss_legendre(3)
    r = math.sqrt(3.0 / 5.0)
    assert rule.nodes == pytest.approx([-r, 0.0, r], abs=1e-15)
    assert rule.weights == pytest.approx([5 / 9, 8 / 9, 5 / 9], abs=1e-15)


def test_order_bounds():
    with pytest.raises(OrderOutOfRange):
        gauss_legendre(0)
    with pytest.raises(OrderOutOfRange):
        gauss_legendre(129)
    gauss_legendre(128)  # boundary is fine
    for q in (2.5, 32.0, "8"):
        with pytest.raises(OrderOutOfRange, match="^quadrature order must be an integer"):
            gauss_legendre(q)


def test_cached_rule_is_read_only():
    # every float solve at this order shares the rule's arrays
    problem = builtin("example4")
    before = solve(problem, 4, mode="float").coefficients
    rule = gauss_legendre(32)
    for array in (rule.nodes, rule.weights):
        with pytest.raises(ValueError, match="read-only"):
            array[:] = 0.5
    assert gauss_legendre(32) is rule
    assert solve(problem, 4, mode="float").coefficients == before


@pytest.mark.parametrize("q", list(range(1, 65)))
def test_rule_invariants(q):
    rule = gauss_legendre(q)
    assert abs(rule.weights.sum() - 2.0) <= 1e-13
    assert (rule.weights > 0.0).all()
    assert (np.diff(rule.nodes) > 0.0).all()
    assert rule.nodes[0] > -1.0 and rule.nodes[-1] < 1.0
    # exact mirror symmetry by construction
    assert (rule.nodes == -rule.nodes[::-1]).all()
    assert (rule.weights == rule.weights[::-1]).all()


@pytest.mark.parametrize("q", [1, 2, 3, 5, 8, 13, 21, 34, 55, 64, 100, 128])
def test_against_reference_generator(q):
    nodes, weights = leggauss(q)
    rule = gauss_legendre(q)
    assert rule.nodes == pytest.approx(nodes, abs=2e-14)
    assert rule.weights == pytest.approx(weights, abs=2e-14)


def test_monomial_exactness_up_to_2q_minus_1():
    for q in range(1, 21):
        rule = gauss_legendre(q)
        for d in range(2 * q):
            got = integrate_1d(lambda x: x**d, 0.0, 1.0, rule)
            want = 1.0 / (d + 1)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (q, d)


def test_highest_exact_monomial():
    for q in range(1, 21):
        rule = gauss_legendre(q)
        got = integrate_1d(lambda x: x ** (2 * q - 1), 0.0, 1.0, rule)
        assert abs(got - 1.0 / (2 * q)) <= 1e-13


def test_exponential_integral():
    rule = gauss_legendre(10)
    assert integrate_1d(np.exp, 0.0, 1.0, rule) == pytest.approx(math.e - 1.0, abs=1e-12)


def test_odd_function_vanishes():
    for q in range(2, 12):
        assert abs(integrate_1d(lambda x: x**3, -1.0, 1.0, gauss_legendre(q))) <= 1e-14


def test_linearity():
    rng = np.random.default_rng(31)
    rule = gauss_legendre(12)
    for _ in range(25):
        cf = rng.uniform(-1.0, 1.0, size=5)
        cg = rng.uniform(-1.0, 1.0, size=5)
        alpha, beta = rng.uniform(-2.0, 2.0, size=2)

        def f(x, c=cf):
            return sum(ck * x**k for k, ck in enumerate(c))

        def g(x, c=cg):
            return sum(ck * x**k for k, ck in enumerate(c))

        combined = integrate_1d(lambda x: alpha * f(x) + beta * g(x), -1.0, 2.0, rule)
        parts = alpha * integrate_1d(f, -1.0, 2.0, rule) + beta * integrate_1d(g, -1.0, 2.0, rule)
        assert abs(combined - parts) <= 1e-12


def test_2d_odd_kernel_vanishes():
    rule = gauss_legendre(8)
    assert abs(integrate_2d(lambda t, x: x * t, -1.0, 1.0, rule)) <= 1e-14


def test_2d_separable_exponential():
    rule = gauss_legendre(16)
    got = integrate_2d(lambda t, x: np.exp(x + t), 0.0, 1.0, rule)
    assert got == pytest.approx((math.e - 1.0) ** 2, abs=1e-11)


def test_2d_quartic():
    rule = gauss_legendre(6)
    got = integrate_2d(lambda t, x: x**2 * t**2, -1.0, 1.0, rule)
    assert abs(got - 4.0 / 9.0) <= 1e-13


def test_rules_are_cached():
    assert gauss_legendre(16) is gauss_legendre(16)


def test_domain_error_propagates():
    ast = parse("sqrt(x)")
    with pytest.raises(DomainError):
        integrate_1d(lambda x: evaluate(ast, x), -1.0, 1.0, gauss_legendre(5))
