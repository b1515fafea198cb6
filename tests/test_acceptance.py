"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible with ``pytest -s``).

Criteria cover exact recovery of the three polynomial benchmarks, the
exponential benchmark's pointwise and convergence behavior, the
exact/float cross-check, the property suites, and the CLI's table output.
"""

from fractions import Fraction

import numpy as np

from fredgal.basis import (
    BasisSpec,
    basis_row,
    bernstein_to_monomial,
    legendre_row,
    legendre_to_bernstein,
)
from fredgal.cli import main
from fredgal.expr import parse
from fredgal.galerkin import as_exact_problem, assemble, convergence_study, evaluate_solution, solve
from fredgal.problems import builtin
from fredgal.quadrature import gauss_legendre

from exact_oracle import poly, residual_poly, to_text

F = Fraction


class _Criterion:
    """Prints the verdict even when the assertion that follows fails."""

    def __init__(self, number, name):
        self.number = number
        self.name = name
        self.failures = []

    def check(self, label, ok):
        if not ok:
            self.failures.append(label)

    def conclude(self):
        verdict = "PASS" if not self.failures else "FAIL"
        print(f"[criterion {self.number}] {self.name}: {verdict}")
        assert not self.failures, f"criterion {self.number} failed: {self.failures}"


def monomial_of(solution):
    return bernstein_to_monomial(list(solution.coefficients), solution.spec)


def test_criterion_1_exact_recovery_even_quadratic():
    crit = _Criterion(1, "exact recovery, even quadratic benchmark")
    solution = solve(builtin("example1"), 3, mode="exact")
    crit.check(
        "coefficients",
        list(solution.coefficients) == [F(19, 9), F(17, 27), F(17, 27), F(19, 9)],
    )
    crit.check("monomial", monomial_of(solution) == [F(1), F(0), F(10, 9), F(0)])
    crit.conclude()


def test_criterion_2_exact_recovery_identity_solution():
    crit = _Criterion(2, "exact recovery, identity-solution benchmark")
    solution = solve(builtin("example2"), 3, mode="exact")
    crit.check(
        "coefficients",
        list(solution.coefficients) == [F(-1), F(-1, 3), F(1, 3), F(1)],
    )
    crit.check("monomial", monomial_of(solution) == [F(0), F(1), F(0), F(0)])
    crit.conclude()


def test_criterion_3_exact_recovery_mixed_quadratic():
    crit = _Criterion(3, "exact recovery, mixed quadratic benchmark")
    problem = builtin("example3")
    solution = solve(problem, 3, mode="exact")
    mono = monomial_of(solution)
    crit.check("monomial", mono == [F(0), F(180, 119), F(80, 119), F(0)])
    phi = poly({(k, 0): c for k, c in enumerate(mono)})
    crit.check("residual", residual_poly(as_exact_problem(problem), phi) == {})
    crit.conclude()


def test_criterion_4_exponential_benchmark_pointwise():
    crit = _Criterion(4, "exponential benchmark pointwise errors")
    problem = builtin("example4")
    exact = problem.exact_expr

    solution3 = solve(problem, 3, q=32)
    crit.check(
        "value at 0", abs(evaluate_solution(solution3, 0.0) - (-0.1853868426)) <= 1e-7
    )

    def rel_error(solution, x):
        from fredgal.expr import evaluate

        want = evaluate(exact, x)
        return abs((want - evaluate_solution(solution, x)) / want)

    crit.check("E(0), degree 3", abs(rel_error(solution3, 0.0) - 9.40e-4) <= 0.05 * 9.40e-4)
    crit.check("E(0.7), degree 3", abs(rel_error(solution3, 0.7) - 4.8e-5) <= 0.10 * 4.8e-5)

    solution4 = solve(problem, 4, q=32)
    crit.check(
        "E(0), degree 4", abs(rel_error(solution4, 0.0) - 5.26782e-5) <= 0.10 * 5.26782e-5
    )
    crit.conclude()


def test_criterion_5_exponential_benchmark_convergence():
    crit = _Criterion(5, "exponential benchmark convergence")
    rows = convergence_study(builtin("example4"), [3, 4, 5, 6])
    errors = [row.max_error for row in rows]
    for error, bound, n in zip(errors, (2e-3, 1e-4, 5e-6, 5e-6), (3, 4, 5, 6)):
        crit.check(f"max E at degree {n}", error <= bound)
    crit.check("strict decrease", all(a > b for a, b in zip(errors, errors[1:])))
    crit.conclude()


def test_criterion_6_exact_float_cross_oracle():
    crit = _Criterion(6, "exact/float cross-check on polynomial benchmarks")
    for name in ("example1", "example2", "example3"):
        problem = builtin(name)
        for n in (3, 4, 5):
            exact_coeffs = solve(problem, n, mode="exact").coefficients
            float_coeffs = solve(problem, n, mode="float").coefficients
            worst = max(
                abs(fc - float(ec)) for fc, ec in zip(float_coeffs, exact_coeffs)
            )
            crit.check(f"{name} degree {n}", worst <= 1e-10)
    crit.conclude()


def test_criterion_7_property_suites():
    crit = _Criterion(7, "property suites")

    # partition of unity, 1000 random draws
    rng = np.random.default_rng(2024)
    unity_ok = True
    for _ in range(1000):
        n = int(rng.integers(0, 11))
        a = rng.uniform(-5.0, 5.0)
        b = a + rng.uniform(0.1, 10.0)
        x = rng.uniform(a, b)
        unity_ok &= abs(basis_row(BasisSpec(n, a, b), x).sum() - 1.0) <= 1e-12
    crit.check("partition of unity", unity_ok)

    # quadrature exactness through degree 2q-1 for q <= 20
    gauss_ok = True
    for q in range(1, 21):
        rule = gauss_legendre(q)
        nodes = 0.5 * rule.nodes + 0.5  # mapped onto [0, 1]
        for d in range(2 * q):
            got = 0.5 * float(rule.weights @ nodes**d)
            gauss_ok &= abs(got - 1.0 / (d + 1)) <= 1e-12 * max(1.0, 1.0 / (d + 1))
    crit.check("quadrature exactness", gauss_ok)

    # the Legendre-to-Bernstein map reproduces the orthonormal table, on
    # random intervals for every degree up to the cap
    map_ok = True
    for n in range(51):
        a = rng.uniform(-5.0, 5.0)
        spec = BasisSpec(n, a, a + rng.uniform(0.1, 10.0))
        x = rng.uniform(spec.a, spec.b, size=17)
        T = legendre_to_bernstein(n)
        scale = np.abs(T).sum(axis=1).max()
        map_ok &= np.abs(basis_row(spec, x) @ T - legendre_row(spec, x)).max() <= 1e-15 * scale
    crit.check("Legendre-to-Bernstein map", map_ok)

    # residual orthogonality for the exponential benchmark
    problem = builtin("example4")
    ortho_ok = True
    for n in range(3, 7):
        A, F = assemble(problem, n, 32)
        coeffs = np.array(solve(problem, n, q=32).coefficients)
        residual = A @ np.linalg.solve(legendre_to_bernstein(n), coeffs) - F
        ortho_ok &= np.abs(residual).max() <= 1e-8 * np.abs(F).max()
    crit.check("residual orthogonality", ortho_ok)

    # parser round trip over the 50-expression corpus
    from test_expr import CORPUS

    crit.check("corpus size", len(CORPUS) >= 50)
    crit.check(
        "parser round trip",
        all(parse(to_text(parse(text))) == parse(text) for text in CORPUS),
    )

    # quadrature-order stability
    low = solve(problem, 5, q=32).coefficients
    high = solve(problem, 5, q=64).coefficients
    crit.check(
        "quadrature stability",
        max(abs(l - h) for l, h in zip(low, high)) <= 1e-12,
    )
    crit.conclude()


EXACT_COLUMN_DEGREE5 = [
    "-0.1855612526",
    "-0.2050768999",
    "-0.2266450257",
    "-0.2504814912",
    "-0.2768248595",
    "-0.3059387842",
    "-0.3381146470",
    "-0.3736744748",
    "-0.4129741624",
    "-0.4564070342",
    "-0.5044077810",
]


def test_criterion_8_cli_table_reproduction(tmp_path, capsys):
    crit = _Criterion(8, "CLI error-table reproduction")
    out_path = tmp_path / "table.csv"
    code = main(
        ["table", "--builtin", "example4", "--degree", "5", "--out", str(out_path)]
    )
    capsys.readouterr()
    crit.check("exit code", code == 0)
    lines = out_path.read_text().splitlines()
    crit.check("row count", len(lines) == 12)
    exact_column = [line.split(",")[1] for line in lines[1:]]
    crit.check("exact column digits", exact_column == EXACT_COLUMN_DEGREE5)
    crit.conclude()
