"""Exact oracles the tests check the solver against: the residual of a
candidate solution, independent of the Galerkin projection, and the
Legendre form of a rational Bernstein system, independent of the closed
form ``fredgal.basis.legendre_to_bernstein`` uses."""

import math
from fractions import Fraction

import numpy as np

from fredgal.exact import BivarPoly, ExactProblem


def residual_poly(problem: ExactProblem, phi: BivarPoly) -> BivarPoly:
    """a·phi + lam·∫ k(t,x)·phi(t) dt - f for a candidate solution phi(x).

    Identically zero exactly when phi solves the equation.
    """
    if phi.degree_t:
        raise ValueError("candidate solution must be a polynomial in x only")
    a, b = problem.a, problem.b
    # kernel term c·x^p·t^q times phi term d·t^s integrates over t in [a, b]
    # to c·d·(b^e - a^e)/e·x^p with e = q + s + 1
    integral = {}
    for (p, q), c in problem.kernel_poly.terms.items():
        for (s, _), d in phi.terms.items():
            e = q + s + 1
            integral[(p, 0)] = integral.get((p, 0), 0) + c * d * (b**e - a**e) / e
    return problem.a_poly * phi + BivarPoly(integral).scale(problem.lam) - problem.f_poly


def legendre_in_bernstein(n: int) -> list[list[Fraction]]:
    """R with T = R·diag(sqrt(2k+1)): R[i][k] is the i-th degree-n Bernstein
    coefficient of the shifted Legendre polynomial P_k(2u-1).

    Built from the power form P_k(2u-1) = Σ_m (-1)^(k+m)·C(k,m)·C(k+m,m)·u^m
    and u^m = Σ_i C(i,m)/C(n,m)·B_i^n.
    """
    comb = math.comb
    return [
        [
            sum(
                Fraction((-1) ** (k + m) * comb(k, m) * comb(k + m, m) * comb(i, m), comb(n, m))
                for m in range(min(i, k) + 1)
            )
            for k in range(n + 1)
        ]
        for i in range(n + 1)
    ]


def legendre_system(A, F) -> tuple[np.ndarray, np.ndarray]:
    """T.T @ A @ T and T.T @ F for a rational Bernstein system (A, F), in
    rationals up to the sqrt(2k+1) factors and then rounded to floats."""
    n = len(F) - 1
    R = legendre_in_bernstein(n)
    AR = [[sum(A[j][m] * R[m][i] for m in range(n + 1)) for i in range(n + 1)] for j in range(n + 1)]
    RtAR = [[sum(R[m][j] * AR[m][i] for m in range(n + 1)) for i in range(n + 1)] for j in range(n + 1)]
    RtF = [sum(R[m][j] * F[m] for m in range(n + 1)) for j in range(n + 1)]
    scale = np.sqrt(2.0 * np.arange(n + 1) + 1.0)
    return (
        np.array(RtAR, dtype=float) * np.outer(scale, scale),
        np.array(RtF, dtype=float) * scale,
    )
