"""Exact residual of a candidate solution: the oracle the exact-path tests
check solutions against, independent of the Galerkin projection."""

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
