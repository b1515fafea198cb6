"""Galerkin solver for linear Fredholm integral equations of the second kind
on a Bernstein polynomial basis, with an exact rational path for polynomial
problem data and a CSV-oriented CLI."""

from .basis import BasisSpec, basis_row, bernstein_to_monomial
from .errors import FredgalError
from .exact import ExactProblem, exact_assemble, solve_rational_system
from .expr import evaluate, parse, to_polynomial, variables
from .galerkin import (
    ConvergenceRow,
    ErrorRow,
    FredholmProblem,
    Solution,
    as_exact_problem,
    assemble,
    convergence_study,
    default_quadrature_order,
    error_table,
    evaluate_solution,
    solve,
)
from .problems import (
    BUILTIN_NAMES,
    builtin,
    load_problem,
    parse_problem,
)
from .quadrature import QuadratureRule, gauss_legendre

__version__ = "0.1.0"

__all__ = [
    "BasisSpec",
    "BUILTIN_NAMES",
    "ConvergenceRow",
    "ErrorRow",
    "ExactProblem",
    "FredgalError",
    "FredholmProblem",
    "QuadratureRule",
    "Solution",
    "as_exact_problem",
    "assemble",
    "basis_row",
    "bernstein_to_monomial",
    "builtin",
    "convergence_study",
    "default_quadrature_order",
    "error_table",
    "evaluate",
    "evaluate_solution",
    "exact_assemble",
    "gauss_legendre",
    "load_problem",
    "parse",
    "parse_problem",
    "solve",
    "solve_rational_system",
    "to_polynomial",
    "variables",
]
