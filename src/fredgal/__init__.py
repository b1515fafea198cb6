"""Galerkin solver for linear Fredholm integral equations of the second kind
on a Bernstein polynomial basis, with an exact rational path for polynomial
problem data and a CSV-oriented CLI.

The package exports what a caller of ``solve`` needs; the stages behind it
are module-level helpers with no stability promise.
"""

from .basis import BasisSpec, basis_row, bernstein_to_monomial
from .errors import FredgalError
from .expr import evaluate, parse
from .galerkin import (
    ConvergenceRow,
    ErrorRow,
    FredholmProblem,
    Solution,
    convergence_study,
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

__version__ = "0.1.0"

__all__ = [
    "BasisSpec",
    "BUILTIN_NAMES",
    "ConvergenceRow",
    "ErrorRow",
    "FredgalError",
    "FredholmProblem",
    "Solution",
    "basis_row",
    "bernstein_to_monomial",
    "builtin",
    "convergence_study",
    "error_table",
    "evaluate",
    "evaluate_solution",
    "load_problem",
    "parse",
    "parse_problem",
    "solve",
]
