"""Weighted-residual pipeline for a(x)·phi(x) + lam·∫ k(t,x)·phi(t) dt = f(x).

The trial solution is a degree-n polynomial, reported as its Bernstein
coefficients.  Projecting the residual onto every polynomial of degree <= n
gives an (n+1)-square linear system.  The float path assembles it by
Gauss-Legendre quadrature in the orthonormal shifted-Legendre basis, whose
system is as well conditioned as the operator itself, solves it with
numpy.linalg and maps the result to Bernstein coefficients; the exact path
assembles and solves the same system in rationals, in the unnormalised
members P_k(2u-1) where it is sparse, and maps the result back exactly.
Both report the 1-norm condition of the orthonormal system.  The module
also evaluates a solution and its error against a known solution.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache, partial
from typing import NamedTuple

import numpy as np

from .basis import (
    MAX_DEGREE,
    BasisSpec,
    _float_width,
    basis_row,
    legendre_row,
    legendre_to_bernstein,
    legendre_to_bernstein_exact,
)
from .errors import (
    DomainError,
    ExactPathUnavailable,
    IllConditionedWarning,
    InvalidInterval,
    InvalidProblem,
    OrderOutOfRange,
    OutOfInterval,
    SingularSystem,
    number_text,
)
from .exact import MAX_EXACT_WORK, ExactProblem, exact_assemble, exact_work, solve_rational_system
from .expr import Node, evaluate, to_polynomial, variables
from .quadrature import gauss_legendre

CONDITION_WARN_THRESHOLD = 1e12
# beyond this 1-norm condition the system counts as singular
SINGULAR_CONDITION = 1e13


def default_quadrature_order(n: int) -> int:
    """Exact for every polynomial integrand a degree-n solve produces, with
    enough margin to push smooth exponential kernels to machine precision."""
    return max(32, 2 * n + 4)


@dataclass(frozen=True)
class FredholmProblem:
    """One equation instance; expressions are parsed ASTs.

    ``a_expr`` and ``f_expr`` may depend on x only; ``kernel_expr`` may use
    t and x.  ``exact_expr`` is an optional known solution used for error
    reporting.  ``lam``, ``a`` and ``b`` may be floats or exact Fractions
    (problem files give Fractions): the exact path takes them as they are,
    the float path converts them with ``float()``.
    """

    a_expr: Node
    lam: float | Fraction
    kernel_expr: Node
    f_expr: Node
    a: float | Fraction
    b: float | Fraction
    exact_expr: Node | None = None

    def __post_init__(self):
        for label, value in (("lam", self.lam), ("a", self.a), ("b", self.b)):
            try:
                finite = math.isfinite(value)
            except OverflowError:  # a Fraction too large for a float
                finite = False
            if not finite:
                raise InvalidProblem(f"{label} must be finite, got {number_text(value)}")
        if not self.b > self.a:
            raise InvalidInterval(f"need b > a, got [{number_text(self.a)}, {number_text(self.b)}]")
        for label, node in (
            ("coefficient", self.a_expr),
            ("rhs", self.f_expr),
            ("exact", self.exact_expr),
        ):
            if node is not None and "t" in variables(node):
                raise InvalidProblem(f"{label} expression must not reference t")


@dataclass(frozen=True)
class Solution:
    """Expansion coefficients plus provenance of how they were obtained."""

    spec: BasisSpec
    coefficients: tuple
    mode: str  # "float" | "exact"
    quadrature_order: int | None
    condition: float


class ErrorRow(NamedTuple):
    x: float
    exact: float
    approx: float
    error: float
    kind: str  # "relative" | "absolute-at-zero"


class ConvergenceRow(NamedTuple):
    n: int
    max_error: float
    condition: float


def _eval_grid(node: Node, label: str, x, t=None) -> np.ndarray:
    """Evaluate an expression on a point grid, tagging DomainErrors with
    which problem piece produced them."""
    try:
        return evaluate(node, x, t)
    except DomainError as exc:
        raise DomainError(f"{label} expression: {exc}") from exc


@lru_cache(maxsize=None)
def _legendre_table(q: int) -> tuple[np.ndarray, np.ndarray]:
    """The orthonormal members of degree up to MAX_DEGREE at the nodes of
    the q-point rule on [-1, 1], and the same table with row m scaled by
    the node's weight w_m: two (q, MAX_DEGREE + 1) arrays.  They depend on
    the rule alone, since the affine map onto [a, b] leaves the members'
    values at the mapped nodes as they are; a degree-n solve reads the
    first n + 1 columns.

    Built on first use and cached per rule, read-only: at most MAX_ORDER
    entries of 816·q bytes (104 KB at q = 128, 6.7 MB for all 128 rules).
    """
    rule = gauss_legendre(q)
    table = legendre_row(BasisSpec(MAX_DEGREE, -1.0, 1.0), rule.nodes)
    weighted = rule.weights[:, None] * table
    table.flags.writeable = weighted.flags.writeable = False
    return table, weighted


def float_interval(problem: FredholmProblem) -> tuple[float, float]:
    """The endpoints as floats.  Raises InvalidInterval when exact endpoints
    closer than the float spacing round to one point."""
    a, b = float(problem.a), float(problem.b)
    if not b > a:
        raise InvalidInterval(
            f"interval [{number_text(problem.a)}, {number_text(problem.b)}] is empty "
            f"in floating point: both endpoints round to {a}"
        )
    return a, b


def assemble(
    problem: FredholmProblem, n: int, q: int | None = None, *, samples: dict | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Build A and F of A @ coefficients = F in the orthonormal basis
    ``legendre_row`` by Gauss-Legendre quadrature of order q: A[j, i] pairs
    test member j with trial member i.  With T = legendre_to_bernstein(n),
    A and F are T.T @ A_B @ T and T.T @ F_B for the Bernstein system (A_B, F_B),
    and T @ coefficients are the Bernstein coefficients.

    The basis values at the nodes are the first n + 1 columns of the
    rule's Legendre table, built once per rule and kept for the process
    (``_legendre_table``: 816·q bytes per rule, at most 128 rules), so
    the kernel integral is one product ``kernel @ (w·L)``.  The kernel
    contribution needs the inner t-integral at every outer node, so the
    kernel is sampled on the full q-by-q tensor grid.  a(x), f(x) and the
    kernel are sampled only when ``samples`` holds nothing under q, and
    stored there, so that a ``convergence_study`` sweep samples them once
    per distinct q.
    """
    if q is None:
        q = default_quadrature_order(n)
    samples = {} if samples is None else samples
    # Fraction * ndarray would give an object array: go to floats first
    a, b = float_interval(problem)
    lam = float(problem.lam)
    BasisSpec(n, a, b)  # refuses a degree past the basis cap
    rule = gauss_legendre(q)
    half = 0.5 * (b - a)
    if q not in samples:
        pts = half * rule.nodes + 0.5 * (a + b)
        samples[q] = (
            _eval_grid(problem.a_expr, "coefficient", pts),
            _eval_grid(problem.f_expr, "rhs", pts),
            _eval_grid(problem.kernel_expr, "kernel", pts[:, None], pts[None, :]),  # [x, t]
        )
    a_vals, f_vals, kernel = samples[q]
    table, weighted = _legendre_table(q)
    basis, weighted = table[:, : n + 1], weighted[:, : n + 1]  # L_i(x_m), w_m·L_i(x_m) on [-1, 1]

    # data beyond the float range make nonfinite entries, refused below
    with np.errstate(all="ignore"):
        inner = half * (kernel @ weighted)  # inner[m, i] = ∫ k(t, x_m)·L_i(t) dt
        operator = a_vals[:, None] * basis + lam * inner
        matrix = (half * weighted).T @ operator  # Σ_m w_m·L_j(x_m)·operator[m, i]
        f_vec = (half * f_vals) @ weighted
    if not (np.isfinite(matrix).all() and np.isfinite(f_vec).all()):
        raise DomainError("assembled system contains nonfinite entries")
    return matrix, f_vec


def as_exact_problem(problem: FredholmProblem) -> ExactProblem | None:
    """Rational-polynomial view of the problem, or None when any expression
    falls outside the polynomial fragment."""
    # the kernel first: it is the piece most often not a polynomial, and
    # expanding a(x) and f(x) is wasted work once any piece fails
    pieces = []
    for node in (problem.kernel_expr, problem.a_expr, problem.f_expr):
        poly = to_polynomial(node)
        if poly is None:
            return None
        pieces.append(poly)
    kernel_poly, a_poly, f_poly = pieces
    return ExactProblem(
        a_poly,
        Fraction(problem.lam),
        kernel_poly,
        f_poly,
        Fraction(problem.a),
        Fraction(problem.b),
    )


def _invert(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """The inverse of a finite orthonormal-basis system matrix and its
    1-norm condition ||A||_1·||A^-1||_1.

    Raises SingularSystem when the matrix is singular to working precision:
    not invertible, or conditioned beyond SINGULAR_CONDITION.
    """
    try:
        inverse = np.linalg.inv(matrix)
        cond = float(np.linalg.norm(matrix, 1)) * float(np.linalg.norm(inverse, 1))
    except np.linalg.LinAlgError:
        cond = math.inf
    if not cond <= SINGULAR_CONDITION:
        raise SingularSystem(
            f"projection system is singular (condition {cond:.3e} beyond "
            f"{SINGULAR_CONDITION:.0e}); the operator likely annihilates part "
            "of the trial space"
        )
    return inverse, cond


def _float_view(rows: list[dict[int, int]], dens: list[int]) -> np.ndarray:
    """The float matrix of the integer rows ``exact_assemble`` gives, over
    one power-of-two scale: entry v of a row over den is one int/int
    division v/(den·2^s), which rounds as float() of its Fraction does,
    with s = max(bitlen(v) - bitlen(den)) over the matrix.  No entry
    overflows, and the exact scale leaves the condition of an in-range
    matrix as it is."""
    m = len(rows)
    view = np.zeros((m, m))
    entries = [(j, i, v, d) for j, (row, d) in enumerate(zip(rows, dens)) for i, v in row.items()]
    s = max((v.bit_length() - d.bit_length() for _, i, v, d in entries if i < m), default=0)
    for j, i, v, d in entries:
        if i < m:
            view[j, i] = (v << max(-s, 0)) / (d << max(s, 0))
    return view


def solve(
    problem: FredholmProblem,
    n: int,
    mode: str = "auto",
    q: int | None = None,
) -> Solution:
    """Solve for the degree-n expansion coefficients.

    mode "exact" demands rational-polynomial data whose ``exact_work`` is
    within MAX_EXACT_WORK and returns Fractions; "float" always goes through
    quadrature and numpy.linalg; "auto" prefers exact when the data and the
    work bound allow it.
    The float path needs a quadrature order q above n: with q <= n nodes the
    system has rank at most q and is always singular.  A q outside 1..128
    is refused on either path.
    """
    return _solve(
        problem, n, mode, q, partial(as_exact_problem, problem), partial(assemble, problem)
    )


def _solve(
    problem: FredholmProblem,
    n: int,
    mode: str,
    q: int | None,
    exact_view: Callable[[], ExactProblem | None],
    system: Callable[[int, int], tuple[np.ndarray, np.ndarray]],
) -> Solution:
    """``solve``, with the problem-only work handed in: ``exact_view()``
    gives the exact view and ``system(n, q)`` the float system A, F, so
    that a sweep can pass versions that keep their work across degrees.
    Called by ``solve`` or ``convergence_study`` only: the condition
    warning names the caller of that function.
    """
    if mode not in ("auto", "float", "exact"):
        raise ValueError(f"mode must be auto, float or exact, not {mode!r}")

    view = None
    if mode != "float":
        view = exact_view()
        if view is None:
            reason = "exact mode requires polynomial data with rational coefficients"
        else:
            spec = BasisSpec(n, problem.a, problem.b)  # refuses a degree past the cap first
            if (work := exact_work(view, n)) > MAX_EXACT_WORK:
                view = None
                reason = f"exact solve past the work bound ({work} > {MAX_EXACT_WORK})"
        if mode == "exact" and view is None:
            raise ExactPathUnavailable(reason)

    if view is not None:
        if q is not None:
            gauss_legendre(q)  # no rule is used, but an order outside 1..128 is refused
        rows, dens, f_den = exact_assemble(view, n)
        nums, den = solve_rational_system(rows)
        coeffs = tuple(legendre_to_bernstein_exact(nums, den * f_den))
        # the orthonormal members are sqrt(2k+1)·P_k(2u-1)
        scale = np.sqrt(2.0 * np.arange(n + 1) + 1.0)
        try:
            _, cond = _invert(_float_view(rows, dens) * np.outer(scale, scale))
        except SingularSystem:  # the float view is singular to working precision
            cond = math.inf
        path, q = "exact", None
    else:
        if q is None:
            q = default_quadrature_order(n)
        if q <= n:
            raise OrderOutOfRange(
                f"quadrature order {q} must exceed the degree {n}: with q <= n "
                "nodes the projection system is singular"
            )
        A, F = system(n, q)
        inverse, cond = _invert(A)
        coeffs = tuple((legendre_to_bernstein(n) @ (inverse @ F)).tolist())
        spec, path = BasisSpec(n, float(problem.a), float(problem.b)), "float"

    if cond > CONDITION_WARN_THRESHOLD:
        warnings.warn(
            f"system condition number {cond:.3e} exceeds "
            f"{CONDITION_WARN_THRESHOLD:.0e}; coefficients may be unreliable",
            IllConditionedWarning,
            stacklevel=3,
        )
    return Solution(spec, coeffs, path, q, cond)


def evaluate_solution(solution: Solution, x):
    """Value of the expansion at x in [a, b]: a float for a number, an array
    for an array of points.  Extrapolation is refused.

    x is compared with the endpoints as floats, like the float grids, so a
    Fraction endpoint that rounds outward does not put its own float view
    outside the interval.
    """
    spec = solution.spec
    xs = np.asarray(x, dtype=float)
    outside = (xs < float(spec.a)) | (xs > float(spec.b))
    if outside.any():
        x = float(xs.flat[np.argmax(outside)])
        raise OutOfInterval(f"x={x} outside [{number_text(spec.a)}, {number_text(spec.b)}]")
    try:
        coeffs = np.array([float(c) for c in solution.coefficients])
    except OverflowError:  # an exact coefficient beyond the float range
        raise DomainError("a coefficient of the solution is beyond the float range") from None
    values = basis_row(spec, xs) @ coeffs
    return float(values) if values.ndim == 0 else values


# Below this, a reference value counts as zero and the error switches from
# relative to absolute to avoid dividing by (numerical) zero.
ZERO_REFERENCE_TOL = 1e-14


def error_table(solution: Solution, exact: Node, grid) -> list[ErrorRow]:
    """Pointwise comparison rows (x, exact, approx, error, kind).

    The error is |(exact - approx)/exact| except where the exact value
    vanishes, where the absolute difference is reported and flagged.
    """
    xs = np.array(grid, dtype=float)
    approx = evaluate_solution(solution, xs)
    reference = evaluate(exact, xs)
    error, at_zero = _errors(reference, approx)
    kinds = ["absolute-at-zero" if z else "relative" for z in at_zero.tolist()]
    return list(
        map(ErrorRow, xs.tolist(), reference.tolist(), approx.tolist(), error.tolist(), kinds)
    )


def _errors(reference: np.ndarray, approx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The errors of ``error_table`` and where the reference counts as zero."""
    at_zero = np.abs(reference) < ZERO_REFERENCE_TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        relative = np.abs((reference - approx) / reference)
    return np.where(at_zero, np.abs(reference - approx), relative), at_zero


def convergence_study(
    problem: FredholmProblem,
    n_values,
    q: int | None = None,
    mode: str = "auto",
) -> list[ConvergenceRow]:
    """Max error over a 101-point grid for each requested degree.

    Each row is what ``solve`` at that degree and the largest error of
    ``error_table`` on the grid give, but the degrees share the work that
    depends on the problem alone: the exact view is expanded once, a(x),
    f(x) and the kernel are sampled once per quadrature order, and the
    known solution is evaluated on the grid once.  All of it is held by
    this call and dropped when it returns.
    """
    if problem.exact_expr is None:
        raise InvalidProblem("convergence study requires an exact solution")
    _float_width(problem.a, problem.b)  # a wider interval has no float grid
    grid = np.linspace(float(problem.a), float(problem.b), 101)
    exact_view = cache(partial(as_exact_problem, problem))
    system = partial(assemble, problem, samples={})
    # evaluated after the first solve and its approximation, as error_table does
    reference = cache(partial(evaluate, problem.exact_expr, grid))
    out = []
    for n in n_values:
        solution = _solve(problem, n, mode, q, exact_view, system)
        approx = evaluate_solution(solution, grid)
        error, _ = _errors(reference(), approx)
        # Python's max over the floats in grid order, as over the table's rows
        out.append(ConvergenceRow(n, max(error.tolist()), solution.condition))
    return out
