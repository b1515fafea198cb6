"""Exact rational path: bivariate polynomials over Fraction and the rational
Galerkin assembly/solve used when every piece of problem data is polynomial.
The system is written in the shifted Legendre polynomials P_k(2u-1), where
it is sparse.

Scalars are ``fractions.Fraction`` (arbitrary precision, always reduced,
positive denominator), so results like 19/9 come out as true fractions
instead of rounded floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .basis import BasisSpec, _numerators
from .errors import (
    InvalidDegree,
    InvalidInterval,
    InvalidProblem,
    SingularSystem,
)

MAX_TOTAL_DEGREE = 100
_ZERO = Fraction(0)


class BivarPoly:
    """Polynomial in x and t with Fraction coefficients, held as data for
    ``ExactProblem`` and ``exact_assemble``; it has no arithmetic, and
    ``fredgal.expr.to_polynomial`` builds one from an expression.

    Terms are stored sparsely as {(deg_x, deg_t): coefficient}; zero
    coefficients are never kept, so equality is structural.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], Fraction] | None = None):
        clean: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in (terms or {}).items():
            if type(c) is not Fraction:
                c = Fraction(c)
            if not c:
                continue
            if i < 0 or j < 0:
                raise ValueError("negative exponent in polynomial term")
            if i + j > MAX_TOTAL_DEGREE:
                raise InvalidDegree(
                    f"total degree {i + j} exceeds the cap of {MAX_TOTAL_DEGREE}"
                )
            clean[(int(i), int(j))] = c
        self.terms = clean

    def __eq__(self, other) -> bool:
        return isinstance(other, BivarPoly) and self.terms == other.terms

    def __repr__(self) -> str:
        items = ", ".join(f"{k}: {c}" for k, c in sorted(self.terms.items()))
        return f"BivarPoly({{{items}}})"

    @property
    def degree_x(self) -> int:
        return max((i for i, _ in self.terms), default=0)

    @property
    def degree_t(self) -> int:
        return max((j for _, j in self.terms), default=0)

    def coefficients_in_x(self) -> list[Fraction]:
        """Ascending univariate coefficients; requires no t dependence."""
        if self.degree_t != 0:
            raise ValueError("polynomial still depends on t")
        out = [Fraction(0)] * (self.degree_x + 1)
        for (i, _), c in self.terms.items():
            out[i] = c
        return out


@dataclass(frozen=True)
class ExactProblem:
    """a(x)·phi(x) + lam·∫ k(t,x)·phi(t) dt = f(x) with all-polynomial data."""

    a_poly: BivarPoly
    lam: Fraction
    kernel_poly: BivarPoly
    f_poly: BivarPoly
    a: Fraction
    b: Fraction

    def __post_init__(self):
        if self.a_poly.degree_t or self.f_poly.degree_t:
            raise InvalidProblem("coefficient and right-hand side must not use t")
        if not self.b > self.a:
            raise InvalidInterval(f"need b > a, got [{self.a}, {self.b}]")


def _shift(nums: list[int], a: Fraction, h: Fraction) -> list[int]:
    """Ascending integer coefficients in u of g^d·p(a + h·u), where
    p = Σ nums[s]·x^s has degree d and g = denominator(a)·denominator(h).

    x = (lo + hi·u)/g with lo = an·hd and hi = hn·ad, so g^d·p is
    Σ nums[s]·g^(d-s)·(lo + hi·u)^s, expanded by Horner steps.
    """
    g = a.denominator * h.denominator
    lo, hi = a.numerator * h.denominator, h.numerator * a.denominator
    out = [nums[-1]]
    power = 1
    for c in reversed(nums[:-1]):
        power *= g
        step = [lo * v for v in out] + [0]
        for r, v in enumerate(out):
            step[r + 1] += hi * v
        step[0] += c * power
        out = step
    return out


@lru_cache(maxsize=None)
def _moment_weights(d: int) -> tuple[tuple[int, ...], ...]:
    """W[j][r] = (d+j+1)!·∫₀¹ u^r·P_j(2u-1) du for j, r = 0..d, integers.

    The integral is r!²/((r-j)!·(r+j+1)!) for j <= r and zero for j > r.
    """
    f = math.factorial
    return tuple(
        tuple(
            f(r) ** 2 * f(d + j + 1) // (f(r - j) * f(r + j + 1)) if j <= r else 0
            for r in range(d + 1)
        )
        for j in range(d + 1)
    )


def _moments(nums: list[int], n: int) -> list[tuple[int, int]]:
    """(numerator, denominator) of ∫₀¹ q(u)·P_j(2u-1) du for j up to
    min(d, n), q = Σ nums[r]·u^r of degree d; the integral vanishes for j > d."""
    d = len(nums) - 1
    weights = _moment_weights(d)
    return [
        (sum(w * c for w, c in zip(weights[j], nums)), math.factorial(d + j + 1))
        for j in range(min(d, n) + 1)
    ]


def exact_assemble(
    problem: ExactProblem, n: int
) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Rational system A·c = F in the basis P_k(2u-1), k = 0..n, with
    u = (x-a)/(b-a): A[j][i] pairs test member j with trial member i, F[j]
    is the projected right-hand side, and Σ c_k·P_k(2u-1) is the Galerkin
    solution.

    The a(x) block is banded (bandwidth deg a) and the kernel block is
    nonzero only in its leading (deg_x k + 1)-by-(deg_t k + 1) corner, so
    most entries are zero.  Each entry is summed on Python integers and
    reduced to a Fraction once.
    """
    BasisSpec(n, problem.a, problem.b)  # degree and interval within the basis limits
    a, h = problem.a, problem.b - problem.a
    g = a.denominator * h.denominator  # _shift scales degree d by g^d
    A = [[_ZERO] * (n + 1) for _ in range(n + 1)]

    # a(x)·P_i by Horner over a's coefficients in u, with
    # u·P_k = P_k/2 + (k+1)/(2(2k+1))·P_{k+1} + k/(2(2k+1))·P_{k-1}, kept
    # as integers over den·scale; then ∫ P_j·P_k dx = h/(2k+1)·δ_jk
    nums, common = _numerators(problem.a_poly.coefficients_in_x())
    alpha = _shift(nums, a, h)
    den = common * g ** (len(alpha) - 1) * h.denominator
    for i in range(n + 1):
        column, scale = {i: alpha[-1]}, 1
        for coeff in reversed(alpha[:-1]):
            lcm = 2 * math.lcm(*[2 * k + 1 for k in column])
            times_u = dict.fromkeys(range(max(min(column) - 1, 0), max(column) + 2), 0)
            for k, c in column.items():
                times_u[k] += c * (lcm // 2)
                c = c * lcm // (4 * k + 2)
                times_u[k + 1] += c * (k + 1)
                if k:
                    times_u[k - 1] += c * k
            scale *= lcm
            times_u[i] += coeff * scale
            column = times_u
        for j, c in column.items():
            if c and j <= n:
                A[j][i] = Fraction(c * h.numerator, den * scale * (2 * j + 1))

    # kernel term c·u^r·v^s after the shift of x and t: its t-integral
    # against trial member i is h·c·M[s][i] and its x-integral against test
    # member j is h·M[r][j], M[r][j] = ∫₀¹ u^r·P_j(2u-1) du
    kernel = problem.kernel_poly
    dx, dt = kernel.degree_x, kernel.degree_t
    nums, common = _numerators(
        [kernel.terms.get((p, q), _ZERO) for p in range(dx + 1) for q in range(dt + 1)]
    )
    grid = [_shift(nums[p * (dt + 1) : (p + 1) * (dt + 1)], a, h) for p in range(dx + 1)]
    grid = [_shift(list(col), a, h) for col in zip(*grid)]  # grid[s][r]
    lam = problem.lam * h * h
    den = common * g ** (dx + dt) * lam.denominator
    # integrate over v first (trial member i), then over u (test member j)
    by_r = [_moments(list(row), n) for row in zip(*grid)]  # by_r[r][i]
    for i in range(min(dt, n) + 1):
        trial_den = by_r[0][i][1]
        for j, (num, test_den) in enumerate(_moments([row[i][0] for row in by_r], n)):
            if num:
                A[j][i] += Fraction(num * lam.numerator, den * trial_den * test_den)

    nums, common = _numerators(problem.f_poly.coefficients_in_x())
    den = common * g ** (len(nums) - 1) * h.denominator
    F = [_ZERO] * (n + 1)
    for j, (num, moment_den) in enumerate(_moments(_shift(nums, a, h), n)):
        F[j] = Fraction(num * h.numerator, den * moment_den)
    return A, F


def solve_rational_system(
    A: list[list[Fraction]], F: list[Fraction]
) -> list[Fraction]:
    """Solve A·coefficients = F by fraction-exact Gaussian elimination with
    first-nonzero pivoting.

    Rows are kept as {column: value} of their nonzero entries (column m
    holds the right-hand side), so a sparse system costs only the entries
    its elimination touches.
    """
    m = len(F)
    rows = [{c: v for c, v in enumerate([*row, f]) if v} for row, f in zip(A, F)]
    for col in range(m):
        pivot_row = next((r for r in range(col, m) if col in rows[r]), None)
        if pivot_row is None:
            raise SingularSystem(f"no nonzero pivot in column {col}")
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        pivot = rows[col]
        pivot_value = pivot[col]
        rest = [(c, v) for c, v in pivot.items() if c != col]
        for row in rows[col + 1 :]:
            lead = row.pop(col, None)
            if lead is None:
                continue
            factor = lead / pivot_value
            for c, v in rest:
                value = row.get(c, _ZERO) - factor * v
                if value:
                    row[c] = value
                else:
                    del row[c]
    coeffs = [_ZERO] * m
    for col in reversed(range(m)):
        row = rows[col]
        acc = row.get(m, _ZERO)
        for k, v in row.items():
            if col < k < m and coeffs[k]:
                acc -= v * coeffs[k]
        coeffs[col] = acc / row[col]
    return coeffs
