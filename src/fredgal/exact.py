"""Exact rational path: bivariate polynomials over Fraction and the rational
Galerkin assembly/solve used when every piece of problem data is polynomial.

Scalars are ``fractions.Fraction`` (arbitrary precision, always reduced,
positive denominator), so results like 19/9 come out as true fractions
instead of rounded floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InvalidDegree,
    InvalidInterval,
    InvalidProblem,
    SingularSystem,
)

MAX_TOTAL_DEGREE = 100
MAX_EXACT_DEGREE = 20  # basis degree cap for exact assembly


class BivarPoly:
    """Polynomial in x and t with Fraction coefficients.

    Terms are stored sparsely as {(deg_x, deg_t): coefficient}; zero
    coefficients are never kept, so equality is structural.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], Fraction] | None = None):
        clean: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in (terms or {}).items():
            c = Fraction(c)
            if c == 0:
                continue
            if i < 0 or j < 0:
                raise ValueError("negative exponent in polynomial term")
            if i + j > MAX_TOTAL_DEGREE:
                raise InvalidDegree(
                    f"total degree {i + j} exceeds the cap of {MAX_TOTAL_DEGREE}"
                )
            clean[(int(i), int(j))] = c
        self.terms = clean

    @classmethod
    def const(cls, value) -> "BivarPoly":
        return cls({(0, 0): Fraction(value)})

    @classmethod
    def variable(cls, name: str) -> "BivarPoly":
        if name == "x":
            return cls({(1, 0): Fraction(1)})
        if name == "t":
            return cls({(0, 1): Fraction(1)})
        raise ValueError(f"unknown variable {name!r}")

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "BivarPoly") -> "BivarPoly":
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + c
        return BivarPoly(out)

    def __sub__(self, other: "BivarPoly") -> "BivarPoly":
        return self + (-other)

    def __neg__(self) -> "BivarPoly":
        return BivarPoly({k: -c for k, c in self.terms.items()})

    def __mul__(self, other: "BivarPoly") -> "BivarPoly":
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return BivarPoly(out)

    def __pow__(self, k: int) -> "BivarPoly":
        if k < 0:
            raise ValueError("negative polynomial power")
        result = BivarPoly.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base_needed = k >> 1
            if base_needed:
                base = base * base
            k = base_needed
        return result

    def scale(self, factor) -> "BivarPoly":
        factor = Fraction(factor)
        return BivarPoly({k: c * factor for k, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, BivarPoly) and self.terms == other.terms

    def __repr__(self) -> str:
        items = ", ".join(f"{k}: {c}" for k, c in sorted(self.terms.items()))
        return f"BivarPoly({{{items}}})"

    # -- queries ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree_x(self) -> int:
        return max((i for i, _ in self.terms), default=0)

    @property
    def degree_t(self) -> int:
        return max((j for _, j in self.terms), default=0)

    def constant_value(self) -> Fraction | None:
        """The value of a constant polynomial, or None if it has variables."""
        if not self.terms:
            return Fraction(0)
        if set(self.terms) == {(0, 0)}:
            return self.terms[(0, 0)]
        return None

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


def _moments(coeffs: list, a: Fraction, h: Fraction, m: int) -> list[Fraction]:
    """[∫ p(x)·B_k^m(x) dx over [a, a+h] for k = 0..m], p = Σ coeffs[s]·x^s.

    With x = a + h·u, p(x) = Σ q_r·u^r, and each power integrates in closed
    form: ∫₀¹ u^r·B_k^m(u) du = C(m,k)·(k+r)!·(m-k)!/(m+r+1)!.
    """
    fact = math.factorial
    shifted = [
        h**r * sum(c * math.comb(s, r) * a ** (s - r) for s, c in enumerate(coeffs[r:], r))
        for r in range(len(coeffs))
    ]
    return [
        h * math.comb(m, k) * fact(m - k)
        * sum(q * Fraction(fact(k + r), fact(m + r + 1)) for r, q in enumerate(shifted))
        for k in range(m + 1)
    ]


def exact_assemble(
    problem: ExactProblem, n: int
) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Rational system A·coefficients = F: A[j][i] pairs test member j with
    trial member i, F[j] is the projected right-hand side."""
    if n < 0:
        raise InvalidDegree("degree must be nonnegative")
    if n > MAX_EXACT_DEGREE:
        raise InvalidDegree(f"exact assembly supports degrees 0..{MAX_EXACT_DEGREE}")
    a, h = problem.a, problem.b - problem.a
    size = range(n + 1)
    comb = math.comb
    # B_i·B_j = C(n,i)·C(n,j)/C(2n,i+j)·B_{i+j}^{2n}
    weighted = _moments(problem.a_poly.coefficients_in_x(), a, h, 2 * n)
    A = [
        [Fraction(comb(n, i) * comb(n, j), comb(2 * n, i + j)) * weighted[i + j] for i in size]
        for j in size
    ]
    # kernel term c·x^p·t^q: its t-integral against trial member i is c·M[q][i]
    # and its x-integral against test member j is M[p][j], M[d] = moments of x^d
    power = {
        d: _moments([0] * d + [1], a, h, n) for key in problem.kernel_poly.terms for d in key
    }
    trial = {}  # p -> lam·Σ_q c·M[q], summed first so A is swept once per p
    for (p, q), c in problem.kernel_poly.terms.items():
        previous = trial.get(p, [0] * (n + 1))
        trial[p] = [r + problem.lam * c * v for r, v in zip(previous, power[q])]
    for p, row in trial.items():
        A = [[A[j][i] + row[i] * power[p][j] for i in size] for j in size]
    return A, _moments(problem.f_poly.coefficients_in_x(), a, h, n)


def solve_rational_system(
    A: list[list[Fraction]], F: list[Fraction]
) -> list[Fraction]:
    """Solve A·coefficients = F by fraction-exact Gaussian elimination with
    first-nonzero pivoting."""
    m = len(F)
    aug = [[*row, f] for row, f in zip(A, F)]
    for col in range(m):
        pivot_row = next(
            (r for r in range(col, m) if aug[r][col] != 0),
            None,
        )
        if pivot_row is None:
            raise SingularSystem(f"no nonzero pivot in column {col}")
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        for r in range(col + 1, m):
            factor = aug[r][col] / pivot
            if factor == 0:
                continue
            aug[r] = [rv - factor * pv for rv, pv in zip(aug[r], aug[col])]
    coeffs = [Fraction(0)] * m
    for col in reversed(range(m)):
        acc = aug[col][m]
        for k in range(col + 1, m):
            acc -= aug[col][k] * coeffs[k]
        coeffs[col] = acc / aug[col][col]
    return coeffs

