"""Bernstein polynomial basis of degree n over an arbitrary interval [a, b].

The n+1 members are nonnegative on the interval, sum to one, and
interpolate at the endpoints, which makes the first/last expansion
coefficients equal to the represented function's endpoint values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidDegree, InvalidInterval

# Gram matrices of this basis become numerically unusable well before
# degree 50; refuse anything beyond rather than return garbage.
MAX_DEGREE = 50


@dataclass(frozen=True)
class BasisSpec:
    """Degree and interval of one basis family (n+1 member polynomials)."""

    n: int
    a: float
    b: float

    def __post_init__(self):
        if self.n < 0:
            raise InvalidDegree("degree must be nonnegative")
        if self.n > MAX_DEGREE:
            raise InvalidDegree(f"degree {self.n} exceeds the cap of {MAX_DEGREE}")
        try:
            finite = math.isfinite(self.a) and math.isfinite(self.b)
        except OverflowError:  # a Fraction too large for a float
            finite = False
        if not finite:
            raise InvalidInterval(f"endpoints must be finite, got [{self.a}, {self.b}]")
        if not self.b > self.a:
            raise InvalidInterval(f"need b > a, got [{self.a}, {self.b}]")


def basis_row(spec: BasisSpec, x) -> np.ndarray:
    """All n+1 member values at x: a row for a number, a (len(x), n+1)
    table for an array of points.

    Uses the de Casteljau-style pyramid on u = (x-a)/(b-a): no binomial
    coefficients, no cancellation, and exact rows at the endpoints.
    """
    # b - a before float(): Fraction endpoints give their width rounded once
    u = (np.asarray(x, dtype=float) - float(spec.a)) / float(spec.b - spec.a)
    v = 1.0 - u
    row = np.zeros(u.shape + (spec.n + 1,))
    row[..., 0] = 1.0
    u, v = u[..., None], v[..., None]
    for level in range(1, spec.n + 1):
        # numpy materializes the right side before assigning, so the slice
        # still sees the previous level's values
        row[..., 1 : level + 1] = u * row[..., 0:level] + v * row[..., 1 : level + 1]
        row[..., :1] *= v
    return row


def bernstein_to_monomial(coeffs, spec: BasisSpec) -> list:
    """Monomial coefficients c_0..c_n with sum(coeffs[i]·B_i) = sum(c_k·x^k).

    Fraction (or int) inputs come back as exact Fractions; float inputs come
    back as floats.  The expansion itself runs in rational arithmetic either
    way, so no accuracy is lost to intermediate rounding.
    """
    if len(coeffs) != spec.n + 1:
        raise ValueError(f"expected {spec.n + 1} coefficients, got {len(coeffs)}")
    exact = all(isinstance(c, (int, Fraction)) for c in coeffs)
    n, a = spec.n, Fraction(spec.a)
    h = Fraction(spec.b) - a
    c = [Fraction(v) for v in coeffs]
    # power form in u = (x-a)/h: d_k = C(n,k)·Σ_{i<=k} (-1)^(k-i)·C(k,i)·c_i
    # = C(n,k)·(k-th forward difference of c at 0), kept divided by h^k
    d = []
    for k in range(n + 1):
        d.append(math.comb(n, k) * c[0] / h**k)
        c = [right - left for left, right in zip(c, c[1:])]
    # (x-a)^k = Σ_m C(k,m)·(-a)^(k-m)·x^m
    shift = [(-a) ** e for e in range(n + 1)]
    out = [
        sum(d[k] * math.comb(k, m) * shift[k - m] for k in range(m, n + 1))
        for m in range(n + 1)
    ]
    return out if exact else [float(v) for v in out]
