"""Bernstein polynomial basis of degree n over an arbitrary interval [a, b].

The n+1 members are nonnegative on the interval, sum to one, and
interpolate at the endpoints, which makes the first/last expansion
coefficients equal to the represented function's endpoint values.

The float solve writes its system in the orthonormal shifted-Legendre basis
of the same space (``legendre_row``) and maps the result back through
``legendre_to_bernstein``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

import numpy as np

from .errors import InvalidDegree, InvalidInterval, number_text

# Bernstein coefficients amplify errors in the solved system by up to
# ||legendre_to_bernstein(n)||_inf, about 1.3e15 at degree 50: refuse
# anything beyond rather than return garbage.
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
            raise InvalidInterval(
                f"endpoints must be finite, got [{number_text(self.a)}, {number_text(self.b)}]"
            )
        if not self.b > self.a:
            raise InvalidInterval(f"need b > a, got [{number_text(self.a)}, {number_text(self.b)}]")


def basis_row(spec: BasisSpec, x) -> np.ndarray:
    """All n+1 member values at x: a row for a number, a (len(x), n+1)
    table for an array of points.

    Uses the de Casteljau-style pyramid on u = (x-a)/(b-a): no binomial
    coefficients, no cancellation, and exact rows at the endpoints.
    """
    u = _unit(spec, x)
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


def legendre_row(spec: BasisSpec, x) -> np.ndarray:
    """The orthonormal members sqrt(2k+1)·P_k(2u-1), k = 0..n, at x, laid
    out like ``basis_row``.

    Built by the three-term Legendre recurrence on the same u = (x-a)/(b-a);
    the members are orthonormal over u in [0, 1].
    """
    s = 2.0 * _unit(spec, x) - 1.0
    row = np.empty(s.shape + (spec.n + 1,))
    row[..., 0] = 1.0
    if spec.n:
        row[..., 1] = s
    for k in range(1, spec.n):
        row[..., k + 1] = ((2 * k + 1) * s * row[..., k] - k * row[..., k - 1]) / (k + 1)
    return row * np.sqrt(2.0 * np.arange(spec.n + 1) + 1.0)


@lru_cache(maxsize=None)
def _legendre_numerators(n: int) -> tuple[tuple[int, ...], ...]:
    """N with P_k(2u-1) = Σ_i N[i][k] / C(n,i) · B_i^n(u), in integers.

    Closed form (Farouki, J. Comput. Appl. Math. 119 (2000) 145-160):
    N[i][k] = Σ_j (-1)^(k+j)·C(k,j)²·C(n-k,i-j).  Built on first use and
    cached per degree.
    """
    pascal = [[math.comb(m, j) for j in range(m + 1)] for m in range(n + 1)]
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for k in range(n + 1):
        ck, rest = pascal[k], pascal[n - k]
        for i in range(n + 1):
            total = 0
            for j in range(max(0, i + k - n), min(i, k) + 1):
                term = ck[j] * ck[j] * rest[i - j]
                total += -term if (k + j) % 2 else term
            table[i][k] = total
    return tuple(map(tuple, table))


@lru_cache(maxsize=None)
def legendre_to_bernstein(n: int) -> np.ndarray:
    """T with ``basis_row(spec, x) @ T == legendre_row(spec, x)`` for every
    degree-n spec: column k holds the Bernstein coefficients of member k.

    T[i, k] = sqrt(2k+1)·N[i][k] / C(n,i) for the integer table N of
    ``_legendre_numerators``, the quotient rounded once to a float and then
    scaled.  Built on first use and cached per degree, read-only.
    """
    t = np.empty((n + 1, n + 1))
    for i, row in enumerate(_legendre_numerators(n)):
        binom = math.comb(n, i)
        for k, total in enumerate(row):
            t[i, k] = total / binom * math.sqrt(2 * k + 1)
    t.flags.writeable = False
    return t


def legendre_to_bernstein_exact(nums: list[int], den: int) -> list[Fraction]:
    """The degree-n Bernstein coefficients of Σ_k nums[k]/den·P_k(2u-1),
    n = len(nums) - 1, as exact Fractions.

    The sums run on Python integers, and each output is one quotient,
    reduced once.
    """
    n = len(nums) - 1
    return [
        Fraction(sum(map(mul, row, nums)), den * math.comb(n, i))
        for i, row in enumerate(_legendre_numerators(n))
    ]


def _numerators(values: list[Fraction]) -> tuple[list[int], int]:
    """Integers nums and common with values[s] == nums[s] / common."""
    common = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (common // v.denominator) for v in values], common


def _shift(nums: list[int], lo: int, hi: int, g: int) -> list[int]:
    """Ascending integer coefficients in u of g^d·p((lo + hi·u)/g), where
    p = Σ nums[s]·x^s has degree d: Σ nums[s]·g^(d-s)·(lo + hi·u)^s,
    expanded by Horner steps.
    """
    out = [nums[-1]]
    power = 1
    for c in reversed(nums[:-1]):
        power *= g
        out = [lo * v + hi * w for v, w in zip([*out, 0], [0, *out])]
        out[0] += c * power
    return out


def _float_width(a, b) -> float:
    """b - a as a float, for float or Fraction endpoints that each lie in
    the float range.  Raises InvalidInterval when b - a, or the difference
    of the endpoints as floats, is beyond the float range: no point of such
    an interval has a float u = (x-a)/(b-a), nor a float grid."""
    try:
        # b - a before float(): Fraction endpoints give their width rounded once
        width = float(b - a)
    except OverflowError:  # a Fraction width
        width = math.inf
    if not (width < math.inf and float(b) - float(a) < math.inf):
        raise InvalidInterval(
            f"interval [{number_text(a)}, {number_text(b)}] is wider than the float range"
        )
    return width


def _unit(spec: BasisSpec, x) -> np.ndarray:
    """u = (x-a)/(b-a) as floats."""
    width = _float_width(spec.a, spec.b)
    return (np.asarray(x, dtype=float) - float(spec.a)) / width


def bernstein_to_monomial(coeffs, spec: BasisSpec) -> list:
    """Monomial coefficients c_0..c_n with sum(coeffs[i]·B_i) = sum(c_k·x^k).

    Fraction (or int) inputs come back as exact Fractions; float inputs come
    back as floats.  Either way the expansion runs on Python integers: the
    coefficients and the endpoints a = an/ad, h = b - a = hn/hd are put over
    one denominator, and each output is one exact quotient, reduced once to
    a Fraction or rounded once to the nearest float (±inf beyond the float
    range).  So float outputs carry a single rounding and no intermediate
    one.
    """
    if len(coeffs) != spec.n + 1:
        raise ValueError(f"expected {spec.n + 1} coefficients, got {len(coeffs)}")
    exact = all(isinstance(c, (int, Fraction)) for c in coeffs)
    n, a = spec.n, Fraction(spec.a)
    h = Fraction(spec.b) - a
    diff, common = _numerators([Fraction(v) for v in coeffs])
    # power form in u = (x-a)/h: the u^k coefficient is C(n,k)·Δ^k c_0 / h^k
    # (forward difference at 0).  Over den = common·g^n, g = hn·ad, it is
    # e_k, the coefficient of (y - an)^k for y = ad·x
    g = h.numerator * a.denominator
    e = []
    for k in range(n + 1):
        e.append(math.comb(n, k) * diff[0] * h.denominator**k * g ** (n - k))
        diff = [right - left for left, right in zip(diff, diff[1:])]
    # the shift's Horner steps multiply by an alone, not by the larger ad·hd
    # of substituting x directly; then y^m = ad^m·x^m
    out = [v * a.denominator**m for m, v in enumerate(_shift(e, -a.numerator, 1, 1))]
    den = common * g**n
    if exact:
        return [Fraction(v, den) for v in out]
    return [_nearest_float(v, den) for v in out]


def _nearest_float(numerator: int, denominator: int) -> float:
    """numerator/denominator (denominator > 0) rounded once, to ±inf past
    the float range as float arithmetic would."""
    try:
        return numerator / denominator  # int/int division is correctly rounded
    except OverflowError:
        return math.inf if numerator > 0 else -math.inf
