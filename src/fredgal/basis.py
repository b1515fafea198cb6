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
from itertools import accumulate, repeat
from operator import add, floordiv, index, mul, sub

import numpy as np

from .errors import InvalidDegree, InvalidInterval, _endpoint_text, number_text

# Bernstein coefficients amplify errors in the solved system by up to
# ||legendre_to_bernstein(n)||_inf, about 1.3e15 at degree 50: refuse
# anything beyond rather than return garbage.
MAX_DEGREE = 50


def check_degree(n) -> None:
    """Refuse with InvalidDegree a degree n that is not an integer (what
    operator.index refuses) or lies outside 0..MAX_DEGREE."""
    try:
        index(n)
    except TypeError:
        raise InvalidDegree(f"degree must be an integer, got {n!r}") from None
    if n < 0:
        raise InvalidDegree("degree must be nonnegative")
    if n > MAX_DEGREE:
        raise InvalidDegree(f"degree {n} exceeds the cap of {MAX_DEGREE}")


def check_interval(a, b) -> None:
    """The interval rule BasisSpec and FredholmProblem share: finite a < b, or InvalidInterval."""
    try:
        finite = math.isfinite(a) and math.isfinite(b)
    except OverflowError:  # a Fraction too large for a float
        finite = False
    if not (finite and b > a):
        reason = "need b > a" if finite else "endpoints must be finite"
        raise InvalidInterval(f"{reason}, got [{number_text(a)}, {number_text(b)}]")


@dataclass(frozen=True)
class BasisSpec:
    """Degree and interval of one basis family (n+1 member polynomials)."""

    n: int
    a: float
    b: float

    def __post_init__(self):
        check_degree(self.n)
        check_interval(self.a, self.b)


def basis_row(spec: BasisSpec, x) -> np.ndarray:
    """The n+1 member values at x: a row for a number, a (len(x), n+1)
    table for an array of points, from the closed form C(n,k)·u^k·(1-u)^(n-k)
    on u = (x-a)/(b-a): O(n·m) work in a fixed number of numpy calls, and no
    cancellation.  A normal value is within (n + 8)·2^-53, relatively, of the
    exact member at the float u; the endpoint rows are exact (0^0 = 1).
    """
    u = _unit(spec, x)[..., None]
    k = np.arange(spec.n + 1)
    return _binomials(spec.n) * u**k * (1.0 - u) ** k[::-1]


@lru_cache(maxsize=None)
def _binomials(n: int) -> np.ndarray:
    """C(n, k), k = 0..n, as read-only floats: exact, as C(50, 25) < 2^53."""
    row = np.array(_binomial_ints(n), dtype=float)
    row.flags.writeable = False
    return row


@lru_cache(maxsize=None)
def _binomial_ints(n: int) -> tuple[int, ...]:
    """C(n, k), k = 0..n, as Python integers, cached per degree."""
    return tuple(math.comb(n, k) for k in range(n + 1))


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


def _shift(nums: list[int], lo: int, hi: int, g: int) -> list[int]:
    """Ascending integer coefficients in u of g^d·p((lo + hi·u)/g), where
    p = Σ nums[s]·x^s has degree d: Σ nums[s]·g^(d-s)·(lo + hi·u)^s,
    expanded by Horner steps.  With lo = 0 the sum is nums[s]·hi^s·g^(d-s)
    term by term, and nums itself, not a copy, when hi = g = 1: callers
    only read the result.
    """
    if not lo:
        d = len(nums) - 1
        return nums if hi == g == 1 else [c * hi**s * g ** (d - s) for s, c in enumerate(nums)]
    out = [nums[-1]]
    power = 1
    for c in reversed(nums[:-1]):
        power *= g
        # one Horner step, out·(lo + hi·u); a sum alone when lo = hi = 1,
        # which bernstein_to_monomial asks for when a's numerator is -1, as
        # on [-1, 1]
        low, high = [*out, 0], [0, *out]
        if lo == hi == 1:
            out = list(map(add, low, high))
        else:
            out = [lo * v + hi * w for v, w in zip(low, high)]
        out[0] += c * power
    return out


# 2^1023: below it, neither b - a rounded once nor fb - fa can reach the
# float range's edge, as the endpoints' own rounding is at most 2^970 each
_NEAR_FLOAT_MAX = 2.0**1023


def float_interval(a, b) -> tuple[float, float]:
    """(float(a), float(b)) for float or Fraction endpoints a < b that each
    lie in the float range.  Raises InvalidInterval when [a, b] has no float
    points: both endpoints round to one float, or b - a, or the difference
    of the endpoints as floats, is beyond the float range.  Either way no
    point has a float u = (x-a)/(b-a), nor does the interval a float grid.

    The float width is tested first; the exact b - a is formed only when
    that width is within rounding of the float range."""
    fa, fb = float(a), float(b)
    if not fb > fa:
        raise InvalidInterval(
            f"interval [{_endpoint_text(a)}, {_endpoint_text(b)}] is empty in floating point: "
            f"both endpoints round to {fa}"
        )
    width = fb - fa
    # b - a rounded once differs from the float width by a few ulps of the
    # endpoints, so only a float width near the range's edge needs it
    if width >= _NEAR_FLOAT_MAX:
        try:
            width = max(width, float(b - a))
        except OverflowError:  # a Fraction width
            width = math.inf
    if width == math.inf:
        raise InvalidInterval(f"interval [{fa}, {fb}] is wider than the float range")
    return fa, fb


def _unit(spec: BasisSpec, x) -> np.ndarray:
    """u = (x-a)/(b-a) as floats."""
    a, _ = float_interval(spec.a, spec.b)
    return (np.asarray(x, dtype=float) - a) / float(spec.b - spec.a)


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
    exact = all(map(isinstance, coeffs, repeat((int, Fraction))))
    n = spec.n
    an, ad, hn, hd = _interval_ratio(spec.a, spec.b)
    nums, dens = zip(*map(_ratio, coeffs))
    common = math.lcm(*dens)
    diff = list(map(mul, nums, map(floordiv, repeat(common), dens)))
    # power form in u = (x-a)/h: the u^k coefficient is C(n,k)·Δ^k c_0 / h^k
    # (forward difference at 0).  Over den = common·g^n, g = hn·ad, it is
    # e_k, the coefficient of (y - an)^k for y = ad·x
    g = hn * ad
    firsts = [diff[0]]  # Δ^k c_0, k = 0..n
    for _ in range(n):
        diff = list(map(sub, diff[1:], diff))
        firsts.append(diff[0])
    # e_k = C(n,k)·Δ^k c_0·hd^k·g^(n-k)
    e = list(map(mul, firsts, _binomial_ints(n)))
    if hd != 1:
        e = list(map(mul, e, _powers(hd, n)))
    if g != 1:
        e = list(map(mul, e, _powers(g, n)[::-1]))
    # the shift's Horner steps multiply by an alone, not by the larger ad·hd
    # of substituting x directly; then y^m = ad^m·x^m
    out = _shift(e, -an, 1, 1)
    if ad != 1:
        out = list(map(mul, out, _powers(ad, n)))
    den = common * g**n
    if exact:
        return [Fraction(v, den) for v in out]
    return list(map(_nearest_float, out, repeat(den)))


def _powers(base: int, n: int) -> list[int]:
    """base^k, k = 0..n."""
    return list(accumulate(repeat(base, n), mul, initial=1))


def _ratio(value) -> tuple[int, int]:
    """A number (int, Fraction, float or numpy scalar) as Python integers
    (numerator, denominator > 0) in lowest terms, with no Fraction built."""
    try:
        return value.as_integer_ratio()
    except AttributeError:  # numpy integers have no as_integer_ratio
        return index(value), 1


def _interval_ratio(a, b) -> tuple[int, int, int, int]:
    """(an, ad, hn, hd) with a = an/ad and h = b - a = hn/hd, each in lowest terms."""
    (an, ad), (bn, bd) = _ratio(a), _ratio(b)
    hn, hd = bn * ad - an * bd, ad * bd
    content = math.gcd(hn, hd)
    return an, ad, hn // content, hd // content


def _nearest_float(numerator: int, denominator: int) -> float:
    """numerator/denominator (denominator > 0) rounded once, to ±inf past
    the float range as float arithmetic would."""
    try:
        return numerator / denominator  # int/int division is correctly rounded
    except OverflowError:
        return math.inf if numerator > 0 else -math.inf
