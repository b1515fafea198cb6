"""Exact rational path: the rational Galerkin assembly/solve used when
every piece of problem data is polynomial.  The system is written in the
shifted Legendre polynomials P_k(2u-1), where it is sparse.

Polynomial data are the pairs (terms, den) of ``fredgal.expr.to_polynomial``,
integers over one denominator; lambda and the endpoints are
``fractions.Fraction``.  The assembly and the solve run on Python integers:
each row of the system is a set of integers over one positive denominator,
the elimination is fraction-free, and the solution comes back as integers
over one common denominator.  Only the Bernstein coefficients are
Fractions, one per coefficient
(``fredgal.basis.legendre_to_bernstein_exact``), so results like 19/9 come
out as true fractions instead of rounded floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .basis import BasisSpec, _shift
from .errors import InvalidInterval, InvalidProblem, SingularSystem

# Most work ``exact_work`` admits to the exact path.  Set from solve times
# measured across degree, data degree and number sizes: every problem
# measured under it solved exactly in about 1 s or less
MAX_EXACT_WORK = 500_000

# the polynomial Σ terms[(i, j)]/den·x^i·t^j, as ``to_polynomial`` gives it
_Polynomial = tuple[dict[tuple[int, int], int], int]


@dataclass(frozen=True)
class ExactProblem:
    """a(x)·phi(x) + lam·∫ k(t,x)·phi(t) dt = f(x) with all-polynomial data,
    each polynomial a pair (terms, den) as ``fredgal.expr.to_polynomial``
    gives it."""

    a_poly: _Polynomial
    lam: Fraction
    kernel_poly: _Polynomial
    f_poly: _Polynomial
    a: Fraction
    b: Fraction

    def __post_init__(self):
        if any(j for p in (self.a_poly, self.f_poly) for _, j in p[0]):
            raise InvalidProblem("coefficient and right-hand side must not use t")
        if not self.b > self.a:
            raise InvalidInterval(f"need b > a, got [{self.a}, {self.b}]")


def _bits(value: Fraction) -> int:
    return value.numerator.bit_length() + value.denominator.bit_length()


def _lowest_terms_bits(poly: _Polynomial) -> list[tuple[int, int]]:
    """(numerator bits, denominator bits) of each coefficient in lowest terms."""
    terms, den = poly
    out = []
    for c in terms.values():
        g = math.gcd(c, den)
        out.append(((c // g).bit_length(), (den // g).bit_length()))
    return out


def exact_work(problem: ExactProblem, n: int) -> int:
    """An estimate of the work of an exact degree-n solve, taken before any
    of it is done: (n + 1)·(n + 1 + D)·S, with D the largest total degree of
    the data and S a bound on the bits of an entry of the system.

    The endpoints enter an entry to the power D, and every row is put over
    one denominator, so S = D·(bits of a and b) + the bits of lambda, of the
    largest coefficient of a(x) and the kernel, and of the largest
    denominator of f(x); a numerator of f(x) scales only the right-hand
    side.  Bits of a rational count its numerator and its denominator in
    lowest terms.  The form and MAX_EXACT_WORK were fitted to measured
    solve times.  Raises InvalidDegree for a degree outside the basis limits.
    """
    BasisSpec(n, problem.a, problem.b)
    operator = (problem.a_poly, problem.kernel_poly)
    degree = max([1] + [i + j for p in (*operator, problem.f_poly) for i, j in p[0]])
    size = max([0] + [top + bottom for p in operator for top, bottom in _lowest_terms_bits(p)])
    size += max([0] + [bottom for _, bottom in _lowest_terms_bits(problem.f_poly)])
    size += degree * (_bits(problem.a) + _bits(problem.b)) + _bits(problem.lam)
    return (n + 1) * (n + 1 + degree) * size


def _in_x(poly: _Polynomial) -> tuple[list[int], int]:
    """(nums, den) of a polynomial in x alone: Σ nums[s]/den·x^s."""
    terms, den = poly
    nums = [0] * (max((i for i, _ in terms), default=0) + 1)
    for (i, _), c in terms.items():
        nums[i] = c
    return nums, den


@lru_cache(maxsize=None)
def _moment_weights(d: int) -> tuple[tuple[int, ...], ...]:
    """W[j][r] = (2d+1)!·∫₀¹ u^r·P_j(2u-1) du for j, r = 0..d, integers over
    the one denominator (2d+1)!.

    The integral is r!²/((r-j)!·(r+j+1)!) for j <= r and zero for j > r.
    """
    f = math.factorial
    top = f(2 * d + 1)
    return tuple(
        tuple(
            f(r) ** 2 * top // (f(r - j) * f(r + j + 1)) if j <= r else 0
            for r in range(d + 1)
        )
        for j in range(d + 1)
    )


def _moments(nums: list[int], n: int) -> list[int]:
    """(2d+1)!·∫₀¹ q(u)·P_j(2u-1) du for j up to min(d, n), integers, with
    q = Σ nums[r]·u^r of degree d; the integral vanishes for j > d."""
    weights = _moment_weights(len(nums) - 1)
    return [sum(map(mul, weights[j], nums)) for j in range(min(len(nums) - 1, n) + 1)]


def _times_a(alpha: list[int], j: int) -> tuple[int, list[int], int]:
    """(lo, c, scale) with α(u)·P_j = Σ_k c[k - lo]/scale·P_k, for
    α = Σ alpha[r]·u^r, all P in the argument 2u-1.

    Horner over α's coefficients, with
    u·P_k = P_k/2 + (k+1)/(2(2k+1))·P_{k+1} + k/(2(2k+1))·P_{k-1}, each
    step over the lcm of its denominators.
    """
    lo, c, scale = j, [alpha[-1]], 1
    for coeff in reversed(alpha[:-1]):
        lcm = 2 * math.lcm(*range(2 * lo + 1, 2 * (lo + len(c)), 2))
        half, start = lcm // 2, max(lo - 1, 0)
        out = [0] * (lo + len(c) + 1 - start)
        for k, v in enumerate(c, lo):
            out[k - start] += v * half
            v = v * lcm // (4 * k + 2)
            out[k + 1 - start] += v * (k + 1)
            if k:
                out[k - 1 - start] += v * k
        scale *= lcm
        out[j - start] += coeff * scale
        lo, c = start, out
    return lo, c, scale


def exact_assemble(problem: ExactProblem, n: int) -> tuple[list[dict[int, int]], list[int]]:
    """Rational system A·c = F in the basis P_k(2u-1), k = 0..n, with
    u = (x-a)/(b-a), as integer rows: A[j][i] = rows[j][i]/dens[j] pairs
    test member j with trial member i, F[j] = rows[j][n+1]/dens[j] is the
    projected right-hand side, and Σ c_k·P_k(2u-1) is the Galerkin
    solution.  Each row holds its nonzero entries only, over one positive
    denominator, in lowest terms.

    The a(x) block is banded (bandwidth deg a) and the kernel block is
    nonzero only in its leading (deg_x k + 1)-by-(deg_t k + 1) corner, so
    most entries are zero.  Everything is summed on Python integers.
    """
    BasisSpec(n, problem.a, problem.b)  # degree and interval within the basis limits
    a, h = problem.a, problem.b - problem.a
    hn, hd = h.numerator, h.denominator
    # x = (lo + hi·u)/g; _shift scales degree d by g^d
    g, lo, hi = a.denominator * hd, a.numerator * hd, hn * a.denominator
    rhs = n + 1

    # a(x)·P_j, then ∫ P_i·P_k dx = h/(2k+1)·δ_ik; the a(x) block is
    # symmetric, so row j is the expansion of a(x)·P_j over 2i+1
    nums, common = _in_x(problem.a_poly)
    alpha = _shift(nums, lo, hi, g)
    band_den = common * g ** (len(alpha) - 1) * hd

    # kernel term c·u^r·v^s after the shift of x and t: its t-integral
    # against trial member i is h·c·M[s][i] and its x-integral against test
    # member j is h·M[r][j], M[r][j] = ∫₀¹ u^r·P_j(2u-1) du
    kernel, common = problem.kernel_poly
    dx = max((p for p, _ in kernel), default=0)
    dt = max((q for _, q in kernel), default=0)
    grid = [
        _shift([kernel.get((p, q), 0) for q in range(dt + 1)], lo, hi, g) for p in range(dx + 1)
    ]
    grid = [_shift(list(col), lo, hi, g) for col in zip(*grid)]  # grid[s][r]
    lam = problem.lam * h * h
    # integrate over v first (trial member i), then over u (test member j)
    by_r = [_moments(list(row), n) for row in zip(*grid)]  # by_r[r][i]
    corner = list(zip(*[_moments(list(col), n) for col in zip(*by_r)]))  # corner[j][i]
    kernel_den = (
        common * g ** (dx + dt) * lam.denominator
        * math.factorial(2 * dx + 1) * math.factorial(2 * dt + 1)
    )

    nums, common = _in_x(problem.f_poly)
    f_moments = _moments(_shift(nums, lo, hi, g), n)
    f_den = common * g ** (len(nums) - 1) * hd * math.factorial(2 * len(nums) - 1)
    shared_den = math.lcm(kernel_den, f_den)
    kernel_scale = lam.numerator * (shared_den // kernel_den)
    f_scale = hn * (shared_den // f_den)

    rows, dens = [], []
    for j in range(n + 1):
        first, c, scale = _times_a(alpha, j)
        stop = min(first + len(c), n + 1)
        odd = math.lcm(*range(2 * first + 1, 2 * stop, 2))
        band = band_den * scale * odd
        den = math.lcm(band, shared_den)
        band_scale, other = hn * (den // band), den // shared_den
        row = {
            i: v * band_scale * (odd // (2 * i + 1))
            for i, v in enumerate(c[: stop - first], first)
            if v
        }
        if j < len(f_moments) and f_moments[j]:
            row[rhs] = f_moments[j] * f_scale * other
        for i, v in enumerate(corner[j] if j < len(corner) else ()):
            if v:
                row[i] = row.get(i, 0) + v * kernel_scale * other
        content = math.gcd(den, *row.values())
        rows.append({i: v // content for i, v in row.items() if v})
        dens.append(den // content)
    return rows, dens


def solve_rational_system(rows: list[dict[int, int]]) -> tuple[list[int], int]:
    """Solve the m-by-m system Σ_i rows[j][i]·c_i = rows[j][m], j = 0..m-1,
    given as integer rows of nonzero entries (column m holds the right-hand
    side), for its exact rational solution c_i = nums[i]/den, with den > 0
    and gcd(den, *nums) == 1.

    Fraction-free Gaussian elimination with first-nonzero pivoting: a row
    is cleared of the pivot column by row·(p/g) - pivot_row·(l/g), with p
    the pivot, l the row's lead and g = gcd(p, l), and divided by the gcd of
    its entries, so no Fraction is built and the integers stay small.  A
    sparse system costs only the entries its elimination touches.  The
    input rows are not changed.
    """
    m = len(rows)
    rows = [dict(row) for row in rows]
    for col in range(m):
        pivot_row = next((r for r in range(col, m) if col in rows[r]), None)
        if pivot_row is None:
            raise SingularSystem(f"no nonzero pivot in column {col}")
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        pivot = rows[col]
        pivot_value = pivot[col]
        rest = [(c, v) for c, v in pivot.items() if c != col]
        for r in range(col + 1, m):
            row = rows[r]
            lead = row.pop(col, None)
            if lead is None:
                continue
            g = math.gcd(pivot_value, lead)
            scale, factor = pivot_value // g, lead // g
            if scale != 1:
                row = {c: v * scale for c, v in row.items()}
            for c, v in rest:
                value = row.get(c, 0) - factor * v
                if value:
                    row[c] = value
                else:
                    del row[c]
            content = math.gcd(*row.values())
            if content > 1:
                row = {c: v // content for c, v in row.items()}
            rows[r] = row
    # back-substitution over one common denominator den: c_k = nums[k]/den.
    # Each step divides out gcd(acc, pivot), so no prime factor of den
    # divides the numerator set by the last step that scaled den by that
    # prime: the result is in lowest terms
    nums, den = [0] * m, 1
    for col in reversed(range(m)):
        row = rows[col]
        acc = row.get(m, 0) * den
        for k, v in row.items():
            if col < k < m:
                acc -= v * nums[k]
        pivot_value = row[col]
        g = math.gcd(acc, pivot_value)
        scale = pivot_value // g
        if scale < 0:
            scale, g = -scale, -g
        if scale != 1:
            den *= scale
            for k in range(col + 1, m):
                nums[k] *= scale
        nums[col] = acc // g
    return nums, den
