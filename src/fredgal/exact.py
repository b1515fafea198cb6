"""Exact rational path: the rational Galerkin assembly/solve used when
every piece of problem data is polynomial.  The system is written in the
shifted Legendre polynomials P_k(2u-1), where it is sparse.

Polynomial data are the pairs (terms, den) of ``fredgal.expr.to_polynomial``,
integers over one denominator; lambda and the endpoints are
``fractions.Fraction``.  The assembly and the solve run on Python integers:
every entry of the system is summed from the moments ∫₀¹ u^r·P_j(2u-1) du.
The powers of x and t have their moments in one integer table M per degree
and interval, cached across solves (``_moment_map``), so the kernel's
block is the product Mxᵀ·K·Mt of the kernel's coefficient grid K with two
of them, and f(x)'s projection is Mfᵀ·f.  Each row of the matrix is held
as integers over one positive denominator with f(x)'s denominator kept
apart, the elimination is fraction-free, and the solution comes back as
integers over one common denominator.  Only the Bernstein coefficients
are Fractions, one per coefficient
(``fredgal.basis.legendre_to_bernstein_exact``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .basis import _interval_ratio, _shift
from .errors import SingularSystem

# Most work ``exact_work`` admits to the exact path.  Set from solve times
# measured across degree, data degree and number sizes: every problem
# measured under it solved exactly in about 1 s or less
MAX_EXACT_WORK = 500_000

# Bits of f(x)'s largest numerator past which eliminating the right-hand
# side costs more than the matrix: that column's B-bit entries are
# multiplied by the matrix's, which took up to 1.25e-11 s per unit of work
# and bit of B, so W·B/RHS_BITS reaches MAX_EXACT_WORK at about 1 s too
RHS_BITS = 160_000

# Most moment maps (``_moment_map``, (d+1)² integers each) kept across
# solves, the least recently used dropped first: intervals are unbounded in
# number, so the cache needs a bound
MOMENT_MAPS = 128

# the polynomial Σ terms[(i, j)]/den·x^i·t^j, as ``to_polynomial`` gives it
_Polynomial = tuple[dict[tuple[int, int], int], int]


@dataclass(frozen=True)
class ExactProblem:
    """a(x)·phi(x) + lam·∫ k(t,x)·phi(t) dt = f(x) with all-polynomial data,
    each polynomial a pair (terms, den) as ``fredgal.expr.to_polynomial``
    gives it.  Its rules, b > a and no t in a(x) or f(x), are checked by the
    ``FredholmProblem`` that ``fredgal.galerkin.as_exact_problem`` reads."""

    a_poly: _Polynomial
    lam: Fraction
    kernel_poly: _Polynomial
    f_poly: _Polynomial
    a: Fraction
    b: Fraction


def _bits(value: Fraction) -> int:
    return value.numerator.bit_length() + value.denominator.bit_length()


def exact_work(problem: ExactProblem, n: int) -> int:
    """An estimate of the work of an exact degree-n solve, taken before any
    of it is done: (n + 1)·(n + 1 + D)·S, with D the largest total degree of
    the data and S a bound on the bits of an entry of the system.

    The endpoints enter an entry to the power D, and each row of the
    matrix is put over one denominator, so S = D·(bits of a and b) + the
    bits of lambda and of the largest numerator of a(x) or the kernel plus
    those of its ``den``, the lcm of that piece's denominators.  f(x) builds
    only the right-hand-side column, so its integers do not enter S; its
    degree does, since its shift to u costs g^deg f.  Lambda's and the
    endpoints' bits count numerator and denominator in lowest terms.

    That column's elimination costs about W·B/RHS_BITS on the same scale,
    for W the work above and B the bits of f's largest numerator; the
    larger of the two estimates counts, so the work is W·max(1,
    B/RHS_BITS), rounded down.  The form, RHS_BITS and MAX_EXACT_WORK were
    fitted to measured solve times.
    """
    operator = (problem.a_poly, problem.kernel_poly)
    degree = max([1] + [i + j for p in (*operator, problem.f_poly) for i, j in p[0]])
    size = max([0] + [c.bit_length() + den.bit_length() for p, den in operator for c in p.values()])
    size += degree * (_bits(problem.a) + _bits(problem.b)) + _bits(problem.lam)
    rhs = max([0] + [c.bit_length() for c in problem.f_poly[0].values()])
    return (n + 1) * (n + 1 + degree) * size * max(rhs, RHS_BITS) // RHS_BITS


def _in_x(poly: _Polynomial) -> tuple[list[int], int]:
    """(nums, den) of a polynomial in x alone: Σ nums[s]/den·x^s."""
    terms, den = poly
    nums = [0] * (max((i for i, _ in terms), default=0) + 1)
    for (i, _), c in terms.items():
        nums[i] = c
    return nums, den


@lru_cache(maxsize=None)
def _moment_den(d: int) -> int:
    """lcm(1, ..., 2d+1), a denominator of ∫₀¹ u^r·P_j(2u-1) du for all
    r, j <= d: P_j(2u-1) has integer coefficients c_s, so the integral is
    Σ_s c_s/(r+s+1)."""
    return math.lcm(*range(1, 2 * d + 2))


@lru_cache(maxsize=None)
def _moment_weights(d: int) -> tuple[tuple[int, ...], ...]:
    """W[j][r] = ∫₀¹ u^r·P_j(2u-1) du for j, r = 0..d, as integers over the
    one denominator ``_moment_den(d)``.

    The integral is r!²/((r-j)!·(r+j+1)!) for j <= r and zero for j > r.
    """
    f = math.factorial
    top = _moment_den(d)
    return tuple(
        tuple(
            f(r) ** 2 * top // (f(r - j) * f(r + j + 1)) if j <= r else 0
            for r in range(d + 1)
        )
        for j in range(d + 1)
    )


def _moments(nums: list[int], n: int) -> list[int]:
    """∫₀¹ q(u)·P_j(2u-1) du for j up to min(d, n), as integers over
    ``_moment_den(d)``, with q = Σ nums[r]·u^r of degree d; the integral
    vanishes for j > d, and u^r contributes to it only for r >= j."""
    weights = _moment_weights(len(nums) - 1)
    return [sum(map(mul, weights[j][j:], nums[j:])) for j in range(min(len(nums) - 1, n) + 1)]


@lru_cache(maxsize=MOMENT_MAPS)
def _moment_map(d: int, lo: int, hi: int, g: int) -> tuple[tuple[int, ...], ...]:
    """The moments M[p][j] = ∫₀¹ g^(d-p)·(lo + hi·u)^p·P_j(2u-1) du of the
    powers x^p, p = 0..d, of x = (lo + hi·u)/g, as integers over
    ``_moment_den(d)``, for j = 0..d; M[p][j] = 0 for j > p.

    Stored by moment: entry j holds (M[0][j], ..., M[d][j]), so that
    Σ_p c_p·M[p][j] for a polynomial Σ c_p·x^p of degree d is one dot
    product with its coefficients.  Cached per degree and interval,
    read-only; the bound is fixed because intervals are unbounded in
    number.
    """
    by_power = [_moments(_shift([0] * p + [1] + [0] * (d - p), lo, hi, g), d) for p in range(d + 1)]
    return tuple(zip(*by_power))


@lru_cache(maxsize=None)
def _legendre(i: int) -> tuple[int, ...]:
    """Integer coefficients of P_i(2u-1), from u^i down to u^0:
    (-1)^(i+s)·C(i,s)·C(i+s,s) for s = i..0."""
    return tuple((-1) ** (i + s) * math.comb(i, s) * math.comb(i + s, s) for s in range(i, -1, -1))


def exact_assemble(problem: ExactProblem, n: int) -> tuple[list[dict[int, int]], list[int], int]:
    """Rational system A·c = F in the basis P_k(2u-1), k = 0..n, with
    u = (x-a)/(b-a), as integer rows (rows, dens, f_den): A[j][i] =
    rows[j][i]/dens[j] pairs test member j with trial member i, F[j] =
    rows[j][n+1]/(dens[j]·f_den) is the projected right-hand side, and
    Σ c_k·P_k(2u-1) is the Galerkin solution.  Each row holds its nonzero
    entries only, its matrix entries over dens[j] > 0 in lowest terms; the
    rows solve for f_den·c, so f(x)'s denominator stays out of the matrix.

    Every entry is the integral of a polynomial in u against a member
    P_j, summed from the moments ∫₀¹ u^r·P_j(2u-1) du
    (``_moment_weights``), which vanish for r < j.  So the a(x) block is
    banded (bandwidth deg a) and the kernel block is nonzero only in its
    leading (deg_x k + 1)-by-(deg_t k + 1) corner.  With M the moment
    table of the powers of x on [a, b] (``_moment_map``) and K the
    kernel's coefficient grid, K[p][q] for x^p·t^q, that corner is
    Mxᵀ·K·Mt, and f's moments are Mfᵀ·f for f's coefficients f.  The
    matrix is summed on Python integers over one denominator, each row is
    divided by the content of its matrix entries, and f's moments are then
    put over dens[j]·f_den.
    """
    an, ad, hn, hd = _interval_ratio(problem.a, problem.b)
    # x = (lo + hi·u)/g; _shift scales degree d by g^d
    g, lo, hi = ad * hd, an * hd, hn * ad
    rhs = n + 1

    # kernel term c·x^p·t^q: its t-integral against trial member i is
    # h·c·Mt[q][i] and its x-integral against test member j is h·Mx[p][j],
    # so the corner is Mxᵀ·K·Mt, summed in two passes: the t-integrals for
    # each power of x in the kernel, then the x-integrals
    kernel, common = problem.kernel_poly
    dx = max((p for p, _ in kernel), default=0)
    dt = max((q for _, q in kernel), default=0)
    grid = [[0] * (dt + 1) for _ in range(dx + 1)]  # grid[p][q] = K[p][q]
    for (p, q), c in kernel.items():
        grid[p][q] = c
    mt, mx = _moment_map(dt, lo, hi, g)[: n + 1], _moment_map(dx, lo, hi, g)[: n + 1]
    by_t = [[sum(map(mul, col, row)) for col in mt] if any(row) else [0] * len(mt) for row in grid]
    corner = [[sum(map(mul, col, by_i)) for by_i in zip(*by_t)] for col in mx]  # corner[j][i]
    # lambda·h², not reduced: each row is divided by its content below
    lam_num, lam_den = problem.lam.numerator * hn * hn, problem.lam.denominator * hd * hd
    kernel_den = common * g ** (dx + dt) * lam_den * _moment_den(dx) * _moment_den(dt)

    # f's moments Mfᵀ·f
    nums, common = _in_x(problem.f_poly)
    f_moments = [sum(map(mul, col, nums)) for col in _moment_map(len(nums) - 1, lo, hi, g)[: n + 1]]
    f_den = common * g ** (len(nums) - 1) * hd * _moment_den(len(nums) - 1)

    # ∫ a(x)·P_i·P_j dx = h·∫₀¹ q(u)·P_j du with q = α·P_i, α = a(x) in u.
    # For j >= i only q's coefficients of u^i..u^(i + deg a) count, so j
    # runs over the band i..i + deg a, and symmetry fills in j < i
    nums, common = _in_x(problem.a_poly)
    alpha = _shift(nums, lo, hi, g)
    da = len(alpha) - 1
    weights = _moment_weights(da + n)
    band_den = common * g**da * hd * _moment_den(da + n)

    den = math.lcm(band_den, kernel_den)
    band_scale = hn * (den // band_den)
    kernel_scale = lam_num * (den // kernel_den)
    rows: list[dict[int, int]] = [{} for _ in range(n + 1)]
    for i in range(n + 1):
        p = _legendre(i)
        # q[k] is the coefficient of u^(i+k) in α·P_i
        q = [sum(map(mul, alpha[k:], p)) for k in range(da + 1)]
        for j in range(i, min(i + da, n) + 1):
            v = sum(map(mul, weights[j][j : i + da + 1], q[j - i :]))
            rows[j][i] = rows[i][j] = v * band_scale
    dens = []
    for j, row in enumerate(rows):
        for i, v in enumerate(corner[j] if j < len(corner) else ()):
            row[i] = row.get(i, 0) + v * kernel_scale
        content = math.gcd(den, *row.values())
        rows[j] = row = {i: v // content for i, v in row.items() if v}
        dens.append(den // content)
        if j < len(f_moments) and f_moments[j]:
            row[rhs] = f_moments[j] * hn * dens[j]
    return rows, dens, f_den


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
