"""Manufactured problems: right-hand sides computed from a chosen solution.

For a chosen solution phi*, coefficient a(x), kernel k(t, x) and lambda, the
right-hand side is f = a*phi* + lambda * integral k(t, x) phi*(t) dt.  All
polynomial algebra here runs on ``fractions.Fraction`` and uses nothing from
the program under test, so the reference solution stays independent of the
code it checks.

Polynomials in x are lists of Fractions in ascending powers.  Polynomial
kernels are dicts {(power of x, power of t): Fraction}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Q


# -- univariate polynomial algebra --------------------------------------------

def padd(p, r):
    out = [Q(0)] * max(len(p), len(r))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(r):
        out[i] += c
    return out


def pmul(p, r):
    out = [Q(0)] * (len(p) + len(r) - 1)
    for i, c in enumerate(p):
        if c:
            for j, d in enumerate(r):
                out[i + j] += c * d
    return out


def pscale(p, c):
    return [c * v for v in p]


def peval(p, x):
    acc = Q(0) if isinstance(x, Q) else 0.0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def pderiv(p):
    return [k * c for k, c in enumerate(p)][1:] or [Q(0)]


def ptrim(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def bernstein_to_monomial(coeffs, a, b):
    """Ascending monomial coefficients of sum_i coeffs[i] * B_i^n on [a, b]."""
    n = len(coeffs) - 1
    a, b = Q(a), Q(b)
    scale = Q(1) / (b - a) ** n
    total = [Q(0)]
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        term = [Q(math.comb(n, i)) * Q(c) * scale]
        for _ in range(i):
            term = pmul(term, [-a, Q(1)])
        for _ in range(n - i):
            term = pmul(term, [b, Q(-1)])
        total = padd(total, term)
    return ptrim(total)


def bernstein_eval(coeffs, a, b, x):
    """Float value of sum_i coeffs[i] * B_i^n at x on [a, b]."""
    n = len(coeffs) - 1
    u = (x - a) / (b - a)
    return math.fsum(
        float(c) * math.comb(n, i) * u**i * (1.0 - u) ** (n - i)
        for i, c in enumerate(coeffs)
    )


# -- integrals against phi*(t) ---------------------------------------------------

def moment(m, a, b):
    """integral of t^m over [a, b]."""
    return (b ** (m + 1) - a ** (m + 1)) / (m + 1)


def poly_kernel_integral(kernel, phi, a, b):
    """integral of k(t, x) phi(t) dt for a polynomial kernel, as a polynomial in x."""
    out = [Q(0)] * (max((i for i, _ in kernel), default=0) + 1)
    for (i, j), c in kernel.items():
        out[i] += c * sum(pm * moment(j + m, a, b) for m, pm in enumerate(phi))
    return out


def abs_kernel_integral(phi, a, b):
    """integral of |x - t| phi(t) dt over [a, b], split at t = x.

    For phi = t^m the two pieces sum to
    x^(m+2) (2/(m+1) - 2/(m+2)) - x (a^(m+1) + b^(m+1))/(m+1)
    + (a^(m+2) + b^(m+2))/(m+2), a polynomial in x.
    """
    out = [Q(0)] * (len(phi) + 2)
    for m, pm in enumerate(phi):
        out[m + 2] += pm * (Q(2, m + 1) - Q(2, m + 2))
        out[1] -= pm * (a ** (m + 1) + b ** (m + 1)) / (m + 1)
        out[0] += pm * (a ** (m + 2) + b ** (m + 2)) / (m + 2)
    return out


def exp_integral(phi, beta, a, b):
    """integral of phi(t) exp(beta t) over [a, b]; beta != 0.

    Antiderivative exp(beta t) * sum_k (-1)^k phi^(k)(t) / beta^(k+1): the
    polynomial part is exact, only the exponentials are rounded.
    """
    def part(t):
        acc, d, k = Q(0), list(phi), 0
        while any(d):
            acc += (-1) ** k * peval(d, t) / beta ** (k + 1)
            d, k = pderiv(d), k + 1
        return acc

    return math.exp(beta * b) * float(part(b)) - math.exp(beta * a) * float(part(a))


def trig_integrals(phi, beta, a, b):
    """(integral of phi cos(beta t), integral of phi sin(beta t)) over [a, b].

    With A = sum_k (-1)^k phi^(2k) / beta^(2k+1) and
    B = sum_k (-1)^k phi^(2k+1) / beta^(2k+2), the antiderivatives are
    sin*A + cos*B and -cos*A + sin*B.
    """
    def parts(t):
        A, B, d, k = Q(0), Q(0), list(phi), 0
        while any(d):
            sign = (-1) ** (k // 2)
            if k % 2 == 0:
                A += sign * peval(d, t) / beta ** (k + 1)
            else:
                B += sign * peval(d, t) / beta ** (k + 1)
            d, k = pderiv(d), k + 1
        return float(A), float(B)

    (Ab, Bb), (Aa, Ba) = parts(b), parts(a)
    sb, cb = math.sin(beta * b), math.cos(beta * b)
    sa, ca = math.sin(beta * a), math.cos(beta * a)
    cos_int = (sb * Ab + cb * Bb) - (sa * Aa + ca * Ba)
    sin_int = (-cb * Ab + sb * Bb) - (-ca * Aa + sa * Ba)
    return cos_int, sin_int


# -- text in the program's expression language ---------------------------------

def num_text(c):
    """A Fraction as a literal: integer, short decimal, or p/q."""
    c = Q(c)
    if c.denominator == 1:
        return str(c.numerator)
    d = c.denominator
    while d % 2 == 0:
        d //= 2
    while d % 5 == 0:
        d //= 5
    if d == 1:  # terminating decimal, written the way a user would
        digits = 0
        while (c * 10**digits).denominator != 1:
            digits += 1
        return f"{float(c):.{digits}f}"
    return f"{c.numerator}/{c.denominator}"


def _join(terms):
    """Sum of (coefficient, factor-text) pairs; factor '' means a constant."""
    parts = []
    for c, factor in terms:
        if c == 0:
            continue
        mag = abs(c)
        if factor == "":
            body = num_text(mag)
        elif mag == 1:
            body = factor
        else:
            body = f"{num_text(mag)}*{factor}"
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(parts) if parts else "0"


def _power(var, k):
    return "" if k == 0 else (var if k == 1 else f"{var}^{k}")


def poly_text(p, var="x"):
    return _join((c, _power(var, k)) for k, c in enumerate(p))


def kernel_text(kernel):
    terms = []
    for (i, j), c in sorted(kernel.items()):
        factor = "*".join(f for f in (_power("x", i), _power("t", j)) if f)
        terms.append((c, factor))
    return _join(terms)


def float_text(v):
    """Round-trip float literal; negatives in parentheses."""
    text = repr(float(v))
    return f"({text})" if text.startswith("-") else text


# -- problems ---------------------------------------------------------------------

@dataclass(frozen=True)
class Problem:
    """One equation instance with its reference solution.

    ``phi`` is the exact solution as ascending Fractions, or None when the
    reference is a closed form named by ``ref`` (only example4 here).
    """

    name: str
    a: Q
    b: Q
    lam_text: str
    coefficient: str
    kernel: str
    rhs: str
    phi: list | None
    ref: str = "poly"
    builtin: bool = False

    def file_text(self):
        lines = [
            f"# manufactured problem {self.name}",
            f"interval_a = {num_text(self.a)}",
            f"interval_b = {num_text(self.b)}",
            f"coefficient = {self.coefficient}",
            f"lambda = {self.lam_text}",
            f"kernel = {self.kernel}",
            f"rhs = {self.rhs}",
            f"exact = {poly_text(self.phi)}",
        ]
        return "\n".join(lines) + "\n"

    def reference(self, x: float) -> float:
        if self.ref == "example4":
            return math.exp(x) / (2.0 - math.e**2)
        return float(peval(self.phi, Q(x)))


def builtin_problems():
    """The builtins with their known solutions (see the program's README)."""
    return {
        "example1": Problem("example1", Q(-1), Q(1), "-1", "1", "x*t + x^2*t^2", "1",
                            [Q(1), Q(0), Q(10, 9)], builtin=True),
        "example2": Problem("example2", Q(-1), Q(1), "-1", "1", "x^4 - t^4", "x",
                            [Q(0), Q(1)], builtin=True),
        "example3": Problem("example3", Q(0), Q(1), "-1", "1", "t*x^2 + x*t^2", "x",
                            [Q(0), Q(180, 119), Q(80, 119)], builtin=True),
        "example4": Problem("example4", Q(0), Q(1), "-1", "1", "2*exp(x)*exp(t)", "exp(x)",
                            None, ref="example4", builtin=True),
    }


def _coefficient(rng, a, b):
    """a(x) = a0 + a1 x + a2 x^2 >= 1 on [a, b], with |a1| M = 1/4."""
    m = max(abs(a), abs(b))
    a0 = rng.choice([Q(1), Q(3, 2), Q(2)])
    a1 = rng.choice([Q(1, 4), Q(-1, 4)]) / m
    a2 = rng.choice([Q(1, 2), Q(1), Q(3, 2)])
    return [a0 + abs(a1) * m, a1, a2]


def _solution(rng, a, b, degree):
    """phi* of the given degree with |phi*| >= 1 on [a, b].

    Every coefficient is a third over a power of M, so every seed's
    problems carry numbers of the same size into the exact path.
    """
    m = max(abs(a), abs(b))
    tail = [rng.choice([Q(-4, 3), Q(-2, 3), Q(-1, 3), Q(1, 3), Q(2, 3), Q(4, 3)]) / m**k
            for k in range(1, degree + 1)]
    p0 = (1 + sum(abs(c) * m ** (k + 1) for k, c in enumerate(tail))) * rng.choice([1, -1])
    return [p0 + rng.choice([Q(0), Q(1, 3), Q(2, 3)]) * (1 if p0 > 0 else -1)] + tail


def _lambda_scale(sup_k, lam, a, b, a_min):
    """Shrink factor keeping |lam| * sup|k| * (b-a) <= a_min / 2, so the
    operator is coercive and every Galerkin system is nonsingular."""
    factor = Q(1)
    while abs(lam) * sup_k * factor * (b - a) > a_min / 2:
        factor /= 2
    return factor


def poly_problem(rng, name, lam_text, interval, terms=3):
    """Polynomial a(x), a kernel of ``terms`` monomials of x/t degree <= 4,
    and phi* of degree 2."""
    a, b = interval
    coeff = _coefficient(rng, a, b)
    lam = Q(lam_text)
    kernel = {}
    while len(kernel) < terms:
        key = (rng.randint(0, 4), rng.randint(0, 4))
        kernel[key] = rng.choice([Q(1, 3), Q(-1, 3), Q(2, 3), Q(-2, 3), Q(4, 3), Q(-4, 3)])
    m = max(abs(a), abs(b))
    sup_k = sum(abs(c) * m ** (i + j) for (i, j), c in kernel.items())
    shrink = _lambda_scale(sup_k, lam, a, b, Q(1))
    kernel = {k: c * shrink for k, c in kernel.items()}
    phi = _solution(rng, a, b, 2)
    f = padd(pmul(coeff, phi), pscale(poly_kernel_integral(kernel, phi, a, b), lam))
    return Problem(name, a, b, lam_text, poly_text(coeff), kernel_text(kernel),
                   poly_text(ptrim(f)), phi)


def kinked_problem(rng, name, lam_text, interval, smooth_part=False):
    """Kernel c*|x - t|, written sqrt((x-t)^2), plus an x*t term when
    ``smooth_part`` is set."""
    a, b = interval
    coeff = _coefficient(rng, a, b)
    lam = Q(lam_text)
    c = rng.choice([Q(3, 2), Q(1, 2), Q(-1), Q(3, 4)])
    extra = rng.choice([Q(1, 2), Q(-1, 4), Q(3, 4)]) if smooth_part else Q(0)
    m = max(abs(a), abs(b))
    shrink = _lambda_scale(abs(c) * (b - a) + abs(extra) * m * m, lam, a, b, Q(1))
    c, extra = c * shrink, extra * shrink
    phi = _solution(rng, a, b, rng.choice([1, 2]))
    integral = padd(pscale(abs_kernel_integral(phi, a, b), c),
                    poly_kernel_integral({(1, 1): extra}, phi, a, b))
    f = padd(pmul(coeff, phi), pscale(integral, lam))
    kernel = f"{num_text(c)}*sqrt((x-t)^2)"
    if extra:
        kernel += f" {'-' if extra < 0 else '+'} {num_text(abs(extra))}*x*t"
    return Problem(name, a, b, lam_text, poly_text(coeff), kernel, poly_text(ptrim(f)), phi)


def smooth_problem(rng, name, lam_text, interval, kinds):
    """Separable kernels, one term per entry of ``kinds`` (expexp, cosdiff,
    sinsin), with closed-form integrals against phi*."""
    a, b = interval
    coeff = _coefficient(rng, a, b)
    lam = Q(lam_text)
    phi = _solution(rng, a, b, rng.choice([2, 3]))
    m = max(abs(a), abs(b))
    freqs = [Q(1, 2), Q(3, 4), Q(3, 2), Q(-1, 2), Q(-5, 4)]
    terms = []
    for kind in kinds:
        c = rng.choice([Q(3, 2), Q(3, 4), Q(-1, 2), Q(5, 4)])
        alpha, beta = rng.choice(freqs), rng.choice(freqs)
        sup_k = math.ceil(math.exp((abs(alpha) + abs(beta)) * m)) if kind == "expexp" else 1
        terms.append([kind, c, alpha, beta, sup_k])
    shrink = _lambda_scale(sum(abs(t[1]) * t[4] for t in terms), lam, a, b, Q(1))
    kernel_parts, rhs_parts = [], []
    for kind, c, alpha, beta, _ in terms:
        c *= shrink
        ca, cb = num_text(alpha), num_text(beta)
        if kind == "expexp":
            kernel_parts.append(f"{num_text(c)}*exp({ca}*x)*exp({cb}*t)")
            value = float(c * lam) * exp_integral(phi, beta, a, b)
            rhs_parts.append(f"{float_text(value)}*exp({ca}*x)")
        elif kind == "cosdiff":
            kernel_parts.append(f"{num_text(c)}*cos({ca}*(x - t))")
            cos_int, sin_int = trig_integrals(phi, alpha, a, b)
            rhs_parts.append(f"{float_text(float(c * lam) * cos_int)}*cos({ca}*x)")
            rhs_parts.append(f"{float_text(float(c * lam) * sin_int)}*sin({ca}*x)")
        else:
            kernel_parts.append(f"{num_text(c)}*sin({ca}*x)*sin({cb}*t)")
            _, sin_int = trig_integrals(phi, beta, a, b)
            rhs_parts.append(f"{float_text(float(c * lam) * sin_int)}*sin({ca}*x)")
    rhs = " + ".join([poly_text(ptrim(pmul(coeff, phi)))] + rhs_parts)
    kernel = " + ".join(kernel_parts).replace("+ -", "- ")
    return Problem(name, a, b, lam_text, poly_text(coeff), kernel, rhs, phi)
