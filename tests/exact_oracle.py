"""Exact oracles the tests check the solver against: polynomial arithmetic
on ``{(deg_x, deg_t): Fraction}`` dicts, a Fraction per coefficient, and
the expansion of an expression node by node with it, independent of the
integer arithmetic ``to_polynomial`` uses, with the conversions between
those dicts and the (terms, den) pairs ``to_polynomial`` gives; the
expression walker that checks the domain at every node, for ``evaluate``,
which checks only where a result is not finite; the residual of a
candidate solution, independent of the Galerkin projection; the paper's Galerkin system in the Bernstein
basis, assembled in closed form and independent of the Legendre assembly
the solver uses; the Legendre form of a rational Bernstein system,
independent of the closed form ``fredgal.basis`` uses; Gaussian
elimination with a Fraction per entry, independent of the fraction-free
integer elimination ``solve_rational_system`` uses; the fully
parenthesized text of an expression and of a problem file, for round
trips through the parsers; and the character-loop tokenizer and the
digit-string literal reader the expression front end used before it
scanned with one regex and read literals through ``Decimal``; the
method-per-rule recursive descent parser ``fredgal.expr.parse`` used
before it held its tokens reversed and merged the factor rules; the
Bernstein-to-monomial conversion with its own hand-scaled Taylor shift,
which ``bernstein_to_monomial`` replaced by the shift the exact assembly
uses; that shift by Horner steps alone, which ``fredgal.basis._shift``
writes in closed form when the interval starts at 0; and the builtin
problems built field by field, as they were before ``fredgal.problems``
read them as problem-file text."""

import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np

from fredgal.errors import (
    DomainError,
    ExpressionSyntaxError,
    InvalidDegree,
    MissingBinding,
    SingularSystem,
    UnknownIdentifier,
)
from fredgal.exact import ExactProblem
from fredgal.expr import (
    CONSTANTS,
    FUNCTIONS,
    MAX_DEPTH,
    MAX_TOTAL_DEGREE,
    VARIABLES,
    BinOp,
    Call,
    Const,
    Neg,
    Num,
    Var,
    parse,
)
from fredgal.galerkin import FredholmProblem


def poly(terms) -> dict:
    """The polynomial {(deg_x, deg_t): Fraction} of the given terms, zero
    coefficients dropped, so equal polynomials are equal dicts; raises
    InvalidDegree for a term past the degree cap."""
    out = {}
    for (i, j), c in terms.items():
        if not c:
            continue
        if i + j > MAX_TOTAL_DEGREE:
            raise InvalidDegree(f"total degree {i + j} exceeds the cap of {MAX_TOTAL_DEGREE}")
        out[(i, j)] = Fraction(c)
    return out


def from_pair(pair) -> dict:
    """The Fraction polynomial of a (terms, den) pair."""
    terms, den = pair
    return poly({key: Fraction(c, den) for key, c in terms.items()})


def to_pair(p: dict) -> tuple[dict, int]:
    """The (terms, den) pair of a Fraction polynomial: integer numerators
    over the least common denominator."""
    den = math.lcm(*(c.denominator for c in p.values()))
    return {key: c.numerator * (den // c.denominator) for key, c in p.items()}, den


def poly_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for key, c in q.items():
        out[key] = out.get(key, Fraction(0)) + c
    return poly(out)


def poly_scale(p: dict, factor) -> dict:
    factor = Fraction(factor)
    return poly({k: c * factor for k, c in p.items()})


def poly_sub(p: dict, q: dict) -> dict:
    return poly_add(p, poly_scale(q, -1))


def poly_mul(p: dict, q: dict) -> dict:
    """The product; raises InvalidDegree past the degree cap."""
    out = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return poly(out)


def poly_pow(p: dict, k: int) -> dict:
    """p^k by repeated squaring."""
    result, base = {(0, 0): Fraction(1)}, p
    while k:
        if k & 1:
            result = poly_mul(result, base)
        k >>= 1
        if k:
            base = poly_mul(base, base)
    return result


def coefficients_in_x(p: dict) -> list[Fraction]:
    """Ascending coefficients of a polynomial in x alone."""
    return [p.get((i, 0), Fraction(0)) for i in range(max((i for i, _ in p), default=0) + 1)]


class _NotPolynomial(Exception):
    pass


def reference_polynomial(node) -> dict | None:
    """``to_polynomial`` computed node by node on Fraction polynomials: each
    literal read by ``Fraction(Decimal(text))`` (``Fraction(text)`` stops at
    Python's 4,300-digit int-string limit), each intermediate result a
    polynomial, None when the expression is not a polynomial or an
    intermediate result has a term past the degree cap."""
    try:
        return _reference(node)
    except (_NotPolynomial, InvalidDegree):
        return None


def _reference(node) -> dict:
    if isinstance(node, Num):
        return poly({(0, 0): Fraction(Decimal(node.text))})
    if isinstance(node, Var):
        return {(1, 0) if node.name == "x" else (0, 1): Fraction(1)}
    if isinstance(node, (Const, Call)):
        raise _NotPolynomial
    if isinstance(node, Neg):
        return poly_scale(_reference(node.operand), -1)
    if node.op == "^":
        if not isinstance(node.right, Num):
            raise _NotPolynomial
        k = Fraction(Decimal(node.right.text))
        if k.denominator != 1 or k < 0:
            raise _NotPolynomial
        return poly_pow(_reference(node.left), int(k))
    left, right = _reference(node.left), _reference(node.right)
    if node.op == "+":
        return poly_add(left, right)
    if node.op == "-":
        return poly_sub(left, right)
    if node.op == "*":
        return poly_mul(left, right)
    if set(right) - {(0, 0)} or not right:
        raise _NotPolynomial  # division by a variable or by zero
    return poly_scale(left, 1 / right[(0, 0)])


def reference_evaluate(node, x, t=None):
    """``evaluate`` with every domain check run at every node on the whole
    grid, whatever the values: the same results, types and DomainError
    messages, computed by building each check's mask unconditionally."""
    x = np.asarray(x, dtype=float)
    if t is not None:
        t = np.asarray(t, dtype=float)
    shape = x.shape if t is None else np.broadcast_shapes(x.shape, t.shape)
    with np.errstate(all="ignore"):
        value = _reference_eval(node, x, t)
    if shape == ():
        return float(value)
    return np.array(np.broadcast_to(value, shape))


def _reference_check(bad, message: str, *operands) -> None:
    """Raise DomainError if any point is flagged, with the operands' values
    at the first flagged point (in C order) filled into ``message``."""
    if np.any(bad):
        bad, *operands = np.broadcast_arrays(bad, *operands)
        at = np.unravel_index(np.argmax(bad), bad.shape)
        raise DomainError(message.format(*(float(v[at]) for v in operands)))


def _reference_eval(node, x, t):
    if isinstance(node, Num):
        return float(node.text)
    if isinstance(node, Var):
        if node.name == "x":
            return x
        if t is None:
            raise MissingBinding("expression references t but no t was given")
        return t
    if isinstance(node, Const):
        return CONSTANTS[node.name]
    if isinstance(node, Neg):
        return -_reference_eval(node.operand, x, t)
    if isinstance(node, Call):
        v = _reference_eval(node.arg, x, t)
        if node.func == "log":
            _reference_check(v <= 0.0, f"log of nonpositive value {{}} (offset {node.pos})", v)
        if node.func == "sqrt":
            _reference_check(v < 0.0, f"sqrt of negative value {{}} (offset {node.pos})", v)
        r = FUNCTIONS[node.func](v)
        # what math.exp/sin/... reject: nan from a number, or overflow
        _reference_check(
            (np.isnan(r) & ~np.isnan(v)) | (np.isinf(r) & np.isfinite(v)),
            f"{node.func}({{}}) is undefined (offset {node.pos})",
            v,
        )
        return r
    if isinstance(node, BinOp):
        a = _reference_eval(node.left, x, t)
        b = _reference_eval(node.right, x, t)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            _reference_check(b == 0.0, f"division of {{}} by zero (offset {node.pos})", a)
            return a / b
        r = np.power(a, b)
        # what math.pow rejects: a nonfinite result from finite operands
        _reference_check(
            np.isfinite(a) & np.isfinite(b) & ~np.isfinite(r),
            f"{{}} ^ {{}} is undefined (offset {node.pos})",
            a,
            b,
        )
        return r
    raise TypeError(f"not an expression node: {node!r}")


def residual_poly(problem: ExactProblem, phi: dict) -> dict:
    """a·phi + lam·∫ k(t,x)·phi(t) dt - f for a candidate solution phi(x),
    a Fraction polynomial.

    Identically zero, {}, exactly when phi solves the equation.
    """
    if any(j for _, j in phi):
        raise ValueError("candidate solution must be a polynomial in x only")
    a, b = problem.a, problem.b
    # kernel term c·x^p·t^q times phi term d·t^s integrates over t in [a, b]
    # to c·d·(b^e - a^e)/e·x^p with e = q + s + 1
    integral = {}
    for (p, q), c in from_pair(problem.kernel_poly).items():
        for (s, _), d in phi.items():
            e = q + s + 1
            integral[(p, 0)] = integral.get((p, 0), 0) + c * d * (b**e - a**e) / e
    return poly_sub(
        poly_add(poly_mul(from_pair(problem.a_poly), phi), poly_scale(poly(integral), problem.lam)),
        from_pair(problem.f_poly),
    )


def _bernstein_moments(coeffs: list, a: Fraction, h: Fraction, m: int) -> list[Fraction]:
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


def bernstein_system(
    problem: ExactProblem, n: int
) -> tuple[list[list[Fraction]], list[Fraction]]:
    """The paper's rational Galerkin system A_B·c = F_B in the degree-n
    Bernstein basis: A_B[j][i] pairs test member j with trial member i, and c
    are the Bernstein coefficients of the solution."""
    a, h = problem.a, problem.b - problem.a
    size = range(n + 1)
    comb = math.comb
    # B_i·B_j = C(n,i)·C(n,j)/C(2n,i+j)·B_{i+j}^{2n}
    weighted = _bernstein_moments(coefficients_in_x(from_pair(problem.a_poly)), a, h, 2 * n)
    A = [
        [Fraction(comb(n, i) * comb(n, j), comb(2 * n, i + j)) * weighted[i + j] for i in size]
        for j in size
    ]
    # kernel term c·x^p·t^q: its t-integral against trial member i is c·M[q][i]
    # and its x-integral against test member j is M[p][j], M[d] = moments of x^d
    kernel = from_pair(problem.kernel_poly)
    power = {d: _bernstein_moments([0] * d + [1], a, h, n) for key in kernel for d in key}
    trial = {}  # p -> lam·Σ_q c·M[q], summed first so A is swept once per p
    for (p, q), c in kernel.items():
        previous = trial.get(p, [0] * (n + 1))
        trial[p] = [r + problem.lam * c * v for r, v in zip(previous, power[q])]
    for p, row in trial.items():
        A = [[A[j][i] + row[i] * power[p][j] for i in size] for j in size]
    return A, _bernstein_moments(coefficients_in_x(from_pair(problem.f_poly)), a, h, n)


def horner_shift(nums: list[int], lo: int, hi: int, g: int) -> list[int]:
    """Ascending coefficients in u of Σ nums[s]·g^(d-s)·(lo + hi·u)^s,
    d = len(nums) - 1, expanded by Horner steps whatever lo is."""
    out = [nums[-1]]
    power = 1
    for c in reversed(nums[:-1]):
        power *= g
        out = [lo * v + hi * w for v, w in zip([*out, 0], [0, *out])]
        out[0] += c * power
    return out


def bernstein_solve(problem: ExactProblem, n: int) -> list[Fraction]:
    """Bernstein coefficients of the degree-n Galerkin solution, from the
    Bernstein system."""
    return reference_solve(*bernstein_system(problem, n))


def reference_solve(A: list[list[Fraction]], F: list[Fraction]) -> list[Fraction]:
    """Solve A·coefficients = F by Gaussian elimination on Fractions with
    first-nonzero pivoting; SingularSystem names the first column with no
    nonzero pivot.

    Rows are kept as {column: value} of their nonzero entries (column m
    holds the right-hand side).
    """
    zero = Fraction(0)
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
                value = row.get(c, zero) - factor * v
                if value:
                    row[c] = value
                else:
                    del row[c]
    coeffs = [zero] * m
    for col in reversed(range(m)):
        row = rows[col]
        acc = row.get(m, zero)
        for k, v in row.items():
            if col < k < m and coeffs[k]:
                acc -= v * coeffs[k]
        coeffs[col] = acc / row[col]
    return coeffs


def fraction_system(rows, dens, f_den) -> tuple[list[list[Fraction]], list[Fraction]]:
    """The dense rational system (A, F) of the integer rows, row
    denominators and right-hand-side denominator ``exact_assemble``
    returns."""
    m = len(rows)
    return (
        [[Fraction(row.get(i, 0), den) for i in range(m)] for row, den in zip(rows, dens)],
        [Fraction(row.get(m, 0), den * f_den) for row, den in zip(rows, dens)],
    )


def integer_rows(A, F) -> list[dict[int, int]]:
    """A rational system (A, F) as the integer rows ``solve_rational_system``
    takes: each row times the lcm of its denominators, nonzero entries only,
    the right-hand side in column m."""
    m = len(F)
    rows = []
    for row, f in zip(A, F):
        values = [Fraction(v) for v in [*row, f]]
        den = math.lcm(*(v.denominator for v in values))
        rows.append({c: v.numerator * (den // v.denominator) for c, v in enumerate(values) if v})
    return rows


def legendre_in_bernstein(n: int) -> list[list[Fraction]]:
    """R with T = R·diag(sqrt(2k+1)): R[i][k] is the i-th degree-n Bernstein
    coefficient of the shifted Legendre polynomial P_k(2u-1).

    Built from the power form P_k(2u-1) = Σ_m (-1)^(k+m)·C(k,m)·C(k+m,m)·u^m
    and u^m = Σ_i C(i,m)/C(n,m)·B_i^n.
    """
    comb = math.comb
    return [
        [
            sum(
                Fraction((-1) ** (k + m) * comb(k, m) * comb(k + m, m) * comb(i, m), comb(n, m))
                for m in range(min(i, k) + 1)
            )
            for k in range(n + 1)
        ]
        for i in range(n + 1)
    ]


def legendre_system(A, F) -> tuple[list[list[Fraction]], list[Fraction]]:
    """R.T @ A @ R and R.T @ F in rationals for a Bernstein system (A, F),
    with R = legendre_in_bernstein(n): the same system in the members
    P_k(2u-1)."""
    n = len(F) - 1
    size = range(n + 1)
    R = legendre_in_bernstein(n)
    AR = [[sum(A[j][m] * R[m][i] for m in size) for i in size] for j in size]
    return (
        [[sum(R[m][j] * AR[m][i] for m in size) for i in size] for j in size],
        [sum(R[m][j] * F[m] for m in size) for j in size],
    )


def orthonormal(A, F) -> tuple[np.ndarray, np.ndarray]:
    """The float view of a rational system in the members P_k(2u-1), scaled
    to the orthonormal members sqrt(2k+1)·P_k(2u-1) the float path uses."""
    scale = np.sqrt(2.0 * np.arange(len(F)) + 1.0)
    return (
        np.array(A, dtype=float) * np.outer(scale, scale),
        np.array(F, dtype=float) * scale,
    )


def to_text(node) -> str:
    """Fully parenthesized rendering; parses back to an identical tree."""
    if isinstance(node, Num):
        return node.text
    if isinstance(node, (Var, Const)):
        return node.name
    if isinstance(node, Neg):
        return f"(-{to_text(node.operand)})"
    if isinstance(node, Call):
        return f"{node.func}({to_text(node.arg)})"
    if isinstance(node, BinOp):
        return f"({to_text(node.left)} {node.op} {to_text(node.right)})"
    raise TypeError(f"not an expression node: {node!r}")


def format_problem(problem) -> str:
    """Problem-file text that loads back to an equivalent problem."""
    lines = [
        f"interval_a = {Fraction(problem.a)}",
        f"interval_b = {Fraction(problem.b)}",
        f"coefficient = {to_text(problem.a_expr)}",
        f"lambda = {Fraction(problem.lam)}",
        f"kernel = {to_text(problem.kernel_expr)}",
        f"rhs = {to_text(problem.f_expr)}",
    ]
    if problem.exact_expr is not None:
        lines.append(f"exact = {to_text(problem.exact_expr)}")
    return "\n".join(lines) + "\n"


def write_problem(problem, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_problem(problem))


_NUMBER = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    """The tokens (kind, text, offset) of expression text, one character
    at a time; raises ExpressionSyntaxError at the first character that
    starts no token."""
    tokens = []
    i, length = 0, len(text)
    while i < length:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        m = _NUMBER.match(text, i)
        if m:
            tokens.append(("num", m.group(), i))
            i = m.end()
            continue
        m = _NAME.match(text, i)
        if m:
            tokens.append(("name", m.group(), i))
            i = m.end()
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ExpressionSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", length))
    return tokens


_TOO_DEEP = f"expression nested deeper than {MAX_DEPTH} levels"


class _ReferenceParser:
    """Recursive descent over the grammar

        expr   := term (("+"|"-") term)*
        term   := factor (("*"|"/") factor)*
        factor := "-" factor | power
        power  := atom ("^" factor)?
        atom   := NUMBER | "x" | "t" | "pi" | "e" | NAME "(" expr ")" | "(" expr ")"
    """

    def __init__(self, text: str):
        self.tokens = reference_tokenize(text)
        self.i = 0
        self.depth = 0  # factors open; every recursion of the parser opens one

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            raise ExpressionSyntaxError(f"expected {what}", tok[2])
        return self.advance()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExpressionSyntaxError(f"unexpected {tok[1]!r}", tok[2])
        # a tree has no more levels than tokens, so only a long text can chain
        # sums or products deeper than the parser's own nesting
        if len(self.tokens) > MAX_DEPTH:
            _reference_check_depth(node)
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.advance()
            node = BinOp(op, node, self.term(), pos)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.advance()
            node = BinOp(op, node, self.factor(), pos)
        return node

    def factor(self):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExpressionSyntaxError(_TOO_DEEP, self.peek()[2])
        if self.peek()[0] == "-":
            _, _, pos = self.advance()
            node = Neg(self.factor(), pos)
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self):
        node = self.atom()
        if self.peek()[0] == "^":
            _, _, pos = self.advance()
            node = BinOp("^", node, self.factor(), pos)
        return node

    def atom(self):
        kind, text, pos = self.peek()
        if kind == "num":
            self.advance()
            return Num(text, pos)
        if kind == "name":
            self.advance()
            if text in VARIABLES:
                return Var(text, pos)
            if text in CONSTANTS:
                return Const(text, pos)
            if text in FUNCTIONS:
                self.expect("(", f"'(' after function {text!r}")
                arg = self.expr()
                self.expect(")", "')'")
                return Call(text, arg, pos)
            raise UnknownIdentifier(f"unknown identifier {text!r}", pos)
        if kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")", "')'")
            return node
        if kind == "end":
            raise ExpressionSyntaxError("unexpected end of expression", pos)
        raise ExpressionSyntaxError(f"unexpected {text!r}", pos)


def reference_parse(text: str):
    """The AST of expression text, by the method-per-rule parser over the
    character-loop tokenizer; the same errors, messages and offsets."""
    if not text.strip():
        raise ExpressionSyntaxError("empty expression", 0)
    return _ReferenceParser(text).parse()


def _reference_check_depth(node) -> None:
    """Refuse a tree deeper than MAX_DEPTH, found without recursion; the
    children of a node are pushed in field order."""
    stack = [(node, 1)]
    while stack:
        node, level = stack.pop()
        if level > MAX_DEPTH:
            raise ExpressionSyntaxError(_TOO_DEEP, node.pos)
        if isinstance(node, BinOp):
            children = (node.left, node.right)
        elif isinstance(node, Neg):
            children = (node.operand,)
        elif isinstance(node, Call):
            children = (node.arg,)
        else:
            children = ()
        stack += ((child, level + 1) for child in children)


def _oversized(bits: int) -> bool:
    return bits > MAX_TOTAL_DEGREE * 1024


def reference_literal(text: str) -> tuple[int, int] | None:
    """Exact (numerator, denominator) of a number literal, read from its
    digit string as an integer over a power of ten, or None past the size
    rule: when that integer, or the reduced numerator or denominator, needs
    more than MAX_TOTAL_DEGREE·1024 bits."""
    if text.isdecimal():
        value = _reference_integer(text)
        return None if value is None else (value, 1)
    mantissa, _, exponent = text.lower().partition("e")
    whole, _, digits = mantissa.partition(".")
    value = _reference_integer(whole + digits)
    if value is None:
        return None
    if not value:
        return 0, 1
    # an exponent of 19 or more significant digits is at least 10**18, which
    # no count of fraction digits in a text held in memory offsets
    magnitude = exponent.lstrip("+-").lstrip("0")
    if len(magnitude) > 18:
        return None
    shift = int(magnitude or 0) * (-1 if exponent.startswith("-") else 1) - len(digits)
    # 10**s has more than 3·s bits, and reducing value/10**s by their gcd
    # takes off at most value's own bits
    if _oversized(3 * abs(shift) - (value.bit_length() if shift < 0 else 0)):
        return None
    if shift >= 0:
        num, den = value * 10**shift, 1
    else:
        num, den = value, 10**-shift
        g = math.gcd(num, den)
        num, den = num // g, den // g
    return None if _oversized(max(num, den).bit_length()) else (num, den)


def _reference_integer(digits: str) -> int | None:
    """int(digits), also past the interpreter's limit on int/str conversion,
    or None when the integer is past the size rule."""
    try:
        return int(digits)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        pass
    # L significant digits are more than 3·(L-1) bits
    if _oversized(3 * (len(digits.lstrip("0")) - 1)):
        return None
    value = int(Decimal(digits))
    return None if _oversized(value.bit_length()) else value


def reference_bernstein_to_monomial(coeffs, spec) -> list:
    """``bernstein_to_monomial`` with the power form scaled by hand: the
    u^k coefficient C(n,k)·Δ^k c_0 / h^k over common·hn^n·ad^n, a Taylor
    shift by -an one Horner step per entry, and y^m = ad^m·x^m, each output
    one exact quotient, reduced once to a Fraction or rounded once to a
    float (±inf past the float range)."""
    exact = all(isinstance(c, (int, Fraction)) for c in coeffs)
    n, a = spec.n, Fraction(spec.a)
    h = Fraction(spec.b) - a
    values = [Fraction(v) for v in coeffs]
    common = math.lcm(*[v.denominator for v in values])
    diff = [v.numerator * (common // v.denominator) for v in values]
    e = []
    for k in range(n + 1):
        e.append(
            math.comb(n, k) * diff[0] * h.denominator**k
            * (h.numerator * a.denominator) ** (n - k)
        )
        diff = [right - left for left, right in zip(diff, diff[1:])]
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            e[j] -= a.numerator * e[j + 1]
    den = common * (h.numerator * a.denominator) ** n
    out = [v * a.denominator**m for m, v in enumerate(e)]
    if exact:
        return [Fraction(v, den) for v in out]
    rounded = []
    for v in out:
        try:
            rounded.append(v / den)
        except OverflowError:
            rounded.append(math.inf if v > 0 else -math.inf)
    return rounded


# phi(x) - ∫ k(t,x)·phi(t) dt = f(x): coefficient 1 and lambda -1
_BUILTIN_SPECS = {
    "example1": {
        "kernel": "x*t + x^2*t^2",
        "rhs": "1",
        "a": -1.0,
        "b": 1.0,
        "exact": "1 + 10/9*x^2",
    },
    "example2": {
        "kernel": "x^4 - t^4",
        "rhs": "x",
        "a": -1.0,
        "b": 1.0,
        "exact": "x",
    },
    "example3": {
        "kernel": "t*x^2 + x*t^2",
        "rhs": "x",
        "a": 0.0,
        "b": 1.0,
        "exact": "180/119*x + 80/119*x^2",
    },
    "example4": {
        "kernel": "2*exp(x)*exp(t)",
        "rhs": "exp(x)",
        "a": 0.0,
        "b": 1.0,
        "exact": "exp(x)/(2 - e^2)",
    },
}


def reference_builtin(name: str) -> FredholmProblem:
    """The builtin problem built field by field, with float lambda and
    endpoints."""
    spec = _BUILTIN_SPECS[name]
    return FredholmProblem(
        a_expr=parse("1"),
        lam=-1.0,
        kernel_expr=parse(spec["kernel"]),
        f_expr=parse(spec["rhs"]),
        a=spec["a"],
        b=spec["b"],
        exact_expr=parse(spec["exact"]),
    )
