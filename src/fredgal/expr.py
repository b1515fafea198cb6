"""Math expressions in the variables x and t: parsing, evaluation, and
polynomial detection.

The language covers +, -, *, / and right-associative ^, parentheses, the
constants pi and e, and the one-argument functions exp, sin, cos, log, sqrt.
Implicit multiplication is not supported: write x*t, not xt.  Literal
fractions like 10/9 are ordinary division nodes; polynomial detection folds
them into exact rationals.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from dataclasses import FrozenInstanceError
from decimal import Decimal, InvalidOperation

import numpy as np

from .errors import (
    DomainError,
    ExpressionSyntaxError,
    MissingBinding,
    UnknownIdentifier,
)

FUNCTIONS = {
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "log": np.log,
    "sqrt": np.sqrt,
}
CONSTANTS = {"pi": math.pi, "e": math.e}
VARIABLES = ("x", "t")
# Highest total degree of a polynomial ``to_polynomial`` expands
MAX_TOTAL_DEGREE = 100


def _node(name: str, fields: str) -> type:
    """An immutable AST node type: a named tuple of ``fields`` and ``pos``,
    the offset of the node's token in the text.  ``pos`` is provenance for
    error messages, not part of the tree's identity: nodes compare and hash
    by type and the other fields, never equal a plain tuple, have no order,
    and refuse attribute assignment and deletion."""
    cls = namedtuple(name, f"{fields} pos", defaults=(-1,))

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self[:-1] == other[:-1]

    def __ne__(self, other):
        return not __eq__(self, other)

    def __hash__(self):
        return hash(self[:-1])

    def unordered(self, other):
        raise TypeError(f"{name} nodes have no order")

    def frozen(self, attr, *value):
        raise FrozenInstanceError(f"cannot assign to or delete field {attr!r}")

    cls.__eq__, cls.__ne__, cls.__hash__ = __eq__, __ne__, __hash__
    cls.__lt__ = cls.__le__ = cls.__gt__ = cls.__ge__ = unordered
    cls.__setattr__ = cls.__delattr__ = frozen
    return cls


Num = _node("Num", "text")
Var = _node("Var", "name")
Const = _node("Const", "name")
Neg = _node("Neg", "operand")
BinOp = _node("BinOp", "op left right")
Call = _node("Call", "func arg")
Node = Num | Var | Const | Neg | BinOp | Call

# The parser builds its nodes as _new(Cls, (*fields, pos)): all a named
# tuple's generated __new__ does, without that Python-level call, so a
# parsed node is the same value its constructor makes
_new = tuple.__new__

# whitespace, then one token: a number, a name, an operator or parenthesis,
# or any other character, which is an error
_TOKEN = re.compile(
    r"(\s*)(?:(\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^()])|(\S))"
)

# deepest nesting allowed: far above the benchmark's 11, far inside the recursion limit
MAX_DEPTH = 100
_TOO_DEEP = f"expression nested deeper than {MAX_DEPTH} levels"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The tokens (kind, text, offset) of expression text, ending in an
    ("end", "", len(text)) token; an operator's kind is its own text."""
    tokens = []
    pos = 0
    # without trailing whitespace, where each start would rescan the rest
    for space, num, name, op, other in _TOKEN.findall(text.rstrip()):
        pos += len(space)
        if op:
            tokens.append((op, op, pos))
            pos += 1
        elif num:
            tokens.append(("num", num, pos))
            pos += len(num)
        elif name:
            tokens.append(("name", name, pos))
            pos += len(name)
        else:
            raise ExpressionSyntaxError(f"unexpected character {other!r}", pos)
    tokens.append(("end", "", len(text)))
    return tokens


def parse(text: str) -> Node:
    """Parse expression text into an immutable AST of at most MAX_DEPTH levels.

    Recursive descent over the grammar

        expr   := term (("+"|"-") term)*
        term   := factor (("*"|"/") factor)*
        factor := "-" factor | atom ("^" factor)?
        atom   := NUMBER | "x" | "t" | "pi" | "e" | NAME "(" expr ")" | "(" expr ")"

    The tokens are held in reverse, so the next one is ``tokens[-1]`` and
    ``tokens.pop()`` takes it; the end token is never taken.
    """
    if not text.strip():
        raise ExpressionSyntaxError("empty expression", 0)
    tokens = _tokenize(text)
    count = len(tokens)
    tokens.reverse()
    node = _expr(tokens, 0)
    kind, token, pos = tokens[-1]
    if kind != "end":
        raise ExpressionSyntaxError(f"unexpected {token!r}", pos)
    # a tree has no more levels than tokens, so only a long text can chain
    # sums or products deeper than the parser's own nesting
    if count > MAX_DEPTH:
        _check_depth(node)
    return node


# ``depth`` counts the factors open around a call: every recursion of the
# parser opens one, and a factor past MAX_DEPTH is refused at its first token.
def _expr(tokens: list, depth: int) -> Node:
    node = _term(tokens, depth)
    while tokens[-1][0] in ("+", "-"):
        op, _, pos = tokens.pop()
        node = _new(BinOp, (op, node, _term(tokens, depth), pos))
    return node


def _term(tokens: list, depth: int) -> Node:
    depth += 1
    node = _factor(tokens, depth)
    while tokens[-1][0] in ("*", "/"):
        op, _, pos = tokens.pop()
        node = _new(BinOp, (op, node, _factor(tokens, depth), pos))
    return node


def _factor(tokens: list, depth: int) -> Node:
    kind, text, pos = tokens[-1]
    if depth > MAX_DEPTH:
        raise ExpressionSyntaxError(_TOO_DEEP, pos)
    if kind == "num":
        tokens.pop()
        node = _new(Num, (text, pos))
    elif kind == "name":
        tokens.pop()
        if text in VARIABLES:
            node = _new(Var, (text, pos))
        elif text in CONSTANTS:
            node = _new(Const, (text, pos))
        elif text in FUNCTIONS:
            _expect(tokens, "(", f"'(' after function {text!r}")
            node = _new(Call, (text, _expr(tokens, depth), pos))
            _expect(tokens, ")", "')'")
        else:
            raise UnknownIdentifier(f"unknown identifier {text!r}", pos)
    elif kind == "-":
        tokens.pop()
        return _new(Neg, (_factor(tokens, depth + 1), pos))
    elif kind == "(":
        tokens.pop()
        node = _expr(tokens, depth)
        _expect(tokens, ")", "')'")
    elif kind == "end":
        raise ExpressionSyntaxError("unexpected end of expression", pos)
    else:
        raise ExpressionSyntaxError(f"unexpected {text!r}", pos)
    if tokens[-1][0] == "^":
        _, _, pos = tokens.pop()
        node = _new(BinOp, ("^", node, _factor(tokens, depth + 1), pos))
    return node


def _expect(tokens: list, kind: str, what: str) -> None:
    if tokens[-1][0] != kind:
        raise ExpressionSyntaxError(f"expected {what}", tokens[-1][2])
    tokens.pop()


def _check_depth(node: Node) -> None:
    """Refuse a tree deeper than MAX_DEPTH, found without recursion."""
    stack = [(node, 1)]
    while stack:
        node, level = stack.pop()
        if level > MAX_DEPTH:
            raise ExpressionSyntaxError(_TOO_DEEP, node.pos)
        stack += ((child, level + 1) for child in node if isinstance(child, Node))


def evaluate(node: Node, x, t=None):
    """Evaluate at a point or on a whole grid.

    ``x`` and ``t`` are numbers or numpy arrays that broadcast together; the
    tree is walked once per call, each node applied to the whole grid.  A
    scalar input gives a Python float, an array input a fresh array of the
    broadcast shape.  Raises DomainError, naming the offending value at the
    first bad point, when any value leaves the reals, and MissingBinding
    when t is referenced but absent.
    """
    x = np.asarray(x, dtype=float)
    if t is not None:
        t = np.asarray(t, dtype=float)
    shape = x.shape if t is None else np.broadcast(x, t).shape
    with np.errstate(all="ignore"):
        value = _eval(node, x, t)
    if shape == ():
        return float(value)
    # a node's result is a new array; only a bare variable hands back the input
    if type(value) is np.ndarray and value.shape == shape and value is not x and value is not t:
        return value
    return np.array(np.broadcast_to(value, shape))


def _check(bad, message: str, *operands) -> None:
    """Raise DomainError if any point is flagged, with the operands' values
    at the first flagged point (in C order) filled into ``message``."""
    if np.any(bad):
        bad, *operands = np.broadcast_arrays(bad, *operands)
        at = np.unravel_index(np.argmax(bad), bad.shape)
        raise DomainError(message.format(*(float(v[at]) for v in operands)))


def _finite(value) -> bool:
    """True when the sum of the values is finite, and so is every value.
    False when any value is not finite, but also on an overflow of finite
    values: callers then test each point (``_check``), and that alone
    decides whether to raise."""
    return math.isfinite(value if isinstance(value, float) else np.add.reduce(value, None))


# Every domain error leaves a non-finite value at its bad point (log of a
# value <= 0 is -inf or nan, sqrt of a negative nan, a/0 ±inf or nan, and
# the post-checks look for non-finite results only), so a checked node
# tests its result once and builds the masks only when that test fails.
def _eval(node: Node, x, t):
    kind = type(node)
    if kind is BinOp:
        a = _eval(node.left, x, t)
        b = _eval(node.right, x, t)
        op = node.op
        if op == "*":
            return a * b
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "/":
            try:
                r = a / b
            except ZeroDivisionError:  # two Python floats; numpy gives ±inf or nan
                r = math.nan
            if not _finite(r):
                _check(b == 0.0, f"division of {{}} by zero (offset {node.pos})", a)
            return r
        r = np.power(a, b)
        if not _finite(r):
            # what math.pow rejects: a nonfinite result from finite operands
            _check(
                np.isfinite(a) & np.isfinite(b) & ~np.isfinite(r),
                f"{{}} ^ {{}} is undefined (offset {node.pos})",
                a,
                b,
            )
        return r
    if kind is Num:
        return float(node.text)
    if kind is Var:
        if node.name == "x":
            return x
        if t is None:
            raise MissingBinding("expression references t but no t was given")
        return t
    if kind is Call:
        v = _eval(node.arg, x, t)
        r = FUNCTIONS[node.func](v)
        if not _finite(r):
            if node.func == "log":
                _check(v <= 0.0, f"log of nonpositive value {{}} (offset {node.pos})", v)
            if node.func == "sqrt":
                _check(v < 0.0, f"sqrt of negative value {{}} (offset {node.pos})", v)
            # what math.exp/sin/... reject: nan from a number, or overflow
            _check(
                (np.isnan(r) & ~np.isnan(v)) | (np.isinf(r) & np.isfinite(v)),
                f"{node.func}({{}}) is undefined (offset {node.pos})",
                v,
            )
        return r
    if kind is Neg:
        return -_eval(node.operand, x, t)
    if kind is Const:
        return CONSTANTS[node.name]
    raise TypeError(f"not an expression node: {node!r}")


def variables(node: Node) -> set[str]:
    """Set of variable names the expression actually uses."""
    found = set()
    stack = [node]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is BinOp:
            stack += (node.left, node.right)
        elif kind is Var:
            found.add(node.name)
        elif kind is Call:
            stack.append(node.arg)
        elif kind is Neg:
            stack.append(node.operand)
    return found


class _NotPolynomial(ValueError):  # a ValueError, as decimal_ratio's other callers expect
    pass


def to_polynomial(node: Node) -> tuple[_Terms, int] | None:
    """Expand into a bivariate polynomial with exact rational coefficients,
    or return None when the expression is not such a polynomial.

    The polynomial is a pair (terms, den): Σ terms[(i, j)]/den·x^i·t^j,
    with integer numerators, no zero entries, den > 0 and
    gcd(den, *terms.values()) == 1, so each polynomial has one pair.

    Requirements: no functions or named constants, division only by nonzero
    constants, exponents that are nonnegative integer literals, an expanded
    total degree within MAX_TOTAL_DEGREE, and powers of bounded size: in
    base^k, k times the bit length of the largest numerator or denominator
    of the base, written over its least common denominator, may be at most
    MAX_TOTAL_DEGREE·1024 (a float-range value raised to the degree cap).
    """
    try:
        return _reduced(*_poly(node))
    except _NotPolynomial:
        return None


# An expanded expression is a pair (terms, den): the polynomial
# Σ terms[(i, j)]/den·x^i·t^j with integer numerators, no zero entries and
# den > 0, not necessarily in lowest terms.
_Terms = dict[tuple[int, int], int]


def _reduced(terms: _Terms, den: int) -> tuple[_Terms, int]:
    """The pair divided by its content gcd(den, *terms.values())."""
    g = math.gcd(den, *terms.values())
    return {key: c // g for key, c in terms.items()}, den // g


def _oversized(bits: int) -> bool:
    """The size rule: a power or a literal whose numerator or denominator,
    over its least common denominator, needs more than this many bits is
    not a polynomial (a float-range value raised to the degree cap)."""
    return bits > MAX_TOTAL_DEGREE * 1024


def decimal_ratio(value: Decimal) -> tuple[int, int]:
    """Exact (numerator, denominator) of a finite Decimal in lowest terms; a
    ValueError past the size rule, checked first on the digits and exponent
    alone: L digits make more than 3·(L-1) bits, and a value of adjusted
    exponent A has a numerator or denominator of more than 3·(|A|-1) bits."""
    if _oversized(3 * max(len(value.as_tuple().digits) - 1, abs(value.adjusted()) - 1)):
        raise _NotPolynomial
    num, den = value.as_integer_ratio()
    if _oversized(max(abs(num), den).bit_length()):
        raise _NotPolynomial
    return num, den


# an integer or decimal of at most 300 digits a side: 10^300 is inside the
# float range and the size rule, and 601 characters are inside the smallest
# limit on int/str conversion the interpreter allows (640 digits)
_PLAIN = re.compile(r"([-+]?\d{1,300})(?:\.(\d{1,300}))?")


def plain_ratio(text: str) -> tuple[int, int] | None:
    """The value of an optionally signed integer or decimal of at most 300
    digits a side, read with integer arithmetic alone, as its digits over a
    power of ten: (7, 1) for 7, (-250, 1000) for -0.250, not in lowest
    terms; None for any other text."""
    plain = _PLAIN.fullmatch(text)
    if plain is None:
        return None
    whole, fraction = plain.groups()
    if fraction is None:
        return int(whole), 1
    return int(whole + fraction), 10 ** len(fraction)


def _literal(text: str) -> tuple[int, int]:
    """Exact (numerator, denominator) of a number literal: 12, 0.25, 1.5e-3.
    A literal past the size rule is not a polynomial."""
    if text.isdecimal():
        try:
            return int(text), 1
        except ValueError:  # more digits than int() reads; Decimal reads them
            pass
    elif (ratio := plain_ratio(text)) is not None:
        num, den = ratio
        g = math.gcd(num, den)
        return num // g, den // g
    try:
        value = Decimal(text)
    except InvalidOperation:  # an exponent beyond Decimal's range
        value = Decimal(text.lower().partition("e")[0])
        if value:
            raise _NotPolynomial from None
    return decimal_ratio(value) if value else (0, 1)


def _degree(terms: _Terms) -> int:
    return max(map(sum, terms), default=0)


def _mul(left: _Terms, right: _Terms) -> _Terms:
    out: _Terms = {}
    for (i1, j1), c1 in left.items():
        for (i2, j2), c2 in right.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


# the keys of a constant polynomial: none (zero) or the constant term
_CONSTANT = {(0, 0)}


def _poly(node: Node) -> tuple[_Terms, int]:
    kind = type(node)
    if kind is BinOp:
        op = node.op
        if op == "^":
            return _power(node)
        left, lden = _poly(node.left)
        right, rden = _poly(node.right)
        if op == "+" or op == "-":
            den = math.lcm(lden, rden)
            lscale, rscale = den // lden, den // rden
            if op == "-":
                rscale = -rscale
            out = {key: c * lscale for key, c in left.items()}
            for key, c in right.items():
                out[key] = out.get(key, 0) + c * rscale
            return {key: c for key, c in out.items() if c}, den
        if op == "/":
            divisor = right.get((0, 0))
            if not divisor or len(right) > 1:
                raise _NotPolynomial
            # multiply by rden/divisor, the sign kept in the numerator
            right, rden = {(0, 0): rden if divisor > 0 else -rden}, abs(divisor)
        # a constant factor only scales the other; over the rationals
        # deg(p·q) = deg p + deg q, so the cap is checked before a product
        # of two polynomials in x and t is formed
        if right.keys() <= _CONSTANT:
            return _scaled(left, right.get((0, 0))), lden * rden
        if left.keys() <= _CONSTANT:
            return _scaled(right, left.get((0, 0))), lden * rden
        if len(left) == 1 == len(right):  # two monomials: one product
            ((i1, j1), c1), = left.items()
            ((i2, j2), c2), = right.items()
            i, j = i1 + i2, j1 + j2
            if i + j > MAX_TOTAL_DEGREE:
                raise _NotPolynomial
            return {(i, j): c1 * c2}, lden * rden
        if _degree(left) + _degree(right) > MAX_TOTAL_DEGREE:
            raise _NotPolynomial
        return _mul(left, right), lden * rden
    if kind is Num:
        num, den = _literal(node.text)
        return ({(0, 0): num} if num else {}), den
    if kind is Var:
        return {(1, 0) if node.name == "x" else (0, 1): 1}, 1
    if kind is Neg:
        terms, den = _poly(node.operand)
        return {key: -c for key, c in terms.items()}, den
    if kind is Const or kind is Call:
        raise _NotPolynomial
    raise TypeError(f"not an expression node: {node!r}")


def _scaled(terms: _Terms, factor: int | None) -> _Terms:
    """terms times a constant factor, None standing for zero."""
    return {key: c * factor for key, c in terms.items()} if factor else {}


def _power(node: BinOp) -> tuple[_Terms, int]:
    """base^k for a nonnegative integer literal k; the degree cap and the
    size bound are checked before anything is expanded."""
    if type(node.right) is not Num:
        raise _NotPolynomial
    num, den = _literal(node.right.text)
    if num < 0 or num % den:
        raise _NotPolynomial
    k = num // den
    if type(node.left) is Var and k <= MAX_TOTAL_DEGREE:
        return {(k, 0) if node.left.name == "x" else (0, k): 1}, 1
    terms, den = _poly(node.left)
    if not terms:
        return ({} if k else {(0, 0): 1}), 1
    terms, den = _reduced(terms, den)
    if _degree(terms) * k > MAX_TOTAL_DEGREE:
        raise _NotPolynomial
    if _oversized(k * max(den, *map(abs, terms.values())).bit_length()):
        raise _NotPolynomial
    if len(terms) == 1:
        ((i, j), c), = terms.items()
        return {(i * k, j * k): c**k}, den**k
    out = {(0, 0): 1}  # the base has a variable, so k <= MAX_TOTAL_DEGREE
    for _ in range(k):
        out = _mul(out, terms)
    return out, den**k
