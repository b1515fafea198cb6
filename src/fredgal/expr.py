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
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    DomainError,
    ExpressionSyntaxError,
    InvalidDegree,
    MissingBinding,
    UnknownIdentifier,
)
from .exact import BivarPoly

FUNCTIONS = {
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "log": np.log,
    "sqrt": np.sqrt,
}
CONSTANTS = {"pi": math.pi, "e": math.e}
VARIABLES = ("x", "t")


# `pos` is provenance for error messages, not part of the tree's identity.
@dataclass(frozen=True)
class Num:
    text: str
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Var:
    name: str
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Const:
    name: str
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Neg:
    operand: "Node"
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Node"
    right: "Node"
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"
    pos: int = field(default=-1, compare=False)


Node = Num | Var | Const | Neg | BinOp | Call

_NUMBER = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
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


class _Parser:
    """Recursive descent over the grammar

        expr   := term (("+"|"-") term)*
        term   := factor (("*"|"/") factor)*
        factor := "-" factor | power
        power  := atom ("^" factor)?
        atom   := NUMBER | "x" | "t" | "pi" | "e" | NAME "(" expr ")" | "(" expr ")"
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

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

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExpressionSyntaxError(f"unexpected {tok[1]!r}", tok[2])
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.advance()
            node = BinOp(op, node, self.term(), pos)
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.advance()
            node = BinOp(op, node, self.factor(), pos)
        return node

    def factor(self) -> Node:
        if self.peek()[0] == "-":
            _, _, pos = self.advance()
            return Neg(self.factor(), pos)
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        if self.peek()[0] == "^":
            _, _, pos = self.advance()
            node = BinOp("^", node, self.factor(), pos)
        return node

    def atom(self) -> Node:
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


def parse(text: str) -> Node:
    """Parse expression text into an immutable AST."""
    if not text.strip():
        raise ExpressionSyntaxError("empty expression", 0)
    return _Parser(text).parse()


def evaluate(node: Node, x, t=None):
    """Evaluate at a point or on a whole grid.

    ``x`` and ``t`` are numbers or numpy arrays that broadcast together; the
    tree is walked once per call, each node applied to the whole grid.  A
    scalar input gives a Python float, an array input an array of the
    broadcast shape.  Raises DomainError, naming the offending value at the
    first bad point, when any value leaves the reals, and MissingBinding
    when t is referenced but absent.
    """
    x = np.asarray(x, dtype=float)
    if t is not None:
        t = np.asarray(t, dtype=float)
    shape = x.shape if t is None else np.broadcast_shapes(x.shape, t.shape)
    with np.errstate(all="ignore"):
        value = _eval(node, x, t)
    if shape == ():
        return float(value)
    return np.array(np.broadcast_to(value, shape))


def _check(bad, message: str, *operands) -> None:
    """Raise DomainError if any point is flagged, with the operands' values
    at the first flagged point (in C order) filled into ``message``."""
    if np.any(bad):
        bad, *operands = np.broadcast_arrays(bad, *operands)
        at = np.unravel_index(np.argmax(bad), bad.shape)
        raise DomainError(message.format(*(float(v[at]) for v in operands)))


def _eval(node: Node, x, t):
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
        return -_eval(node.operand, x, t)
    if isinstance(node, Call):
        v = _eval(node.arg, x, t)
        if node.func == "log":
            _check(v <= 0.0, f"log of nonpositive value {{}} (offset {node.pos})", v)
        if node.func == "sqrt":
            _check(v < 0.0, f"sqrt of negative value {{}} (offset {node.pos})", v)
        r = FUNCTIONS[node.func](v)
        # what math.exp/sin/... reject: nan from a number, or overflow
        _check(
            (np.isnan(r) & ~np.isnan(v)) | (np.isinf(r) & np.isfinite(v)),
            f"{node.func}({{}}) is undefined (offset {node.pos})",
            v,
        )
        return r
    if isinstance(node, BinOp):
        a = _eval(node.left, x, t)
        b = _eval(node.right, x, t)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            _check(b == 0.0, f"division of {{}} by zero (offset {node.pos})", a)
            return a / b
        r = np.power(a, b)
        # what math.pow rejects: a nonfinite result from finite operands
        _check(
            np.isfinite(a) & np.isfinite(b) & ~np.isfinite(r),
            f"{{}} ^ {{}} is undefined (offset {node.pos})",
            a,
            b,
        )
        return r
    raise TypeError(f"not an expression node: {node!r}")


def variables(node: Node) -> set[str]:
    """Set of variable names the expression actually uses."""
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Neg):
        return variables(node.operand)
    if isinstance(node, Call):
        return variables(node.arg)
    if isinstance(node, BinOp):
        return variables(node.left) | variables(node.right)
    return set()


def to_text(node: Node) -> str:
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


class _NotPolynomial(Exception):
    pass


def to_polynomial(node: Node) -> BivarPoly | None:
    """Expand into a bivariate polynomial with exact rational coefficients,
    or return None when the expression is not such a polynomial.

    Requirements: no functions or named constants, division only by nonzero
    constants, exponents that are nonnegative integer literals, and an
    expanded total degree within the exact-path cap.
    """
    try:
        return _poly(node)
    except _NotPolynomial:
        return None
    except InvalidDegree:
        # expansion blew past the representable cap; treat as non-polynomial
        return None


def _literal_fraction(text: str) -> Fraction:
    return Fraction(text)  # exact for decimal and exponent literals


def _poly(node: Node) -> BivarPoly:
    if isinstance(node, Num):
        return BivarPoly.const(_literal_fraction(node.text))
    if isinstance(node, Var):
        return BivarPoly.variable(node.name)
    if isinstance(node, (Const, Call)):
        raise _NotPolynomial
    if isinstance(node, Neg):
        return -_poly(node.operand)
    if isinstance(node, BinOp):
        if node.op == "^":
            if not isinstance(node.right, Num):
                raise _NotPolynomial
            k = _literal_fraction(node.right.text)
            if k.denominator != 1 or k < 0:
                raise _NotPolynomial
            return _poly(node.left) ** int(k)
        left = _poly(node.left)
        right = _poly(node.right)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        divisor = right.constant_value()
        if divisor is None or divisor == 0:
            raise _NotPolynomial
        return left.scale(Fraction(1) / divisor)
    raise TypeError(f"not an expression node: {node!r}")
