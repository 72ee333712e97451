"""A small expression language over the variable t.

Recursive-descent parser, a compiler from trees to array integrands, and
a minimal-parenthesis printer.  Power is right-associative and binds
tighter than unary minus, so "-2^2" means -(2^2).  compile(e, eps) walks a
tree once and returns an ArrayFn that evaluates it over a whole array of
t: the arithmetic, sqrt, abs, sin and cos (and sec, csc, cot from them) as
numpy ops, exp, log, non-integral powers and hyperbolics through the
tower's array kernels (element by element on arrays under _ARRAY_MIN), and
tan, atan and asin element by element through math.tan and inverse_fn; the
tower runs at accuracy eps, 1e-14 unless given.  This is the one map from
a function name to the tower; theorems writes its catalog in this language.  Each element gets the same bits, and the same domain errors, as
evaluating the tree at that point alone, provided numpy's sin and cos give
math's bits (tests/test_compile.py checks that they do).  eval_expr(e, t)
compiles e and applies it to a float or an array of t, and substitute(e, g)
builds the tree of the composition e(g(t)).
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .elementary import (
    exp_array,
    exp_construct,
    hyperbolic,
    hyperbolic_array,
    inverse_fn,
    log_array,
    log_construct,
    pow_array,
    pow_construct,
)
from .errors import DomainError, EvaluationError, InvalidArgumentError, ParseError
from .partitions import ArrayFn

NUMBER = "Number"
IDENT = "Ident"
PLUS = "Plus"
MINUS = "Minus"
STAR = "Star"
SLASH = "Slash"
CARET = "Caret"
LPAREN = "LParen"
RPAREN = "RParen"
COMMA = "Comma"


@dataclass(frozen=True)
class Token:
    kind: str
    lexeme: str
    offset: int


@dataclass(frozen=True)
class Constant:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Unary:
    child: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    fname: str
    arg: "Expr"


Expr = Union[Constant, Var, Unary, Binary, Call]

FUNCTION_NAMES = (
    "sin", "cos", "tan", "sec", "csc", "cot",
    "sinh", "cosh", "tanh",
    "exp", "log", "sqrt", "abs", "atan", "asin",
)

_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_SINGLE = {
    "+": PLUS, "-": MINUS, "*": STAR, "/": SLASH,
    "^": CARET, "(": LPAREN, ")": RPAREN, ",": COMMA,
}


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SINGLE:
            tokens.append(Token(_SINGLE[ch], ch, i))
            i += 1
            continue
        if ch.isdigit():
            m = _NUMBER_RE.match(text, i)
            assert m is not None
            tokens.append(Token(NUMBER, m.group(), i))
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m is not None:
            tokens.append(Token(IDENT, m.group(), i))
            i = m.end()
            continue
        raise ParseError(i, f"unexpected character {ch!r}")
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.end = len(text)

    def _peek(self) -> Union[Token, None]:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _expect(self, kind: str, what: str) -> Token:
        tok = self._peek()
        if tok is None:
            raise ParseError(self.end, f"expected {what}")
        if tok.kind != kind:
            raise ParseError(tok.offset, f"expected {what}")
        return self._advance()

    def parse(self) -> Expr:
        node = self.expr()
        tok = self._peek()
        if tok is not None:
            raise ParseError(tok.offset, "expected end of input")
        return node

    def expr(self) -> Expr:
        node = self.term()
        while True:
            tok = self._peek()
            if tok is None or tok.kind not in (PLUS, MINUS):
                return node
            self._advance()
            node = Binary(tok.lexeme, node, self.term())

    def term(self) -> Expr:
        node = self.factor()
        while True:
            tok = self._peek()
            if tok is None or tok.kind not in (STAR, SLASH):
                return node
            self._advance()
            node = Binary(tok.lexeme, node, self.factor())

    def factor(self) -> Expr:
        # Unary minus wraps a whole power, so -2^2 is -(2^2); a negative
        # base must be written (-2)^2.
        tok = self._peek()
        if tok is not None and tok.kind == MINUS:
            self._advance()
            return Unary(self.factor())
        node = self.atom()
        tok = self._peek()
        if tok is not None and tok.kind == CARET:
            self._advance()
            return Binary("^", node, self.factor())
        return node

    def atom(self) -> Expr:
        tok = self._peek()
        if tok is None:
            raise ParseError(self.end, "expected expression")
        if tok.kind == NUMBER:
            self._advance()
            return Constant(float(tok.lexeme))
        if tok.kind == LPAREN:
            self._advance()
            node = self.expr()
            self._expect(RPAREN, "')'")
            return node
        if tok.kind == IDENT:
            self._advance()
            if tok.lexeme == "t":
                return Var()
            if tok.lexeme == "e":
                return Constant(math.e)
            if tok.lexeme == "pi":
                return Constant(math.pi)
            if tok.lexeme in FUNCTION_NAMES:
                self._expect(LPAREN, "'('")
                arg = self.expr()
                self._expect(RPAREN, "')'")
                return Call(tok.lexeme, arg)
            raise ParseError(tok.offset, f"unknown identifier {tok.lexeme!r}")
        raise ParseError(tok.offset, "expected expression")


def parse(text: str) -> Expr:
    return _Parser(text).parse()


def substitute(e: Expr, g: Expr) -> Expr:
    """The tree of e(g(t)): e with every Var replaced by g."""
    if isinstance(e, Var):
        return g
    if isinstance(e, Unary):
        return Unary(substitute(e.child, g))
    if isinstance(e, Binary):
        return Binary(e.op, substitute(e.left, g), substitute(e.right, g))
    if isinstance(e, Call):
        return Call(e.fname, substitute(e.arg, g))
    return e


_EVAL_EPS = 1e-14
_MAX_MUL_EXPONENT = 64
# Below this many elements a constructed function goes element by element: a
# kernel call on a short array costs as much as 25 to 45 scalar calls, and the
# two break even near 64 (scripts/array_tower_bench.py, BENCH_array_tower.json).
_ARRAY_MIN = 64


class _Faults:
    """The first element, in array order, with a domain violation, and the
    message of its first violation in evaluation order.

    That element is the tag at which a walk over the tags in order would
    stop, so the elements after it no longer matter: array ops still
    compute them, element-by-element ops skip them.
    """

    __slots__ = ("index", "message")

    def __init__(self, n: int):
        self.index = n
        self.message = ""

    def mark(self, where: np.ndarray, message: str) -> None:
        if where.size == 0:  # an empty array has no argmax
            return
        k = int(where.argmax())
        if where[k] and k < self.index:
            self.index, self.message = k, message


Node = Callable[[np.ndarray, _Faults], np.ndarray]


def _map(scalar: Callable[..., float], faults: _Faults, *args: np.ndarray) -> np.ndarray:
    """Apply a scalar function element by element up to the first fault; a
    ValueError or OverflowError it raises becomes the new first fault."""
    out = [math.nan] * args[0].size
    for i, row in zip(range(faults.index), zip(*(a.tolist() for a in args))):
        try:
            out[i] = scalar(*row)
        except (ValueError, OverflowError) as exc:
            faults.index, faults.message = i, str(exc)
            break
    return np.array(out, dtype=float)


def _elementwise(scalar: Callable[[float], float]) -> Node:
    return lambda x, faults: _map(scalar, faults, x)


def _tower(scalar: Callable[..., float], kernel: Callable[..., np.ndarray],
           regular: Callable[..., np.ndarray], eps: float) -> Callable[..., np.ndarray]:
    """A constructed function over arrays, called as node(*args, faults).  The
    kernel takes the regular elements, where the scalar function cannot raise
    and the kernel gives its bits; the scalar function takes the rest, in
    order up to the first fault.  Values and faults are thus those of _map,
    which short arrays (and an eps every scalar call rejects) still take."""
    def node(*args):
        *arrays, faults = args
        if arrays[0].size < _ARRAY_MIN or not eps > 0:
            return _map(scalar, faults, *arrays)
        ok = regular(*arrays)
        out = np.full(ok.size, math.nan)
        out[ok] = kernel(*(a[ok] for a in arrays))
        rest = np.flatnonzero(~ok[:faults.index])
        tail = _Faults(rest.size)
        out[rest] = _map(scalar, tail, *(a[rest] for a in arrays))
        if tail.index < rest.size:
            faults.index, faults.message = int(rest[tail.index]), tail.message
        return out
    return node


def _positive(x: np.ndarray) -> np.ndarray:
    return np.isfinite(x) & (x > 0.0)


def _pow_regular(base: np.ndarray, expo: np.ndarray) -> np.ndarray:
    # |expo| < 2^1000 keeps expo * log(base) finite, as |log(base)| < 745.
    small_int = (np.floor(expo) == expo) & (np.abs(expo) <= _MAX_MUL_EXPONENT)
    return _positive(base) & (np.abs(expo) < 2.0 ** 1000) & ~small_int


def _trig(ufunc: np.ufunc) -> Node:
    def op(x: np.ndarray, faults: _Faults) -> np.ndarray:
        faults.mark(np.isinf(x), "math domain error")  # as math.sin and math.cos raise
        return ufunc(x)
    return op


_sin, _cos = _trig(np.sin), _trig(np.cos)


def _reciprocal(fn: Node, name: str) -> Node:
    def op(x: np.ndarray, faults: _Faults) -> np.ndarray:
        d = fn(x, faults)
        faults.mark(d == 0.0, f"{name} undefined")
        return 1.0 / d
    return op


def _cot(x: np.ndarray, faults: _Faults) -> np.ndarray:
    s = _sin(x, faults)
    faults.mark(s == 0.0, "cot undefined")
    return np.cos(x) / s


def _sqrt(x: np.ndarray, faults: _Faults) -> np.ndarray:
    faults.mark(x < 0.0, "sqrt of a negative value")
    return np.sqrt(x)


def _divide(left: np.ndarray, right: np.ndarray, faults: _Faults) -> np.ndarray:
    faults.mark(right == 0.0, "division by zero")
    return left / right


# numpy's sin, cos, sqrt, abs and arithmetic give the same bits as math and
# Python floats (tests/test_compile.py checks the ufuncs against math).  exp,
# log, powers and hyperbolics are the constructed ones, called at the eps
# given to compile(): over an array of at least _ARRAY_MIN elements through
# the tower's array kernels, which give the scalar functions' bits, and
# element by element otherwise.  tan, atan and asin always go element by
# element: np.tan differs from math.tan in the last bit at some points, and
# atan and asin bisect math.tan and math.sin.  Each entry takes that eps and
# returns the node.  The lambdas look the scalar functions up at call time,
# so wrapping them in this module (as perfbench/layers.py does) sees every
# call that does not go through a kernel.
_FUNCTIONS: dict[str, Callable[[float], Node]] = {
    "sin": lambda eps: _sin,
    "cos": lambda eps: _cos,
    "tan": lambda eps: _elementwise(math.tan),
    "sec": lambda eps: _reciprocal(_cos, "sec"),
    "csc": lambda eps: _reciprocal(_sin, "csc"),
    "cot": lambda eps: _cot,
    "sinh": lambda eps: _tower(lambda x: hyperbolic("sinh", x, eps),
                               lambda x: hyperbolic_array("sinh", x, eps), np.isfinite, eps),
    "cosh": lambda eps: _tower(lambda x: hyperbolic("cosh", x, eps),
                               lambda x: hyperbolic_array("cosh", x, eps), np.isfinite, eps),
    "tanh": lambda eps: _tower(lambda x: hyperbolic("tanh", x, eps),
                               lambda x: hyperbolic_array("tanh", x, eps), np.isfinite, eps),
    "exp": lambda eps: _tower(lambda x: exp_construct(x, eps), lambda x: exp_array(x, eps),
                              np.isfinite, eps),
    "log": lambda eps: _tower(lambda x: log_construct(x, eps).value,
                              lambda x: log_array(x, eps)[0], _positive, eps),
    "sqrt": lambda eps: _sqrt,
    "abs": lambda eps: lambda x, faults: np.abs(x),
    "atan": lambda eps: _elementwise(lambda x: inverse_fn("arctan", x, eps)),
    "asin": lambda eps: _elementwise(lambda x: inverse_fn("arcsin", x, eps)),
}

_OPERATORS = {
    "+": lambda left, right, faults: left + right,
    "-": lambda left, right, faults: left - right,
    "*": lambda left, right, faults: left * right,
    "/": _divide,
}


def _power(base: float, expo: float, eps: float) -> float:
    """base^expo for one element: repeated multiplication for a small
    integral exponent, the constructed pow otherwise."""
    if expo == expo and expo.is_integer() and abs(expo) <= _MAX_MUL_EXPONENT:
        n = int(expo)
        out = 1.0
        for _ in range(abs(n)):
            out *= base
        if n >= 0:
            return out
        if out == 0.0:
            raise DomainError("zero raised to a negative power")
        return 1.0 / out
    if base == 0.0:
        if expo > 0.0:
            return 0.0
        raise DomainError("zero raised to a nonpositive power")
    if base < 0.0:
        raise DomainError("negative base with non-integral exponent")
    return pow_construct(base, expo, eps)


def _constant(e: Expr) -> Union[float, None]:
    if isinstance(e, Constant):
        return e.value
    if isinstance(e, Unary):
        value = _constant(e.child)
        return None if value is None else -value
    return None


def _power_node(left: Node, right: Node, expo: Union[float, None], eps: float) -> Node:
    if expo is None or not (expo.is_integer() and abs(expo) <= _MAX_MUL_EXPONENT):
        power = _tower(lambda b, x: _power(b, x, eps), lambda b, x: pow_array(b, x, eps),
                       _pow_regular, eps)
        return lambda t, faults: power(left(t, faults), right(t, faults), faults)
    n = int(expo)

    def node(t: np.ndarray, faults: _Faults) -> np.ndarray:
        base = left(t, faults)
        out = np.ones(t.shape)
        for _ in range(abs(n)):
            out *= base
        if n >= 0:
            return out
        faults.mark(out == 0.0, "zero raised to a negative power")
        return 1.0 / out

    return node


def _compile(e: Expr, eps: float) -> Node:
    if isinstance(e, Constant):
        value = e.value
        return lambda t, faults: np.full(t.shape, value)
    if isinstance(e, Var):
        return lambda t, faults: t
    if isinstance(e, Unary):
        child = _compile(e.child, eps)
        return lambda t, faults: -child(t, faults)
    if isinstance(e, Binary):
        left, right = _compile(e.left, eps), _compile(e.right, eps)
        if e.op == "^":
            return _power_node(left, right, _constant(e.right), eps)
        if e.op not in _OPERATORS:
            raise InvalidArgumentError(f"unknown operator {e.op!r}")
        op = _OPERATORS[e.op]
        return lambda t, faults: op(left(t, faults), right(t, faults), faults)
    if isinstance(e, Call):
        if e.fname not in _FUNCTIONS:
            raise InvalidArgumentError(f"unknown function {e.fname!r}")
        arg, fn = _compile(e.arg, eps), _FUNCTIONS[e.fname](eps)
        return lambda t, faults: fn(arg(t, faults), faults)
    raise InvalidArgumentError(f"unknown node {e!r}")


def compile(e: Expr, eps: float = _EVAL_EPS) -> ArrayFn:
    """Turn a parsed tree into an integrand over float64 arrays of t.

    The tree is walked once; the result evaluates every element with the
    same rounding as a scalar evaluation at that point.  Every constructed
    function in it (exp, log, hyperbolics, atan, asin and non-integral
    powers) is called at accuracy eps.  Domain violations (log of a
    nonpositive value, division by zero, ...) raise EvaluationError
    carrying the first t, in array order, at which one occurred, with the
    message of the first violation at that t.
    """
    node = _compile(e, eps)

    def samples(t: np.ndarray) -> np.ndarray:
        faults = _Faults(t.size)
        with np.errstate(all="ignore"):
            out = node(t, faults)
        if faults.index < t.size:
            raise EvaluationError(float(t[faults.index]), faults.message)
        return out

    return ArrayFn(samples)


def eval_expr(e: Expr, t: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Evaluate a parsed expression at t, a float or a float64 array of
    points: compile(e) applied to it."""
    f = compile(e)
    return f.fn(t) if isinstance(t, np.ndarray) else f(t)


_PREC_ADD = 1
_PREC_MUL = 2
_PREC_UNARY = 3
_PREC_POW = 4
_PREC_ATOM = 5


def _prec(e: Expr) -> int:
    if isinstance(e, Binary):
        if e.op in ("+", "-"):
            return _PREC_ADD
        if e.op in ("*", "/"):
            return _PREC_MUL
        return _PREC_POW
    if isinstance(e, Unary):
        return _PREC_UNARY
    if isinstance(e, Constant) and math.copysign(1.0, e.value) < 0:
        # prints with a leading minus, which must parenthesize like one
        return _PREC_UNARY
    return _PREC_ATOM


def _format_number(v: float) -> str:
    if math.copysign(1.0, v) < 0:
        return "-" + _format_number(-v)
    if v.is_integer() and v < 1e16:
        return str(int(v))
    return repr(v)


def _wrap(e: Expr, minimum: int) -> str:
    body = _fmt(e)
    if _prec(e) < minimum:
        return f"({body})"
    return body


def _fmt(e: Expr) -> str:
    if isinstance(e, Constant):
        return _format_number(e.value)
    if isinstance(e, Var):
        return "t"
    if isinstance(e, Unary):
        return "-" + _wrap(e.child, _PREC_UNARY)
    if isinstance(e, Call):
        return f"{e.fname}({_fmt(e.arg)})"
    assert isinstance(e, Binary)
    if e.op in ("+", "-"):
        return _wrap(e.left, _PREC_ADD) + e.op + _wrap(e.right, _PREC_MUL)
    if e.op in ("*", "/"):
        return _wrap(e.left, _PREC_MUL) + e.op + _wrap(e.right, _PREC_UNARY)
    return _wrap(e.left, _PREC_ATOM) + e.op + _wrap(e.right, _PREC_UNARY)


def to_source(e: Expr) -> str:
    """Minimal-parenthesis canonical form; parse(to_source(e)) == e for
    trees whose constants are finite and non-negative."""
    return _fmt(e)


def random_expr(rng: random.Random, max_depth: int = 6) -> Expr:
    """Random tree for round-trip fuzzing; constants stay non-negative."""
    if max_depth <= 0 or rng.random() < 0.25:
        k = rng.randrange(4)
        if k == 0:
            return Var()
        if k == 1:
            return Constant(float(rng.randrange(10)))
        if k == 2:
            return Constant(round(rng.uniform(0.0, 10.0), 2))
        return Constant(float(rng.randrange(1, 100)) / 8.0)
    roll = rng.random()
    if roll < 0.2:
        return Unary(random_expr(rng, max_depth - 1))
    if roll < 0.4:
        return Call(rng.choice(FUNCTION_NAMES), random_expr(rng, max_depth - 1))
    op = rng.choice(("+", "-", "*", "/", "^"))
    return Binary(op, random_expr(rng, max_depth - 1), random_expr(rng, max_depth - 1))
