"""Test functions g supplied as arithmetic expressions in one variable x.

Grammar (EBNF, also consumed by the CLI --g flag):

    expr    = term { ("+" | "-") term } ;
    term    = unary { ("*" | "/") unary } ;
    unary   = "-" unary | power ;
    power   = atom [ "^" unary ] ;          (* exponent must be constant *)
    atom    = number | "x" | ident "(" expr ")" | "(" expr ")" ;
    ident   = "sin" | "cos" | "exp" | "log" | "abs" | "sqrt" ;

Precedence: ^ binds tighter than unary minus, which binds tighter than
* and /, which bind tighter than + and -.  Expressions are differentiated
symbolically; abs uses the a.e. convention sign(0) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import Interval, linear_grid

FUNCTIONS = ("sin", "cos", "exp", "log", "abs", "sqrt")


class ExprError(Exception):
    """Base class for expression errors."""


class SyntaxError_(ExprError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DerivativeMismatch(ExprError):
    """Symbolic derivative disagrees with finite differences."""


# ---------------------------------------------------------------- AST nodes

class Expr:
    def __call__(self, x):
        # overflow and nan are left to the caller, which checks finiteness
        with np.errstate(all="ignore"):
            return self.eval(np.asarray(x, dtype=float))

    def diff(self) -> "Expr":
        raise NotImplementedError

    def eval(self, x):
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def eval(self, x):
        return np.full_like(x, self.value, dtype=float)

    def diff(self):
        return Const(0.0)

    def __str__(self):
        return repr(self.value) if self.value != int(self.value) else str(int(self.value))


@dataclass(frozen=True)
class Var(Expr):
    def eval(self, x):
        return np.asarray(x, dtype=float)

    def diff(self):
        return Const(1.0)

    def __str__(self):
        return "x"


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr

    def eval(self, x):
        return -self.arg.eval(x)

    def diff(self):
        return Neg(self.arg.diff())

    def __str__(self):
        return f"-({self.arg})"


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def eval(self, x):
        a, b = self.left.eval(x), self.right.eval(x)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            return a / b
        raise AssertionError(self.op)

    def diff(self):
        u, v = self.left, self.right
        du, dv = u.diff(), v.diff()
        if self.op in "+-":
            return BinOp(self.op, du, dv)
        if self.op == "*":
            return BinOp("+", BinOp("*", du, v), BinOp("*", u, dv))
        # quotient rule
        num = BinOp("-", BinOp("*", du, v), BinOp("*", u, dv))
        return BinOp("/", num, BinOp("*", v, v))

    def __str__(self):
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Pow(Expr):
    """base ^ exponent with a constant exponent."""

    base: Expr
    exponent: float

    def eval(self, x):
        return self.base.eval(x) ** self.exponent

    def diff(self):
        n = self.exponent
        if n == 0:
            return Const(0.0)
        inner = Pow(self.base, n - 1) if n != 1 else Const(1.0)
        return BinOp("*", BinOp("*", Const(float(n)), inner), self.base.diff())

    def __str__(self):
        e = self.exponent
        e_str = str(int(e)) if e == int(e) else repr(e)
        return f"({self.base})^{e_str}"


@dataclass(frozen=True)
class Call(Expr):
    name: str
    arg: Expr

    def eval(self, x):
        a = self.arg.eval(x)
        fn = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log,
              "abs": np.abs, "sqrt": np.sqrt}[self.name]
        return fn(a)

    def diff(self):
        a, da = self.arg, self.arg.diff()
        if self.name == "sin":
            outer = Call("cos", a)
        elif self.name == "cos":
            outer = Neg(Call("sin", a))
        elif self.name == "exp":
            outer = Call("exp", a)
        elif self.name == "log":
            outer = BinOp("/", Const(1.0), a)
        elif self.name == "sqrt":
            outer = BinOp("/", Const(0.5), Call("sqrt", a))
        elif self.name == "abs":
            outer = Sign(a)  # a.e. derivative
        else:
            raise AssertionError(self.name)
        return BinOp("*", outer, da)

    def __str__(self):
        return f"{self.name}({self.arg})"


@dataclass(frozen=True)
class Sign(Expr):
    """sign of the argument with sign(0) = 0 (a.e. derivative of abs)."""

    arg: Expr

    def eval(self, x):
        return np.sign(self.arg.eval(x))

    def diff(self):
        return Const(0.0)  # a.e.

    def __str__(self):
        return f"sign({self.arg})"


# ---------------------------------------------------------------- parser

class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def next_token(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return None, self.pos
        start = self.pos
        c = self.text[self.pos]
        if c in "+-*/^()":
            self.pos += 1
            return c, start
        if c.isdigit() or c == ".":
            j = self.pos
            while j < len(self.text) and (self.text[j].isdigit() or self.text[j] in ".eE"
                                          or (self.text[j] in "+-" and self.text[j - 1] in "eE")):
                j += 1
            tok = self.text[self.pos:j]
            self.pos = j
            return tok, start
        if c.isalpha() or c == "_":
            j = self.pos
            while j < len(self.text) and (self.text[j].isalnum() or self.text[j] == "_"):
                j += 1
            tok = self.text[self.pos:j]
            self.pos = j
            return tok, start
        raise SyntaxError_(f"unexpected character {c!r}", start)


class _Parser:
    def __init__(self, text: str):
        self.tz = _Tokenizer(text)
        self.tok, self.tok_pos = self.tz.next_token()

    def advance(self):
        self.tok, self.tok_pos = self.tz.next_token()

    def expect(self, tok):
        if self.tok != tok:
            raise SyntaxError_(f"expected {tok!r}, found {self.tok!r}", self.tok_pos)
        self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        if self.tok is not None:
            raise SyntaxError_(f"unexpected trailing input {self.tok!r}", self.tok_pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.tok in ("+", "-"):
            op = self.tok
            self.advance()
            e = BinOp(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.tok in ("*", "/"):
            op = self.tok
            self.advance()
            e = BinOp(op, e, self.unary())
        return e

    def unary(self) -> Expr:
        if self.tok == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.tok == "^":
            self.advance()
            pos = self.tok_pos
            exponent = self.unary()
            value = _const_value(exponent)
            if value is None:
                raise SyntaxError_("exponent must be a constant", pos)
            return Pow(base, value)
        return base

    def atom(self) -> Expr:
        tok, pos = self.tok, self.tok_pos
        if tok is None:
            raise SyntaxError_("unexpected end of input", len(self.tz.text))
        if tok == "(":
            self.advance()
            e = self.expr()
            self.expect(")")
            return e
        if tok == "x":
            self.advance()
            return Var()
        if tok in FUNCTIONS:
            self.advance()
            self.expect("(")
            e = self.expr()
            self.expect(")")
            return Call(tok, e)
        if tok == "pi":
            self.advance()
            return Const(math.pi)
        try:
            value = float(tok)
        except ValueError:
            raise SyntaxError_(f"unknown identifier {tok!r}", pos) from None
        self.advance()
        return Const(value)


def _const_value(e: Expr):
    """Value of a constant subexpression, or None."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Neg):
        v = _const_value(e.arg)
        return None if v is None else -v
    if isinstance(e, BinOp):
        a, b = _const_value(e.left), _const_value(e.right)
        if a is None or b is None:
            return None
        return {"+": a + b, "-": a - b, "*": a * b, "/": a / b}[e.op]
    return None


def parse(text: str) -> Expr:
    if not text or not text.strip():
        raise SyntaxError_("empty expression", 0)
    return _Parser(text).parse()


def differentiate(e: Expr) -> Expr:
    return e.diff()


# ---------------------------------------------------------------- TestFunction

@dataclass(frozen=True)
class TestFunction:
    """g bundled with its first two derivatives and a sup |g'g''| estimate.

    sup_g1g2 is a grid estimate of the sup-norm of g'g'' over the effective
    interval, not a proven supremum over the real line.
    """

    g: object
    g1: object
    g2: object
    sup_g1g2: float
    domain: Interval
    source: str = ""

    def __call__(self, x):
        return self.g(x)


# Named built-ins for programmatic use (also reachable via CLI --g-named).
BUILTIN_FUNCTIONS = {
    "identity": "x",
    "square": "x^2",
    "half_square": "x^2/2",
    "cube_third": "x^3/3",
    "sin": "sin(x)",
    "cosh": "(exp(x) + exp(-x))/2",
    "gauss": "exp(-x^2)",
    "log1psq": "log(1 + x^2)",
}


def make_test_function(e, effective: Interval, probe_count: int = 256,
                       check: bool = True) -> TestFunction:
    """Bundle an expression (or its text) into a TestFunction.

    Cross-checks the symbolic derivative against centered finite differences
    on the probe grid; raises DerivativeMismatch when they disagree.
    """
    if isinstance(e, str):
        e = parse(e)
    d1 = e.diff()
    d2 = d1.diff()
    lo = effective.lo if effective.lo_finite else -8.0
    hi = effective.hi if effective.hi_finite else 8.0
    grid = linear_grid(lo, hi, probe_count)
    if check:
        _check_derivative(e, d1, grid)
    g1v = d1(grid)
    g2v = d2(grid)
    sup = float(np.max(np.abs(g1v * g2v))) if np.all(np.isfinite(g1v * g2v)) else math.inf
    return TestFunction(g=e, g1=d1, g2=d2, sup_g1g2=sup,
                        domain=effective, source=str(e))


def _check_derivative(e, d1, grid, h=1e-5, rel_tol=1e-4):
    # Stay off the grid ends so x +- h remains in the domain.
    xs = grid[2:-2:4] if len(grid) > 8 else grid
    sym = d1(xs)
    fd = (e(xs + h) - e(xs - h)) / (2 * h)
    ok = np.isfinite(sym) & np.isfinite(fd)
    scale = 1.0 + np.abs(sym)
    bad = ok & (np.abs(sym - fd) > rel_tol * scale)
    # Tolerate isolated kinks (abs) where the finite difference straddles them.
    if np.count_nonzero(bad) > max(1, len(xs) // 16):
        i = int(np.argmax(np.abs(sym - fd) / scale))
        raise DerivativeMismatch(
            f"symbolic {sym[i]:.6g} vs finite-difference {fd[i]:.6g} at x={xs[i]:.6g}")


def named_test_function(name: str, effective: Interval,
                        probe_count: int = 256) -> TestFunction:
    try:
        text = BUILTIN_FUNCTIONS[name]
    except KeyError:
        raise ExprError(f"unknown built-in function {name!r}") from None
    return make_test_function(text, effective, probe_count)
