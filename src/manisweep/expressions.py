"""Small arithmetic expression grammar for constraints and fields.

Grammar: identifiers ``x1..xn`` and ``t``, the operators ``+ - * / ^``,
the functions ``sin``, ``cos``, ``exp``, numeric literals and
parentheses.  ``^`` is power and binds tighter than unary minus.

Parsed expressions support evaluation, forward-mode differentiation
with respect to a variable (the chain rule applied leaf-to-root on the
tree, producing a derivative tree), and compilation to a plain Python
function for fast repeated evaluation.  Power with a non-constant
exponent has no derivative in this grammar and raises.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import ExpressionError

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_FUNCTIONS = ("sin", "cos", "exp")


class Expr:
    """Base class for expression-tree nodes."""

    def evaluate(self, env):
        raise NotImplementedError

    def diff(self, var):
        raise NotImplementedError

    def variables(self):
        raise NotImplementedError

    def emit(self):
        """Python source fragment computing this node."""
        raise NotImplementedError

    def __str__(self):
        return self.emit()


@dataclass(frozen=True)
class Num(Expr):
    value: float

    def evaluate(self, env):
        return self.value

    def diff(self, var):
        return Num(0.0)

    def variables(self):
        return frozenset()

    def emit(self):
        return repr(self.value)


@dataclass(frozen=True)
class Var(Expr):
    name: str

    def evaluate(self, env):
        try:
            return env[self.name]
        except KeyError:
            raise ExpressionError(f"unbound variable {self.name!r}") from None

    def diff(self, var):
        return Num(1.0 if self.name == var else 0.0)

    def variables(self):
        return frozenset((self.name,))

    def emit(self):
        return self.name


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr

    def evaluate(self, env):
        return -self.arg.evaluate(env)

    def diff(self, var):
        return _neg(self.arg.diff(var))

    def variables(self):
        return self.arg.variables()

    def emit(self):
        return f"(-{self.arg.emit()})"


@dataclass(frozen=True)
class Bin(Expr):
    op: str
    lhs: Expr
    rhs: Expr

    def evaluate(self, env):
        a = self.lhs.evaluate(env)
        b = self.rhs.evaluate(env)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            return a / b
        if self.op == "^":
            return a ** b
        raise AssertionError(self.op)

    def diff(self, var):
        a, b = self.lhs, self.rhs
        da, db = a.diff(var), b.diff(var)
        if self.op == "+":
            return _add(da, db)
        if self.op == "-":
            return _sub(da, db)
        if self.op == "*":
            return _add(_mul(da, b), _mul(a, db))
        if self.op == "/":
            return _div(_sub(_mul(da, b), _mul(a, db)), _mul(b, b))
        if self.op == "^":
            if b.variables():
                raise ExpressionError(
                    "power with a non-constant exponent has no derivative "
                    "in this grammar"
                )
            c = b.evaluate({})
            return _mul(_mul(Num(c), _pow(a, Num(c - 1.0))), da)
        raise AssertionError(self.op)

    def variables(self):
        return self.lhs.variables() | self.rhs.variables()

    def emit(self):
        op = "**" if self.op == "^" else self.op
        return f"({self.lhs.emit()} {op} {self.rhs.emit()})"


@dataclass(frozen=True)
class Fun(Expr):
    name: str
    arg: Expr

    def evaluate(self, env):
        x = self.arg.evaluate(env)
        return getattr(math, self.name)(x)

    def diff(self, var):
        da = self.arg.diff(var)
        if self.name == "sin":
            return _mul(Fun("cos", self.arg), da)
        if self.name == "cos":
            return _neg(_mul(Fun("sin", self.arg), da))
        if self.name == "exp":
            return _mul(self, da)
        raise AssertionError(self.name)

    def variables(self):
        return self.arg.variables()

    def emit(self):
        return f"{self.name}({self.arg.emit()})"


def _is_const(e, value=None):
    return isinstance(e, Num) and (value is None or e.value == value)


def _add(a, b):
    if _is_const(a) and _is_const(b):
        return Num(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Bin("+", a, b)


def _sub(a, b):
    if _is_const(a) and _is_const(b):
        return Num(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    return Bin("-", a, b)


def _mul(a, b):
    if _is_const(a) and _is_const(b):
        return Num(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Num(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Bin("*", a, b)


def _div(a, b):
    if _is_const(a, 0.0):
        return Num(0.0)
    if _is_const(b, 1.0):
        return a
    return Bin("/", a, b)


def _pow(a, b):
    if _is_const(b, 1.0):
        return a
    if _is_const(b, 0.0):
        return Num(1.0)
    return Bin("^", a, b)


def _neg(a):
    if _is_const(a):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


class _Parser:
    """Recursive-descent parser; ``^`` is right-associative."""

    def __init__(self, text):
        self.text = text
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                if text[pos:].strip():
                    raise ExpressionError(
                        f"unexpected character {text[pos]!r}", position=pos
                    )
                break
            self.tokens.append((m.lastgroup, m.group(m.lastgroup), pos))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, value):
        kind, val, pos = self.next()
        if val != value:
            raise ExpressionError(f"expected {value!r}, found {val!r}", position=pos)

    def parse(self):
        e = self.sum()
        kind, val, pos = self.peek()
        if kind is not None:
            raise ExpressionError(f"trailing input {val!r}", position=pos)
        return e

    def sum(self):
        e = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            e = Bin(op, e, self.term())
        return e

    def term(self):
        e = self.unary()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            e = Bin(op, e, self.unary())
        return e

    def unary(self):
        if self.peek()[1] == "-":
            self.next()
            return _neg(self.unary())
        if self.peek()[1] == "+":
            self.next()
            return self.unary()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[1] == "^":
            self.next()
            # right associative; exponent may carry its own unary minus
            return Bin("^", base, self.unary_power())
        return base

    def unary_power(self):
        if self.peek()[1] == "-":
            self.next()
            return _neg(self.unary_power())
        return self.power()

    def atom(self):
        kind, val, pos = self.next()
        if kind == "num":
            return Num(float(val))
        if kind == "ident":
            if val in _FUNCTIONS:
                self.expect("(")
                arg = self.sum()
                self.expect(")")
                return Fun(val, arg)
            return Var(val)
        if val == "(":
            e = self.sum()
            self.expect(")")
            return e
        raise ExpressionError(f"unexpected token {val!r}", position=pos)


def parse(text, allowed_vars=None):
    """Parse ``text`` into an expression tree.

    When ``allowed_vars`` is given, any other identifier raises an
    :class:`ExpressionError`.
    """
    tree = _Parser(text).parse()
    if allowed_vars is not None:
        extra = tree.variables() - frozenset(allowed_vars)
        if extra:
            raise ExpressionError(
                f"unknown variable(s) {sorted(extra)} in {text!r}; "
                f"allowed: {sorted(allowed_vars)}"
            )
    return tree


_EMIT_GLOBALS = {"sin": math.sin, "cos": math.cos, "exp": math.exp}


def compile_tree(tree, arg_names):
    """Compile a tree to ``f(*args) -> float`` with positional arguments."""
    src = f"def _f({', '.join(arg_names)}):\n    return {tree.emit()}\n"
    ns = dict(_EMIT_GLOBALS)
    exec(src, ns)  # noqa: S102 - source is emitted from our own AST
    return ns["_f"]


def compile_many(trees, arg_names):
    """Compile several trees into one ``f(*args) -> tuple`` function."""
    body = ", ".join(t.emit() for t in trees)
    src = f"def _f({', '.join(arg_names)}):\n    return ({body},)\n"
    ns = dict(_EMIT_GLOBALS)
    exec(src, ns)  # noqa: S102
    return ns["_f"]

