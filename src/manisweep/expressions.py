"""Small arithmetic expression grammar for constraints and fields.

Grammar: Python's arithmetic with ``^`` written for ``**``: identifiers
(``x1..xn`` and ``t`` where the caller says so), the operators
``+ - * / ^``, the functions ``sin``, ``cos``, ``exp`` of one argument,
decimal literals and parentheses.  ``^`` is power, right-associative,
and binds tighter than unary minus; its exponent may carry ``-`` signs
but no ``+``.  Any whitespace separates tokens, newlines included.

Parsed expressions support evaluation, forward-mode differentiation
(the chain rule applied leaf-to-root, producing a derivative tree) and
compilation to a plain Python function, whose source ``emitter`` writes,
as it does the implicit backend's kernels.  Power with a non-constant
exponent has no derivative in this grammar and raises.
"""

from __future__ import annotations

import ast
import functools
import math
import operator
import re
import warnings
from dataclasses import dataclass

from .errors import ExpressionError

_FUNCTIONS = ("sin", "cos", "exp")
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
           "^": operator.pow}


class Expr:
    """Base class for expression-tree nodes."""

    _operands = ()  # the attribute names of the operands, in source order

    def evaluate(self, env):
        """The value at ``env``: ``apply`` to its operands' values."""
        return self.apply(*[c.evaluate(env) for c in self.children()])

    def diff(self, var):
        raise NotImplementedError

    def variables(self):
        return frozenset().union(*[c.variables() for c in self.children()])

    def children(self):
        """The operand nodes, in the order the source writes them."""
        return tuple([getattr(self, name) for name in self._operands])

    def label(self):
        """The text of the node's fields that are not operands: with its type and its
        operands, what tells it apart from other nodes."""
        return ""

    def emit(self):
        """Python source computing this node: ``render`` of its operands' ``emit``."""
        return self.render(*[c.emit() for c in self.children()])

    def __str__(self):
        return self.emit()


@dataclass(frozen=True)
class Num(Expr):
    value: float

    def evaluate(self, env):
        return self.value

    def diff(self, var):
        return Num(0.0)

    def label(self):
        return repr(self.value)  # -0.0 is not 0.0, and nan is nan

    render = label


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

    def label(self):
        return self.name

    render = label


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr
    _operands = ("arg",)

    def apply(self, arg):
        return -arg

    def diff(self, var):
        return _neg(self.arg.diff(var))

    def render(self, arg):
        return f"(-{arg})"


@dataclass(frozen=True)
class Bin(Expr):
    op: str
    lhs: Expr
    rhs: Expr
    _operands = ("lhs", "rhs")

    def apply(self, lhs, rhs):
        return _BINARY[self.op](lhs, rhs)

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

    def label(self):
        return self.op

    def render(self, lhs, rhs):
        if self.op == "^" and lhs.startswith("-"):  # a negative literal: -2.0 ** x is -(2.0 ** x)
            lhs = f"({lhs})"
        op = "**" if self.op == "^" else self.op
        return f"({lhs} {op} {rhs})"


@dataclass(frozen=True)
class Fun(Expr):
    name: str
    arg: Expr
    _operands = ("arg",)

    def apply(self, arg):
        return getattr(math, self.name)(arg)

    def diff(self, var):
        da = self.arg.diff(var)
        if self.name == "sin":
            return _mul(Fun("cos", self.arg), da)
        if self.name == "cos":
            return _neg(_mul(Fun("sin", self.arg), da))
        if self.name == "exp":
            return _mul(self, da)
        raise AssertionError(self.name)

    def label(self):
        return self.name

    def render(self, arg):
        return f"{self.name}({arg})"


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


#: text no expression holds: a character outside the grammar's alphabet, a
#: literal ``**`` (power is ``^``) and a ``+`` reached from ``^`` through ``-`` signs
_OUTSIDE = re.compile(r"[^0-9A-Za-z_.+\-*/^() ]|\*\*|\^[ -]*\+")
#: a decimal literal, the only constant the grammar has
_LITERAL = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^"}
#: deepest nesting ``parse`` accepts, the parenthesis depth Python's parser reads: a long
#: sum is held to the same bound as nested parentheses, and each recursive walk of a
#: parsed tree (``evaluate``, ``diff``, ``emit``) stays within Python's recursion limit
MAX_NESTING = 200
#: nesting depth at which ``emitter`` moves a subexpression's source to a temporary
INLINE_DEPTH = 50


def _nesting(e):
    """Nesting depth of ``e``: each operator and call is one level of every tree walk."""
    return max((1 + _nesting(c) for c in e.children()), default=0)


def _position(line, lead, q):
    """Index in ``line`` of offset ``q`` of ``line[lead:]`` with ``^`` as ``**``."""
    for i in range(lead, len(line)):
        q -= 2 if line[i] == "^" else 1
        if q < 0:
            return i
    return len(line)


def _offending(node, src):
    """Offset in ``src`` of the token that puts ``node`` outside the grammar.

    That is the node's first token, or the operator after its leading
    operand (``x1 // 2``, ``x1 if t else x2``, ``x1.real``).
    """
    kids = [c for c in ast.iter_child_nodes(node) if isinstance(c, ast.expr)]
    first = min(kids, key=lambda c: c.col_offset, default=None)
    if first is None or src[node.col_offset : first.col_offset].strip("( "):
        return node.col_offset
    return len(src) - len(src[first.end_col_offset :].lstrip(") "))


def parse(text, allowed_vars=None):
    """Parse ``text`` into an expression tree.

    The text is read by Python's own parser with ``^`` for ``**``, and
    its tree is converted node by node; any construct the grammar lacks
    raises an :class:`ExpressionError` whose ``position`` indexes
    ``text``, and so does a subexpression without a variable whose value is
    not a finite real number.  A tree nested more than ``MAX_NESTING`` levels
    deep raises too, and, when ``allowed_vars`` is given, any other identifier.
    Nothing is folded: the tree is the text's.
    """
    line = re.sub(r"\s", " ", text)  # one for one, so positions stay put
    bad = _OUTSIDE.search(line)
    if bad:
        raise ExpressionError(f"unexpected character {bad[0][-1]!r}", position=bad.end() - 1)
    lead = len(line) - len(line.lstrip())
    src = line[lead:].replace("^", "**")

    constants = {}  # id -> (compound subexpression without a variable, kept alive; its value)

    def constant(tree, node):
        # a subexpression without a variable has one value, which must be a
        # finite real, as a literal must: found here from its operands' values,
        # once per node, not first when it runs
        kids = tree.children()
        if kids and all(isinstance(c, Num) or id(c) in constants for c in kids):
            try:
                value = tree.apply(*[c.value if isinstance(c, Num) else constants[id(c)][1]
                                     for c in kids])
            except (ArithmeticError, ValueError):
                value = math.nan
            constants[id(tree)] = (tree, value)
            if isinstance(value, complex) or not math.isfinite(value):
                at = _position(line, lead, node.col_offset)
                end = _position(line, lead, node.end_col_offset - 1) + 1
                raise ExpressionError(
                    f"constant {line[at:end]!r} has no finite real value", position=at
                )
        return tree

    def convert(node):
        if isinstance(node, ast.BinOp) and type(node.op) in _OPS:
            tree = Bin(_OPS[type(node.op)], convert(node.left), convert(node.right))
            return constant(tree, node)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return constant(_neg(convert(node.operand)), node)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd):
            return convert(node.operand)
        if isinstance(node, ast.Name) and node.id not in _FUNCTIONS:
            return Var(node.id)
        literal = src[node.col_offset : node.end_col_offset]
        if isinstance(node, ast.Constant) and _LITERAL.fullmatch(literal):
            if not math.isfinite(float(literal)):
                at = _position(line, lead, node.col_offset)
                raise ExpressionError(f"literal {literal} is not a finite number", position=at)
            return Num(float(literal))
        call = isinstance(node, ast.Call) and len(node.args) == 1 and not node.keywords
        if call and isinstance(node.func, ast.Name) and node.func.id in _FUNCTIONS:
            return constant(Fun(node.func.id, convert(node.args[0])), node)
        at = _position(line, lead, _offending(node, src))
        raise ExpressionError(f"{line[at:]!r} is outside the expression grammar", position=at)

    try:
        with warnings.catch_warnings():  # ``1if``: rejected below anyway
            warnings.simplefilter("ignore", SyntaxWarning)
            body = ast.parse(src, mode="eval").body
        tree = convert(body)
        deep = _nesting(tree) > MAX_NESTING
    except SyntaxError as err:
        # Python gives no offset (0) for input that ends too soon
        at = _position(line, lead, err.offset - 1 if err.offset else len(src))
        raise ExpressionError(f"invalid expression: {err.msg}", position=at) from None
    except RecursionError:
        deep = True
    if deep:
        raise ExpressionError(f"expression nests more than {MAX_NESTING} levels deep")
    if allowed_vars is not None:
        extra = tree.variables() - frozenset(allowed_vars)
        if extra:
            raise ExpressionError(
                f"unknown variable(s) {sorted(extra)} in {text!r}; "
                f"allowed: {sorted(allowed_vars)}"
            )
    return tree


def run_emitted(src) -> dict:
    """Execute source emitted from our own trees; returns its namespace.

    The namespace holds the names emitted code may use: the grammar's
    ``sin``, ``cos`` and ``exp``, ``sqrt`` for the implicit backend's
    kernels, and ``inf`` and ``nan``, the reprs of constants that fold to
    non-finite values.
    """
    ns = {"sqrt": math.sqrt, "sin": math.sin, "cos": math.cos, "exp": math.exp,
          "inf": math.inf, "nan": math.nan}
    try:
        exec(src, ns)  # noqa: S102 - source is emitted from our own AST
    except (SyntaxError, RecursionError) as err:
        # the trees come from a scenario's text, so source Python rejects is an error in it
        raise ExpressionError(f"emitted source does not compile: {err}") from None
    return ns


def emitter(trees):
    """``block(ind, roots, names)``: the source of the nodes ``roots`` of ``trees``.

    That is a line ``_tK = ...``, indented by ``ind``, for each subexpression
    read twice or nested ``INLINE_DEPTH`` deep, and the text of each root as
    ``emit`` writes it, with variables renamed by the pairs ``names``."""
    # hash-consing: structurally equal subtrees share a key, above its operands'
    keys, interned, nodes, operands = {}, {}, {}, {}
    todo = list(trees)
    while todo:  # a loop, for derivative trees nest deeper than Python recurses
        e = todo[-1]
        i = id(e)
        if i in keys:  # a node pushed by two parents: keyed when first on top
            todo.pop()
            continue
        kids = operands.get(i)
        if kids is None:  # first on top: its unkeyed operands go above it
            kids = operands[i] = e.children()
            fresh = [c for c in kids if id(c) not in keys]
            if fresh:
                todo += fresh
                continue
        todo.pop()
        ops = [keys[id(c)] for c in kids]
        k = keys[i] = interned.setdefault((type(e), e.label(), *ops), len(interned))
        nodes.setdefault(k, (e, ops))

    @functools.cache
    def plan(roots):
        # the nodes the trees with these root keys read, operands first, and
        # whether each becomes a temporary: a property of the trees, not the point
        uses, todo = {}, list(roots)
        while todo:  # a node's uses: the trees and distinct nodes that read it
            k = todo.pop()
            uses[k] = uses.get(k, 0) + 1
            if uses[k] == 1:
                todo += nodes[k][1]
        depth, order = {}, []
        for k in sorted(uses):  # operands first
            ops = nodes[k][1]
            depth[k] = 1 + max(map(depth.get, ops), default=-1)
            temp = bool(ops) and (uses[k] > 1 or depth[k] >= INLINE_DEPTH)
            depth[k] = 0 if temp else depth[k]  # a temporary's text nests no deeper
            order.append((k, temp))
        return order

    @functools.cache
    def render(roots, names):
        # the plan's temporaries at the point named by names, and each tree's text
        names, text, lines = dict(names), {}, []
        for k, temp in plan(roots):
            e, ops = nodes[k]
            src = names.get(e.name, e.name) if isinstance(e, Var) else e.render(*map(text.get, ops))
            text[k] = f"_t{k}" if temp else src
            if temp:
                lines.append(f"_t{k} = {src}")
        return lines, [text[k] for k in roots]

    def block(ind, roots, names):  # fresh lines: callers extend them
        lines, text = render(tuple(keys[id(t)] for t in roots), tuple(names))
        return [ind + line for line in lines], text

    return block


def _function(trees, arg_names, each):  # one block, then each tree's text in format each
    lines, text = emitter(trees)("    ", trees, ())
    body = "".join(each.format(s) for s in text)
    src = "\n".join([f"def _f({', '.join(arg_names)}):", *lines, f"    return {body}", ""])
    return run_emitted(src)["_f"]


#: what a compiled field raises where it has no real value: an overflow, a division
#: by zero, a math domain error, or a complex intermediate passed to ``sin``, ``cos``, ``exp``
FIELD_ERRORS = (ArithmeticError, ValueError, TypeError)


def compile_tree(tree, arg_names):
    """Compile a tree to ``f(*args) -> float`` with positional arguments."""
    return _function([tree], arg_names, "{}")


def compile_many(trees, arg_names):
    """Compile several trees into one ``f(*args) -> tuple`` function."""
    return _function(trees, arg_names, "{}, ")  # a bare tuple
