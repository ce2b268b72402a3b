"""The expression grammar's edges: what it parses, what it rejects and where."""

import math

import pytest
from hypothesis import given, reject, settings, strategies as st

from manisweep import expressions as ex
from manisweep.errors import ExpressionError
from manisweep.expressions import Bin, Fun, Neg, Num, Var

# operator -> (binding level, level its left operand needs, its right operand);
# 1 sum, 2 term, 3 unary minus, 4 power, 5 atom
_LEVELS = {"+": (1, 1, 2), "-": (1, 1, 2), "*": (2, 2, 3), "/": (2, 2, 3), "^": (4, 5, 3)}


def _text(e):
    """``e`` written with ``^`` and minimal parentheses, and its binding level."""
    if isinstance(e, Num):
        s = repr(e.value)
        return s, 3 if s.startswith("-") else 5
    if isinstance(e, Var):
        return e.name, 5
    if isinstance(e, Fun):
        return f"{e.name}({_text(e.arg)[0]})", 5
    if isinstance(e, Neg):
        return f"-{_wrap(e.arg, 3)}", 3
    level, left, right = _LEVELS[e.op]
    return f"{_wrap(e.lhs, left)} {e.op} {_wrap(e.rhs, right)}", level


def _wrap(e, need):
    s, level = _text(e)
    return s if level >= need else f"({s})"


_LEAVES = st.one_of(
    st.builds(Num, st.floats(allow_nan=False, allow_infinity=False)),
    st.builds(Var, st.sampled_from(["x1", "x2", "t"])),
)


def _nodes(inner):
    return st.one_of(
        st.builds(Bin, st.sampled_from("+-*/^"), inner, inner),
        st.builds(Neg, inner.filter(lambda e: not isinstance(e, (Num, Neg)))),
        st.builds(Fun, st.sampled_from(["sin", "cos", "exp"]), inner),
    )


def _shared_nodes(inner):
    return st.one_of(
        _nodes(inner), st.builds(lambda op, s: Bin(op, s, s), st.sampled_from("+-*/^"), inner)
    )


# the trees the parser builds: ``-`` folds into a literal and cancels a ``-``
_trees = st.recursive(_LEAVES, _nodes, max_leaves=12)
# and trees that read one subtree twice, as derivative trees do
_shared_trees = st.recursive(_LEAVES, _shared_nodes, max_leaves=12)


@settings(max_examples=300, derandomize=True)
@given(tree=_trees)
def test_written_tree_parses_back(tree):
    try:
        got = ex.parse(_text(tree)[0])
    except ExpressionError as err:  # a constant such as 1e308 * 10 or (-1.0) ^ 0.5
        if "has no finite real value" in str(err):
            reject()
        raise
    assert got == tree
    assert got.emit() == tree.emit()


@pytest.mark.parametrize(
    "text, tree",
    [
        ("-2", Num(-2.0)),
        ("--x1", Var("x1")),
        ("+x1", Var("x1")),
        ("-+x1", Neg(Var("x1"))),
        ("2^-x1", Bin("^", Num(2.0), Neg(Var("x1")))),
        ("-x1^2", Neg(Bin("^", Var("x1"), Num(2.0)))),
        ("2^3^2", Bin("^", Num(2.0), Bin("^", Num(3.0), Num(2.0)))),
        ("1. + .5e1", Bin("+", Num(1.0), Num(5.0))),
        ("sin (x1)", Fun("sin", Var("x1"))),
    ],
)
def test_parse_builds_the_grammar_tree(text, tree):
    assert ex.parse(text) == tree


def test_whitespace_separates_tokens_newlines_included():
    assert ex.parse("x1\n+ x2") == Bin("+", Var("x1"), Var("x2"))
    assert ex.parse("\t x1 ^\r\n2 ") == Bin("^", Var("x1"), Num(2.0))


@pytest.mark.parametrize(
    "text, position",
    [
        ("x1**2", 3),
        ("x1 % 2", 3),
        ("x1 // 2", 3),
        ("x1 @ x2", 3),
        ("x1 < 2", 3),
        ("x1 if t else x2", 3),
        ("not x1", 0),
        ("True", 0),
        ("0x1F", 0),
        ("1_0", 0),
        ("1j", 0),
        ("sin(x1, x2)", 6),
        ("sin", 0),
        ("x1.real", 2),
        ("x1 # c", 3),
        ("2^+x1", 2),
        ("2^ - -+x1", 6),
        ("ｘ1", 0),  # full-width x
        ("x1\\", 2),
        # positions index the text as written: ``^`` and leading blanks count once
        ("x1^2 // 2", 5),
        ("x1^2^3 if t else 0", 7),
        ("  x1 // 2", 5),
        ("x1\n// 2", 3),
        ("x1^2 + )", 7),
        ("sin(x1)(2)", 7),
        # text that ends too soon is rejected at its end
        ("x1 + + ", 7),
        ("x1 ^", 4),
        ("", 0),
    ],
)
def test_python_syntax_outside_the_grammar_is_rejected_where_it_starts(text, position):
    with pytest.raises(ExpressionError) as err:
        ex.parse(text)
    assert err.value.position == position


def test_integer_literals_with_leading_zeros_are_rejected():
    # Python's tokenizer rejects them; a decimal point or exponent makes them floats
    with pytest.raises(ExpressionError):
        ex.parse("007")
    assert ex.parse("007.5 + 00 + 0e5") == Bin("+", Bin("+", Num(7.5), Num(0.0)), Num(0.0))


# inputs nested deeper than Python compiles
DEEP_NEGATION = "-" * 3000 + "x1 + 1"
SUM_300 = " + ".join(["x1"] * 300) + " + 1"
# inputs within the limit whose gradients, written inline, would nest deeper
PRODUCT_100 = "(x1+x2)^2*" * 100 + "0.001 + 1"
QUOTIENT_150 = "(x1+1)/(" * 150 + "x2+1" + ")" * 150


@pytest.mark.parametrize("text", [DEEP_NEGATION, SUM_300], ids=["negation_3000", "sum_300"])
def test_parse_rejects_trees_nested_deeper_than_python_compiles(text):
    with pytest.raises(ExpressionError, match="nests more than 200 levels deep"):
        ex.parse(text, allowed_vars={"x1", "x2", "t"})


@pytest.mark.parametrize("text", [PRODUCT_100, QUOTIENT_150], ids=["product_100", "quotient_150"])
def test_a_gradient_nested_deeper_than_python_compiles_inline_equals_the_tree_walk(text):
    tree = ex.parse(text, allowed_vars={"x1", "x2", "t"})
    grad = [tree.diff("x1"), tree.diff("x2")]
    env = {"t": 0.3, "x1": 0.7, "x2": 1.3}
    assert ex.compile_tree(tree, ["t", "x1", "x2"])(0.3, 0.7, 1.3) == tree.evaluate(env)
    got = ex.compile_many(grad, ["t", "x1", "x2"])(0.3, 0.7, 1.3)
    assert got == tuple(g.evaluate(env) for g in grad)


def test_the_nesting_limit_is_the_one_python_compiles():
    # a sum of n terms nests n - 1 levels; compile_many adds none around them
    deepest = ex.parse(" + ".join(["x1"] * (ex.MAX_NESTING + 1)))
    assert ex.compile_tree(deepest, ["x1"])(1.0) == ex.MAX_NESTING + 1
    assert ex.compile_many([deepest, deepest], ["x1"])(1.0) == (ex.MAX_NESTING + 1,) * 2
    with pytest.raises(ExpressionError, match="nests more than 200 levels deep"):
        ex.parse(" + ".join(["x1"] * (ex.MAX_NESTING + 2)))


def test_a_long_constant_sum_is_rejected_without_re_evaluating_its_terms(monkeypatch):
    # each constant node's value comes from its operands' values: evaluating every
    # partial sum of 900 terms again from its leaves took about 400,000 calls
    calls = []
    for cls in (ex.Expr, Num, Var, Neg, Bin, Fun):
        if "evaluate" in vars(cls):
            walk = vars(cls)["evaluate"]
            monkeypatch.setattr(cls, "evaluate",
                                lambda self, env, walk=walk: calls.append(1) or walk(self, env))
    with pytest.raises(ExpressionError, match="nests more than 200 levels deep"):
        ex.parse(" + ".join(["1"] * 900))
    assert len(calls) <= 900


@pytest.mark.parametrize("text, position", [("1e999 - x1", 0), ("2*x1 + 1e999", 7),
                                            ("x1 - 2e400^2", 5)])
def test_a_literal_that_overflows_is_rejected_where_it_starts(text, position):
    with pytest.raises(ExpressionError, match="is not a finite number") as err:
        ex.parse(text)
    assert err.value.position == position


@pytest.mark.parametrize("text, position, constant", [
    ("1 - x1^(10^400)", 8, "10^400"), ("x1 + 0*exp(1000)", 7, "exp(1000)"),
    ("x1^(1/0)", 4, "1/0"), ("0*sin(1e308*10) - x1", 6, "1e308*10"),
    ("(-1)^0.5 + x1", 0, "(-1)^0.5"), ("x1^((-8)^(1/3))", 4, "(-8)^(1/3)"),
    ("-(1/0) + x1", 2, "1/0"),
])
def test_a_constant_without_a_finite_real_value_is_rejected_where_it_starts(
    text, position, constant
):
    with pytest.raises(ExpressionError, match="has no finite real value") as err:
        ex.parse(text)
    assert err.value.position == position
    assert repr(constant) in str(err.value)


@pytest.mark.parametrize("text, value", [("(-2)^2 - x1", 3.0), ("(-0.5)^-1 + x1", -1.0),
                                         ("x1 * (-3)^2", 9.0)])
def test_a_negative_literal_raised_to_a_power_is_the_base(text, value):
    # Python reads -2.0 ** 2.0 as -(2.0 ** 2.0)
    tree = ex.parse(text)
    assert tree.evaluate({"x1": 1.0}) == value
    assert ex.compile_tree(tree, ["x1"])(1.0) == value
    assert ex.compile_many([tree, tree], ["x1"])(1.0) == (value, value)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_a_constant_that_folds_to_a_non_finite_value_compiles(value):
    # a derivative may fold finite literals into one; its repr must resolve
    out = ex.compile_tree(Num(value), ["x1"])(1.0)
    assert out == value or (math.isnan(out) and math.isnan(value))


def _outcome(f, *args):
    """``f(*args)``, or the type of the error it raises."""
    try:
        return f(*args)
    except (ArithmeticError, ValueError, TypeError) as err:
        return type(err)


def _same(a, b):
    """``a == b``, a NaN matching a NaN (also inside a tuple)."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b or (a != a and b != b)


ARGS = ["t", "x1", "x2"]


@settings(max_examples=400, derandomize=True)
@given(tree=st.one_of(_trees, _shared_trees), point=st.tuples(*[st.floats()] * 3))
def test_compiled_trees_and_their_derivatives_equal_the_tree_walk(tree, point):
    # derivative trees read subtrees many times: there the emitter writes temporaries
    env = dict(zip(ARGS, point))
    assert _same(_outcome(ex.compile_tree(tree, ARGS), *point), _outcome(tree.evaluate, env))
    try:
        grad = [tree.diff("x1"), tree.diff("x2")]
    except (ArithmeticError, ValueError):  # an ExpressionError: no derivative, or
        return  # a constant exponent that does not evaluate
    walk = _outcome(lambda: tuple(g.evaluate(env) for g in grad))
    assert _same(_outcome(ex.compile_many(grad, ARGS), *point), walk)
