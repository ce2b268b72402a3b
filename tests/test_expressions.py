import math

import pytest
from hypothesis import given, strategies as st

from manisweep import expressions as ex
from manisweep.errors import ExpressionError


def test_parse_and_evaluate_basic():
    t = ex.parse("x1^2 + x2^2 - 1")
    assert t.evaluate({"x1": 3.0, "x2": 4.0}) == pytest.approx(24.0)
    assert t.evaluate({"x1": 1.0, "x2": 0.0}) == pytest.approx(0.0)


def test_functions_and_time():
    t = ex.parse("sin(0.3*t) + cos(t)*exp(x1)")
    env = {"t": 0.7, "x1": -0.2}
    expected = math.sin(0.21) + math.cos(0.7) * math.exp(-0.2)
    assert t.evaluate(env) == pytest.approx(expected, rel=1e-14)


def test_power_right_associative_and_unary_minus():
    assert ex.parse("2^3^2").evaluate({}) == pytest.approx(512.0)
    assert ex.parse("-x1^2").evaluate({"x1": 3.0}) == pytest.approx(-9.0)
    assert ex.parse("(-x1)^2").evaluate({"x1": 3.0}) == pytest.approx(9.0)


def test_scientific_literals():
    assert ex.parse("1e-3 + 2.5E2").evaluate({}) == pytest.approx(250.001)


def test_unknown_variable_rejected():
    with pytest.raises(ExpressionError):
        ex.parse("x1 + q", allowed_vars={"x1", "x2", "t"})


def test_syntax_errors_carry_position():
    with pytest.raises(ExpressionError) as err:
        ex.parse("x1 + + ")
    assert err.value.position is not None
    with pytest.raises(ExpressionError):
        ex.parse("sin(x1")
    with pytest.raises(ExpressionError):
        ex.parse("x1 @ x2")


def test_nonconstant_exponent_has_no_derivative():
    with pytest.raises(ExpressionError):
        ex.parse("x1^x2").diff("x1")


@given(
    x=st.floats(-3, 3),
    y=st.floats(-3, 3),
)
def test_derivative_matches_finite_differences(x, y):
    t = ex.parse("sin(x1*x2) + x1^3 - x2/(x1^2 + 1) + exp(0.3*x1)")
    d = t.diff("x1")
    eps = 1e-6
    fd = (
        t.evaluate({"x1": x + eps, "x2": y}) - t.evaluate({"x1": x - eps, "x2": y})
    ) / (2 * eps)
    assert d.evaluate({"x1": x, "x2": y}) == pytest.approx(fd, rel=1e-5, abs=1e-5)


def test_compiled_function_matches_tree():
    t = ex.parse("x1^2/4 + x2^2 - 1")
    f = ex.compile_tree(t, ["x1", "x2"])
    for pt in [(2.0, 0.0), (0.0, 1.0), (1.3, -0.4)]:
        assert f(*pt) == pytest.approx(t.evaluate({"x1": pt[0], "x2": pt[1]}), abs=1e-15)


def test_compile_many_returns_tuple():
    trees = [ex.parse("x1 + x2"), ex.parse("x1 - x2")]
    f = ex.compile_many(trees, ["x1", "x2"])
    assert f(3.0, 1.0) == (4.0, 2.0)

