"""Level-set backend on the unit circle and the 2:1 ellipse."""

import ctypes
import dataclasses
import json
import math
import os
import shutil
import tempfile
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st
from scipy.integrate import solve_ivp
from test_grammar import _LEAVES, _nodes, _shared_nodes, _text

from manisweep import (
    ImplicitBackend,
    Region,
    distance,
    exp_map,
    grad_sq_distance,
    log_map,
    parallel_transport,
    run_rate_study,
)
from manisweep import expressions as ex
from manisweep.cli import main
from manisweep.errors import ExpressionError, NumericsError, StructuralError
from manisweep.geometry import implicit, native
from manisweep.geometry.base import _norm
from manisweep.geometry.implicit import _emit_kernels, _on_floats, _passes
from manisweep.scenario import bundled_scenario


@pytest.fixture(scope="module")
def circle():
    return ImplicitBackend(2, ["x1^2 + x2^2 - 1"])


@pytest.fixture(scope="module")
def ellipse():
    return ImplicitBackend(2, ["x1^2/4 + x2^2 - 1"])


def test_circle_quarter_distance(circle):
    # geodesic distance on the circle is arc length
    assert distance(circle.point([1, 0]), circle.point([0, 1])) == pytest.approx(
        math.pi / 2, abs=1e-8
    )


def test_circle_exp_quarter_turn(circle):
    x = circle.point([1, 0])
    v = circle.tangent(x, [0, math.pi / 4])
    y = exp_map(x, v)
    assert np.allclose(y.coords, [math.cos(math.pi / 4), math.sin(math.pi / 4)], atol=1e-9)


def test_exp_against_independent_integrator(ellipse):
    # independent oracle: scipy DOP853 on the same projected second-order system
    x = np.array([2.0, 0.0])
    v0 = np.array([0.0, 0.9])

    def rhs(t, s):
        p, vel = s[:2], s[2:]
        jac = ellipse.constraint_jacobian(p)[0]
        flat = [ellipse._g_trees[0].diff(f"x{i}").diff(f"x{j}") for i in (1, 2) for j in (1, 2)]
        H = np.array([f.evaluate({"x1": p[0], "x2": p[1]}) for f in flat]).reshape(2, 2)
        lam = -(vel @ H @ vel) / (jac @ jac)
        return np.concatenate([vel, lam * jac])

    sol = solve_ivp(rhs, (0, 1), np.concatenate([x, v0]), method="DOP853", rtol=1e-12, atol=1e-13)
    reference = sol.y[:2, -1]
    y = exp_map(ellipse.point(x), ellipse.tangent(ellipse.point(x), v0))
    assert np.max(np.abs(y.coords - reference)) < 1e-7


def test_exp_log_inverse_implicit(circle, ellipse):
    for backend in (circle, ellipse):
        rng = np.random.default_rng(31)
        bud = backend.budget()
        for _ in range(40):
            x = backend.point(backend._project_point(rng.standard_normal(2) * 2))
            v = backend.random_tangent(rng, x, 0.9 * bud.rho)
            y = exp_map(x, v)
            back = log_map(x, y)
            assert np.max(np.abs(back.components - v.components)) < 1e-5
            assert abs(back.norm() - distance(x, y)) < 1e-5


def test_transport_isometry_and_symmetry_implicit(circle):
    rng = np.random.default_rng(37)
    bud = circle.budget()
    for _ in range(40):
        x = circle.point(circle._project_point(rng.standard_normal(2)))
        v = circle.random_tangent(rng, x, 0.9 * bud.rho)
        y = exp_map(x, v)
        w = circle.random_tangent(rng, x, 1.0)
        carried = parallel_transport(x, y, w)
        assert abs(carried.norm() - w.norm()) <= 1e-10 * max(w.norm(), 1e-30)
        gam = log_map(x, y)
        sym = parallel_transport(x, y, gam) + log_map(y, x)
        assert sym.norm() < 1e-8


def test_grad_sq_distance_finite_differences_implicit(circle):
    rng = np.random.default_rng(41)
    eps = 1e-5
    for _ in range(10):
        x = circle.point(circle._project_point(rng.standard_normal(2)))
        v = circle.random_tangent(rng, x, 1.0)
        if v.norm() < 0.2:
            continue
        y = exp_map(x, v)
        g = grad_sq_distance(x, y)
        basis = circle.tangent_basis(x)
        e = circle.tangent(x, basis[0])
        fp = distance(exp_map(x, e.scaled(eps)), y) ** 2
        fm = distance(exp_map(x, e.scaled(-eps)), y) ** 2
        fd = (fp - fm) / (2 * eps)
        assert abs(g.inner(e) - fd) <= 2e-5 * max(1.0, abs(fd))


def test_feasibility_of_exp_results(circle):
    rng = np.random.default_rng(43)
    bud = circle.budget()
    for _ in range(20):
        x = circle.point(circle._project_point(rng.standard_normal(2)))
        v = circle.random_tangent(rng, x, 0.9 * bud.rho)
        y = exp_map(x, v)
        assert circle.feasibility_residual(y.coords) < 1e-8


def test_circle_budget_is_flagged_estimate(circle):
    bud = circle.budget()
    assert bud.is_estimate
    assert bud.curvature_bound == pytest.approx(1.0, rel=1e-6)
    assert bud.rho == pytest.approx(math.pi / 2, rel=1e-6)


def test_ellipse_curvature_estimate_matches_analytic(ellipse):
    # curve curvature of x^2/4 + y^2 = 1 at parameter t:
    # kappa(t) = 2 / (4 sin^2 t + cos^2 t)^(3/2); max 2 at (2, 0)
    region = Region(ellipse.point([2.0, 0.0]), 0.4)
    bud = ellipse.budget(region)
    assert bud.is_estimate
    thetas = np.linspace(-0.25, 0.25, 101)
    analytic_max = max(2.0 / (4 * np.sin(t) ** 2 + np.cos(t) ** 2) ** 1.5 for t in thetas)
    assert bud.curvature_bound <= 2.0 + 1e-6
    assert bud.curvature_bound == pytest.approx(analytic_max, rel=0.05)


def test_infeasible_point_rejected(circle):
    with pytest.raises(StructuralError):
        circle.point([1.5, 0.0])


@pytest.mark.parametrize(
    "amb", [[0.0, 0.0], [1e200, 0.0]], ids=["gradient_vanishes", "gradient_overflows"]
)
def test_projection_that_breaks_down_is_a_numerics_error(circle, amb):
    with pytest.raises(NumericsError, match="broke down"):
        circle._project_point(amb)


def test_projection_of_a_nan_point_is_a_numerics_error(circle):
    with pytest.raises(NumericsError, match="could not restore feasibility") as info:
        circle._project_point([math.nan, 1.0])
    assert math.isnan(info.value.residual)


def test_two_constraint_manifold_in_r3():
    # intersection of the unit sphere with the plane x3 = 0: a circle
    M = ImplicitBackend(3, ["x1^2 + x2^2 + x3^2 - 1", "x3"])
    assert M.dim == 1
    x = M.point([1, 0, 0])
    v = M.tangent(x, [0, 0.5, 0])
    y = exp_map(x, v)
    assert np.allclose(y.coords, [math.cos(0.5), math.sin(0.5), 0.0], atol=1e-8)
    back = log_map(x, y)
    assert np.max(np.abs(back.components - v.components)) < 1e-6


# -- generated kernels ---------------------------------------------------------


def nested_quotient(depth):
    """``x1^2 + x2^2 - 1 + x1/(x1/(...x2))`` with ``depth`` nested quotients."""
    inner = "x2"
    for _ in range(depth):
        inner = f"x1/({inner})"
    return f"x1^2 + x2^2 - 1 + {inner}"


KERNEL_MANIFOLDS = {
    "ellipse_golden": (2, ["x1^2/4 + x2^2 - 1"]),
    "acceptance_circle": (2, ["x1^2 + x2^2 - 1"]),
    "two_equalities": (4, ["x1^2 + x2^2 + x3^2 + x4^2 - 1", "x4 - 0.3*x1*x2"]),
    # sin(x1) and x1*x2 recur in the derivatives: the kernels hold temporaries
    "shared_subexpressions": (3, ["sin(x1)*x2 + exp(x3/2) - cos(x1*x2) - 1 + x1^3"]),
    # second derivatives nest past INLINE_DEPTH: the kernels split them into temporaries
    "nested_quotient_20": (3, [nested_quotient(20)]),
}


def _sum_sq(v):
    s = v[0] * v[0]
    for c in v[1:]:
        s = s + c * c
    return s


def _stagewise_rk4(k, state, n, h, with_w):
    """RK4 as separate calls of the standalone kernels, stage by stage."""
    d = len(state) // (3 if with_w else 2)
    x, v, w = list(state[:d]), list(state[d : 2 * d]), list(state[2 * d :])
    spd = math.sqrt(_sum_sq(v))

    def shift(base, slope, c):
        return [b + c * h * s for b, s in zip(base, slope)]

    for _ in range(n):
        kx, kv, kw = [], [], []
        sx, sv, sw = x, v, w
        for c in (None, 0.5, 0.5, 1.0):
            if c is not None:
                sx, sv, sw = shift(x, kx[-1], c), shift(v, kv[-1], c), shift(w, kw[-1], c)
            kx.append(sv)
            kv.append(k["acc"](*sx, *sv))
            kw.append(k["acc_w"](*sx, *sv, *sw) if with_w else ())

        def combine(base, ks):
            k1, k2, k3, k4 = ks
            return [
                b + (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
                for b, a1, a2, a3, a4 in zip(base, k1, k2, k3, k4)
            ]

        x, v, w = combine(x, kx), combine(v, kv), combine(w, kw)
        x = list(k["proj_x"](*x))
        v = list(k["proj_t"](*x, *v))
        s = math.sqrt(_sum_sq(v))
        if s > 0.0:
            c = spd / s
            v = [vi * c for vi in v]
        if with_w:
            w = list(k["proj_t"](*x, *w))
    return tuple(x + v + w)


@pytest.mark.parametrize("name", sorted(KERNEL_MANIFOLDS))
def test_fused_rk4_kernels_equal_stagewise_calls(name):
    # the fused kernels must round exactly as the standalone kernels called
    # stage by stage; == on every output, not approx
    d, eqs = KERNEL_MANIFOLDS[name]
    b = ImplicitBackend(d, eqs)
    k = ex.run_emitted(_emit_kernels(b._g_trees, d))
    rng = np.random.default_rng(20)
    for _ in range(40):
        x = b._project_point(rng.standard_normal(d))
        v = b._project_tangent(x, rng.standard_normal(d)) * rng.uniform(0.05, 2.0)
        w = b._project_tangent(x, rng.standard_normal(d))
        n = int(rng.integers(1, 24))
        geo = tuple(x) + tuple(v)
        assert b._k_rk4_geo(geo, n, 1.0 / n) == _stagewise_rk4(k, geo, n, 1.0 / n, False)
        par = geo + tuple(w)
        assert b._k_rk4_par(par, n, 0.5 / n) == _stagewise_rk4(k, par, n, 0.5 / n, True)


@pytest.mark.parametrize("name", sorted(KERNEL_MANIFOLDS))
def test_feasibility_residual_is_max_abs_constraint(name):
    d, eqs = KERNEL_MANIFOLDS[name]
    b = ImplicitBackend(d, eqs)
    rng = np.random.default_rng(21)
    for _ in range(20):
        x = rng.standard_normal(d)
        assert b.feasibility_residual(x) == float(np.max(np.abs(np.array(b._g_fn(*x)))))
    # a NaN constraint value is the maximum wherever it stands, as in np.max
    for values in [(math.nan,), (0.5, math.nan), (math.nan, 0.5), (-2.0, 0.5)]:
        b._g_fn = lambda *x, values=values: values
        expected = float(np.max(np.abs(values)))
        got = b.feasibility_residual(np.zeros(d))
        assert got == expected or (math.isnan(got) and math.isnan(expected))


def test_default_budget_locates_its_point_once(monkeypatch):
    b = ImplicitBackend(2, ["x1^2/4 + x2^2 - 1"])
    calls = []
    locate = b._default_point
    monkeypatch.setattr(b, "_default_point", lambda: calls.append(1) or locate())
    first = b.budget()
    x = b.point([2.0, 0.0])
    y = exp_map(x, b.tangent(x, [0.0, 0.3]))
    log_map(x, y)
    parallel_transport(x, y, b.tangent(x, [0.0, 1.0]))
    assert b.budget() is first
    assert len(calls) == 1


@pytest.mark.parametrize("name", sorted(KERNEL_MANIFOLDS))
def test_kernels_on_floats_equal_kernels_on_numpy_scalars(name):
    d, eqs = KERNEL_MANIFOLDS[name]
    b = ImplicitBackend(d, eqs)
    rng = np.random.default_rng(22)
    for _ in range(20):
        x = b._project_point(rng.standard_normal(d))
        v = b._project_tangent(x, rng.standard_normal(d))
        state = tuple(np.concatenate((x, v)))  # numpy scalars
        assert isinstance(state[0], np.float64)
        got = _on_floats(b._k_rk4_geo, (*x.tolist(), *v.tolist()), 9, 1.0 / 9)
        assert np.array_equal(got, np.array(b._k_rk4_geo(state, 9, 1.0 / 9)))


@pytest.mark.parametrize("name", sorted(KERNEL_MANIFOLDS))
def test_kernels_agree_with_a_walk_of_the_derivative_trees(name):
    # Expr.evaluate walks each tree with no emitted code and no temporaries;
    # g and jac perform its operations exactly, acc agrees to rounding
    d, eqs = KERNEL_MANIFOLDS[name]
    b = ImplicitBackend(d, eqs)
    xs = [f"x{i}" for i in range(1, d + 1)]
    J = [[t.diff(x) for x in xs] for t in b._g_trees]
    rng = np.random.default_rng(23)
    for _ in range(20):
        x = b._project_point(rng.standard_normal(d)).tolist()
        v = b._project_tangent(np.array(x), rng.standard_normal(d)).tolist()
        env = dict(zip(xs, x))
        jac = np.array([[t.evaluate(env) for t in row] for row in J])
        assert b._g_fn(*x) == tuple(t.evaluate(env) for t in b._g_trees)
        assert b._jac_fn(*x) == tuple(jac.ravel().tolist())
        hess = [
            np.array([[row[min(j, k)].diff(xs[max(j, k)]).evaluate(env) for k in range(d)]
                      for j in range(d)])
            for row in J
        ]
        lam = np.linalg.solve(jac @ jac.T, [-(np.array(v) @ h @ np.array(v)) for h in hess])
        np.testing.assert_allclose(b._k_acc(*x, *v), jac.T @ lam, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize(
    "eqs, x, v",
    [
        # the gradient vanishes at the center: floats divide by zero
        (["x1^2 + x2^2 - 1"], [0.0, 0.0], [1.0, 0.0]),
        # a negative base to a fractional power: floats turn complex
        (["x2 - x1^1.5"], [-1.0, 0.5], [1.0, 1.0]),
    ],
    ids=["zero_division", "complex_power"],
)
def test_kernels_on_floats_fall_back_to_numpy_semantics(eqs, x, v):
    b = ImplicitBackend(2, eqs)
    x, v = np.array(x), np.array(v)
    with np.errstate(all="ignore"):
        expected = np.array(b._k_rk4_geo(tuple(np.concatenate((x, v))), 4, 0.25), dtype=float)
        got = _on_floats(b._k_rk4_geo, (*x.tolist(), *v.tolist()), 4, 0.25)
    np.testing.assert_array_equal(got, expected)  # nan where numpy gives nan


@pytest.mark.parametrize(
    "eqs, x, v, error",
    [
        # the gradient vanishes at the center: floats divide by zero
        (["x1^2 + x2^2 - 1"], [0.0, 0.0], [1.0, 0.0], ZeroDivisionError),
        # the Jacobian's x1^2.0 leaves the float range: floats raise
        (["x1^3 + x2^2 - 1"], [1e160, 0.0], [0.0, 1.0], OverflowError),
    ],
    ids=["zero_division", "overflow"],
)
def test_a_kernel_that_raises_on_floats_ends_in_the_restoration_error(eqs, x, v, error):
    b = ImplicitBackend(2, eqs)
    x, v = np.array(x), np.array(v)
    with pytest.raises(error):
        b._k_rk4_geo((*x.tolist(), *v.tolist()), 6, 1.0 / 6)
    # retried on numpy scalars, the step goes nan, and restoring it fails typed
    for fine in (False, True):
        with np.errstate(all="ignore"), pytest.raises(NumericsError) as info:
            b._integrate_geo(x, v, _norm(v), fine)
        assert str(info.value) == "could not restore feasibility from the given ambient point"
        assert math.isnan(info.value.residual)
        assert info.value.best.shape == (2,) and np.isnan(info.value.best).all()


@pytest.mark.parametrize("name", ["ellipse_golden", "two_equalities"])
def test_log_is_the_same_with_a_cold_or_a_warm_basis_memo(name):
    d, eqs = KERNEL_MANIFOLDS[name]
    warm = ImplicitBackend(d, eqs)
    rng = np.random.default_rng(41)
    x = warm.point(warm._project_point(rng.standard_normal(d)))
    ys = [warm.random_point(rng, x, 0.4) for _ in range(3)]
    # each log map from x after the first finds the memo warm at x
    for y in ys:
        cold = ImplicitBackend(d, eqs)._log(x.coords, y.coords)
        assert warm._log(x.coords, y.coords).tobytes() == cold.tobytes()
    # and a memo warm at another point does not serve x
    warm._basis_at(ys[0].coords)
    warm._log_cache.clear()
    cold = ImplicitBackend(d, eqs)._log(x.coords, ys[1].coords)
    assert warm._log(x.coords, ys[1].coords).tobytes() == cold.tobytes()


def test_shared_subexpressions_are_emitted_once_per_block():
    src = _emit_kernels([ex.parse(KERNEL_MANIFOLDS["shared_subexpressions"][1][0])], 3)
    # dg/dx1 and dg/dx2 both read sin(x1*x2): one temporary computes it
    jac = src[src.index("def jac(") : src.index("def acc(")]
    assert jac.count("sin((x1 * x2))") == 1
    # the Jacobian's temporaries follow the restoration loop's early exit
    head, tail = src[src.index("def proj_x(") : src.index("def proj_t(")].split("break")
    assert "_t" not in head and "sin((x1 * x2))" in tail


def test_kernel_source_grows_linearly_with_quotient_depth():
    def size(depth):
        return len(_emit_kernels([ex.parse(nested_quotient(depth))], 3))

    assert size(16) <= 2.5 * size(8)


def test_sixty_nested_quotients_validate(tmp_path):
    # at even depth the quotient is x2, so (0.5, 0.5, 0) lies on the level set
    doc = {
        "schema": 1,
        "manifold": {"kind": "implicit", "dim": 3, "equalities": [nested_quotient(60)]},
        "set": {"kind": "inequalities", "exprs": ["1"]},
        "horizon": 1.0,
        "initial_point": [0.5, 0.5, 0.0],
    }
    path = tmp_path / "quotient.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--scenario", str(path)]) == 0


# -- native kernels -----------------------------------------------------------

needs_cc = pytest.mark.skipif(shutil.which(native.compiler()[0]) is None,
                              reason="no C compiler to build the native kernels")


@pytest.fixture
def empty_kernel_cache(tmp_path, monkeypatch):
    """An empty on-disk kernel cache and an empty in-process memo, for this test only."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    native.load.cache_clear()
    yield tmp_path / "manisweep"
    native.load.cache_clear()


def _python_point(b, state, speed, fine):
    """``_integrate_geo``'s Python end point: ``_project_point`` of ``_passes``."""
    return b._project_point(_passes(b._k_rk4_geo, state, speed, fine)[: b.ambient_dim]).tolist()


@needs_cc
@pytest.mark.parametrize("name", sorted(KERNEL_MANIFOLDS))
def test_native_kernels_equal_the_python_kernels(name):
    # == on every end point: the C performs the Python kernels' operations in their
    # order, at speeds below 0.5, where the step floors of 6 and 8 hold, and above
    d, eqs = KERNEL_MANIFOLDS[name]
    b = ImplicitBackend(d, eqs)
    k = b._native
    assert k is not None
    rng = np.random.default_rng(24)
    for i in range(40):
        x = b._project_point(rng.standard_normal(d))
        v = b._project_tangent(x, rng.standard_normal(d))
        v *= rng.uniform(*((0.01, 0.5), (0.5, 2.5))[i % 2]) / _norm(v)
        state = (*x.tolist(), *v.tolist())
        for fine in (False, True):
            assert k.point(state, _norm(v), fine) == _python_point(b, state, _norm(v), fine)


@needs_cc
def test_native_point_rejects_a_state_of_the_wrong_length():
    # ctypes would zero-pad a short state into a zero velocity
    d, eqs = KERNEL_MANIFOLDS["ellipse_golden"]
    k = ImplicitBackend(d, eqs)._native
    for state in ((2.0, 0.0), (2.0, 0.0, 0.0, 1.0, 0.5)):
        with pytest.raises(ValueError, match="4 values expected"):
            k.point(state, 1.0, False)


@needs_cc
def test_native_log_rejects_arrays_of_the_wrong_length():
    # ctypes would zero-pad a short array and shift the ones after it
    d, eqs = KERNEL_MANIFOLDS["ellipse_golden"]
    b = ImplicitBackend(d, eqs)
    x = b._project_point([2.0, 0.1])
    y = b._integrate_geo(x, b._project_tangent(x, [0.0, 0.3]), 0.3, True)
    basis = b._basis_at(x)
    args = [x, y, basis, basis @ (y - x)]
    assert b._native.log(*args, 1.0 + _norm(y)) is not None
    for k, a in enumerate(args):
        for wrong in (a[..., :-1], np.concatenate([a, a], axis=-1)):
            with pytest.raises(ValueError, match=r"shapes \(\(2,\), \(2,\), \(1, 2\), \(1,\)\)"):
                b._native.log(*args[:k], wrong, *args[k + 1:], 1.0)


def _t_as_x2(e):
    """``e`` with the variable ``t`` renamed ``x2``."""
    if isinstance(e, ex.Var):
        return ex.Var("x2") if e.name == "t" else e
    return dataclasses.replace(e, **{n: _t_as_x2(getattr(e, n)) for n in e._operands})


_VARS = st.builds(ex.Var, st.sampled_from(["x1", "x2"]))
# a product of variables, a power of a variable or a function of a variable
_CURVED = st.one_of(
    st.builds(ex.Bin, st.just("*"), _VARS, _VARS),
    st.builds(ex.Bin, st.just("^"), _VARS, st.builds(ex.Num, st.sampled_from([2.0, 3.0]))),
    st.builds(ex.Fun, st.sampled_from(["sin", "cos", "exp"]), _VARS),
)
# the grammar's trees, and trees that read one subtree twice, of at most 6 leaves;
# two draws in three add a curved term, so most equalities have curvature terms
_GRAMMAR = st.one_of(st.recursive(_LEAVES, _nodes, max_leaves=6),
                     st.recursive(_LEAVES, _shared_nodes, max_leaves=6))
_EQUALITIES = st.one_of(
    st.builds(ex.Bin, st.sampled_from("+-*"), _CURVED, _GRAMMAR),
    st.builds(ex.Bin, st.sampled_from("+-*/"), _GRAMMAR, _CURVED),
    _GRAMMAR,
)


def _is_curved(e):
    """True when ``e`` holds a product or power of variables or a function of one."""
    if isinstance(e, ex.Fun) and isinstance(e.arg, ex.Var):
        return True
    if isinstance(e, ex.Bin) and e.op in "*^" and isinstance(e.lhs, ex.Var):
        return e.op == "^" or isinstance(e.rhs, ex.Var)
    return any(_is_curved(getattr(e, n)) for n in e._operands)


def _live(b, xc):
    """True when the equality's gradient at xc is finite and nonzero."""
    jac = b.constraint_jacobian(xc)
    return bool(np.isfinite(jac).all() and jac.any())


@needs_cc
def test_native_kernels_equal_the_python_kernels_on_grammar_trees():
    # the translator of rk4_geo, g and proj_x against the Python end point beyond
    # KERNEL_MANIFOLDS: == wherever the native call is clean, coarse and fine, from
    # states whose equality has a finite nonzero gradient.  From the others (a tree
    # with no live variable or a vanishing gradient, such as 0.0, x2 - x2 or
    # sin(2.8e16)) both languages refuse the geodesic: the C call is not clean,
    # and the backend raises Python's typed error
    calls, refused, curved = [], [], []

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(tree=_EQUALITIES, seed=st.integers(0, 2**32 - 1))
    def check(tree, seed):
        tree = _t_as_x2(tree)
        try:
            b = ImplicitBackend(2, [_text(tree)[0]])
        except (ExpressionError, StructuralError, ArithmeticError, ValueError):
            reject()
        curved.append(_is_curved(tree))
        if b._native is None:
            return
        rng = np.random.default_rng(seed)
        for _ in range(5):
            state = tuple(rng.standard_normal(4).tolist())
            speed = math.sqrt(state[2] * state[2] + state[3] * state[3])
            live = _live(b, state[:2])
            for fine in (False, True):
                got = b._native.point(state, speed, fine)
                if live:
                    calls.append(got is not None)
                    if got is not None:
                        assert got == _python_point(b, state, speed, fine)
                    continue
                assert got is None
                with pytest.raises(NumericsError) as python:
                    _python_point(b, state, speed, fine)
                with pytest.raises(NumericsError) as backend:
                    b._integrate_geo(np.array(state[:2]), np.array(state[2:]), speed, fine)
                assert str(backend.value) == str(python.value)
                refused.append(state)

    check()
    assert sum(calls) > 0.75 * len(calls), (sum(calls), len(calls))
    assert refused  # the draws still hold degenerate trees
    assert sum(curved) > len(curved) / 2, curved


@needs_cc
def test_backends_sharing_native_kernels_integrate_in_two_threads_as_in_one():
    # each call has its own arrays: two threads in the shared library at once
    # get the end points and log maps a serial run gets
    d, eqs = KERNEL_MANIFOLDS["ellipse_golden"]
    first, second = ImplicitBackend(d, eqs), ImplicitBackend(d, eqs)
    assert first._native is not None and first._native is second._native
    rng = np.random.default_rng(26)
    jobs = []
    for _ in range(250):
        x = first._project_point(rng.standard_normal(d))
        v = first._project_tangent(x, rng.standard_normal(d)) * rng.uniform(0.05, 2.0)
        jobs += [(x, v, _norm(v), False), (x, v, _norm(v), True)]

    def ends(b, order):
        return [b._integrate_geo(*jobs[i]).tobytes() for i in order]

    # the log maps back from the fine end points within the budget's radius
    pairs = [(x, first._integrate_geo(x, v, speed, fine)) for x, v, speed, fine in jobs
             if fine and speed < 1.0]

    def logs(b, order):
        b._log_cache.clear()
        return [b._log(*pairs[i]).tobytes() for i in order if i < len(pairs)]

    orders = (range(len(jobs)), range(len(jobs))[::-1])  # distinct states at once
    serial = [ends(first, order) for order in orders]
    serial_logs = [logs(first, order) for order in orders]
    # a buffer shared by the two threads corrupts only a few calls in a thousand
    with ThreadPoolExecutor(2) as pool:
        for _ in range(10):
            assert list(pool.map(ends, (first, second), orders)) == serial
        for _ in range(4):
            assert list(pool.map(logs, (first, second), orders)) == serial_logs


@needs_cc
@pytest.mark.parametrize(
    "eqs, x, v",
    [
        (["x1^2 + x2^2 - 1"], [0.0, 0.0], [1.0, 0.0]),
        (["x2 - x1^1.5"], [-1.0, 0.5], [1.0, 1.0]),
        (["x1^3 + x2^2 - 1"], [1e160, 0.0], [0.0, 1.0]),
    ],
    ids=["zero_division", "complex_power", "overflow"],
)
def test_a_native_call_python_floats_raise_on_ends_as_the_python_kernel_does(eqs, x, v):
    x, v = np.array(x), np.array(v)
    native_b, python_b = ImplicitBackend(2, eqs), ImplicitBackend(2, eqs)
    python_b._native = None
    assert native_b._native is not None
    for fine in (False, True):
        ends = []
        for b in (native_b, python_b):
            with np.errstate(all="ignore"):
                try:
                    ends.append(b._integrate_geo(x, v, _norm(v), fine).tobytes())
                except (NumericsError, ArithmeticError, ValueError, TypeError) as err:
                    best = getattr(err, "best", None)
                    ends.append((type(err), str(err), None if best is None else best.tobytes()))
        assert ends[0] == ends[1]


_SQUARE = """\
def rk4_geo(state, n, h):
    x1, x2, v1, v2 = state
    return (x1 ** 2.0, 1.0 / (1.0 / v1), v1, v2)

def g(x1, x2):
    return (x2,)

def proj_x(x1, x2):
    return (x1, x2 * x2)
"""


@needs_cc
def test_the_native_build_does_not_fold_powers_or_pass_a_raising_call(empty_kernel_cache):
    # a compiler that rewrites pow(x, 2.0) as x*x rounds this x differently; and the
    # restoration stops once |g| < 1e-13, at 0.5 ** 64 after six squarings
    x1 = 1.5151472691864707
    assert (x1 ** 2.0, x1 * x1) == (2.2956712473232193, 2.2956712473232197)
    k = native.load(_SQUARE)
    assert k.point((x1, 0.0, 0.5, 0.0), 1.0, False) == [x1 ** 2.0, 0.5 ** 64]
    for fine in (False, True):
        # Python raises on 1.0 / 0.0; C goes on to 1.0 / inf = 0.0, but the division
        # raised the divide-by-zero flag, so the call is handed back to Python
        assert k.point((x1, 0.0, 0.0, 1.0), 1.0, fine) is None
        # v2 never reaches the end point: only the check of the state hands it back
        assert k.point((x1, 0.0, 0.5, math.inf), 1.0, fine) is None
    assert native.translate(_SQUARE.replace("x1 ** 2.0", "x1 if h else v1"), None) is None
    # rk4_geo alone, without the restoration's kernels, is not translated
    for name in ("g", "proj_x"):
        assert native.translate(_SQUARE.replace(f"def {name}(", f"def {name}_(", 1), None) is None
    # nor a loop or a call it does not render, and then nothing loads, without a warning
    for construct in ("while h:\n        h = 0.0\n", "x1 = float(x1)\n"):
        src = _SQUARE.replace("    return (x1 ** 2.0", f"    {construct}    return (x1 ** 2.0")
        compile(src, "<kernels>", "exec")  # valid Python
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert native.translate(src, "libblas.so") is None and native.load(src) is None


def test_without_a_compiler_the_python_kernels_run_silently(empty_kernel_cache, monkeypatch):
    d, eqs = KERNEL_MANIFOLDS["two_equalities"]
    rng = np.random.default_rng(25)
    reference = ImplicitBackend(d, eqs)
    x = reference._project_point(rng.standard_normal(d))
    v = reference._project_tangent(x, rng.standard_normal(d))
    y = reference._integrate_geo(x, 0.5 * v, _norm(0.5 * v), fine=True)
    expected = (reference._integrate_geo(x, v, _norm(v), fine=False).tobytes(),
                reference._integrate_geo(x, v, _norm(v), fine=True).tobytes(),
                reference._transport(x, y, v).tobytes())
    cached = os.listdir(empty_kernel_cache)
    native.load.cache_clear()
    monkeypatch.setattr(native, "compiler", lambda: [str(empty_kernel_cache / "no-cc")])
    b = ImplicitBackend(d, eqs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = (b._integrate_geo(x, v, _norm(v), fine=False).tobytes(),
               b._integrate_geo(x, v, _norm(v), fine=True).tobytes(),
               b._transport(x, y, v).tobytes())
    assert b._native is None
    assert got == expected
    assert os.listdir(empty_kernel_cache) == cached  # no source or object left behind


@needs_cc
def test_backends_with_the_same_equalities_build_once(empty_kernel_cache, monkeypatch):
    builds = []
    run = native.subprocess.run
    monkeypatch.setattr(native.subprocess, "run", lambda *a, **k: builds.append(a) or run(*a, **k))
    d, eqs = KERNEL_MANIFOLDS["ellipse_golden"]
    x, v = np.array([2.0, 0.0]), np.array([0.0, 0.3])
    first, second = ImplicitBackend(d, eqs), ImplicitBackend(d, eqs)
    assert builds == [] and "_native" not in vars(first)  # nothing is built at construction
    ends = [b._integrate_geo(x, v, _norm(v), fine=True).tobytes() for b in (first, second)]
    assert len(builds) == 1 and first._native is second._native
    assert ends[0] == ends[1]
    assert len(os.listdir(empty_kernel_cache)) == 1
    native.load.cache_clear()  # as in a new process: the cached object loads without a build
    assert ImplicitBackend(d, eqs)._native is not None and len(builds) == 1


def test_a_cache_directory_others_may_write_is_not_used(empty_kernel_cache):
    empty_kernel_cache.mkdir(mode=0o700)
    assert native.cache_dir() == str(empty_kernel_cache)
    empty_kernel_cache.chmod(0o777)
    assert native.cache_dir() != str(empty_kernel_cache)


@needs_cc
def test_without_a_cache_directory_builds_leave_nothing_behind(empty_kernel_cache, monkeypatch):
    # each build goes to a temporary directory removed once the library is loaded:
    # a child forked by a rate study, which runs no atexit handler, leaves none either
    empty_kernel_cache.mkdir()
    empty_kernel_cache.chmod(0o777)
    tmp = empty_kernel_cache.parent / "tmp"
    tmp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    scn = bundled_scenario("implicit_ellipse_cap")
    run_rate_study(scn, [2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7], reference="finest")
    assert scn.backend._native is not None
    assert os.listdir(tmp) == [] and os.listdir(empty_kernel_cache) == []


# -- the native log map ---------------------------------------------------------


def _log_or_error(b, xc, yc):
    """``b._log(xc, yc)``'s bytes, or its error's type, message, residual and best."""
    try:
        with np.errstate(all="ignore"):
            return b._log(xc, yc).tobytes()
    except (NumericsError, ArithmeticError, ValueError, TypeError) as err:
        best = getattr(err, "best", None)
        return (type(err), str(err), repr(getattr(err, "residual", None)),
                None if best is None else best.tobytes())


def _native_shot(b, xc, yc):
    """The basis at xc, and the components of ``b``'s native ``log_map`` from ``_log``'s
    seed, or None where it hands the loop back."""
    basis = b._basis_at(xc)
    return basis, b._native.log(xc, yc, basis, basis @ (yc - xc), 1.0 + _norm(yc))


def _python_twin(b, monkeypatch=None):
    """A backend with ``b``'s equalities on the Python kernels and the Python loop,
    and the ``('r', fine)`` events of its end points; with ``monkeypatch``, also the
    ``('L',)`` events of every ``np.linalg.lstsq`` call, its Newton steps."""
    twin, events = ImplicitBackend(b.ambient_dim, b.key[2]), []
    twin._native = None
    integrate, lstsq = twin._integrate_geo, np.linalg.lstsq
    twin._integrate_geo = lambda xc, vc, speed, fine: (events.append(("r", fine))
                                                       or integrate(xc, vc, speed, fine))
    if monkeypatch is not None:
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda *a, **k: events.append(("L",)) or lstsq(*a, **k))
    return twin, events


def _branches(events, dim):
    """The branches of ``_shoot`` that its end point and Newton step events show."""
    seen = {"switch"} if ("r", True) in events else set()
    steps = [i for i, e in enumerate(events) if e == ("L",)]
    seen.add("newton" if steps else "chord")
    for i in steps:
        fine, j = events[i - 1][1], i + 1
        while j < len(events) and events[j] == ("r", fine):  # the line search's candidates
            j += 1
        if j - i > 2:
            seen.add("halving")
        # all 8 candidates fail, then the refreshed Jacobian's dim end points
        later = [k for k in steps if k > j]
        if j - i > 8 and later and later[0] - j > dim:
            seen.add("refresh")
    return seen


def _shooting_pairs(b, rng, n):
    """n seeded (x, y) coordinate pairs: near (0.003 apart), far (up to 0.9 rho),
    and y pushed off the manifold along its normal, by 1e-13..1e-10 (halvings,
    then convergence) or by 1e-9..1e-5 (the Jacobian refreshed, no convergence)."""
    rho = b.budget().rho
    pairs = []
    for i in range(n):
        x = b.point(b._project_point(rng.standard_normal(b.ambient_dim)))
        y = b.random_point(rng, x, (0.003, 0.9 * rho, 0.5 * rho, 0.5 * rho)[i % 4]).coords
        if i % 4 > 1:
            normal = b.constraint_jacobian(y)[0]
            low, high = ((-13, -10), (-9, -5))[i % 4 - 2]
            y = y + 10.0 ** rng.uniform(low, high) * normal / _norm(normal)
        pairs.append((x.coords, y))
    return pairs


def _check_shot(basis, shot, python):
    """A native log map that ends as the Python loop: its components where that loop
    converges, handed back where it raises; returns whether it converged."""
    if isinstance(python, bytes):
        assert shot is not None and (shot @ basis).tobytes() == python
    else:
        assert shot is None
    return shot is not None


@needs_cc
@pytest.mark.parametrize("name", sorted(KERNEL_MANIFOLDS))
def test_the_native_log_map_equals_the_python_loop(name, monkeypatch):
    # == components, or the same error, residual and best, on every branch of the loop;
    # the native loop converges exactly where the Python one does
    d, eqs = KERNEL_MANIFOLDS[name]
    b = ImplicitBackend(d, eqs)
    assert b._native.shoots
    twin, events = _python_twin(b, monkeypatch)
    exits, seen = [], set()
    for xc, yc in _shooting_pairs(b, np.random.default_rng(60), 24):
        basis, shot = _native_shot(b, xc, yc)
        events.clear()
        python = _log_or_error(twin, xc, yc)
        seen |= _branches(events, b.dim)
        assert _log_or_error(b, xc, yc) == python
        exits.append(_check_shot(basis, shot, python))
    assert seen == {"chord", "newton", "halving", "refresh", "switch"}
    assert exits.count(True) >= 16 and False in exits


@needs_cc
def test_an_exhausted_native_log_map_hands_back_to_the_python_loop(empty_kernel_cache,
                                                                    monkeypatch):
    # three iterations leave far pairs unconverged: the C, built with three, hands them
    # back, and the Python loop raises with its best residual and components
    monkeypatch.setattr(implicit, "SHOOTING_MAX_ITER", 3)
    d, eqs = KERNEL_MANIFOLDS["two_equalities"]
    b = ImplicitBackend(d, eqs)
    twin, _ = _python_twin(b)
    exits = []
    for xc, yc in _shooting_pairs(b, np.random.default_rng(61), 16):
        basis, shot = _native_shot(b, xc, yc)
        python = _log_or_error(twin, xc, yc)
        assert _log_or_error(b, xc, yc) == python
        exits.append(_check_shot(basis, shot, python))
    assert exits.count(False) >= 4 and True in exits


@needs_cc
def test_a_restoration_failure_hands_the_log_map_back_to_python(empty_kernel_cache,
                                                                monkeypatch):
    # no end point meets this feasibility tolerance: the native loop hands the map
    # back, and the Python loop raises the restoration error
    monkeypatch.setattr(ImplicitBackend, "feasibility_tol", 1e-300)
    d, eqs = KERNEL_MANIFOLDS["ellipse_golden"]
    b = ImplicitBackend(d, eqs)
    twin, _ = _python_twin(b)
    xc, yc = np.array([2.0, 0.0]), np.array([0.0, 1.0])
    basis, shot = _native_shot(b, xc, yc)
    assert shot is None
    python = _log_or_error(twin, xc, yc)
    message = "could not restore feasibility from the given ambient point"
    assert python[:2] == (NumericsError, message)
    assert _log_or_error(b, xc, yc) == python


@needs_cc
def test_the_native_log_map_equals_the_python_loop_on_grammar_trees():
    # the equalities of the grammar's trees: == components or the same error
    shots = []

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(tree=_EQUALITIES, seed=st.integers(0, 2**32 - 1))
    def check(tree, seed):
        try:
            b = ImplicitBackend(2, [_text(_t_as_x2(tree))[0]])
        except (ExpressionError, StructuralError, ArithmeticError, ValueError):
            reject()
        if b._native is None or not b._native.shoots:
            return
        twin, _ = _python_twin(b)
        rng = np.random.default_rng(seed)
        for _ in range(4):
            with np.errstate(all="ignore"):
                try:
                    xc = b._project_point(rng.standard_normal(2))
                    vc = b._project_tangent(xc, rng.standard_normal(2)) * rng.uniform(0.003, 1.0)
                    yc = b._integrate_geo(xc, vc, _norm(vc), True)
                except (NumericsError, ArithmeticError, ValueError, TypeError):
                    continue
            shots.append(_native_shot(b, xc, yc)[1] is not None)
            assert _log_or_error(b, xc, yc) == _log_or_error(twin, xc, yc)

    check()
    assert sum(shots) > len(shots) / 2, shots


@needs_cc
@pytest.mark.parametrize("found", ["nothing", "another_dot"])
def test_without_numpys_blas_the_python_log_map_runs(empty_kernel_cache, monkeypatch, found):
    # a resolver that finds no symbol, or a dot the probe sees differ from numpy's by
    # one bit: no native log map, and the Python loop's results
    resolved = native.numpy_blas()
    doubles = ctypes.POINTER(ctypes.c_double)
    dot_type = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_longlong, doubles, ctypes.c_longlong,
                                doubles, ctypes.c_longlong)

    @dot_type
    def another_dot(n, a, inc_a, b, inc_b):
        exact = np.array(a[:n]).dot(np.array(b[:n]))
        return float(np.nextafter(exact, math.inf)) if n > 1 else float(exact)

    blas = (resolved[0], (ctypes.cast(another_dot, ctypes.c_void_p).value, *resolved[1][1:]))
    monkeypatch.setattr(native, "numpy_blas", lambda: None if found == "nothing" else blas)
    d, eqs = KERNEL_MANIFOLDS["two_equalities"]
    b = ImplicitBackend(d, eqs)
    assert b._native is not None and not b._native.shoots
    zeros = np.zeros(d)
    assert b._native.log(zeros, zeros, np.zeros((d - 2, d)), zeros[2:], 1.0) is None
    twin, _ = _python_twin(b)
    for xc, yc in _shooting_pairs(b, np.random.default_rng(62), 8):
        assert _log_or_error(b, xc, yc) == _log_or_error(twin, xc, yc)
