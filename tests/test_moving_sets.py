import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls

from manisweep import (
    EuclideanBackend,
    HyperbolicBackend,
    ImplicitBackend,
    SphereBackend,
    distance,
    exp_map,
    log_map,
)
from manisweep.errors import NumericsError, StructuralError
from manisweep.moving_sets import (
    ACTIVITY_TOL,
    CATALOG,
    Constraint,
    MovingSet,
    _rotation,
    _solve,
    ball,
    ball_complement,
    halfline,
    half_space,
    inequalities,
    sphere_cap,
)
from manisweep.scenario import Scenario


@pytest.fixture(scope="module")
def disk():
    return ball(EuclideanBackend(2), center=[0.0, 0.0], radius=1.0)


@pytest.fixture(scope="module")
def cap():
    return sphere_cap(SphereBackend(2), axis=[0.0, 0.0, 1.0], height=0.0)


def test_membership_examples(disk, cap):
    E = disk.backend
    assert disk.member(0.0, E.point([0.5, 0.0]))
    assert not disk.member(0.0, E.point([2.0, 0.0]))
    S = cap.backend
    assert cap.member(0.0, S.point([0.0, 1.0, 0.0]))  # boundary within tolerance


def test_dist_to_set_examples(disk):
    E = disk.backend
    assert disk.dist_to_set(0.0, E.point([0.5, 0.5])) == 0.0
    assert disk.dist_to_set(0.0, E.point([2.0, 0.0])) == pytest.approx(1.0)


def test_disk_projection(disk):
    E = disk.backend
    res = disk.project(0.0, E.point([2.0, 0.0]))
    assert np.allclose(res.point.coords, [1.0, 0.0])
    assert res.dist == pytest.approx(1.0)
    member = E.point([0.3, -0.2])
    res2 = disk.project(0.0, member)
    assert res2.point is member and res2.dist == 0.0


def test_cap_dist_against_boundary_sampling(cap):
    S = cap.backend
    rng = np.random.default_rng(5)
    phis = np.linspace(0, 2 * math.pi, 80001)
    boundary = np.stack([np.cos(phis), np.sin(phis), np.zeros_like(phis)], axis=1)
    for _ in range(10):
        theta = rng.uniform(0.05, 0.8)
        lam = rng.uniform(0, 2 * math.pi)
        y = S.point(
            [
                math.cos(lam) * math.cos(theta),
                math.sin(lam) * math.cos(theta),
                -math.sin(theta),
            ]
        )
        oracle = float(np.min(np.arccos(np.clip(boundary @ y.coords, -1, 1))))
        assert cap.dist_to_set(0.0, y) == pytest.approx(oracle, abs=1e-6)
        res = cap.project(0.0, y)
        # nearest boundary point lies on the same meridian
        assert np.allclose(
            res.point.coords, [math.cos(lam), math.sin(lam), 0.0], atol=1e-9
        )
        assert res.dist == pytest.approx(theta, abs=1e-9)


def test_generators_interior_empty(disk):
    assert disk.proximal_normal_generators(0.0, disk.backend.point([0.2, 0.1])) == []


def test_disk_boundary_generator_is_outward_radial(disk):
    gens = disk.proximal_normal_generators(0.0, disk.backend.point([1.0, 0.0]))
    assert len(gens) == 1
    g = gens[0].components
    assert g[0] > 0 and abs(g[1]) < 1e-12


def test_inequality_disk_generator_matches_spec_form():
    E = EuclideanBackend(2)
    s = inequalities(E, ["1 - x1^2 - x2^2"])
    gens = s.proximal_normal_generators(0.0, E.point([1.0, 0.0]))
    assert np.allclose(gens[0].components, [2.0, 0.0])


def test_cap_equator_generator(cap):
    S = cap.backend
    gens = cap.proximal_normal_generators(0.0, S.point([1.0, 0.0, 0.0]))
    assert len(gens) == 1
    assert np.allclose(gens[0].components, [0.0, 0.0, -1.0])


def test_generators_require_membership(disk):
    with pytest.raises(StructuralError):
        disk.proximal_normal_generators(0.0, disk.backend.point([2.0, 0.0]))


def test_iterative_agrees_with_closed_forms(disk, cap):
    rng = np.random.default_rng(23)
    E = disk.backend
    for _ in range(10):
        y = E.point(rng.uniform(-1, 1, size=2) * 2.5)
        if disk.member(0.0, y):
            continue
        closed = disk.project(0.0, y)
        iterative = disk.project(0.0, y, method="iterative")
        assert iterative.converged
        assert distance(closed.point, iterative.point) < 1e-6
    S = cap.backend
    for _ in range(10):
        raw = rng.standard_normal(3)
        raw[2] = -abs(raw[2]) - 0.1
        y = S.point(raw / np.linalg.norm(raw))
        closed = cap.project(0.0, y)
        iterative = cap.project(0.0, y, method="iterative")
        assert iterative.converged
        assert distance(closed.point, iterative.point) < 1e-6


def test_halfline_projection_and_motion():
    E = EuclideanBackend(1)
    s = halfline(E, offset=0.0, speed=1.0)
    assert s.lipschitz_const == 1.0
    res = s.project(0.5, E.point([0.0]))
    assert np.allclose(res.point.coords, [0.5])
    assert s.member(0.2, E.point([0.3]))
    assert not s.member(0.5, E.point([0.3]))


def test_half_space_projection():
    E = EuclideanBackend(2)
    s = half_space(E, normal=[0.0, 1.0], offset=0.25)
    res = s.project(0.0, E.point([0.4, -1.0]))
    assert np.allclose(res.point.coords, [0.4, 0.25])


def test_ball_complement_projection_and_center_warning():
    E = EuclideanBackend(2)
    s = ball_complement(E, center=[0.0, 0.0], radius=1.0)
    res = s.project(0.0, E.point([0.5, 0.0]))
    assert np.allclose(res.point.coords, [1.0, 0.0])
    center = s.project(0.0, E.point([0.0, 0.0]))
    assert center.warning is not None
    assert np.linalg.norm(center.point.coords) == pytest.approx(1.0)


def test_rotating_cap_axis_path():
    S = SphereBackend(2)
    s = sphere_cap(S, axis=[0, 0, 1], height=0.0, omega=0.3)
    x = S.point([0.0, 1.0, 0.0])
    # axis at time t is (sin 0.3t, 0, cos 0.3t)
    t = 2.0
    a = np.array([math.sin(0.3 * t), 0.0, math.cos(0.3 * t)])
    vals = s.constraint_values(t, S.point(a))
    assert vals[0] == pytest.approx(1.0)
    assert s.constraint_values(t, x)[0] == pytest.approx(0.0)


def test_rotating_cap_interleaved_times_match_a_fresh_set():
    # the axis a(t) is memoized for the last t; revisiting an earlier time
    # must give what a set that never saw the later one gives
    S = SphereBackend(2)

    def make():
        return sphere_cap(S, axis=[0, 0, 1], height=0.2, omega=0.7, rotation_axis=[1, 1, 0])

    s = make()
    y = S.point([0.6, -0.48, -0.64])
    on = S.point([0.0, 0.0, 1.0])
    for t in (0.3, 1.1, 0.3, 0.0, 1.1, 0.0):
        ref = make()
        assert np.array_equal(s.constraint_values(t, y), ref.constraint_values(t, y))
        got, want = s.project(t, y), ref.project(t, y)
        assert np.array_equal(got.point.coords, want.point.coords)
        assert got.dist == want.dist
        assert s.active_set(t, got.point) == ref.active_set(t, want.point)
        assert s.active_set(t, on) == ref.active_set(t, on)
        grad = s.constraint_gradient(t, on, 0)
        assert np.array_equal(grad.components, ref.constraint_gradient(t, on, 0).components)


def numpy_rotate(vec, axis, angle):
    """The rotation as written with np.cross: the reference for ``_rotation``."""
    axis = np.asarray(axis, dtype=float)
    k = axis / np.linalg.norm(axis)
    return (
        vec * math.cos(angle)
        + np.cross(k, vec) * math.sin(angle)
        + k * np.dot(k, vec) * (1.0 - math.cos(angle))
    )


COORD = st.floats(min_value=-1e100, max_value=1e100, allow_nan=False)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(vec=st.lists(COORD, min_size=3, max_size=3), axis=st.lists(COORD, min_size=3, max_size=3),
       angle=st.floats(min_value=-100.0, max_value=100.0))
def test_rotation_matches_the_cross_product_formula_bit_for_bit(vec, axis, angle):
    assume(np.linalg.norm(axis) > 0.0)
    vec = np.array(vec)
    with np.errstate(all="ignore"):
        assert _rotation(vec, axis)(angle).tobytes() == numpy_rotate(vec, axis, angle).tobytes()


def test_a_rotating_caps_axis_is_the_cross_product_formula_at_every_time():
    # the axis a(t) as the set computes it, unit axis and cross product taken once,
    # against the formula evaluated afresh at 1,001 times, forward and back
    for rotation_axis in ([0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.3, -2.0, 0.7]):
        s = sphere_cap(SphereBackend(2), axis=[0, 0, 1], height=0.2, omega=0.7,
                       rotation_axis=rotation_axis)
        x = np.array([0.0, 0.0, 1.0])
        times = np.linspace(0.0, 10.0, 1001).tolist()
        for t in times + times[::-1]:
            want = numpy_rotate(np.array([0.0, 0.0, 1.0]), rotation_axis, 0.7 * t)
            assert s.constraints[0].ambient_gradient(t, x).tobytes() == want.tobytes()


def test_a_rotating_cap_requires_the_2_sphere():
    with pytest.raises(StructuralError, match="2-sphere"):
        sphere_cap(SphereBackend(3), axis=[0, 0, 0, 1], omega=0.3,
                   rotation_axis=[0, 1, 0, 0])
    sphere_cap(SphereBackend(3), axis=[0, 0, 0, 1])  # a fixed cap works on any sphere


VALUE = st.sampled_from([math.nan, 0.0, -0.0, 1e-7, -1e-7, 2e-7, -1e-10, -2e-10, 1.0, -1.0])


def fixed_values_set(values, calls):
    """Three constraints returning the given values, counting their evaluations."""
    def constraint(v):
        def value(t, x):
            calls.append(v)
            return v
        return Constraint(value, lambda t, x: np.zeros(2))

    return MovingSet(EuclideanBackend(2), [constraint(v) for v in values])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(values=st.lists(VALUE, min_size=3, max_size=3))
def test_membership_and_activity_agree_with_the_array_formulation(values):
    s = fixed_values_set(values, [])
    x = s.backend.point([0.0, 0.0])
    vals = s.constraint_values(0.0, x)
    assert s.member(0.0, x) == bool(np.all(vals >= -s.tolerances.feasibility))
    active = tuple(int(i) for i in np.flatnonzero(np.abs(vals) <= ACTIVITY_TOL))
    assert s.active_set(0.0, x) == active
    if s.member(0.0, x):
        assert s.active_set_and_distance(0.0, x) == (active, 0.0)


def test_membership_stops_at_the_first_violated_constraint():
    calls = []
    s = fixed_values_set([1.0, -1.0, math.nan], calls)
    assert not s.member(0.0, s.backend.point([0.0, 0.0]))
    assert calls == [1.0, -1.0]


def test_hausdorff_lipschitz_self_check():
    # d(x, C(t)) <= K_L |t - s| for x in C(s); boundary points x, the
    # projections of a query outside C(s), are where the bound is tight
    E = EuclideanBackend(2)
    moving = ball(E, center=[0.0, 0.0], radius=1.0, velocity=[0.7, 0.0])
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(60):
        t, s = rng.uniform(0, 1, size=2)
        if abs(t - s) < 1e-3:
            continue
        x = moving.project(s, E.point([0.7 * s + 2.0, 0.3])).point
        worst = max(worst, moving.dist_to_set(t, x) / abs(t - s))
    assert 0.5 * moving.lipschitz_const < worst <= moving.lipschitz_const + 1e-6

    S = SphereBackend(2)
    cap = sphere_cap(S, axis=[0, 0, 1], height=0.0, omega=0.3)
    worst = 0.0
    for _ in range(60):
        t, s = rng.uniform(0, 3, size=2)
        if abs(t - s) < 1e-3:
            continue
        x = cap.project(s, S.point([0.6, 0.0, -0.8])).point
        worst = max(worst, cap.dist_to_set(t, x) / abs(t - s))
    assert 0.5 * cap.lipschitz_const < worst <= cap.lipschitz_const + 1e-6


def test_projection_fixes_members_property(cap):
    rng = np.random.default_rng(9)
    S = cap.backend
    for _ in range(25):
        raw = rng.standard_normal(3)
        raw[2] = abs(raw[2])
        x = S.point(raw / np.linalg.norm(raw))
        res = cap.project(0.0, x)
        assert distance(res.point, x) < 1e-12


def test_empty_set_evidence():
    E = EuclideanBackend(2)
    s = inequalities(E, ["-1 - x1^2 - x2^2"])
    with pytest.raises(NumericsError, match="could not restore feasibility"):
        s.project(0.0, E.point([0.3, 0.2]))


# backend, a fixed center, a radius and the sampling radius around the center
BALL_BACKENDS = {
    "euclidean": (EuclideanBackend(2), [0.5, -0.25], 0.75, 1.5),
    "sphere": (SphereBackend(2), [0.0, 0.0, 1.0], 0.5, 1.2),
    "hyperbolic": (HyperbolicBackend(2), [1.0, 0.0, 0.0], 0.5, 1.2),
    "implicit": (ImplicitBackend(2, ["x1^2 + x2^2 - 1"]), [1.0, 0.0], 0.4, 0.9),
}


@pytest.mark.parametrize("kind", sorted(BALL_BACKENDS))
def test_ball_and_its_complement_are_exact_negatives(kind):
    backend, center, radius, spread = BALL_BACKENDS[kind]
    inside = ball(backend, center=center, radius=radius)
    outside = ball_complement(backend, center=center, radius=radius)
    g, h = inside.constraints[0], outside.constraints[0]
    c = backend.point(center)
    rng = np.random.default_rng(7)
    for _ in range(6):
        x = backend.random_point(rng, c, spread)
        if distance(c, x) < 1e-3:
            continue
        assert g.value(0.0, x.coords) == -h.value(0.0, x.coords)
        assert np.array_equal(g.ambient_gradient(0.0, x.coords), -h.ambient_gradient(0.0, x.coords))
        p, q = inside.closed_project(0.0, x.coords), outside.closed_project(0.0, x.coords)
        assert np.array_equal(p[0], q[0]) and p[1] is q[1] is None


# closed projectors work on coordinates; each must give the point-level
# formula's bits and a point that passes the backend's validation

CLOSED = dict(deadline=None, derandomize=True, database=None)
UNIT = st.floats(min_value=-1.0, max_value=1.0)
TIME = st.floats(min_value=0.0, max_value=5.0)


def _projects_to(set_, t, y, want):
    got = set_.project(t, y).point
    assert got.coords.tobytes() == want.coords.tobytes()
    set_.backend.point(got.coords)


def _ball_formula(c, y, radius):
    gam = log_map(c, y)
    return exp_map(c, gam.scaled(radius / gam.norm()))


@pytest.mark.parametrize("kind", sorted(BALL_BACKENDS))
@settings(max_examples=25, **CLOSED)
@given(seed=st.integers(0, 2**32 - 1), complement=st.booleans())
def test_closed_ball_projection_is_the_point_level_formula(kind, seed, complement):
    backend, center, radius, spread = BALL_BACKENDS[kind]
    set_ = (ball_complement if complement else ball)(backend, center=center, radius=radius)
    c = backend.point(center)
    y = backend.random_point(np.random.default_rng(seed), c, spread)
    assume(not set_.member(0.0, y) and distance(c, y) > 1e-14)
    _projects_to(set_, 0.0, y, _ball_formula(c, y, radius))


# one set across examples, so its center memo sees times in any order
MOVING_BALL = ball(EuclideanBackend(2), center=[0.5, -0.25], radius=0.75, velocity=[0.3, -0.2])


@settings(max_examples=60, **CLOSED)
@given(y=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2), t=TIME)
def test_moving_ball_projection_is_the_point_level_formula(y, t):
    E = MOVING_BALL.backend
    y = E.point(y)
    c = E.point(np.array([0.5, -0.25]) + t * np.array([0.3, -0.2]))
    assume(not MOVING_BALL.member(t, y))
    _projects_to(MOVING_BALL, t, y, _ball_formula(c, y, 0.75))


@settings(max_examples=60, **CLOSED)
@given(y=st.floats(-5.0, 5.0), t=TIME, offset=UNIT, speed=UNIT)
def test_halfline_projection_is_the_point_level_formula(y, t, offset, speed):
    E = EuclideanBackend(1)
    set_, y = halfline(E, offset=offset, speed=speed), E.point([y])
    assume(not set_.member(t, y))
    _projects_to(set_, t, y, E.point([max(y.coords[0], offset + speed * t)]))


@settings(max_examples=60, **CLOSED)
@given(y=st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2),
       normal=st.lists(UNIT, min_size=2, max_size=2), t=TIME, offset=UNIT, speed=UNIT)
def test_half_space_projection_is_the_point_level_formula(y, normal, t, offset, speed):
    a = np.array(normal)
    assume(float(a.dot(a)) > 1e-6)
    E = EuclideanBackend(2)
    set_, y = half_space(E, normal=normal, offset=offset, speed=speed), E.point(y)
    assume(not set_.member(t, y))
    gap = offset + speed * t - float(a.dot(y.coords))
    _projects_to(set_, t, y, E.point(y.coords + (gap / float(np.dot(a, a))) * a))


@settings(max_examples=60, **CLOSED)
@given(y=st.lists(UNIT, min_size=3, max_size=3), axis=st.lists(UNIT, min_size=3, max_size=3),
       height=st.floats(-0.9, 0.9), omega=UNIT, t=TIME)
def test_sphere_cap_projection_is_the_point_level_formula(y, axis, height, omega, t):
    y, axis = np.array(y), np.array(axis)
    assume(np.linalg.norm(y) > 1e-3 and np.linalg.norm(axis) > 1e-3)
    S = SphereBackend(2)
    set_, y = sphere_cap(S, axis=axis, height=height, omega=omega), S.point(y / np.linalg.norm(y))
    assume(not set_.member(t, y))
    a = set_.constraints[0].ambient_gradient(t, y.coords)  # the axis a(t)
    perp = y.coords - float(y.coords.dot(a)) * a
    assume(np.linalg.norm(perp) >= 1e-12)
    want = S.point(height * a + math.sqrt(1.0 - height * height) * (perp / np.linalg.norm(perp)))
    _projects_to(set_, t, y, want)


def test_catalog_dispatch():
    E = EuclideanBackend(1)
    s = CATALOG["halfline"](E, offset=0.0, speed=1.0)
    assert s.lipschitz_const == 1.0
    assert s.project(0.0, E.point([-0.5])).point.coords[0] == 0.0
    doc = {"schema": 1, "manifold": {"kind": "euclidean", "dim": 1},
           "set": {"kind": "nonsense"}, "horizon": 1.0, "initial_point": [0.0]}
    with pytest.raises(StructuralError, match="unknown set kind 'nonsense'"):
        Scenario(doc)


def test_projection_warning_beyond_working_radius(disk):
    far = disk.backend.point([9.0, 0.0])
    res = disk.project(0.0, far)
    assert res.warning is not None


@pytest.mark.parametrize("field", ["projector_kkt", "projector_step"])
def test_scenario_projector_tolerances_stop_the_iterative_projector(field):
    # a curved constraint on the sphere: no closed form, several iterations
    doc = {
        "schema": 1,
        "name": "bent_cap",
        "manifold": {"kind": "sphere", "dim": 2},
        "set": {"kind": "inequalities", "exprs": ["x3 - 0.5*x1^2"]},
        "horizon": 1.0,
        "initial_point": [0.0, 0.0, 1.0],
    }
    default = Scenario(doc)
    loose = Scenario(dict(doc, tolerances={field: 0.5}))
    assert getattr(loose.moving_set.tolerances, field) == 0.5
    y = default.backend.point([0.8, 0.36, -0.48])
    assert loose.moving_set.project(0.0, y).iterations == 1
    assert default.moving_set.project(0.0, y).iterations > 1


# -- the projector's KKT residual ---------------------------------------------

#: a base point and three ambient directions per backend; constraint i is
#: the hyperplane <a_i, x - c> >= 0 through c, so it is active at c
KKT_CASES = {
    "euclidean": (
        lambda: EuclideanBackend(3),
        [0.1, -0.2, 0.3],
        [[1.0, 0.2, 0.0], [0.3, -1.0, 0.5], [-0.4, 0.1, 1.0]],
    ),
    "sphere": (
        lambda: SphereBackend(2),
        [0.48, -0.6, 0.64],
        [[1.0, 0.2, 0.0], [0.3, -1.0, 0.5], [-0.4, 0.1, 1.0]],
    ),
    "hyperbolic": (
        lambda: HyperbolicBackend(2),
        [math.cosh(0.7), math.sinh(0.7) * 0.6, math.sinh(0.7) * 0.8],
        [[0.2, 1.0, 0.3], [0.0, -0.5, 1.0], [0.1, 0.7, -0.9]],
    ),
    "implicit": (
        lambda: ImplicitBackend(2, ["x1^2 + x2^2 - 1"]),
        [0.6, 0.8],
        [[-0.8, 0.6], [0.8, -0.6], [1.6, -1.2]],
    ),
}


def _hyperplane(a, c, slack=0.0):
    terms = " + ".join(f"({ai!r})*(x{i + 1} - ({ci!r}))" for i, (ai, ci) in enumerate(zip(a, c)))
    return f"{terms} + {slack!r}"


def _nnls_residual(set_, t, c, grad):
    """The residual as a nonnegative least-squares fit in tangent-basis coordinates."""
    backend = set_.backend
    basis = backend.tangent_basis(c)
    b = np.array([backend.inner(c, grad.components, e) for e in basis])
    active = set_.active_set(t, c)
    if not active:
        return float(np.linalg.norm(b))
    cols = [
        [backend.inner(c, set_.constraint_gradient(t, c, i).components, e) for e in basis]
        for i in active
    ]
    return float(nnls(np.array(cols).T, b)[1])


def _kkt_set(name, exprs):
    make, c, _ = KKT_CASES[name]
    backend = make()
    return inequalities(backend, exprs), backend.point(c)


def _assert_kkt_matches_nnls(set_, c, grad):
    got = set_._kkt_residual(0.0, c.coords, grad.components, set_.constraint_values(0.0, c))
    ref = _nnls_residual(set_, 0.0, c, grad)
    assert abs(got - ref) <= 1e-12 * grad.norm(), (got, ref)
    return got


@pytest.mark.parametrize("name", sorted(KKT_CASES))
@pytest.mark.parametrize("n_active", [0, 1, 2, 3])
def test_kkt_residual_matches_nnls(name, n_active):
    _, c, dirs = KKT_CASES[name]
    # the inactive constraints are shifted off c by a unit slack
    exprs = [_hyperplane(a, c, 0.0 if i < n_active else 1.0) for i, a in enumerate(dirs)]
    set_, x = _kkt_set(name, exprs)
    assert set_.active_set(0.0, x) == tuple(range(n_active))
    gens = [set_.constraint_gradient(0.0, x, i) for i in range(3)]
    rng = np.random.default_rng(11)
    for _ in range(40):
        # mixed-sign combinations: inside, outside and on the face of the cone
        coef = rng.standard_normal(3)
        grad = set_.backend.random_tangent(rng, x, 1.0)
        for k, g in zip(coef, gens):
            grad = grad + g.scaled(float(k) * rng.integers(0, 2))
        _assert_kkt_matches_nnls(set_, x, grad)
    if n_active == 0:
        grad = gens[0].scaled(2.0)
        vals = set_.constraint_values(0.0, x)
        assert set_._kkt_residual(0.0, x.coords, grad.components, vals) == grad.norm()


@pytest.mark.parametrize("name", sorted(KKT_CASES))
def test_kkt_residual_with_a_duplicated_gradient(name):
    _, c, dirs = KKT_CASES[name]
    once = _hyperplane(dirs[0], c)
    set_, x = _kkt_set(name, [once, once, _hyperplane(dirs[1], c)])
    assert set_.active_set(0.0, x) == (0, 1, 2)
    g0, _, g1 = (set_.constraint_gradient(0.0, x, i) for i in range(3))
    rng = np.random.default_rng(12)
    for _ in range(20):
        grad = set_.backend.random_tangent(rng, x, 1.0) + g0.scaled(float(rng.uniform(-1, 2)))
        _assert_kkt_matches_nnls(set_, x, grad)
    # inside the cone the residual vanishes
    inside = g0.scaled(0.7) + g1.scaled(0.3)
    assert _assert_kkt_matches_nnls(set_, x, inside) <= 1e-12 * inside.norm()


@pytest.mark.parametrize("name", sorted(KKT_CASES))
def test_kkt_residual_with_a_zero_optimal_multiplier(name):
    _, c, dirs = KKT_CASES[name]
    set_, x = _kkt_set(name, [_hyperplane(dirs[0], c), _hyperplane(dirs[1], c)])
    g0, g1 = (set_.constraint_gradient(0.0, x, i) for i in range(2))
    # the part of g1 orthogonal to g0 pairs negatively with g1, so the
    # optimal multipliers are (1, 0) and the residual is that part's length
    ortho = g1 - g0.scaled(g1.inner(g0) / g0.inner(g0))
    grad = g0 - ortho.scaled(0.5)
    got = _assert_kkt_matches_nnls(set_, x, grad)
    assert got == pytest.approx(0.5 * ortho.norm(), rel=1e-12, abs=1e-15)


# every double: finite ones of every magnitude, subnormals, both zeros, the
# infinities and NaN
_DOUBLES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(min_value=-2.3e-308, max_value=2.3e-308, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan]),
)


def _bits(x):
    return int(np.float64(x).view(np.int64))


@settings(max_examples=3000, deadline=None)
@given(pivot=_DOUBLES, rhs=_DOUBLES)
def test_a_one_by_one_solve_is_one_division_bit_for_bit(pivot, rhs):
    # LAPACK's solve of [[pivot]] mu = [rhs]; a zero pivot of either sign is singular
    outcomes = []
    for solve in (np.linalg.solve, _solve):
        try:
            (mu,) = solve([[pivot]], [rhs])
        except np.linalg.LinAlgError:
            mu = None
        outcomes.append(mu)
    want, got = outcomes
    assert (want is None) == (got is None) == (pivot == 0.0)
    if got is not None:
        assert _bits(got) == _bits(want), (got, want)
