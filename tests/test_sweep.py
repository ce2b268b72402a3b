import math
from pathlib import Path

import numpy as np
import pytest

from manisweep import (
    EuclideanBackend,
    SphereBackend,
    admissible_step,
    catching_up,
    distance,
    exp_map,
    gronwall_separation,
    inclusion_residual,
    log_map,
    zero_perturbation,
)
from manisweep.errors import DomainError, NumericsError, StructuralError
from manisweep.moving_sets import MovingSet, ball, halfline, sphere_cap
from manisweep.scenario import Scenario, bundled_scenario
from manisweep.sweep import (
    Perturbation,
    Trajectory,
    _metadata,
    expression_perturbation,
    velocity_bound,
)

GOLDENS = ("halfline", "static_convex", "disk_moving_center", "sphere_rotating_cap",
           "implicit_ellipse_cap")


def make_scenario(**overrides):
    doc = {
        "schema": 1,
        "name": "halfline",
        "seed": 1,
        "manifold": {"kind": "euclidean", "dim": 1},
        "set": {"kind": "halfline", "offset": 0.0, "speed": 1.0},
        "perturbation": {"kind": "zero"},
        "horizon": 1.0,
        "initial_point": [0.0],
        "constants": {"lipschitz_const": 1.0, "prox_radius_hint": 1.0},
    }
    doc.update(overrides)
    return Scenario(doc)


def test_halfline_sweep_is_node_exact():
    scn = make_scenario()
    traj = catching_up(scn, 1e-2)
    for t, x in zip(traj.times, traj.nodes):
        assert x.coords[0] == pytest.approx(max(0.0, t), abs=1e-14)
    assert traj.certified


def test_halfline_sweep_nonzero_start():
    scn = make_scenario(initial_point=[0.3])
    traj = catching_up(scn, 1e-3)
    sol = scn.analytic_solution()
    worst = max(
        distance(traj.interpolate(t), sol(t)) for t in np.linspace(0, 1, 256)
    )
    assert worst <= 5e-3


def test_inactive_constraint_is_pure_flow():
    # static big disk, small inward field: projection never activates and
    # the nodes follow the explicit geodesic substeps exactly
    doc_set = {"kind": "ball", "center": [0.0, 0.0], "radius": 5.0}
    scn = make_scenario(
        manifold={"kind": "euclidean", "dim": 2},
        set=doc_set,
        perturbation={
            "kind": "expression",
            "components": ["-0.3", "0.1"],
            "sup_norm": 0.32,
            "lipschitz": 0.0,
        },
        initial_point=[0.5, 0.0],
        constants={"lipschitz_const": 0.0, "prox_radius_hint": 1.0},
    )
    traj = catching_up(scn, 0.1)
    for t, x in zip(traj.times, traj.nodes):
        assert np.allclose(x.coords, [0.5 - 0.3 * t, 0.1 * t], atol=1e-12)


def test_infeasible_initial_point_is_structural_error():
    with pytest.raises(StructuralError, match="x0"):
        make_scenario(initial_point=[-0.5])


def test_admissible_step_examples():
    # zero field on a static set: only the fixed step ceiling binds
    E = EuclideanBackend(1)
    static = halfline(E, offset=0.0, speed=0.0, lipschitz_const=0.0)
    adm = admissible_step(static, zero_perturbation(), 1.0, E.point([0.5]))
    assert adm.h_max == pytest.approx(1e6)
    assert adm.sub_horizon is None

    # ||f|| = 1 against rho = pi/2 forces h <= pi/4
    S = SphereBackend(2)
    cap = sphere_cap(S, axis=[0, 0, 1], height=0.0, prox_radius_hint=10.0)

    def unit_field(t, xc):
        return S.tangent_basis(S.point(xc))[0]

    f = Perturbation(unit_field, 1.0, 0.0)
    adm = admissible_step(cap, f, 0.1, S.point([0, 0, 1]))
    assert adm.details["h_rho"] == pytest.approx(math.pi / 4)

    # K_L = 2, ||f|| = 1, eta = 0.1: sub-horizon below 0.1 / (2 (2*1 + 2)) -- i.e.
    # min(eta/2, ell) / (2 ||f|| + K_L) with ell defaulting to eta/2
    E2 = EuclideanBackend(2)
    fast = ball(
        E2, center=[0.0, 0.0], radius=3.0, lipschitz_const=2.0, prox_radius_hint=0.1
    )
    f2 = Perturbation(lambda t, xc: np.array([1.0, 0.0]), 1.0, 0.0)
    adm2 = admissible_step(fast, f2, 1.0, E2.point([0.0, 0.0]))
    assert adm2.sub_horizon == pytest.approx(0.0125, rel=1e-6)
    assert adm2.sub_horizon < 0.0125


def test_velocity_bound_on_goldens():
    for name in ("halfline", "disk_moving_center", "sphere_rotating_cap", "static_convex"):
        scn = bundled_scenario(name)
        for h in (0.05, 0.02, 0.01):
            traj = catching_up(scn, h)
            bound = (
                2.0 * scn.perturbation.sup_norm
                + scn.moving_set.lipschitz_const
                + 1e-6
            )
            assert traj.max_velocity() <= bound, (name, h)


def test_interpolation_nodes_and_sphere_midpoint():
    scn = bundled_scenario("sphere_rotating_cap")
    traj = catching_up(scn, 0.05)
    for i in (0, 3, len(traj.nodes) - 1):
        assert distance(traj.interpolate(float(traj.times[i])), traj.nodes[i]) < 1e-12
    # midpoint between nodes is the spherical midpoint (slerp at 1/2)
    i = 4
    tm = 0.5 * (traj.times[i] + traj.times[i + 1])
    mid = traj.interpolate(float(tm))
    a, b = traj.nodes[i].coords, traj.nodes[i + 1].coords
    theta = math.acos(np.clip(np.dot(a, b), -1, 1))
    slerp = (math.sin(theta / 2) / math.sin(theta)) * (a + b)
    slerp = slerp / np.linalg.norm(slerp)
    assert np.allclose(mid.coords, slerp, atol=1e-12)


def test_interpolation_outside_horizon_is_domain_error():
    traj = catching_up(make_scenario(), 0.1)
    with pytest.raises(DomainError):
        traj.interpolate(1.5)
    with pytest.raises(DomainError):
        traj.interpolate(-0.1)


def test_euclidean_interpolation_is_linear():
    scn = make_scenario(initial_point=[0.3])
    traj = catching_up(scn, 0.25)
    t = 0.6
    i = traj.locate(t)
    s = (t - traj.times[i]) / (traj.times[i + 1] - traj.times[i])
    expect = (1 - s) * traj.nodes[i].coords + s * traj.nodes[i + 1].coords
    assert np.allclose(traj.interpolate(t).coords, expect, atol=1e-14)


def test_inclusion_residual_trivial_cases():
    # inactive constraint, constant field: w is O(solver tolerance)
    doc_set = {"kind": "ball", "center": [0.0, 0.0], "radius": 5.0}
    scn = make_scenario(
        manifold={"kind": "euclidean", "dim": 2},
        set=doc_set,
        perturbation={
            "kind": "expression",
            "components": ["0.2", "0.0"],
            "sup_norm": 0.21,
            "lipschitz": 0.0,
        },
        initial_point=[0.0, 0.0],
        constants={"lipschitz_const": 0.0, "prox_radius_hint": 1.0},
    )
    traj = catching_up(scn, 0.1)
    r = inclusion_residual(traj, 0.137, fitted_E=0.0, n_members=80, seed=1)
    assert r.conclusive
    assert r.value <= 1e-9

    # half-line sliding phase: w points along the outward normal
    scn2 = make_scenario()
    traj2 = catching_up(scn2, 0.1)
    r2 = inclusion_residual(traj2, 0.537, fitted_E=0.0, n_members=80, seed=1)
    assert r2.conclusive
    assert r2.value <= 1e-9


def test_inclusion_residual_needs_step_interior():
    traj = catching_up(make_scenario(), 0.1)
    with pytest.raises(DomainError):
        inclusion_residual(traj, 0.5, fitted_E=0.0)


def test_gronwall_identical_starts_zero_separation():
    scn = make_scenario(initial_point=[0.3])
    curve = gronwall_separation(scn, scn.x0, 0.05)
    assert float(np.max(curve.separation)) == 0.0


def test_gronwall_halfline_merges():
    scn = make_scenario(initial_point=[0.0])
    other = scn.backend.point([0.1])
    curve = gronwall_separation(scn, other, 0.01)
    # both solutions ride x(t) = t after t = 0.1; separation hits zero and stays
    tail = curve.separation[curve.times >= 0.12]
    assert float(np.max(tail)) <= 1e-12


def test_gronwall_static_convex_rate_bounded():
    scn = bundled_scenario("static_convex")
    x0p = scn.backend.point(np.asarray(scn.x0.coords) + [1e-3, 0.0])
    curve = gronwall_separation(scn, x0p, 0.01)
    # fitted E = 0 on the convex disk, so the bound is 2 L_f
    bound = 2.0 * (0.0 + scn.perturbation.lipschitz)
    assert curve.fitted_rate is not None
    assert curve.fitted_rate <= bound * 1.2
    assert curve.fitted_rate == pytest.approx(0.5, abs=0.05)


def test_determinism_bit_identical_csv(tmp_path):
    scn = bundled_scenario("disk_moving_center")
    a = catching_up(scn, 0.02).to_csv(tmp_path / "a.csv")
    b = catching_up(scn, 0.02).to_csv(tmp_path / "b.csv")
    assert a == b
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_csv_evaluates_each_node_once_and_projects_only_non_members(tmp_path):
    E = EuclideanBackend(1)
    line = halfline(E, offset=0.0)
    value, calls = line.constraints[0].value, []
    line.constraints[0].value = lambda t, x: calls.append(t) or value(t, x)
    nodes = [E.point([0.5]), E.point([0.0]), E.point([-0.25])]
    traj = Trajectory(line, zero_perturbation(), np.array([0.0, 0.5, 1.0]), nodes, 0.5,
                      np.zeros(2), {}, [])
    rows = traj.to_csv(tmp_path / "n.csv").splitlines()[1:]
    assert [r.split(",")[-2:] for r in rows] == [["0.0", ""], ["0.0", "0"], ["0.25", ""]]
    # one evaluation per node: the projection decides membership from it
    assert len(calls) == len(nodes)


@pytest.mark.parametrize("name, h, per_projection", [
    ("implicit_ellipse_cap", 1e-3, 2),  # the restoration's and the polish's candidates
    ("disk_moving_center", 2.5e-4, 1),  # the closed-form projection's node
])
def test_catching_up_evaluates_each_constraint_once_per_iterate(name, h, per_projection,
                                                                monkeypatch):
    scn = bundled_scenario(name)
    calls, projections = [], []
    for k in scn.moving_set.constraints:
        monkeypatch.setattr(k, "value", lambda t, x, value=k.value: calls.append(t) or value(t, x))
    project = MovingSet.project
    monkeypatch.setattr(MovingSet, "project",
                        lambda *a, **kw: projections.append(a[1]) or project(*a, **kw))
    traj = catching_up(scn, h)
    steps = len(traj.nodes) - 1
    # x0's check, each drifted point once, and per projection only the values
    # of iterates the projector had not evaluated yet
    assert len(calls) == 1 + steps + per_projection * len(projections)
    if name == "implicit_ellipse_cap":
        # every step projects, at 3 evaluations a step (12 when the projector
        # evaluated each iterate again)
        assert len(projections) == steps == 1000
        assert len(calls) - 1 <= 3000


def test_oversized_step_is_warned_not_fatal():
    scn = bundled_scenario("sphere_rotating_cap")
    traj = catching_up(scn, 2.5)  # beyond the admissible bound
    assert not traj.certified
    assert any("admissible" in w for w in traj.warnings)


def test_projection_failure_carries_partial_trajectory():
    # a field strong enough to jump past the working region in one step
    scn = make_scenario(
        manifold={"kind": "sphere", "dim": 2},
        set={"kind": "sphere_cap", "axis": [0.0, 0.0, 1.0], "height": 0.0, "omega": 0.0},
        perturbation={
            "kind": "expression",
            "components": ["100.0", "0.0", "0.0"],
            "sup_norm": 100.0,
            "lipschitz": 0.0,
        },
        initial_point=[0.0, 0.0, 1.0],
        constants={"lipschitz_const": 0.0, "prox_radius_hint": 1.0},
    )
    with pytest.raises(NumericsError) as err:
        catching_up(scn, 0.5)
    assert isinstance(err.value.best, Trajectory)
    assert len(err.value.best.nodes) >= 1


def test_scheme_matches_definition_on_sphere():
    scn = bundled_scenario("sphere_rotating_cap")
    h = 0.05
    traj = catching_up(scn, h)
    # re-derive a middle node from its predecessor via the definition
    i = 7
    x = traj.nodes[i]
    f = scn.perturbation(float(traj.times[i]), x)
    drift = exp_map(x, f.scaled(h))
    res = scn.moving_set.project(float(traj.times[i + 1]), drift)
    assert distance(res.point, traj.nodes[i + 1]) < 1e-12


def test_velocity_margin_comes_from_the_scenario():
    # the boundary moves at speed 1 but K_L is declared as 0.95; the
    # scenario's margin of 0.1 covers the gap, so the run certifies
    scn = make_scenario(
        constants={"lipschitz_const": 0.95, "prox_radius_hint": 1.0},
        tolerances={"velocity_margin": 0.1},
    )
    traj = catching_up(scn, 0.01)
    assert traj.max_velocity() == pytest.approx(1.0)
    assert traj.certified, traj.warnings
    assert traj.metadata["tolerances"]["velocity_margin"] == 0.1
    tight = catching_up(make_scenario(constants=scn.document["constants"]), 0.01)
    assert not tight.certified
    assert any("discrete velocity" in w for w in tight.warnings)


def test_perturbation_over_its_bound_decertifies_each_run():
    doc = dict(bundled_scenario("disk_moving_center").document)
    doc["perturbation"] = dict(doc["perturbation"], components=["0.2", "0.0"])
    scn = Scenario(doc)
    warning = "the perturbation exceeded its declared bound 0.12 at 100 of 100 steps"
    for _ in range(2):  # the same scenario gives the same verdict on every run
        traj = catching_up(scn, 1e-2)
        assert not traj.certified
        assert traj.warnings == [warning]
        assert traj.metadata_document()["warnings"] == [warning]


def reference_catching_up(scenario, h):
    """The catching-up scheme written with the public Point API, step by step:
    pert(t, x), exp_map, MovingSet.project and distance; its CSV evaluates
    each node's active set and distance after the run."""
    set_, pert, x0 = scenario.moving_set, scenario.perturbation, scenario.x0
    horizon = float(scenario.horizon)
    n = max(1, math.ceil(horizon / h - 1e-12))
    times = np.minimum(np.arange(n + 1) * h, horizon)
    times[-1] = horizon
    adm = admissible_step(set_, pert, horizon, x0)
    warnings = []
    if h > adm.h_max * (1 + 1e-12):
        warnings.append(
            f"step {h:.3g} exceeds the admissible bound {adm.h_max:.3g}; "
            "run continues uncertified"
        )
    nodes, velocities, iterations, exceeded = [x0], np.zeros(n), 0, 0
    for i in range(n):
        t_next, hi = float(times[i + 1]), float(times[i + 1] - times[i])
        f = pert(float(times[i]), nodes[i])
        exceeded += f.norm() > pert.sup_norm + 1e-9
        res = set_.project(t_next, exp_map(nodes[i], f.scaled(hi)))
        iterations += res.iterations
        if res.warning is not None:
            warnings.append(f"step {i}: {res.warning}")
        nodes.append(res.point)
        velocities[i] = distance(nodes[i], nodes[i + 1]) / hi
    if exceeded:
        warnings.append(
            f"the perturbation exceeded its declared bound {pert.sup_norm:.6g} "
            f"at {exceeded} of {n} steps"
        )
    traj = Trajectory(set_, pert, times, nodes, h, velocities,
                      _metadata(scenario, h, adm, iterations), warnings)
    if traj.max_velocity() > velocity_bound(scenario):
        traj.warnings.append(
            f"discrete velocity {traj.max_velocity():.6g} exceeds the bound "
            f"2||f|| + K_L = {velocity_bound(scenario):.6g}"
        )
    return traj


def _hyperbolic_ball(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
    from perfbench.workloads import HYPERBOLIC_BALL

    return Scenario(HYPERBOLIC_BALL)


def _assert_bit_identical(scn, h, tmp_path):
    got, want = catching_up(scn, h), reference_catching_up(scn, h)
    assert [x.coords.tobytes() for x in got.nodes] == [x.coords.tobytes() for x in want.nodes]
    assert got.times.tobytes() == want.times.tobytes()
    assert got.discrete_velocities.tobytes() == want.discrete_velocities.tobytes()
    assert got.warnings == want.warnings
    assert repr(got.metadata_document()) == repr(want.metadata_document())
    assert got.to_csv(tmp_path / "got.csv") == want.to_csv(tmp_path / "want.csv")
    return got


@pytest.mark.parametrize("h", [1e-2, 2.5e-3])
@pytest.mark.parametrize("name", GOLDENS + ("hyperbolic_ball",))
def test_catching_up_is_bit_identical_to_the_point_level_scheme(name, h, tmp_path, monkeypatch):
    scn = _hyperbolic_ball(monkeypatch) if name == "hyperbolic_ball" else bundled_scenario(name)
    _assert_bit_identical(scn, h, tmp_path)


def test_oversized_and_over_bound_runs_are_bit_identical_to_the_point_level_scheme(tmp_path):
    oversized = _assert_bit_identical(bundled_scenario("sphere_rotating_cap"), 2.5, tmp_path)
    assert any("admissible" in w for w in oversized.warnings)
    doc = dict(bundled_scenario("disk_moving_center").document)
    doc["perturbation"] = dict(doc["perturbation"], components=["0.2", "0.0"])
    over = _assert_bit_identical(Scenario(doc), 1e-2, tmp_path)
    assert any("exceeded its declared bound" in w for w in over.warnings)
