import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from manisweep import (
    EuclideanBackend,
    HyperbolicBackend,
    ImplicitBackend,
    Point,
    Region,
    SphereBackend,
    certify_scenario,
    distance,
    exp_map,
    run_rate_study,
    studies,
)
from manisweep.artifacts import dumps
from manisweep.errors import StructuralError
from manisweep.regularity import probe_projection_uniqueness
from manisweep.scenario import Scenario, bundled_scenario


def test_halfline_rate_study_first_order():
    scn = bundled_scenario("halfline")
    steps = [2.0**-k for k in range(4, 11)]
    study = run_rate_study(scn, steps, reference="analytic")
    assert study.fitted_order is not None
    assert study.fitted_order >= 0.9
    for h, e in zip(study.steps, study.errors):
        assert e <= 0.1 * math.sqrt(h)


def test_rate_study_requires_sorted_steps_and_levels():
    scn = bundled_scenario("halfline")
    with pytest.raises(StructuralError):
        run_rate_study(scn, [0.1, 0.2, 0.05, 0.025])
    with pytest.raises(StructuralError):
        run_rate_study(scn, [0.1, 0.05, 0.025])


def test_rate_study_analytic_unavailable():
    scn = bundled_scenario("sphere_rotating_cap")
    with pytest.raises(StructuralError, match="analytic"):
        run_rate_study(scn, [0.1, 0.05, 0.025, 0.0125], reference="analytic")


def test_inactive_flow_study_saturates():
    # constant field, constraint never active: the explicit geodesic
    # substeps are exact, so every level sits at solver tolerance
    scn = Scenario(
        {
            "schema": 1,
            "name": "flow",
            "manifold": {"kind": "euclidean", "dim": 2},
            "set": {"kind": "ball", "center": [0.0, 0.0], "radius": 5.0},
            "perturbation": {
                "kind": "expression",
                "components": ["0.3", "-0.1"],
                "sup_norm": 0.32,
                "lipschitz": 0.0,
            },
            "horizon": 1.0,
            "initial_point": [0.0, 0.0],
            "constants": {"lipschitz_const": 0.0, "prox_radius_hint": 1.0},
        }
    )
    study = run_rate_study(scn, [0.1, 0.05, 0.025, 0.0125], reference="finest")
    assert study.fitted_order is None
    assert all(reason == "saturated at solver tolerance" for _, reason in study.excluded)


def test_rotating_cap_self_refinement_sqrt_bound():
    scn = bundled_scenario("sphere_rotating_cap")
    steps = [0.04, 0.02, 0.01, 0.005]
    study = run_rate_study(scn, steps, reference="finest")
    # K frozen at calibration: errors stayed ~4e-3 sqrt(h) or better
    for h, e in zip(study.steps, study.errors):
        assert e <= 0.02 * math.sqrt(h)
    assert study.fitted_order is not None
    assert study.fitted_order >= 0.8


def test_rate_study_report_shapes(tmp_path):
    scn = bundled_scenario("halfline")
    study = run_rate_study(scn, [2.0**-k for k in range(4, 8)], reference="analytic")
    doc = study.to_dict()
    assert doc["kind"] == "rate_study"
    assert len(doc["steps"]) == len(doc["errors"]) == 4
    table = study.table()
    assert "fitted order" in table
    data = study.gnuplot_data()
    assert len(data.strip().splitlines()) == 4


def test_certify_halfline_pass_with_zero_E():
    rep = certify_scenario(bundled_scenario("halfline"))
    assert rep.status == "pass"
    assert rep.fitted_E == 0.0
    assert rep.max_velocity <= rep.velocity_bound
    # each check is a named tuple, written as an object of its fields
    doc = rep.to_dict()
    assert (doc["kind"], doc["scenario"]) == ("certification", rep.scenario)
    name, status, detail = rep.checks[0]
    assert rep.checks[0].name == name == "integration"
    assert doc["checks"][0] == {"name": name, "status": status, "detail": detail}


def test_certify_is_idempotent_byte_for_byte():
    scn = bundled_scenario("disk_moving_center")
    a = dumps(certify_scenario(scn))
    b = dumps(certify_scenario(scn))
    assert a == b


def test_certify_annulus_complement_warns_with_radius_cited():
    # state pushed toward the hole of {|x| >= 1}: the empirical uniqueness
    # radius is about 1, well below the optimistic declared hint
    scn = Scenario(
        {
            "schema": 1,
            "name": "annulus",
            "manifold": {"kind": "euclidean", "dim": 2},
            "set": {"kind": "ball_complement", "center": [0.0, 0.0], "radius": 1.0},
            "perturbation": {
                "kind": "expression",
                "components": ["-0.4*x1", "-0.4*x2"],
                "sup_norm": 1.0,
                "lipschitz": 0.4,
            },
            "horizon": 1.0,
            "initial_point": [1.2, 0.0],
            "constants": {"lipschitz_const": 0.0, "prox_radius_hint": 4.0},
        }
    )
    rep = certify_scenario(scn)
    assert rep.status == "warn"
    details = {name: detail for name, _, detail in rep.checks}
    assert "empirical radius" in details["projection_uniqueness"]
    assert rep.empirical_uniqueness_radius is not None


def test_certify_rotating_cap_pass_with_constants_listed():
    rep = certify_scenario(bundled_scenario("sphere_rotating_cap"))
    assert rep.status == "pass"
    assert rep.fitted_E is not None and rep.fitted_E < 1e-3
    assert rep.empirical_uniqueness_radius == pytest.approx(1.0)
    assert rep.max_inclusion_residual is not None


def test_rate_study_seed_stability():
    # the study itself is deterministic; stability across scenario seeds
    scn = bundled_scenario("halfline")
    orders = []
    for seed in range(3):
        doc = dict(scn.document)
        doc["seed"] = seed
        study = run_rate_study(Scenario(doc), [2.0**-k for k in range(4, 9)])
        orders.append(study.fitted_order)
    assert max(orders) - min(orders) < 0.05


def test_certify_passes_the_uniqueness_tolerance_to_the_probe(monkeypatch):
    seen = []

    def probe(*args, **kwargs):
        seen.append(kwargs.get("agree_tol"))
        raise StructuralError("probe skipped")

    monkeypatch.setattr(studies, "probe_projection_uniqueness", probe)
    doc = dict(bundled_scenario("halfline").document)
    doc["tolerances"] = dict(doc["tolerances"], uniqueness=1e-3)
    rep = certify_scenario(Scenario(doc))
    assert seen == [1e-3]
    assert ("projection_uniqueness", "warn", "probe skipped") in rep.checks


def _halfline_from_t0_interior():
    # the visited region [0.054, 1.266] lies inside C(0) = {x >= 0}, so the
    # sampler finds no boundary point at t = 0; at t = 0.5 and t = 1 it does
    doc = dict(bundled_scenario("halfline").document)
    doc.update(seed=2014694431, initial_point=[0.30389169478299605])
    return Scenario(doc)


def test_certify_falls_back_only_at_the_time_whose_sampler_failed():
    rep = certify_scenario(_halfline_from_t0_interior())
    assert rep.status == "pass"
    assert rep.fitted_E == 0.0
    details = {name: detail for name, _, detail in rep.checks}
    assert details["hypomonotonicity"] == "fitted E = 0; region interior to C(0)"


def test_certify_warns_where_the_sampler_fails_and_the_region_crosses(monkeypatch):
    sample = studies.sample_hypomonotonicity

    def fail_at_horizon(set_, t, *args, **kwargs):
        if t == 1.0:
            raise StructuralError("no boundary points sampled")
        return sample(set_, t, *args, **kwargs)

    monkeypatch.setattr(studies, "sample_hypomonotonicity", fail_at_horizon)
    rep = certify_scenario(_halfline_from_t0_interior())
    assert rep.status == "warn"
    assert rep.fitted_E is None
    assert ("hypomonotonicity", "warn", "t = 1: no boundary points sampled") in rep.checks


def test_certify_stops_sampling_once_the_region_is_inside_at_every_time(monkeypatch, one_cpu):
    times = []
    sample = studies.sample_hypomonotonicity

    def record(set_, t, *args, **kwargs):
        times.append(t)
        return sample(set_, t, *args, **kwargs)

    monkeypatch.setattr(studies, "sample_hypomonotonicity", record)
    rep = certify_scenario(bundled_scenario("static_convex"))
    assert times == [0.0]
    assert rep.fitted_E == 0.0
    assert ("hypomonotonicity", "pass",
            "region interior to the set; fitted E = 0 vacuously") in rep.checks


def _with(golden, **changes):
    doc = dict(bundled_scenario(golden).document)
    for key, value in changes.items():
        doc[key] = dict(doc[key], **value) if isinstance(value, dict) else value
    return Scenario(doc)


def test_diagnose_scores_an_interior_region_as_certify_does():
    # the probe region lies inside the ball: hypomonotonicity holds vacuously,
    # as certify scores it, and only the uniqueness probe finds no boundary
    scn = _with("static_convex", initial_point=[0.0, 0.0], constants={"prox_radius_hint": 0.5})
    rep = studies.diagnose_scenario(scn, None, 40)
    assert rep.to_dict()["kind"] == "diagnostics"
    assert [w.split(":")[0] for w in rep.warnings] == ["projection_uniqueness"]
    assert "hypomonotonicity" not in rep.reports


def test_diagnose_warns_when_the_empirical_radius_is_below_the_working_radius():
    scn = _with(
        "static_convex",
        set={"kind": "ball_complement", "center": [0.0, 0.0], "radius": 1.0},
        initial_point=[1.2, 0.0],
        constants={"prox_radius_hint": 3.0},
    )
    rep = studies.diagnose_scenario(scn, None, 40)
    assert rep.reports["projection_uniqueness"].empirical_radius == pytest.approx(0.9)
    assert rep.warnings == [
        "projection_uniqueness: empirical radius 0.9 is below the working radius 1.5 "
        "implied by the declared hint"
    ]


@pytest.mark.parametrize("seed", [None, 1])
def test_diagnose_on_the_hyperbolic_ball_stays_inside_the_validated_radius(monkeypatch, seed):
    # queries and restarts pushed past rho = pi/2 from the ball's center
    # make its log map raise DomainError; the probe skips or redraws them
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
    from perfbench.workloads import HYPERBOLIC_BALL, make_documents

    if seed is None:
        doc = HYPERBOLIC_BALL
    else:
        doc = make_documents(seed, ["hyperbolic_ball"])["hyperbolic_ball"]
    rep = studies.diagnose_scenario(Scenario(doc), None, 120)
    assert rep.warnings == []
    assert rep.reports["projection_uniqueness"].empirical_radius == pytest.approx(0.5)


def test_untested_probe_distances_are_not_disagreements(monkeypatch):
    # from the geodesic ball of radius 1, every query at distance s > rho - 1
    # leaves the validated radius, and s >= 0.98 rho is not probed at all:
    # nothing is tested there, so nothing disagrees
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
    from perfbench.workloads import HYPERBOLIC_BALL

    scn = Scenario(HYPERBOLIC_BALL)
    rep = studies.diagnose_scenario(scn, None, 120).reports["projection_uniqueness"]
    assert rep.agreement == [True] * 5 + [None] * 5
    assert all(s < 1e-12 for s in rep.scatter[:5]) and rep.scatter[5:] == [None] * 5
    assert rep.empirical_radius == pytest.approx(0.5)
    region = Region(scn.x0, 0.5)
    rep = probe_projection_uniqueness(scn.moving_set, 0.0, region, distances=[0.1, 1.6])
    assert rep.agreement == [True, None] and rep.scatter[1] is None
    assert rep.empirical_radius == pytest.approx(0.1)
    assert '"agreement": [\n    true,\n    null\n  ]' in dumps(rep)


def test_certify_warns_when_the_perturbation_exceeds_its_bound():
    scn = _with("disk_moving_center", perturbation={"components": ["0.2", "0.0"]})
    rep = certify_scenario(scn)
    assert rep.status == "warn"
    name, status, detail = rep.checks[0]
    assert (name, status) == ("integration", "warn")
    assert "the perturbation exceeded its declared bound 0.12" in detail


# -- visited region ------------------------------------------------------------


def _full_scan_region(traj, margin):
    """The all-pairs search ``_visited_region`` must reproduce exactly."""
    nodes = traj.nodes
    if len(nodes) > 48:
        stride = max(1, len(nodes) // 48)
        nodes = nodes[::stride] + [traj.nodes[-1]]
    best, best_r = nodes[0], math.inf
    for c in nodes:
        r = max(distance(c, p) for p in nodes)
        if r < best_r:
            best, best_r = c, r
    rho = traj.set_.backend.budget().rho
    return Region(best, min(best_r + margin, 0.95 * rho))


def _as_traj(nodes):
    backend = nodes[0].backend
    return SimpleNamespace(nodes=nodes, set_=SimpleNamespace(backend=backend))


def _assert_same_region(nodes, margin=0.25):
    got = studies._visited_region(_as_traj(nodes), margin)
    want = _full_scan_region(_as_traj(nodes), margin)
    assert got.center is want.center  # the same node, so ties break the same way
    assert got.radius == want.radius


VISITED_BACKENDS = {
    "euclidean": (lambda: EuclideanBackend(2), [0.3, -0.2]),
    "sphere": (lambda: SphereBackend(2), [0.0, 0.6, 0.8]),
    "hyperbolic": (lambda: HyperbolicBackend(2), [1.0, 0.0, 0.0]),
    "implicit": (lambda: ImplicitBackend(2, ["x1^2/4 + x2^2 - 1"]), [2.0, 0.0]),
}


@pytest.mark.parametrize("kind", sorted(VISITED_BACKENDS))
def test_visited_region_equals_full_scan(kind):
    make, center = VISITED_BACKENDS[kind]
    b = make()
    c = b.point(center)
    rng = np.random.default_rng(31)
    for size in (1, 2, 5, 13):
        nodes = [b.random_point(rng, c, 0.6) for _ in range(size)]
        _assert_same_region(nodes)
        # duplicated nodes: equal coordinates, different objects, same radius
        dup = nodes + [Point(b, nodes[0].coords), nodes[-1]]
        _assert_same_region(dup)
        _assert_same_region(dup[::-1])
    # a trajectory-like path; beyond 48 nodes it takes the strided subset
    # (kept short on the implicit backend, whose full scan shoots every pair)
    half = 12 if kind == "implicit" else 50
    v = b.random_tangent(rng, c, 0.6)
    path = [exp_map(c, v.scaled(s)) for s in np.linspace(-1.0, 1.0, 2 * half + 1)]
    _assert_same_region(path)
    # a symmetric path without its middle node: two (near-)tied centers
    _assert_same_region(path[:half] + path[half + 1 :])


class _TableBackend:
    """Fake backend: distances from a table, ambient coordinates unrelated."""

    def __init__(self, table):
        self.table = table

    def distance(self, x, y):
        return float(self.table[x.index, y.index])

    def budget(self):
        return SimpleNamespace(rho=1e6)


def test_visited_region_tie_breaks_when_ambient_order_misleads():
    # integer distances give many exact ties; random ambient coordinates make
    # the candidate and scan orders disagree with the table
    rng = np.random.default_rng(32)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        table = rng.integers(0, 4, size=(n, n)).astype(float)
        b = _TableBackend(table)
        nodes = [
            SimpleNamespace(index=i, coords=rng.standard_normal(2), backend=b)
            for i in range(n)
        ]
        _assert_same_region(nodes, margin=0.5)
