import math

import numpy as np
import pytest

from manisweep import (
    EuclideanBackend,
    Region,
    SphereBackend,
    distance,
)
from manisweep.errors import NumericsError, StructuralError
from manisweep.moving_sets import ball, ball_complement, inequalities, sphere_cap
from manisweep.regularity import (
    check_log_monotonicity,
    probe_projection_uniqueness,
    sample_hypomonotonicity,
)
from manisweep.regularity import test_cone_membership as cone_membership


@pytest.fixture(scope="module")
def E2():
    return EuclideanBackend(2)


@pytest.fixture(scope="module")
def disk(E2):
    return ball(E2, center=[0.0, 0.0], radius=1.0)


@pytest.fixture(scope="module")
def disk_complement(E2):
    return ball_complement(E2, center=[0.0, 0.0], radius=1.0, prox_radius_hint=1.0)


def test_convex_disk_fitted_E_is_zero(E2, disk):
    region = Region(E2.point([0.0, 0.0]), 1.5)
    rep = sample_hypomonotonicity(disk, 0.0, region, n_samples=300, seed=3)
    assert rep.fitted_E <= 1e-10
    assert rep.max_ratio <= 0.0
    assert rep.samples > 50


def test_disk_complement_fitted_E_near_half(E2, disk_complement):
    # brute-force oracle over circle-boundary pairs: the ratio
    # <v, y - x> / |y - x|^2 equals exactly 1/2 on the unit circle and is
    # smaller for members off the boundary, so sup = 0.5
    region = Region(E2.point([1.0, 0.0]), 0.8)
    rep = sample_hypomonotonicity(disk_complement, 0.0, region, n_samples=600, seed=5)
    assert rep.fitted_E == pytest.approx(0.5, abs=0.03)
    assert rep.fitted_E <= 0.5 + 5e-4


def test_hypomonotonicity_soak_declared_bound(E2, disk_complement):
    region = Region(E2.point([1.0, 0.0]), 0.8)
    fit = sample_hypomonotonicity(disk_complement, 0.0, region, n_samples=400, seed=11)
    fresh = sample_hypomonotonicity(
        disk_complement,
        0.0,
        region,
        n_samples=400,
        declared_E=fit.fitted_E * 1.05,
        seed=12,
    )
    assert fresh.violations == 0


def test_spherical_cap_complement_fitted_E_reproducible():
    S = SphereBackend(2)
    # height below zero makes the cap the complement of a small geodesic
    # ball and therefore genuinely nonconvex
    cap = sphere_cap(S, axis=[0, 0, 1], height=-0.3, prox_radius_hint=0.8)
    region = Region(S.point([math.sqrt(1 - 0.09), 0.0, -0.3]), 0.6)
    fits = [
        sample_hypomonotonicity(cap, 0.0, region, n_samples=400, seed=s).fitted_E
        for s in range(5)
    ]
    assert all(f > 0.01 for f in fits)
    assert (max(fits) - min(fits)) <= 0.1 * max(fits)


def test_cone_membership_trivial_and_examples(E2, disk):
    x = E2.point([1.0, 0.0])
    zero = E2.tangent(x, [0.0, 0.0])
    assert cone_membership(disk, 0.0, x, zero).status == "member"

    outward = E2.tangent(x, [1.0, 0.0])
    res = cone_membership(disk, 0.0, x, outward, seed=2)
    assert res.status == "member"
    assert np.isfinite(res.fitted_lambda)

    tangential = E2.tangent(x, [0.0, 1.0])
    res2 = cone_membership(disk, 0.0, x, tangential, seed=2)
    assert res2.status == "not_member"


def test_cone_membership_scaling_invariance(E2, disk):
    x = E2.point([1.0, 0.0])
    for comps in ([1.0, 0.3], [0.0, 1.0]):
        v = E2.tangent(x, comps)
        a = cone_membership(disk, 0.0, x, v, seed=7)
        b = cone_membership(disk, 0.0, x, v.scaled(17.0), seed=7)
        assert a.status == b.status


def test_cone_membership_interior_rejects_everything(E2, disk):
    x = E2.point([0.2, 0.0])
    v = E2.tangent(x, [1.0, 0.0])
    res = cone_membership(disk, 0.0, x, v, seed=4)
    assert res.status == "not_member"


def test_cone_membership_sweep_that_stops_short_is_inconclusive(E2):
    # in the cusp 0 <= x2 <= x1^4 the member share of a ball of radius r
    # shrinks like r^3, so the sweep runs out of members after a few radii
    cusp = inequalities(E2, ["x2", "x1^4 - x2"])
    x = E2.point([0.0, 0.0])
    res = cone_membership(cusp, 0.0, x, E2.tangent(x, [0.0, -1.0]), seed=0)
    assert res.status == "inconclusive"
    assert 1 <= len(res.max_ratios) < 4
    assert res.radii == [cusp.probe_radius * 2.0**-k for k in range(len(res.max_ratios))]
    with pytest.raises(StructuralError, match="inconclusive"):
        bool(res)


def test_uniqueness_radius_is_the_leading_run_of_agreements(E2, monkeypatch):
    # the iterative projector fails only for queries at distance 0.3 from
    # the unit disk; agreement at larger distances must not count
    disk = ball(E2, center=[0.0, 0.0], radius=1.0)
    project = disk.project

    def failing_at_three_tenths(t, y, **kw):
        if kw.get("method") == "iterative" and abs(np.linalg.norm(y.coords) - 1.3) < 1e-6:
            raise NumericsError("no agreement")
        return project(t, y, **kw)

    monkeypatch.setattr(disk, "project", failing_at_three_tenths)
    region = Region(E2.point([1.0, 0.0]), 0.5)
    rep = probe_projection_uniqueness(
        disk, 0.0, region, n_points=2, distances=[0.1, 0.2, 0.3, 0.4, 0.5], restarts=4, seed=5
    )
    assert rep.agreement == [True, True, False, True, True]
    assert rep.empirical_radius == 0.2


def test_uniqueness_probe_convex_disk(E2, disk):
    region = Region(E2.point([0.0, 0.0]), 1.4)
    rep = probe_projection_uniqueness(
        disk, 0.0, region, n_points=3, distances=np.linspace(0.2, 2.0, 6), seed=21
    )
    assert all(rep.agreement)
    assert rep.empirical_radius == pytest.approx(2.0)


def test_uniqueness_probe_disk_complement(E2, disk_complement):
    # analytic: uniqueness fails exactly at the center, distance 1
    region = Region(E2.point([1.0, 0.0]), 0.6)
    rep = probe_projection_uniqueness(
        disk_complement,
        0.0,
        region,
        n_points=3,
        distances=np.linspace(0.05, 1.0, 20),
        seed=23,
    )
    assert 0.9 <= rep.empirical_radius < 1.0


def test_log_monotonicity_euclidean_identity(E2):
    region = Region(E2.point([0.0, 0.0]), 2.0)
    rep = check_log_monotonicity(E2, region, n_samples=400, seed=29)
    assert rep.fitted_A == pytest.approx(1.0, abs=1e-10)


def test_log_monotonicity_sphere_positive_and_radius_monotone():
    S = SphereBackend(2)
    center = S.point([0, 0, 1])
    small = check_log_monotonicity(S, Region(center, 0.15), n_samples=300, seed=31)
    mid = check_log_monotonicity(S, Region(center, 0.3), n_samples=300, seed=31)
    assert 0.0 < mid.fitted_A <= 1.0 + 1e-12
    assert 0.0 < small.fitted_A <= 1.0 + 1e-12
    assert mid.fitted_A <= small.fitted_A + 0.02


def test_log_monotonicity_sphere_meridian_grid_oracle():
    # structured oracle: points on meridians computed via rotation
    # matrices; parallel transport along a great circle is the rotation
    # about that circle's axis, evaluated here without backend calls
    def sph(theta, phi):
        return np.array(
            [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
        )

    def rot(axis, ang):
        k = axis / np.linalg.norm(axis)
        K = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
        return np.eye(3) + math.sin(ang) * K + (1 - math.cos(ang)) * (K @ K)

    def logm(a, b):
        th = math.acos(np.clip(np.dot(a, b), -1, 1))
        w = b - np.dot(a, b) * a
        n = np.linalg.norm(w)
        return np.zeros(3) if n < 1e-15 else (th / n) * w

    worst = np.inf
    for thx in (0.05, 0.18, 0.3):
        x = sph(thx, 0.0)
        for th1 in (0.05, 0.18, 0.3):
            for th2 in (0.05, 0.18, 0.3):
                for p1 in np.linspace(0, 2 * math.pi, 8, endpoint=False):
                    for p2 in np.linspace(0.07, 2 * math.pi, 8, endpoint=False):
                        z1, z2 = sph(th1, p1), sph(th2, p2)
                        axis = np.cross(z1, z2)
                        if np.linalg.norm(axis) < 1e-12:
                            continue
                        ang = math.acos(np.clip(np.dot(z1, z2), -1, 1))
                        if ang < 1e-3:
                            continue
                        carried = rot(axis, ang) @ logm(z1, x)
                        q = np.dot(logm(z2, x) - carried, logm(z2, z1)) / ang**2
                        worst = min(worst, q)
    S = SphereBackend(2)
    rep = check_log_monotonicity(S, Region(S.point([0, 0, 1]), 0.3), n_samples=500, seed=37)
    # the dense structured grid and the random sampler probe the same
    # region, so their fitted minima must agree closely
    assert rep.fitted_A == pytest.approx(worst, abs=0.05)
    assert 0.0 < rep.fitted_A <= 1.0 + 1e-12


def test_cap_equator_generator_satisfies_characterization():
    # the generator (0,0,-1) returned at an equator point of the cap
    # {x3 >= 0} must satisfy <v, log_x(y)> <= Lambda d(x,y)^2 over nearby
    # members, per the quadratic cone characterization
    S = SphereBackend(2)
    cap = sphere_cap(S, axis=[0, 0, 1], height=0.0)
    x = S.point([1.0, 0.0, 0.0])
    gens = cap.proximal_normal_generators(0.0, x)
    res = cone_membership(cap, 0.0, x, gens[0], n_samples=100, seed=13)
    assert res.status == "member"
    assert np.isfinite(res.fitted_lambda)


def test_hypomonotonicity_soak_across_seeds(E2, disk_complement):
    region = Region(E2.point([1.0, 0.0]), 0.8)
    fit = sample_hypomonotonicity(disk_complement, 0.0, region, n_samples=300, seed=100)
    for fresh_seed in (101, 102, 103):
        fresh = sample_hypomonotonicity(
            disk_complement,
            0.0,
            region,
            n_samples=300,
            declared_E=fit.fitted_E * 1.05,
            seed=fresh_seed,
        )
        assert fresh.violations == 0


def test_report_serialization_roundtrip(E2, disk):
    import json

    region = Region(E2.point([0.0, 0.0]), 1.5)
    rep = sample_hypomonotonicity(disk, 0.0, region, n_samples=100, seed=3)
    blob = json.dumps(rep.to_dict())
    doc = json.loads(blob)
    assert doc["fitted_E"] == rep.fitted_E
    # points and tangent vectors are written as coordinate lists
    assert doc["region"] == {"center": [0.0, 0.0], "radius": 1.5}
    assert set(doc["worst_pair"]) == {"x", "y", "v"}
    assert doc["worst_pair"]["x"] == rep.worst_pair["x"].coords.tolist()
    assert doc["worst_pair"]["v"] == rep.worst_pair["v"].components.tolist()
