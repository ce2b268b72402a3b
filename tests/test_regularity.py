import itertools
import math

import numpy as np
import pytest

from manisweep import (
    EuclideanBackend,
    HyperbolicBackend,
    ImplicitBackend,
    Region,
    SphereBackend,
    Tangent,
    catching_up,
    distance,
    exp_map,
    grad_sq_distance,
    log_map,
)
from manisweep.artifacts import dumps
from manisweep.errors import NumericsError, StructuralError
from manisweep.moving_sets import _violation, ball, ball_complement, inequalities, sphere_cap
from manisweep.regularity import (
    BOUNDARY_BISECTION_TOL,
    boundary_point,
    check_log_monotonicity,
    members_in_region,
    probe_projection_uniqueness,
    sample_hypomonotonicity,
    unit_normal_at,
)
from manisweep.regularity import test_cone_membership as cone_membership
from manisweep.scenario import Scenario, bundled_scenario
from manisweep.sweep import inclusion_residual


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


# -- Point-level references -----------------------------------------------------
#
# The samplers, the restoration and the iterative projector run on coordinate
# arrays.  These are their Point-level forms, written with the public metric
# operations and a Point or Tangent for every probe, as they were before the
# coordinate paths; the coordinate paths must reproduce them bit for bit.


def reference_random_tangent(backend, rng, x, max_norm):
    u = rng.standard_normal(backend.dim)
    nu = float(np.linalg.norm(u))
    if nu == 0.0:
        u[0] = 1.0
        nu = 1.0
    r = max_norm * rng.uniform() ** (1.0 / backend.dim)
    return Tangent(x, (r / nu) * (u @ backend.tangent_basis(x)))


def reference_random_point(backend, rng, center, radius):
    return exp_map(center, reference_random_tangent(backend, rng, center, radius))


def reference_boundary_point(set_, t, member, direction, max_length):
    s_in, s_out = 0.0, None
    for k in range(1, 9):
        s = max_length * k / 8.0
        if set_.member(t, exp_map(member, direction.scaled(s))):
            s_in = s
        else:
            s_out = s
            break
    if s_out is None:
        return None
    while s_out - s_in > BOUNDARY_BISECTION_TOL:
        mid = 0.5 * (s_in + s_out)
        if set_.member(t, exp_map(member, direction.scaled(mid))):
            s_in = mid
        else:
            s_out = mid
    return exp_map(member, direction.scaled(s_in))


def reference_members(set_, t, region, rng, n):
    out, tries = [], 0
    while len(out) < n and tries < 40 * n:
        tries += 1
        cand = reference_random_point(set_.backend, rng, region.center, region.radius)
        if set_.member(t, cand):
            out.append(cand)
    return out


def reference_boundary_points(set_, t, region, rng, n):
    backend = set_.backend
    max_len = min(region.radius, 0.95 * backend.budget().rho)
    members = reference_members(set_, t, region, rng, max(4, n // 4))
    out, tries = [], 0
    while len(out) < n and tries < 30 * n:
        tries += 1
        m = members[int(rng.integers(len(members)))]
        u = reference_random_tangent(backend, rng, m, 1.0)
        nu = u.norm()
        if nu == 0:
            continue
        b = reference_boundary_point(set_, t, m, u.scaled(1.0 / nu), max_len)
        if b is not None:
            out.append(b)
    return out


def reference_hypomonotonicity(set_, t, region, n_samples, seed):
    """The report's fields, as the pair loop finds them with a second distance per log map."""
    rng = np.random.default_rng([seed, 0xB0DA])
    rho = set_.backend.budget().rho
    boundary = reference_boundary_points(set_, t, region, rng, max(8, n_samples // 8))
    members = reference_members(set_, t, region, rng, max(8, n_samples // 8)) + boundary
    floor = max(1e-6, 0.004 * region.radius, 100.0 * BOUNDARY_BISECTION_TOL)
    max_ratio, worst, count = -np.inf, None, 0
    for x in boundary:
        v = unit_normal_at(set_, t, x, rng)
        if v is None:
            continue
        for y in members:
            d = distance(x, y)
            if d < floor or d > 0.98 * rho:
                continue
            ratio = v.inner(log_map(x, y)) / (d * d)
            count += 1
            if ratio > max_ratio:
                max_ratio, worst = ratio, {"x": x, "y": y, "v": v}
    return {"samples": count, "max_ratio": float(max_ratio), "worst_pair": worst}


def reference_inclusion_residual(traj, t, fitted_E, n_members, seed):
    set_, backend = traj.set_, traj.set_.backend
    p = traj.interpolate(t)
    w = traj.perturbation(t, p) - traj.velocity_at(t)
    wn = w.norm()
    radius = min(0.3 * backend.budget().rho, set_.working_radius)
    rng = np.random.default_rng([seed, int(round(t * 1e9)) & 0x7FFFFFFF])
    worst, found, tries = 0.0, 0, 0
    while found < n_members and tries < 20 * n_members:
        tries += 1
        cand = reference_random_point(backend, rng, p, radius)
        if not set_.member(t, cand):
            continue
        found += 1
        d = distance(p, cand)
        if d < 1e-9:
            continue
        worst = max(worst, w.inner(log_map(p, cand)) - fitted_E * wn * d * d)
    return worst, found >= 10


def reference_restore(set_, t, x):
    rho = set_.backend.budget().rho
    feasibility = set_.tolerances.feasibility
    c, touched = x, set()
    for _ in range(60):
        vals = set_.constraint_values(t, c)
        viol = np.flatnonzero(vals < -0.1 * feasibility)
        if viol.size == 0:
            break
        touched.update(int(i) for i in viol)
        merit = float(np.sum(np.minimum(vals, 0.0) ** 2))
        direction = None
        for i in viol:
            g = set_.constraint_gradient(t, c, int(i))
            part = g.scaled(-vals[i] / g.norm() ** 2)
            direction = part if direction is None else direction + part
        alpha = min(1.0, 0.45 * rho / max(direction.norm(), 1e-300))
        for _ in range(40):
            cand = exp_map(c, direction.scaled(alpha))
            cvals = set_.constraint_values(t, cand)
            if float(np.sum(np.minimum(cvals, 0.0) ** 2)) < merit * (1.0 - 1e-4 * alpha):
                c = cand
                break
            alpha *= 0.5
        else:
            break
    if not np.all(set_.constraint_values(t, c) >= -feasibility):
        raise NumericsError("could not restore feasibility")
    if touched:
        c = reference_polish(set_, t, c, sorted(touched))
    return c


def reference_polish(set_, t, c, indices):
    best_member = c
    for _ in range(6):
        vals = np.array([set_.constraints[i].value(t, c.coords) for i in indices])
        if float(np.max(np.abs(vals))) <= 1e-12:
            break
        grads = [set_.constraint_gradient(t, c, i) for i in indices]
        gram = np.array([[a.inner(b) for b in grads] for a in grads])
        try:
            lam = np.linalg.solve(gram, vals)
        except np.linalg.LinAlgError:
            break
        step = grads[0].scaled(-float(lam[0]))
        for lam_i, g in zip(lam[1:], grads[1:]):
            step = step + g.scaled(-float(lam_i))
        cand = exp_map(c, step)
        cvals = np.array([set_.constraints[i].value(t, cand.coords) for i in indices])
        if float(np.max(np.abs(cvals))) >= float(np.max(np.abs(vals))):
            break
        c = cand
        if set_.member(t, c):
            best_member = c
    return c if set_.member(t, c) else best_member


def reference_kkt(set_, t, c, grad):
    gens = [set_.constraint_gradient(t, c, i) for i in set_.active_set(t, c)]
    best = grad.norm()
    for k in range(1, min(len(gens), set_.backend.dim) + 1):
        for support in itertools.combinations(gens, k):
            gram = [[a.inner(b) for b in support] for a in support]
            try:
                mu = np.linalg.solve(gram, [a.inner(grad) for a in support])
            except np.linalg.LinAlgError:
                continue
            if np.all(mu >= 0.0):
                r = grad
                for m, g in zip(mu, support):
                    r = r - g.scaled(float(m))
                best = min(best, r.norm())
    return best


def reference_project(set_, t, y, initial=None, max_iter=500):
    tol, rho = set_.tolerances, set_.backend.budget().rho
    c = reference_restore(set_, t, initial if initial is not None else y)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        grad = grad_sq_distance(c, y)
        if reference_kkt(set_, t, c, grad) <= tol.projector_kkt:
            break
        descent = grad.scaled(-1.0)
        fc = distance(c, y) ** 2
        alpha = min(0.5, 0.45 * rho / descent.norm())
        moved = None
        for _ in range(40):
            cand = reference_restore(set_, t, exp_map(c, descent.scaled(alpha)))
            achieved = distance(c, cand)
            if distance(cand, y) ** 2 <= fc - 1e-4 * achieved * achieved / max(alpha, 1e-300):
                moved = cand
                break
            alpha *= 0.5
        if moved is None:
            break
        step = distance(c, moved)
        c = moved
        if step <= tol.projector_step:
            break
    else:
        raise NumericsError(f"projection did not converge in {max_iter} iterations")
    return c, distance(y, c), iterations


#: backend -> (moving set, a boundary point's coordinates, the samplers' region radius)
ORACLE_SETS = {
    "euclidean": (lambda: ball_complement(EuclideanBackend(2), [0.0, 0.0], 1.0), [1.0, 0.0], 0.8),
    "sphere": (
        lambda: sphere_cap(SphereBackend(2), [0.0, 0.0, 1.0], height=-0.3, prox_radius_hint=0.8),
        [math.sqrt(1 - 0.09), 0.0, -0.3],
        0.6,
    ),
    "hyperbolic": (
        lambda: ball(HyperbolicBackend(2), [1.0, 0.0, 0.0], 1.0),
        [math.cosh(1.0), math.sinh(1.0), 0.0],
        0.5,
    ),
    "implicit": (
        lambda: inequalities(ImplicitBackend(2, ["x1^2/4 + x2^2 - 1"]), ["x2 + 0.5"]),
        [math.sqrt(3.0), -0.5],
        0.6,
    ),
}


def _oracle(kind):
    make, x, radius = ORACLE_SETS[kind]
    set_ = make()
    return set_, set_.backend.point(x), radius


def _same_point(a, b):
    if a is None or b is None:
        return a is b
    return a.coords.tobytes() == b.coords.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", sorted(ORACLE_SETS))
def test_coordinate_boundary_point_is_the_point_level_march(kind, seed):
    set_, x, radius = _oracle(kind)
    backend = set_.backend
    rng = np.random.default_rng(seed)
    members = members_in_region(set_, 0.0, Region(x, radius), rng, 6)
    for m in members:
        u = backend.random_tangent(rng, m, 1.0)
        u = u.scaled(1.0 / u.norm())
        for length in (0.25 * radius, radius):
            got = boundary_point(set_, 0.0, m, u, length)
            assert _same_point(got, reference_boundary_point(set_, 0.0, m, u, length))


@pytest.mark.parametrize("kind", sorted(ORACLE_SETS))
def test_boundary_point_is_its_last_probe_inside(kind, monkeypatch):
    # one exp per membership probe: the result is the last probe inside, as the
    # point-level march finds it, and the member itself where no probe got inside
    # (from the boundary point outward, on each backend whose membership tolerance
    # is finer than the bisection's)
    set_, x, radius = _oracle(kind)
    backend = set_.backend
    rng = np.random.default_rng(5)
    exps, inside = [], []
    exp_coords, contains = backend._exp_coords, set_._contains

    def counted(xc, vc):
        exps.append(1)
        return exp_coords(xc, vc)

    monkeypatch.setattr(set_, "_contains", lambda t, xc: inside.append(contains(t, xc))
                        or inside[-1])
    outward = set_.constraint_gradient(0.0, x, 0)
    cases = [(x, outward.scaled(-1.0 / outward.norm()))]
    for m in members_in_region(set_, 0.0, Region(x, radius), rng, 4):
        u = backend.random_tangent(rng, m, 1.0)
        cases.append((m, u.scaled(1.0 / u.norm())))
    missed = []
    for m, u in cases:
        exps.clear()
        inside.clear()
        monkeypatch.setattr(backend, "_exp_coords", counted)
        got = boundary_point(set_, 0.0, m, u, radius)
        monkeypatch.setattr(backend, "_exp_coords", exp_coords)
        assert len(exps) == len(inside) > 0
        assert _same_point(got, reference_boundary_point(set_, 0.0, m, u, radius))
        missed.append(True not in inside)
        if missed[-1]:
            assert got is m
    assert missed[0] or kind == "implicit"  # the march from the boundary point outward


@pytest.mark.parametrize("kind", sorted(ORACLE_SETS))
def test_hypomonotonicity_report_is_the_point_level_pair_loop(kind):
    set_, x, radius = _oracle(kind)
    region = Region(x, radius)
    n = 40 if kind == "implicit" else 120
    for seed in (3, 4):
        rep = sample_hypomonotonicity(set_, 0.0, region, n_samples=n, seed=seed)
        want = reference_hypomonotonicity(set_, 0.0, region, n, seed)
        assert rep.samples == want["samples"] > 0
        assert rep.max_ratio.hex() == want["max_ratio"].hex()
        assert dumps(rep.worst_pair) == dumps(want["worst_pair"])


def _oracle_trajectory(kind):
    if kind == "hyperbolic":
        from perfbench.workloads import HYPERBOLIC_BALL

        scenario = Scenario(HYPERBOLIC_BALL)
    else:
        name = {"euclidean": "disk_moving_center", "sphere": "sphere_rotating_cap",
                "implicit": "implicit_ellipse_cap"}[kind]
        scenario = bundled_scenario(name)
    return catching_up(scenario, 0.1)


@pytest.mark.parametrize("kind", sorted(ORACLE_SETS))
def test_inclusion_residual_is_the_point_level_sample(kind):
    traj = _oracle_trajectory(kind)
    n = 20 if kind == "implicit" else 60
    # a negative E makes every gap positive: the sup is a computed value, not the floor 0
    for seed, t in ((0, 0.33), (1, 0.57), (2, 0.81)):
        got = inclusion_residual(traj, t, -10.0, n_members=n, seed=seed)
        value, conclusive = reference_inclusion_residual(traj, t, -10.0, n, seed)
        assert got.value > 0.0
        assert got.value.hex() == value.hex()
        assert got.conclusive == conclusive


def _outside_queries(set_, x, rng, n):
    backend, out = set_.backend, []
    while len(out) < n:
        y = reference_random_point(backend, rng, x, 0.4)
        if not set_.member(0.0, y):
            out.append(y)
    return out


@pytest.mark.parametrize("kind", ["sphere", "implicit"])
def test_restoration_and_iterative_projection_are_the_point_level_solvers(kind):
    set_, x, _ = _oracle(kind)
    rng = np.random.default_rng(31)
    queries = _outside_queries(set_, x, rng, 4)
    for y in queries:
        assert _same_point(set_.restore_feasibility(0.0, y), reference_restore(set_, 0.0, y))
        res = set_.project(0.0, y, method="iterative")
        point, dist, iterations = reference_project(set_, 0.0, y)
        assert _same_point(res.point, point)
        assert (res.dist.hex(), res.iterations) == (dist.hex(), iterations)
    # restarted from a feasible draw near the query, as the uniqueness probe does
    y = queries[0]
    init = reference_restore(set_, 0.0, reference_random_point(set_.backend, rng, y, 0.3))
    res = set_.project(0.0, y, method="iterative", initial=init, max_iter=800)
    point, dist, iterations = reference_project(set_, 0.0, y, init, 800)
    assert _same_point(res.point, point) and res.iterations == iterations


def test_squared_violation_sums_as_numpy_does():
    rng = np.random.default_rng(5)
    for n in range(1, 12):
        for _ in range(200):
            values = (rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)).tolist()
            want = float(np.sum(np.minimum(values, 0.0) ** 2))
            assert _violation(values).hex() == want.hex()
