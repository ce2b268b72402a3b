"""Empirical prox-regularity diagnostics.

The quantities these samplers estimate exist in theory only as
existence constants; here they are replaced by fitted empirical values,
clearly labeled, with the sampling seed embedded in every report:

* hypomonotonicity of the proximal normal cone,
  <v, log_x(y)> <= E |v| d(x, y)^2 over members y near a boundary
  point x with unit normal v; the fitted E is the largest observed
  normalized ratio (0 for convex sets in flat space);
* cone membership through the same inequality on a shrinking-radius
  sweep, with an explicit divergence criterion;
* single-valuedness of the metric projection near the set, probed by
  multi-start agreement at graded distances;
* strong monotonicity of the log map,
  <log_z2(x) - L_{z1->z2} log_z1(x), log_z2(z1)> >= A d(z1, z2)^2,
  whose fitted constant is exactly 1 in flat space and positive on
  curved backends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .artifacts import Report
from .errors import DomainError, NumericsError, StructuralError
from .geometry import ManifoldBackend, Point, Region, Tangent, check_same_base, exp_map
from .moving_sets import MovingSet

#: boundary points are bisected to this tolerance along the probing ray
BOUNDARY_BISECTION_TOL = 1e-9


@dataclass
class HypomonotonicityReport(Report):
    """``worst_pair`` is ``{"x", "y", "v"}``: the pair with the largest ratio and x's normal."""

    kind = "hypomonotonicity"

    region: Region
    samples: int
    max_ratio: float
    fitted_E: float
    violations: int
    worst_pair: Optional[dict]
    declared_E: Optional[float]
    seed: int


@dataclass
class ConeMembershipResult(Report):
    kind = "cone_membership"

    status: str  # "member" | "not_member" | "inconclusive"
    fitted_lambda: float
    radii: list
    max_ratios: list
    seed: int

    def __bool__(self):
        if self.status == "inconclusive":
            raise StructuralError(
                "cone membership test was inconclusive; inspect .status"
            )
        return self.status == "member"


@dataclass
class UniquenessReport(Report):
    """Per distance: ``agreement`` (bool) and ``scatter``, the largest
    distance between two restarts' projections of one query; both are
    None at a distance where no query could be tested."""

    kind = "projection_uniqueness"

    distances: list
    agreement: list
    scatter: list
    empirical_radius: float
    restarts: int
    seed: int


@dataclass
class LogMonotonicityReport(Report):
    """``worst_triple`` is ``{"x", "z1", "z2"}``: the triple with the smallest ratio."""

    kind = "log_monotonicity"

    region: Region
    samples: int
    fitted_A: float
    worst_triple: Optional[dict]
    seed: int


# -- sampling helpers ---------------------------------------------------------


def members_in_region(set_: MovingSet, t: float, region: Region, rng, n: int):
    """Rejection-sample members of C(t) inside the region ball."""
    backend = set_.backend
    out = []
    tries = 0
    while len(out) < n and tries < 40 * n:
        tries += 1
        cc = backend._random_coords(rng, region.center, region.radius)
        if set_._contains(t, cc):
            out.append(backend._moved(region.center, cc))
    if not out:
        raise StructuralError(
            f"found no members of the set inside the region around "
            f"{region.center!r} (radius {region.radius})"
        )
    return out


def boundary_point(
    set_: MovingSet,
    t: float,
    member: Point,
    direction: Tangent,
    max_length: float,
) -> Optional[Point]:
    """March a member along a geodesic ray until membership fails, then bisect.

    Returns the member-side boundary point, or None if the ray never
    leaves the set within ``max_length``.  Each probe is the coordinates
    ``exp`` gives at ``member`` for the scaled direction, tested on its
    constraint values; only the returned point is built, at the last probe
    inside, or ``member`` itself when none was.
    """
    check_same_base(direction, member)
    backend, xc, u = set_.backend, member.coords, direction.components
    s_in, s_out, inside = 0.0, None, xc
    for k in range(1, 9):
        s = max_length * k / 8.0
        yc = backend._exp_coords(xc, s * u)
        if set_._contains(t, yc):
            s_in, inside = s, yc
        else:
            s_out = s
            break
    if s_out is None:
        return None
    while s_out - s_in > BOUNDARY_BISECTION_TOL:
        mid = 0.5 * (s_in + s_out)
        yc = backend._exp_coords(xc, mid * u)
        if set_._contains(t, yc):
            s_in, inside = mid, yc
        else:
            s_out = mid
    return backend._moved(member, inside)


def sample_boundary_points(set_: MovingSet, t: float, region: Region, rng, n: int):
    """Boundary points of C(t) in the region, via push-and-bisect."""
    backend = set_.backend
    rho = backend.budget().rho
    max_len = min(region.radius, 0.95 * rho)
    members = members_in_region(set_, t, region, rng, max(4, n // 4))
    out = []
    tries = 0
    while len(out) < n and tries < 30 * n:
        tries += 1
        m = members[int(rng.integers(len(members)))]
        u = backend.random_tangent(rng, m, 1.0)
        nu = u.norm()
        if nu == 0:
            continue
        b = boundary_point(set_, t, m, u.scaled(1.0 / nu), max_len)
        if b is None:
            continue
        out.append(b)
    if not out:
        raise StructuralError(
            f"found no boundary points of the set inside the region around "
            f"{region.center!r} (radius {region.radius})"
        )
    return out


def unit_normal_at(set_: MovingSet, t: float, x: Point, rng) -> Optional[Tangent]:
    """A unit proximal-normal generator at a (near-)boundary member."""
    try:
        gens = set_.proximal_normal_generators(t, x)
    except (StructuralError, NumericsError):
        return None
    if not gens:
        return None
    if len(gens) == 1:
        v = gens[0]
    else:
        weights = rng.uniform(0.2, 1.0, size=len(gens))
        v = gens[0].scaled(weights[0])
        for w, g in zip(weights[1:], gens[1:]):
            v = v + g.scaled(w)
    n = v.norm()
    if n < 1e-12:
        return None
    return v.scaled(1.0 / n)


# -- diagnostics ---------------------------------------------------------------


def sample_hypomonotonicity(
    set_: MovingSet,
    t: float,
    region: Region,
    n_samples: int = 400,
    declared_E: Optional[float] = None,
    seed: int = 0,
) -> HypomonotonicityReport:
    """Fit the hypomonotonicity constant of the normal cone on a region.

    Samples boundary points x with unit normal generators v and members
    y nearby, and reports the largest <v, log_x(y)> / d(x, y)^2.
    """
    if n_samples < 1:
        raise StructuralError("n_samples must be >= 1")
    rng = np.random.default_rng([seed, 0xB0DA])
    backend = set_.backend
    rho = backend.budget().rho
    n_boundary = max(8, n_samples // 8)
    boundary = sample_boundary_points(set_, t, region, rng, n_boundary)
    members = members_in_region(set_, t, region, rng, max(8, n_samples // 8))
    # boundary points are members too, and the worst-case pairs usually
    # live on the boundary; pairing against them cuts the fit variance
    members = members + boundary

    max_ratio = -np.inf
    worst = None
    count = 0
    violations = 0
    # boundary placement is only accurate to the bisection tolerance;
    # the ratio amplifies that radial error by 1/d^2, so keep pairs
    # apart far enough that the amplified error stays below ~1e-4
    floor = max(1e-6, 0.004 * region.radius, 100.0 * BOUNDARY_BISECTION_TOL)

    # pair every boundary point that carries a normal against the whole
    # member pool: removing the pair-selection randomness keeps the
    # fitted supremum stable across seeds.  Each pair's distance is
    # found once and serves the log map's radius check too.
    for x in boundary:
        v = unit_normal_at(set_, t, x, rng)
        if v is None:
            continue
        xc, vc = x.coords, v.components
        for y in members:
            d = backend._distance(xc, y.coords)
            if d < floor or d > 0.98 * rho:
                continue
            ratio = backend.inner(xc, vc, backend._log_coords(xc, y.coords, d)) / (d * d)
            count += 1
            if declared_E is not None and ratio > declared_E:
                violations += 1
            if ratio > max_ratio:
                max_ratio = ratio
                worst = {"x": x, "y": y, "v": v}
    if count == 0:
        raise StructuralError(
            f"no usable boundary/member pairs in the region around "
            f"{region.center!r} (radius {region.radius})"
        )
    return HypomonotonicityReport(
        region=region,
        samples=count,
        max_ratio=float(max_ratio),
        fitted_E=max(0.0, float(max_ratio)),
        violations=violations,
        worst_pair=worst,
        declared_E=declared_E,
        seed=seed,
    )


def test_cone_membership(
    set_: MovingSet,
    t: float,
    x: Point,
    v: Tangent,
    n_samples: int = 40,
    seed: int = 0,
) -> ConeMembershipResult:
    """Decide v in N(C(t), x) empirically via a shrinking-radius sweep.

    Radii r_k = r0 * 2^-k for k = 0..10, with r0 = min(0.9 rho, the
    prox-radius hint); divergence is declared when the per-radius max of
    <v, log_x(y)> / d(x, y)^2 grows by >= 4x across two consecutive
    halvings.
    """
    if not set_.member(t, x):
        raise StructuralError("cone membership is defined at members of the set")
    rng = np.random.default_rng([seed, 0xC0DE])
    if v.norm() == 0.0:
        return ConeMembershipResult("member", 0.0, [], [], seed)
    check_same_base(v, x)
    backend, xc, vc = set_.backend, x.coords, v.components
    r0 = set_.probe_radius
    radii = [r0 * 2.0**-k for k in range(11)]
    max_ratios = []
    floor = 1e-7 * r0
    for r in radii:
        best = -np.inf
        found = 0
        tries = 0
        while found < n_samples and tries < 30 * n_samples:
            tries += 1
            w = backend._random_components(rng, x, r)
            if backend.norm(xc, w) < floor:
                continue
            yc = backend._exp_coords(xc, w)
            if not set_._contains(t, yc):
                continue
            found += 1
            d = backend._distance(xc, yc)
            if d < floor:
                continue
            best = max(best, backend.inner(xc, vc, backend._log_coords(xc, yc, d)) / (d * d))
        if found < max(3, n_samples // 10):
            break  # too few members at this radius: the sweep stops short
        max_ratios.append(best)
    swept = radii[: len(max_ratios)]
    for k in range(len(max_ratios) - 2):
        a, b = max_ratios[k], max_ratios[k + 2]
        if a > 0 and b >= 4.0 * a:
            fitted = float(max(max_ratios))
            return ConeMembershipResult("not_member", fitted, swept, max_ratios, seed)
    if len(max_ratios) < 4:
        return ConeMembershipResult("inconclusive", float("nan"), swept, max_ratios, seed)
    fitted = max(0.0, float(max(max_ratios)))
    return ConeMembershipResult("member", fitted, swept, max_ratios, seed)


def probe_projection_uniqueness(
    set_: MovingSet,
    t: float,
    region: Region,
    n_points: int = 4,
    distances=None,
    restarts: int = 16,
    agree_tol: float = 1e-6,
    seed: int = 0,
) -> UniquenessReport:
    """Estimate the radius inside which the metric projection is single-valued.

    For query points at graded distances from C(t), runs the iterative
    projector from ``restarts`` randomized feasible initializations.  The
    empirical radius is the last distance of the leading run of tested
    distances at which every query sees full agreement, 0 when the
    smallest distance already disagrees or is untested; an agreement
    after a disagreement or an untested distance does not extend it.
    """
    rng = np.random.default_rng([seed, 0x01AF])
    backend = set_.backend
    rho = backend.budget().rho
    if distances is None:
        distances = np.linspace(0.1, 1.0, 10) * set_.probe_radius
    distances = sorted(float(s) for s in distances)
    boundary = sample_boundary_points(set_, t, region, rng, n_points)

    agreement = []
    scatters = []
    for s in distances:
        worst_scatter = 0.0
        ok = True
        if s >= 0.98 * rho:
            agreement.append(None)
            scatters.append(None)
            continue
        # perturbed initializations live within reach of the query: the
        # singleton statement concerns the nearest-point set, not remote
        # local minima in disconnected solver basins; restoration can
        # push a draw past the log-map radius, so those are redrawn
        scatter_radius = min(0.8 * rho, s + set_.prox_radius_hint)
        tested_any = False
        for b in boundary:
            v = unit_normal_at(set_, t, b, rng)
            if v is None:
                continue
            query = exp_map(b, v.scaled(s))
            try:
                actual = set_.dist_to_set(t, query)
            except DomainError:
                continue  # the push left the validated radius: no query here
            if abs(actual - s) > 0.05 * s:
                # the outward push folded past the medial axis, so this
                # query does not realize the intended distance
                continue
            tested_any = True
            results = []
            for _ in range(restarts):
                init = None
                for _ in range(20):
                    cand = backend._random_coords(rng, query, scatter_radius)
                    try:
                        restored = set_._restore(t, cand)[0]
                    except (NumericsError, DomainError):
                        continue
                    if backend._distance(restored, query.coords) < 0.9 * rho:
                        init = backend._moved(query, restored)
                        break
                if init is None:
                    continue
                try:
                    res = set_.project(
                        t, query, method="iterative", initial=init, max_iter=800
                    )
                except (NumericsError, DomainError):
                    ok = False
                    continue
                results.append(res.point.coords)
            for i in range(len(results)):
                for j in range(i + 1, len(results)):
                    worst_scatter = max(worst_scatter, backend._distance(results[i], results[j]))
            if worst_scatter > agree_tol or len(results) < 2:
                ok = False
        if not tested_any:
            ok = worst_scatter = None
        agreement.append(ok)
        scatters.append(worst_scatter)
    empirical = 0.0  # the last distance of the leading run of agreements
    for s, ok in zip(distances, agreement):
        if not ok:
            break
        empirical = s
    return UniquenessReport(
        distances=distances,
        agreement=agreement,
        scatter=scatters,
        empirical_radius=empirical,
        restarts=restarts,
        seed=seed,
    )


def check_log_monotonicity(
    backend: ManifoldBackend,
    region: Region,
    n_samples: int = 400,
    seed: int = 0,
) -> LogMonotonicityReport:
    """Fit the strong-monotonicity constant of the log map on a region.

    Samples triples (x, z1, z2) and reports the minimum of
    <log_z2(x) - L_{z1->z2} log_z1(x), log_z2(z1)> / d(z1, z2)^2.
    Coincident pairs are excluded by construction.
    """
    bud = backend.budget(region)
    if region.radius >= bud.rho:
        raise StructuralError(
            f"region radius {region.radius} must stay below the budget "
            f"rho {bud.rho}"
        )
    rng = np.random.default_rng([seed, 0xA10C])
    floor = max(1e-8, 1e-3 * region.radius)
    fitted = np.inf
    worst = None
    count = 0
    guard = 0
    # on coordinates, each distance found once; the worst triple's points are built last
    while count < n_samples and guard < 50 * n_samples:
        guard += 1
        x, z1, z2 = [backend._random_coords(rng, region.center, region.radius) for _ in range(3)]
        d12 = backend._distance(z1, z2)
        if d12 < floor:
            continue
        d1x, d2x = backend._distance(z1, x), backend._distance(z2, x)
        if max(d1x, d2x, d12) > 0.98 * bud.rho:
            continue
        g2x = backend._log_coords(z2, x, d2x)
        g1x = backend._log_coords(z1, x, d1x)
        g21 = backend._log_coords(z2, z1, backend._distance(z2, z1))
        backend._require_radius(d12, "d(x, y)")  # parallel transport from z1 to z2
        q = backend.inner(z2, g2x - backend._transport(z1, z2, g1x), g21) / (d12 * d12)
        count += 1
        if q < fitted:
            fitted = q
            worst = {"x": x, "z1": z1, "z2": z2}
    if count == 0:
        raise StructuralError("could not assemble any valid sample triples")
    if worst is not None:  # None when every ratio was nan
        worst = {k: backend._moved(region.center, c) for k, c in worst.items()}
    return LogMonotonicityReport(
        region=region,
        samples=count,
        fitted_A=float(fitted),
        worst_triple=worst,
        seed=seed,
    )
