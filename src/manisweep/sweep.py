"""The catching-up integrator for perturbed sweeping on a manifold.

One step from node x_i at time t_i: flow the geodesic of the
perturbation field for one step, then metrically project onto the moved
set,

    x_{i+1} = P_{C(t_{i+1})}( exp_{x_i}( h f(t_i, x_i) ) ).

The discrete trajectory interpolates between nodes along geodesics; the
discrete velocity |log_{x_i}(x_{i+1})| / h is bounded by
2 ||f||_inf + K_L whenever the projections return true nearest points,
and the inclusion residual measures how far the discrete velocity is
from the normal-cone inclusion the scheme approximates.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .artifacts import dumps
from .errors import DomainError, NumericsError, StructuralError
from .geometry import Point, Region, Tangent, distance, exp_map, log_map, parallel_transport
from .moving_sets import MovingSet

#: stand-in for an unbounded admissible step, so reports stay finite
STEP_CEILING = 1e6


class Perturbation:
    """Tangent field f(t, x) with declared bound and Lipschitz modulus.

    ``components(t, xc)`` are its tangent components at coordinates xc;
    ``None`` is the zero field.  Declared constants are trusted;
    ``catching_up`` records a step over the declared bound as a warning,
    which leaves the run uncertified.
    """

    def __init__(self, components, sup_norm: float, lipschitz: float):
        if sup_norm < 0 or lipschitz < 0:
            raise StructuralError("perturbation constants must be nonnegative")
        self.components = components
        self.sup_norm = float(sup_norm)
        self.lipschitz = float(lipschitz)

    def __call__(self, t: float, x: Point) -> Tangent:
        if self.components is None:
            return Tangent(x, np.zeros(x.backend.ambient_dim))
        return Tangent(x, self.components(t, x.coords))


def zero_perturbation() -> Perturbation:
    return Perturbation(None, 0.0, 0.0)


def expression_perturbation(
    backend, components: Sequence[str], sup_norm: float, lipschitz: float
) -> Perturbation:
    """Ambient components from expression strings, projected onto T_x."""
    from . import expressions as ex

    n = backend.ambient_dim
    if len(components) != n:
        raise StructuralError(
            f"perturbation needs {n} ambient components, got {len(components)}"
        )
    names = [f"x{i}" for i in range(1, n + 1)]
    trees = [ex.parse(s, allowed_vars=set(names) | {"t"}) for s in components]
    fn = ex.compile_many(trees, ["t"] + names)

    def components_at(t, xc):
        try:
            v = np.array(fn(t, *xc))
            if v.dtype.kind == "c":
                raise ValueError("complex value")
        except ex.FIELD_ERRORS as err:
            raise NumericsError(
                f"perturbation {list(components)} failed at t = {t:.6g}: {err}"
            ) from err
        return backend._project_tangent(xc, v)

    return Perturbation(components_at, sup_norm, lipschitz)


@dataclass
class AdmissibleStep:
    h_max: float
    sub_horizon: Optional[float]
    details: dict


def admissible_step(
    set_: MovingSet, perturbation: Perturbation, horizon: float, x0: Point
) -> AdmissibleStep:
    """Largest step (and sub-horizon, if needed) for a certified run.

    Enforces h ||f|| <= rho/2 on the reachable ball, keeps each drifted
    point within the projection working radius ell = eta/2, and shortens
    the horizon so that 2 T ||f|| + K_L T stays below ell.  The
    shortened horizon is only reported: ``catching_up`` records it in
    the metadata as ``sub_horizons`` but integrates the whole horizon in
    one run.
    """
    F = perturbation.sup_norm
    KL = set_.lipschitz_const
    eta = set_.prox_radius_hint
    reach = 2.0 * horizon * F + KL * horizon
    region = Region(x0, max(reach, 1e-3))
    rho = set_.backend.budget(region).rho
    ell = set_.working_radius
    h_rho = (rho / 2.0) / F if F > 0 else math.inf
    h_proj = ell / (F + KL) if F + KL > 0 else math.inf
    h_max = min(h_rho, h_proj, STEP_CEILING)
    denom = 2.0 * F + KL
    tbar = ell / denom * (1.0 - 1e-9) if denom > 0 else math.inf
    sub_horizon = tbar if tbar < horizon else None
    return AdmissibleStep(
        h_max=h_max,
        sub_horizon=sub_horizon,
        details={
            "rho": rho,
            "ell": ell,
            "eta": eta,
            "sup_norm": F,
            "lipschitz_const": KL,
            "h_rho": h_rho,
            "h_projection": h_proj,
            "reach_radius": reach,
        },
    )


@dataclass
class Trajectory:
    """Discrete nodes with their geodesic interpolant.

    The run is certified exactly when it recorded no warning.
    """

    set_: MovingSet
    perturbation: Perturbation
    times: np.ndarray
    nodes: list
    step: float
    discrete_velocities: np.ndarray
    metadata: dict
    warnings: list
    _segment_logs: list = field(default_factory=list, repr=False)
    _node_values: list = field(default_factory=list, repr=False)  # per node, for the CSV

    def __post_init__(self):
        if not self._segment_logs:
            self._segment_logs = [None] * (len(self.nodes) - 1)

    @property
    def certified(self) -> bool:
        return not self.warnings

    @property
    def horizon(self):
        return float(self.times[-1])

    def locate(self, t: float) -> int:
        if t < self.times[0] - 1e-12 or t > self.times[-1] + 1e-12:
            raise DomainError(f"t = {t} outside the horizon [0, {self.horizon}]")
        i = int(np.searchsorted(self.times, t, side="right")) - 1
        return min(max(i, 0), len(self.nodes) - 2)

    def segment_log(self, i: int) -> Tangent:
        if self._segment_logs[i] is None:
            self._segment_logs[i] = log_map(self.nodes[i], self.nodes[i + 1])
        return self._segment_logs[i]

    def interpolate(self, t: float) -> Point:
        i = self.locate(t)
        hi = self.times[i + 1] - self.times[i]
        s = (t - self.times[i]) / hi
        if s <= 0.0:
            return self.nodes[i]
        if s >= 1.0:
            return self.nodes[i + 1]
        return exp_map(self.nodes[i], self.segment_log(i).scaled(s))

    def velocity_at(self, t: float) -> Tangent:
        """Discrete velocity transported to the interpolant point at t."""
        i = self.locate(t)
        hi = self.times[i + 1] - self.times[i]
        gam = self.segment_log(i)
        p = self.interpolate(t)
        v = gam.scaled(1.0 / hi)
        if distance(self.nodes[i], p) < 1e-14:
            return v
        return parallel_transport(self.nodes[i], p, v)

    def max_velocity(self) -> float:
        return float(np.max(self.discrete_velocities)) if len(self.discrete_velocities) else 0.0

    # -- serialization ------------------------------------------------------

    def to_csv(self, path, metadata_path=None):
        n = self.set_.backend.ambient_dim
        cols = ["t"] + [f"x{i}" for i in range(1, n + 1)] + [
            "v_discrete",
            "dist_to_set",
            "active_set",
        ]
        lines = [",".join(cols)]
        values = self._node_values or [None] * len(self.nodes)
        speeds = self.discrete_velocities.tolist()
        speeds += [0.0] * (len(self.nodes) - len(speeds))
        for t, x, v, node_values in zip(self.times.tolist(), self.nodes, speeds, values):
            active, dist = self.set_.active_set_and_distance(t, x, node_values)
            vals = [repr(t)] + [repr(c) for c in x.coords.tolist()]
            vals += [repr(v), repr(dist), ";".join(str(j) for j in active)]
            lines.append(",".join(vals))
        text = "\n".join(lines) + "\n"
        with open(path, "w") as fh:
            fh.write(text)
        if metadata_path is not None:
            with open(metadata_path, "w") as fh:
                fh.write(dumps(self.metadata_document()))
        return text

    def metadata_document(self):
        return {
            "certified": self.certified,
            "warnings": list(self.warnings),
            "step": self.step,
            "n_nodes": len(self.nodes),
            "max_velocity": self.max_velocity(),
            **self.metadata,
        }


def require_x0_in_C0(set_: MovingSet, x0: Point) -> list:
    """The constraint values at (0, x0); raises naming the worst one unless x0 is in C(0)."""
    vals = [c.value(0.0, x0.coords) for c in set_.constraints]
    if not set_._holds(vals):
        bad = int(np.argmin(vals))
        raise StructuralError(
            "scenario violates the invariant x0 in C(0): constraint "
            f"{bad} ({set_.constraints[bad].label or 'unnamed'}) "
            f"evaluates to {vals[bad]:.6g} at t = 0"
        )
    return vals


def catching_up(scenario, h: float) -> Trajectory:
    """Integrate the sweeping process over the scenario horizon.

    ``scenario`` is a :class:`~manisweep.scenario.Scenario`; its
    ``velocity_margin`` tolerance is the slack on the discrete velocity
    bound 2||f|| + K_L.  Oversized steps are allowed (rate studies probe
    them) but drop the certification flag through the warning that the
    step exceeds the admissible bound; so does a perturbation that
    exceeds its declared bound at any step.
    """
    set_: MovingSet = scenario.moving_set
    pert: Perturbation = scenario.perturbation
    x0: Point = scenario.x0
    horizon = float(scenario.horizon)
    if not 0 < h < math.inf:  # 0 * inf is the first node's nan time
        raise StructuralError(f"step must be positive and finite, got {h:g}")
    node_values = [require_x0_in_C0(set_, x0)]

    try:
        n = max(1, math.ceil(horizon / h - 1e-12))
        times = np.minimum(np.arange(n + 1) * h, horizon)
    except (OverflowError, ValueError, MemoryError):
        raise StructuralError(f"step {h:g} needs more nodes than can be built") from None
    times[-1] = horizon

    adm = admissible_step(set_, pert, horizon, x0)
    warnings = []
    if h > adm.h_max * (1 + 1e-12):
        warnings.append(
            f"step {h:.3g} exceeds the admissible bound {adm.h_max:.3g}; "
            "run continues uncertified"
        )

    # exp_map, project's member test and distance on coordinates, op for op
    backend = set_.backend
    nodes = [x0]
    velocities = np.zeros(n)
    projector_iterations = 0
    exceeded = 0
    tl = times.tolist()  # float arithmetic rounds like numpy's float64 scalars
    for i in range(n):
        t_next = tl[i + 1]
        hi = t_next - tl[i]
        x = nodes[i]
        xc = yc = x.coords
        try:
            if pert.components is not None:
                fc = pert.components(tl[i], xc)
                exceeded += backend.norm(x, fc) > pert.sup_norm + 1e-9
                yc = backend._exp_coords(xc, hi * fc)
            values = [c.value(t_next, yc) for c in set_.constraints]
            if set_._holds(values):
                node = x if yc is xc else Point(backend, yc)
            else:
                res = set_.project(t_next, Point(backend, yc), values=values)
                projector_iterations += res.iterations
                if res.warning is not None:
                    warnings.append(f"step {i}: {res.warning}")
                node, values = res.point, res.values
                if values is None:
                    values = [c.value(t_next, node.coords) for c in set_.constraints]
        except (NumericsError, DomainError) as err:
            partial = Trajectory(
                set_, pert, times[: i + 1], nodes, h, velocities[:i],
                _metadata(scenario, h, adm, projector_iterations),
                warnings + [f"failed at step {i}: {err}"], _node_values=node_values,
            )
            raise NumericsError(
                f"catching-up step {i} (t = {t_next:.6g}) failed: {err}",
                residual=getattr(err, "residual", None), best=partial,
            ) from err
        nodes.append(node)
        node_values.append(values)
        velocities[i] = backend._distance(xc, node.coords) / hi
    if exceeded:
        warnings.append(
            f"the perturbation exceeded its declared bound {pert.sup_norm:.6g} "
            f"at {exceeded} of {n} steps"
        )

    traj = Trajectory(
        set_, pert, times, nodes, h, velocities,
        _metadata(scenario, h, adm, projector_iterations), warnings,
        _node_values=node_values,
    )
    bound = velocity_bound(scenario)
    vmax = traj.max_velocity()
    if vmax > bound:
        traj.warnings.append(
            f"discrete velocity {vmax:.6g} exceeds the bound "
            f"2||f|| + K_L = {bound:.6g}"
        )
    return traj


def velocity_bound(scenario) -> float:
    """The discrete velocity bound 2||f|| + K_L plus the scenario's ``velocity_margin``."""
    return (
        2.0 * scenario.perturbation.sup_norm
        + scenario.moving_set.lipschitz_const
        + scenario.tolerances.velocity_margin
    )


def _metadata(scenario, h, adm, projector_iterations):
    return {
        "scenario": scenario.name,
        "scenario_hash": scenario.hash,
        "seed": scenario.seed,
        "h": h,
        "admissible_h": adm.h_max,
        "sub_horizons": adm.sub_horizon,
        "projector_iterations": projector_iterations,
        "tolerances": scenario.tolerances.to_dict(),
    }


@dataclass
class ResidualSample:
    value: float
    conclusive: bool


class ResidualMembers(NamedTuple):
    """What ``inclusion_residual`` samples at one time before it reads fitted E.

    ``pairs`` holds ``(<w, log_x(c)>, d(x, c))`` of each member c farther than
    1e-9 from x(t), in sampling order; ``found`` counts every member drawn.
    """

    w_norm: float
    found: int
    pairs: list


def inclusion_residual(
    traj: Trajectory,
    t: float,
    fitted_E: float,
    n_members: int = 150,
    seed: int = 0,
) -> ResidualSample:
    """Empirical defect of the discrete normal-cone inclusion at time t.

    With w = -dx/dt + f(t, x(t)) (discrete velocity transported to the
    interpolant point), returns
    max(0, sup_c [ <w, log_x(c)> - fitted_E |w| d(x, c)^2 ]) over sampled
    members c of C(t) near x(t); zero means the inclusion holds within
    the empirical hypomonotonicity certificate.
    """
    return score_residual(residual_members(traj, t, n_members, seed), fitted_E)


def residual_members(traj: Trajectory, t: float, n_members: int, seed: int) -> ResidualMembers:
    """The sampling half of ``inclusion_residual``: it needs no fitted E."""
    set_ = traj.set_
    backend = set_.backend
    i = traj.locate(t)
    if abs(t - traj.times[i]) < 1e-12 or abs(t - traj.times[i + 1]) < 1e-12:
        raise DomainError("t must lie strictly inside a step interval")
    p = traj.interpolate(t)
    xdot = traj.velocity_at(t)
    w = traj.perturbation(t, p) - xdot
    wn = w.norm()
    rho = backend.budget().rho
    radius = min(0.3 * rho, set_.working_radius)
    rng = np.random.default_rng([seed, int(round(t * 1e9)) & 0x7FFFFFFF])
    pairs = []
    found = 0
    tries = 0
    while found < n_members and tries < 20 * n_members:
        tries += 1
        cc = backend._random_coords(rng, p, radius)  # candidates stay coordinates
        if not set_._contains(t, cc):
            continue
        found += 1
        d = backend._distance(p.coords, cc)
        if d < 1e-9:
            continue
        inner = backend.inner(p.coords, w.components, backend._log_coords(p.coords, cc, d))
        pairs.append((inner, d))
    return ResidualMembers(wn, found, pairs)


def score_residual(members: ResidualMembers, fitted_E: float) -> ResidualSample:
    """The scoring half of ``inclusion_residual``, at ``fitted_E``."""
    worst = 0.0
    for inner, d in members.pairs:
        gap = inner
        gap -= fitted_E * members.w_norm * d * d
        worst = max(worst, gap)
    return ResidualSample(value=worst, conclusive=members.found >= 10)


@dataclass
class SeparationCurve:
    times: np.ndarray
    separation: np.ndarray
    fitted_rate: Optional[float]


def gronwall_separation(scenario, x0_prime: Point, h: float) -> SeparationCurve:
    """Distance between two runs started at x0 and x0_prime.

    The fitted rate is the least-squares slope of log separation against
    time, for comparison against the stability bound 2 (E F + L_f).
    """
    base = catching_up(scenario, h)
    restarted = copy.copy(scenario)
    restarted.x0 = x0_prime
    other = catching_up(restarted, h)
    sep = np.array([distance(a, b) for a, b in zip(base.nodes, other.nodes)])
    mask = sep > 1e-14
    rate = None
    if int(np.count_nonzero(mask)) >= 2:
        tt = base.times[mask]
        rate = float(np.polyfit(tt, np.log(sep[mask]), 1)[0])
    return SeparationCurve(base.times, sep, rate)
