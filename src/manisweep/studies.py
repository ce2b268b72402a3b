"""Convergence and certification studies.

Rate studies measure the C0 distance between trajectory interpolants at
a ladder of step sizes, against an analytic solution when one exists or
against a much finer self-refinement reference otherwise, and fit the
observed order by least squares on the log-log error curve.  Scenario
certification aggregates the empirical regularity diagnostics along the
region a trajectory actually visits: hypomonotonicity fit, projection
uniqueness near touched boundary segments, the discrete velocity bound,
and the inclusion residual.  Diagnostics score the same hypotheses, with
the same checks, on a ball around the initial point at time 0.

Certification's samplers and a rate study's integrations are independent
and seed their own generators, so ``_fork_map`` runs them on every usable
CPU; the reports are byte for byte those of one CPU.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import sys
import threading
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .artifacts import Report
from .errors import DomainError, NumericsError, StructuralError
from .geometry import Point, Region, distance
from .regularity import (
    check_log_monotonicity,
    probe_projection_uniqueness,
    sample_hypomonotonicity,
)
from .sweep import (
    Trajectory,
    admissible_step,
    catching_up,
    residual_members,
    score_residual,
    velocity_bound,
)

#: errors below this are indistinguishable from solver tolerance
SATURATION_FLOOR = 1e-12
#: sample count of the C0 error metric
ERROR_SAMPLE_TIMES = 256
#: most tasks ``_fork_map`` forks for: their 2-byte tickets fit the 4 KiB any pipe holds
MAX_FORKED_TASKS = 2048


@dataclass
class RateStudy(Report):
    kind = "rate_study"

    scenario_hash: str
    steps: list
    errors: list
    fitted_order: Optional[float]
    constant: Optional[float]
    reference: str
    excluded: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    def table(self) -> str:
        lines = [f"{'h':>14s} {'sup error':>14s}  note"]
        notes = dict(self.excluded)
        for h, e in zip(self.steps, self.errors):
            lines.append(f"{h:14.6e} {e:14.6e}  {notes.get(h, '')}".rstrip())
        order = "saturated" if self.fitted_order is None else f"{self.fitted_order:.4f}"
        lines.append(f"fitted order: {order}")
        return "\n".join(lines)

    def gnuplot_data(self) -> str:
        return "\n".join(f"{h!r} {e!r}" for h, e in zip(self.steps, self.errors)) + "\n"


def _workers(n_tasks: int) -> int:
    """How many processes ``_fork_map`` splits ``n_tasks`` over; 1 runs them serially.

    Serial with fewer than 2 usable CPUs or tasks (or more than
    ``MAX_FORKED_TASKS``), without ``os.fork`` or ``os.sched_getaffinity``,
    with a second Python thread alive (a fork copies only the calling
    thread), and under ``sys.setprofile`` or ``sys.settrace``, so a profiler
    or coverage tool sees all the work.
    """
    if not 2 <= n_tasks <= MAX_FORKED_TASKS:
        return 1
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    if threading.active_count() > 1:
        return 1
    if sys.getprofile() is not None or sys.gettrace() is not None:
        return 1
    return min(len(os.sched_getaffinity(0)), n_tasks)


def _fork_map(tasks) -> list:
    """The results of the zero-argument callables ``tasks``, in task order.

    With k = ``_workers(len(tasks))`` > 1, the calling process forks k - 1
    children and runs task 0, so its side effects stay in the caller.  Then
    each process takes the other tasks one at a time, each the next one not
    yet taken, until none is left: a task is a 2-byte ticket read from one
    pipe they share, so a process slowed by a busy CPU takes fewer.  A child
    pickles its results to its own pipe and leaves through ``os._exit``,
    which runs no ``atexit`` handler and flushes no stdio buffer; its results
    must be plain values.  Any exception, in a child or in the caller, kills
    and reaps every child and runs all tasks again serially in the caller, so
    what is raised is what one CPU raises.  No child outlives the call, a
    ``KeyboardInterrupt`` included.
    """
    tasks = list(tasks)
    k = _workers(len(tasks))
    if k < 2:
        return [task() for task in tasks]
    children = {}  # pid -> read end of the pipe its results come through
    tickets, write = os.pipe()
    try:
        with open(write, "wb") as pipe:  # closed: once every ticket is taken, reads end
            pipe.write(b"".join(i.to_bytes(2, "big") for i in range(1, len(tasks))))
        for _ in range(1, k):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _child(tasks, tickets, write)
            os.close(write)
            children[pid] = read
        results = {0: tasks[0]()}
        results.update(_take(tasks, tickets))
        for pid in list(children):
            with open(children[pid], "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            os.close(children.pop(pid))
            if status != 0:
                raise ChildProcessError(status)
            results.update(pickle.loads(data))
        return [results[i] for i in range(len(tasks))]
    except Exception:
        pass  # run serially below, outside this handler: what it raises carries no context
    finally:
        os.close(tickets)
        _reap(children)
    return [task() for task in tasks]


def _take(tasks, tickets: int) -> dict:
    """Run the tasks whose tickets this process reads from ``tickets``; index -> result."""
    done = {}
    while ticket := os.read(tickets, 2):  # one read takes one whole ticket
        i = int.from_bytes(ticket, "big")
        done[i] = tasks[i]()
    return done


def _child(tasks, tickets: int, write: int):
    """A forked worker: take tasks from ``tickets``, pickle their results to ``write``, exit."""
    status = 1
    try:
        with open(write, "wb") as pipe:
            pickle.dump(_take(tasks, tickets), pipe, protocol=pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _reap(children: dict):
    """Kill and wait for each child left in ``children``, closing its pipe."""
    while children:
        pid, read = children.popitem()
        os.close(read)
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):  # reaped already
            pass


def _sup_error(backend, coords, reference: list) -> float:
    """Largest distance from interpolant coordinates ``coords`` to the reference points."""
    worst = 0.0
    for c, r in zip(coords, reference):
        worst = max(worst, distance(Point(backend, c), r))
    return worst


def _coords_at(traj: Trajectory, times) -> np.ndarray:
    return np.array([traj.interpolate(t).coords for t in times])


def _level_coords(scenario, h: float, times):
    """``_coords_at(times)`` of the run at step h, or None where it raises.

    ``run_rate_study`` runs the first such level again itself, to raise its error.
    """
    try:
        return _coords_at(catching_up(scenario, h), times)
    except Exception:
        return None


def run_rate_study(scenario, steps, reference: str = "analytic") -> RateStudy:
    """Error-vs-step study of the catching-up scheme on one scenario.

    ``reference`` is "analytic" (requires a known closed-form solution)
    or "finest" (self-refinement at min(steps)/8).  Needs at least four
    step levels, sorted decreasing.

    The reference and each level's integration are tasks of one
    ``_fork_map`` call, the calling process taking the reference; then the
    calling process scores the levels' sup errors.
    """
    steps = [float(h) for h in steps]
    if sorted(steps, reverse=True) != steps or len(set(steps)) != len(steps):
        raise StructuralError("steps must be strictly decreasing")
    if len(steps) < 4:
        raise StructuralError("a rate study needs at least 4 step levels")

    if reference == "analytic":
        ref_fn = scenario.analytic_solution()
        if ref_fn is None:
            raise StructuralError(
                "no analytic solution is known for this scenario; "
                "use reference='finest'"
            )
    elif reference == "finest":
        ref_fn = None
    else:
        raise StructuralError("reference must be 'analytic' or 'finest'")
    # the reference is a function of t alone: sample it once for every level
    times = np.linspace(0.0, scenario.horizon, ERROR_SAMPLE_TIMES)

    def reference_points():
        fn = ref_fn or catching_up(scenario, min(steps) / 8.0).interpolate
        return [fn(t) for t in times]

    ref_points, *levels = _fork_map(
        [reference_points, *(lambda h=h: _level_coords(scenario, h, times) for h in steps)]
    )
    n_ok = next((k for k, c in enumerate(levels) if c is None), len(steps))
    backend = scenario.backend
    # each sup error is cheaper than a fork: scored here
    errors = [_sup_error(backend, c, ref_points) for c in levels[:n_ok]]
    # only after a level failed: it runs again here, to raise its error
    for k in range(n_ok, len(steps)):
        h = steps[k]
        try:
            traj = catching_up(scenario, h)
        except NumericsError as err:
            partial = RateStudy(
                scenario.hash, steps[:k], errors, None, None, reference,
                warnings=[f"integration failed at h={h}: {err}"],
            )
            raise NumericsError(
                f"rate study aborted at h = {h}: {err}", best=partial
            ) from err
        errors.append(_sup_error(backend, _coords_at(traj, times), ref_points))

    excluded = []
    included = []
    for h, e in zip(steps, errors):
        if e <= SATURATION_FLOOR:
            excluded.append((h, "saturated at solver tolerance"))
        else:
            included.append((h, e))

    warnings = []
    for (h1, e1), (h2, e2) in zip(included, included[1:]):
        if e2 > 1.1 * e1:
            warnings.append(
                f"errors not decreasing within the 10% noise band: "
                f"e({h2:.3g}) = {e2:.3g} > 1.1 * e({h1:.3g}) = {1.1 * e1:.3g}"
            )

    # drop up to the two coarsest levels when they sit on a pre-asymptotic knee
    for _ in range(2):
        if len(included) >= 5:
            orders = [
                math.log(ea / eb) / math.log(ha / hb)
                for (ha, ea), (hb, eb) in zip(included, included[1:])
            ]
            rest = sorted(orders[1:])
            med = rest[len(rest) // 2]
            if abs(orders[0] - med) > 0.5:
                excluded.append((included[0][0], "pre-asymptotic knee"))
                included = included[1:]
                continue
        break

    fitted_order = None
    constant = None
    if len(included) >= 4:
        hs = np.log([h for h, _ in included])
        es = np.log([e for _, e in included])
        slope, intercept = np.polyfit(hs, es, 1)
        fitted_order = float(slope)
        constant = float(np.exp(intercept))
    else:
        warnings.append("too few unsaturated levels; order reported as saturated")

    return RateStudy(
        scenario_hash=scenario.hash,
        steps=steps,
        errors=errors,
        fitted_order=fitted_order,
        constant=constant,
        reference=reference,
        excluded=excluded,
        warnings=warnings,
    )


class Check(NamedTuple):
    """One audited item of a certification report."""

    name: str
    status: str  # "pass" | "warn" | "fail"
    detail: str


def _worst_status(checks) -> str:
    """A report is as good as its worst check: pass < warn < fail."""
    return max((c.status for c in checks), key=("pass", "warn", "fail").index)


@dataclass
class CertificationReport(Report):
    kind = "certification"

    scenario_hash: str
    scenario: str
    status: str  # "pass" | "warn" | "fail"
    checks: list  # of Check
    fitted_E: Optional[float]
    empirical_uniqueness_radius: Optional[float]
    max_inclusion_residual: Optional[float]
    max_velocity: float
    velocity_bound: float
    seed: int


def _probe_times(scenario) -> tuple:
    return (0.0, scenario.horizon / 2.0, scenario.horizon)


def _times_region_leaves_set(scenario, region: Region, times) -> set:
    """The ``times`` t at which some sampled region point leaves C(t)."""
    rng = np.random.default_rng([scenario.seed, 0x1D5E])
    leaves = set()
    for _ in range(200):
        pc = scenario.backend._random_coords(rng, region.center, region.radius)
        leaves.update(t for t in times if not scenario.moving_set._contains(t, pc))
        if len(leaves) == len(times):
            break
    return leaves


def _region_inside_set(scenario, region: Region) -> bool:
    """True when no sampled region point leaves C(t) at any probed time."""
    return not _times_region_leaves_set(scenario, region, _probe_times(scenario))


def _hypomonotonicity_check(scenario, region: Region, times, n_samples: int):
    """The hypomonotonicity check on ``region`` at ``times``, the fitted E and the samples."""
    # at a time whose sampler finds no usable pair, the inequality holds
    # vacuously on the region if the region lies inside C(t): the normal
    # cone is {0} there.  Once the region is inside C(t) at every probed
    # time, the samplers still to run are skipped for the same reason.
    samples, vacuous, unresolved, leaves = [], [], [], None
    for t in times:
        if leaves is not None and not leaves:
            vacuous.append(t)
            continue
        try:
            samples.append(sample_hypomonotonicity(
                scenario.moving_set, t, region, n_samples=n_samples, seed=scenario.seed
            ))
        except StructuralError as err:
            if leaves is None:
                leaves = _times_region_leaves_set(scenario, region, times)
            if t in leaves:
                unresolved.append(f"t = {t:.6g}: {err}")
            else:
                vacuous.append(t)
    if unresolved:
        return Check("hypomonotonicity", "warn", "; ".join(unresolved)), None, samples
    if not samples:
        note = "region interior to the set; fitted E = 0 vacuously"
        return Check("hypomonotonicity", "pass", note), 0.0, samples
    fitted_E = max(rep.fitted_E for rep in samples)
    note = "".join(f"; region interior to C({t:.6g})" for t in vacuous)
    return Check("hypomonotonicity", "pass", f"fitted E = {fitted_E:.6g}{note}"), fitted_E, samples


def _uniqueness_check(scenario, t: float, region: Region, **probe):
    """The projection uniqueness check near ``region`` at t, and the report (None if it raised)."""
    try:
        rep = probe_projection_uniqueness(
            scenario.moving_set, t, region,
            agree_tol=scenario.tolerances.uniqueness, seed=scenario.seed, **probe,
        )
    except StructuralError as err:
        return Check("projection_uniqueness", "warn", str(err)), None
    ell, working = rep.empirical_radius, scenario.moving_set.working_radius
    if ell <= 0:
        level, note = "warn", "no distance with full multi-start agreement"
    elif ell < working:
        level = "warn"
        note = (f"empirical radius {ell:.6g} is below the working radius "
                f"{working:.6g} implied by the declared hint")
    else:
        level, note = "pass", f"empirical radius {ell:.6g}"
    return Check("projection_uniqueness", level, note), rep


def _visited_region(traj: Trajectory, margin: float) -> Region:
    """Bounding geodesic ball of the trajectory nodes, with a margin.

    The center is the node whose farthest node is nearest, the first such
    node on ties.  Candidates are tried in order of ambient eccentricity
    (the ambient distance to their farthest node), smallest first, and
    each scans the nodes farthest-first in ambient coordinates, stopping
    as soon as it cannot win, so most scans end after a node or two; the
    result is that of the full all-pairs search.
    """
    nodes = traj.nodes
    if len(nodes) > 48:
        stride = max(1, len(nodes) // 48)
        nodes = nodes[::stride] + [traj.nodes[-1]]
    amb = np.array([p.coords for p in nodes])
    gaps = np.linalg.norm(amb[:, None, :] - amb[None, :, :], axis=-1)
    best, best_r = 0, math.inf
    for i in np.argsort(gaps.max(axis=1), kind="stable").tolist():
        r = -math.inf
        for j in np.argsort(-gaps[i], kind="stable").tolist():
            r = max(r, distance(nodes[i], nodes[j]))
            if (r, i) > (best_r, best):
                break  # r(i) >= r > best_r, or a tie lost to an earlier node
        else:
            best, best_r = i, r
    rho = traj.set_.backend.budget().rho
    return Region(nodes[best], min(best_r + margin, 0.95 * rho))


def _residual_members(traj: Trajectory, t: float, seed: int):
    """``residual_members`` at t for certify, or None where sampling raised (inconclusive)."""
    try:
        return residual_members(traj, t, 60, seed)
    except (StructuralError, NumericsError, DomainError):
        return None


def certify_scenario(scenario, h: Optional[float] = None) -> CertificationReport:
    """Run the scenario and audit it against the regularity diagnostics.

    Always produces a report; its status is the worst of its checks:
    "warn" on uncertified steps or inconclusive samples, "fail" on violated
    bounds or a failed integration.

    The uniqueness probe, the hypomonotonicity check and the residual
    samples at 32 times are one ``_fork_map`` call; the residuals are
    scored here once the fitted E is known.
    """
    seed = scenario.seed
    set_ = scenario.moving_set
    pert = scenario.perturbation
    checks = []
    adm = admissible_step(set_, pert, scenario.horizon, scenario.x0)
    if h is None:
        h = min(adm.h_max * 0.5, scenario.horizon / 50.0)
    try:
        traj = catching_up(scenario, h)
    except NumericsError as err:
        checks.append(Check("integration", "fail", str(err)))
        return CertificationReport(
            scenario.hash, scenario.name, _worst_status(checks), checks, None, None, None,
            float("nan"), float("nan"), seed,
        )
    if traj.certified:
        checks.append(Check("integration", "pass", f"h = {h:.6g}, {len(traj.nodes)} nodes"))
    else:
        checks.append(Check("integration", "warn", "; ".join(traj.warnings)))

    bound = velocity_bound(scenario)
    vmax = traj.max_velocity()
    if vmax <= bound:
        checks.append(Check("velocity_bound", "pass", f"max {vmax:.6g} <= {bound:.6g}"))
    else:
        checks.append(Check("velocity_bound", "fail", f"max {vmax:.6g} > {bound:.6g}"))

    region = _visited_region(traj, margin=0.25 * set_.prox_radius_hint)
    touched = [
        (t, x)
        for t, x in zip(traj.times, traj.nodes)
        if set_.active_set(float(t), x)
    ]
    interior = np.linspace(0.0, scenario.horizon, 34)[1:-1] + h * 0.37
    interior = [float(t) for t in interior if 0 < t < scenario.horizon][:32]

    def uniqueness():  # task 0, so it runs in this process
        if not touched:
            note = "constraint never active; probe skipped"
            return Check("projection_uniqueness", "pass", note), None
        t_mid, x_mid = touched[len(touched) // 2]
        try:
            check, rep = _uniqueness_check(
                scenario,
                float(t_mid),
                Region(x_mid, region.radius),
                n_points=2,
                distances=np.linspace(0.2, 1.0, 5) * set_.probe_radius,
                restarts=8,
            )
        except Exception as err:  # raised below, after any error of the hypomonotonicity check
            return err, None
        return check, None if rep is None else rep.empirical_radius

    def hypomonotonicity():
        check, fitted_E, _ = _hypomonotonicity_check(scenario, region, _probe_times(scenario), 240)
        return check, fitted_E

    (uniq, empirical_ell), (check, fitted_E), *members = _fork_map([
        uniqueness,
        hypomonotonicity,
        *(lambda t=t: _residual_members(traj, t, seed) for t in interior),
    ])
    checks.append(check)
    if isinstance(uniq, Exception):
        raise uniq
    checks.append(uniq)

    max_resid = None
    if fitted_E is not None:
        resids = []
        inconclusive = 0
        for m in members:
            r = None if m is None else score_residual(m, fitted_E * 1.05)
            if r is not None and r.conclusive:
                resids.append(r.value)
            else:
                inconclusive += 1
        if resids:
            max_resid = float(max(resids))
            note = f"max over {len(resids)} times: {max_resid:.6g}"
            checks.append(Check("inclusion_residual", "pass", note))
        if inconclusive:
            note = f"{inconclusive} inconclusive samples"
            checks.append(Check("inclusion_residual_coverage", "warn", note))

    return CertificationReport(
        scenario_hash=scenario.hash,
        scenario=scenario.name,
        status=_worst_status(checks),
        checks=checks,
        fitted_E=fitted_E,
        empirical_uniqueness_radius=empirical_ell,
        max_inclusion_residual=max_resid,
        max_velocity=vmax,
        velocity_bound=bound,
        seed=seed,
    )


@dataclass
class DiagnosticsReport(Report):
    """``warnings`` holds ``"name: detail"`` for each check that did not pass."""

    kind = "diagnostics"

    scenario: str
    scenario_hash: str
    seed: int
    reports: dict
    warnings: list


def diagnose_scenario(scenario, radius: Optional[float], n_samples: int) -> DiagnosticsReport:
    """Certify's hypomonotonicity and uniqueness checks on the ball of ``radius`` around x0.

    The radius defaults to the probe radius.  The log-map monotonicity and
    the admissible step are reported as measured.
    """
    if n_samples < 1:  # else the hypomonotonicity check reports it as a sampling failure
        raise StructuralError("n_samples must be >= 1")
    radius = scenario.moving_set.probe_radius if radius is None else radius
    region = Region(scenario.x0, radius)
    reports = {}
    hypo, _, samples = _hypomonotonicity_check(scenario, region, (0.0,), n_samples)
    if samples:
        reports["hypomonotonicity"] = samples[0]
    uniq, rep = _uniqueness_check(scenario, 0.0, region, n_points=3)
    if rep is not None:
        reports["projection_uniqueness"] = rep
    mono_region = Region(scenario.x0, min(radius, 0.45 * scenario.backend.budget().rho))
    reports["log_monotonicity"] = check_log_monotonicity(
        scenario.backend, mono_region, n_samples=n_samples, seed=scenario.seed
    )
    adm = admissible_step(scenario.moving_set, scenario.perturbation, scenario.horizon, scenario.x0)
    reports["admissible_step"] = {"h_max": adm.h_max, "sub_horizon": adm.sub_horizon, **adm.details}
    warnings = [f"{c.name}: {c.detail}" for c in (hypo, uniq) if c.status != "pass"]
    return DiagnosticsReport(scenario.name, scenario.hash, scenario.seed, reports, warnings)
