"""Seeded scenario inputs, the CLI calls of each workload, and their output checks.

Every input is derived from the workload seed: each scenario's ``seed``
field and a small offset of its initial point, drawn so that the point
stays on the manifold and inside C(0).  An offset that fails validation
through ``manisweep.scenario.Scenario`` is redrawn.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from manisweep.errors import StructuralError
from manisweep.scenario import Scenario, bundled_scenario_path

GOLDENS = (
    "halfline",
    "static_convex",
    "disk_moving_center",
    "sphere_rotating_cap",
    "implicit_ellipse_cap",
)
# no bundled golden uses the hyperboloid, so the benchmark owns one
HYPERBOLIC_BALL = {
    "schema": 1,
    "name": "hyperbolic_ball",
    "seed": 0,
    "manifold": {"kind": "hyperbolic", "dim": 2},
    "set": {"kind": "ball", "center": [1.0, 0.0, 0.0], "radius": 1.0},
    "perturbation": {
        "kind": "expression",
        "components": ["0.0", "0.4", "0.2"],
        "sup_norm": 1.0,
        "lipschitz": 0.5,
    },
    "initial_point": [math.sqrt(1.09), 0.3, 0.0],
    "constants": {"lipschitz_const": 0.0, "prox_radius_hint": 1.0},
    "horizon": 1.0,
}
SCENARIOS = GOLDENS + ("hyperbolic_ball",)

#: largest initial-point offset, in ambient coordinates
OFFSET = 0.02

CLOSED_FORM = ("halfline", "static_convex", "disk_moving_center", "sphere_rotating_cap",
               "hyperbolic_ball")

#: workload -> (CLI command, scenarios, extra CLI arguments) of its calls, in order.
#: Two long workloads rather than one per command: on a shared 2-CPU machine a
#: run must average over tens of seconds before its times repeat across runs.
WORKLOADS = {
    "simulate": (
        # closed-form projections: integrator loop, cheap primitives, member, CSV writing
        ("simulate", CLOSED_FORM, ("--h", "0.00025")),
        # shooting log maps, RK4 kernels, iterative projector, restore_feasibility
        ("simulate", ("implicit_ellipse_cap",), ("--h", "0.001")),
    ),
    "studies": (
        # regularity samplers, inclusion residual, visited-region search
        ("certify", SCENARIOS, ()),
        # five integrations per scenario, read back through Trajectory.interpolate
        ("rates", SCENARIOS, ("--levels", "4")),
    ),
}


def scenario_names(workload: str) -> list:
    return list(dict.fromkeys(n for _, names, _ in WORKLOADS[workload] for n in names))


def _disk(rng: random.Random, radius: float):
    """Uniform point of the 2-d disk of the given radius."""
    r = radius * math.sqrt(rng.random())
    a = 2.0 * math.pi * rng.random()
    return r * math.cos(a), r * math.sin(a)


def _offset_initial_point(name: str, x0: list, rng: random.Random) -> list:
    if name == "halfline":
        return [x0[0] + rng.uniform(-OFFSET, OFFSET)]
    if name in ("static_convex", "disk_moving_center"):
        dx, dy = _disk(rng, OFFSET)
        return [x0[0] + dx, x0[1] + dy]
    if name == "sphere_rotating_cap":
        p = [c + rng.uniform(-OFFSET, OFFSET) for c in x0]
        n = math.sqrt(sum(c * c for c in p))
        return [c / n for c in p]
    if name == "implicit_ellipse_cap":
        # along x1^2/4 + x2^2 = 1 in the direction where x2 rises above -0.5
        theta = math.atan2(x0[1], x0[0] / 2.0) + rng.uniform(0.0, OFFSET / 2.0)
        return [2.0 * math.cos(theta), math.sin(theta)]
    if name == "hyperbolic_ball":
        dx, dy = _disk(rng, OFFSET)
        s1, s2 = x0[1] + dx, x0[2] + dy
        return [math.sqrt(1.0 + s1 * s1 + s2 * s2), s1, s2]
    raise ValueError(f"no offset rule for scenario {name!r}")


def make_documents(seed: int, names) -> dict:
    """Seeded scenario documents for ``names``, validated and normalized, keyed by name."""
    docs = {}
    for name in names:
        if name == "hyperbolic_ball":
            base = HYPERBOLIC_BALL
        else:
            base = json.loads(bundled_scenario_path(name).read_text())
        rng = random.Random(f"manisweep-bench:{seed}:{name}")
        for _ in range(100):
            doc = dict(base, seed=rng.randrange(2**31))
            doc["initial_point"] = _offset_initial_point(name, base["initial_point"], rng)
            try:
                docs[name] = Scenario(doc).document
            except StructuralError:
                continue
            break
        else:
            raise RuntimeError(f"no valid offset of {name} in 100 draws")
    return docs


@dataclass
class Call:
    """One CLI invocation with the artifacts it writes."""

    scenario: str
    argv: list
    artifacts: dict  # role -> path
    doc: dict


def calls_for(workload: str, scenario_paths: dict, docs: dict, out_dir: Path) -> list:
    calls = []
    for command, names, extra in WORKLOADS[workload]:
        for name in names:
            argv = [command, "--scenario", str(scenario_paths[name]), *extra]
            if command == "simulate":
                arts = {"csv": out_dir / f"{name}.csv", "meta": out_dir / f"{name}.meta.json"}
                argv += ["--out", str(arts["csv"]), "--metadata", str(arts["meta"])]
            else:
                arts = {"report": out_dir / f"{name}.{command}.json"}
                argv += ["--out", str(arts["report"])]
            calls.append(Call(name, argv, arts, docs[name]))
    return calls


def check(call: Call, exit_code) -> list:
    """Problems with one call's outputs; empty when they are correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    command = call.argv[0]
    if command == "simulate":
        return _check_simulate(call)
    report = json.loads(call.artifacts["report"].read_text())
    if command == "certify":
        problems = []
        if report["status"] not in ("pass", "warn"):
            problems.append(f"status {report['status']}")
        if not report["max_velocity"] <= report["velocity_bound"]:
            problems.append(
                f"max_velocity {report['max_velocity']} > bound {report['velocity_bound']}"
            )
        return problems
    order = report["fitted_order"]
    if order is None or not math.isfinite(order) or order <= 0:
        return [f"fitted_order {order!r} is not finite and positive"]
    return []


def _check_simulate(call: Call) -> list:
    problems = []
    meta = json.loads(call.artifacts["meta"].read_text())
    if meta.get("certified") is not True:
        problems.append("sidecar certified is not true")
    h = float(call.argv[call.argv.index("--h") + 1])
    horizon = float(call.doc["horizon"])
    # same node count as catching_up: ceil(horizon / h) steps, plus x0
    want_rows = max(1, math.ceil(horizon / h - 1e-12)) + 1
    tol = call.doc["tolerances"]["feasibility"]
    with open(call.artifacts["csv"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != want_rows:
        problems.append(f"{len(rows)} CSV rows, expected {want_rows}")
    bad = [r["dist_to_set"] for r in rows if not float(r["dist_to_set"]) <= tol]
    if bad:
        problems.append(
            f"{len(bad)} dist_to_set values above the feasibility tolerance {tol}, "
            f"first {bad[0]}"
        )
    return problems


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()
