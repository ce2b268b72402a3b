"""Per-layer spans recorded from outside the program.

A ``Tracer`` wraps the public functions and methods of each manisweep
module for the duration of a traced pass; nothing under ``src/`` changes.
Methods are patched on their class, which also catches the free
functions of ``manisweep.geometry`` (they dispatch through
``x.backend``).  Module-level functions are rebound in every manisweep
module that holds them by name, e.g. ``catching_up`` in ``cli`` and
``studies``.  Spans stay in memory and are written out at the end.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter

from manisweep import cli, expressions, regularity, scenario, studies, sweep
from manisweep.geometry import (
    EuclideanBackend,
    HyperbolicBackend,
    ImplicitBackend,
    ManifoldBackend,
    SphereBackend,
)
from manisweep.moving_sets import MovingSet

BACKENDS = {
    EuclideanBackend: "euclidean",
    SphereBackend: "sphere",
    HyperbolicBackend: "hyperbolic",
    ImplicitBackend: "implicit",
}
GEOMETRY_OPS = ("exp_map", "log_map", "distance", "parallel_transport", "budget")


def _geometry_names(op):
    names = {cls: f"geometry.{op}.{kind}" for cls, kind in BACKENDS.items()}
    return lambda args, kwargs: names[type(args[0])]


def _project_name(args, kwargs):
    set_ = args[0]
    if set_.closed_project is not None and kwargs.get("method", "auto") != "iterative":
        return "moving_sets.project.closed"
    return "moving_sets.project.iterative"


class Tracer:
    """Spans and counters of the wrapped calls, one CLI call at a time."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent span index, call id]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.call_id = 0
        self._stack = []  # [span index, time covered by child spans]
        self._pairs_seen = set()
        self._patches = []  # (owner, attribute, original value)

    # -- recording -------------------------------------------------------------

    def new_call(self):
        """Start a new CLI call: spans get a fresh id, repeat tracking restarts."""
        self.call_id += 1
        self._pairs_seen.clear()

    def _wrap(self, fn, name, after=None):
        spans, stack, calls, self_s = self.spans, self._stack, self.calls, self.self_s
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            frame = [len(spans), 0.0]
            span = [label, 0.0, 0.0, stack[-1][0] if stack else -1, tracer.call_id]
            spans.append(span)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                span[1], span[2] = t0, t1
                calls[label] += 1
                self_s[label] += (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
            if after is not None:
                after(args, kwargs, result, t1 - t0)
            return result

        return wrapper

    # -- counters at the same boundaries ------------------------------------------

    def _after_pair_query(self, args, kwargs, result, dur):
        if type(args[0]) is ImplicitBackend:
            key = (args[1].coords.tobytes(), args[2].coords.tobytes())
            self.counts["implicit_pair_queries"] += 1
            if key in self._pairs_seen:
                self.counts["implicit_pair_repeats"] += 1
            else:
                self._pairs_seen.add(key)

    def _after_project(self, args, kwargs, result, dur):
        query = args[2] if len(args) > 2 else kwargs["y"]
        self.counts["moving_sets.project.iterations"] += result.iterations
        self.counts["project_interior"] += result.point is query

    def _after_catching_up(self, args, kwargs, result, dur):
        steps = len(result.nodes) - 1
        self.counts["sweep.catching_up.steps"] += steps
        self.counts[f"steps.{args[0].name}"] += steps
        self.counts[f"step_s.{args[0].name}"] += dur

    def _after_residual(self, args, kwargs, result, dur):
        self.counts["residual_conclusive"] += bool(result.conclusive)

    def _after_hypomonotonicity(self, args, kwargs, result, dur):
        self.counts["regularity.sample_hypomonotonicity.pairs"] += result.samples

    def _after_to_csv(self, args, kwargs, result, dur):
        self.counts["sweep.Trajectory.to_csv.bytes"] += len(result.encode())

    # -- installation --------------------------------------------------------------

    def _specs(self):
        """(key, owner, attribute, span name, after hook) of every wrapped callable."""
        specs = []
        for op in GEOMETRY_OPS:
            after = self._after_pair_query if op in ("log_map", "distance") else None
            owners = BACKENDS if op == "budget" else (ManifoldBackend,)
            for owner in owners:
                specs.append((f"geometry.{op}", owner, op, _geometry_names(op), after))
        specs += [
            ("moving_sets.project", MovingSet, "project", _project_name, self._after_project),
            ("moving_sets.restore_feasibility", MovingSet, "restore_feasibility", None, None),
            ("moving_sets.member", MovingSet, "member", None, None),
            ("regularity.sample_hypomonotonicity", regularity, "sample_hypomonotonicity",
             None, self._after_hypomonotonicity),
            ("regularity.probe_projection_uniqueness", regularity,
             "probe_projection_uniqueness", None, None),
            ("regularity.sample_boundary_points", regularity, "sample_boundary_points",
             None, None),
            ("sweep.catching_up", sweep, "catching_up", None, self._after_catching_up),
            ("sweep.inclusion_residual", sweep, "inclusion_residual", None,
             self._after_residual),
            ("sweep.Trajectory.interpolate", sweep.Trajectory, "interpolate", None, None),
            ("sweep.Trajectory.to_csv", sweep.Trajectory, "to_csv", None, self._after_to_csv),
            ("sweep.Perturbation.call", sweep.Perturbation, "__call__", None, None),
            ("studies.certify_scenario", studies, "certify_scenario", None, None),
            ("studies.run_rate_study", studies, "run_rate_study", None, None),
            ("scenario.load_scenario", scenario, "load_scenario", None, None),
            ("expressions.parse", expressions, "parse", None, None),
            ("expressions.compile", expressions, "compile_tree", None, None),
            ("expressions.compile", expressions, "compile_many", None, None),
            ("cli.main", cli, "main", None, None),
        ]
        return specs

    def install(self, only=None):
        """Wrap every layer callable, or only those whose key is in ``only``."""
        for key, owner, attr, name, after in self._specs():
            if only is not None and key not in only:
                continue
            original = vars(owner)[attr]
            wrapper = self._wrap(original, name or key, after)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "manisweep" and not mod_name.startswith("manisweep."):
                    continue
                for held, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, held, original))
                        setattr(mod, held, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------------

    def step_us(self, scenario_name: str) -> float:
        steps = self.counts.get(f"steps.{scenario_name}", 0)
        return 1e6 * self.counts[f"step_s.{scenario_name}"] / steps if steps else 0.0

    def total_self_s(self) -> float:
        return sum(self.self_s.values())

    def write_spans(self, path):
        """One JSON line per span: name, start, end, parent index, CLI-call id."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


#: spans reported as ``<name>.calls`` and ``<name>.self_s``
LAYER_SPANS = (
    [f"geometry.{op}.{kind}" for op in GEOMETRY_OPS for kind in BACKENDS.values()]
    + [
        "moving_sets.project.closed",
        "moving_sets.project.iterative",
        "moving_sets.restore_feasibility",
        "moving_sets.member",
        "regularity.sample_hypomonotonicity",
        "regularity.probe_projection_uniqueness",
        "regularity.sample_boundary_points",
        "sweep.catching_up",
        "sweep.inclusion_residual",
        "sweep.Trajectory.interpolate",
        "sweep.Trajectory.to_csv",
        "sweep.Perturbation.call",
        "studies.certify_scenario",
        "studies.run_rate_study",
        "scenario.load_scenario",
        "expressions.parse",
        "expressions.compile",
        "cli.main",
    ]
)
#: counters reported per pass under their own name
LAYER_COUNTS = (
    "moving_sets.project.iterations",
    "regularity.sample_hypomonotonicity.pairs",
    "sweep.catching_up.steps",
    "sweep.Trajectory.to_csv.bytes",
)


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer: Tracer, passes: int) -> dict:
    """Per-pass calls, self time and counters, plus the layer ratios."""
    out = {}
    for name in LAYER_SPANS:
        out[f"{name}.calls"] = tracer.calls.get(name, 0) / passes
        out[f"{name}.self_s"] = tracer.self_s.get(name, 0.0) / passes
    for name in LAYER_COUNTS:
        out[name] = tracer.counts.get(name, 0) / passes
    c = tracer.counts
    out["geometry.implicit.log_pair_repeat_ratio"] = _ratio(
        c["implicit_pair_repeats"], c["implicit_pair_queries"]
    )
    projects = tracer.calls["moving_sets.project.closed"] + tracer.calls[
        "moving_sets.project.iterative"
    ]
    out["moving_sets.project.interior_ratio"] = _ratio(c["project_interior"], projects)
    out["sweep.inclusion_residual.conclusive_ratio"] = _ratio(
        c["residual_conclusive"], tracer.calls["sweep.inclusion_residual"]
    )
    return out
