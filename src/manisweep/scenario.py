"""Scenario files: one JSON document describing a complete experiment.

A scenario bundles the manifold, the moving set, the perturbation
field, the horizon, the initial point, declared constants and all
tolerances, plus the seed every sampler derives its randomness from.
Unknown fields are rejected rather than ignored, the schema is
versioned, and load -> normalize -> save round-trips are hash-stable so
artifacts can cite the exact inputs that produced them.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import fields
from importlib import resources

import numpy as np

from .errors import StructuralError
from .geometry import BACKENDS, ManifoldBackend, Point, make_backend
from .moving_sets import MovingSet, Tolerances, make_moving_set
from .sweep import Perturbation, expression_perturbation, zero_perturbation

SCHEMA_VERSION = 1

_TOP_KEYS = {
    "schema",
    "name",
    "seed",
    "manifold",
    "set",
    "perturbation",
    "horizon",
    "initial_point",
    "constants",
    "tolerances",
}
_MANIFOLD_KEYS = {
    "euclidean": {"kind", "dim"},
    "sphere": {"kind", "dim"},
    "hyperbolic": {"kind", "dim"},
    "implicit": {"kind", "dim", "equalities"},
}
_SET_KEYS = {
    "halfline": {"kind", "offset", "speed"},
    "ball": {"kind", "center", "radius", "velocity"},
    "ball_complement": {"kind", "center", "radius"},
    "half_space": {"kind", "normal", "offset", "speed"},
    "sphere_cap": {"kind", "axis", "height", "omega", "rotation_axis"},
    "inequalities": {"kind", "exprs"},
}
_PERTURBATION_KEYS = {
    "zero": {"kind"},
    "expression": {"kind", "components", "sup_norm", "lipschitz"},
}
_CONSTANT_KEYS = {"lipschitz_const", "prox_radius_hint"}
_TOLERANCE_KEYS = {f.name for f in fields(Tolerances)}


def _reject_unknown(block: dict, allowed: set, where: str):
    extra = set(block) - allowed
    if extra:
        raise StructuralError(
            f"unknown field(s) {sorted(extra)} in {where}; allowed: {sorted(allowed)}"
        )


class Scenario:
    """A validated scenario with its constructed backend objects."""

    def __init__(self, document: dict):
        self.document = normalize_document(document)
        man = self.document["manifold"]
        self.backend: ManifoldBackend = make_backend(
            man["kind"], man["dim"], man.get("equalities")
        )
        self.tolerances = Tolerances(**self.document["tolerances"])
        consts = self.document["constants"]
        self.moving_set: MovingSet = make_moving_set(
            self.backend,
            self.document["set"],
            lipschitz_const=consts["lipschitz_const"],
            prox_radius_hint=consts["prox_radius_hint"],
            tolerances=self.tolerances,
        )
        self.perturbation: Perturbation = _build_perturbation(
            self.backend, self.document["perturbation"]
        )
        self.horizon: float = self.document["horizon"]
        self.seed: int = self.document["seed"]
        self.name: str = self.document["name"]
        try:
            self.x0: Point = self.backend.point(self.document["initial_point"])
        except StructuralError as err:
            raise StructuralError(f"initial_point is not on the manifold: {err}") from err
        if not self.moving_set.member(0.0, self.x0):
            vals = self.moving_set.constraint_values(0.0, self.x0)
            bad = int(np.argmin(vals))
            raise StructuralError(
                "scenario violates the invariant x0 in C(0): constraint "
                f"{bad} ({self.moving_set.constraints[bad].label or 'unnamed'}) "
                f"evaluates to {vals[bad]:.6g} at t = 0"
            )

    @property
    def hash(self) -> str:
        return document_hash(self.document)

    def analytic_solution(self):
        """Closed-form solution t -> Point when one is known, else None.

        The half-line sweep with zero perturbation follows
        x(t) = max(x0, max_{s<=t} bound(s)).
        """
        sd = self.document["set"]
        pd = self.document["perturbation"]
        if sd["kind"] == "halfline" and pd["kind"] == "zero":
            x0 = float(self.document["initial_point"][0])
            offset, speed = sd["offset"], sd["speed"]
            backend = self.backend

            def solution(t):
                running_max = offset + max(0.0, speed * t)
                return backend.point([max(x0, running_max)])

            return solution
        return None

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(dumps_document(self.document))

    def __repr__(self):
        return f"Scenario({self.name!r}, hash={self.hash[:12]})"


def _build_perturbation(backend, block):
    if block["kind"] == "zero":
        return zero_perturbation()
    return expression_perturbation(
        backend, block["components"], block["sup_norm"], block["lipschitz"]
    )


def normalize_document(doc: dict) -> dict:
    """Validate and fill defaults; raises structural errors naming fields."""
    if not isinstance(doc, dict):
        raise StructuralError("scenario document must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "scenario")
    if doc.get("schema") != SCHEMA_VERSION:
        raise StructuralError(
            f"unsupported schema version {doc.get('schema')!r}; expected {SCHEMA_VERSION}"
        )
    for key in ("manifold", "set", "horizon", "initial_point"):
        if key not in doc:
            raise StructuralError(f"scenario is missing required field {key!r}")

    man = dict(doc["manifold"])
    kind = man.get("kind")
    if kind not in _MANIFOLD_KEYS:
        raise StructuralError(
            f"unknown manifold kind {kind!r}; known: {sorted(_MANIFOLD_KEYS)}"
        )
    _reject_unknown(man, _MANIFOLD_KEYS[kind], f"manifold ({kind})")
    if not isinstance(man.get("dim"), int) or man["dim"] < 1:
        raise StructuralError("manifold dim must be a positive integer")
    if kind == "implicit":
        eqs = man.get("equalities")
        if not isinstance(eqs, list) or not eqs or not all(isinstance(s, str) for s in eqs):
            raise StructuralError("implicit manifold needs a nonempty equalities list")
        man["equalities"] = list(eqs)

    st = dict(doc["set"])
    skind = st.get("kind")
    if skind not in _SET_KEYS:
        raise StructuralError(f"unknown set kind {skind!r}; known: {sorted(_SET_KEYS)}")
    _reject_unknown(st, _SET_KEYS[skind], f"set ({skind})")

    pert = dict(doc.get("perturbation", {"kind": "zero"}))
    pkind = pert.get("kind")
    if pkind not in _PERTURBATION_KEYS:
        raise StructuralError(
            f"unknown perturbation kind {pkind!r}; known: {sorted(_PERTURBATION_KEYS)}"
        )
    _reject_unknown(pert, _PERTURBATION_KEYS[pkind], f"perturbation ({pkind})")
    if pkind == "expression":
        for key in ("components", "sup_norm", "lipschitz"):
            if key not in pert:
                raise StructuralError(f"expression perturbation is missing {key!r}")

    horizon = doc["horizon"]
    if not isinstance(horizon, (int, float)) or not horizon > 0:
        raise StructuralError("horizon must be a positive number")

    x0 = doc["initial_point"]
    if not isinstance(x0, list) or not all(isinstance(v, (int, float)) for v in x0):
        raise StructuralError("initial_point must be a list of numbers")

    consts = dict(doc.get("constants", {}))
    _reject_unknown(consts, _CONSTANT_KEYS, "constants")
    consts.setdefault("lipschitz_const", _default_lipschitz(st))
    consts.setdefault("prox_radius_hint", 1.0)
    if consts["lipschitz_const"] < 0:
        raise StructuralError("lipschitz_const must be nonnegative")
    if not consts["prox_radius_hint"] > 0:
        raise StructuralError("prox_radius_hint must be positive")

    tols = dict(doc.get("tolerances", {}))
    _reject_unknown(tols, _TOLERANCE_KEYS, "tolerances")
    for key, value in tols.items():
        if not isinstance(value, (int, float)) or not (math.isfinite(value) and value > 0):
            raise StructuralError(f"tolerances.{key} must be a positive finite number")
    tols.setdefault("feasibility", BACKENDS[kind].feasibility_tol)
    tols = Tolerances(**{k: float(v) for k, v in tols.items()}).to_dict()

    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or seed < 0:
        raise StructuralError("seed must be a nonnegative integer")

    return {
        "schema": SCHEMA_VERSION,
        "name": str(doc.get("name", "unnamed")),
        "seed": seed,
        "manifold": man,
        "set": st,
        "perturbation": pert,
        "horizon": float(horizon),
        "initial_point": [float(v) for v in x0],
        "constants": {k: float(v) for k, v in consts.items()},
        "tolerances": tols,
    }


def _default_lipschitz(set_block):
    kind = set_block["kind"]
    if kind in ("halfline", "half_space"):
        return abs(set_block.get("speed", 0.0))
    if kind == "ball":
        vel = set_block.get("velocity")
        return float(np.linalg.norm(vel)) if vel is not None else 0.0
    if kind == "sphere_cap":
        return abs(set_block.get("omega", 0.0))
    return 0.0


def dumps_document(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def document_hash(doc: dict) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as err:
        raise StructuralError(
            f"scenario file {path} is not valid JSON: line {err.lineno}, "
            f"column {err.colno}: {err.msg}"
        ) from err
    return Scenario(doc)


def bundled_scenario_path(name: str):
    base = resources.files("manisweep") / "scenarios" / f"{name}.json"
    if not base.is_file():
        have = sorted(
            p.name[:-5]
            for p in (resources.files("manisweep") / "scenarios").iterdir()
            if p.name.endswith(".json")
        )
        raise StructuralError(f"no bundled scenario {name!r}; bundled: {have}")
    return base


def bundled_scenario(name: str) -> Scenario:
    with bundled_scenario_path(name).open() as fh:
        return Scenario(json.load(fh))
