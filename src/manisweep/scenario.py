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
import inspect
import json
import math
from dataclasses import fields
from importlib import resources
from typing import Optional, Sequence

import numpy as np

from .artifacts import dumps as dumps_document  # the scenario document's text
from .errors import StructuralError
from .geometry import BACKENDS, ManifoldBackend, Point
from .moving_sets import CATALOG, MovingSet, Tolerances, Vector
from .sweep import Perturbation, expression_perturbation, require_x0_in_C0, zero_perturbation

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
#: perturbation kind -> builder; like the set ``CATALOG``, the builder's
#: parameters after the backend are the fields its block takes
PERTURBATIONS = {
    "zero": lambda backend: zero_perturbation(),
    "expression": expression_perturbation,
}
_CONSTANT_KEYS = ("lipschitz_const", "prox_radius_hint")
_TOLERANCE_KEYS = {f.name for f in fields(Tolerances)}


def _reject_unknown(block: dict, allowed: set, where: str):
    extra = set(block).difference(allowed)
    if extra:
        raise StructuralError(
            f"unknown field(s) {sorted(extra)} in {where}; allowed: {sorted(allowed)}"
        )


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise StructuralError(f"{where} must be a JSON object, got {type(value).__name__}")
    return dict(value)


def _builder_fields(builder) -> dict:
    """A builder's block fields: its parameters but the backend, by name."""
    params = inspect.signature(builder, eval_str=True).parameters.values()
    return {p.name: p for p in params if p.name != "backend" and p.kind is not p.VAR_KEYWORD}


def _check_builder_fields(block: dict, builders: dict, where: str):
    """Check a ``kind`` block against the parameters of the builder it names."""
    kind = block.get("kind")
    if kind not in builders:
        raise StructuralError(f"unknown {where} kind {kind!r}; known: {sorted(builders)}")
    params = _builder_fields(builders[kind])
    _reject_unknown(block, {"kind"} | set(params), f"{where} ({kind})")
    missing = [n for n, p in params.items() if p.default is p.empty and n not in block]
    if missing:
        raise StructuralError(f"{where} ({kind}) is missing required field(s) {missing}")
    for key, value in block.items():
        if key != "kind":
            check, what = _FIELD_RULES[params[key].annotation]
            if not check(value):
                raise StructuralError(f"{where}.{key} must be {what}")


def _check_vector_lengths(block: dict, n: int):
    """A set block's vector fields hold one coordinate per ambient dimension."""
    params = _builder_fields(CATALOG[block["kind"]])
    for key, value in block.items():
        if key != "kind" and params[key].annotation in _VECTORS and len(value) != n:
            raise StructuralError(
                f"set.{key} must have {n} coordinates, one per ambient "
                f"dimension; got {len(value)}"
            )


def _is_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return math.isfinite(value)


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_vector(value) -> bool:
    return isinstance(value, list) and all(map(_is_number, value))


def _is_expressions(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


_VECTORS = (Vector, Optional[Vector])
#: a builder parameter's annotation -> (check of a block value, what it must be)
_FIELD_RULES = {
    int: (lambda value: _is_integer(value) and value >= 1, "a positive integer"),
    float: (_is_number, "a finite number"),
    Vector: (_is_vector, "a list of finite numbers"),
    Optional[Vector]: (_is_vector, "a list of finite numbers"),
    Sequence[str]: (_is_expressions, "a list of expression strings"),
}


class Scenario:
    """A validated scenario with its constructed backend objects."""

    def __init__(self, document: dict):
        self.document = normalize_document(document)
        man = dict(self.document["manifold"])
        self.backend: ManifoldBackend = BACKENDS[man.pop("kind")](**man)
        self.tolerances = Tolerances(**self.document["tolerances"])
        _check_vector_lengths(self.document["set"], self.backend.ambient_dim)
        st = dict(self.document["set"])
        self.moving_set: MovingSet = CATALOG[st.pop("kind")](
            self.backend, **st, tolerances=self.tolerances, **self.document["constants"]
        )
        # omitted constants take the defaults of the set that was built
        self.document["constants"] = {k: getattr(self.moving_set, k) for k in _CONSTANT_KEYS}
        pert = dict(self.document["perturbation"])
        self.perturbation: Perturbation = PERTURBATIONS[pert.pop("kind")](self.backend, **pert)
        self.horizon: float = self.document["horizon"]
        self.seed: int = self.document["seed"]
        self.name: str = self.document["name"]
        try:
            self.x0: Point = self.backend.point(self.document["initial_point"])
        except StructuralError as err:
            raise StructuralError(f"initial_point is not on the manifold: {err}") from err
        require_x0_in_C0(self.moving_set, self.x0)

    @property
    def hash(self) -> str:
        return document_hash(self.document)

    def analytic_solution(self):
        """Closed-form solution t -> Point when one is known, else None.

        The half-line sweep with zero perturbation follows
        x(t) = max(x0, max_{s<=t} bound(s)); the bound is linear in t, so
        the running maximum is max(bound(0), bound(t)).
        """
        kinds = (self.document["set"]["kind"], self.document["perturbation"]["kind"])
        if kinds == ("halfline", "zero"):
            x0 = float(self.document["initial_point"][0])
            g = self.moving_set.constraints[0].value  # g(t, x) = x1 - bound(t)
            origin = np.zeros(1)
            backend = self.backend

            def solution(t):
                running_max = max(-g(0.0, origin), -g(t, origin))
                return backend.point([max(x0, running_max)])

            return solution
        return None

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(dumps_document(self.document))

    def __repr__(self):
        return f"Scenario({self.name!r}, hash={self.hash[:12]})"


def normalize_document(doc: dict) -> dict:
    """Validate and fill the tolerance defaults; raises structural errors naming fields.

    Omitted ``constants`` stay omitted here: ``Scenario`` fills them from
    the moving set it builds, whose constructor holds the defaults.
    """
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

    man = _object(doc["manifold"], "manifold")
    _check_builder_fields(man, BACKENDS, "manifold")
    st = _object(doc["set"], "set")
    _check_builder_fields(st, CATALOG, "set")
    pert = _object(doc.get("perturbation", {"kind": "zero"}), "perturbation")
    _check_builder_fields(pert, PERTURBATIONS, "perturbation")

    horizon = doc["horizon"]
    if not (_is_number(horizon) and horizon > 0):
        raise StructuralError("horizon must be a positive finite number")

    x0 = doc["initial_point"]
    if not _is_vector(x0):
        raise StructuralError("initial_point must be a list of finite numbers")

    consts = _object(doc.get("constants", {}), "constants")
    _reject_unknown(consts, _CONSTANT_KEYS, "constants")
    for key, value in consts.items():
        if not _is_number(value):
            raise StructuralError(f"constants.{key} must be a finite number")

    tols = _object(doc.get("tolerances", {}), "tolerances")
    _reject_unknown(tols, _TOLERANCE_KEYS, "tolerances")
    for key, value in tols.items():
        if not (_is_number(value) and value > 0):
            raise StructuralError(f"tolerances.{key} must be a positive finite number")
    tols.setdefault("feasibility", BACKENDS[man["kind"]].feasibility_tol)
    tols = Tolerances(**{k: float(v) for k, v in tols.items()}).to_dict()

    seed = doc.get("seed", 0)
    if not (_is_integer(seed) and seed >= 0):
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
