"""Manifold backends and the shared metric operations.

Free functions mirror the backend methods, dispatching on the point's
backend, so call sites can read ``exp_map(x, v)`` instead of
``x.backend.exp_map(x, v)``.
"""

from .base import (
    GeometryBudget,
    ManifoldBackend,
    Point,
    Region,
    Tangent,
    check_same_backend,
    check_same_base,
)
from .euclidean import EuclideanBackend
from .hyperbolic import HyperbolicBackend
from .implicit import ImplicitBackend
from .sphere import SphereBackend


#: manifold kind in a scenario -> backend class; like the set ``CATALOG``,
#: the constructor's parameters are the fields of the manifold block
BACKENDS = {
    "euclidean": EuclideanBackend,
    "sphere": SphereBackend,
    "hyperbolic": HyperbolicBackend,
    "implicit": ImplicitBackend,
}


def distance(x: Point, y: Point) -> float:
    return x.backend.distance(x, y)


def exp_map(x: Point, v: Tangent) -> Point:
    return x.backend.exp_map(x, v)


def log_map(x: Point, y: Point) -> Tangent:
    return x.backend.log_map(x, y)


def parallel_transport(x: Point, y: Point, v: Tangent) -> Tangent:
    return x.backend.parallel_transport(x, y, v)


def grad_sq_distance(x: Point, y: Point) -> Tangent:
    return x.backend.grad_sq_distance(x, y)


__all__ = [
    "BACKENDS",
    "EuclideanBackend",
    "GeometryBudget",
    "HyperbolicBackend",
    "ImplicitBackend",
    "ManifoldBackend",
    "Point",
    "Region",
    "SphereBackend",
    "Tangent",
    "check_same_backend",
    "check_same_base",
    "distance",
    "exp_map",
    "grad_sq_distance",
    "log_map",
    "parallel_transport",
]
