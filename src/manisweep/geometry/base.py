"""Core geometry types: points, tangent vectors, regions, budgets.

A backend bundles the metric operations of one concrete manifold
(distance, exponential and logarithm maps, parallel transport) together
with per-region geometry budgets.  Points and tangent vectors are
immutable; a tangent vector remembers its base point and every
operation checks that bases match, so tangent spaces can never be mixed
silently.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from ..errors import DomainError, StructuralError

#: slack applied to radius preconditions so exact-radius inputs
#: (e.g. a quarter great circle on the unit sphere) remain valid
_RADIUS_SLACK = 1.0 + 1e-9

#: two points closer than this (ambient 2-norm) count as the same base
SAME_POINT_TOL = 1e-9

#: tangent bases ``ManifoldBackend._basis_at`` keeps
BASIS_MEMO = 4


def _norm(a) -> float:
    """``np.linalg.norm(a)`` of a float array, bit for bit: the same ravel, dot
    and correctly rounded square root, without the per-call dispatch."""
    a = a.ravel(order="K")
    return math.sqrt(a.dot(a))


def _max_abs(values) -> float:
    """``float(np.max(np.abs(values)))`` of a nonempty float sequence: a NaN stays the maximum."""
    worst = 0.0
    for v in values:
        v = abs(v)
        if v > worst or v != v:
            worst = v
    return float(worst)


def _freeze(a):
    arr = np.array(a, dtype=float)
    arr.setflags(write=False)
    return arr


class _Frozen:
    """Slots set once by ``__init__``; values compare and hash by identity."""

    __slots__ = ()

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):  # a copy is built from the same fields
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class Point(_Frozen):
    """A point on a manifold, in the backend's working coordinates."""

    __slots__ = ("backend", "coords")

    def __init__(self, backend: "ManifoldBackend", coords):
        object.__setattr__(self, "backend", backend)
        object.__setattr__(self, "coords", _freeze(coords))

    def __repr__(self):
        return f"Point({self.backend.key[0]}, {np.array2string(self.coords, precision=6)})"


class Tangent(_Frozen):
    """A tangent vector tagged with its base point."""

    __slots__ = ("base", "components")

    def __init__(self, base: Point, components):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "components", _freeze(components))

    @property
    def backend(self):
        return self.base.backend

    def norm(self):
        return self.backend.norm(self.base, self.components)

    def inner(self, other: "Tangent") -> float:
        check_same_base(self, other.base)
        return self.backend.inner(self.base, self.components, other.components)

    def scaled(self, alpha: float) -> "Tangent":
        return Tangent(self.base, alpha * self.components)

    def __add__(self, other: "Tangent") -> "Tangent":
        check_same_base(self, other.base)
        return Tangent(self.base, self.components + other.components)

    def __sub__(self, other: "Tangent") -> "Tangent":
        check_same_base(self, other.base)
        return Tangent(self.base, self.components - other.components)

    def __repr__(self):
        return f"Tangent(at={self.base!r}, {np.array2string(self.components, precision=6)})"


@dataclass(frozen=True)
class Region:
    """A geodesic-ball region descriptor: center point plus radius."""

    center: Point
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise StructuralError("region radius must be positive")


@dataclass(frozen=True)
class GeometryBudget:
    """Validated working constants for one region of a manifold.

    ``rho`` is the safe radius within which exp/log/transport are
    single-valued and the curvature-dependent estimates hold:
    min(injectivity radius, convexity radius, pi/(2*sqrt(|K|))).
    ``curvature_bound`` bounds |K| on the region; on sampled backends
    both are estimates, and ``is_estimate`` says so.
    """

    rho: float
    curvature_bound: float
    is_estimate: bool = False

    def __post_init__(self):
        if not self.rho > 0:
            raise StructuralError("budget rho must be positive")
        if self.curvature_bound < 0:
            raise StructuralError("curvature bound must be nonnegative")

    def admits_radius(self, r: float) -> bool:
        return r <= self.rho * _RADIUS_SLACK


def check_same_backend(a, b):
    if a.backend.key != b.backend.key:
        raise StructuralError(
            f"backend mismatch: {a.backend.key} vs {b.backend.key}"
        )


def check_same_base(v: Tangent, x: Point):
    if v.base is x:
        return
    check_same_backend(v.base, x)
    delta = float(np.max(np.abs(v.base.coords - x.coords)))
    if delta > SAME_POINT_TOL:
        raise StructuralError(
            f"tangent vector based at a different point (coordinate gap {delta:.3e}); "
            "transport it explicitly instead of mixing tangent spaces"
        )


class ManifoldBackend(abc.ABC):
    """Metric operations of one concrete finite-dimensional manifold.

    Every operation is a pure function of its inputs.  Backends are not
    thread-safe: ``_basis_at`` memoizes the last ``BASIS_MEMO`` tangent bases,
    and the implicit backend fills its log-map and budget caches as it runs.
    Distinct backends may run in distinct threads: the native ``Kernels``
    that implicit backends with the same equalities share holds no
    mutable state.
    """

    #: ``_basis_at``'s memo: (coordinate bytes, basis) of the last ``BASIS_MEMO``
    #: base points, oldest first; a basis is a pure function of those bytes
    _basis_memo: tuple = ()

    #: hashable identifier; two backends with equal keys are interchangeable
    key: tuple

    #: intrinsic dimension
    dim: int

    #: ambient coordinate dimension
    ambient_dim: int

    #: |constraint residual| below this counts as on-manifold; also the
    #: scenario's default ``tolerances.feasibility``
    feasibility_tol: float = 1e-10

    # -- required primitive operations; ``_exp`` is given the nonzero norm of
    # vc and ``_log`` the distance d(x, y) that their callers found ----------

    @abc.abstractmethod
    def _distance(self, xc: np.ndarray, yc: np.ndarray) -> float: ...

    @abc.abstractmethod
    def _exp(self, xc: np.ndarray, vc: np.ndarray, speed: float) -> np.ndarray: ...

    @abc.abstractmethod
    def _log(self, xc: np.ndarray, yc: np.ndarray, d: float) -> np.ndarray: ...

    @abc.abstractmethod
    def _transport(self, xc: np.ndarray, yc: np.ndarray, vc: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def _project_tangent(self, xc: np.ndarray, amb: np.ndarray) -> np.ndarray:
        """Project an ambient vector onto the tangent space at ``xc``."""

    @abc.abstractmethod
    def tangent_basis(self, x: Point) -> np.ndarray:
        """Orthonormal basis of T_x, shape (dim, ambient_dim)."""

    @abc.abstractmethod
    def feasibility_residual(self, coords: np.ndarray) -> float:
        """How far ``coords`` is from satisfying the manifold's defining equations."""

    @abc.abstractmethod
    def budget(self, region: Region | None = None) -> GeometryBudget: ...

    # -- metric ----------------------------------------------------------

    def inner(self, x: Point, u: np.ndarray, v: np.ndarray) -> float:
        """Riemannian inner product at x; Euclidean unless overridden.  No
        backend's form varies with x, so coordinate-level callers pass coordinates."""
        return float(u.dot(v))

    def norm(self, x: Point, u: np.ndarray) -> float:
        return math.sqrt(max(self.inner(x, u, u), 0.0))

    # -- public wrapped operations ----------------------------------------

    def point(self, coords) -> Point:
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (self.ambient_dim,):
            raise StructuralError(
                f"expected {self.ambient_dim} coordinates, got shape {coords.shape}"
            )
        if not all(map(math.isfinite, coords.tolist())):
            raise StructuralError(f"coordinates must be finite, got {coords}")
        resid = self.feasibility_residual(coords)
        if not resid <= self.feasibility_tol:  # a NaN residual fails too
            raise StructuralError(
                f"coordinates violate the manifold equations (residual {resid:.3e})"
            )
        return Point(self, coords)

    def tangent(self, x: Point, components) -> Tangent:
        components = np.asarray(components, dtype=float)
        bad = np.flatnonzero(~np.isfinite(components))
        if bad.size:
            raise StructuralError(
                f"tangent components {bad.tolist()} are not finite, got {components}"
            )
        proj = self._project_tangent(x.coords, components)
        gap = self.norm(x, components - proj)
        scale = max(1.0, self.norm(x, components))
        if gap > 1e-7 * scale:
            raise StructuralError(
                f"components are not tangent at the base point (normal part {gap:.3e})"
            )
        return Tangent(x, proj)

    def distance(self, x: Point, y: Point) -> float:
        check_same_backend(x, y)
        return self._distance(x.coords, y.coords)

    def _require_radius(self, r: float, what: str):
        """Raise a DomainError naming ``what`` when r exceeds the validated radius."""
        b = self.budget()
        if not b.admits_radius(r):
            raise DomainError(f"{what} = {r:.6g} exceeds the validated radius rho = {b.rho:.6g}")

    def _exp_coords(self, xc: np.ndarray, vc: np.ndarray) -> np.ndarray:
        """The coordinates of ``exp_map`` at xc of components vc: ``xc`` itself at speed 0."""
        speed = self.norm(xc, vc)
        self._require_radius(speed, "|v|")
        return xc if speed == 0.0 else self._exp(xc, vc, speed)

    def _moved(self, x: Point, yc: np.ndarray) -> Point:
        """The point at coordinates yc found from x: x itself when yc is ``x.coords``."""
        return x if yc is x.coords else Point(self, yc)

    def exp_map(self, x: Point, v: Tangent) -> Point:
        check_same_base(v, x)
        return self._moved(x, self._exp_coords(x.coords, v.components))

    def _log_coords(self, xc: np.ndarray, yc: np.ndarray, d: float) -> np.ndarray:
        """The components of ``log_map`` at xc of yc, given d = ``_distance(xc, yc)``."""
        self._require_radius(d, "d(x, y)")
        return np.zeros(self.ambient_dim) if d == 0.0 else self._log(xc, yc, d)

    def log_map(self, x: Point, y: Point) -> Tangent:
        check_same_backend(x, y)
        return Tangent(x, self._log_coords(x.coords, y.coords, self._distance(x.coords, y.coords)))

    def parallel_transport(self, x: Point, y: Point, v: Tangent) -> Tangent:
        check_same_base(v, x)
        check_same_backend(x, y)
        d = self._distance(x.coords, y.coords)
        self._require_radius(d, "d(x, y)")
        if d == 0.0:
            return Tangent(y, v.components.copy())
        return Tangent(y, self._transport(x.coords, y.coords, v.components))

    def grad_sq_distance(self, x: Point, y: Point) -> Tangent:
        """Riemannian gradient at x of p -> d(p, y)^2, equal to -2 log_x(y)."""
        return self.log_map(x, y).scaled(-2.0)

    # -- sampling helpers (seeded, for tests and diagnostics) -------------

    def _basis_at(self, xc: np.ndarray) -> np.ndarray:
        """``tangent_basis`` at coordinates xc, memoized by their bytes: no reference cycle."""
        key = xc.tobytes()
        for known, basis in self._basis_memo:
            if known == key:
                return basis
        basis = self.tangent_basis(Point(self, xc))
        self._basis_memo = (*self._basis_memo[1 - BASIS_MEMO :], (key, basis))
        return basis

    def _random_components(self, rng: np.random.Generator, x: Point, max_norm: float):
        """The components of ``random_tangent``."""
        basis = self._basis_at(x.coords)
        u = rng.standard_normal(self.dim)
        nu = _norm(u)
        if nu == 0.0:
            u[0] = 1.0
            nu = 1.0
        # rng.random() is rng.uniform()'s 0.0 + 1.0 * u, bit for bit, without its argument checks
        r = max_norm * rng.random() ** (1.0 / self.dim)
        return (r / nu) * (u @ basis)

    def random_tangent(self, rng: np.random.Generator, x: Point, max_norm: float) -> Tangent:
        """Uniform direction, radius ~ U^(1/dim) * max_norm."""
        return Tangent(x, self._random_components(rng, x, max_norm))

    def _random_coords(self, rng: np.random.Generator, center: Point, radius: float):
        """The coordinates of ``random_point``."""
        return self._exp_coords(center.coords, self._random_components(rng, center, radius))

    def random_point(self, rng: np.random.Generator, center: Point, radius: float) -> Point:
        return self._moved(center, self._random_coords(rng, center, radius))
