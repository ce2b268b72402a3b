"""Time-indexed constraint sets C(t) on a manifold.

A moving set is described by scalar inequality constraints
g_i(t, x) >= 0 whose ambient gradients are available; membership,
distance-to-set, metric projection and proximal-normal-cone generators
are derived from them.  A catalog of analytic sets (half-line,
half-space, geodesic ball, ball complement, spherical cap) additionally
carries closed-form projections which anchor the tests; the generic
solver — Riemannian projected gradient on c -> d(y, c)^2 with damped
feasibility restoration and Armijo backtracking — covers everything
else and powers multi-start uniqueness probes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import expressions as ex
from .errors import DomainError, NumericsError, StructuralError
from .geometry import ManifoldBackend, Point, Tangent
from .geometry.base import _max_abs, _norm

#: annotation of a builder field that holds one ambient-space vector; a
#: scenario checks its length against the manifold's ambient dimension
Vector = Sequence[float]

#: |g_i| below this marks the constraint active
ACTIVITY_TOL = 1e-7
#: gradients smaller than this violate the qualification assumption
QUALIFICATION_TOL = 1e-8


@dataclass(frozen=True)
class Tolerances:
    """The scenario's ``tolerances`` block, read by the solvers it names.

    ``feasibility`` is the constraint slack of membership tests,
    ``projector_step`` and ``projector_kkt`` stop the iterative projector,
    ``uniqueness`` is the multi-start agreement distance of the projection
    uniqueness probe, and ``velocity_margin`` is the slack on the discrete
    velocity bound 2||f|| + K_L.
    """

    feasibility: float
    projector_step: float = 1e-10
    projector_kkt: float = 1e-9
    uniqueness: float = 1e-6
    velocity_margin: float = 1e-6

    def to_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class ProjectionResult:
    """A projection of a query onto C(t).

    ``values`` are the constraint values at ``point``, in the constraints'
    order, when the iterative projector found it: the values it evaluated
    at its last iterate.  A member query and the closed-form projectors
    leave it None.
    """

    point: Point
    dist: float
    iterations: int
    converged: bool
    warning: Optional[str] = None
    values: Optional[list] = None


@dataclass
class Constraint:
    """One scalar inequality g(t, x) >= 0 with its ambient spatial gradient."""

    value: Callable[[float, np.ndarray], float]
    ambient_gradient: Callable[[float, np.ndarray], np.ndarray]
    label: str = ""


class MovingSet:
    """Constraint set C(t) = {x : g_i(t, x) >= 0 for all i} on one backend."""

    def __init__(
        self,
        backend: ManifoldBackend,
        constraints: Sequence[Constraint],
        *,
        lipschitz_const: float = 0.0,
        prox_radius_hint: float = 1.0,
        closed_project: Optional[Callable[[float, np.ndarray], tuple]] = None,
        tolerances: Optional[Tolerances] = None,
    ):
        if lipschitz_const < 0:
            raise StructuralError("lipschitz_const must be nonnegative")
        if not prox_radius_hint > 0:
            raise StructuralError("prox_radius_hint must be positive")
        self.backend = backend
        self.constraints = list(constraints)
        self.lipschitz_const = float(lipschitz_const)
        self.prox_radius_hint = float(prox_radius_hint)
        self.closed_project = closed_project
        self.tolerances = tolerances or Tolerances(feasibility=backend.feasibility_tol)

    # -- pointwise queries -------------------------------------------------

    def constraint_values(self, t: float, x: Point) -> np.ndarray:
        return np.array([c.value(t, x.coords) for c in self.constraints])

    # membership and activity read each value as a float: on a few
    # constraints, numpy's per-call dispatch costs more than the test
    def _holds(self, values) -> bool:
        feasibility = -self.tolerances.feasibility
        for v in values:  # a loop: all() over a generator costs five times more
            if not v >= feasibility:  # a NaN fails
                return False
        return True

    @staticmethod
    def _active(values) -> tuple:
        return tuple([i for i, v in enumerate(values) if abs(v) <= ACTIVITY_TOL])

    def _contains(self, t: float, xc) -> bool:
        """``member`` at coordinates xc, ``_holds`` written out for the samplers' inner loops."""
        for c in self.constraints:
            if not c.value(t, xc) >= -self.tolerances.feasibility:  # a NaN fails
                return False
        return True

    def member(self, t: float, x: Point) -> bool:
        return self._contains(t, x.coords)

    def active_set(self, t: float, x: Point) -> tuple:
        return self._active([c.value(t, x.coords) for c in self.constraints])

    def active_set_and_distance(self, t: float, x: Point, values=None) -> tuple:
        """``(active_set(t, x), dist_to_set(t, x))`` from the constraints' ``values`` at (t, x)."""
        if values is None:
            values = [c.value(t, x.coords) for c in self.constraints]
        dist = 0.0 if self._holds(values) else self.project(t, x, values=values).dist
        return self._active(values), dist

    def _gradient_coords(self, t, xc, i):
        """The components of ``constraint_gradient`` at coordinates xc."""
        return self.backend._project_tangent(xc, self.constraints[i].ambient_gradient(t, xc))

    def constraint_gradient(self, t: float, x: Point, i: int) -> Tangent:
        """Riemannian gradient of g_i at x (ambient gradient projected to T_x)."""
        return Tangent(x, self._gradient_coords(t, x.coords, i))

    def proximal_normal_generators(self, t: float, x: Point) -> list:
        """Generators {-grad g_i : i active}; empty in the interior."""
        if not self.member(t, x):
            raise StructuralError("normal-cone generators are defined for members only")
        gens = []
        for i in self.active_set(t, x):
            g = self.constraint_gradient(t, x, i)
            if g.norm() < QUALIFICATION_TOL:
                raise NumericsError(
                    f"degenerate active gradient for constraint {i}; "
                    "the qualification assumption fails at this point"
                )
            gens.append(g.scaled(-1.0))
        return gens

    # -- projection ----------------------------------------------------------

    def project(
        self,
        t: float,
        y: Point,
        *,
        method: str = "auto",
        initial: Optional[Point] = None,
        max_iter: int = 500,
        values: Optional[Sequence[float]] = None,
    ) -> ProjectionResult:
        """The metric projection of y onto C(t); y itself when it is a member.

        ``values``, when given, must be the caller's constraint values at
        (t, y), in the constraints' order.  They decide membership in place
        of ``member``, and the iterative projector starts its restoration
        from them when ``initial`` is None, so no constraint is evaluated at
        y again.
        """
        if method not in ("auto", "iterative"):
            raise StructuralError(f"unknown projection method {method!r}")
        if self.member(t, y) if values is None else self._holds(values):
            return ProjectionResult(y, 0.0, 0, True)
        if method == "auto" and self.closed_project is not None:
            coords, warning = self.closed_project(t, y.coords)
            point = self.backend.point(coords)
            d = self.backend._distance(y.coords, point.coords)
            return ProjectionResult(point, d, 0, True, warning or self._radius_warning(d))
        return self._project_iterative(t, y, initial, max_iter, values)

    def dist_to_set(self, t: float, y: Point) -> float:
        return self.project(t, y).dist

    @property
    def working_radius(self) -> float:
        """Half the prox-radius hint: the distance within which projections are trusted."""
        return 0.5 * self.prox_radius_hint

    @property
    def probe_radius(self) -> float:
        """The prox-radius hint capped at 0.9 rho: the farthest distance the probes test."""
        return min(self.prox_radius_hint, 0.9 * self.backend.budget().rho)

    def _radius_warning(self, d: float) -> Optional[str]:
        working = self.working_radius
        if d > working:
            return (
                f"query at distance {d:.3g} exceeds the working radius "
                f"{working:.3g} implied by the prox-regularity hint; the result "
                "may be one of several local projections"
            )
        return None

    def _project_iterative(self, t, y, initial, max_iter, values):
        backend, tol, yc = self.backend, self.tolerances, y.coords
        rho = backend.budget().rho
        start = initial if initial is not None else y
        # vals: the constraint values at the iterate c; the caller's values are y's
        c, vals = self._restore(t, start.coords, values if start is y else None)
        d = backend._distance(c, yc)  # on coordinates; the line search finds d for the next c
        iterations = 0
        for iterations in range(1, max_iter + 1):
            try:
                grad = -2.0 * backend._log_coords(c, yc, d)  # of c -> d(c, y)^2
            except DomainError:
                raise NumericsError(
                    "projection iterate left the validated region around the query",
                    best=backend._moved(start, c),
                )
            if self._kkt_residual(t, c, grad, vals) <= tol.projector_kkt:
                break
            descent = -1.0 * grad
            fc = d**2
            alpha = min(0.5, 0.45 * rho / backend.norm(c, descent))
            for _ in range(40):
                cand, cand_vals = self._restore(t, backend._exp_coords(c, alpha * descent))
                d_cand = backend._distance(cand, yc)
                # sufficient decrease against the achieved projected step:
                # restoration may cancel most of the raw gradient near the
                # boundary, so the raw norm would stall the search
                achieved = backend._distance(c, cand)
                if d_cand**2 <= fc - 1e-4 * achieved * achieved / max(alpha, 1e-300):
                    break
                alpha *= 0.5
            else:
                break  # no feasible descent: stationary within line-search resolution
            c, d, vals = cand, d_cand, cand_vals
            if achieved <= tol.projector_step:
                break
        else:
            dist = backend._distance(yc, c)
            raise NumericsError(
                f"projection did not converge in {max_iter} iterations",
                residual=self._kkt_residual(t, c, -2.0 * backend._log_coords(c, yc, d), vals),
                best=ProjectionResult(backend._moved(start, c), dist, max_iter, False),
            )
        dist, point = backend._distance(yc, c), backend._moved(start, c)
        return ProjectionResult(point, dist, iterations, True, self._radius_warning(dist), vals)

    def _kkt_residual(self, t, c, grad, vals):
        """min over nonnegative multipliers of |grad F - sum mu_i grad g_i|, at coordinates c.

        By Caratheodory the minimum is attained on a linearly independent
        support of at most ``dim`` active gradients, where the multipliers
        solve that support's Gram system; supports whose multipliers are
        all nonnegative are feasible, and the smallest residual among them
        is the nonnegative least-squares optimum.  ``vals`` are the
        constraint values at (t, c), which give the active set.
        """
        gens = [self._gradient_coords(t, c, i) for i in self._active(vals)]
        best = self.backend.norm(c, grad)
        for k in range(1, min(len(gens), self.backend.dim) + 1):
            for support in itertools.combinations(gens, k):
                gram = [[self.backend.inner(c, a, b) for b in support] for a in support]
                try:
                    mu = _solve(gram, [self.backend.inner(c, a, grad) for a in support])
                except np.linalg.LinAlgError:
                    continue  # dependent gradients: a smaller support covers them
                if all(m >= 0.0 for m in mu):
                    r = grad
                    for m, g in zip(mu, support):
                        r = r - float(m) * g
                    best = min(best, self.backend.norm(c, r))
        return best

    def restore_feasibility(self, t: float, x: Point) -> Point:
        """Damped descent on the squared constraint violation.

        The damped Newton steps can overshoot into the interior by
        O(step^2); constraints that were actually violated on the way are
        polished back onto their boundary so the projector's alternating
        iteration has a clean fixed point.
        """
        return self.backend._moved(x, self._restore(t, x.coords)[0])

    def _restore(self, t, c, vals=None):
        """``restore_feasibility`` on coordinates: the line search builds no point.

        ``vals`` are the constraint values at (t, c) when the caller has
        them.  Returns the restored coordinates and the constraint values
        there; each accepted candidate's values carry into the next round.
        """
        backend = self.backend
        rho = backend.budget().rho
        touched: set = set()
        if vals is None:
            vals = [k.value(t, c) for k in self.constraints]
        for _ in range(60):
            viol = [i for i, v in enumerate(vals) if v < -0.1 * self.tolerances.feasibility]
            if not viol:
                break
            touched.update(viol)
            merit = _violation(vals)
            direction = None
            for i in viol:
                g = self._gradient_coords(t, c, i)
                gn2 = backend.norm(c, g) ** 2
                if gn2 < QUALIFICATION_TOL**2:
                    raise NumericsError(
                        f"degenerate gradient while restoring constraint {i}"
                    )
                part = (-vals[i] / gn2) * g
                direction = part if direction is None else direction + part
            alpha = min(1.0, 0.45 * rho / max(backend.norm(c, direction), 1e-300))
            for _ in range(40):
                cand = backend._exp_coords(c, alpha * direction)
                cand_vals = [k.value(t, cand) for k in self.constraints]
                if _violation(cand_vals) < merit * (1.0 - 1e-4 * alpha):
                    c, vals = cand, cand_vals
                    break
                alpha *= 0.5
            else:
                break
        if not self._holds(vals):
            raise NumericsError(
                "could not restore feasibility; the set may be empty near this point",
                residual=float(-np.min(vals)),
                best=Point(backend, c),
            )
        if touched:
            return self._polish_onto_boundary(t, c, vals, sorted(touched))
        return c, vals

    def _polish_onto_boundary(self, t, c, vals, indices):
        """Newton steps driving g_i(t, c) to zero for the given constraints, on coordinates.

        ``vals`` are all constraint values at (t, c), a member.  Intermediate
        iterates may dip microscopically onto the infeasible side; the last
        iterate that is still a member is returned with its constraint values.
        """
        backend = self.backend
        best = c, vals
        sub = [vals[i] for i in indices]
        for _ in range(6):
            worst = _max_abs(sub)
            if worst <= 1e-12:
                break
            grads = [self._gradient_coords(t, c, i) for i in indices]
            gram = [[backend.inner(c, a, b) for b in grads] for a in grads]
            try:
                lam = _solve(gram, sub)
            except np.linalg.LinAlgError:
                break
            step = -float(lam[0]) * grads[0]
            for l, g in zip(lam[1:], grads[1:]):
                step = step + -float(l) * g
            cand = backend._exp_coords(c, step)
            cand_sub = [self.constraints[i].value(t, cand) for i in indices]
            if _max_abs(cand_sub) >= worst:
                break
            c, sub = cand, cand_sub
            member_vals = self._member_values(t, c, dict(zip(indices, sub)))
            if member_vals is not None:
                best = c, member_vals
        return best

    def _member_values(self, t, c, known):
        """All constraint values at (t, c) if c is a member, else None.

        ``known`` maps constraint indices to values already evaluated at
        (t, c).  The constraints are walked in order and the walk stops at
        the first failure, as ``_contains`` does.
        """
        feasibility = -self.tolerances.feasibility
        vals = []
        for i, k in enumerate(self.constraints):
            v = known[i] if i in known else k.value(t, c)
            if not v >= feasibility:  # a NaN fails
                return None
            vals.append(v)
        return vals


def _solve(gram, rhs):
    """``np.linalg.solve(gram, rhs)``; a 1x1 system is one division, bit for bit the same.

    LAPACK's solve divides a single right-hand side by a single pivot, and
    raises ``LinAlgError`` only for an exactly zero one; a NaN pivot gives NaN.
    """
    if len(rhs) == 1:
        pivot = gram[0][0]
        if pivot == 0.0:
            raise np.linalg.LinAlgError("Singular matrix")
        return (float(rhs[0]) / pivot,)
    return np.linalg.solve(gram, rhs)


def _violation(values) -> float:
    """``float(np.sum(np.minimum(values, 0.0) ** 2))``: numpy adds fewer than 8 left to right."""
    if len(values) >= 8:
        return float(np.sum(np.minimum(values, 0.0) ** 2))
    total = 0.0
    for v in values:
        total += min(v, 0.0) * min(v, 0.0)
    return total


# -- catalog ----------------------------------------------------------------


def _rotation(vec, axis):
    """``angle -> vec`` rotated by ``angle`` about ``axis``, which must be nonzero; the
    unit axis, its dot with ``vec`` and the cross product are taken once."""
    axis = np.asarray(axis, dtype=float)
    n = _norm(axis)
    if n == 0:
        raise StructuralError("rotation axis must be nonzero")
    k = axis / n
    kd = float(k.dot(vec))  # numpy's dot
    (k0, k1, k2), (v0, v1, v2) = k.tolist(), vec.tolist()
    x0, x1, x2 = k1 * v2 - k2 * v1, k2 * v0 - k0 * v2, k0 * v1 - k1 * v0
    p0, p1, p2 = k0 * kd, k1 * kd, k2 * kd

    def rotate(angle):
        # vec cos + (k x vec) sin + k <k, vec> (1 - cos) on floats, each operation
        # rounded as numpy's elementwise one
        c, s = math.cos(angle), math.sin(angle)
        return np.array([v0 * c + x0 * s + p0 * (1.0 - c),
                         v1 * c + x1 * s + p1 * (1.0 - c),
                         v2 * c + x2 * s + p2 * (1.0 - c)])

    return rotate


def halfline(backend, offset: float = 0.0, speed: float = 0.0, **kw):
    """C(t) = {x >= offset + speed*t} on the Euclidean line."""
    if backend.key[0] != "euclidean" or backend.dim != 1:
        raise StructuralError("halfline requires the 1-d Euclidean backend")

    def bound(t):
        return offset + speed * t

    con = Constraint(
        value=lambda t, x: float(x[0] - bound(t)),
        ambient_gradient=lambda t, x: np.array([1.0]),
        label="x1 >= moving bound",
    )

    def proj(t, yc):
        return [max(yc[0], bound(t))], None

    kw.setdefault("lipschitz_const", abs(speed))
    return MovingSet(backend, [con], closed_project=proj, **kw)


def _geodesic_ball(backend, center, radius, sign, velocity=None, **kw):
    """{sign (r - d(x, c(t))) >= 0}: the closed geodesic ball for sign +1, the
    complement of the open one for sign -1.  Negating r - d, or a gradient
    before its division by d, is exact: the two signs give bitwise negatives."""
    noun, side = ("ball", "inside") if sign > 0 else ("complement", "outside")
    c0 = np.asarray(center, dtype=float)
    vel = None if velocity is None else np.asarray(velocity, dtype=float)
    last = [None, backend.point(c0) if vel is None else None]  # the last t and c(t)

    def center_at(t):
        # t = 0 is not memoized: -0.0 == 0.0, yet they may round differently
        if vel is not None and (t != last[0] or t == 0.0):
            last[:] = t, backend.point(c0 + t * vel)
        return last[1]

    def value(t, xc):
        return sign * (radius - backend._distance(xc, center_at(t).coords))

    def amb_grad(t, xc):
        c = center_at(t)
        d = backend._distance(xc, c.coords)
        if d < 1e-14:
            raise NumericsError(f"{noun} constraint gradient undefined at the center")
        return sign * backend._log_coords(xc, c.coords, d) / d

    # the closed form exp_c(r log_c(y) / |log_c(y)|), on coordinates
    def proj(t, yc):
        c = center_at(t)
        d = backend._distance(c.coords, yc)
        if sign < 0 and d < 1e-14:  # a ball's queries lie outside it
            # every boundary point is equidistant; pick one deterministically
            v = backend.tangent_basis(c)[0] * radius
            return backend._exp_coords(c.coords, v), "projection is multivalued at the ball center"
        gam = backend._log_coords(c.coords, yc, d)
        return backend._exp_coords(c.coords, (radius / backend.norm(c, gam)) * gam), None

    con = Constraint(value, amb_grad, f"{side} geodesic ball")
    return MovingSet(backend, [con], closed_project=proj, **kw)


def ball(backend, center: Vector, radius: float, velocity: Optional[Vector] = None, **kw):
    """Geodesic ball {d(x, c(t)) <= r}; a moving center is Euclidean-only."""
    if velocity is not None and backend.key[0] != "euclidean":
        raise StructuralError("moving ball centers are supported on the Euclidean backend")
    kw.setdefault("lipschitz_const", 0.0 if velocity is None else float(np.linalg.norm(velocity)))
    return _geodesic_ball(backend, center, radius, 1.0, velocity, **kw)


def ball_complement(backend, center: Vector, radius: float, **kw):
    """Complement of an open geodesic ball: {d(x, c) >= r}."""
    return _geodesic_ball(backend, center, radius, -1.0, **kw)


def half_space(backend, normal: Vector, offset: float = 0.0, speed: float = 0.0, **kw):
    """Euclidean half-space {<a, x> >= offset + speed*t}."""
    if backend.key[0] != "euclidean":
        raise StructuralError("half_space requires a Euclidean backend")
    a = np.asarray(normal, dtype=float)
    na2 = float(np.dot(a, a))
    if na2 == 0:
        raise StructuralError("half-space normal must be nonzero")

    def bound(t):
        return offset + speed * t

    def proj(t, yc):
        gap = bound(t) - float(a.dot(yc))
        return yc + (gap / na2) * a, None

    kw.setdefault("lipschitz_const", abs(speed) / math.sqrt(na2))
    con = Constraint(
        lambda t, x: float(a.dot(x) - bound(t)), lambda t, x: a.copy(), "half-space"
    )
    return MovingSet(backend, [con], closed_project=proj, **kw)


def sphere_cap(
    backend,
    axis: Vector,
    height: float = 0.0,
    omega: float = 0.0,
    rotation_axis: Vector = (0.0, 1.0, 0.0),
    **kw,
):
    """Cap {<x, a(t)> >= height} on S^2 with the axis rotating at rate omega.

    a(t) is axis rotated by omega*t about rotation_axis; the default
    rotation of the pole (0,0,1) about the y-axis gives
    a(t) = (sin(omega t), 0, cos(omega t)).
    """
    if backend.key[0] != "sphere":
        raise StructuralError("sphere_cap requires the sphere backend")
    if not -1.0 < height < 1.0:
        raise StructuralError("cap height must lie in (-1, 1)")
    if omega != 0.0 and backend.dim != 2:
        raise StructuralError("a rotating cap requires the 2-sphere")
    axis0 = np.asarray(axis, dtype=float)
    if not axis0.any():
        raise StructuralError("cap axis must be nonzero")
    axis0 = axis0 / np.linalg.norm(axis0)
    axis0.setflags(write=False)
    rotate = _rotation(axis0, rotation_axis) if omega != 0.0 else None
    last = [None, None]  # one-entry memo: the last t and a(t)

    def axis_at(t):
        if omega == 0.0:
            return axis0
        # t = 0 is not memoized: -0.0 == 0.0, yet they may round differently
        if t != last[0] or t == 0.0:
            a = rotate(omega * t)
            a.setflags(write=False)
            last[:] = t, a
        return last[1]

    sin_cap = math.sqrt(1.0 - height * height)

    def proj(t, yc):
        a = axis_at(t)
        s = float(yc.dot(a))
        perp = yc - s * a
        n = _norm(perp)
        if n < 1e-12:
            w = backend.tangent_basis(backend.point(a))[0]
            return height * a + sin_cap * w, "projection is multivalued at the cap antipode"
        return height * a + sin_cap * (perp / n), None

    kw.setdefault("lipschitz_const", abs(omega))
    con = Constraint(
        lambda t, x: float(x.dot(axis_at(t)) - height), lambda t, x: axis_at(t).copy(),
        "spherical cap",
    )
    return MovingSet(backend, [con], closed_project=proj, **kw)


def inequalities(backend, exprs: Sequence[str], **kw):
    """General inequality set from expression strings over x1..xn and t."""
    n = backend.ambient_dim
    names = [f"x{i}" for i in range(1, n + 1)]
    allowed = set(names) | {"t"}
    cons = []
    for s in exprs:
        tree = ex.parse(s, allowed_vars=allowed)
        fn = ex.compile_tree(tree, ["t"] + names)
        grad = ex.compile_many([tree.diff(v) for v in names], ["t"] + names)

        # a field with no real value where a run takes it is a numerical error
        def value(t, xc, fn=fn, s=s):
            try:
                v = fn(t, *xc)
                if isinstance(v, complex):  # numpy's complex128 is one too
                    raise ValueError("complex value")
            except ex.FIELD_ERRORS as err:
                raise NumericsError(f"constraint {s!r} failed at t = {t:.6g}: {err}") from err
            return float(v)

        def amb_grad(t, xc, grad=grad, s=s):
            try:
                g = np.array(grad(t, *xc))
                if g.dtype.kind == "c":
                    raise ValueError("complex value")
            except ex.FIELD_ERRORS as err:
                raise NumericsError(
                    f"gradient of constraint {s!r} failed at t = {t:.6g}: {err}"
                ) from err
            return g

        cons.append(Constraint(value, amb_grad, s))
    return MovingSet(backend, cons, **kw)


CATALOG = {
    "halfline": halfline,
    "ball": ball,
    "ball_complement": ball_complement,
    "half_space": half_space,
    "sphere_cap": sphere_cap,
    "inequalities": inequalities,
}
