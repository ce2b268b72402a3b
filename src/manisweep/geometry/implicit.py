"""Implicit submanifold backend: M = {x in R^d : g_i(x) = 0}.

Equality constraints come from the expression grammar; their gradients
and Hessians are obtained by forward-mode differentiation of the parsed
trees.  Geodesics solve the projected second-order system (acceleration
normal to the constraint surface) with a fixed-step RK4 kernel,
step-doubled and Richardson-extrapolated to fifth order, re-projecting
the point onto the constraint set and the velocity onto the tangent
space after every step.  The log map is a damped shooting iteration on
the endpoint residual; parallel transport integrates the transport
equation jointly with its geodesic.

The kernels are scalar Python source that ``expressions.emitter`` writes
from the constraint trees and their derivatives, which keeps a geodesic
integration well under a millisecond.  The fused RK4 loops ``rk4_geo``
and ``rk4_par`` write out the statements of the standalone kernels
(``acc``, ``acc_w``, ``proj_x``, ``proj_t``), so they round exactly as
stage-by-stage calls do, and each stage evaluates the Jacobian once.
Kernels run on Python floats (see ``_on_floats``).  One or two equality
constraints are supported; more are a structural error.

``native`` translates this same source to C, built once per source on the
first integration, and a native call equals the Python code it mirrors bit for
bit.  Three kinds of call run in C, each one ``ctypes`` crossing: a geodesic
end point of ``_integrate_geo`` (the RK4 pass, coarse or the fine Richardson
pair, and the restoration), a tangent basis (``jac`` and numpy's own LAPACK
``svd``) and a whole log-map cache miss of ``_log`` from the two points (the
basis, the seed, the shooting loop of ``_shoot`` and ``v = c @ basis``), which
calls numpy's own BLAS and LAPACK for its products, norms and Newton steps.  An
end point that Python floats could raise on runs again in Python (``_passes``,
``_project_point``), and so does a basis whose Jacobian raises a flag or is not
finite; a miss that does not converge in C runs again in Python from the
start, so every error is the Python one; and where no C compiler is found
everything runs in Python.  A manifold of dimension 2 or more keeps the Python
miss where the C's products of two rows and more cannot be matched to numpy's.
Transport (``rk4_par``) stays Python, as it runs too rarely for a native entry
to pay for its code; each other kernel costs less than one ``ctypes`` call.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from typing import Sequence

import numpy as np

from .. import expressions as ex
from ..errors import NumericsError, StructuralError
from .base import GeometryBudget, ManifoldBackend, Point, Region, _max_abs, _norm

#: fine-path RK4 substeps per unit arc length (doubled pass added on top)
FINE_STEPS_PER_UNIT = 16
#: coarse-path substeps per unit arc length (shooting iterations only)
COARSE_STEPS_PER_UNIT = 12
#: endpoint residual target for the shooting log map; tight enough that
#: finite differences of the squared distance with step 1e-5 stay clean
SHOOTING_TOL = 3e-11
SHOOTING_MAX_ITER = 100
#: ``proj_x`` steps of a restoration onto the manifold, and the max |g| that stops them
RESTORE_MAX_ITER = 12
RESTORE_TOL = 1e-13


def _emit_kernels(g_trees, d):
    """Emit scalar kernels specialized to the constraint trees (m <= 2).

    ``g`` and ``jac`` evaluate the constraints and their Jacobian.  Each Jacobian,
    set of curvature terms and restoration residual is one ``expressions.emitter``
    block with its own temporaries, so ``proj_x``'s early exit skips the Jacobian's.
    """
    m = len(g_trees)

    def vec(prefix):
        return [f"{prefix}{i}" for i in range(1, d + 1)]

    xs = vec("x")  # the trees' own variables
    J = [[t.diff(x) for x in xs] for t in g_trees]
    H = {(i, j, k): J[i][j].diff(xs[k]) for i in range(m) for j in range(d) for k in range(j, d)}
    # the curvature terms (i, j, k, d2g_i/dx_j dx_k) whose derivative is not the constant 0
    hess = [(i, j, k, H[i, min(j, k), max(j, k)]) for i in range(m) for j in range(d)
            for k in range(d) if H[i, min(j, k), max(j, k)] != ex.Num(0.0)]
    jacobian = [t for row in J for t in row]
    jn = [f"j_{i}_{j}" for i in range(m) for j in range(d)]
    block = ex.emitter([*g_trees, *jacobian, *H.values()])

    def jac_gram(ind, xn):
        # j_i_j = dg_i/dx_j at xn, the Gram matrix G = J J^T and (m = 2) det G
        out, text = block(ind, jacobian, zip(xs, xn))
        out += [f"{ind}{n} = {s}" for n, s in zip(jn, text)]
        for a in range(m):
            for b in range(a, m):
                s = " + ".join(f"j_{a}_{j}*j_{b}_{j}" for j in range(d))
                out.append(f"{ind}G_{a}_{b} = {s}")
        if m == 2:
            out.append(f"{ind}_det = G_0_0*G_1_1 - G_0_1*G_0_1")
        return out

    def solve(ind, rhs, lam):
        # solve G lam = rhs for symmetric positive-definite G (m <= 2)
        if m == 1:
            return [f"{ind}{lam}0 = ({rhs}0) / G_0_0"]
        return [
            f"{ind}{lam}0 = (({rhs}0)*G_1_1 - ({rhs}1)*G_0_1) / _det",
            f"{ind}{lam}1 = (({rhs}1)*G_0_0 - ({rhs}0)*G_0_1) / _det",
        ]

    def normal(ind, out, lam, update=False):
        # out_j = (J^T lam)_j, or out_j -= (J^T lam)_j
        lines = []
        for j in range(d):
            s = " + ".join(f"{lam}{i}*j_{i}_{j}" for i in range(m))
            lines.append(f"{ind}{out[j]} = {out[j]} - ({s})" if update else f"{ind}{out[j]} = {s}")
        return lines

    def curvature(ind, out, xn, left, right):
        # out = J^T lam with G lam = -left^T H(xn) right; needs J and G at xn
        lines, text = block(ind, [h for *_, h in hess], zip(xs, xn))
        for i in range(m):
            terms = [f"({s})*{left[j]}*{right[k]}" for (r, j, k, _), s in zip(hess, text) if r == i]
            lines.append(f"{ind}q_{i} = " + (" + ".join(terms) or "0.0"))
        return lines + solve(ind, "-q_", "l_") + normal(ind, out, "l_")

    def tangential(ind, ws):
        # ws -= J^T G^-1 J ws; needs J and G at the base point
        lines = [
            f"{ind}s_{i} = " + " + ".join(f"j_{i}_{j}*{ws[j]}" for j in range(d))
            for i in range(m)
        ]
        return lines + solve(ind, "s_", "r_") + normal(ind, ws, "r_", update=True)

    def restore(ind, loop):
        # Gauss-Newton restoration of feasibility: x -= J^T G^-1 g
        pre, text = block(ind + "    ", g_trees, ())
        lines = [f"{ind}for {loop} in range(4):", *pre]
        lines += [f"{ind}    gv_{i} = {s}" for i, s in enumerate(text)]
        cond = " and ".join(f"abs(gv_{i}) < 1e-14" for i in range(m))
        lines += [f"{ind}    if {cond}:", f"{ind}        break"]
        lines += jac_gram(ind + "    ", xs) + solve(ind + "    ", "gv_", "r_")
        return lines + normal(ind + "    ", xs, "r_", update=True)

    def sig(*groups):
        return ", ".join(n for g in groups for n in g)

    vs, ws = vec("v"), vec("w")
    L = []
    for name, trees in (("g", g_trees), ("jac", jacobian)):
        lines, text = block("    ", trees, ())
        L += [f"def {name}({sig(xs)}):", *lines, f"    return ({sig(text)},)", ""]
    L += [f"def acc({sig(xs, vs)}):"]  # geodesic acceleration
    L += jac_gram("    ", xs) + curvature("    ", vec("a"), xs, vs, vs)
    L += [f"    return {sig(vec('a'))}", ""]
    L += [f"def acc_w({sig(xs, vs, ws)}):"]  # transport correction w'
    L += jac_gram("    ", xs) + curvature("    ", vec("aw"), xs, vs, ws)
    L += [f"    return {sig(vec('aw'))}", ""]
    L += [f"def proj_x({sig(xs)}):"] + restore("    ", "_")
    L += [f"    return {sig(xs)}", ""]
    L += [f"def proj_t({sig(xs, ws)}):"] + jac_gram("    ", xs) + tangential("    ", ws)
    L += [f"    return {sig(ws)}", ""]

    # RK4 over s in [0, 1] with per-step projection and speed renorm
    def rk4(name, with_w):
        parts = ["x", "v", "w"] if with_w else ["x", "v"]
        state = [vec(p) for p in parts]
        ind = "        "
        out = [
            f"def {name}(state, n, h):",
            f"    {sig(*state)} = state",
            f"    spd = sqrt({' + '.join(f'{v}*{v}' for v in vs)})",
            "    hh = 0.5*h",
            "    h6 = h/6.0",
        ]
        # J and G at the current x enter each step's first stage
        out += jac_gram("    ", xs)
        out.append("    for _ in range(n):")
        k = {p: [] for p in parts}  # stage slopes of each component
        for stage, c in ((1, None), (2, "hh"), (3, "hh"), (4, "h")):
            sx, sv, sw = xs, vs, ws
            if c is not None:
                sx, sv, sw = vec(f"_x{stage}_"), vec(f"_v{stage}_"), vec(f"_w{stage}_")
                for p, names in zip(parts, (sx, sv, sw)):
                    out += [f"{ind}{n} = {b} + {c}*{s}" for n, b, s in zip(names, vec(p), k[p][-1])]
                out += jac_gram(ind, sx)
            k["x"].append(sv)
            k["v"].append(vec(f"k{stage}v"))
            out += curvature(ind, k["v"][-1], sx, sv, sv)
            if with_w:
                k["w"].append(vec(f"k{stage}w"))
                out += curvature(ind, k["w"][-1], sx, sv, sw)
        for p in parts:
            out += [
                f"{ind}{b} = {b} + h6*({k1} + 2.0*{k2} + 2.0*{k3} + {k4})"
                for b, k1, k2, k3, k4 in zip(vec(p), *k[p])
            ]
        out += restore(ind, "_it") + jac_gram(ind, xs) + tangential(ind, vs)
        out.append(f"{ind}_s = sqrt({' + '.join(f'{v}*{v}' for v in vs)})")
        out += [f"{ind}if _s > 0.0:", f"{ind}    _c = spd/_s"]
        out += [f"{ind}    {v} = {v}*_c" for v in vs]
        if with_w:
            out += tangential(ind, ws)
        return out + [f"    return ({sig(*state)})", ""]

    L += rk4("rk4_geo", False) + rk4("rk4_par", True)
    return "\n".join(L)


class ImplicitBackend(ManifoldBackend):
    """Level-set manifold in R^d defined by expression-grammar equalities."""

    feasibility_tol = 1e-8

    def __init__(self, dim: int, equalities: Sequence[str]):
        """``dim`` is the ambient dimension d, ``equalities`` the g_i."""
        if dim < 2:
            raise StructuralError("ambient dimension must be >= 2")
        exprs = tuple(str(s) for s in equalities)
        m = len(exprs)
        if m < 1:
            raise StructuralError("at least one equality constraint required")
        if m >= dim:
            raise StructuralError("constraints leave no tangent direction")
        if m > 2:
            raise StructuralError(
                "more than two equality constraints are not supported by the "
                "generated kernels"
            )
        self.ambient_dim = dim
        self.dim = dim - m
        self.n_constraints = m
        self.key = ("implicit", dim, exprs)

        names = [f"x{i}" for i in range(1, dim + 1)]
        self._g_trees = [ex.parse(s, allowed_vars=names) for s in exprs]
        self._kernel_src = _emit_kernels(self._g_trees, dim)
        ns = ex.run_emitted(self._kernel_src)
        self._g_fn, self._jac_fn = ns["g"], ns["jac"]
        self._k_acc = ns["acc"]
        self._k_proj_x = ns["proj_x"]
        self._k_proj_t = ns["proj_t"]
        self._k_rk4_geo = ns["rk4_geo"]
        self._k_rk4_par = ns["rk4_par"]

        self._log_cache: OrderedDict = OrderedDict()
        self._budget_cache: dict = {}

    # -- constraint helpers -------------------------------------------------

    def constraint_jacobian(self, coords) -> np.ndarray:
        flat = np.array(self._jac_fn(*coords))
        return flat.reshape(self.n_constraints, self.ambient_dim)

    def feasibility_residual(self, coords):
        return _max_abs(self._g_fn(*coords))

    def _project_point(self, amb):
        x = tuple(map(float, amb))
        try:
            for _ in range(RESTORE_MAX_ITER):
                x = self._k_proj_x(*x)
                resid = self.feasibility_residual(x)
                if resid < RESTORE_TOL:
                    break
        except (ZeroDivisionError, OverflowError) as err:
            raise NumericsError(
                f"restoration onto the manifold broke down ({err}); the constraint "
                "gradient vanishes or overflows on the way",
                best=np.array(x),
            ) from err
        if not resid <= self.feasibility_tol:  # a NaN residual fails too
            raise NumericsError(
                "could not restore feasibility from the given ambient point",
                residual=resid,
                best=np.array(x),
            )
        return np.array(x)

    def _project_tangent(self, xc, amb):
        state = (*np.asarray(xc, dtype=float).tolist(), *np.asarray(amb, dtype=float).tolist())
        return np.array(_on_floats(lambda s: self._k_proj_t(*s), state))

    def tangent_basis(self, x: Point):
        # the native basis once an integration has built it; never built here, so
        # loading a scenario compiles nothing
        native = vars(self).get("_native")
        basis = None if native is None else native.basis(x.coords)
        if basis is None:
            J = self.constraint_jacobian(x.coords)
            basis = np.linalg.svd(J, full_matrices=True)[2][self.n_constraints :]
        return basis

    # -- integration --------------------------------------------------------

    @functools.cached_property
    def _native(self):
        """The native kernels (``native.Kernels``), built or loaded on the first
        integration, not at construction; None where only Python runs."""
        from . import native  # imported on first use: a run that never integrates skips it

        return native.load(self._kernel_src)

    def _integrate_geo(self, xc, vc, speed, fine: bool):
        """The geodesic end point from xc at velocity vc of norm ``speed``: one
        native ``point_end`` call where it runs cleanly, else ``_passes`` of
        ``rk4_geo`` and ``_project_point``'s ``proj_x``, on one float tuple."""
        if speed == 0.0:
            return np.array(xc)
        state = (*xc.tolist(), *vc.tolist())
        out = None if self._native is None else self._native.point(state, speed, fine)
        if out is not None:
            return np.array(out)
        out = _passes(self._k_rk4_geo, state, speed, fine)
        return self._project_point(out[: self.ambient_dim])

    def _exp(self, xc, vc, speed):
        return self._integrate_geo(xc, vc, speed, fine=True)

    def _log(self, xc, yc, d=None):  # shooting finds the distance: d is not read
        key = (xc.tobytes(), yc.tobytes())
        hit = self._log_cache.get(key)
        if hit is not None:
            return hit.copy()
        v = None if self._native is None else self._native.log(xc, yc)
        if v is None:  # a native miss that does not converge hands back: this one raises
            basis = self._basis_at(xc)
            c = basis @ (yc - xc)  # seed: ambient chord projected onto T_x
            v = self._shoot(xc, yc, basis, c, 1.0 + _norm(yc)) @ basis
        if len(self._log_cache) >= 8192:
            self._log_cache.popitem(last=False)
        self._log_cache[key] = v.copy()
        return v

    def _shoot(self, xc, yc, basis, c, scale):
        """The components c, in ``basis``, of the log map of yc at xc: a damped Newton
        iteration on the end point residual from the seed ``c``, on a frozen
        finite-difference Jacobian; the Python twin of the native ``log_map``."""

        def resid(cvec, fine):
            vc = cvec @ basis
            return self._integrate_geo(xc, vc, _norm(vc), fine) - yc

        r = resid(c, fine=False)
        rn = _norm(r)  # kept equal to _norm(r) wherever r changes
        jac = None
        fine = False
        best = (rn, c.copy())
        for _ in range(SHOOTING_MAX_ITER):
            if rn < best[0]:
                best = (rn, c.copy())
            if fine and rn <= SHOOTING_TOL * scale:
                break
            if not fine and rn <= 1e-8 * scale:
                # switch to the extrapolated integrator; the frozen coarse
                # Jacobian is still an adequate Newton model
                fine = True
                r = resid(c, fine=True)
                rn = _norm(r)
                continue
            if jac is None:
                jac = np.empty((self.ambient_dim, self.dim))
                eps = 1e-6 * max(1.0, _norm(c))
                for j in range(self.dim):
                    cp = c.copy()
                    cp[j] += eps
                    jac[:, j] = (resid(cp, fine=fine) - r) / eps
            step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
            damp = 1.0
            for _ in range(8):
                cand = c + damp * step
                r_cand = resid(cand, fine=fine)
                rn_cand = _norm(r_cand)
                if rn_cand < rn:
                    c, r, rn = cand, r_cand, rn_cand
                    break
                damp *= 0.5
            else:
                jac = None  # refresh the frozen Jacobian and retry
                if not fine:
                    fine = True
                    r = resid(c, fine=True)
                    rn = _norm(r)
                else:
                    break
        else:
            raise NumericsError(
                "shooting iteration for the log map did not converge",
                residual=best[0],
                best=best[1] @ basis,
            )
        if rn > SHOOTING_TOL * scale * 10.0:
            raise NumericsError(
                "shooting iteration for the log map did not converge",
                residual=rn,
                best=c @ basis,
            )
        return c

    def _distance(self, xc, yc):
        if xc.tolist() == yc.tolist():  # np.array_equal: -0.0 == 0.0, nan != nan
            return 0.0
        return _norm(self._log(xc, yc))

    def _transport(self, xc, yc, vc):
        gamma = self._log(xc, yc)
        speed = _norm(gamma)
        w_norm = _norm(vc)
        if speed == 0.0 or w_norm == 0.0:
            return self._project_tangent(yc, vc)
        state = (*xc.tolist(), *gamma.tolist(), *vc.tolist())
        out = _passes(self._k_rk4_par, state, speed, fine=True)
        d = self.ambient_dim
        w = self._project_tangent(yc, out[2 * d :])
        nw = _norm(w)
        if nw > 0:
            w = w * (w_norm / nw)  # transport is an isometry; remove drift
        return w

    # -- budget --------------------------------------------------------------

    def budget(self, region: Region | None = None) -> GeometryBudget:
        ck = None if region is None else (region.center.coords.tobytes(), float(region.radius))
        hit = self._budget_cache.get(ck)
        if hit is not None:
            return hit
        if region is None:
            center, radius = self._default_point(), 1.0
        else:
            center, radius = region.center.coords, float(region.radius)
        kappa = self._sample_extrinsic_curvature(center, radius)
        rho = math.pi / (2.0 * math.sqrt(kappa)) if kappa > 0 else 1e6
        b = GeometryBudget(rho=rho, curvature_bound=kappa, is_estimate=True)
        self._budget_cache[ck] = b
        return b

    def _default_point(self):
        rng = np.random.default_rng(0)
        for _ in range(64):
            seed = rng.standard_normal(self.ambient_dim)
            try:
                return self._project_point(seed)
            except NumericsError:
                continue
        raise StructuralError("could not locate any point on the implicit manifold")

    def _sample_extrinsic_curvature(self, center, radius):
        """Max |second fundamental form(u, u)| over sampled points and unit u."""
        rng = np.random.default_rng(12345)
        worst = 0.0
        pt = np.asarray(center, dtype=float)
        for k in range(64):
            if k > 0:
                try:
                    amb = pt + radius * rng.standard_normal(self.ambient_dim)
                    p = self._project_point(amb)
                except NumericsError:
                    continue
            else:
                p = self._project_point(pt)
            basis = self.tangent_basis(Point(self, p))
            u = rng.standard_normal(self.dim)
            u = u / _norm(u)
            vec = u @ basis
            a = np.array(_on_floats(lambda s: self._k_acc(*s), (*p.tolist(), *vec.tolist())))
            worst = max(worst, _norm(a))
        return worst


def _passes(kernel, state, speed, fine):
    """``kernel``'s end state over s in [0, 1] at ``speed``, on floats: ``n`` RK4 steps
    of ``1/n``, ``n`` the steps per unit times the speed rounded up, at least 6; when
    ``fine``, at least 8, and also ``2n`` steps of ``0.5/n`` and their Richardson
    combine.  The native ``point_end`` mirrors this step rule."""
    if fine:
        n = max(8, math.ceil(speed * FINE_STEPS_PER_UNIT))
    else:
        n = max(6, math.ceil(speed * COARSE_STEPS_PER_UNIT))
    a = _on_floats(kernel, state, n, 1.0 / n)
    if not fine:
        return a
    b = _on_floats(kernel, state, 2 * n, 0.5 / n)
    return tuple((16.0 * y - x) / 15.0 for x, y in zip(a, b))


def _on_floats(kernel, state, *args):
    """``kernel(state, *args)`` as a tuple of floats, ``state`` a tuple of floats.

    Floats round exactly as numpy's float64 scalars do and run several
    times faster.  Where floats raise or turn complex instead (a division
    by zero, an overflowing or complex power), the call is repeated on
    numpy scalars, whose inf and nan results the callers already handle.
    A constant of the source still divides as a float: a gradient that is
    identically zero raises ``NumericsError`` there.
    """
    try:
        return tuple(map(float, kernel(state, *args)))
    except (ZeroDivisionError, OverflowError, TypeError):
        try:
            return tuple(map(float, kernel(tuple(map(np.float64, state)), *args)))
        except (ZeroDivisionError, OverflowError) as err:
            raise NumericsError(
                f"a kernel broke down ({err}); the constraint gradient vanishes or overflows"
            ) from err
