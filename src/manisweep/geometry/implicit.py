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

The kernels are generated as scalar Python source specialized to the
constraint trees, which keeps a geodesic integration well under a
millisecond.  Only one or two equality constraints are supported; more
are rejected with a structural error.
"""

from __future__ import annotations

import math
from collections import OrderedDict

import numpy as np

from .. import expressions as ex
from ..errors import NumericsError, StructuralError
from .base import GeometryBudget, ManifoldBackend, Point, Region

#: fine-path RK4 substeps per unit arc length (doubled pass added on top)
FINE_STEPS_PER_UNIT = 16
#: coarse-path substeps per unit arc length (shooting iterations only)
COARSE_STEPS_PER_UNIT = 12
#: endpoint residual target for the shooting log map; tight enough that
#: finite differences of the squared distance with step 1e-5 stay clean
SHOOTING_TOL = 3e-11
SHOOTING_MAX_ITER = 100


def _emit_kernels(g_trees, d):
    """Emit scalar kernels specialized to the constraint trees (m <= 2)."""
    m = len(g_trees)
    xs = [f"x{i}" for i in range(d)]
    J = [[t.diff(x) for x in xs] for t in g_trees]
    H = [[[J[i][j].diff(xs[k]) for k in range(d)] for j in range(d)] for i in range(m)]

    def jac_lines(indent):
        out = []
        for i in range(m):
            for j in range(d):
                out.append(f"{indent}j_{i}_{j} = {J[i][j].emit()}")
        return out

    def gram_lines(indent):
        out = []
        for a in range(m):
            for b in range(a, m):
                s = " + ".join(f"j_{a}_{j}*j_{b}_{j}" for j in range(d))
                out.append(f"{indent}G_{a}_{b} = {s}")
        return out

    def solve_lines(indent, rhs, lam):
        # solve G lam = rhs for symmetric positive-definite G (m <= 2)
        if m == 1:
            return [f"{indent}{lam}0 = ({rhs}0) / G_0_0"]
        return [
            f"{indent}_det = G_0_0*G_1_1 - G_0_1*G_0_1",
            f"{indent}{lam}0 = (({rhs}0)*G_1_1 - ({rhs}1)*G_0_1) / _det",
            f"{indent}{lam}1 = (({rhs}1)*G_0_0 - ({rhs}0)*G_0_1) / _det",
        ]

    def quad_lines(indent, name, left, right):
        # name_i = left^T H_i right
        out = []
        for i in range(m):
            terms = []
            for j in range(d):
                for k in range(d):
                    jj, kk = min(j, k), max(j, k)
                    tree = H[i][jj][kk]
                    if isinstance(tree, ex.Num) and tree.value == 0.0:
                        continue
                    terms.append(f"({tree.emit()})*{left}{j}*{right}{k}")
            out.append(f"{indent}{name}{i} = " + (" + ".join(terms) if terms else "0.0"))
        return out

    L = []
    # geodesic acceleration: a = J^T lam with G lam = -v^T H v
    L.append(f"def acc({', '.join(xs)}, {', '.join('v%d' % i for i in range(d))}):")
    L += jac_lines("    ")
    L += quad_lines("    ", "q_", "v", "v")
    L += gram_lines("    ")
    L += [ln.replace("RHS", "-q_") for ln in solve_lines("    ", "-q_", "l_")]
    for j in range(d):
        s = " + ".join(f"l_{i}*j_{i}_{j}" for i in range(m))
        L.append(f"    a{j} = {s}")
    L.append(f"    return {', '.join('a%d' % j for j in range(d))}")
    L.append("")

    # transport correction: w' = J^T mu with G mu = -v^T H w
    args = (
        [f"x{i}" for i in range(d)]
        + [f"v{i}" for i in range(d)]
        + [f"w{i}" for i in range(d)]
    )
    L.append(f"def acc_w({', '.join(args)}):")
    L += jac_lines("    ")
    L += quad_lines("    ", "q_", "v", "w")
    L += gram_lines("    ")
    L += solve_lines("    ", "-q_", "l_")
    for j in range(d):
        s = " + ".join(f"l_{i}*j_{i}_{j}" for i in range(m))
        L.append(f"    aw{j} = {s}")
    L.append(f"    return {', '.join('aw%d' % j for j in range(d))}")
    L.append("")

    # Gauss-Newton restoration of feasibility: x -= J^T (J J^T)^-1 g
    L.append(f"def proj_x({', '.join(xs)}):")
    L.append("    for _ in range(4):")
    for i in range(m):
        L.append(f"        gv_{i} = {g_trees[i].emit()}")
    cond = " and ".join(f"abs(gv_{i}) < 1e-14" for i in range(m))
    L.append(f"        if {cond}:")
    L.append("            break")
    L += jac_lines("        ")
    L += gram_lines("        ")
    L += solve_lines("        ", "gv_", "r_")
    for j in range(d):
        s = " + ".join(f"r_{i}*j_{i}_{j}" for i in range(m))
        L.append(f"        x{j} = x{j} - ({s})")
    L.append(f"    return {', '.join(xs)}")
    L.append("")

    # tangential projection: w -= J^T (J J^T)^-1 J w
    L.append(f"def proj_t({', '.join(xs)}, {', '.join('w%d' % i for i in range(d))}):")
    L += jac_lines("    ")
    for i in range(m):
        s = " + ".join(f"j_{i}_{j}*w{j}" for j in range(d))
        L.append(f"    s_{i} = {s}")
    L += gram_lines("    ")
    L += solve_lines("    ", "s_", "r_")
    for j in range(d):
        s = " + ".join(f"r_{i}*j_{i}_{j}" for i in range(m))
        L.append(f"    w{j} = w{j} - ({s})")
    L.append(f"    return {', '.join('w%d' % i for i in range(d))}")
    L.append("")

    # RK4 over s in [0, 1] with per-step projection and speed renorm
    def rk4_body(with_w):
        names_x = [f"x{i}" for i in range(d)]
        names_v = [f"v{i}" for i in range(d)]
        names_w = [f"w{i}" for i in range(d)] if with_w else []
        body = []

        def stage(tag, shift):
            pre_x = [f"x{i}" if shift is None else f"_sx{i}" for i in range(d)]
            pre_v = [f"v{i}" if shift is None else f"_sv{i}" for i in range(d)]
            pre_w = [f"w{i}" if shift is None else f"_sw{i}" for i in range(d)]
            if shift is not None:
                src_kx, src_kv, src_kw, c = shift
                for i in range(d):
                    body.append(f"        _sx{i} = x{i} + {c}*h*{src_kx}{i}")
                for i in range(d):
                    body.append(f"        _sv{i} = v{i} + {c}*h*{src_kv}{i}")
                if with_w:
                    for i in range(d):
                        body.append(f"        _sw{i} = w{i} + {c}*h*{src_kw}{i}")
            for i in range(d):
                body.append(f"        {tag}x{i} = {pre_v[i]}")
            acall = ", ".join(pre_x + pre_v)
            body.append(
                f"        {', '.join(f'{tag}v{i}' for i in range(d))} = acc({acall})"
            )
            if with_w:
                wcall = ", ".join(pre_x + pre_v + pre_w)
                body.append(
                    f"        {', '.join(f'{tag}w{i}' for i in range(d))}"
                    + (" = acc_w(" + wcall + ")")
                )

        stage("k1", None)
        stage("k2", ("k1x", "k1v", "k1w", 0.5))
        stage("k3", ("k2x", "k2v", "k2w", 0.5))
        stage("k4", ("k3x", "k3v", "k3w", 1.0))
        for nm, pref in (("x", "x"), ("v", "v")) + ((("w", "w"),) if with_w else ()):
            for i in range(d):
                body.append(
                    f"        {pref}{i} = {pref}{i} + (h/6.0)*(k1{nm}{i} + 2.0*k2{nm}{i}"
                    f" + 2.0*k3{nm}{i} + k4{nm}{i})"
                )
        body.append(f"        {', '.join(names_x)} = proj_x({', '.join(names_x)})")
        body.append(
            f"        {', '.join(names_v)} = proj_t({', '.join(names_x + names_v)})"
        )
        nrm = " + ".join(f"v{i}*v{i}" for i in range(d))
        body.append(f"        _s = sqrt({nrm})")
        body.append("        if _s > 0.0:")
        body.append("            _c = spd/_s")
        for i in range(d):
            body.append(f"            v{i} = v{i}*_c")
        if with_w:
            body.append(
                f"        {', '.join(names_w)} = proj_t({', '.join(names_x + names_w)})"
            )
        return body

    L.append("def rk4_geo(state, n, h):")
    L.append(f"    {', '.join([f'x{i}' for i in range(d)] + [f'v{i}' for i in range(d)])} = state")
    nrm = " + ".join(f"v{i}*v{i}" for i in range(d))
    L.append(f"    spd = sqrt({nrm})")
    L.append("    for _ in range(n):")
    L += rk4_body(False)
    L.append(
        "    return ("
        + ", ".join([f"x{i}" for i in range(d)] + [f"v{i}" for i in range(d)])
        + ")"
    )
    L.append("")

    L.append("def rk4_par(state, n, h):")
    allnames = (
        [f"x{i}" for i in range(d)]
        + [f"v{i}" for i in range(d)]
        + [f"w{i}" for i in range(d)]
    )
    L.append(f"    {', '.join(allnames)} = state")
    L.append(f"    spd = sqrt({nrm})")
    L.append("    for _ in range(n):")
    L += rk4_body(True)
    L.append("    return (" + ", ".join(allnames) + ")")
    L.append("")
    return "\n".join(L)


class ImplicitBackend(ManifoldBackend):
    """Level-set manifold in R^d defined by expression-grammar equalities."""

    feasibility_tol = 1e-8

    def __init__(self, ambient_dim: int, equalities):
        if ambient_dim < 2:
            raise StructuralError("ambient dimension must be >= 2")
        exprs = tuple(str(s) for s in equalities)
        m = len(exprs)
        if m < 1:
            raise StructuralError("at least one equality constraint required")
        if m >= ambient_dim:
            raise StructuralError("constraints leave no tangent direction")
        if m > 2:
            raise StructuralError(
                "more than two equality constraints are not supported by the "
                "generated kernels"
            )
        self.ambient_dim = ambient_dim
        self.dim = ambient_dim - m
        self.n_constraints = m
        self.key = ("implicit", ambient_dim, exprs)

        names = [f"x{i}" for i in range(1, ambient_dim + 1)]
        trees = [ex.parse(s, allowed_vars=names) for s in exprs]
        # kernels work with 0-based names
        ren = {old: f"x{i}" for i, old in enumerate(names)}
        self._g_trees = [_rename(t, ren) for t in trees]
        self._g_fn = ex.compile_many(self._g_trees, [f"x{i}" for i in range(ambient_dim)])
        jac_trees = [
            t.diff(f"x{j}") for t in self._g_trees for j in range(ambient_dim)
        ]
        self._jac_fn = ex.compile_many(jac_trees, [f"x{i}" for i in range(ambient_dim)])

        ns = {"sqrt": math.sqrt, "sin": math.sin, "cos": math.cos, "exp": math.exp}
        exec(_emit_kernels(self._g_trees, ambient_dim), ns)  # noqa: S102 - our own AST
        self._k_acc = ns["acc"]
        self._k_proj_x = ns["proj_x"]
        self._k_proj_t = ns["proj_t"]
        self._k_rk4_geo = ns["rk4_geo"]
        self._k_rk4_par = ns["rk4_par"]

        self._log_cache: OrderedDict = OrderedDict()
        self._budget_cache: dict = {}

    # -- constraint helpers -------------------------------------------------

    def constraint_values(self, coords) -> np.ndarray:
        return np.array(self._g_fn(*coords))

    def constraint_jacobian(self, coords) -> np.ndarray:
        flat = np.array(self._jac_fn(*coords))
        return flat.reshape(self.n_constraints, self.ambient_dim)

    def feasibility_residual(self, coords):
        return float(np.max(np.abs(self.constraint_values(coords))))

    def _project_point(self, amb):
        x = tuple(float(c) for c in np.asarray(amb, dtype=float))
        for _ in range(12):
            x = self._k_proj_x(*x)
            if self.feasibility_residual(x) < 1e-13:
                break
        out = np.array(x)
        if self.feasibility_residual(out) > self.feasibility_tol:
            raise NumericsError(
                "could not restore feasibility from the given ambient point",
                residual=self.feasibility_residual(out),
                best=out,
            )
        return out

    def _project_tangent(self, xc, amb):
        vals = self._k_proj_t(*xc, *np.asarray(amb, dtype=float))
        return np.array(vals)

    def tangent_basis(self, x: Point):
        J = self.constraint_jacobian(x.coords)
        _, _, vt = np.linalg.svd(J, full_matrices=True)
        return vt[self.n_constraints :]

    # -- integration --------------------------------------------------------

    def _integrate_geo(self, xc, vc, fine: bool):
        speed = float(np.linalg.norm(vc))
        if speed == 0.0:
            return np.array(xc), np.array(vc)
        state = tuple(xc) + tuple(vc)
        if not fine:
            n = max(6, math.ceil(speed * COARSE_STEPS_PER_UNIT))
            out = self._k_rk4_geo(state, n, 1.0 / n)
        else:
            n = max(8, math.ceil(speed * FINE_STEPS_PER_UNIT))
            s1 = np.array(self._k_rk4_geo(state, n, 1.0 / n))
            s2 = np.array(self._k_rk4_geo(state, 2 * n, 0.5 / n))
            out = (16.0 * s2 - s1) / 15.0
        d = self.ambient_dim
        x = self._project_point(np.array(out[:d]))
        v = self._project_tangent(x, np.array(out[d:]))
        nv = np.linalg.norm(v)
        if nv > 0:
            v = v * (speed / nv)
        return x, v

    def _exp(self, xc, vc):
        x, _ = self._integrate_geo(xc, vc, fine=True)
        return x

    def _log(self, xc, yc):
        key = (xc.tobytes(), yc.tobytes())
        hit = self._log_cache.get(key)
        if hit is not None:
            return hit.copy()
        basis = self.tangent_basis(Point(self, xc))
        c = basis @ (yc - xc)  # seed: ambient chord projected onto T_x
        scale = 1.0 + float(np.linalg.norm(yc))

        def resid(cvec, fine):
            x_end, _ = self._integrate_geo(xc, cvec @ basis, fine=fine)
            return x_end - yc

        r = resid(c, fine=False)
        jac = None
        fine = False
        best = (float(np.linalg.norm(r)), c.copy())
        for _ in range(SHOOTING_MAX_ITER):
            rn = float(np.linalg.norm(r))
            if rn < best[0]:
                best = (rn, c.copy())
            if fine and rn <= SHOOTING_TOL * scale:
                break
            if not fine and rn <= 1e-8 * scale:
                # switch to the extrapolated integrator; the frozen coarse
                # Jacobian is still an adequate Newton model
                fine = True
                r = resid(c, fine=True)
                continue
            if jac is None:
                jac = np.empty((self.ambient_dim, self.dim))
                eps = 1e-6 * max(1.0, float(np.linalg.norm(c)))
                for j in range(self.dim):
                    cp = c.copy()
                    cp[j] += eps
                    jac[:, j] = (resid(cp, fine=fine) - r) / eps
            step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
            damp = 1.0
            for _ in range(8):
                cand = c + damp * step
                r_cand = resid(cand, fine=fine)
                if np.linalg.norm(r_cand) < rn:
                    c, r = cand, r_cand
                    break
                damp *= 0.5
            else:
                jac = None  # refresh the frozen Jacobian and retry
                r = resid(c, fine=fine)
                if not fine:
                    fine = True
                    r = resid(c, fine=True)
                else:
                    break
        else:
            raise NumericsError(
                "shooting iteration for the log map did not converge",
                residual=best[0],
                best=best[1] @ basis,
            )
        if float(np.linalg.norm(r)) > SHOOTING_TOL * scale * 10.0:
            raise NumericsError(
                "shooting iteration for the log map did not converge",
                residual=float(np.linalg.norm(r)),
                best=c @ basis,
            )
        v = c @ basis
        if len(self._log_cache) >= 8192:
            self._log_cache.popitem(last=False)
        self._log_cache[key] = v.copy()
        return v

    def _distance(self, xc, yc):
        if np.array_equal(xc, yc):
            return 0.0
        return float(np.linalg.norm(self._log(xc, yc)))

    def _transport(self, xc, yc, vc):
        gamma = self._log(xc, yc)
        speed = float(np.linalg.norm(gamma))
        w_norm = float(np.linalg.norm(vc))
        if speed == 0.0 or w_norm == 0.0:
            return self._project_tangent(yc, vc)
        n = max(8, math.ceil(speed * FINE_STEPS_PER_UNIT))
        state = tuple(xc) + tuple(gamma) + tuple(vc)
        s1 = np.array(self._k_rk4_par(state, n, 1.0 / n))
        s2 = np.array(self._k_rk4_par(state, 2 * n, 0.5 / n))
        out = (16.0 * s2 - s1) / 15.0
        d = self.ambient_dim
        w = self._project_tangent(yc, out[2 * d :])
        nw = float(np.linalg.norm(w))
        if nw > 0:
            w = w * (w_norm / nw)  # transport is an isometry; remove drift
        return w

    # -- budget --------------------------------------------------------------

    def budget(self, region: Region | None = None) -> GeometryBudget:
        if region is None:
            ck = None
            center = self._default_point()
            radius = 1.0
        else:
            ck = (region.center.coords.tobytes(), float(region.radius))
            center = region.center.coords
            radius = float(region.radius)
        hit = self._budget_cache.get(ck)
        if hit is not None:
            return hit
        kappa = self._sample_extrinsic_curvature(center, radius)
        rho = math.pi / (2.0 * math.sqrt(kappa)) if kappa > 0 else 1e6
        b = GeometryBudget(region=region, rho=rho, curvature_bound=kappa, is_estimate=True)
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

    def _sample_extrinsic_curvature(self, center, radius, n=64):
        """Max |second fundamental form(u, u)| over sampled points and unit u."""
        rng = np.random.default_rng(12345)
        worst = 0.0
        pt = np.asarray(center, dtype=float)
        for k in range(n):
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
            u = u / np.linalg.norm(u)
            vec = u @ basis
            a = np.array(self._k_acc(*p, *vec))
            worst = max(worst, float(np.linalg.norm(a)))
        return worst


def _rename(tree, mapping):
    if isinstance(tree, ex.Var):
        return ex.Var(mapping.get(tree.name, tree.name))
    if isinstance(tree, ex.Num):
        return tree
    if isinstance(tree, ex.Neg):
        return ex.Neg(_rename(tree.arg, mapping))
    if isinstance(tree, ex.Bin):
        return ex.Bin(tree.op, _rename(tree.lhs, mapping), _rename(tree.rhs, mapping))
    if isinstance(tree, ex.Fun):
        return ex.Fun(tree.name, _rename(tree.arg, mapping))
    raise AssertionError(type(tree))
