"""Hyperboloid model of H^n in Minkowski space R^(n,1).

Points satisfy <x, x>_M = -1 with x_0 > 0, where
<x, y>_M = -x_0 y_0 + sum_i x_i y_i.  The Minkowski form restricted to
a tangent space is positive definite and is the Riemannian metric.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DomainError, StructuralError
from .base import GeometryBudget, ManifoldBackend, Point, Region

_EPS_ANGLE = 1e-12
#: i = c = +inf; the |K| = 1 term caps rho at pi/2
_BUDGET = GeometryBudget(rho=math.pi / 2.0, curvature_bound=1.0)


def mink(u, v):
    return float(u[1:].dot(v[1:]) - u[0] * v[0])


class HyperbolicBackend(ManifoldBackend):
    """Constant curvature -1; working radius pi/2 from the |K| = 1 cap."""

    def __init__(self, dim: int):
        if dim < 1:
            raise StructuralError("dim must be >= 1")
        self.dim = dim
        self.ambient_dim = dim + 1
        self.key = ("hyperbolic", dim)

    def inner(self, x: Point, u, v):
        return mink(u, v)

    def _distance(self, xc, yc):
        # the Minkowski chord norm satisfies <y-x, y-x>_M = 4 sinh^2(d/2),
        # giving a formula that is exact near zero unlike arccosh(-<x,y>)
        w = yc - xc
        q = max(mink(w, w), 0.0)
        return 2.0 * math.asinh(0.5 * math.sqrt(q))

    def _exp(self, xc, vc, speed):
        s = speed
        if s < _EPS_ANGLE:
            out = xc + vc
        else:
            out = math.cosh(s) * xc + (math.sinh(s) / s) * vc
        return self._project_point(out)

    def _log(self, xc, yc, d):
        theta = d
        if theta < _EPS_ANGLE:
            return self._project_tangent(xc, yc - xc)
        w = yc + mink(xc, yc) * xc  # = y - cosh(theta) x, tangent at x
        nw = math.sqrt(max(mink(w, w), 0.0))
        if nw == 0.0:
            return np.zeros_like(xc)
        return (theta / nw) * w

    def _transport(self, xc, yc, vc):
        theta = self._distance(xc, yc)
        if theta < _EPS_ANGLE:
            return self._project_tangent(yc, vc)
        u = self._log(xc, yc, theta) / theta
        a = mink(vc, u)
        perp = vc - a * u
        return perp + a * (math.sinh(theta) * xc + math.cosh(theta) * u)

    def _project_point(self, amb):
        # renormalize onto <x,x>_M = -1, keeping the upper sheet
        amb = np.asarray(amb, dtype=float)
        q = -mink(amb, amb)
        if not q > 0.0:  # a NaN fails too
            raise DomainError(f"ambient vector {amb} is not timelike; cannot normalize")
        out = amb / math.sqrt(q)
        if out[0] < 0:
            out = -out
        return out

    def _project_tangent(self, xc, amb):
        amb = np.asarray(amb, dtype=float)
        return amb + mink(xc, amb) * xc

    def tangent_basis(self, x: Point):
        # Minkowski Gram-Schmidt of projected ambient basis vectors
        xc = x.coords
        n = self.ambient_dim
        basis = []
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            w = self._project_tangent(xc, e)
            for b in basis:
                w = w - mink(w, b) * b
            nw = math.sqrt(max(mink(w, w), 0.0))
            if nw > 1e-10:
                basis.append(w / nw)
            if len(basis) == self.dim:
                break
        return np.array(basis)

    def feasibility_residual(self, coords):
        if coords[0] <= 0:
            return float("inf")
        return abs(mink(coords, coords) + 1.0)

    def budget(self, region: Region | None = None) -> GeometryBudget:
        return _BUDGET
