"""Unit sphere S^n embedded in R^(n+1)."""

from __future__ import annotations

import math

import numpy as np

from ..errors import DomainError, StructuralError
from .base import GeometryBudget, ManifoldBackend, Point, Region, _norm

_EPS_ANGLE = 1e-12
#: min(i, c, pi/(2 sqrt|K|)) = min(pi, pi/2, pi/2)
_BUDGET = GeometryBudget(rho=math.pi / 2.0, curvature_bound=1.0)


class SphereBackend(ManifoldBackend):
    """Great-circle geometry of the unit sphere.

    Curvature 1, injectivity radius pi, convexity radius pi/2, so the
    working radius is pi/2.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise StructuralError("dim must be >= 1")
        self.dim = dim
        self.ambient_dim = dim + 1
        self.key = ("sphere", dim)

    def _distance(self, xc, yc):
        # 2 arcsin(|y-x|/2) is exact near zero, unlike arccos(<x,y>)
        chord = _norm(yc - xc)
        if chord >= 2.0:
            return math.pi
        return 2.0 * math.asin(0.5 * chord)

    def _exp(self, xc, vc, speed):
        s = speed
        if s < _EPS_ANGLE:
            out = xc + vc
        else:
            out = math.cos(s) * xc + (math.sin(s) / s) * vc
        return out / _norm(out)

    def _log(self, xc, yc, d):
        theta = d
        if theta < _EPS_ANGLE:
            return yc - xc.dot(yc) * xc
        w = yc - xc.dot(yc) * xc
        nw = _norm(w)
        if nw == 0.0:
            raise DomainError("log map undefined for antipodal points")
        return (theta / nw) * w

    def _transport(self, xc, yc, vc):
        theta = self._distance(xc, yc)
        if theta < _EPS_ANGLE:
            return vc - vc.dot(yc) * yc
        u = self._log(xc, yc, theta) / theta
        a = float(vc.dot(u))
        perp = vc - a * u
        return perp + a * (math.cos(theta) * u - math.sin(theta) * xc)

    def _project_tangent(self, xc, amb):
        amb = np.asarray(amb, dtype=float)
        return amb - amb.dot(xc) * xc

    def tangent_basis(self, x: Point):
        # null space of x^T via a deterministic Householder reflection
        xc = x.coords
        n = self.ambient_dim
        e = np.zeros(n)
        k = int(np.argmax(np.abs(xc)))
        e[k] = math.copysign(1.0, xc[k])
        w = xc + e
        H = np.eye(n) - 2.0 * np.outer(w, w) / np.dot(w, w)
        cols = [j for j in range(n) if j != k]
        return H[:, cols].T

    def feasibility_residual(self, coords):
        return abs(_norm(coords) - 1.0)

    def budget(self, region: Region | None = None) -> GeometryBudget:
        return _BUDGET
