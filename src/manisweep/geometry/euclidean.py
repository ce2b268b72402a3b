"""Flat R^n backend."""

from __future__ import annotations

import numpy as np

from ..errors import StructuralError
from .base import GeometryBudget, ManifoldBackend, Point, Region, _norm

#: stand-in for the infinite flat working radius, so preconditions stay checkable
RADIUS_CEILING = 1e6
#: curvature 0; rho would be infinite, capped at the fixed ceiling
_BUDGET = GeometryBudget(rho=RADIUS_CEILING, curvature_bound=0.0)


class EuclideanBackend(ManifoldBackend):
    def __init__(self, dim: int):
        if dim < 1:
            raise StructuralError("dim must be >= 1")
        self.dim = dim
        self.ambient_dim = dim
        self.key = ("euclidean", dim)

    def _distance(self, xc, yc):
        return _norm(yc - xc)

    def _exp(self, xc, vc, speed):
        return xc + vc

    def _log(self, xc, yc, d):
        return yc - xc

    def _transport(self, xc, yc, vc):
        return vc.copy()

    def _project_tangent(self, xc, amb):
        return np.asarray(amb, dtype=float)

    def tangent_basis(self, x: Point):
        return np.eye(self.dim)

    def feasibility_residual(self, coords):
        return 0.0

    def budget(self, region: Region | None = None) -> GeometryBudget:
        return _BUDGET
