"""Tour of the manifold backends.

Runs the same exp/log/transport identities on flat space, the unit
sphere, the hyperboloid and an implicit level-set circle, and prints the
per-region geometry budgets each backend reports.
"""

import numpy as np

from manisweep import (
    EuclideanBackend,
    HyperbolicBackend,
    ImplicitBackend,
    SphereBackend,
    distance,
    exp_map,
    log_map,
    parallel_transport,
)

rng = np.random.default_rng(0)

backends = {
    "euclidean R^3": (EuclideanBackend(3), [0.0, 0.0, 0.0]),
    "sphere S^2": (SphereBackend(2), [0.0, 0.0, 1.0]),
    "hyperbolic H^2": (HyperbolicBackend(2), [1.0, 0.0, 0.0]),
    "implicit circle": (ImplicitBackend(2, ["x1^2 + x2^2 - 1"]), [1.0, 0.0]),
}

for label, (backend, origin) in backends.items():
    x0 = backend.point(origin)
    budget = backend.budget()
    print(f"\n== {label}")
    print(
        f"   working radius rho = {budget.rho:.4g}, |K| <= {budget.curvature_bound:.4g}"
        + ("  (sampled estimate)" if budget.is_estimate else "")
    )

    # shoot a geodesic and invert it
    x = backend.random_point(rng, x0, min(0.8, 0.5 * budget.rho))
    v = backend.random_tangent(rng, x, 0.8 * min(budget.rho, 1.5))
    y = exp_map(x, v)
    back = log_map(x, y)
    print(f"   |log(x, exp(x, v)) - v|  = {np.max(np.abs(back.components - v.components)):.2e}")
    print(f"   | |log| - d(x, y) |      = {abs(back.norm() - distance(x, y)):.2e}")

    # parallel transport is an isometry and carries log(x,y) to -log(y,x)
    w = backend.random_tangent(rng, x, 1.0)
    carried = parallel_transport(x, y, w)
    sym = parallel_transport(x, y, back) + log_map(y, x)
    print(f"   | |Lw| - |w| |           = {abs(carried.norm() - w.norm()):.2e}")
    print(f"   |L(log_xy) + log_yx|     = {sym.norm():.2e}")

# the quarter great circle from the north pole lands on the equator
S = SphereBackend(2)
north = S.point([0, 0, 1])
v = S.tangent(north, [np.pi / 2, 0, 0])
print("\nquarter great circle from the north pole:", exp_map(north, v).coords)
