"""manisweep: sweeping processes on Riemannian manifolds.

A state constrained to a moving set C(t) on a manifold, driven by a
perturbation field, is integrated with the catching-up scheme: one
geodesic substep along the field, then metric projection onto the moved
set.  The package bundles the manifold backends, moving-set machinery,
prox-regularity diagnostics, the integrator, and convergence/
certification studies behind one scenario format.
"""

from .geometry import (
    EuclideanBackend,
    GeometryBudget,
    HyperbolicBackend,
    ImplicitBackend,
    Point,
    Region,
    SphereBackend,
    Tangent,
    distance,
    exp_map,
    grad_sq_distance,
    log_map,
    parallel_transport,
)
from .moving_sets import MovingSet, ProjectionResult
from .scenario import Scenario, bundled_scenario, bundled_scenario_path, load_scenario
from .studies import RateStudy, certify_scenario, run_rate_study
from .sweep import (
    Perturbation,
    Trajectory,
    admissible_step,
    catching_up,
    expression_perturbation,
    gronwall_separation,
    inclusion_residual,
    zero_perturbation,
)

__version__ = "0.1.0"
