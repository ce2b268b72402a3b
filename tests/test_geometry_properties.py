"""Geometry identities as property tests on all four backends.

Each example draws a seed; the seed places x within min(0.9 rho, 1.2) of
the backend's base point and y within 0.9 min(rho, 1.6) of x, the
sampling of ``test_criterion_01_geometry_identities``, whose tolerances
these tests keep.
"""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from manisweep.errors import DomainError, StructuralError
from manisweep.geometry.base import _norm

BACKENDS = {
    "euclidean": (EuclideanBackend(3), [0.0, 0.0, 0.0]),
    "sphere": (SphereBackend(2), [0.0, 0.0, 1.0]),
    "hyperbolic": (HyperbolicBackend(2), [1.0, 0.0, 0.0]),
    "implicit": (ImplicitBackend(2, ["x1^2 + x2^2 - 1"]), [1.0, 0.0]),
}
KINDS = sorted(BACKENDS)


def inverse_tol(kind):
    return 1e-5 if kind == "implicit" else 1e-8


def norm_tol(kind):
    return 1e-5 if kind == "implicit" else 1e-9


SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)


def draw(kind, seed):
    """A seeded pair x, y within the budget radius, and the generator that placed them."""
    backend, base = BACKENDS[kind]
    rng = np.random.default_rng(seed)
    rho = backend.budget().rho
    x = backend.random_point(rng, backend.point(base), min(0.9 * rho, 1.2))
    y = backend.random_point(rng, x, 0.9 * min(rho, 1.6))
    return backend, x, y, rng


@pytest.mark.parametrize("kind", KINDS)
@PROPERTY
@given(seed=SEEDS)
def test_exp_of_log_is_identity(kind, seed):
    _, x, y, _ = draw(kind, seed)
    back = exp_map(x, log_map(x, y))
    assert float(np.max(np.abs(back.coords - y.coords))) <= inverse_tol(kind)


@pytest.mark.parametrize("kind", KINDS)
@PROPERTY
@given(seed=SEEDS)
def test_transport_preserves_norms(kind, seed):
    backend, x, y, rng = draw(kind, seed)
    w = backend.random_tangent(rng, x, 1.0)
    carried = parallel_transport(x, y, w)
    assert abs(carried.norm() - w.norm()) <= 1e-10 * max(w.norm(), 1e-30)


@pytest.mark.parametrize("kind", KINDS)
@PROPERTY
@given(seed=SEEDS)
def test_distance_is_symmetric(kind, seed):
    _, x, y, _ = draw(kind, seed)
    assert abs(distance(x, y) - distance(y, x)) <= norm_tol(kind)


@pytest.mark.parametrize("kind", KINDS)
@PROPERTY
@given(seed=SEEDS)
def test_log_norm_is_distance(kind, seed):
    _, x, y, _ = draw(kind, seed)
    assert abs(log_map(x, y).norm() - distance(x, y)) <= norm_tol(kind)


NON_FINITE = {
    "euclidean": (EuclideanBackend(2), [math.nan, 1.0]),
    "sphere": (SphereBackend(2), [math.nan, 0.0, 1.0]),
    "hyperbolic": (HyperbolicBackend(2), [1.0, math.nan, 0.0]),
    "implicit": (ImplicitBackend(2, ["x1^2 + x2^2 - 1"]), [math.nan, 0.0]),
    "euclidean_infinite": (EuclideanBackend(2), [math.inf, 1.0]),
    # finite coordinates whose residual overflows to inf - inf = NaN
    "implicit_nan_residual": (ImplicitBackend(2, ["x1^4 - x1^4 + x2^2 - 1"]), [1e200, 1.0]),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE))
def test_point_rejects_non_finite_coordinates_and_residuals(name):
    backend, coords = NON_FINITE[name]
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(StructuralError):
        backend.point(coords)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_tangent_rejects_non_finite_components(kind, bad):
    backend, base = BACKENDS[kind]
    components = np.zeros(backend.ambient_dim)
    components[-1] = bad
    with pytest.raises(StructuralError, match=rf"components \[{backend.ambient_dim - 1}\]"):
        backend.tangent(backend.point(base), components)


def test_hyperbolic_projection_of_a_nan_vector_is_a_domain_error():
    with pytest.raises(DomainError, match="not timelike"):
        HyperbolicBackend(2)._project_point([math.nan, 0.0, 0.0])


def same_float(a, b):
    """Equal as IEEE doubles: NaN matches NaN, and the signs of zeros agree."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


# finite doubles of every magnitude, subnormals and overflowing squares included
WIDE = st.floats(allow_nan=False, allow_infinity=False, width=64)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(values=st.lists(WIDE, min_size=1, max_size=5), stride=st.integers(1, 3))
def test_norm_helper_is_numpys_norm_bit_for_bit(values, stride):
    a = np.array(values)
    strided = np.repeat(a, stride)[::stride]  # the same values, not contiguous
    with np.errstate(over="ignore"):
        assert same_float(_norm(a), float(np.linalg.norm(a)))
        assert same_float(_norm(strided), float(np.linalg.norm(strided)))


@pytest.mark.parametrize("values", [[math.nan], [1.0, math.nan, 2.0], [math.inf],
                                    [-math.inf, 1.0], [math.inf, math.nan], [-0.0], [0.0, -0.0]])
def test_norm_helper_is_numpys_norm_on_non_finite_input(values):
    a = np.array(values)
    assert same_float(_norm(a), float(np.linalg.norm(a)))


COLD = {
    "euclidean": lambda: EuclideanBackend(3),
    "sphere": lambda: SphereBackend(2),
    "hyperbolic": lambda: HyperbolicBackend(2),
    "implicit": lambda: ImplicitBackend(2, ["x1^2 + x2^2 - 1"]),
}


@pytest.mark.parametrize("kind", KINDS)
def test_a_warm_basis_memo_draws_the_tangents_of_a_cold_backend(kind):
    _, x, y, _ = draw(kind, 7)
    warm = COLD[kind]()
    x, y = warm.point(x.coords), warm.point(y.coords)
    rng_warm, rng_cold = np.random.default_rng(3), np.random.default_rng(3)
    for p in (x, y, x, x):
        drawn = warm.random_tangent(rng_warm, p, 0.5)
        reference = COLD[kind]().random_tangent(rng_cold, p, 0.5)
        assert drawn.base is p
        assert drawn.components.tobytes() == reference.components.tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_the_basis_memo_keeps_no_reference_cycle_to_its_backend(kind):
    # a cycle would keep each scenario's backend, caches included, alive
    # until the cycle collector runs
    backend = COLD[kind]()
    x = backend.point(BACKENDS[kind][1])
    backend.random_tangent(np.random.default_rng(0), x, 0.5)
    gone = weakref.ref(backend)
    gc.disable()
    try:
        del backend, x
        assert gone() is None
    finally:
        gc.enable()
