"""Analytic backends: flat space, unit sphere, hyperboloid."""

import copy
import math

import numpy as np
import pytest

from manisweep import (
    EuclideanBackend,
    HyperbolicBackend,
    Region,
    SphereBackend,
    distance,
    exp_map,
    grad_sq_distance,
    log_map,
    parallel_transport,
)
from manisweep.errors import DomainError, StructuralError


def analytic_backends():
    return [EuclideanBackend(3), SphereBackend(2), HyperbolicBackend(2)]


def base_point(backend):
    kind = backend.key[0]
    if kind == "euclidean":
        return backend.point(np.zeros(backend.ambient_dim))
    if kind == "sphere":
        c = np.zeros(backend.ambient_dim)
        c[-1] = 1.0
        return backend.point(c)
    c = np.zeros(backend.ambient_dim)
    c[0] = 1.0
    return backend.point(c)


def test_euclidean_distance_pythagoras():
    E = EuclideanBackend(2)
    assert distance(E.point([0, 0]), E.point([3, 4])) == pytest.approx(5.0)


def test_sphere_quarter_arc():
    S = SphereBackend(2)
    n = S.point([0, 0, 1])
    e = S.point([1, 0, 0])
    assert distance(n, e) == pytest.approx(math.pi / 2)
    v = S.tangent(n, [math.pi / 2, 0, 0])
    assert np.allclose(exp_map(n, v).coords, [1, 0, 0], atol=1e-12)
    assert np.allclose(log_map(n, e).components, [math.pi / 2, 0, 0], atol=1e-12)


def test_exp_zero_vector_is_identity():
    for B in analytic_backends():
        x = base_point(B)
        v = B.tangent(x, np.zeros(B.ambient_dim))
        assert np.allclose(exp_map(x, v).coords, x.coords)


def test_log_of_same_point_is_zero():
    for B in analytic_backends():
        x = base_point(B)
        assert log_map(x, x).norm() == 0.0


def test_euclidean_log_is_difference():
    E = EuclideanBackend(3)
    x, y = E.point([1, 2, 3]), E.point([0, -1, 5])
    assert np.allclose(log_map(x, y).components, [-1, -3, 2])


def test_euclidean_transport_keeps_components():
    E = EuclideanBackend(2)
    x, y = E.point([0, 0]), E.point([5, 5])
    v = E.tangent(x, [1, 2])
    assert np.allclose(parallel_transport(x, y, v).components, [1, 2])


def test_sphere_transport_symmetry_example():
    S = SphereBackend(2)
    n, e = S.point([0, 0, 1]), S.point([1, 0, 0])
    carried = parallel_transport(n, e, log_map(n, e))
    assert np.allclose(carried.components, -log_map(e, n).components, atol=1e-12)
    assert np.allclose(carried.components, [0, 0, -math.pi / 2], atol=1e-12)


def test_sphere_octant_holonomy():
    # transport around the three-right-angle geodesic triangle
    # N -> (1,0,0) -> (0,1,0) -> N; the loop encloses a solid angle of
    # pi/2, so the vector returns rotated by pi/2 about the pole axis
    S = SphereBackend(2)
    n = S.point([0, 0, 1])
    a = S.point([1, 0, 0])
    b = S.point([0, 1, 0])
    v = S.tangent(n, [0.3, 0.1, 0.0])
    w = parallel_transport(n, a, v)
    w = parallel_transport(a, b, w)
    w = parallel_transport(b, n, w)
    ang = math.pi / 2
    rot = np.array(
        [
            [math.cos(ang), -math.sin(ang), 0.0],
            [math.sin(ang), math.cos(ang), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    candidates = [rot @ v.components, rot.T @ v.components]
    errs = [np.max(np.abs(w.components - c)) for c in candidates]
    assert min(errs) < 1e-12
    # orientation: traversing N->x->y->N rotates +x toward +y
    assert errs[1] < errs[0] or errs[0] < 1e-12


@pytest.mark.parametrize("backend", analytic_backends(), ids=lambda b: b.key[0])
def test_exp_log_inverse_and_norm_identity(backend):
    rng = np.random.default_rng(11)
    x0 = base_point(backend)
    bud = backend.budget()
    r = min(0.9 * bud.rho, 1.2)
    for _ in range(200):
        x = backend.random_point(rng, x0, r)
        v = backend.random_tangent(rng, x, 0.9 * min(bud.rho, 2.0))
        y = exp_map(x, v)
        back = log_map(x, y)
        assert np.max(np.abs(back.components - v.components)) < 1e-8
        assert abs(back.norm() - distance(x, y)) < 1e-9
        assert abs(distance(x, y) - v.norm()) < 1e-9


@pytest.mark.parametrize("backend", analytic_backends(), ids=lambda b: b.key[0])
def test_transport_isometry_and_symmetry(backend):
    rng = np.random.default_rng(13)
    x0 = base_point(backend)
    bud = backend.budget()
    r = min(0.9 * bud.rho, 1.2)
    for _ in range(200):
        x = backend.random_point(rng, x0, r)
        y = backend.random_point(rng, x, 0.9 * min(bud.rho, 1.5))
        v = backend.random_tangent(rng, x, 1.0)
        carried = parallel_transport(x, y, v)
        assert abs(carried.norm() - v.norm()) <= 1e-10 * max(v.norm(), 1e-30)
        gam = log_map(x, y)
        sym = parallel_transport(x, y, gam) + log_map(y, x)
        assert sym.norm() < 1e-8


@pytest.mark.parametrize("backend", analytic_backends(), ids=lambda b: b.key[0])
def test_transport_linearity(backend):
    rng = np.random.default_rng(17)
    x0 = base_point(backend)
    x = backend.random_point(rng, x0, 0.5)
    y = backend.random_point(rng, x, 0.8)
    u = backend.random_tangent(rng, x, 1.0)
    v = backend.random_tangent(rng, x, 1.0)
    lhs = parallel_transport(x, y, u.scaled(2.0) + v)
    rhs = parallel_transport(x, y, u).scaled(2.0) + parallel_transport(x, y, v)
    assert (lhs - rhs).norm() < 1e-12


def test_grad_sq_distance_examples():
    E = EuclideanBackend(2)
    x, y = E.point([0, 0]), E.point([1, 1])
    assert np.allclose(grad_sq_distance(x, y).components, [-2, -2])
    assert grad_sq_distance(x, x).norm() == 0.0


@pytest.mark.parametrize("backend", analytic_backends(), ids=lambda b: b.key[0])
def test_grad_sq_distance_finite_differences(backend):
    rng = np.random.default_rng(19)
    x0 = base_point(backend)
    eps = 1e-5
    for _ in range(50):
        x = backend.random_point(rng, x0, 0.5)
        y = backend.random_point(rng, x, 0.8)
        if distance(x, y) < 0.1:
            continue
        g = grad_sq_distance(x, y)
        basis = backend.tangent_basis(x)
        for k in range(backend.dim):
            e = backend.tangent(x, basis[k])
            fp = distance(exp_map(x, e.scaled(eps)), y) ** 2
            fm = distance(exp_map(x, e.scaled(-eps)), y) ** 2
            fd = (fp - fm) / (2 * eps)
            assert abs(g.inner(e) - fd) <= 1e-5 * max(1.0, abs(fd))


def test_budget_values():
    S = SphereBackend(2)
    bs = S.budget()
    assert bs.rho == pytest.approx(math.pi / 2)
    assert bs.curvature_bound == 1.0
    assert not bs.is_estimate

    E = EuclideanBackend(2)
    be = E.budget()
    assert be.curvature_bound == 0.0
    assert be.rho == pytest.approx(1e6)

    H = HyperbolicBackend(2)
    bh = H.budget()
    assert bh.curvature_bound == 1.0
    assert bh.rho == pytest.approx(math.pi / 2)

    # constant curvature: the budget of a region is the global one
    region = Region(S.point([0, 0, 1]), 0.5)
    assert S.budget(region) == S.budget()


def test_closed_form_backends_share_one_budget():
    # every exp, log and transport checks its radius against budget()
    for backend in (EuclideanBackend(2), SphereBackend(2), HyperbolicBackend(2)):
        assert backend.budget() is backend.budget() is type(backend)(3).budget()


def test_backend_mismatch_is_structural_error():
    E2, E3 = EuclideanBackend(2), EuclideanBackend(3)
    with pytest.raises(StructuralError):
        distance(E2.point([0, 0]), E3.point([0, 0, 0]))


def test_tangent_base_mixing_is_structural_error():
    S = SphereBackend(2)
    n, e = S.point([0, 0, 1]), S.point([1, 0, 0])
    v = S.tangent(n, [0.1, 0, 0])
    with pytest.raises(StructuralError):
        exp_map(e, v)


def test_exp_beyond_budget_radius_is_domain_error():
    S = SphereBackend(2)
    n = S.point([0, 0, 1])
    v = S.tangent(n, [2.0, 0, 0])
    with pytest.raises(DomainError):
        exp_map(n, v)


def test_log_beyond_budget_radius_is_domain_error():
    S = SphereBackend(2)
    n = S.point([0, 0, 1])
    far = S.point([math.sin(2.0), 0, math.cos(2.0)])
    with pytest.raises(DomainError):
        log_map(n, far)


def test_points_and_tangents_are_immutable_values_compared_by_identity():
    E = EuclideanBackend(2)
    p, q = E.point([1, 2]), E.point([1, 2])
    v = E.tangent(p, [0.5, 0.0])
    assert p == p and p != q and not (p == q)
    assert len({p, q, p}) == 2 and hash(p) == hash(p)
    assert v == v and v != E.tangent(p, [0.5, 0.0])
    for obj, name in ((p, "coords"), (p, "backend"), (v, "components"), (v, "base"), (p, "x")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    with pytest.raises(AttributeError):
        del p.coords
    for arr in (p.coords, v.components):
        with pytest.raises(ValueError):
            arr[0] = 9.0
    coords = np.array([3.0, 4.0])
    r = E.point(coords)
    coords[0] = 0.0  # the point keeps its own copy
    assert r.coords.tolist() == [3.0, 4.0]


def test_copies_of_points_and_tangents_keep_their_values():
    S = SphereBackend(2)
    p = S.point([0.0, 0.0, 1.0])
    v = S.tangent(p, [0.1, 0.2, 0.0])
    for dup in (copy.copy, copy.deepcopy):
        q, w = dup(p), dup(v)
        assert q.backend.key == p.backend.key and q.coords.tobytes() == p.coords.tobytes()
        assert w.components.tobytes() == v.components.tobytes()
        assert w.base.coords.tobytes() == p.coords.tobytes()
        assert not q.coords.flags.writeable and not w.components.flags.writeable
    assert copy.copy(v).base is p


def test_random_tangent_memo_draws_a_cold_backends_tangents():
    warm, cold = SphereBackend(2), SphereBackend(2)
    x, other = warm.point([0.0, 0.0, 1.0]), warm.point([1.0, 0.0, 0.0])
    warm.random_tangent(np.random.default_rng(3), other, 1.0)
    for backend in (cold, warm):
        v = backend.random_tangent(np.random.default_rng(5), x, 0.5)
        rng = np.random.default_rng(5)
        u = rng.standard_normal(2)
        r = 0.5 * rng.uniform() ** 0.5
        want = (r / np.linalg.norm(u)) * (u @ backend.tangent_basis(x))
        assert v.base is x and v.components.tobytes() == want.tobytes()


def test_point_off_manifold_rejected():
    S = SphereBackend(2)
    with pytest.raises(StructuralError):
        S.point([1.0, 1.0, 1.0])
    H = HyperbolicBackend(2)
    with pytest.raises(StructuralError):
        H.point([0.5, 0, 0])


def test_nontangent_components_rejected():
    S = SphereBackend(2)
    n = S.point([0, 0, 1])
    with pytest.raises(StructuralError):
        S.tangent(n, [0, 0, 1.0])


def test_triangle_inequality_sampled():
    for B in analytic_backends():
        rng = np.random.default_rng(29)
        x0 = base_point(B)
        for _ in range(50):
            x = B.random_point(rng, x0, 0.6)
            y = B.random_point(rng, x0, 0.6)
            z = B.random_point(rng, x0, 0.6)
            assert distance(x, z) <= distance(x, y) + distance(y, z) + 1e-12
