import numpy as np
import pytest

from dualflow.elements import (
    LOCAL_EDGES,
    REF_VERTICES,
    UnsupportedElementError,
    get_element,
    reference_curl,
    skew_tensors,
)
from dualflow.quadrature import interval_rule, triangle_rule


def random_ref_points(n, seed=0):
    rng = np.random.default_rng(seed)
    u = rng.random((n, 2))
    flip = u.sum(axis=1) > 1.0
    u[flip] = 1.0 - u[flip]
    return u


def test_cg1_lagrange_property():
    elem = get_element("CG", 1)
    vals, _ = elem.tabulate(REF_VERTICES)
    assert np.allclose(vals, np.eye(3), atol=1e-14)


def test_cg2_lagrange_property():
    elem = get_element("CG", 2)
    vals, _ = elem.tabulate(elem.nodes())
    assert np.allclose(vals, np.eye(6), atol=1e-14)


@pytest.mark.parametrize("degree", [1, 2])
def test_partition_of_unity(degree):
    elem = get_element("CG", degree)
    pts = random_ref_points(20, seed=degree)
    vals, grads = elem.tabulate(pts)
    assert np.allclose(vals.sum(axis=1), 1.0, atol=1e-13)
    assert np.allclose(grads.sum(axis=1), 0.0, atol=1e-13)


@pytest.mark.parametrize("degree", [1, 2])
def test_cg_gradients_match_finite_differences(degree):
    elem = get_element("CG", degree)
    pts = random_ref_points(10, seed=7)
    _, grads = elem.tabulate(pts)
    h = 1e-6
    for d, e in enumerate(np.eye(2)):
        vp, _ = elem.tabulate(pts + h * e)
        vm, _ = elem.tabulate(pts - h * e)
        fd = (vp - vm) / (2 * h)
        assert np.allclose(grads[:, :, d], fd, atol=1e-8)


@pytest.mark.parametrize("degree", [1, 2])
def test_rt_dof_duality(degree):
    """Re-applying the defining dofs to the basis gives the identity."""
    elem = get_element("RT", degree)
    n = elem.ndof
    t, wt = interval_rule(2 * degree + 3)
    V = np.zeros((n, n))
    for e in range(3):
        a, b = LOCAL_EDGES[e]
        pa, pb = REF_VERTICES[a], REF_VERTICES[b]
        tang = pb - pa
        length = np.hypot(*tang)
        normal = np.array([tang[1], -tang[0]]) / length
        pts = pa[None, :] + t[:, None] * tang[None, :]
        vals, _ = elem.tabulate(pts)
        un = vals[:, :, 0] * normal[0] + vals[:, :, 1] * normal[1]
        for m in range(degree):
            leg = np.ones_like(t) if m == 0 else 2 * t - 1
            V[elem.edge_dofs[e][m], :] = length * np.einsum("q,qj->j", wt * leg, un)
    if elem.n_interior:
        rule = triangle_rule(2 * degree + 2)
        vals, _ = elem.tabulate(rule.points)
        V[elem.interior_dofs[0], :] = np.einsum("q,qj->j", rule.weights, vals[:, :, 0])
        V[elem.interior_dofs[1], :] = np.einsum("q,qj->j", rule.weights, vals[:, :, 1])
    assert np.allclose(V, np.eye(n), atol=1e-12)


@pytest.mark.parametrize("degree", [1, 2])
def test_rt_normal_trace_localization(degree):
    """Basis functions of one edge have no normal trace on the others."""
    elem = get_element("RT", degree)
    t = np.linspace(0.05, 0.95, 7)
    for e in range(3):
        a, b = LOCAL_EDGES[e]
        pa, pb = REF_VERTICES[a], REF_VERTICES[b]
        tang = pb - pa
        normal = np.array([tang[1], -tang[0]]) / np.hypot(*tang)
        pts = pa[None, :] + t[:, None] * tang[None, :]
        vals, _ = elem.tabulate(pts)
        un = vals[:, :, 0] * normal[0] + vals[:, :, 1] * normal[1]
        for eo in range(3):
            if eo == e:
                continue
            for dof in elem.edge_dofs[eo]:
                assert np.max(np.abs(un[:, dof])) < 1e-12
        for dof in elem.interior_dofs:
            assert np.max(np.abs(un[:, dof])) < 1e-12


def test_rt1_reference_divergence():
    elem = get_element("RT", 1)
    _, divs = elem.tabulate(random_ref_points(5))
    assert np.allclose(divs, 2.0, atol=1e-12)


@pytest.mark.parametrize("degree", [1, 2])
def test_rt_divergence_matches_finite_differences(degree):
    elem = get_element("RT", degree)
    pts = random_ref_points(6, seed=3)
    _, divs = elem.tabulate(pts)
    h = 1e-6
    vxp, _ = elem.tabulate(pts + [h, 0.0])
    vxm, _ = elem.tabulate(pts - [h, 0.0])
    vyp, _ = elem.tabulate(pts + [0.0, h])
    vym, _ = elem.tabulate(pts - [0.0, h])
    fd = (vxp[:, :, 0] - vxm[:, :, 0] + vyp[:, :, 1] - vym[:, :, 1]) / (2 * h)
    assert np.allclose(divs, fd, atol=1e-7)


def test_unsupported_elements_raise():
    with pytest.raises(UnsupportedElementError):
        get_element("CG", 3)
    with pytest.raises(UnsupportedElementError):
        get_element("RT", 4)
    with pytest.raises(UnsupportedElementError):
        get_element("DG", 2)
    with pytest.raises(UnsupportedElementError):
        get_element("NED", 1)


@pytest.mark.parametrize("degree", [1, 2])
def test_skew_tensors_exact_memoized_and_read_only(degree):
    """The step's degree-2N+2 rule integrates both reference forms exactly
    (integrand degrees 3N and 3N-1), so a higher rule changes nothing
    beyond roundoff; T_Z is T_R seen through the reference curl; the
    tensors are built once and cannot be written."""
    T_R, T_C, T_Z = skew_tensors(degree, degree, 2 * degree + 2)
    n_rt, n_cg = get_element("RT", degree).ndof, get_element("CG", degree).ndof
    assert T_R.shape == (n_rt, n_cg * n_rt)
    assert T_C.shape == (n_rt, n_cg * (n_cg - 1) // 2)
    assert T_Z.shape == (n_cg, n_cg * (n_cg - 1) // 2)
    for T, ref in zip((T_R, T_C, T_Z), skew_tensors(degree, degree, 12)):
        assert np.max(np.abs(T - ref)) <= 1e-14 * np.max(np.abs(ref))
    full = T_R.reshape(n_rt, n_cg, n_rt).transpose(1, 0, 2)  # T(e_k)[a, b]
    assert np.array_equal(full, -full.transpose(0, 2, 1))
    Z = reference_curl(get_element("CG", degree), get_element("RT", degree))
    a, b = np.triu_indices(n_cg, 1)
    ref = np.stack([Z.T @ T @ Z for T in full])[:, a, b]
    assert np.max(np.abs(T_Z - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert skew_tensors(degree, degree, 2 * degree + 2)[0] is T_R
    for T in (T_R, T_C, T_Z):
        with pytest.raises(ValueError):
            T[0, 0] = 1.0
