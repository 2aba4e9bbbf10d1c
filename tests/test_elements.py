import numpy as np
import pytest

from dualflow import assemble, elements
from dualflow.elements import (
    LOCAL_EDGES,
    REF_VERTICES,
    TABULATED,
    RTElement,
    ScalarElement,
    UnsupportedElementError,
    _degree,
    _table,
    entity_dofs,
    form_tensor,
    get_element,
    reference_curl,
    skew_tensors,
)
from dualflow.mesh import ChannelGeometry, build_channel_mesh, build_periodic_rect_mesh
from dualflow.quadrature import interval_rule, triangle_rule
from dualflow.stepper import Model, PhysicsConfig, TimeConfig

from util_layout import rt_monomial_table


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
        points, weights = triangle_rule(2 * degree + 2)
        vals, _ = elem.tabulate(points)
        V[elem.interior_dofs[0], :] = np.einsum("q,qj->j", weights, vals[:, :, 0])
        V[elem.interior_dofs[1], :] = np.einsum("q,qj->j", weights, vals[:, :, 1])
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
    # a direct constructor refuses too, rather than build a basis whose dofs were never defined
    for make, degree in ((RTElement, 3), (RTElement, 0), (ScalarElement, 3)):
        with pytest.raises(UnsupportedElementError):
            make(degree)


@pytest.mark.parametrize("family, degree, message", [
    ("CG", 0, "CG degree must be >= 1"),
    ("RT", 0, "RT degree must be >= 1"),
    ("DG", -1, "DG degree must be >= 0"),
    ("NED", 1, "unknown family 'NED'"),
])
def test_entity_dofs_refusals(family, degree, message):
    with pytest.raises(ValueError, match=message):
        entity_dofs(family, degree)


@pytest.mark.parametrize("where", ["dof_points", "rule"])
@pytest.mark.parametrize("degree", [1, 2])
def test_rt_monomials_equal_the_old_table(degree, where):
    """The RT monomials built from P_{N-1}, and their Euler divergences,
    are the old hand table's, byte for byte, as C-contiguous arrays (the
    einsum of skew_tensors takes another path on a strided array)."""
    elem = get_element("RT", degree)
    pts = elem.dof_points if where == "dof_points" else triangle_rule(9)[0]
    for new, old in zip(elem._monomials(pts), rt_monomial_table(degree, pts)):
        assert new.flags.c_contiguous
        assert new.dtype == old.dtype and new.shape == old.shape
        assert new.tobytes() == old.tobytes()


def at_rule(tensor, degree, *args):
    """The reference tensor `tensor` (form_tensor or skew_tensors) of
    `args`, integrated at the degree-`degree` rules instead of the ones
    `elements` derives, and not cached.  The elements are built first, so
    that their dof functionals keep their own rules."""
    for family, degrees in TABULATED.items():
        for d in degrees:
            get_element(family, d)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(elements, "triangle_rule", lambda _: triangle_rule(degree))
        patch.setattr(elements, "interval_rule", lambda _: interval_rule(degree))
        return tensor.__wrapped__(*args)


def assert_same(T, ref, rtol=1e-14):
    assert np.max(np.abs(T - ref)) <= rtol * np.max(np.abs(ref))


@pytest.mark.parametrize("degree", [1, 2])
def test_skew_tensors_exact_memoized_and_read_only(degree):
    """The derived rule, of degree 3N, that of w_k r_a r_b, integrates
    both reference forms exactly, so the degree-3N+4 rule changes nothing
    beyond roundoff; T_Z is T_R seen through the reference curl; the
    tensors are built once and cannot be written."""
    T_R, T_C, T_Z = skew_tensors(degree, degree)
    n_rt, n_cg = get_element("RT", degree).ndof, get_element("CG", degree).ndof
    assert T_R.shape == (n_rt, n_cg * n_rt)
    assert T_C.shape == (n_rt, n_cg * (n_cg - 1) // 2)
    assert T_Z.shape == (n_cg, n_cg * (n_cg - 1) // 2)
    for T, ref in zip((T_R, T_C, T_Z), at_rule(skew_tensors, 3 * degree + 4, degree, degree)):
        assert_same(T, ref, 1e-13)
    full = T_R.reshape(n_rt, n_cg, n_rt).transpose(1, 0, 2)  # T(e_k)[a, b]
    assert np.array_equal(full, -full.transpose(0, 2, 1))
    Z = reference_curl(get_element("CG", degree), get_element("RT", degree))
    a, b = np.triu_indices(n_cg, 1)
    assert_same(T_Z, np.stack([Z.T @ T @ Z for T in full])[:, a, b])
    assert skew_tensors(degree, degree)[0] is T_R
    for T in (T_R, T_C, T_Z):
        with pytest.raises(ValueError):
            T[0, 0] = 1.0


def assembled_forms(N, monkeypatch):
    """The arguments (test, trial, on_edges) of every form tensor that the
    models of degree N assemble: a turbidity channel's and a torus's, each
    with its pressure tree and the integrals <q_i, 1> of its mean."""
    seen = set()

    def recorded(*args):
        seen.add(args)
        return form_tensor(*args)

    monkeypatch.setattr(assemble, "form_tensor", recorded)
    channel = build_channel_mesh(ChannelGeometry(length=2.0, height=1.0, lock_length=1.0), 4, 2, "crisscross")
    torus = build_periodic_rect_mesh(1.0, 1.0, 3, 3, "left")
    for mesh, physics in ((channel, PhysicsConfig()), (torus, PhysicsConfig(mode="homogeneous"))):
        Model(mesh, N, physics, TimeConfig(dt=1e-3, t_end=1.0)).pressure_tree  # built on first use
    monkeypatch.undo()
    return sorted(seen)


@pytest.mark.parametrize("N", [1, 2])
def test_form_tensors_integrate_exactly(N, monkeypatch):
    """Every form tensor a model assembles, on the cell and on its edges,
    is the same at the rule `elements` derives from its integrand's
    degree as at the degree-3N+4 rule, to 1e-13: the derived rule is
    exact."""
    forms = assembled_forms(N, monkeypatch)
    assert {on_edges for *_, on_edges in forms} == {False, True} and len(forms) >= 10
    for args in forms:
        assert_same(form_tensor(*args), at_rule(form_tensor, 3 * N + 4, *args), 1e-13)


FACTORS = [(family, degree, derivative) for family, degrees in TABULATED.items() for degree in degrees
           for derivative in ((False,) if family == "DG" else (False, True))]


@pytest.mark.parametrize("factor", FACTORS, ids=[f"{f}{d}{'-d' * der}" for f, d, der in FACTORS])
def test_factor_degree_is_exact(factor):
    """_degree is a factor's polynomial degree, no more and no less: along
    a line through the cell, every entry of its table is a polynomial of
    that degree, and not all are of a lower one."""
    t = np.linspace(0.0, 1.0, 9)
    table = _table(factor, [0.1, 0.2] + t[:, None] * [0.5, 0.3]).reshape(len(t), -1)
    scale = np.max(np.abs(table))

    def misfit(degree):
        if degree < 0:
            return scale
        fit = np.polynomial.polynomial.polyfit(t, table, degree)
        return np.max(np.abs(np.polynomial.polynomial.polyval(t, fit).T - table))

    degree = _degree(factor)
    assert misfit(degree) <= 1e-12 * scale
    assert misfit(degree - 1) > 1e-6 * scale
