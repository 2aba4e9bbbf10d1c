"""Reference finite elements on the unit triangle.

Supported for tabulation: continuous Lagrange (CG) of degree 1 and 2,
discontinuous Lagrange (DG) of degree 0 and 1, and Raviart-Thomas (RT)
of degree 1 and 2.  RT elements are constructed at import time by
inverting a generalized Vandermonde matrix of the degrees of freedom
(edge-normal Legendre moments plus, for RT2, interior moments).

Conventions fixed here and relied on everywhere else:
  * reference vertices v0=(0,0), v1=(1,0), v2=(0,1), area 1/2;
  * local edges (v0,v1), (v1,v2), (v2,v0), traversed counter-clockwise;
  * edge moment 0 is the plain normal flux, moment 1 is the flux against
    the odd Legendre polynomial 2t-1 of the edge parameter.

Because moment 1 is odd about the edge midpoint, a direction flip of the
edge changes the sign of moment 0 but leaves moment 1 invariant; the dof
maps in `spaces` rely on exactly this.
"""

import functools

import numpy as np

from .quadrature import interval_rule, triangle_rule

REF_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
LOCAL_EDGES = ((0, 1), (1, 2), (2, 0))


class UnsupportedElementError(ValueError):
    """Requested (family, degree) pair has no tabulation support."""


class ScalarElement:
    """Lagrange basis of degree 1 or 2 (shared by CG and DG spaces)."""

    def __init__(self, degree):
        if degree not in (0, 1, 2):
            raise UnsupportedElementError(f"scalar element degree {degree} not tabulated")
        self.degree = degree
        self.ndof = {0: 1, 1: 3, 2: 6}[degree]

    def tabulate(self, points):
        """Return (values (n_pts, ndof), gradients (n_pts, ndof, 2))."""
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        x, y = pts[:, 0], pts[:, 1]
        npt = len(pts)
        if self.degree == 0:
            vals = np.ones((npt, 1))
            grads = np.zeros((npt, 1, 2))
            return vals, grads

        lam = np.column_stack([1.0 - x - y, x, y])
        dlam = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        if self.degree == 1:
            grads = np.broadcast_to(dlam, (npt, 3, 2)).copy()
            return lam.copy(), grads

        vals = np.empty((npt, 6))
        grads = np.empty((npt, 6, 2))
        for i in range(3):
            vals[:, i] = lam[:, i] * (2.0 * lam[:, i] - 1.0)
            grads[:, i, :] = (4.0 * lam[:, i] - 1.0)[:, None] * dlam[i]
        for k, (i, j) in enumerate(LOCAL_EDGES):
            vals[:, 3 + k] = 4.0 * lam[:, i] * lam[:, j]
            grads[:, 3 + k, :] = 4.0 * (lam[:, i, None] * dlam[j] + lam[:, j, None] * dlam[i])
        return vals, grads

    def nodes(self):
        """Lagrange node coordinates matching the dof order."""
        if self.degree == 0:
            return np.array([[1.0 / 3.0, 1.0 / 3.0]])
        if self.degree == 1:
            return REF_VERTICES.copy()
        mids = np.array([0.5 * (REF_VERTICES[i] + REF_VERTICES[j]) for i, j in LOCAL_EDGES])
        return np.vstack([REF_VERTICES, mids])


def _edge_geometry(local_edge):
    a, b = LOCAL_EDGES[local_edge]
    pa, pb = REF_VERTICES[a], REF_VERTICES[b]
    tangent = pb - pa
    length = float(np.hypot(*tangent))
    normal = np.array([tangent[1], -tangent[0]]) / length  # outward for CCW cells
    return pa, pb, normal, length


def _rt_monomials(degree):
    """Monomial basis of the RT space and its divergences, as callables."""
    if degree == 1:
        funcs = [
            lambda x, y: (np.ones_like(x), np.zeros_like(x)),
            lambda x, y: (np.zeros_like(x), np.ones_like(x)),
            lambda x, y: (x, y),
        ]
        divs = [
            lambda x, y: np.zeros_like(x),
            lambda x, y: np.zeros_like(x),
            lambda x, y: 2.0 * np.ones_like(x),
        ]
    elif degree == 2:
        funcs = [
            lambda x, y: (np.ones_like(x), np.zeros_like(x)),
            lambda x, y: (x, np.zeros_like(x)),
            lambda x, y: (y, np.zeros_like(x)),
            lambda x, y: (np.zeros_like(x), np.ones_like(x)),
            lambda x, y: (np.zeros_like(x), x),
            lambda x, y: (np.zeros_like(x), y),
            lambda x, y: (x * x, x * y),
            lambda x, y: (x * y, y * y),
        ]
        divs = [
            lambda x, y: np.zeros_like(x),
            lambda x, y: np.ones_like(x),
            lambda x, y: np.zeros_like(x),
            lambda x, y: np.zeros_like(x),
            lambda x, y: np.zeros_like(x),
            lambda x, y: np.ones_like(x),
            lambda x, y: 3.0 * x,
            lambda x, y: 3.0 * y,
        ]
    else:
        raise UnsupportedElementError(f"RT element degree {degree} not tabulated")
    return funcs, divs


class RTElement:
    """Raviart-Thomas element of degree 1 (3 dofs) or 2 (8 dofs).

    Dof order: edge moments grouped per local edge (moment 0 then, for
    degree 2, moment 1), followed by the two interior moments.
    `sign_sensitive[i]` marks dofs whose global value flips when the
    local edge direction disagrees with the global edge orientation.
    """

    def __init__(self, degree):
        if degree not in (1, 2):
            raise UnsupportedElementError(f"RT element degree {degree} not tabulated")
        self.degree = degree
        self.n_edge_moments = degree
        self.n_interior = degree * (degree - 1)
        self.ndof = 3 * degree + self.n_interior
        self._funcs, self._divs = _rt_monomials(degree)
        self.edge_dofs = [
            list(range(e * degree, (e + 1) * degree)) for e in range(3)
        ]
        self.interior_dofs = list(range(3 * degree, self.ndof))
        sensitive = np.zeros(self.ndof, dtype=bool)
        for e in range(3):
            sensitive[self.edge_dofs[e][0]] = True  # moment 0 only
        self.sign_sensitive = sensitive
        self._coeffs = np.linalg.inv(self._dof_matrix())

    def _dof_matrix(self):
        n = self.ndof
        V = np.zeros((n, n))
        t, wt = interval_rule(2 * self.degree + 1)
        for e in range(3):
            pa, pb, normal, length = _edge_geometry(e)
            pts = pa[None, :] + t[:, None] * (pb - pa)[None, :]
            for m in range(self.n_edge_moments):
                leg = np.ones_like(t) if m == 0 else 2.0 * t - 1.0
                row = self.edge_dofs[e][m]
                for j, f in enumerate(self._funcs):
                    fx, fy = f(pts[:, 0], pts[:, 1])
                    un = fx * normal[0] + fy * normal[1]
                    V[row, j] = length * np.sum(wt * un * leg)
        if self.n_interior:
            rule = triangle_rule(2 * self.degree)
            qx, qy = rule.points[:, 0], rule.points[:, 1]
            for j, f in enumerate(self._funcs):
                fx, fy = f(qx, qy)
                V[self.interior_dofs[0], j] = np.sum(rule.weights * fx)
                V[self.interior_dofs[1], j] = np.sum(rule.weights * fy)
        return V

    def tabulate(self, points):
        """Return (values (n_pts, ndof, 2), divergences (n_pts, ndof))."""
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        x, y = pts[:, 0], pts[:, 1]
        nmono = len(self._funcs)
        mono = np.empty((len(pts), nmono, 2))
        mdiv = np.empty((len(pts), nmono))
        for j, (f, d) in enumerate(zip(self._funcs, self._divs)):
            fx, fy = f(x, y)
            mono[:, j, 0], mono[:, j, 1] = fx, fy
            mdiv[:, j] = d(x, y)
        vals = np.einsum("pkd,kj->pjd", mono, self._coeffs)
        divs = mdiv @ self._coeffs
        return vals, divs


def reference_curl(cg, rt):
    """Z[i, n] = RT dof i of curl w_n, curl w = (dw/dy, -dw/dx), on the
    reference cell: the curl of a CG_N basis function is exactly in RT_N.

    Both dof kinds are metric-free.  The flux of curl w through an edge
    traversed from a to b is the derivative of w along the edge, so an
    edge moment is the integral of dw/dt against the edge's Legendre
    polynomial; the Piola pullback of a physical curl is the reference
    curl, so the interior moments are reference integrals too.
    """
    N = rt.degree
    Z = np.zeros((rt.ndof, cg.ndof))
    t, wt = interval_rule(2 * N + 1)
    for e, (a, b) in enumerate(LOCAL_EDGES):
        pa, pb = REF_VERTICES[a], REF_VERTICES[b]
        _, grad = cg.tabulate(pa[None, :] + t[:, None] * (pb - pa)[None, :])
        dwdt = grad @ (pb - pa)
        for m, row in enumerate(rt.edge_dofs[e]):
            leg = np.ones_like(t) if m == 0 else 2.0 * t - 1.0
            Z[row] = (wt * leg) @ dwdt
    if rt.n_interior:
        rule = triangle_rule(2 * N)
        _, grad = cg.tabulate(rule.points)
        Z[rt.interior_dofs[0]] = rule.weights @ grad[..., 1]
        Z[rt.interior_dofs[1]] = -(rule.weights @ grad[..., 0])
    # basis functions that vanish on an edge have no flux through it; the
    # rounding of the edge points leaves ~1e-16 there instead of zero
    Z[np.abs(Z) < 1e-12] = 0.0
    return Z


@functools.lru_cache(maxsize=None)
def skew_tensors(cg_degree, rt_degree, qdegree):
    """Reference tensors of the rotation, the convection and the rotation
    in stream-function space, metric-free on affine cells (see assemble),
    each skew in (a, b), with w the CG and r the RT reference basis:
      T_R[k, a, b] = sum_q w_q w_k (r_a,y r_b,x - r_a,x r_b,y)
      T_C[k, a, b] = skew_ab sum_q w_q (r_k . grad w_a + div r_k w_a) w_b
      T_Z[k, a, b] = (Z^T T_R[k] Z)[a, b],  Z = reference_curl
    T_C and T_Z, which are scattered, are kept as their entries a < b,
    T[k, p] for the p-th pair of np.triu_indices(n, 1).  T_R, which is
    applied per cell, is kept whole and laid out for one GEMM,
    T_R[a, k n + b]: T(omega_c) x_c = T_R @ (omega_c (x) x_c).  Read-only."""
    cg, rt = get_element("CG", cg_degree), get_element("RT", rt_degree)
    rule = triangle_rule(qdegree)
    w, wg = cg.tabulate(rule.points)
    r, rdiv = rt.tabulate(rule.points)
    E = np.einsum("q,qk,qa,qb->kab", rule.weights, w, r[..., 1], r[..., 0])
    E = E - np.transpose(E, (0, 2, 1))
    G = (np.einsum("q,qk,qa,qb->kab", rule.weights, rdiv, w, w)
         + np.einsum("q,qkd,qad,qb->kab", rule.weights, r, wg, w))
    Z = reference_curl(cg, rt)
    S = np.einsum("am,kab,bn->kmn", Z, E, Z)
    T_R = np.ascontiguousarray(np.transpose(E, (1, 0, 2))).reshape(rt.ndof, -1)
    a, b = np.triu_indices(cg.ndof, 1)
    T_C = 0.5 * (G[:, b, a] - G[:, a, b])
    T_Z = S[:, a, b]
    for T in (T_R, T_C, T_Z):
        T.flags.writeable = False
    return T_R, T_C, T_Z


_CACHE = {}


def get_element(family, degree):
    """Reference element for (family, degree); raises UnsupportedElementError."""
    key = (family, degree)
    if key in _CACHE:
        return _CACHE[key]
    if family in ("CG", "DG"):
        if family == "CG" and degree not in (1, 2):
            raise UnsupportedElementError(f"CG_{degree} tabulation not supported (use degree 1 or 2)")
        if family == "DG" and degree not in (0, 1):
            raise UnsupportedElementError(f"DG_{degree} tabulation not supported (use degree 0 or 1)")
        elem = ScalarElement(degree)
    elif family == "RT":
        elem = RTElement(degree)
    else:
        raise UnsupportedElementError(f"unknown element family {family!r}")
    _CACHE[key] = elem
    return elem
