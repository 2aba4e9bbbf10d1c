"""Reference finite elements on the unit triangle.

Each family is stated once, here:
  * its dofs per vertex, per edge and per cell, for any degree
    (entity_dofs): the dof maps and dimensions of `spaces` read them;
  * its tabulated degrees (TABULATED): continuous Lagrange (CG) of degree
    1 and 2, discontinuous Lagrange (DG) of degree 0 and 1, and
    Raviart-Thomas (RT) of degree 1 and 2.

The RT space is built from its definition, RT_N = P_{N-1}^2 + x P~_{N-1},
with P_{N-1} the polynomials of degree <= N-1 and P~_{N-1} its
homogeneous ones of degree N-1 (RTElement._monomials); by Euler's
identity, div (x p) = (N+1) p for p in P~_{N-1}.

The RT degrees of freedom are defined once, here, as functionals at
reference points (RTElement.dof_points, applied by RTElement.dofs): the
edge-normal Legendre moments plus, for RT2, the interior moments.  Their
three users apply them: the basis inverts the dofs of the monomials,
reference_curl takes the dofs of the CG curls, and spaces.interpolate
the dofs of each cell's Piola pullback.

Conventions fixed here and relied on everywhere else:
  * reference vertices v0=(0,0), v1=(1,0), v2=(0,1), area 1/2;
  * local edges (v0,v1), (v1,v2), (v2,v0), traversed counter-clockwise;
  * local dofs in entity order: those of the 3 vertices, of each local
    edge in turn, then of the cell;
  * edge moment 0 is the plain normal flux, moment 1 is the flux against
    the odd Legendre polynomial 2t-1 of the edge parameter.

Because moment 1 is odd about the edge midpoint, a direction flip of the
edge changes the sign of moment 0 but leaves moment 1 invariant; the dof
maps in `spaces` rely on exactly this.

Assembly tabulates the elements here alone, at reference points: the
reference tensors of the forms (form_tensor for the static bilinear
forms, skew_tensors for the per-step skew ones) are built once per
degree, each exact at the rule of its integrand's polynomial degree,
which no caller chooses (_degree: CG_N and DG_N lie in P_N, RT_N in
P_N^2, and a derivative lowers it by one), and `assemble` contracts them
with per-cell geometry.  Only the RT dofs keep a chosen rule:
spaces.interpolate applies them to analytic fields, which no rule
integrates exactly.
"""

import functools

import numpy as np

from .quadrature import interval_rule, triangle_rule

REF_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
LOCAL_EDGES = ((0, 1), (1, 2), (2, 0))

# the degrees each family tabulates; CG and DG share the Lagrange basis
TABULATED = {"CG": (1, 2), "DG": (0, 1), "RT": (1, 2)}


class UnsupportedElementError(ValueError):
    """Requested (family, degree) pair has no tabulation support."""


def entity_dofs(family, degree):
    """The dofs (per vertex, per edge, per cell) of a family on triangles,
    for any degree: CG_N (1, N-1, (N-1)(N-2)/2), RT_N (0, N, N(N-1)) and
    DG_k (0, 0, (k+1)(k+2)/2)."""
    N = degree
    if family == "CG":
        if N < 1:
            raise ValueError("CG degree must be >= 1")
        return 1, N - 1, (N - 1) * (N - 2) // 2
    if family == "RT":
        if N < 1:
            raise ValueError("RT degree must be >= 1")
        return 0, N, N * (N - 1)
    if family == "DG":
        if N < 0:
            raise ValueError("DG degree must be >= 0")
        return 0, 0, (N + 1) * (N + 2) // 2
    raise ValueError(f"unknown family {family!r} (expected CG, RT or DG)")


class ScalarElement:
    """Lagrange basis of a TABULATED CG or DG degree (shared by both)."""

    def __init__(self, degree):
        if degree not in TABULATED["CG"] + TABULATED["DG"]:
            raise UnsupportedElementError(f"scalar element degree {degree} not tabulated")
        self.degree = degree
        self.ndof = entity_dofs("DG", degree)[2]

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


class RTElement:
    """Raviart-Thomas element of a TABULATED degree (3 dofs for RT1, 8 for
    RT2).  Dof order, as entity_dofs lays it out: the edge moments grouped
    per local edge (moment 0, then moment 1), then the interior moments.
    """

    def __init__(self, degree):
        if degree not in TABULATED["RT"]:
            raise UnsupportedElementError(f"RT element degree {degree} not tabulated")
        self.degree = degree
        _, per_edge, self.n_interior = entity_dofs("RT", degree)
        self.ndof = 3 * per_edge + self.n_interior
        self.edge_dofs = [list(range(e * per_edge, (e + 1) * per_edge)) for e in range(3)]
        self.interior_dofs = list(range(3 * per_edge, self.ndof))
        self.dof_points, self._functionals = self._dof_functionals()
        mono, _ = self._monomials(self.dof_points)
        self._coeffs = np.linalg.inv(self.dofs(np.swapaxes(mono, 0, 1)).T)

    def _dof_functionals(self):
        """The dofs as reference points (P, 2) and weights, laid out for
        `dofs` as (2P, ndof): the edge moments on the degree-2N+3 interval
        rule of each local edge, then the interior moments on the
        degree-2N+2 triangle rule."""
        N = self.degree
        t, wt = interval_rule(2 * N + 3)
        pts, wts = triangle_rule(2 * N + 2)
        points = np.concatenate(
            [REF_VERTICES[a] + t[:, None] * (REF_VERTICES[b] - REF_VERTICES[a]) for a, b in LOCAL_EDGES]
            + ([pts] if self.n_interior else []))
        w = np.zeros((self.ndof, len(points), 2))
        for e, (a, b) in enumerate(LOCAL_EDGES):
            tx, ty = REF_VERTICES[b] - REF_VERTICES[a]
            for m, row in enumerate(self.edge_dofs[e]):
                # length (f . n), n = (t_y, -t_x) / length, against Legendre m
                w[row, e * len(t):(e + 1) * len(t)] = np.multiply.outer(wt * (2.0 * t - 1.0) ** m, [ty, -tx])
        for k, row in enumerate(self.interior_dofs):
            w[row, 3 * len(t):, k] = wts
        return points, w.reshape(self.ndof, -1).T

    def dofs(self, samples):
        """The dofs of reference fields sampled at dof_points, samples
        (..., P, 2) -> (..., ndof): dof_i(f) = sum_p w[i, p] . f(x_p)."""
        return samples.reshape(samples.shape[:-2] + (-1,)) @ self._functionals

    def _monomials(self, points):
        """The monomial basis of RT_N = P_{N-1}^2 + x P~_{N-1}, (n_pts, ndof,
        2), and its divergences (n_pts, ndof): with p the k monomials x^a
        y^b of P_{N-1} by degree, the last N homogeneous, the basis is (p,
        0), (0, p), x p~ and its divergences p_x, p_y, (N+1) p~ (Euler)."""
        N = self.degree
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        x, y = pts[:, 0], pts[:, 1]
        powers = [(d - i, i) for d in range(N) for i in range(d + 1)]
        k = len(powers)
        mono = np.zeros((len(pts), self.ndof, 2))
        mdiv = np.zeros((len(pts), self.ndof))
        for j, (a, b) in enumerate(powers):
            mono[:, j, 0] = mono[:, k + j, 1] = x ** a * y ** b
            if a:
                mdiv[:, j] = a * x ** (a - 1) * y ** b
            if b:
                mdiv[:, k + j] = b * x ** a * y ** (b - 1)
        h = mono[:, k - N:k, 0]
        mono[:, 2 * k:, 0] = x[:, None] * h
        mono[:, 2 * k:, 1] = y[:, None] * h
        mdiv[:, 2 * k:] = (N + 1) * h
        return mono, mdiv

    def tabulate(self, points):
        """Return (values (n_pts, ndof, 2), divergences (n_pts, ndof))."""
        mono, mdiv = self._monomials(points)
        vals = np.einsum("pkd,kj->pjd", mono, self._coeffs)
        divs = mdiv @ self._coeffs
        return vals, divs


def reference_curl(cg, rt):
    """Z[i, n] = RT dof i of curl w_n, curl w = (dw/dy, -dw/dx), on the
    reference cell: the curl of a CG_N basis function is exactly in RT_N.

    The dofs are metric-free: the Piola pullback of a physical curl is the
    reference curl, so rt.dofs of the reference curls at its dof points
    are every cell's local dofs.
    """
    _, grad = cg.tabulate(rt.dof_points)
    Z = np.ascontiguousarray(rt.dofs(np.stack([grad[..., 1], -grad[..., 0]], axis=-1).swapaxes(0, 1)).T)
    # basis functions that vanish on an edge have no flux through it; the
    # rounding of the edge points leaves ~1e-16 there instead of zero
    Z[np.abs(Z) < 1e-12] = 0.0
    return Z


@functools.lru_cache(maxsize=None)
def skew_tensors(cg_degree, rt_degree):
    """Reference tensors of the rotation, the convection and the rotation
    in stream-function space, metric-free on affine cells (see assemble),
    each skew in (a, b), with w the CG and r the RT reference basis:
      T_R[k, a, b] = sum_q w_q w_k (r_a,y r_b,x - r_a,x r_b,y)
      T_C[k, a, b] = skew_ab sum_q w_q (r_k . grad w_a + div r_k w_a) w_b
      T_Z[k, a, b] = (Z^T T_R[k] Z)[a, b],  Z = reference_curl
    at the rule of degree cg + 2 rt, that of w_k r_a r_b, exact for both.
    T_C and T_Z, which are scattered, are kept as their entries a < b,
    T[k, p] for the p-th pair of np.triu_indices(n, 1).  T_R, which is
    applied per cell, is kept whole and laid out for one GEMM,
    T_R[a, k n + b]: T(omega_c) x_c = T_R @ (omega_c (x) x_c).  Read-only."""
    cg, rt = get_element("CG", cg_degree), get_element("RT", rt_degree)
    pts, wts = triangle_rule(cg_degree + 2 * rt_degree)
    w, wg = cg.tabulate(pts)
    r, rdiv = rt.tabulate(pts)
    E = np.einsum("q,qk,qa,qb->kab", wts, w, r[..., 1], r[..., 0])
    E = E - np.transpose(E, (0, 2, 1))
    G = (np.einsum("q,qk,qa,qb->kab", wts, rdiv, w, w)
         + np.einsum("q,qkd,qad,qb->kab", wts, r, wg, w))
    Z = reference_curl(cg, rt)
    S = np.einsum("am,kab,bn->kmn", Z, E, Z)
    T_R = np.ascontiguousarray(np.transpose(E, (1, 0, 2))).reshape(rt.ndof, -1)
    a, b = np.triu_indices(cg.ndof, 1)
    T_C = 0.5 * (G[:, b, a] - G[:, a, b])
    T_Z = S[:, a, b]
    for T in (T_R, T_C, T_Z):
        T.flags.writeable = False
    return T_R, T_C, T_Z


def _degree(factor):
    """The polynomial degree of a factor (family, degree, derivative)."""
    return factor[1] - factor[2]


def _table(factor, points):
    """The reference table (n_pts, m, ndof) of a form's factor (family,
    degree, derivative): a scalar basis has m=1 and its gradient m=2, an
    RT basis m=2 and its divergence m=1."""
    family, degree, derivative = factor
    table = get_element(family, degree).tabulate(points)[int(derivative)]
    return table[:, None, :] if table.ndim == 2 else np.swapaxes(table, 1, 2)


@functools.lru_cache(maxsize=None)
def form_tensor(test, trial, on_edges=False):
    """Reference tensor of the bilinear form of two factors, each (family,
    degree, derivative) as in _table, laid out for one GEMM:

      T[e m_b + f, a n_b + b] = sum_q w_q A[q, e, a] B[q, f, b]

    with A the test's and B the trial's table, integrated exactly: at the
    triangle rule of the product's degree (_degree), or, `on_edges`, at
    the interval rule of that degree on each local edge in turn, the three
    blocks stacked along the first axis.  An edge's weights sum to 1, not
    to its reference length.  Read-only."""
    qdegree = max(1, _degree(test) + _degree(trial))
    if on_edges:
        t, w = interval_rule(qdegree)
        rules = [(REF_VERTICES[a] + t[:, None] * (REF_VERTICES[b] - REF_VERTICES[a]), w)
                 for a, b in LOCAL_EDGES]
    else:
        rules = [triangle_rule(qdegree)]
    blocks = []
    for pts, w in rules:
        A, B = _table(test, pts), _table(trial, pts)
        blocks.append(np.einsum("q,qea,qfb->efab", w, A, B).reshape(A.shape[1] * B.shape[1], -1))
    T = np.concatenate(blocks)
    T.flags.writeable = False
    return T


@functools.lru_cache(maxsize=None)
def get_element(family, degree):
    """Reference element for a (family, degree) of TABULATED, built once;
    raises UnsupportedElementError for any other."""
    if family not in TABULATED:
        raise UnsupportedElementError(f"unknown element family {family!r}")
    if degree not in TABULATED[family]:
        raise UnsupportedElementError(f"{family}_{degree} tabulation not supported "
                                      f"(use degree {' or '.join(map(str, TABULATED[family]))})")
    return RTElement(degree) if family == "RT" else ScalarElement(degree)
