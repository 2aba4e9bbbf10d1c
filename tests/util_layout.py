"""The element families as the package once wrote them by hand: test oracles.

`elements.entity_dofs` states each family's dofs per vertex, edge and
cell once, and `RTElement._monomials` builds the RT space from P_{N-1}.
Before that, the RT monomials were a hand table, the dimensions three
closed forms, the dof maps three per-family branches of
`spaces.make_space` and the boundary dofs of `spaces.normal_trace_dofs`
and `spaces.wall_trace_dofs` hand offsets (the latter right for CG1 and
CG2 only).  Those are kept here, as they were, so the tests can show the
derived versions equal them byte for byte.
"""

import numpy as np


def rt_monomials(degree):
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
        raise ValueError(f"RT element degree {degree} not tabulated")
    return funcs, divs


def rt_monomial_table(degree, points):
    """The table's monomials (n_pts, ndof, 2) and divergences (n_pts, ndof)."""
    funcs, divs = rt_monomials(degree)
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    x, y = pts[:, 0], pts[:, 1]
    mono = np.empty((len(pts), len(funcs), 2))
    mdiv = np.empty((len(pts), len(funcs)))
    for j, (f, d) in enumerate(zip(funcs, divs)):
        mono[:, j, 0], mono[:, j, 1] = f(x, y)
        mdiv[:, j] = d(x, y)
    return mono, mdiv


def closed_form_dimension(family, degree, num_vertices, num_edges, num_cells):
    """Closed-form dof count on triangles for any degree >= 1 (DG: >= 0)."""
    V, E, C = num_vertices, num_edges, num_cells
    if family == "CG":
        return V + (degree - 1) * E + ((degree - 1) * (degree - 2) // 2) * C
    if family == "RT":
        return degree * E + degree * (degree - 1) * C
    return ((degree + 1) * (degree + 2) // 2) * C


def family_dof_map(mesh, family, degree):
    """(cell_dofs, cell_dof_signs) of a tabulated degree, numbered family
    by family: CG by vertex ids then edge midpoints, DG cell by cell, RT
    by N moments per edge (moment 0 signed) then the interior moments."""
    C = mesh.num_cells
    V, E = mesh.num_vertices, mesh.num_edges
    if family == "CG":
        if degree == 1:
            dofs = mesh.cells.copy()
        else:
            dofs = np.hstack([mesh.cells, V + mesh.cell_edges])
        signs = np.ones(dofs.shape)
    elif family == "DG":
        nd = {0: 1, 1: 3}[degree]
        dofs = nd * np.arange(C, dtype=np.int64)[:, None] + np.arange(nd, dtype=np.int64)[None, :]
        signs = np.ones(dofs.shape)
    else:  # RT
        N = degree
        ndof = 3 * N + N * (N - 1)
        edge_dofs = [list(range(e * N, (e + 1) * N)) for e in range(3)]
        interior_dofs = list(range(3 * N, ndof))
        sign_sensitive = np.zeros(ndof, dtype=bool)
        for e in range(3):
            sign_sensitive[edge_dofs[e][0]] = True  # moment 0 only
        dofs = np.zeros((C, ndof), dtype=np.int64)
        signs = np.ones((C, ndof))
        for loc in range(3):
            e = mesh.cell_edges[:, loc]
            s = mesh.cell_edge_signs[:, loc]
            for m in range(N):
                col = edge_dofs[loc][m]
                dofs[:, col] = N * e + m
                if sign_sensitive[col]:
                    signs[:, col] = s
        for k, col in enumerate(interior_dofs):
            dofs[:, col] = N * E + len(interior_dofs) * np.arange(C, dtype=np.int64) + k
    return dofs.astype(np.int64), signs.astype(float)


def hand_normal_trace_dofs(space):
    """RT dofs on the boundary edges, N moments per edge from N * edge."""
    N = space.degree
    bedges = space.mesh.boundary_edges
    return np.sort(np.concatenate([N * bedges + m for m in range(N)])) if len(bedges) else np.array([], dtype=np.int64)


def hand_wall_trace_dofs(space, tags):
    """CG1/CG2 dofs on the tagged walls: vertex ids, and for CG2 the edge
    midpoints numbered after the vertices."""
    mesh = space.mesh
    e = np.flatnonzero(np.isin(mesh.edge_tags, tags))
    dofs = [mesh.edges[e].ravel()] + ([mesh.num_vertices + e] if space.degree == 2 else [])
    return np.unique(np.concatenate(dofs))
