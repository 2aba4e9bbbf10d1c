import numpy as np
import pytest
import scipy.sparse as sp

from dualflow import linsolve
from dualflow.assemble import assemble_div, assemble_integrals, assemble_mass
from dualflow.linsolve import CachedLU, SolverError, lu_solve, project_out_constant
from dualflow.mesh import ChannelGeometry, build_channel_mesh
from dualflow.spaces import (
    constant_coefficients,
    free_dofs,
    make_space,
    normal_trace_dofs,
)

from saddle_oracle import solve_saddle
from util_project import project


@pytest.fixture
def channel():
    geom = ChannelGeometry(length=2.0, height=1.0, lock_length=0.5)
    return build_channel_mesh(geom, 5, 3, "left")


def test_lu_identity():
    A = sp.identity(3, format="csr")
    b = np.array([3.0, -1.0, 2.0])
    x, rep = lu_solve(A, b, CachedLU(A))
    assert np.allclose(x, b)
    assert rep.refinements == 0


def test_lu_2x2_hand_solve():
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    x, _ = lu_solve(A, np.array([3.0, 3.0]), CachedLU(A))
    assert np.allclose(x, [1.0, 1.0], atol=1e-14)


def test_lu_mass_solve_gives_ones(channel):
    W = make_space(channel, "CG", 1)
    f = project(W, lambda x, y: 1.0)  # internally a mass solve
    assert np.allclose(f, 1.0, atol=1e-12)


def test_lu_report_is_truthful(channel):
    W = make_space(channel, "CG", 2)
    M = assemble_mass(W)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(W.dim)
    x, rep = lu_solve(M, b, CachedLU(M))
    assert abs(M @ x - b).max() <= rep.residual + 1e-16
    assert rep.residual <= 1e-10 * (1 + abs(b).max())


def test_lu_singular_reported():
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SolverError):
        lu_solve(A, np.array([1.0, 0.0]), CachedLU(A))


def test_cached_lu_reuse(channel, monkeypatch):
    W = make_space(channel, "CG", 1)
    M = assemble_mass(W).tocsc()
    cached = CachedLU(M)

    def no_factorization(*args, **kwargs):
        raise AssertionError("a solve with a cached factor called splu")

    monkeypatch.setattr(linsolve.spla, "splu", no_factorization)
    rng = np.random.default_rng(1)
    for _ in range(3):
        b = rng.standard_normal(W.dim)
        x, _ = lu_solve(M, b, cached)
        assert abs(M @ x - b).max() < 1e-10


def mass_plus_skew(channel, scale):
    """The shape of every per-step matrix: a static SPD part plus an exactly
    skew term, its entries up to `scale` times the largest static one;
    returns (static, static + skew)."""
    W = make_space(channel, "CG", 2)
    M = assemble_mass(W).tocsr()
    G = sp.random(W.dim, W.dim, density=0.01, random_state=7, format="csr")
    return M, (M + (scale * abs(M).max() * (G - G.T)).tocsr()).tocsr()


def test_refinement_against_a_near_factor(channel, factorizations):
    M, A = mass_plus_skew(channel, 1e-4)
    factor = CachedLU(M)
    factorizations.clear()
    b = np.random.default_rng(2).standard_normal(A.shape[0])
    x, rep = lu_solve(A, b, factor)
    assert factorizations == []
    assert not rep.fallback
    assert 1 <= rep.refinements <= linsolve.MAX_REFINE
    assert abs(A @ x - b).max() <= rep.residual + 1e-16
    assert rep.residual <= 1e-10 * (1 + abs(b).max())


def test_refinement_against_a_far_factor_falls_back(channel, factorizations):
    M, A = mass_plus_skew(channel, 10.0)
    factor = CachedLU(M)
    factorizations.clear()
    b = np.random.default_rng(3).standard_normal(A.shape[0])
    x, rep = lu_solve(A, b, factor)
    assert len(factorizations) == 1  # the fresh factor of A
    assert rep.fallback
    assert abs(A @ x - b).max() <= rep.residual + 1e-16
    assert rep.residual <= 1e-10 * (1 + abs(b).max())


def test_fallback_factors_the_matrix_it_refines(channel, factorizations, monkeypatch):
    """A per-step system is one sparse matrix: refinement applies it, and a
    solve that falls back factors that same matrix, once."""
    built = []

    class Recorded(CachedLU):
        def __init__(self, matrix):
            built.append(matrix)
            super().__init__(matrix)

    monkeypatch.setattr(linsolve, "CachedLU", Recorded)
    for scale, fallback in ((1e-4, False), (10.0, True)):
        M, A = mass_plus_skew(channel, scale)
        factor = CachedLU(M)
        factorizations.clear()
        b = np.random.default_rng(3).standard_normal(A.shape[0])
        x, rep = lu_solve(A, b, factor)
        assert rep.fallback == fallback
        assert len(built) == len(factorizations) == int(fallback)
        assert all(matrix is A for matrix in built)
        assert abs(A @ x - b).max() <= rep.residual + 1e-16
        assert rep.residual <= 1e-10 * (1 + abs(b).max())
        built.clear()


def test_own_factor_stops_at_the_roundoff_floor(channel):
    """Against the factor of A itself the first solve is already at
    eps (||A|| ||x|| + ||b||): no refinement pass."""
    W = make_space(channel, "CG", 2)
    M = assemble_mass(W)
    factor = CachedLU(M)
    assert factor.norm == abs(M).sum(axis=1).max()
    b = np.random.default_rng(6).standard_normal(W.dim)
    x, rep = lu_solve(M, b, factor)
    assert rep.refinements == 0
    assert rep.residual <= linsolve.EPS * (factor.norm * abs(x).max() + abs(b).max())


def counted_solves(factor, monkeypatch):
    """The triangular solves made with `factor` from here on, as a list."""
    calls = []
    solve = factor.solve

    def counted(rhs):
        calls.append(rhs)
        return solve(rhs)

    monkeypatch.setattr(factor, "solve", counted)
    return calls


def test_warm_start_saves_the_first_solve(channel, monkeypatch):
    """From an x0 near the solution, refinement against a near factor meets
    the postcondition with fewer triangular solves than from S^-1 b; the
    report counts its passes, one per solve, and x0 is left as it was."""
    M, A = mass_plus_skew(channel, 1e-4)
    factor = CachedLU(M)
    rng = np.random.default_rng(8)
    b = rng.standard_normal(A.shape[0])
    x_cold, cold = lu_solve(A, b, factor)
    x0 = x_cold + 1e-6 * abs(x_cold).max() * rng.standard_normal(A.shape[0])
    start = x0.copy()
    calls = counted_solves(factor, monkeypatch)
    x, warm = lu_solve(A, b, factor, x0=x0)
    assert not warm.fallback
    assert len(calls) == warm.refinements < cold.refinements + 1
    assert abs(A @ x - b).max() <= warm.residual + 1e-16
    assert warm.residual <= 1e-10 * (1 + abs(b).max())
    assert np.array_equal(x0, start)


def test_warm_start_at_the_floor_takes_no_solve(channel, monkeypatch):
    """An x0 already at the roundoff floor is returned with no triangular
    solve."""
    M, A = mass_plus_skew(channel, 1e-4)
    factor = CachedLU(M)
    calls = counted_solves(factor, monkeypatch)
    x0 = np.zeros(A.shape[0])
    x, rep = lu_solve(A, np.zeros(A.shape[0]), factor, x0=x0)
    assert calls == [] and rep.refinements == 0 and rep.residual == 0.0
    assert np.array_equal(x, x0)


def test_own_factor_ignores_the_start(channel):
    """Against A's own factor no pass is taken, so x0 = 0 would come back
    unsolved: the start is ignored and the solve is the cold one."""
    W = make_space(channel, "CG", 2)
    M = assemble_mass(W)
    factor = CachedLU(M)
    b = np.random.default_rng(9).standard_normal(W.dim)
    x_cold, cold = lu_solve(M, b, factor)
    x, rep = lu_solve(M, b, factor, x0=np.zeros(W.dim))
    assert rep.refinements == 0 and not rep.fallback
    assert np.array_equal(x, x_cold) and rep.residual == cold.residual


def test_warm_start_against_a_far_factor_falls_back(channel, factorizations):
    M, A = mass_plus_skew(channel, 10.0)
    factor = CachedLU(M)
    factorizations.clear()
    rng = np.random.default_rng(10)
    b = rng.standard_normal(A.shape[0])
    x, rep = lu_solve(A, b, factor, x0=rng.standard_normal(A.shape[0]))
    assert len(factorizations) == 1  # the fresh factor of A
    assert rep.fallback
    assert abs(A @ x - b).max() <= rep.residual + 1e-16
    assert rep.residual <= 1e-10 * (1 + abs(b).max())


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_a_non_finite_start_falls_back(channel, factorizations, bad):
    """A start that is not finite leaves a residual that is not finite
    either: refinement takes no pass, and the solve falls back to a fresh
    factor of A, which meets RTOL from scratch."""
    M, A = mass_plus_skew(channel, 1e-4)
    factor = CachedLU(M)
    factorizations.clear()
    rng = np.random.default_rng(11)
    b = rng.standard_normal(A.shape[0])
    x0 = rng.standard_normal(A.shape[0])
    x0[1] = bad
    x, rep = lu_solve(A, b, factor, x0=x0)
    assert len(factorizations) == 1  # the fresh factor of A
    assert rep.fallback and rep.refinements == 0
    assert abs(A @ x - b).max() <= rep.residual + 1e-16
    assert rep.residual <= linsolve.RTOL * (1 + abs(b).max())


def saddle_blocks(channel, N=1):
    U = make_space(channel, "RT", N)
    Q = make_space(channel, "DG", N - 1)
    M = assemble_mass(U)
    D = assemble_div(U, Q)
    iu = free_dofs(U, normal_trace_dofs(U))
    A = M[iu][:, iu]
    Dr = D[:, iu].tocsr()
    return A, Dr, assemble_integrals(Q), channel.total_area(), Q


def test_saddle_zero_rhs(channel):
    A, Dr, integrals, area, _ = saddle_blocks(channel)
    u, p, rep = solve_saddle(A, Dr, np.zeros(A.shape[0]), integrals, area)
    assert np.max(np.abs(u)) < 1e-14
    assert np.max(np.abs(p)) < 1e-14


def test_saddle_postconditions_random_rhs(channel):
    A, Dr, integrals, area, Q = saddle_blocks(channel)
    rng = np.random.default_rng(3)
    f = rng.standard_normal(A.shape[0])
    u, p, rep = solve_saddle(A, Dr, f, integrals, area)
    assert np.max(np.abs(Dr @ u)) <= 1e-10 * (1 + abs(f).max())
    assert abs(constant_coefficients(Q) @ (assemble_mass(Q) @ p)) <= 1e-12 * max(1.0, abs(p).max())
    assert rep.residual <= 1e-10 * (1 + abs(f).max())


def test_saddle_lu_matches_schur_oracle(channel):
    A, Dr, integrals, area, _ = saddle_blocks(channel)
    rng = np.random.default_rng(4)
    f = rng.standard_normal(A.shape[0])
    u1, p1, _ = solve_saddle(A, Dr, f, integrals, area, strategy="lu")
    u2, p2, _ = solve_saddle(A, Dr, f, integrals, area, strategy="schur")
    assert np.max(np.abs(u1 - u2)) < 1e-9
    assert np.max(np.abs(p1 - p2)) < 1e-9


@pytest.mark.parametrize("family, degree", [("DG", 0), ("DG", 1), ("CG", 1), ("CG", 2)])
def test_integrals_are_the_mass_against_one(channel, family, degree):
    """assemble_integrals, <w_i, 1> per cell with no matrix, is M 1 to 1e-14."""
    space = make_space(channel, family, degree)
    ref = assemble_mass(space) @ constant_coefficients(space)
    assert np.max(np.abs(assemble_integrals(space) - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_project_out_constant(channel):
    Q = make_space(channel, "DG", 0)
    MQ = assemble_mass(Q)
    integrals = assemble_integrals(Q)
    ones = constant_coefficients(Q)
    area = channel.total_area()
    const = 3.0 * ones
    assert np.max(np.abs(project_out_constant(const, integrals, area))) < 1e-13
    rng = np.random.default_rng(5)
    q = rng.standard_normal(Q.dim)
    q0 = project_out_constant(q, integrals, area)
    assert abs(ones @ (MQ @ q0)) < 1e-12
    assert np.max(np.abs(project_out_constant(q0, integrals, area) - q0)) < 1e-14


def test_project_out_constant_y_mean(channel):
    # mean of y over the unit-height channel is 1/2
    Q = make_space(channel, "DG", 1)
    area = channel.total_area()
    from dualflow.spaces import interpolate

    qy = interpolate(Q, lambda x, y: y)
    shifted = project_out_constant(qy, assemble_integrals(Q), area)
    assert np.allclose(qy - shifted, 0.5, atol=1e-12)
