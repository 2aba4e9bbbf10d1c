"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The lock-exchange reference run (criterion 6's configuration) is shared
by criteria 6, 7 and 8; criterion 9 repeats it through the CLI to check
bitwise determinism and resume-exactness.  The same run, and a short
Taylor-Green run, are also held to pinned reference trajectories.
"""

import time

import numpy as np
import pytest

from dualflow import assemble
from dualflow.assemble import assemble_div
from dualflow.config import parse_config
from dualflow.driver import build_model, run
from dualflow.elements import LOCAL_EDGES, REF_VERTICES
from dualflow.io import read_csv
from dualflow.mesh import (
    TAG_BOTTOM,
    TAG_TOP,
    ChannelGeometry,
    build_channel_mesh,
    build_periodic_rect_mesh,
)
from dualflow.quadrature import interval_rule
from dualflow.spaces import make_space, space_dimension
from dualflow.stepper import (
    Model,
    PhysicsConfig,
    RandomSolenoidalInitialCondition,
    TaylorGreenInitialCondition,
    TimeConfig,
    initialize,
    step,
)

from conftest import run_cli
from make_reference import COLUMNS, pinned_rows, reference_config, reference_path
from util_curl import discrete_curl
from util_rotation import skew_part
from util_tabulate import volume_tab

RUN6_CFG = """\
[mesh]
length = 13.0
height = 1.0
lock_length = 1.0
nx = 50
ny = 5
pattern = crisscross

[physics]
mode = turbidity
grashof = 5e6
schmidt = 1.0
settling_velocity = 0.02

[discretization]
degree = 2

[time]
dt = 1e-3
t_end = 1.0

[initial]
interface_width = 0.1

[output]
dir = {outdir}
csv_every = 1
checkpoint_every = 500
"""


@pytest.fixture(scope="module")
def run6(tmp_path_factory):
    """Criterion-6 lock-exchange run: N=2, 1000 cells, t in [0, 1]."""
    outdir = tmp_path_factory.mktemp("run6")
    cfg = parse_config(RUN6_CFG.format(outdir=outdir / "out"))
    checks = {"steps": 0, "max_oracle_gap": 0.0}
    prev_phi = {}

    def on_step(prev, new, reports, row):
        checks["steps"] += 1
        # every 100 steps: independent boundary-quadrature oracle for the
        # settling outflux used in the mass identity
        if new.k % 100 == 0:
            model = checks["model"]
            phi_mid = 0.5 * (prev.phi + new.phi)
            oracle = independent_bottom_integral(model, phi_mid)
            gap = abs(
                model.integral_w(new.phi - prev.phi)
                + model.time.dt * model.physics.settling_velocity * oracle
            )
            checks["max_oracle_gap"] = max(checks["max_oracle_gap"], gap)

    t0 = time.perf_counter()
    model = build_model(cfg)
    checks["model"] = model
    result = run(cfg, on_step=on_step)
    elapsed = time.perf_counter() - t0
    return {
        "cfg_text": RUN6_CFG,
        "outdir": str(outdir / "out"),
        "result": result,
        "elapsed": elapsed,
        "oracle_gap": checks["max_oracle_gap"],
    }


def independent_bottom_integral(model, coef):
    """Bottom-wall integral with a quadrature independent of assembly."""
    mesh = model.mesh
    W = model.W
    t, w = interval_rule(2 * model.degree + 7)
    total = 0.0
    for e in mesh.wall_edges(TAG_BOTTOM):
        c, loc = mesh.edge_cells[e, 0], mesh.edge_local[e, 0]
        a, b = LOCAL_EDGES[loc]
        pa, pb = mesh.cell_coords[c, a], mesh.cell_coords[c, b]
        length = np.hypot(*(pb - pa))
        ra, rb = REF_VERTICES[a], REF_VERTICES[b]
        rpts = ra[None, :] + t[:, None] * (rb - ra)[None, :]
        vals, _ = W.element.tabulate(rpts)
        total += length * float(np.sum(w * (vals @ coef[W.cell_dofs[c]])))
    return total


def test_criterion_1_table1_dof_counts(acceptance):
    acceptance.start(1, "Table-1 dof reproduction at N=4 on (V,E,C)=(619,1734,1116)")
    t0 = time.perf_counter()
    V, E, C = 619, 1734, 1116
    assert space_dimension("CG", 4, V, E, C) == 9169
    assert space_dimension("RT", 4, V, E, C) == 20328
    assert space_dimension("DG", 3, V, E, C) == 11160
    eq_cells = C * (19.0 / 13.0) * 4**2
    assert abs(eq_cells - 2.6e4) <= 0.05e4  # 2.6e4 up to rounding
    # the same numbers through an actual mesh with those entity counts
    from util_sim1 import sim1_mesh_text
    from dualflow.mesh import read_mesh_text

    text, geom = sim1_mesh_text()
    mesh = read_mesh_text(text, geom)
    counts = (mesh.num_vertices, mesh.num_edges, mesh.num_cells)
    assert counts == (V, E, C)
    assert space_dimension("CG", 4, *counts) == 9169
    assert space_dimension("RT", 4, *counts) == 20328
    assert space_dimension("DG", 3, *counts) == 11160
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s (limit 1s)"
    acceptance.ok(1)


def test_criterion_2_de_rham_exactness(acceptance):
    acceptance.start(2, "||D curl(psi)||_inf <= 1e-12 for 50 random psi, N in {1,2}")
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    meshes = [
        build_channel_mesh(ChannelGeometry(3.0, 1.0, 1.0), 6, 3, "left"),
        build_channel_mesh(ChannelGeometry(2.0, 1.5, 0.5), 5, 4, "right"),
        build_channel_mesh(ChannelGeometry(4.0, 1.0, 2.0), 4, 3, "crisscross"),
        build_periodic_rect_mesh(2 * np.pi, 2 * np.pi, 5, 4, "left"),
        build_periodic_rect_mesh(1.0, 2.0, 4, 6, "crisscross"),
    ]
    count = 0
    for mesh in meshes:
        for N in (1, 2):
            W = make_space(mesh, "CG", N)
            U = make_space(mesh, "RT", N)
            Q = make_space(mesh, "DG", N - 1)
            D = assemble_div(U, Q)
            for _ in range(5):
                u = discrete_curl(rng.standard_normal(W.dim), W, U)
                assert np.max(np.abs(D @ u)) <= 1e-12
                count += 1
    assert count == 50
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.2f}s (limit 10s)"
    acceptance.ok(2)


def test_criterion_3_divergence_free_evolution(acceptance, run6):
    acceptance.start(3, "||D u||_inf <= 1e-10 after every accepted step 4")
    # enforced by a hard in-stepper check on every solve; re-asserted here
    # on the recorded lock-exchange trajectory
    divs = [row.div_inf for row in run6["result"].rows]
    assert len(divs) == 1000
    assert max(divs) <= 1e-10
    acceptance.ok(3)


def test_criterion_4_homogeneous_inviscid_conservation(acceptance):
    acceptance.start(4, "inviscid 200-step drift: K,enstrophy <= 1e-9, vorticity <= 1e-11")
    t0 = time.perf_counter()
    mesh = build_periodic_rect_mesh(2 * np.pi, 2 * np.pi, 16, 16, "left")
    phys = PhysicsConfig(mode="homogeneous", nu=0.0)
    model = Model(mesh, 1, phys, TimeConfig(dt=0.01, t_end=2.0))
    state, _ = initialize(model, RandomSolenoidalInitialCondition(seed=7))
    K0 = model.kinetic_energy(state.u_half)
    ens0 = model.enstrophy(state.omega)
    tv0 = model.total_vorticity(state.omega)
    tv_scale = max(1.0, abs(tv0))  # tv0 is ~0 for solenoidal data; absolute drift
    for _ in range(200):
        state, _, _ = step(state, model)
        assert model.div_inf(state.u_half) <= 1e-10
        assert abs(model.kinetic_energy(state.u_half) - K0) <= 1e-9 * K0
        assert abs(model.enstrophy(state.omega) - ens0) <= 1e-9 * ens0
        assert abs(model.total_vorticity(state.omega) - tv0) <= 1e-11 * tv_scale
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 4 took {elapsed:.1f}s (limit 60s)"
    acceptance.ok(4)


def taylor_green_l2_error(nx):
    ic = TaylorGreenInitialCondition()
    nu, dt, t_end = 0.01, 1e-3, 0.5
    mesh = build_periodic_rect_mesh(2 * np.pi, 2 * np.pi, nx, nx, "left")
    model = Model(mesh, 1, PhysicsConfig(mode="homogeneous", nu=nu), TimeConfig(dt=dt, t_end=t_end))
    state, _ = initialize(model, ic)
    divs = []
    for _ in range(model.time.num_steps):
        state, _, _ = step(state, model)
        divs.append(model.div_inf(state.u_half))
    t_vel = state.k * dt + 0.5 * dt  # velocity lives at the half step
    exact = ic.velocity(t_vel, nu)
    import util_fields as kernels

    tab = volume_tab(model.U, 8)
    uq = kernels.field_vec(model.U.cell_dofs, state.u_half, tab.val)
    ex, ey = exact(tab.points[..., 0], tab.points[..., 1])
    err = float(np.sqrt(np.sum(tab.weights * ((uq[..., 0] - ex) ** 2 + (uq[..., 1] - ey) ** 2))))
    return err, max(divs)


def test_criterion_5_taylor_green_convergence(acceptance):
    acceptance.start(5, "Taylor-Green L2 velocity error ratio 16->32 at least 1.7")
    t0 = time.perf_counter()
    e16, div16 = taylor_green_l2_error(16)
    e32, div32 = taylor_green_l2_error(32)
    assert max(div16, div32) <= 1e-10
    assert e16 / e32 >= 1.7, f"convergence ratio {e16 / e32:.3f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"criterion 5 took {elapsed:.1f}s (limit 5min)"
    acceptance.ok(5)


def test_criterion_6_particle_mass_identity(acceptance, run6):
    acceptance.start(6, "per-step particle mass identity <= 1e-10; m_p non-increasing")
    rows = run6["result"].rows
    assert len(rows) == 1000
    assert max(abs(r.mass_residual) for r in rows) <= 1e-10
    # independent boundary-quadrature oracle, sampled along the run
    assert run6["oracle_gap"] <= 1e-10
    mp = np.array([r.m_p_ratio for r in rows])
    assert np.all(np.diff(mp) <= 1e-14)
    assert run6["elapsed"] < 900.0, f"criterion 6 run took {run6['elapsed']:.0f}s (limit 15min)"
    acceptance.ok(6)


def test_criterion_7_energy_residual_identity_and_dt_scaling(acceptance, run6, tmp_path):
    acceptance.start(7, "E_res identity to 1e-9; doubling dt scales max|E_res| in [1.4,3]")
    rows = run6["result"].rows
    assert max(abs(r.eres_gap) for r in rows) <= 1e-9
    er = np.array([abs(r.E_res) for r in rows])
    n = len(er)
    # no growth trend: the residual does not accumulate over the run
    assert er[n // 2:].max() <= 2.0 * er[: n // 2].max()
    # repeat with doubled time step
    cfg2 = parse_config(
        run6["cfg_text"].format(outdir=tmp_path / "out2").replace("dt = 1e-3", "dt = 2e-3")
    )
    res2 = run(cfg2)
    er2 = np.array([abs(r.E_res) for r in res2.rows])
    ratio = er2.max() / er.max()
    assert 1.4 <= ratio <= 3.0, f"dt-doubling ratio {ratio:.3f}"
    acceptance.ok(7)


def test_criterion_8_lock_exchange_physics(acceptance, run6):
    acceptance.start(8, "front advances for t>0.5; Ep drops; K>0; mdot_s <= 0")
    rows = run6["result"].rows
    t = np.array([r.t for r in rows])
    xf = np.array([r.x_f for r in rows])
    sel = t > 0.5
    # column-quantized front: never retreats, strictly advances over the window
    assert np.all(np.diff(xf[sel]) >= 0.0)
    assert xf[-1] > xf[np.flatnonzero(sel)[0]]
    engine = run6["result"].engine
    assert rows[-1].Ep < engine.Ep0
    assert rows[-1].K > 0.0
    assert all(r.mdot_s <= 0.0 for r in rows)
    acceptance.ok(8)


def test_criterion_9_determinism_and_resume(acceptance, run6, tmp_path):
    acceptance.start(9, "bitwise-identical CSV on repeat; resume matches uninterrupted")
    cfgfile = tmp_path / "a.cfg"
    cfgfile.write_text(run6["cfg_text"].format(outdir=tmp_path / "outA"))
    proc = run_cli(["run", "--config", str(cfgfile)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    import pathlib

    csv_fixture = pathlib.Path(run6["outdir"]) / "timeseries.csv"
    csv_a = (tmp_path / "outA" / "timeseries.csv").read_bytes()
    assert csv_a == csv_fixture.read_bytes()

    # first half, then resume into the same directory from the checkpoint
    half_cfg = tmp_path / "b.cfg"
    half_cfg.write_text(
        run6["cfg_text"].format(outdir=tmp_path / "outB").replace("t_end = 1.0", "t_end = 0.5")
    )
    proc = run_cli(["run", "--config", str(half_cfg)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    full_cfg = tmp_path / "b2.cfg"
    full_cfg.write_text(run6["cfg_text"].format(outdir=tmp_path / "outB"))
    proc = run_cli(
        ["resume", "--config", str(full_cfg),
         "--checkpoint", str(tmp_path / "outB" / "checkpoint_00000500.ckpt")],
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "outB" / "timeseries.csv").read_bytes() == csv_a
    ck_a = (tmp_path / "outA" / "checkpoint_final.ckpt").read_bytes()
    ck_b = (tmp_path / "outB" / "checkpoint_final.ckpt").read_bytes()
    assert ck_a == ck_b
    acceptance.ok(9)


# Pinned reference trajectories: tests/data/reference_{lock_exchange,
# taylor_green}.csv were rewritten, on top of commit 1e1d36f, by the
# change that integrates every form exactly, with
#     PYTHONPATH=src python tests/make_reference.py
# from configs/lock_exchange.cfg (1000 steps, every 50th row) and
# configs/taylor_green.cfg (100 steps, every 10th row).  The structural
# gates above hold for any viscosity, settling speed or buoyancy
# coefficient; these catch a change of the physics itself.  Roundoff-level
# changes since the previous files (commit a15d00f) had moved them by at
# most 1.2e-11 relative (desk K; 8e-9 in E_res where it is near zero,
# within its PIN_ATOL), against a 1% viscosity change moving K by 9e-4.
PIN_RTOL = 1e-8
# columns that cross 0 (the torus' total vorticity and both runs' E_res
# start at 0) carry the roundoff of the O(0.01-1) sums they are differences of
PIN_ATOL = {"total_vorticity": 1e-10, "E_res": 1e-10}


def assert_matches_reference(name, rows):
    ref = read_csv(reference_path(name))
    got = np.array(pinned_rows(name, rows))
    assert np.array_equal(got[:, 0], ref["step"])
    for j, col in enumerate(COLUMNS, start=1):
        tol = PIN_RTOL * np.abs(ref[col]) + PIN_ATOL.get(col, 0.0)
        bad = np.flatnonzero(np.abs(got[:, j] - ref[col]) > tol)
        assert len(bad) == 0, (f"{name}: {col} at step {int(ref['step'][bad[0]])} is "
                               f"{float(got[bad[0], j])!r}, reference {float(ref[col][bad[0]])!r}")


def test_pinned_reference_lock_exchange(run6, tmp_path):
    """run6 is the reference run: the shipped desk config, 1000 steps."""
    cfg = parse_config(RUN6_CFG.format(outdir=tmp_path))
    pinned = reference_config("lock_exchange", str(tmp_path))
    for section in ("mesh", "physics", "discretization", "time", "initial"):
        assert getattr(cfg, section) == getattr(pinned, section)
    assert_matches_reference("lock_exchange", run6["result"].rows)


def test_pinned_reference_taylor_green(tmp_path):
    rows = run(reference_config("taylor_green", str(tmp_path))).rows
    assert_matches_reference("taylor_green", rows)


# the bounds of criteria 3 (div_inf), 6 (the mass identity) and 7 (the E_res identity)
GATE_BOUNDS = {"div_inf": 1e-10, "mass_residual": 1e-10, "eres_gap": 1e-9}


@pytest.fixture(scope="module")
def horizon(tmp_path_factory):
    """The criterion-6 configuration, the shipped desk, at dt = 1e-2 over
    the paper's horizon t in [0, 12]: 1200 steps, with the fallbacks of
    the startup and of every step's solves."""
    outdir = tmp_path_factory.mktemp("horizon") / "out"
    text = RUN6_CFG.format(outdir=outdir).replace("dt = 1e-3", "dt = 1e-2").replace("t_end = 1.0", "t_end = 12.0")
    fallbacks = []
    result = run(parse_config(text), on_step=lambda prev, new, reports, row: fallbacks.extend(
        rep.fallback for rep in reports.values()))
    return result, result.startup.fallbacks + sum(fallbacks)


def test_paper_horizon_gates_hold(horizon):
    """Over the paper's horizon t in [0, 12], where settling comes to
    dominate (m_p falls to about 0.43), no solve falls back, every step
    meets the bounds of criteria 3, 6 and 7, the suspended mass never
    rises (criterion 6) and the front never retreats from t = 0.5 on
    (criterion 8)."""
    result, fallbacks = horizon
    rows = result.rows
    assert len(rows) == 1200 and fallbacks == 0
    for name, bound in GATE_BOUNDS.items():
        worst = max(abs(getattr(r, name)) for r in rows)
        assert worst <= bound, f"max |{name}| = {worst:.3e} exceeds {bound}"
    assert np.all(np.diff([r.m_p_ratio for r in rows]) <= 1e-14)
    xf = np.array([r.x_f for r in rows if r.t >= 0.5])
    assert np.all(np.diff(xf) >= 0.0)


def front_speed(rows, t0, t1):
    """The least-squares slope of x_f(t) over [t0, t1], at every step of a
    dt = 1e-2 run."""
    fit = [(r.t, r.x_f) for r in rows if t0 <= r.t <= t1]
    assert len(fit) == round(100 * (t1 - t0)) + 1
    t, xf = np.array(fit).T
    return np.polyfit(t, xf, 1)[0]


# the front speeds of the lock-exchange literature, in sqrt(g' H) units
# (sources in test_front_speed_in_the_literature_band)
SPEED_BAND = (0.35, 0.5)


def test_front_speed_in_the_literature_band(horizon):
    """The front speed of the slumping phase, a least-squares fit of x_f(t)
    over t in [1, 3] (before that the front still accelerates, after it
    settling slows it) at every step, 0.01 apart as every 10 steps at the
    shipped dt, in units of sqrt(g' H), lies in the band of the
    lock-exchange literature: front Froude numbers of about 0.4-0.5 in
    the simulations of Haertel, Meiburg & Necker, J. Fluid Mech. 418
    (2000), and the experiments of Shin, Dalziel & Linden, J. Fluid Mech.
    521 (2004), below the energy-conserving bound 0.5 of Benjamin, J.
    Fluid Mech. 31 (1968).  The lower end, 0.35, leaves room for the
    viscosity of Gr = 5e6 and for x_f moving a column at a time."""
    speed = front_speed(horizon[0].rows, 1.0, 3.0)
    assert SPEED_BAND[0] <= speed <= SPEED_BAND[1], f"front speed {speed:.3f}"


def test_front_speed_holds_at_degree_1_with_the_desk_w_dofs(horizon, tmp_path):
    """The abstract's dof-economy claim: the desk, N = 2 on 50 x 5 cells,
    retrieves the literature's dynamics with 2111 W dofs, and N = 1 on the
    100 x 10 crisscross mesh, with the same 2111 (and 6110/4000 RT/DG
    dofs against 5110/3000), moves the front at the same speed.  Over t
    in [2, 4], fitted at every step at dt = 1e-2, the two speeds agree
    within 1% and both lie in the literature band.  Measured: 0.3953 at
    N = 2 and 0.3962 at N = 1."""
    text = (RUN6_CFG.format(outdir=tmp_path / "out").replace("dt = 1e-3", "dt = 1e-2")
            .replace("t_end = 1.0", "t_end = 4.0").replace("degree = 2", "degree = 1")
            .replace("nx = 50", "nx = 100").replace("ny = 5", "ny = 10"))
    result = run(parse_config(text))
    assert result.model.W.dim == horizon[0].model.W.dim == 2111
    desk, linear = front_speed(horizon[0].rows, 2.0, 4.0), front_speed(result.rows, 2.0, 4.0)
    assert abs(linear - desk) <= 0.01 * desk, (desk, linear)
    for speed in (desk, linear):
        assert SPEED_BAND[0] <= speed <= SPEED_BAND[1], f"front speed {speed:.3f}"


def test_mass_and_energy_gates_catch_the_published_top_wall_sign(tmp_path, monkeypatch):
    """Criteria 6 and 7 fire on the defect they guard against: the top-wall
    settling term of the particle drift with the published sign, -u_s/2
    B_top in place of +u_s/2 (assemble.assemble_particle_drift), breaks
    particle-mass conservation.  Over 20 desk steps the clean code meets
    both bounds; the defect misses the mass identity and the E_res
    identity by more than four orders of magnitude each (measured: 2.0e-5
    and 4.0e-4, against 1.3e-16 and 9.1e-16 clean)."""
    def worst(name):
        text = RUN6_CFG.format(outdir=tmp_path / name).replace("t_end = 1.0", "t_end = 0.02")
        rows = run(parse_config(text)).rows
        assert len(rows) == 20
        return {key: max(abs(getattr(r, key)) for r in rows) for key in ("mass_residual", "eres_gap")}

    clean = worst("clean")
    wall_mass = assemble.assemble_wall_mass

    def published(space, tag):
        B = wall_mass(space, tag)
        return -B if tag == TAG_TOP else B

    monkeypatch.setattr(assemble, "assemble_wall_mass", published)
    defect = worst("defect")
    for key, value in clean.items():
        assert value <= GATE_BOUNDS[key], (key, value)
        assert defect[key] > 1e4 * GATE_BOUNDS[key], (key, defect[key])


def inviscid_box(defect=None):
    """Criterion 4's run, 200 inviscid steps on its 16 x 16 box, with 1e-9
    max|values| added to what the assemble function named `defect`
    returns.  Returns the largest relative drift of K and of the
    enstrophy, and, by system, [solves with a skew part K, those of them
    whose K + K^T has a nonzero]."""
    drift, solves = {"K": 0.0, "enstrophy": 0.0}, {}
    solve = assemble.System.solve

    def recorded(system, rhs, **kwargs):
        if kwargs.get("skew_values") is not None:
            K = skew_part(system, kwargs["skew_values"], kwargs.get("border"))
            count = solves.setdefault(system.name, [0, 0])
            count[0] += 1
            count[1] += (K + K.T).count_nonzero() > 0
        return solve(system, rhs, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        if defect is not None:
            clean = getattr(assemble, defect)

            def skewed(*args):
                values = clean(*args)
                return values + 1e-9 * np.max(np.abs(values))

            mp.setattr(assemble, defect, skewed)
        mp.setattr(assemble.System, "solve", recorded)
        mesh = build_periodic_rect_mesh(2 * np.pi, 2 * np.pi, 16, 16, "left")
        model = Model(mesh, 1, PhysicsConfig(mode="homogeneous", nu=0.0), TimeConfig(dt=0.01, t_end=2.0))
        state, _ = initialize(model, RandomSolenoidalInitialCondition(seed=7))
        K0, ens0 = model.kinetic_energy(state.u_half), model.enstrophy(state.omega)
        for _ in range(200):
            state, _, _ = step(state, model)
            drift["K"] = max(drift["K"], abs(model.kinetic_energy(state.u_half) - K0) / K0)
            drift["enstrophy"] = max(drift["enstrophy"], abs(model.enstrophy(state.omega) - ens0) / ens0)
    return drift, solves


@pytest.fixture(scope="module")
def clean_box():
    return inviscid_box()


# criterion 4's bound on the relative drift of K and of the enstrophy
DRIFT_BOUND = 1e-9


@pytest.mark.parametrize("defect, system, invariant", [
    ("assemble_rotation", "momentum", "K"),
    ("assemble_vorticity_convection", "vorticity", "enstrophy"),
], ids=["rotation", "convection"])
def test_conservation_gate_and_exact_skewness_catch_a_non_skew_operator(clean_box, defect, system, invariant):
    """Criterion 4 fires on the defect it guards against, a rotation R or a
    convection C that is not exactly skew: 1e-9 max|values| added to what
    assemble returns.  Over criterion 4's run the rotation drifts K and
    the convection the enstrophy past its bound 1e-9, but by less than 4x
    (measured: 3.4e-9 and 2.0e-9, against 1.1e-15 clean), so the sharper
    check is pinned as well: the skew part K of every solve, scattered on
    its system's pattern, has K + K^T without a nonzero on clean code,
    and with one in every solve of the defect's system.  The history a
    step reads has its own checks of this kind: a corrupted one is refused
    (test_checkpoint_history_refused) and a wrong but well-formed one moves
    cost, not the answer (test_a_wrong_history_moves_cost_not_the_answer)."""
    clean, clean_solves = clean_box
    assert max(clean.values()) <= DRIFT_BOUND, clean
    assert set(clean_solves) == {"momentum", "vorticity"}
    assert all(n > 0 and nonskew == 0 for n, nonskew in clean_solves.values()), clean_solves
    drift, solves = inviscid_box(defect)
    assert drift[invariant] > DRIFT_BOUND, drift
    for name, (n, nonskew) in solves.items():
        assert nonskew == (n if name == system else 0), (name, n, nonskew)
