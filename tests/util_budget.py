"""The budget terms as a step once computed them, the oracle for the
ledger of diagnostics.Engine.

A step used to keep its own books: eps_v from the viscous vector it
builds for the momentum load, L om^{k+1} on the psi rows (Z^T Lc = L),
the exchange from its buoyancy, Cb phi^{k+1} on the psi rows (Z^T B =
Cb), both against the stream functions, eps_s and the particle-mass
residual from the midpoint concentration it passed to the vorticity
solve, and ||D u||_inf from its divergence gate.  The Engine now computes every term from the
two states alone.  `recording_step` runs one step and returns the
vectors its solves received; `step_budget` is the arithmetic the step
once did with them.
"""

import numpy as np

from dualflow.stepper import step


def recording_step(state, model):
    """stepper.step, returning (state, vectors): what the momentum solve
    got, its vorticity, its stream function psi and its concentration phi,
    and the midpoint phi of the vorticity solve (phi and phi_mid None
    without particles)."""
    seen = {}
    solve_vorticity, solve_momentum = model.solve_vorticity, model.solve_momentum

    def vorticity(C, omega, m0, phi_mid=None, omega_tilde=None):
        seen["phi_mid"] = phi_mid
        return solve_vorticity(C, omega, m0, phi_mid=phi_mid, omega_tilde=omega_tilde)

    def momentum(omega, psi, phi=None, m0=None):
        seen["omega"], seen["psi"], seen["phi"] = omega, psi, phi
        return solve_momentum(omega, psi, phi=phi, m0=m0)

    model.solve_vorticity, model.solve_momentum = vorticity, momentum
    try:
        new, _, _ = step(state, model)
    finally:
        del model.solve_vorticity, model.solve_momentum
    return new, seen


def step_budget(model, prev, new, omega, phi=None, phi_mid=None):
    """eps_v, eps_s, exchange, mass_residual and div_inf of the step
    prev -> new, from the step's own omega^{k+1}, phi^{k+1} and phi_mid,
    with the momentum load's vectors L omega^{k+1} and Cb phi^{k+1} on the
    psi rows."""
    dt = model.time.dt
    rows, n = model.psi_dofs, len(model.psi_dofs)
    l_vec = (model.L @ omega)[rows]
    budget = {
        "eps_v": model.nu * float(l_vec @ (0.5 * (prev.psi_0 + new.psi_0))[:n]),
        "eps_s": 0.0, "exchange": 0.0, "mass_residual": 0.0,
        "div_inf": float(np.max(np.abs(model.D @ new.u_half))),
    }
    if phi_mid is not None:
        u_s = model.physics.settling_velocity
        budget["mass_residual"] = (
            model.integral_w(new.phi - prev.phi)
            + dt * u_s * model.bottom_integral(phi_mid)
        )
        budget["eps_s"] = u_s * model.integral_w(phi_mid) - model.kappa * float(
            model.grad_dot_g @ phi_mid
        )
        budget["exchange"] = float((model.baroclinic @ phi)[rows] @ new.psi_0[:n])
    return budget
