"""Solving the damped oscillator by making the mixed convolved action
stationary: one global linear solve over the whole time history, initial
conditions built in, end values free. `assemble` and `convergence_study`
take the model itself: an SdofModel is solved as the one-dof case of the
multi-dof system and comes back as a scalar trajectory.

Run:  python3 demos/04_mixed_action_stationarity.py
"""

import numpy as np

from convact import (
    ActionKind,
    Grid,
    SdofModel,
    action_value,
    analytic_sdof,
    assemble,
    convergence_study,
    el_residuals,
    solve_stationary,
)

model = SdofModel(m=1.0, c=0.2, k=1.0)

print("== one solve, the whole trajectory ==")
grid = Grid(10.0, 256)
qf = assemble(model, grid, u0=1.0, v0=0.0)
print(f"free unknowns: {qf.n_free} (u and J at nodes 1..n; node 0 pinned to "
      f"u0 = {qf.node0[0]}, J0 = {qf.node0[1]:+.2f})")
report = solve_stationary(qf)
print(f"post-solve gradient norm: {report.gradient_norm:.2e}")
print(f"condition estimate:       {report.condition_estimate:.2e}")

oracle = analytic_sdof(model, 1.0, 0.0, grid)
err = np.max(np.abs(report.trajectory.u - oracle.u))
print(f"sup error vs closed form: {err:.3e}")

print("\n== the solved path satisfies the strong form ==")
res = el_residuals(ActionKind.MCA_SDOF, model, report.trajectory, ics=(1.0, 0.0))
for name in ("motion", "compatibility"):
    print(f"  {name:15s} sup residual {res.sup(name):.3e}")
notes = {"motion_ic": "imposed at node 0", "compatibility_ic": "O(h^2): J'(0) is differenced"}
for name, value in res.ic_residuals.items():
    print(f"  {name:15s} {value:+.2e}  ({notes[name]})")

print("\n== convergence against the closed form ==")
table = convergence_study(model, 1.0, 0.0, 10.0, [64, 128, 256, 512])
for row in table.rows:
    order = "--" if row.order_u is None else f"{row.order_u:.2f}"
    print(f"  n={row.n_steps:4d}  err_u={row.err_u_sup:.3e}  err_J={row.err_J_sup:.3e}"
          f"  order {order}")

print("\n== two evaluation paths for the semi-derivative terms ==")
for n in (64, 128, 256):
    g = Grid(10.0, n)
    traj = analytic_sdof(model, 1.0, 0.0, g)
    r = action_value(ActionKind.MCA_SDOF, model, traj, scheme="reduced")
    d = action_value(ActionKind.MCA_SDOF, model, traj, scheme="direct")
    print(f"  n={n:4d}  reduced {r:+.6f}   direct {d:+.6f}   gap {abs(r - d):.2e}")
