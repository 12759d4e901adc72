"""Predictor-corrector solves of fractional systems.

Solves the scalar relaxation equation D^alpha x = -x, whose exact solution
is the Mittag-Leffler function, then runs the self-convergence study and a
2-D nonautonomous system, writing its trajectory to CSV.
"""

from pathlib import Path

import numpy as np

from fracstab import MLParams, SystemDef, TimeGrid, convergence_study, mittag_leffler_many, solve
from fracstab.reporting import write_trajectory_csv

alpha = 0.9
system = SystemDef.from_strings(1, alpha, ["-x1"], [1.0])
traj = solve(system, TimeGrid(0.0, 1e-3, 5000))
ts = traj.grid.nodes()
params = MLParams(alpha)
ref = mittag_leffler_many(params, [-float(t) ** alpha for t in ts])
print(f"D^{alpha} x = -x against E_{alpha}(-t^{alpha}):")
print(f"  max abs deviation on [0, 5]: {np.max(np.abs(traj.states[0].values - ref)):.3e}")

study = convergence_study(system, 1.0, (1e-2, 5e-3, 2.5e-3))
print("\nself-convergence study, each step against its own halving:")
for h, err in study.entries:
    print(f"  h = {h:<7g} max |x_h - x_h/2| {err:.3e}")
print(f"  fitted order {study.fitted_order:.2f} (expectation about min(2, 1 + alpha))")

two_dim = SystemDef.from_strings(2, 0.9, ["-x1 - x2/(1+t)", "x1 - x2"], [-10.0, 10.0])
traj2 = solve(two_dim, TimeGrid(0.0, 0.01, 5000))
out = Path("demo_trajectory.csv")
write_trajectory_csv(out, traj2)
print(f"\n2-D nonautonomous system solved on [0, 50]; |x(50)| = {traj2.norms()[-1]:.4f}")
print(f"trajectory written to {out} (plot with any CSV tool)")
