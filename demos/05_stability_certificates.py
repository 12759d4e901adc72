"""Lyapunov certificates along solved trajectories.

Runs the three bundled example systems and their certificate checks: the
class-K sandwich, the fractional dissipation inequality, the Mittag-Leffler
decay envelope, and the local-ball domain check.
"""

from pathlib import Path

from fracstab import get_preset, run_preset
from fracstab.reporting import stability_summary_text, write_trajectory_csv

for name in ("example1", "example2", "example3"):
    preset = get_preset(name)
    traj, report = run_preset(preset)
    print(f"--- {name}: alpha = {preset.system.order.alpha}, x0 = {[float(v) for v in preset.system.x0]}")
    print(stability_summary_text(report), end="")
    final = traj.norms()[-1]
    print(f"|x(t_end = {traj.grid.t_end:g})| = {final:.4g}\n")
    out = Path(f"demo_{name}.csv")
    write_trajectory_csv(out, traj)
    print(f"trajectory written to {out}\n")

print("The second example's certificate holds for every order in (0, 1];")
print("re-run with a different alpha, at its rate 12 r^8 and at an overstated 50 r^8,")
print("where B = -6 x^8 (2 + e^(t/2) + e^(-t/2)) is above -50 x^8 while t < 3.6:")
from fracstab import LyapunovCandidate, SystemDef, TimeGrid, check_dissipation, solve

for alpha in (0.5, 1.0):
    system = SystemDef.from_strings(1, alpha, ["-x1^3 - exp(t/2)*x1^3"], [0.1])
    traj = solve(system, TimeGrid(0.0, 0.01, 2000))
    for rate in ("12*r^8", "50*r^8"):
        V = LyapunovCandidate("x1^6 + exp(-t/2)*x1^6", dissipation_rate=rate)
        rep = check_dissipation(V, traj)
        print(f"  alpha = {alpha}, gamma3 = {rate}: dissipation {'pass' if rep.verdict else 'FAIL'}")
