"""Randomized verification of the fractional differential inequalities.

Each suite draws seeded instances (monotone envelope, smooth sample
function, exponent, order), evaluates both sides of its inequality with the
discrete Caputo operator and reports the worst violation.  The discrete L1
operator inherits the sign structure of the exact one, so violations sit at
rounding level.
"""

from fracstab import run_suite
from fracstab.inequalities import SUITE_NAMES

SEED = 7
N = 50

print(f"{N} seeded instances per suite (seed {SEED})\n")
print(f"{'suite':<16} {'passes':<9} worst violation / residual")
for name in SUITE_NAMES:
    res = run_suite(name, N, seed=SEED)
    print(f"{name:<16} {res.passes}/{res.instances:<6}  {res.max_violation:.3e}")

print("\nA single instance in detail:")
import numpy as np

from fracstab import EnvelopeSpec, FracOrder, SampleSeries, TimeGrid, parse, to_text, verify_product_decreasing

envelope = EnvelopeSpec("mono_decreasing", parse("0.27 + 0.13*exp(-1.6*t)"))
x = SampleSeries.from_function(
    TimeGrid(0.0, 0.01, 500), lambda t: (0.5 + 0.4 * np.cos(t) - 0.3 * np.sin(2 * t)) ** 2 + 0.1
)
order = FracOrder(0.94)
report = verify_product_decreasing(envelope, x, order)
print(f"  envelope phi(t) = {to_text(envelope.expression)}")
print("  x(t)            = (0.5 + 0.4 cos t - 0.3 sin 2t)^2 + 0.1")
print(f"  order alpha     = {order.alpha:.4f}")
print(f"  checking  D(phi x) <= phi D(x)  on {x.grid.n_nodes} nodes")
print(f"  verdict {report.verdict}, max violation {report.max_violation:.3e}, tol {report.tol:.3e}")
print(f"  min slack {report.slack.values.min():.3e} (nonnegative slack = inequality holds)")
