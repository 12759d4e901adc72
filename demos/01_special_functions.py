"""Gamma and Mittag-Leffler basics.

Evaluates the two scalar special functions the rest of the toolkit is built
on and prints a small table of decay profiles E_alpha(-t^alpha), the shape
that governs solutions of linear fractional systems, then two values at
large beta far down the negative axis.
"""

import math

import numpy as np

from fracstab import MLParams, gamma, mittag_leffler

print("Gamma function spot values")
for z in (0.5, 1.0, 2.5, 5.0, 10.0):
    print(f"  gamma({z:<4}) = {gamma(z):.15g}")
print(f"  gamma(0.5)^2 = {gamma(0.5)**2:.15g}  (pi = {math.pi:.15g})")

print("\nE_alpha(z) reduces to exp(z) at alpha = 1:")
for z in (-3.0, -1.0, 0.5):
    print(f"  E_1({z:>4}) = {mittag_leffler(MLParams(1.0), z):.12g}   exp = {math.exp(z):.12g}")

print("\nDecay profiles E_alpha(-t^alpha): slower-than-exponential tails")
ts = np.array([0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0])
header = "  t      " + "".join(f"alpha={a:<8}" for a in (0.5, 0.8, 0.95, 1.0))
print(header)
for t in ts:
    row = f"  {t:<6g} "
    for alpha in (0.5, 0.8, 0.95, 1.0):
        v = mittag_leffler(MLParams(alpha), -float(t) ** alpha)
        row += f"{v:<14.6g}"
    print(row)

print("\nAt large t the fractional profiles decay algebraically (~t^-alpha),")
print("which is why fractional systems lose energy much slower than classical ones.")

print("\nLarge beta on the negative axis, by the upward recurrence in beta:")
for alpha, beta, z in ((0.5, 20.0, -30.0), (1.0, 40.0, -1e10)):
    print(f"  E_{{{alpha:g},{beta:g}}}({z:g}) = {mittag_leffler(MLParams(alpha, beta), z):.12g}")
