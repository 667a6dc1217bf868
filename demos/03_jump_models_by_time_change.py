"""Jump-diffusion and pure-jump short rates by stochastic time change.

Running a diffusion on an inverse Gaussian clock turns it into a model
with (mean-reverting) jumps, yet the pricing machinery barely changes:
each eigenvalue lambda_n is replaced by the clock's Laplace exponent
phi(lambda_n), the eigenfunctions stay put.  The short rate becomes a
nonlinear function of the state, the eigenfunction series
r_phi(x) = gamma x + sum_n p_n (phi(lambda_n) - gamma lambda_n) phi_n(x),
so quoted rates are mapped through its inverse before pricing.

Run: python demos/03_jump_models_by_time_change.py
"""

import numpy as np

from eigenbond import (
    SubordinatorSpec,
    invert_short_rate,
    laplace_exponent,
    mean_rate,
    price_bond,
    short_rate_map,
)
from eigenbond.benchmark import benchmark_model, swiss1987_schedule

cir = benchmark_model("cir")
jump_diffusion = SubordinatorSpec.inverse_gaussian(drift=0.5, mu=0.5, nu_var=1.0)
pure_jump = SubordinatorSpec.inverse_gaussian(drift=0.0, mu=1.0, nu_var=1.0)

print("both clocks are normalized to unit expected speed:")
print(f"  jump-diffusion clock: E[T_1] = {mean_rate(jump_diffusion):.12f}")
print(f"  pure-jump clock:      E[T_1] = {mean_rate(pure_jump):.12f}")

lam = cir.eigenvalues(6)
print("\ntime change bends the eigenvalue ladder (concave Laplace exponent):")
print(f"  {'n':>3} {'lambda_n':>10} {'phi_JD':>10} {'phi_PJ':>10}")
for n in range(7):
    print(
        f"  {n:3d} {lam[n]:10.6f} {float(laplace_exponent(jump_diffusion, lam[n])):10.6f} "
        f"{float(laplace_exponent(pure_jump, lam[n])):10.6f}"
    )

print("\nthe short rate is no longer the state itself:")
for x in (0.01, 0.05, 0.10):
    print(
        f"  state x={x:4.2f}: r_phi = {short_rate_map(cir, jump_diffusion, x):.6f} (JD), "
        f"{short_rate_map(cir, pure_jump, x):.6f} (PJ)"
    )

schedule = swiss1987_schedule()
rates = np.round(np.arange(0.01, 0.105, 0.01), 2)
print("\ncallable bond values at quoted initial short rates:")
print(f"  {'r0':>5} {'diffusion':>10} {'jump-diffusion':>15} {'pure jump':>10}")
plain = price_bond(cir, SubordinatorSpec.none(), schedule, rates, eps=1e-8).values
cols = []
for sub in (jump_diffusion, pure_jump):
    states = [invert_short_rate(cir, sub, r) for r in rates]
    cols.append(price_bond(cir, sub, schedule, states, eps=1e-8).values)
for i, rate in enumerate(rates):
    print(f"  {rate:5.2f} {plain[i]:10.6f} {cols[0][i]:15.6f} {cols[1][i]:10.6f}")
print("\njumps lighten the effective discounting (concavity), lifting values.")
