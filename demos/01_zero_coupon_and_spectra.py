"""Zero-coupon bonds and the spectral data behind them.

Walks through the three diffusion models: eigenvalue ladders, orthonormal
eigenfunctions, unit-payoff coefficients, and the agreement between the
eigenfunction-expansion bond price and the exponential-affine closed forms
where those exist.

Run: python demos/01_zero_coupon_and_spectra.py
"""

import numpy as np

from eigenbond import (
    make_model,
    overlap_matrix,
    zero_coupon_price,
    SubordinatorSpec,
)

none = SubordinatorSpec.none()

cir = make_model("cir", kappa=0.14294371, theta=0.133976855, sigma=0.38757496)
vasicek = make_model("vasicek", kappa=0.44178462, theta=0.098397028, sigma=0.13264223)
three_halves = make_model("three_halves", kappa=2.0, theta=0.05, sigma=0.5)

print("eigenvalue ladders are affine in n: lambda_n = lambda_0 + n * gap")
for model in (cir, vasicek, three_halves):
    lam = model.eigenvalues(3)
    print(f"  {model.kind:13s} lambda_0={lam[0]:.6f}  gap={lam[1] - lam[0]:.6f}")

print("\neigenfunctions are orthonormal against the speed density:")
for model in (cir, vasicek, three_halves):
    gram = overlap_matrix(model, 8, model.state_lo, model.state_hi)
    print(f"  {model.kind:13s} max |Gram - I| = {np.max(np.abs(gram - np.eye(9))):.2e}")

print("\nthe unit payoff expands as 1 = sum_n p_n phi_n(x):")
for model in (cir, vasicek, three_halves):
    p = model.unit_payoff_coefficients(60)
    phi = model.eigenfunctions(60, 0.05)
    print(f"  {model.kind:13s} partial sum at x=0.05: {np.sum(p * phi):.10f}")

print("\nexpansion vs affine closed form, P(t, x=0.05):")
print(f"  {'t':>5} {'CIR expansion':>15} {'CIR closed':>12} {'Vasicek expansion':>18} {'Vasicek closed':>15}")
for t in (0.5, 1.0, 5.0, 10.0):
    row = [zero_coupon_price(m, none, t, 0.05, eps=1e-10) for m in (cir, vasicek)]
    closed = [float(m.closed_form_bond(t, 0.05)) for m in (cir, vasicek)]
    print(f"  {t:5.1f} {row[0]:15.10f} {closed[0]:12.10f} {row[1]:18.10f} {closed[1]:15.10f}")

print("\nthe 3/2 model has no affine closed form; the expansion stands alone:")
for t in (1.0, 5.0):
    print(f"  P({t}, 0.05) = {zero_coupon_price(three_halves, none, t, 0.05, eps=1e-10):.10f}")
