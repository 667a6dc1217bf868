"""Cross-checking the recursion pricer with independent machinery.

Two validators that share nothing with the coefficient recursion beyond
the model layer: a dynamic program on a quadrature grid driven by the
transition-density expansion, and Monte Carlo.  On the plain clock the
Monte Carlo discounts along simulated Euler paths; on a jump clock it
averages the diffusion's closed-form bond P(T_t, x) over draws of the
clock T_t, which is the subordinate bond by Bochner subordination.

Run: python demos/04_independent_cross_checks.py
"""

from eigenbond import (
    BondSchedule,
    SubordinatorSpec,
    mc_zero_coupon,
    price_bond,
    quadrature_dp_price,
    zero_coupon_price,
)
from eigenbond.benchmark import benchmark_model

none = SubordinatorSpec.none()
reduced = BondSchedule(
    coupon=0.0425,
    coupon_times=tuple(float(i + 1) for i in range(6)),
    protection_index=3,
    notice_delta=0.1666,
    call_prices=(1.02, 1.01, 1.00),
)

print("grid dynamic programming vs coefficient recursion (3 exercise dates):")
for name in ("cir", "vasicek"):
    model = benchmark_model(name)
    dp = quadrature_dp_price(model, none, reduced, 0.05)
    rec = price_bond(model, none, reduced, [0.05], eps=1e-9).values[0]
    print(f"  {name:8s} grid DP={dp:.8f}  recursion={rec:.8f}  |diff|={abs(dp - rec):.2e}")

print("\nMonte Carlo zero-coupon vs closed form (100k paths, 250 steps/yr):")
for name, t in (("cir", 1.0), ("vasicek", 5.0)):
    model = benchmark_model(name)
    mean, se = mc_zero_coupon(model, none, t, 0.05, n_paths=100_000, seed=20)
    ref = float(model.closed_form_bond(t, 0.05))
    print(
        f"  {name:8s} t={t}: MC={mean:.6f} +- {se:.1e}  closed={ref:.6f}  "
        f"z={(mean - ref) / se:+.2f}"
    )

print("\nclock-averaged Monte Carlo (100k clock draws) vs expansion:")
clocks = (
    ("JD", SubordinatorSpec.inverse_gaussian(drift=0.5, mu=0.5, nu_var=1.0)),
    ("gamma", SubordinatorSpec.gamma_process(drift=0.2, c=0.6, eta=1.5)),
)
for name in ("cir", "vasicek"):
    model = benchmark_model(name)
    for clock, sub in clocks:
        mean, se = mc_zero_coupon(model, sub, 1.0, 0.05, n_paths=100_000, seed=5)
        ref = zero_coupon_price(model, sub, 1.0, 0.05, eps=1e-10)
        print(
            f"  {name:8s} {clock:5s} t=1: MC={mean:.6f} +- {se:.1e}  expansion={ref:.6f}  "
            f"z={(mean - ref) / se:+.2f}"
        )
