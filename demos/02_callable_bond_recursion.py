"""Pricing the benchmark callable bond by the coefficient recursion.

The test case is a 1987 Swiss Confederation issue: 20.172 years to
maturity, 21 annual coupons of 4.25%, callable at the last ten coupon
dates with two months' notice.  The backward recursion walks the decision
dates from maturity to the end of the protection period, locating the
break-even state at each date by one bracketed Newton loop, started at
the previous date's state, and rebuilding the expansion
coefficients from interval integrals over the hold and exercise regions.

Run: python demos/02_callable_bond_recursion.py
"""

import numpy as np

from eigenbond import SubordinatorSpec, price_bond
from eigenbond.benchmark import benchmark_model, swiss1987_schedule

model = benchmark_model("cir")
schedule = swiss1987_schedule()
rates = np.round(np.arange(0.01, 0.105, 0.01), 2)

result = price_bond(model, SubordinatorSpec.none(), schedule, rates, eps=1e-7)

print("callable bond values (CIR, eps=1e-7):")
for rate, value in zip(rates, result.values):
    print(f"  r0={rate:4.2f}  V={value:.6f}")

print("\nbreak-even short rates by decision date (call when r below):")
for record in sorted(result.dates, key=lambda d: -d.index):
    shown = "none (strike dear even at r=0)" if record.call_rate is None else f"{record.call_rate:.8f}"
    print(
        f"  tau_{record.index} = {record.decision_time:7.4f}:  {shown}"
        f"   [series: avg N {record.average_level:4.1f}, max N {record.max_level}]"
    )

print("\nputable variant: adding the put ladder raises the value floor")
put_schedule = swiss1987_schedule(include_put=True)
put_result = price_bond(model, SubordinatorSpec.none(), put_schedule, rates, eps=1e-7)
print(f"  {'r0':>5} {'callable':>10} {'call+put':>10} {'put premium':>12}")
for rate, a, b in zip(rates, result.values, put_result.values):
    print(f"  {rate:5.2f} {a:10.6f} {b:10.6f} {b - a:12.6f}")
