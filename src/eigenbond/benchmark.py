"""Benchmark configurations and reference values.

The shared test case across this package is a Swiss Confederation bond
issued in 1987: 20.172 years to maturity, 21 remaining annual coupons of
4.25%, callable (and in the putable variant also putable) at the last ten
coupon dates with a two-month notice period and the strike ladders below.
Model parameters are the published CIR/Vasicek estimates for that bond;
the jump models time-change those diffusions with an inverse Gaussian
subordinator normalized to unit expected speed (jump-diffusion: drift 0.5,
mean 0.5; pure jump: drift 0, mean 1; variance 1 in both).

``REFERENCE`` holds the externally published values this implementation is
checked against: bond values per initial rate, break-even short rates per
decision date, and per-date maximum truncation levels at three tolerances.
One put-block entry (subvasicek_jd at tau_14) is printed in the source
with a missing leading zero (0.3080348); it is stored here corrected to
0.03080348, consistent with its neighbors.  ``published_values`` and
``published_break_even`` read the tables with ``ERRATA`` substituted.
"""

from __future__ import annotations

import math

from .models import DiffusionModel, make_model
from .pricer import BondSchedule
from .subordinators import SubordinatorSpec

__all__ = [
    "swiss1987_schedule",
    "benchmark_model",
    "benchmark_subordinator",
    "BENCHMARK_CONFIGS",
    "MODEL_PARAMS",
    "REFERENCE",
    "published_values",
    "published_break_even",
]

MODEL_PARAMS = {
    "cir": dict(kappa=0.14294371, theta=0.133976855, sigma=0.38757496),
    "vasicek": dict(kappa=0.44178462, theta=0.098397028, sigma=0.13264223),
}

# Benchmark configuration names: diffusions and their IG time changes.
BENCHMARK_CONFIGS = (
    "cir",
    "vasicek",
    "subcir_jd",
    "subcir_pj",
    "subvasicek_jd",
    "subvasicek_pj",
)

_CALL_LADDER = (1.025, 1.020, 1.015, 1.010, 1.005, 1.000, 1.000, 1.000, 1.000, 1.000)
_PUT_LADDER = (1.015, 1.010, 1.005, 1.000, 0.995, 0.990, 0.990, 0.990, 0.990, 0.990)


def swiss1987_schedule(include_put: bool = False) -> BondSchedule:
    """The 1987 Swiss Confederation callable-bond schedule.

    21 annual coupons of 0.0425 at t_i = i - 0.828 (maturity 20.172),
    protection through the 11th coupon, notice period 0.1666, call ladder
    above; ``include_put`` adds the put ladder of the putable variant.
    """
    times = tuple(0.172 + float(i) for i in range(21))
    return BondSchedule(
        coupon=0.0425,
        coupon_times=times,
        protection_index=11,
        notice_delta=0.1666,
        call_prices=_CALL_LADDER,
        put_prices=_PUT_LADDER if include_put else None,
    )


def benchmark_model(config: str) -> DiffusionModel:
    base = "cir" if "cir" in config else "vasicek"
    return make_model(base, **MODEL_PARAMS[base])


def benchmark_subordinator(config: str) -> SubordinatorSpec:
    if config in ("cir", "vasicek"):
        return SubordinatorSpec.none()
    if config.endswith("_jd"):
        return SubordinatorSpec.inverse_gaussian(drift=0.5, mu=0.5, nu_var=1.0)
    if config.endswith("_pj"):
        return SubordinatorSpec.inverse_gaussian(drift=0.0, mu=1.0, nu_var=1.0)
    raise ValueError(f"unknown benchmark config {config!r}")


RATES = tuple(round(0.01 * i, 2) for i in range(1, 11))

# Published callable-bond values per initial rate 0.01..0.10.
CALLABLE_VALUES = {
    "cir": (
        0.939259, 0.915992, 0.893341, 0.871290, 0.849823,
        0.828923, 0.808577, 0.788769, 0.769484, 0.750708,
    ),
    "vasicek": (
        0.842845, 0.826294, 0.810091, 0.794230, 0.778702,
        0.763502, 0.748621, 0.734053, 0.719792, 0.705830,
    ),
    "subcir_jd": (
        0.967362, 0.941069, 0.915446, 0.890481, 0.866160,
        0.842470, 0.819396, 0.796927, 0.775050, 0.753752,
    ),
    "subcir_pj": (
        0.972668, 0.946130, 0.920208, 0.894892, 0.870174,
        0.846044, 0.822492, 0.799510, 0.777087, 0.755215,
    ),
    "subvasicek_jd": (
        0.874805, 0.855193, 0.835999, 0.817216, 0.798837,
        0.780854, 0.763261, 0.746050, 0.729215, 0.712749,
    ),
    "subvasicek_pj": (
        0.884935, 0.864408, 0.844285, 0.824562, 0.805233,
        0.786293, 0.767737, 0.749559, 0.731754, 0.714318,
    ),
}

# Published callable+putable values per initial rate 0.01..0.10.
CALLABLE_PUTABLE_VALUES = {
    "cir": (
        1.030391, 1.004673, 0.979637, 0.955265, 0.931540,
        0.908443, 0.885958, 0.864068, 0.842758, 0.822011,
    ),
    "vasicek": (
        0.995407, 0.975223, 0.955474, 0.936150, 0.917242,
        0.898741, 0.880639, 0.862926, 0.845594, 0.828635,
    ),
    "subcir_jd": (
        1.054194, 1.025454, 0.997443, 0.970147, 0.943553,
        0.917644, 0.892409, 0.867831, 0.843898, 0.820595,
    ),
    "subcir_pj": (
        1.058549, 1.029652, 1.001420, 0.973843, 0.946911,
        0.920614, 0.894942, 0.869886, 0.845435, 0.821579,
    ),
    "subvasicek_jd": (
        1.022068, 0.998893, 0.976211, 0.954015, 0.932295,
        0.911044, 0.890253, 0.869914, 0.850019, 0.830559,
    ),
    "subvasicek_pj": (
        1.030678, 1.006540, 0.982876, 0.959680, 0.936946,
        0.914668, 0.892840, 0.871456, 0.850510, 0.829996,
    ),
}

_NA = math.nan

# Break-even short rates of the call-only bond, decision dates tau_20 .. tau_11.
# NaN marks dates with no break-even point (strike dear even at zero rate).
CALLABLE_BREAK_EVEN = {
    "cir": (
        0.03388791, 0.01792789, 0.00978966, 0.00488209, 0.00157881,
        _NA, _NA, _NA, _NA, _NA,
    ),
    "vasicek": (
        0.02706597, -0.01012520, -0.03655983, -0.05701483, -0.07350682,
        -0.09100438, -0.10481935, -0.11653925, -0.12671317, -0.13566906,
    ),
    "subcir_jd": (
        0.03614163, 0.02292836, 0.01665424, 0.01161351, 0.00873978,
        _NA, _NA, _NA, _NA, _NA,
    ),
    "subcir_pj": (
        0.03672670, 0.02439808, 0.01758017, 0.01333251, 0.01047766,
        _NA, _NA, _NA, _NA, _NA,
    ),
    "subvasicek_jd": (
        0.03189678, 0.00299207, -0.01809927, -0.03477951, -0.04847549,
        -0.06370872, -0.07568237, -0.08590952, -0.09485232, -0.10277749,
    ),
    "subvasicek_pj": (
        0.03348832, 0.00734621, -0.01208475, -0.02766935, -0.04061315,
        -0.05539452, -0.06698556, -0.07694429, -0.08570132, -0.09350086,
    ),
}

# Break-even short rates of the callable+putable bond (call block, put block),
# decision dates tau_20 .. tau_11.
CALLABLE_PUTABLE_BREAK_EVEN = {
    "cir": {
        "call": (
            0.03388791, 0.03050674, 0.03032523, 0.03031566, 0.03031515,
            0.02494569, 0.02447879, 0.02427643, 0.02409131, 0.02390885,
        ),
        "put": (
            0.04534067, 0.04136813, 0.04117866, 0.04116872, 0.04116820,
            0.03572256, 0.03519281, 0.03493847, 0.03470234, 0.03446938,
        ),
    },
    "vasicek": {
        "call": (
            0.02706597, 0.01653941, 0.01570707, 0.01565754, 0.01565469,
            0.01423308, 0.01412248, 0.01407361, 0.01402853, 0.01398410,
        ),
        "put": (
            0.04044891, 0.01957849, 0.01857462, 0.01851743, 0.01851414,
            0.01708147, 0.01694566, 0.01688151, 0.01682184, 0.01676298,
        ),
    },
    "subcir_jd": {
        "call": (
            0.03614163, 0.03271682, 0.03248071, 0.03246480, 0.03246373,
            0.02715933, 0.02662948, 0.02641769, 0.02623127, 0.02604835,
        ),
        "put": (
            0.04765628, 0.04346118, 0.04320875, 0.04319187, 0.04319074,
            0.03780731, 0.03720163, 0.03693765, 0.03670090, 0.03646824,
        ),
    },
    "subcir_pj": {
        "call": (
            0.03672670, 0.03328046, 0.03298851, 0.03296440, 0.03296242,
            0.02765770, 0.02705660, 0.02682992, 0.02663907, 0.02645309,
        ),
        "put": (
            0.04838597, 0.04402728, 0.04371211, 0.04368645, 0.04368434,
            0.03830289, 0.03761288, 0.03733291, 0.03709169, 0.03685602,
        ),
    },
    "subvasicek_jd": {
        "call": (
            0.03189678, 0.02560234, 0.02523355, 0.02521294, 0.02521179,
            0.01905492, 0.01851858, 0.01830026, 0.01810142, 0.01790549,
        ),
        "put": (
            0.04477592, 0.03798709, 0.03762279, 0.03760252, 0.03760139,
            0.03139350, 0.03080348, 0.03052750, 0.03027123, 0.03001840,
        ),
    },
    "subvasicek_pj": {
        "call": (
            0.03348832, 0.02738706, 0.02696967, 0.02694260, 0.02694084,
            0.02088314, 0.02030185, 0.02007824, 0.01987946, 0.01968408,
        ),
        "put": (
            0.04625085, 0.03955459, 0.03914175, 0.03911518, 0.03911347,
            0.03301665, 0.03238388, 0.03210465, 0.03185029, 0.03159982,
        ),
    },
}

# Published maximum truncation level at tau_20 .. tau_11 and the issue date,
# per tolerance, for the call-only bond at initial rate 0.05.
MAX_TRUNCATION = {
    "cir": {
        1e-5: (6, 5, 5, 5, 4, 4, 4, 4, 4, 4, 2),
        1e-6: (9, 8, 8, 8, 7, 5, 6, 6, 6, 6, 2),
        1e-7: (11, 11, 12, 11, 11, 7, 7, 7, 7, 7, 3),
    },
    "vasicek": {
        1e-5: (5, 6, 6, 6, 6, 6, 7, 7, 7, 7, 2),
        1e-6: (6, 10, 10, 10, 11, 10, 11, 11, 11, 11, 3),
        1e-7: (7, 13, 14, 14, 14, 13, 13, 14, 14, 14, 3),
    },
    "subcir_jd": {
        1e-5: (10, 10, 11, 11, 10, 7, 7, 6, 6, 6, 3),
        1e-6: (12, 13, 14, 14, 14, 10, 8, 8, 8, 8, 3),
        1e-7: (14, 16, 19, 21, 20, 16, 11, 10, 10, 10, 4),
    },
    "subcir_pj": {
        1e-5: (11, 11, 12, 12, 11, 5, 6, 6, 6, 6, 3),
        1e-6: (13, 15, 19, 20, 20, 13, 9, 8, 8, 8, 3),
        1e-7: (17, 35, 28, 36, 39, 31, 13, 12, 12, 12, 4),
    },
    "subvasicek_jd": {
        1e-5: (6, 8, 10, 8, 8, 9, 8, 9, 9, 9, 3),
        1e-6: (7, 13, 14, 15, 15, 15, 15, 15, 15, 14, 3),
        1e-7: (8, 21, 22, 21, 23, 23, 22, 22, 22, 22, 4),
    },
    "subvasicek_pj": {
        1e-5: (6, 12, 14, 15, 16, 15, 15, 15, 15, 15, 3),
        1e-6: (8, 29, 30, 29, 29, 31, 32, 30, 30, 31, 4),
        1e-7: (8, 55, 52, 57, 53, 54, 55, 57, 57, 56, 5),
    },
}

# Cells of the published tables that independent routes contradict by far
# more than the printing precision.  Each entry gives the published numbers
# and the independently computed replacements asserted in the test suite.
#
# * subcir_jd tau_18 break-even: an isolated cell.  The coefficient
#   recursion and a quadrature dynamic program on the transition density
#   agree on 0.01590293 to 1e-8; every other cell of that table matches
#   the publication at the same accuracy.
# * plain-Vasicek putable columns (both the values and the break-even
#   blocks): the published columns diverge from date tau_19 backward.
#   Four independent computations agree against them: the coefficient
#   recursion with closed-form strike legs, the same recursion with
#   expansion-route strike legs (agreeing to 4e-13), grid dynamic
#   programming on the transition density (agreeing to 2e-6, no boundaries
#   located at all), and a 4M-path Monte Carlo of the first disagreeing
#   continuation value (the published break-even misprices by 50+ standard
#   errors).  The subordinated Vasicek putable columns, which exercise the
#   same code paths except the closed-form put leg, match the publication
#   to 5e-7, which localizes the discrepancy to the publication's
#   closed-form put-leg evaluation (whose stated infinity limit also
#   carries a sign typo).
ERRATA = {
    "callable_break_even": {
        "subcir_jd": {2: 0.01590293},
    },
    "callable_putable_values": {
        "vasicek": (
            0.995522, 0.975670, 0.956237, 0.937216, 0.918597,
            0.900372, 0.882532, 0.865069, 0.847975, 0.831242,
        ),
    },
    "callable_putable_break_even": {
        "vasicek": {
            "call": (
                0.02706597, 0.02034023, 0.02002344, 0.02000911, 0.02000843,
                0.01356213, 0.01306939, 0.01285070, 0.01264635, 0.01244456,
            ),
            "put": (
                0.04044890, 0.03332979, 0.03301610, 0.03300190, 0.03300123,
                0.02648791, 0.02593589, 0.02565550, 0.02538985, 0.02512736,
            ),
        },
    },
}

REFERENCE = {
    "rates": RATES,
    "callable_values": CALLABLE_VALUES,
    "callable_putable_values": CALLABLE_PUTABLE_VALUES,
    "callable_break_even": CALLABLE_BREAK_EVEN,
    "callable_putable_break_even": CALLABLE_PUTABLE_BREAK_EVEN,
    "max_truncation": MAX_TRUNCATION,
    "errata": ERRATA,
}


def published_values(config: str, include_put: bool = False) -> tuple[float, ...]:
    """Published bond values at ``RATES``, errata substituted."""
    table = "callable_putable_values" if include_put else "callable_values"
    return tuple(ERRATA.get(table, {}).get(config, REFERENCE[table][config]))


def published_break_even(config: str, include_put: bool = False) -> list[tuple]:
    """Published (call, put) break-even short rates at tau_20 .. tau_11,
    errata substituted.  NaN marks a date without a break-even point; the
    put entry is None for the call-only bond.
    """
    if include_put:
        table = "callable_putable_break_even"
        blocks = ERRATA.get(table, {}).get(config, REFERENCE[table][config])
        return list(zip(blocks["call"], blocks["put"]))
    table = "callable_break_even"
    calls = list(REFERENCE[table][config])
    for pos, fixed in ERRATA.get(table, {}).get(config, {}).items():
        calls[pos] = fixed
    return [(call, None) for call in calls]
