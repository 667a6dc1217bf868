import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from eigenbond import benchmark, series
from eigenbond.errors import BracketError, ConvergenceError, ValidationError
from eigenbond.models import POOL_CAP, CIRModel, ThreeHalvesModel, VasicekModel
from eigenbond.pricer import (
    BondSchedule,
    price_bond,
    zero_coupon_price,
)
from eigenbond.subordinators import SubordinatorSpec, invert_short_rate, short_rate_map, spectrum

CIR = benchmark.benchmark_model("cir")
VAS = benchmark.benchmark_model("vasicek")
TH = ThreeHalvesModel(kappa=2.0, theta=0.05, sigma=0.5)
NONE = SubordinatorSpec.none()
JD = SubordinatorSpec.inverse_gaussian(drift=0.5, mu=0.5, nu_var=1.0)
SWISS = benchmark.swiss1987_schedule()
SWISS_PUT = benchmark.swiss1987_schedule(include_put=True)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


def test_schedule_accessors():
    assert SWISS.maturity == pytest.approx(20.172)
    assert SWISS.n_coupons == 21
    assert list(SWISS.exercise_indices) == list(range(11, 21))
    assert SWISS.coupon_time(11) == pytest.approx(10.172)
    assert SWISS.decision_time(20) == pytest.approx(19.172 - 0.1666)
    assert SWISS.call_price(11) == 1.025
    assert SWISS.call_price(16) == 1.000
    assert SWISS.put_price(11) is None
    assert SWISS_PUT.put_price(15) == 0.995


def test_schedule_validation():
    with pytest.raises(ValidationError):
        BondSchedule(coupon=-0.01, coupon_times=(1.0,), protection_index=1, notice_delta=0.0)
    with pytest.raises(ValidationError):
        BondSchedule(coupon=0.04, coupon_times=(1.0, 0.5), protection_index=1, notice_delta=0.0)
    with pytest.raises(ValidationError):
        BondSchedule(coupon=0.04, coupon_times=(1.0, 2.0), protection_index=3, notice_delta=0.1)
    with pytest.raises(ValidationError):
        # notice period as long as the coupon spacing
        BondSchedule(coupon=0.04, coupon_times=(1.0, 2.0), protection_index=1, notice_delta=1.0)
    with pytest.raises(ValidationError):
        # ladder length must match the exercisable dates
        BondSchedule(
            coupon=0.04,
            coupon_times=(1.0, 2.0, 3.0),
            protection_index=1,
            notice_delta=0.1,
            call_prices=(1.0,),
        )
    with pytest.raises(ValidationError):
        # call prices must exceed put prices
        BondSchedule(
            coupon=0.04,
            coupon_times=(1.0, 2.0),
            protection_index=1,
            notice_delta=0.1,
            call_prices=(1.00,),
            put_prices=(1.00,),
        )


@pytest.mark.parametrize("bad", (math.nan, math.inf), ids=("nan", "inf"))
@pytest.mark.parametrize(
    "field", ("coupon", "notice_delta", "coupon_times", "call_prices", "put_prices")
)
def test_schedule_refuses_non_finite_fields(field, bad):
    fields = {
        "coupon": 0.04,
        "coupon_times": (1.0, 2.0, 3.0),
        "protection_index": 1,
        "notice_delta": 0.1,
        "call_prices": (1.01, 1.0),
        "put_prices": (0.98, 0.99),
    }
    if isinstance(fields[field], tuple):
        fields[field] = (bad,) + fields[field][1:]
    else:
        fields[field] = bad
    with pytest.raises(ValidationError, match="finite"):
        BondSchedule(**fields)


@pytest.mark.parametrize("ladders", (False, True), ids=("no_ladder", "ladders"))
@pytest.mark.parametrize("bad", (1.5, 2.0, True, "2"), ids=("fraction", "float", "bool", "str"))
def test_schedule_refuses_a_non_integer_protection_index(bad, ladders):
    # 1.5 without ladders escaped as a TypeError when priced, and with
    # ladders the count check said "1.5 expected"
    fields = {"coupon": 0.04, "coupon_times": (1.0, 2.0, 3.0), "notice_delta": 0.1}
    if ladders:
        fields.update(call_prices=(1.01, 1.0), put_prices=(0.98, 0.99))
    with pytest.raises(ValidationError, match="protection index must be an integer"):
        BondSchedule(protection_index=bad, **fields)
    assert BondSchedule(protection_index=np.int64(2), **{**fields, "call_prices": None,
                                                         "put_prices": None}).n_coupons == 3


_SCHEDULE = {"coupon": 0.04, "coupon_times": (1.0, 2.0, 3.0), "protection_index": 1,
             "notice_delta": 0.1, "call_prices": (1.01, 1.0)}


@pytest.mark.parametrize(
    "call",
    (
        lambda: CIRModel("a", 0.1, 0.1),
        lambda: VasicekModel(0.5, True, 0.1),
        lambda: ThreeHalvesModel(2.0, 0.05, None),
        lambda: BondSchedule(**{**_SCHEDULE, "coupon_times": ("a", 2.0)}),
        lambda: BondSchedule(**{**_SCHEDULE, "coupon_times": 5.0}),
        lambda: BondSchedule(**{**_SCHEDULE, "coupon": "0.04"}),
        lambda: BondSchedule(**{**_SCHEDULE, "notice_delta": "0.1"}),
        lambda: BondSchedule(**{**_SCHEDULE, "call_prices": ("1.01", 1.0)}),
        lambda: SubordinatorSpec(family="ig", mu="a", nu_var=1.0),
        lambda: SubordinatorSpec(family="ig", drift=None, mu=0.5, nu_var=1.0),
        lambda: zero_coupon_price(CIR, NONE, "1", 0.05),
        lambda: zero_coupon_price(CIR, NONE, 1.0, "0.05"),
        lambda: price_bond(CIR, NONE, SWISS, 0.05, eps="1e-7"),
    ),
    ids=("model_str", "model_bool", "model_none", "coupon_times_str", "coupon_times_float",
         "coupon_str", "notice_str", "ladder_str", "clock_str", "clock_drift_none",
         "zero_coupon_maturity_str", "zero_coupon_state_str", "price_bond_eps_str"),
)
def test_entry_points_refuse_a_non_numeric_real(call):
    # each raised TypeError or ValueError, or (the bool) was read as 1
    with pytest.raises(ValidationError, match="must be a real number|must be a sequence"):
        call()


@pytest.mark.parametrize("state", ("0.05", True, None), ids=("str", "bool", "none"))
@pytest.mark.parametrize(
    "call",
    (
        lambda state: price_bond(CIR, NONE, SWISS, [0.05, state]),
        lambda state: price_bond(CIR, NONE, SWISS, state),
        lambda state: short_rate_map(CIR, JD, [0.05, state]),
        lambda state: short_rate_map(CIR, NONE, state),
        lambda state: CIR.eigenfunctions(3, state),
        lambda state: VAS.eigenfunction_matrix(3, [0.05, state]),
        lambda state: TH.eigenfunction_matrix(3, state),
        lambda state: invert_short_rate(CIR, JD, state),
    ),
    ids=("price_bond_list", "price_bond_scalar", "rate_map_list", "rate_map_scalar",
         "eigenfunctions", "eigenfunction_matrix_list", "eigenfunction_matrix_scalar",
         "invert_short_rate"),
)
def test_state_entry_points_refuse_a_non_numeric_state(call, state):
    # the array entry points read "0.05" as 0.05 and True as 1, and
    # eigenfunctions escaped as a TypeError from check_state
    with pytest.raises(ValidationError, match="must be a real number"):
        call(state)


def test_state_entry_points_take_numpy_reals():
    states = np.array([0.04, 0.06], dtype=np.float32)
    assert np.array_equal(short_rate_map(CIR, NONE, states), states.astype(float))
    np.testing.assert_array_equal(
        CIR.eigenfunction_matrix(3, states), CIR.eigenfunction_matrix(3, states.astype(float))
    )
    assert np.array_equal(short_rate_map(CIR, NONE, np.array([0, 1])), [0.0, 1.0])
    assert CIR.eigenfunctions(3, np.float64(0.05)).shape == (4,)


@pytest.mark.parametrize("x0", (math.inf, -math.inf, math.nan), ids=("inf", "-inf", "nan"))
@pytest.mark.parametrize("model", (CIR, VAS), ids=lambda m: m.kind)
def test_non_finite_states_are_refused_up_front(monkeypatch, model, x0):
    from eigenbond import pricer

    def no_recursion(*args, **kwargs):
        raise AssertionError("backward recursion ran")

    monkeypatch.setattr(pricer, "_Engine", no_recursion)
    with pytest.raises(ValidationError, match="not finite"):
        price_bond(model, NONE, SWISS, [0.05, x0])
    with pytest.raises(ValidationError, match="not finite"):
        zero_coupon_price(model, NONE, 1.0, x0)


# ---------------------------------------------------------------------------
# series building blocks
# ---------------------------------------------------------------------------


def test_truncation_stops_immediately_on_zero_tail():
    terms = np.array([1.0, 0.5, 0.25, 0.0, 0.0, 0.0, 0.0])
    value, level, converged = series.truncate_terms(terms, 1e-8)
    assert converged and level == series.MIN_LEVEL
    assert value == pytest.approx(1.75)


def test_truncation_rule_readings_differ():
    # a tiny term followed by a late spike: the two-term look-ahead sees the
    # spike and does not stop at the tiny term
    terms = np.array([1.0, 0.3, 0.1, 1e-9, 0.5, 0.2, 1e-9, 1e-9, 1e-9, 1e-9])
    level, converged = series.stop_level(terms, 1e-6)
    assert converged
    assert level > series.MIN_LEVEL


def test_zero_coupon_matches_closed_form():
    for model in (CIR, VAS):
        for t in (0.5, 1.0, 5.0):
            got = zero_coupon_price(model, NONE, t, 0.05, eps=1e-10)
            assert got == pytest.approx(float(model.closed_form_bond(t, 0.05)), abs=1e-8)


def test_zero_coupon_in_unit_interval_for_nonnegative_rates():
    for t in (0.5, 2.0, 10.0):
        val = zero_coupon_price(CIR, NONE, t, 0.07, eps=1e-9)
        assert 0.0 < val < 1.0


def test_zero_coupon_rejects_bad_input():
    with pytest.raises(ValidationError):
        zero_coupon_price(CIR, NONE, -1.0, 0.05)
    with pytest.raises(ValidationError):
        zero_coupon_price(CIR, NONE, 1.0, -0.05)


def test_zero_coupon_convergence_failure_reported():
    # slow 3/2 coefficient decay at a tiny maturity cannot satisfy the
    # stopping rule within the n=2000 ceiling
    slow = ThreeHalvesModel(kappa=0.1, theta=0.05, sigma=1.0)
    with pytest.raises(ConvergenceError):
        zero_coupon_price(slow, NONE, 1e-3, 0.05, eps=1e-9)


@pytest.mark.parametrize(
    "states", ([[0.05, 0.06]], [[0.05], [0.06]], [[0.05], [0.06, 0.07]], "low"),
    ids=("row", "column", "ragged", "str"),
)
def test_price_bond_refuses_states_that_are_not_a_number_or_a_1d_sequence(states):
    # [[0.05, 0.06]] escaped as TypeError from the state check
    with pytest.raises(ValidationError, match="initial states must be"):
        price_bond(CIR, NONE, SWISS, states)


@pytest.mark.parametrize("t", (math.inf, math.nan))
@pytest.mark.parametrize(
    "model,sub",
    ((CIR, NONE), (CIR, JD), (VasicekModel(0.05, 0.05, 0.1118), NONE)),
    ids=("cir", "cir_jd", "vasicek_negative_lambda0"),
)
def test_zero_coupon_refuses_a_non_finite_maturity(model, sub, t):
    # t = inf returned 0.0 on CIR and inf, with an overflow warning, where
    # lambda_0 < 0
    with pytest.raises(ValidationError, match="maturity must be positive and finite"):
        zero_coupon_price(model, sub, t, 0.05)


@pytest.mark.parametrize("eps", (0.5, 2e-3, 0.0, -1e-9, float("nan")))
def test_zero_coupon_refuses_a_bad_eps_up_front(eps):
    # eps = 0.5 returned 0.93978 for a bond worth 0.94690; a negative or NaN
    # eps ran on into a ConvergenceError at n = 2000
    with pytest.raises(ValidationError, match="eps must lie in"):
        zero_coupon_price(CIR, NONE, 1.0, 0.05, eps=eps)


# ---------------------------------------------------------------------------
# scalar series
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("model", (CIR, VAS, TH), ids=lambda m: m.kind)
def test_pool_series_draws_only_the_steps_the_rule_needs(counted_reads, model):
    # one recurrence step per weight read: the rule at level N reads N + 3
    from eigenbond import pricer

    spec = spectrum(model, NONE)
    for x in model.stationary_distribution().ppf([0.01, 0.5, 0.99]):
        for t in (0.02, 0.1666, 1.0, 5.0):
            for eps in (1e-7, 1e-13):
                pool = counted_reads(spec.pool(((t, 1.0),)))
                value, slope, level = pricer._series(spec, pool, float(x), eps)
                assert pool.reads == level + 3

    weights = counted_reads(spec.pool(((1.0, 1.0),)))
    value, slope, level = pricer._series(spec, weights, 0.05, 1e-9)
    assert weights.reads == level + 3


def _central_slope(evaluate, x, h):
    return (evaluate(x + h)[0] - evaluate(x - h)[0]) / (2.0 * h)


@pytest.mark.parametrize(
    "model",
    (CIR, VAS, TH, CIRModel(1.0, 0.05, 0.02), ThreeHalvesModel(2.0, 0.06, 0.1)),
    ids=("cir", "vasicek", "three_halves", "cir_b250", "three_halves_402"),
)
def test_series_slope_is_the_derivative_of_its_value(model):
    # the break-even search's Newton steps read this slope; the interval is
    # the one a search over a carried vector of 64 terms probes
    from eigenbond import pricer

    spec = spectrum(model, NONE)
    lo, _, hi = model.search_interval(64)
    h = 1e-6 * (hi - lo)
    for t in (0.1666, 1.1666):
        pool = spec.pool(((t, 1.0),))
        evaluate = lambda x: pricer._series(spec, pool, x, 1e-13)
        for x in np.linspace(lo, hi, 41)[1:].tolist():
            _, slope, _ = evaluate(x)
            assert slope == pytest.approx(_central_slope(evaluate, x, h), rel=1e-7), (t, x)


@pytest.mark.parametrize("model", (CIR, VAS), ids=("cir", "vasicek"))
def test_discount_bond_slopes(model):
    # the notice-period bond of the strike comparison: the pool series of the
    # pair on a jump clock, the closed form with slope -B P on the plain
    # clock.  The pair's bond slope over the plain clock's pool is held to
    # the closed form's, which its value is held to as well.
    from eigenbond import pricer

    notice = ((SWISS.notice_delta, 1.0),)
    lo, _, hi = model.search_interval(64)
    h = 1e-6 * (hi - lo)
    weights = spectrum(model, JD).cut(((1.0, 1.0),), 1e-13).tolist()
    with_series = pricer._flow_series(spectrum(model, JD), notice, 1e-13)
    series_bond = lambda x: with_series(weights, x)[3:]
    with_closed = pricer._flow_series(spectrum(model, NONE), notice, 1e-13)
    plain_pool = spectrum(model, NONE).pool(notice)
    a_fac, b_fac = model.affine_bond_factors(SWISS.notice_delta)
    for x in np.linspace(lo, hi, 41)[1:].tolist():
        _, slope = series_bond(x)
        assert slope == pytest.approx(_central_slope(series_bond, x, h), rel=1e-7), x
        value, slope = with_closed(weights, x)[3:]
        assert slope == pytest.approx(-b_fac * value, rel=1e-15), x
        _, (bond, bond_slope, _, converged) = model.series_pair(
            weights, 1e-13, plain_pool, 1e-13, x
        )
        closed = a_fac * math.exp(-b_fac * x)
        assert converged and bond == pytest.approx(closed, rel=1e-11), x
        assert bond_slope == pytest.approx(-b_fac * closed, rel=1e-9), x


def test_a_pool_that_does_not_fire_by_pool_cap_raises():
    # each series of the pair keeps the supply rule: a pool must fire, a cut
    # vector gives all its terms.  Near the 3/2 origin on a jump clock the
    # notice bond's pool does not fire by POOL_CAP (at x = 0.002 it fires at
    # n = 1846), as the bond's or as the continuation's weights.
    from eigenbond import pricer

    spec, x = spectrum(TH, JD), 0.001
    notice = ((SWISS.notice_delta, 1.0),)
    with_notice = pricer._flow_series(spec, notice, 1e-7)
    pool = spec.pool(notice)
    message = re.escape(f"series at x={x} not converged by n={POOL_CAP}")
    for weights in ([1.0, 0.5, 0.25], pool):
        with pytest.raises(ConvergenceError, match=message):
            with_notice(weights, x)
    # the same weights cut short of POOL_CAP give all their terms, here
    # beside no cash flow, whose zero pool fires at once
    value, _, level, _, _ = pricer._flow_series(spec, (), 1e-7)(pool[:100], x)
    assert level == 99 and math.isfinite(value)


@pytest.mark.parametrize("model", (CIR, ThreeHalvesModel(2.0, 0.06, 0.5)), ids=("cir", "th"))
def test_one_spectrum_serves_every_entry_point_of_a_model_and_clock(monkeypatch, model):
    # the plain clock: on a jump clock the short-rate map takes its own
    # Laplace exponents, to a depth past POOL_CAP
    from eigenbond import coeffs, subordinators

    model = dataclasses.replace(model)  # nothing kept on it yet
    calls = []
    exponent = subordinators.laplace_exponent
    monkeypatch.setattr(
        subordinators, "laplace_exponent", lambda *args: calls.append(args) or exponent(*args)
    )
    price_bond(model, NONE, SWISS, [0.05], eps=1e-7)
    zero_coupon_price(model, NONE, 1.0, 0.05)
    coeffs.strike_projection(model, NONE, 10, model.state_lo, 0.05, SWISS.notice_delta, eps=1e-7)
    assert len(calls) == 1
    (spec,) = model._spectra.values()
    pools, cuts = dict(spec._pools), dict(spec._cuts)
    assert ((1.0, 1.0),) not in pools and (((SWISS.notice_delta, 1.0),), 1e-7) in cuts

    price_bond(model, NONE, SWISS, [0.05], eps=1e-7)
    assert len(calls) == 1 and model._spectra == {NONE: spec}
    assert spec._pools.keys() == pools.keys() and spec._cuts.keys() == cuts.keys()
    assert all(spec._pools[key] is pool for key, pool in pools.items())
    assert all(spec._cuts[key] is cut for key, cut in cuts.items())


def test_zero_coupon_keeps_no_weights_on_the_spectrum():
    # one 2001-float pool per maturity was kept, without bound
    model = dataclasses.replace(CIR)
    zero_coupon_price(model, NONE, 1.0, 0.05)
    spec = spectrum(model, NONE)
    pools, cuts = dict(spec._pools), dict(spec._cuts)
    for t in np.linspace(0.05, 30.0, 200):
        zero_coupon_price(model, NONE, float(t), 0.05)
    assert spec._pools == pools and spec._cuts == cuts
    assert all(spec._pools[key] is pool for key, pool in pools.items())


def test_pricing_keeps_only_its_cash_flows_on_the_spectrum():
    # the assembly's per-run tables (decays, coupon term) live on the engine:
    # what the spectrum keeps is one pool per cash-flow set, one cut per
    # (cash-flow set, eps) and one floor per pool a search or the issue
    # value reads, at the eps it is read to, whatever the schedule, and the
    # short-rate map that the break-even states grew
    model = dataclasses.replace(CIR)
    spec = spectrum(model, JD)
    schedules = (SWISS_PUT, _thirty_year_monthly())
    for schedule in schedules:
        price_bond(model, JD, schedule, [0.05], eps=1e-7)
        assert set(vars(spec)) == {
            "model", "sub", "lam", "philam", "p", "_pools", "_cuts", "_floors", "rate_map"
        }
        assert len(spec.rate_map) == 4
    pools, cuts, floors = set(), set(), set()
    for schedule in schedules:
        held = schedule.holding_period(schedule.exercise_indices[-1])
        redemption = ((held, 1.0 + schedule.coupon),)
        notice = ((schedule.notice_delta, 1.0),)
        coupons = tuple((t, schedule.coupon) for t in schedule.coupon_times[: schedule.protection_index - 1])
        pools |= {redemption, notice, coupons}
        cuts |= {(redemption, 1e-7), (notice, 1e-7)}
        floors |= {(redemption, 1e-7), (notice, 1e-7), (coupons, 1e-7 / len(coupons))}
    assert set(spec._pools) == pools and set(spec._cuts) == cuts
    assert set(spec._floors) == floors
    # CIR's series resolve over its whole search interval: every floor is the origin
    assert set(spec._floors.values()) == {model.state_lo}


def _run_outputs(result):
    return (
        result.values.tolist(),
        result.break_even_states,
        [d.eval_levels for d in result.dates],
        [d.assembled for d in result.dates],
        result.value_levels,
    )


@pytest.mark.parametrize(
    "model,sub,schedule",
    (
        (benchmark.benchmark_model("subcir_jd"), benchmark.benchmark_subordinator("subcir_jd"),
         SWISS_PUT),
        (benchmark.benchmark_model("subvasicek_pj"),
         benchmark.benchmark_subordinator("subvasicek_pj"), SWISS),
        (ThreeHalvesModel(2.0, 0.06, 0.5), NONE, SWISS),
    ),
    ids=("cir_jd_call_put", "vasicek_pj", "three_halves"),
)
def test_warm_and_fresh_models_price_alike(model, sub, schedule):
    # what a model keeps from one pricing (its spectrum's pools and cuts)
    # changes no bit of the next, whichever eps ran first
    states = [0.03, 0.05, 0.08]
    fresh = {
        eps: _run_outputs(price_bond(dataclasses.replace(model), sub, schedule, states, eps=eps))
        for eps in (1e-7, 1e-10)
    }
    for order in ((1e-7, 1e-10), (1e-10, 1e-7)):
        warm = dataclasses.replace(model)
        for eps in order:
            assert _run_outputs(price_bond(warm, sub, schedule, states, eps=eps)) == fresh[eps]


def test_unreachable_call_prices_the_closed_form_straight_bond():
    # one exercise date whose call price is never reached: the recursion's
    # hold value is (1 + C) P(h, x) and the value is the straight bond
    coupon = 0.0425
    sched = BondSchedule(
        coupon=coupon,
        coupon_times=(1.0, 2.1666),
        protection_index=1,
        notice_delta=0.1666,
        call_prices=(5.0,),
    )
    xs = np.array([0.01, 0.05, 0.12])
    res = price_bond(CIR, NONE, sched, xs, eps=1e-11)
    assert res.break_even_states == [(None, None)]
    straight = coupon * CIR.closed_form_bond(1.0, xs) + (1.0 + coupon) * CIR.closed_form_bond(
        2.1666, xs
    )
    np.testing.assert_allclose(res.values, straight, rtol=0.0, atol=1e-8)


def _protected_coupons(schedule):
    """The protected coupons as cash flows ((t_i, c), ...)."""
    return tuple(
        (schedule.coupon_time(i), schedule.coupon) for i in range(1, schedule.protection_index)
    )


def test_notice_bond_and_protected_coupons_share_one_evaluator(monkeypatch):
    # one helper per cash-flow set, read by every search and at issue
    from eigenbond import pricer

    built = []
    make = pricer._flow_series

    def counted(spec, flows, eps):
        built.append(flows)
        return make(spec, flows, eps)

    monkeypatch.setattr(pricer, "_flow_series", counted)
    for sub in (NONE, JD):
        built.clear()
        price_bond(CIR, sub, SWISS, [0.03, 0.05], eps=1e-7)
        assert built == [((SWISS.notice_delta, 1.0),), _protected_coupons(SWISS)]


@pytest.mark.parametrize(
    "model, sub",
    (
        (benchmark.benchmark_model("cir_jd"), benchmark.benchmark_subordinator("cir_jd")),
        (benchmark.benchmark_model("vasicek_pj"), benchmark.benchmark_subordinator("vasicek_pj")),
        (ThreeHalvesModel(kappa=2.0, theta=0.06, sigma=0.5), NONE),
    ),
    ids=("cir_jd", "vasicek_pj", "three_halves"),
)
def test_coupon_leg_series_matches_the_sum_of_coupon_bonds(model, sub):
    # one series over the summed weights against one series per coupon at
    # the same eps and against coupon bonds at eps 1e-15: the leg is held
    # to eps of the mean coupon, so the slowly decaying first coupon is cut
    # no looser than its own series (a cut at eps of the whole leg misses
    # on 3/2 by up to 7 eps)
    from eigenbond import pricer

    eps = 1e-10
    flows = _protected_coupons(SWISS)
    spec = spectrum(model, sub)
    weights = spec.cut(((SWISS.maturity, 1.0),), eps).tolist()
    with_coupons = pricer._flow_series(spec, flows, eps)
    for x in model.stationary_distribution().ppf([0.01, 0.25, 0.5, 0.75, 0.99]):
        got = with_coupons(weights, float(x))[3]
        ref = sum(a * zero_coupon_price(model, sub, t, float(x), eps=eps) for t, a in flows)
        exact = sum(a * zero_coupon_price(model, sub, t, float(x), eps=1e-15) for t, a in flows)
        assert abs(got - ref) <= eps * abs(got), (x, got, ref)
        assert abs(got - exact) <= eps * exact, (x, got, exact)


@pytest.mark.parametrize("model", (CIR, VAS), ids=("cir", "vas"))
def test_coupon_leg_matches_the_closed_form_on_the_plain_clock(model):
    from eigenbond import pricer

    flows = _protected_coupons(SWISS)
    with_coupons = pricer._flow_series(spectrum(model, NONE), flows, 1e-7)
    for x in model.stationary_distribution().ppf([0.01, 0.25, 0.5, 0.75, 0.99]):
        ref = sum(a * float(model.closed_form_bond(t, x)) for t, a in flows)
        assert with_coupons([1.0], float(x))[3] == pytest.approx(ref, rel=1e-14, abs=0.0)


def test_holding_periods_of_the_schedule():
    k = SWISS.n_coupons
    assert SWISS.holding_period(k - 1) == SWISS.maturity - SWISS.decision_time(k - 1)
    for i in range(SWISS.protection_index, k - 1):
        assert SWISS.holding_period(i) == SWISS.decision_time(i + 1) - SWISS.decision_time(i)


def test_cir_with_a_large_norm_exponent_prices_zero_coupon_bonds():
    # b = 160: the factor (2 gamma / sigma^2)^(b/2) of the norm constant
    # overflows on its own; formed in log space it does not
    model = CIRModel(kappa=10.0, theta=0.005, sigma=0.025)
    for x in (0.001, 0.005, 0.02):
        got = zero_coupon_price(model, NONE, 1.0, x)
        assert got == pytest.approx(float(model.closed_form_bond(1.0, x)), abs=1e-12)


@pytest.mark.parametrize("schedule", (SWISS, SWISS_PUT), ids=("call", "call_put"))
@pytest.mark.parametrize("eps", (1e-7, 1e-10))
def test_a_call_region_over_the_whole_search_interval_calls_at_the_first_date(schedule, eps):
    # b = 160 at rates near 0.005: calling beats holding up to the top of the
    # search interval at every date
    model = CIRModel(kappa=10.0, theta=0.005, sigma=0.025)
    x0 = 0.005
    result = price_bond(model, NONE, schedule, [x0], eps=eps)
    _, _, search_hi = model.search_interval(0)
    assert all(state == (search_hi, None) for state in result.break_even_states)
    # so the bond is called at the first call date p wherever it starts
    p = schedule.protection_index
    bond = lambda i: float(model.closed_form_bond(schedule.coupon_time(i), x0))
    called = schedule.coupon * sum(bond(i) for i in range(1, p + 1)) + schedule.call_price(p) * bond(p)
    assert result.values[0] == pytest.approx(called, abs=1e-11)


def test_a_faked_call_region_over_the_whole_interval_fails_typed_on_three_halves(monkeypatch):
    from eigenbond import pricer

    # a carried vector that evaluates wrongly large everywhere makes calling
    # look cheaper than holding over the whole search interval; P(delta, .)
    # is a series too on 3/2, read in the same pass, and inflating it as
    # well would hide the region
    make = pricer._flow_series

    def inflating(spec, flows, eps):
        evaluate = make(spec, flows, eps)

        def inflated(weights, x):
            value, slope, level, bond, bond_slope = evaluate(weights, x)
            return value + 10.0, slope, level, bond, bond_slope

        return inflated

    monkeypatch.setattr(pricer, "_flow_series", inflating)
    with pytest.raises(BracketError, match="call region covers the whole search interval"):
        price_bond(TH, NONE, SWISS, [0.05], eps=1e-7)


def test_vasicek_with_a_large_hermite_shift_is_refused_before_any_search(monkeypatch):
    from eigenbond import pricer

    # a = 14.1: the carried coefficient cut missed eps 1e-7 by 1.9e-4 here
    model = VasicekModel(kappa=0.02, theta=0.05, sigma=0.04)

    def no_search(*args, **kwargs):
        raise AssertionError("break-even search ran")

    monkeypatch.setattr(pricer._RootFinder, "find", no_search)
    for eps in (1e-7, 1e-12):
        with pytest.raises(ValidationError, match=r"Hermite shift a = 14\.14 exceeds 10"):
            price_bond(model, NONE, SWISS, [0.05], eps=eps)


def test_assembly_unconverged_at_the_pool_cap_raises(monkeypatch):
    from eigenbond import pricer

    monkeypatch.setattr(pricer, "POOL_CAP", 20)
    with pytest.raises(ConvergenceError, match="carried coefficients .* not converged by n=20"):
        price_bond(CIR, NONE, SWISS, [0.05], eps=1e-10)


def test_a_straight_bond_takes_no_cut_of_its_redemption():
    # with no decision date nothing is assembled: a redemption pool whose
    # weights do not fire the cut by POOL_CAP still prices where its series
    # converges
    slow = ThreeHalvesModel(kappa=0.1, theta=0.05, sigma=1.0)
    sched = BondSchedule(coupon=0.0, coupon_times=(0.3,), protection_index=1, notice_delta=0.0)
    value = price_bond(slow, NONE, sched, [0.05], eps=1e-7).values[0]
    assert value == zero_coupon_price(slow, NONE, 0.3, 0.05, eps=1e-7)


def test_continuation_decreasing_in_state():
    # a lone redemption date: the value is the hold value (1 + C) P(h, x)
    sched = BondSchedule(coupon=0.0425, coupon_times=(1.0,), protection_index=1, notice_delta=0.0)
    xs = np.linspace(0.0, 0.5, 26)
    vals = price_bond(CIR, NONE, sched, xs, eps=1e-10).values
    assert all(b < a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# break-even search
# ---------------------------------------------------------------------------


def _terminal_stage(call_price, put_price=None):
    """One exercise date with the benchmark's last holding period: h = 1.1666."""
    return BondSchedule(
        coupon=0.0425,
        coupon_times=(1.0, 2.0),
        protection_index=1,
        notice_delta=0.1666,
        call_prices=(call_price,),
        put_prices=None if put_price is None else (put_price,),
    )


def test_find_break_even_terminal_cir():
    # last decision date of the benchmark: K=1, h = 1.1666, coefficients
    # are the terminal expansion; the root matches the published table
    res = price_bond(CIR, NONE, _terminal_stage(1.0), [0.05], eps=1e-9)
    (call_state, put_state), = res.break_even_states
    assert call_state == pytest.approx(0.03388791, abs=1e-6)
    assert put_state is None


def test_find_break_even_absent_when_strike_dear():
    res = price_bond(CIR, NONE, _terminal_stage(1.2), [0.05], eps=1e-9)
    assert res.break_even_states == [(None, None)]


def test_find_break_even_put_above_call():
    res = price_bond(VAS, NONE, _terminal_stage(1.0, 0.99), [0.05], eps=1e-9)
    (call_state, put_state), = res.break_even_states
    assert call_state is not None and put_state is not None
    assert call_state < put_state


def _thirty_year_monthly():
    """The monthly 30-year callable of the bench: 300 decision dates at par."""
    return BondSchedule(
        coupon=0.05 / 12,
        coupon_times=tuple(i / 12 for i in range(1, 361)),
        protection_index=60,
        notice_delta=1 / 48,
        call_prices=(1.0,) * 300,
    )


def _five_year_monthly(call_prices):
    """60 monthly coupons, callable from the first year on: 48 decision dates."""
    return BondSchedule(
        coupon=0.05 / 12,
        coupon_times=tuple(i / 12 for i in range(1, 61)),
        protection_index=12,
        notice_delta=1 / 48,
        call_prices=tuple(call_prices),
    )


def _cold_start(monkeypatch):
    """Start every break-even walk without a hint, at the bottom of the
    search interval."""
    from eigenbond import pricer

    warm_find = pricer._RootFinder.find
    monkeypatch.setattr(
        pricer._RootFinder,
        "find",
        lambda self, kind, strike, hint=None: warm_find(self, kind, strike),
    )


@pytest.mark.parametrize("model", (CIR, VAS), ids=lambda m: m.kind)
def test_warm_started_search_is_cheap(model):
    res = price_bond(model, NONE, _five_year_monthly([1.0] * 48), [0.05], eps=1e-7)
    assert len(res.dates) == 48
    assert np.mean([len(d.eval_levels) for d in res.dates]) <= 4.0


def _warm_states_matching_cold(monkeypatch, model, ladder):
    """Call break-even states of a warm-started run, checked against a cold one."""
    schedule = _five_year_monthly(ladder)
    warm = price_bond(model, NONE, schedule, [0.05], eps=1e-7)
    _cold_start(monkeypatch)
    cold = price_bond(model, NONE, schedule, [0.05], eps=1e-7)

    warm_states = [d.call_state for d in warm.dates]
    cold_states = [d.call_state for d in cold.dates]
    assert [x is None for x in warm_states] == [x is None for x in cold_states]
    for x_warm, x_cold in zip(warm_states, cold_states):
        if x_warm is not None:
            assert x_warm == pytest.approx(x_cold, abs=1e-7)  # TOL_X
    assert warm.values[0] == pytest.approx(cold.values[0], abs=1e-10)
    return warm_states


@pytest.mark.parametrize("model", (CIR, VAS), ids=lambda m: m.kind)
def test_emptied_call_region_falls_back_to_cold_start(monkeypatch, model):
    # the first date at 1.5 walks from its hint to the search edge; the
    # later ones and the first date after the gap have no hint
    ladder = [1.0] * 18 + [1.5] * 12 + [1.0] * 18
    states = _warm_states_matching_cold(monkeypatch, model, ladder)
    assert states[18:30] == [None] * 12
    assert None not in states[:18] + states[30:]


@pytest.mark.parametrize("model", (CIR, VAS), ids=lambda m: m.kind)
def test_strike_jump_leaves_the_warm_bracket(monkeypatch, model):
    from eigenbond import pricer

    states = _warm_states_matching_cold(monkeypatch, model, [1.0] * 24 + [1.06] * 24)
    # the last date at par is found from the first date at 1.06
    assert abs(states[23] - states[24]) > 4.0 * pricer._WARM_HALF_WIDTH


@pytest.mark.parametrize("model", (CIR, VAS), ids=lambda m: m.kind)
def test_a_strike_jump_falls_back_to_the_walk(monkeypatch, model):
    # the break-even state moves far over the first two par dates after the
    # strike drops (from 0.0019 to 0.041 to 0.021 on CIR).  Newton's steps
    # close those searches inside the bracket they narrow: the first par
    # date below the jump once took Newton's 4 evaluations plus a walk and
    # Brent from the hint again (12 on CIR, 14 on Vasicek).  Only a search
    # without a hint that finds a region takes a bracketing step, its walk
    # from search_lo to bracket_start.
    from eigenbond import pricer

    find = pricer._RootFinder.find
    searched = []  # the states each search evaluated

    def recorded(self, kind, strike, hint=None):
        seen, evaluate = [], self.evaluate
        searched.append(seen)
        self.evaluate = lambda x: seen.append(x) or evaluate(x)
        try:
            return find(self, kind, strike, hint=hint)
        finally:
            self.evaluate = evaluate

    monkeypatch.setattr(pricer._RootFinder, "find", recorded)
    ladder = [1.0] * 24 + [1.06] * 24
    warm = price_bond(model, NONE, _five_year_monthly(ladder), [0.05], eps=1e-7)
    assert len(searched) == 48 and all(len(set(seen)) == len(seen) for seen in searched)
    assert len(warm.dates[22].eval_levels) <= 6
    states = [d.call_state for d in warm.dates] + [None]  # no hint for the last date
    cold = {i for i, state in enumerate(states[:-1]) if state is not None and states[i + 1] is None}
    fallbacks = {i: d.search_fallbacks for i, d in enumerate(warm.dates) if d.search_fallbacks}
    assert fallbacks == dict.fromkeys(cold, 1) and len(cold) == 1
    _warm_states_matching_cold(monkeypatch, model, ladder)


def _tight_root(finder, diff, root):
    """Brent's root of the same difference at xtol 1e-14, bracketed around root."""
    from eigenbond import pricer

    width = pricer.TOL_X
    for _ in range(40):
        lo = max(root - width, finder.search_lo)
        hi = min(root + width, finder.search_hi)
        if diff(lo)[0] <= 0.0 < diff(hi)[0]:
            return optimize.brentq(lambda x: diff(x)[0], lo, hi, xtol=1e-14)
        width *= 2.0
    raise AssertionError(f"no sign change around {root}")


@pytest.mark.parametrize(
    "model,sub,schedule",
    [
        (benchmark.benchmark_model(c), benchmark.benchmark_subordinator(c), SWISS_PUT)
        for c in benchmark.BENCHMARK_CONFIGS
    ]
    + [(ThreeHalvesModel(2.0, 0.06, 0.5), NONE, SWISS)],
    ids=[f"{c}_call_put" for c in benchmark.BENCHMARK_CONFIGS] + ["three_halves_callable"],
)
@pytest.mark.parametrize("eps", (1e-7, 1e-10))
def test_newton_closes_within_half_tol_of_a_tight_brent(monkeypatch, model, sub, schedule, eps):
    from eigenbond import pricer

    # every finite crossing, whether a Newton step, a bisection or the walk
    # closed it; a call region over the whole interval has none
    find = pricer._RootFinder.find
    closed = []

    def checked(self, kind, strike, hint=None):
        root = find(self, kind, strike, hint=hint)
        if root is not None and not (kind == "call" and root == self.search_hi):
            closed.append((root, _tight_root(self, self._difference(strike), root)))
        return root

    monkeypatch.setattr(pricer._RootFinder, "find", checked)
    price_bond(model, sub, schedule, [0.05], eps=eps)
    assert len(closed) >= 9
    for root, reference in closed:
        assert abs(root - reference) <= 0.5 * pricer.TOL_X, (root, reference)


def _searches(monkeypatch):
    """Every break-even search of a pricing, by decision index: its hint,
    its state, its evaluations and its finder."""
    from eigenbond import pricer

    find = pricer._RootFinder.find
    searches = {}

    def recorded(self, kind, strike, hint=None):
        before = len(self.levels)
        state = find(self, kind, strike, hint=hint)
        searches[self.decision_index] = hint, state, len(self.levels) - before, self
        return state

    monkeypatch.setattr(pricer._RootFinder, "find", recorded)
    return searches


def test_a_cold_search_whose_root_lies_just_above_search_lo_closes_in_five_evaluations(
    monkeypatch,
):
    # the first date at 1.06 with a call region searches cold; its root lies
    # 1.8e-4 above search_lo = 0, where D is concave, so each Newton step
    # from the top of the bracket overshoots below search_lo.  Stepping
    # from the bottom end, whose |D| is smaller, stays inside; stepping
    # from the last iterate alone bisected 9 times (11 evaluations), where
    # Brent took 5
    from eigenbond import pricer

    searches = _searches(monkeypatch)
    price_bond(CIR, NONE, _five_year_monthly([1.0] * 24 + [1.06] * 24), [0.05], eps=1e-7)
    hint, state, evaluations, finder = searches[39]
    assert searches[40][1] is None and hint is None
    assert finder.search_lo == 0.0 and state == pytest.approx(1.771e-4, rel=1e-3)
    assert evaluations <= 5
    reference = _tight_root(finder, finder._difference(1.06), state)
    assert abs(state - reference) <= 0.5 * pricer.TOL_X


@pytest.mark.parametrize(
    "ladder",
    ([1.0] * 24 + [1.06] * 24, [1.0] * 18 + [1.5] * 12 + [1.0] * 18),
    ids=("strike_jump", "emptied_region"),
)
@pytest.mark.parametrize("model", (CIR, VAS), ids=lambda m: m.kind)
def test_a_date_without_a_call_state_restarts_the_predictor(monkeypatch, model, ladder):
    # the date after one without a call state starts cold, and the dates
    # after it start at the last state until a line through the states
    # located since has missed twice: nothing located before the gap is read
    searches = _searches(monkeypatch)
    result = price_bond(model, NONE, _five_year_monthly(ladder), [0.05], eps=1e-7)
    states = {d.index: d.call_state for d in result.dates}
    restarts = [i for i, x in states.items()
                if x is not None and i + 1 in states and states[i + 1] is None]
    assert restarts
    for i in restarts:
        assert searches[i][0] is None
        for j in range(i - 1, i - 4, -1):
            if states.get(j) is None:
                break
            assert searches[j][0] == states[j + 1], (i, j)


@pytest.mark.parametrize("model,most", ((CIR, 1.6), (VAS, 1.8)), ids=("cir", "vasicek"))
def test_the_predicted_search_start_keeps_the_long_callable_cheap(model, most):
    # the bench's 300-date monthly callable: started at last date's state
    # its searches took 2.03 (CIR) and 2.87 (Vasicek) evaluations a date;
    # started at the prediction that missed least, 1.52 and 1.71
    result = price_bond(model, NONE, _thirty_year_monthly(), [0.05], eps=1e-7)
    assert len(result.dates) == 300
    assert sum(len(d.eval_levels) for d in result.dates) <= most * 300


def test_the_predicted_search_start_costs_the_swiss_runs_no_evaluations():
    # the six benchmark configurations at eps 1e-7 and 1e-10, at most the
    # evaluations they took started at last date's state: the callable
    # runs 303 in all (285 predicted; the Vasicek callable alone takes 23
    # -> 26 at each eps), the call+put runs 552 (552)
    evaluations = {False: 0, True: 0}
    for config in benchmark.BENCHMARK_CONFIGS:
        model, sub = benchmark.benchmark_model(config), benchmark.benchmark_subordinator(config)
        for include_put in (False, True):
            schedule = benchmark.swiss1987_schedule(include_put=include_put)
            for eps in (1e-7, 1e-10):
                result = price_bond(model, sub, schedule, [0.05], eps=eps)
                evaluations[include_put] += sum(len(d.eval_levels) for d in result.dates)
    assert evaluations[False] <= 303
    assert evaluations[True] <= 552


@pytest.mark.parametrize(
    "model,schedule",
    ((CIR, SWISS_PUT), (VAS, SWISS_PUT), (ThreeHalvesModel(2.0, 0.06, 0.5), SWISS)),
    ids=("cir", "vasicek", "three_halves"),
)
@pytest.mark.parametrize("sub", (NONE, JD), ids=("plain", "ig"))
def test_break_even_states_and_rates_are_python_floats(model, sub, schedule):
    # a numpy scalar state would carry into the next search's start and run
    # the series and the assembly on numpy scalars
    result = price_bond(model, sub, schedule, [0.05], eps=1e-7)
    found = [x for d in result.dates
             for x in (d.call_state, d.put_state, d.call_rate, d.put_rate) if x is not None]
    assert len(found) >= 2 * len(result.dates)
    assert all(type(x) is float for x in found), {type(x) for x in found}


def _walk(interval, root):
    """A break-even search on diff(x) = x - root (K = 1, P(delta, x) = 1,
    C(x) = 1 - (x - root)), with the list of the states it evaluates."""
    seen = []

    def cont(x):
        seen.append(x)
        return 1.0 - (x - root), -1.0, 0

    return _finder(cont, interval), seen


def _finder(cont, interval):
    """A finder on cont(x) = (C, C', level) against P(delta, x) = 1."""
    from eigenbond import pricer

    return pricer._RootFinder(lambda x: (*cont(x), 1.0, 0.0), interval, 7, [])


def test_newton_takes_an_iterate_only_on_a_small_error_estimate():
    # D(x) = expm1(100 (x - root)) from a hint 0.01 below: the second iterate
    # lies inside the evaluated sign change but 2e-3 from the root, where
    # the quadratic estimate reads 6e-4; the search goes on and closes
    from eigenbond import pricer

    root, seen = 0.5, []

    def cont(x):
        seen.append(x)
        return 1.0 - math.expm1(100.0 * (x - root)), -100.0 * math.exp(100.0 * (x - root)), 0

    finder = _finder(cont, CIR.search_interval(40))
    found = finder.find("call", 1.0, hint=root - 0.01)
    assert found == pytest.approx(root, abs=0.5 * pricer.TOL_X)
    assert len(seen) > 3


_WRONG_SLOPES = {
    "1e-3_too_small": lambda x, slope, n, root: 1e-3 * slope,
    "zero_at_every_other_state": lambda x, slope, n, root: 0.0 if n % 2 else slope,
    "negative_above_the_root": lambda x, slope, n, root: -slope if x > root else slope,
    "negative_below_the_root": lambda x, slope, n, root: -slope if x < root else slope,
}


@pytest.mark.parametrize("wrong", sorted(_WRONG_SLOPES))
@pytest.mark.parametrize("curve", ("exp", "atan"))
def test_a_wrong_slope_still_closes_within_half_tol(wrong, curve):
    # the bracketing step takes over where the reported D' would send Newton
    # astray: D = expm1(30 (x - root)), or the inflected atan(300 (x - root))
    # + 0.01 (x - root), whose slope the finder reads through `wrong`
    from eigenbond import pricer

    interval = lo, start, hi = CIR.search_interval(40)
    bracketing = 0  # searches that took a bracketing step
    for root in (lo + 5e-4, 0.02, start, 0.5 * (start + hi)):
        for hint in (None, root - 0.02, root + 0.05, root + 3e-5, lo, hi):
            seen = []

            def cont(x, root=root, seen=seen):
                seen.append(x)
                u = x - root
                if curve == "exp":
                    value, slope = math.expm1(30.0 * u), 30.0 * math.exp(30.0 * u)
                else:
                    value = math.atan(300.0 * u) + 0.01 * u
                    slope = 300.0 / (1.0 + (300.0 * u) ** 2) + 0.01
                return 1.0 - value, -_WRONG_SLOPES[wrong](x, slope, len(seen), root), 0

            finder = _finder(cont, interval)
            found = finder.find("call", 1.0, hint=hint)
            assert abs(found - root) <= 0.5 * pricer.TOL_X, (root, hint, found)
            assert len(set(seen)) == len(seen)
            bracketing += finder.fallbacks
    assert bracketing > 0


def test_walk_clamps_a_hint_outside_the_search_interval():
    from eigenbond import pricer

    # the bottom of the 3/2 search interval moves with the carried length, so
    # a state predicted from earlier dates can lie below this date's search_lo
    below = TH.search_interval(400)[0]
    interval = TH.search_interval(8)
    lo, _, hi = interval
    assert below < lo
    for kind, hint in (("call", below), ("put", below), ("call", 2.0 * hi), ("put", 2.0 * hi)):
        for root in (lo + 1e-4, 0.5 * (lo + hi), hi - 1e-4):
            finder, seen = _walk(interval, root)
            assert finder.find(kind, 1.0, hint=hint) == pytest.approx(root, abs=pricer.TOL_X)
            assert all(lo <= x <= hi for x in seen), (kind, hint, root)


@pytest.mark.parametrize("hint", ("none", "inside", "below", "above"))
def test_walk_at_the_edges_of_the_search_interval(hint):
    interval = lo, _, hi = CIR.search_interval(40)
    hint = {"none": None, "inside": 0.5 * (lo + hi), "below": lo - 1.0, "above": 2.0 * hi}[hint]
    # diff > 0 everywhere: no call region, and a put region over the whole interval
    assert _walk(interval, lo - 1.0)[0].find("call", 1.0, hint=hint) is None
    assert _walk(interval, lo - 1.0)[0].find("put", 1.0, hint=hint) == lo
    # diff <= 0 everywhere: a call region over the whole interval, and no put region
    assert _walk(interval, hi + 1.0)[0].find("call", 1.0, hint=hint) == hi
    assert _walk(interval, hi + 1.0)[0].find("put", 1.0, hint=hint) is None


@pytest.mark.parametrize("kind", ("call", "put"))
def test_a_state_where_the_difference_is_exactly_zero_closes_the_search(kind):
    # its Newton step is 0, and an iterate on the bracket's end failed the
    # strict bracket test: the search walked out and bisected back (17
    # evaluations at one long_callable date) to a state TOL_X / 3 away
    interval = lo, _, hi = CIR.search_interval(40)
    root = lo + 0.25 * (hi - lo)
    finder, seen = _walk(interval, root)
    assert finder.find(kind, 1.0, hint=root) == root
    assert seen == [root]


@pytest.mark.parametrize(
    "model,sub,schedule",
    (
        (CIR, NONE, _five_year_monthly([1.0] * 48)),
        (VAS, NONE, SWISS_PUT),
        # the expansion strike leg may need deeper rows than the hold
        (CIR, JD, SWISS_PUT),
    ),
    ids=("cir_callable", "vasicek_call_put", "subcir_jd_call_put"),
)
def test_one_polynomial_table_per_break_even_state_per_pass(monkeypatch, model, sub, schedule):
    from eigenbond import coeffs, pricer

    # the rows of either family (one kernel pass each), and the closed-form
    # Laguerre tables, which assembly no longer builds
    builds = []
    for name in ("laguerre_sequence_table", "_kernel"):
        build = getattr(coeffs, name)
        monkeypatch.setattr(
            coeffs, name, lambda *args, build=build: builds.append(args) or build(*args)
        )
    passes = []  # (tables built, finite break-even states) per assembly pass
    assemble = pricer._Engine._assemble

    def counted(self, i, n_rows, x_call, x_put, prev_weights):
        before = len(builds)
        new = assemble(self, i, n_rows, x_call, x_put, prev_weights)
        passes.append((len(builds) - before, (x_call, x_put).count(None)))
        return new

    monkeypatch.setattr(pricer._Engine, "_assemble", counted)
    price_bond(model, sub, schedule, [0.05], eps=1e-7)
    assert len(passes) >= len(schedule.exercise_indices)
    # the callable has one state per pass at most; the put bond has passes with both
    assert max(built for built, _ in passes) == (1 if schedule.put_prices is None else 2)
    assert all(built == 2 - missing for built, missing in passes)
    assert len(builds) == sum(built for built, _ in passes)  # none outside assembly


@pytest.mark.parametrize(
    "model,sub,schedule",
    (
        (CIR, NONE, SWISS_PUT),
        (VAS, JD, SWISS_PUT),
        (TH, JD, SWISS),
        # b = 160 near 0.005: a call region over the whole search interval,
        # whose state is finite too
        (CIRModel(kappa=10.0, theta=0.005, sigma=0.025), NONE, SWISS_PUT),
    ),
    ids=("cir_call_put", "subvasicek_jd_call_put", "three_halves_jd_callable", "cir_whole_interval"),
)
def test_one_overlap_apply_per_break_even_state_per_pass(monkeypatch, model, sub, schedule):
    from eigenbond import coeffs, pricer

    applies = []
    apply = coeffs.overlap_below
    monkeypatch.setattr(
        coeffs, "overlap_below", lambda model, x, *args: applies.append(x) or apply(model, x, *args)
    )
    passes = []  # (states applied, finite break-even states) per assembly pass
    assemble = pricer._Engine._assemble

    def counted(self, i, n_rows, x_call, x_put, prev_weights):
        before = len(applies)
        new = assemble(self, i, n_rows, x_call, x_put, prev_weights)
        passes.append((applies[before:], [x for x in (x_call, x_put) if x is not None]))
        return new

    monkeypatch.setattr(pricer._Engine, "_assemble", counted)
    result = price_bond(model, sub, schedule, [0.05], eps=1e-7)
    assert len(passes) >= len(schedule.exercise_indices)
    assert all(applied == finite for applied, finite in passes)
    assert len(applies) == sum(len(finite) for _, finite in passes)  # none outside assembly
    if model.theta == 0.005:
        hi = model.search_interval(0)[2]
        assert all(state == (hi, None) for state in result.break_even_states)


@pytest.mark.parametrize("model", (CIR, VAS), ids=("cir", "vasicek"))
def test_the_first_assembly_pass_is_rarely_redone(monkeypatch, model):
    # the monthly 30-year callable of the bench: 300 decision dates at par;
    # sized at the incoming length the passes were redone 33 (CIR) and 39
    # (Vasicek) times
    from eigenbond import pricer

    schedule = _thirty_year_monthly()
    passes = []
    assemble = pricer._Engine._assemble
    monkeypatch.setattr(
        pricer._Engine, "_assemble",
        lambda self, i, *args: passes.append(i) or assemble(self, i, *args),
    )
    result = price_bond(model, NONE, schedule, [0.05], eps=1e-7)
    assert len(result.dates) == 300
    assert len(passes) - len(result.dates) <= 2

def _assembly_reference(engine, i, n_rows, x_call, x_put, weights):
    """The carried vector region by region: the hold overlap applied to w,
    the strike legs and the coupon term."""
    from eigenbond import coeffs

    model, sched = engine.model, engine.schedule
    lo = model.state_lo if x_call is None else x_call
    hi = model.state_hi if x_put is None else x_put
    n = max(n_rows, weights.size - 1)
    out = coeffs.overlap_matrix(model, n, lo, hi)[: n_rows + 1, : weights.size] @ weights
    for strike, state, a, b in (
        (sched.call_price(i), x_call, model.state_lo, x_call),
        (sched.put_price(i), x_put, x_put, model.state_hi),
    ):
        if state is not None:
            leg = coeffs.strike_projection(
                model, engine.sub, n_rows, a, b, sched.notice_delta, eps=engine.eps
            )
            out = out + strike * leg
    return out + sched.coupon * engine.spectrum.unit_weights(sched.notice_delta, n_rows)


_ASSEMBLY_MODELS = {
    "cir": (CIR, NONE),
    "vasicek": (VAS, NONE),
    "subvasicek_jd": (VAS, JD),
    "three_halves": (TH, NONE),
}


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(
    config=st.sampled_from(sorted(_ASSEMBLY_MODELS)),
    call=st.one_of(st.none(), st.just("whole"), st.floats(0.0, 1.0)),
    put=st.one_of(st.none(), st.floats(0.0, 1.0)),
    size=st.integers(3, 60),
    ratio=st.floats(0.3, 0.9),
    n_rows=st.integers(16, 64),
    seed=st.integers(0, 2**16),
)
def test_telescoping_assembly_equals_the_region_sum(config, call, put, size, ratio, n_rows, seed):
    from eigenbond import coeffs, pricer

    model, sub = _ASSEMBLY_MODELS[config]
    engine = pricer._Engine(model, sub, SWISS_PUT, eps=1e-7)
    lo, _, hi = model.search_interval(size - 1)
    x_call = None if call is None else hi if call == "whole" else lo + call * (hi - lo)
    x_put = None if put is None else lo + put * (hi - lo)
    if x_call is not None and x_put is not None and not x_call < x_put:
        x_put = None
    rng = np.random.default_rng(seed)
    weights = rng.uniform(-1.0, 1.0, size) * ratio ** np.arange(size)
    got = engine._assemble(15, n_rows, x_call, x_put, weights)
    ref = _assembly_reference(engine, 15, n_rows, x_call, x_put, weights)
    assert got.shape == ref.shape == (n_rows + 1,)
    # interval integrals are differences of integrals from the bottom of the
    # coordinate: both sides are accurate relative to the whole-space payoffs
    strike = coeffs.strike_projection(
        model, sub, n_rows, model.state_lo, model.state_hi, SWISS_PUT.notice_delta, eps=1e-7
    )
    scale = max(np.max(np.abs(weights)), SWISS_PUT.call_price(15) * np.max(np.abs(strike)))
    assert np.max(np.abs(got - ref)) <= 1e-12 * scale, (x_call, x_put)


# ---------------------------------------------------------------------------
# full pricing
# ---------------------------------------------------------------------------


def test_degenerate_schedule_reduces_to_zero_coupon():
    sched = BondSchedule(coupon=0.0, coupon_times=(7.0,), protection_index=1, notice_delta=0.0)
    res = price_bond(CIR, NONE, sched, [0.05], eps=1e-9)
    assert res.values[0] == pytest.approx(zero_coupon_price(CIR, NONE, 7.0, 0.05, 1e-10), abs=1e-8)
    assert res.dates == []


def test_value_orderings_callable_straight_putable():
    straight = BondSchedule(
        coupon=0.0425,
        coupon_times=SWISS.coupon_times,
        protection_index=21,
        notice_delta=0.1666,
    )
    rates = np.linspace(0.01, 0.10, 10)
    v_straight = price_bond(CIR, NONE, straight, rates, eps=1e-8).values
    v_call = price_bond(CIR, NONE, SWISS, rates, eps=1e-8).values
    v_callput = price_bond(CIR, NONE, SWISS_PUT, rates, eps=1e-8).values
    assert np.all(v_call <= v_straight + 1e-10)
    assert np.all(v_callput >= v_call - 1e-10)


def test_value_monotone_decreasing_in_rate():
    res = price_bond(CIR, NONE, SWISS, np.linspace(0.01, 0.10, 10), eps=1e-8)
    assert np.all(np.diff(res.values) < 0.0)


def test_break_even_ordering_when_both_exist():
    res = price_bond(CIR, NONE, SWISS_PUT, [0.05], eps=1e-8)
    for call_state, put_state in res.break_even_states:
        assert call_state is not None and put_state is not None
        assert call_state < put_state


def test_prices_cauchy_in_eps():
    values = [
        price_bond(VAS, NONE, SWISS, [0.05], eps=e).values[0]
        for e in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
    ]
    gaps = [abs(b - a) for a, b in zip(values, values[1:])]
    assert all(later <= earlier + 1e-12 for earlier, later in zip(gaps, gaps[1:]))


def test_three_halves_callable_is_stable_at_tight_eps():
    # search_interval(n_supply) moves down as the carried vector grows; at
    # eps 1e-11 it reaches states where the pool series of the hold value
    # and of the discounted strike read orders of magnitude off.  Searched
    # from there, the walk's first end read diff > 0 and the call region
    # was declared empty at dates 20..13; the floor where the searched
    # series resolves keeps the walk out of them.
    model = ThreeHalvesModel(kappa=2.0, theta=0.06, sigma=0.5)
    v10 = price_bond(model, NONE, SWISS, [0.05], eps=1e-10).values[0]
    v11 = price_bond(model, NONE, SWISS, [0.05], eps=1e-11).values[0]
    assert abs(v11 - v10) <= 1e-8


@pytest.mark.xfail(
    strict=True,
    reason="the vector carried from the first date to issue is cut by its decay "
    "over tau_1 = 0.0054, which damps almost nothing",
)
@pytest.mark.parametrize("eps", (1e-7, 1e-10))
def test_three_halves_callable_from_the_first_coupon_is_priced_in_range(eps):
    # the call at 1.0 on every date from t_1 = 0.172 bounds the value by the
    # call price plus the first coupon; at the rate 0.01 it read -90246.3 at
    # eps 1e-7 and -268.5 at eps 1e-10
    model = ThreeHalvesModel(kappa=2.0, theta=0.06, sigma=0.5)
    schedule = dataclasses.replace(
        SWISS, protection_index=1, call_prices=(1.0,) * (SWISS.n_coupons - 1)
    )
    value = price_bond(model, NONE, schedule, [0.01], eps=eps).values[0]
    assert 0.0 < value <= 1.0 + schedule.coupon


@pytest.mark.parametrize("x0", (0.002, 0.00375, 0.006))
def test_three_halves_value_below_the_issue_series_floor_is_refused(x0):
    # at eps 1e-7 the issue-date series over the 7 terms carried from the
    # first date read -3.28e44, +2.31e8 and -4.83 at these states, each at
    # level 6 with all its terms.  Its largest term at 0.002 is about 1e44
    # and the rounding test alone passes it; the refusal comes from the
    # search interval of those 7 terms, whose lower end is 0.00786
    model = ThreeHalvesModel(kappa=2.0, theta=0.05, sigma=0.5)
    with pytest.raises(ValidationError, match="lies below 0.00785"):
        price_bond(model, NONE, SWISS, [0.01, x0], eps=1e-7)


def test_three_halves_value_above_the_issue_series_floor_is_priced_in_range():
    model = ThreeHalvesModel(kappa=2.0, theta=0.05, sigma=0.5)
    (value,) = price_bond(model, NONE, SWISS, [0.01], eps=1e-7).values
    # the cash flows and the 3/2 short rate are positive: no value exceeds their sum
    assert 0.0 < value <= 1.0 + SWISS.coupon * SWISS.n_coupons


def test_a_three_halves_state_below_a_grid_floor_is_priced_where_its_series_resolve():
    # the Swiss bond callable on its last date only, at eps 1e-10: the pool
    # of its 19 protected coupons resolves from about 0.0094, but its floor
    # is the grid state above the last noisy one, 0.01056.  0.01 is read
    # state by state and prices as before; 0.009 lies below the search
    # interval of the 7 terms the issue value reads (0.00943)
    model = ThreeHalvesModel(kappa=2.0, theta=0.06, sigma=0.5)
    schedule = dataclasses.replace(SWISS, protection_index=20, call_prices=(1.0,))
    coupons = tuple((t, schedule.coupon) for t in schedule.coupon_times[:19])
    assert spectrum(model, NONE).floor(coupons, 1e-10 / 19) > 0.0105
    (value,) = price_bond(model, NONE, schedule, [0.01], eps=1e-10).values
    assert 0.0 < value <= 1.0 + schedule.coupon * schedule.n_coupons
    with pytest.raises(ValidationError, match="initial state 0.009 lies below"):
        price_bond(model, NONE, schedule, [0.009], eps=1e-10)


def test_three_halves_jump_clock_pricing_emits_no_runtime_warning():
    # the floor summed terms that overflow to inf of both signs outside its
    # numpy error state: "invalid value encountered in reduce", which
    # -W error::RuntimeWarning turned into a failed pricing
    model = ThreeHalvesModel(kappa=2.0, theta=0.06, sigma=0.5)
    clock = SubordinatorSpec.inverse_gaussian(0.0, 0.5, 0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        (value,) = price_bond(model, clock, SWISS_PUT, [0.05], eps=1e-11).values
    assert math.isfinite(value)


def test_three_halves_callable_survives_a_last_bit_change_of_its_payoff_coefficients(
    monkeypatch,
):
    # At eps 1e-10 the first search of the Swiss callable started cold at
    # x = 0.0054 (z = 178), where the redemption pool's terms reach 2.8e15
    # and C(x) reads 29.9 against a true value of about 1.03; the sign of D
    # there decided whether a call region exists, and with p_n times
    # (1 + 1e-14 u) these seeds priced 0.88561199 with no call state
    # (unperturbed 0.88494921 with 10; the grid DP 0.8849493).  The search
    # now starts at the floor where the pool resolves (0.0091).
    eps = 1e-10
    plain = price_bond(ThreeHalvesModel(2.0, 0.06, 0.5), NONE, SWISS, [0.05], eps=eps)
    coefficients = ThreeHalvesModel.unit_payoff_coefficients
    for seed in (2, 5, 6, 7, 11):

        def perturbed(self, n_max, seed=seed):
            u = np.random.default_rng(seed).uniform(-1.0, 1.0, n_max + 1)
            return coefficients(self, n_max) * (1.0 + 1e-14 * u)

        monkeypatch.setattr(ThreeHalvesModel, "unit_payoff_coefficients", perturbed)
        result = price_bond(ThreeHalvesModel(2.0, 0.06, 0.5), NONE, SWISS, [0.05], eps=eps)
        assert abs(result.values[0] - plain.values[0]) <= 10.0 * eps, seed
        assert sum(d.call_state is not None for d in result.dates) == 10, seed


def _redemption_pool(model, eps):
    """The Swiss callable's first search series (the redemption's whole pool)
    and the length of the cut the assembly carries from it."""
    spec = spectrum(model, NONE)
    flows = ((SWISS.holding_period(SWISS.exercise_indices[-1]), 1.0 + SWISS.coupon),)
    return spec.pool(flows), len(spec.cut(flows, eps)) - 1


def _resolved(model, weights, eps, x):
    terms = model.eigenfunctions(len(weights) - 1, x) * weights
    return np.abs(terms).max() * 2.0**-52 <= eps * abs(terms.sum())


@pytest.mark.parametrize("eps", (1e-7, 1e-10, 1e-11))
def test_the_three_halves_search_starts_where_its_series_resolves(eps):
    # at eps 1e-10 the pool's terms reach 2.8e15 at search_interval(35)'s
    # lower end, 0.0054, and sum to 29.9; the floor is the lowest state of
    # a 24-state geometric grid over [lo, theta] from which up the rounding
    # of the sum stays below eps of it, kept on the spectrum for the pool
    model = ThreeHalvesModel(2.0, 0.06, 0.5)
    pool, n_supply = _redemption_pool(model, eps)
    lo, start, hi = model.search_interval(n_supply)
    floor = model.resolved_floor(pool, eps, n_supply)
    assert model.search_interval(n_supply) == (lo, start, hi) and lo <= floor < start
    flows = ((SWISS.holding_period(SWISS.exercise_indices[-1]), 1.0 + SWISS.coupon),)
    assert spectrum(model, NONE).floor(flows, eps) == floor
    grid = np.geomspace(lo, model.theta, 24).tolist()
    k = grid.index(floor)
    assert all(_resolved(model, pool, eps, x) for x in grid[k:])
    assert k == 0 or not _resolved(model, pool, eps, grid[k - 1])
    if eps <= 1e-10:
        assert floor > lo  # noise at lo, as above


def test_the_search_floor_is_a_three_halves_fact(monkeypatch):
    # the affine models' floors are their lower ends, and read no series
    pool, _ = _redemption_pool(CIR, 1e-10)
    for cls in (CIRModel, VasicekModel):
        monkeypatch.setattr(cls, "_eigenfunction_rows", None)
    for model in (CIR, VAS):
        assert model.resolved_floor(pool, 1e-10, 64) == model.state_lo
    # and a 3/2 series that resolves over the whole interval leaves it as it was
    model = ThreeHalvesModel(2.0, 0.06, 0.1)
    pool, n_supply = _redemption_pool(model, 1e-10)
    assert model.resolved_floor(pool, 1e-10, n_supply) == model.search_interval(n_supply)[0]


def test_a_warm_three_halves_pricing_builds_no_pool_rows(monkeypatch):
    # each pool's floor is kept on the spectrum: the POOL_CAP-degree rows
    # over the floor's grid are built by the first pricing only
    model = ThreeHalvesModel(2.0, 0.06, 0.5)
    rows = model._eigenfunction_rows
    degrees = []
    monkeypatch.setattr(
        ThreeHalvesModel, "_eigenfunction_rows", lambda self, n, x: degrees.append(n) or rows(n, x)
    )
    for eps in (1e-7, 1e-10):
        price_bond(model, NONE, SWISS_PUT, [0.05], eps=eps)
        assert POOL_CAP in degrees
        degrees.clear()
        price_bond(model, NONE, SWISS_PUT, [0.05], eps=eps)
        assert POOL_CAP not in degrees


def test_every_three_halves_search_reads_the_notice_bond_where_it_resolves(monkeypatch):
    from eigenbond import pricer

    # at eps 1e-10 the notice pool ((0.1666, 1),) resolves on its floor's
    # grid from 0.0096, above the redemption pool's 0.0091: below it the
    # rounding of the bond K P(delta, .) in D reached 1.7 eps of its sum
    eps = 1e-10
    model = ThreeHalvesModel(2.0, 0.06, 0.5)
    spec = spectrum(model, NONE)
    notice = spec.floor(((SWISS.notice_delta, 1.0),), eps)
    first = spec.floor(((SWISS.holding_period(SWISS.exercise_indices[-1]), 1.0 + SWISS.coupon),), eps)
    assert 0.0095 < notice and first < notice
    finder = pricer._RootFinder
    lows = []

    class Recorded(finder):
        def __init__(self, evaluate, interval, *args):
            lows.append(interval[0])
            super().__init__(evaluate, interval, *args)

    monkeypatch.setattr(pricer, "_RootFinder", Recorded)
    result = price_bond(model, NONE, SWISS, [0.05], eps=eps)
    assert len(lows) == len(result.dates) == 10
    assert all(lo >= notice for lo in lows)


def test_truncation_levels_monotone_in_eps():
    per_eps = []
    for eps in (1e-5, 1e-6, 1e-7):
        res = price_bond(CIR, NONE, SWISS, [0.05], eps=eps)
        per_eps.append([r.max_level for r in sorted(res.dates, key=lambda d: d.index)])
    for looser, tighter in zip(per_eps, per_eps[1:]):
        assert all(t >= l for l, t in zip(looser, tighter))


@pytest.mark.usefixtures("single_crossing_scans")
def test_single_crossing_scan_passes_on_benchmark():
    # every break-even search is followed by the sign scan behind the
    # one-root-per-date policy
    res = price_bond(CIR, NONE, SWISS, [0.05], eps=1e-7)
    assert res.values[0] == pytest.approx(0.849823, abs=5e-6)


def test_subordinated_full_run_matches_reference_column():
    from eigenbond.subordinators import invert_short_rate

    states = [invert_short_rate(CIR, JD, r) for r in benchmark.RATES]
    res = price_bond(CIR, JD, SWISS, states, eps=1e-8)
    ref = np.array(benchmark.CALLABLE_VALUES["subcir_jd"])
    assert np.max(np.abs(res.values - ref)) <= 5e-6


def test_break_even_states_are_mapped_in_one_call(monkeypatch):
    from eigenbond import pricer
    from eigenbond.subordinators import invert_short_rate, short_rate_map

    calls = []

    def counted(model, sub, x):
        calls.append(np.size(x))
        return short_rate_map(model, sub, x)

    monkeypatch.setattr(pricer, "short_rate_map", counted)
    states = [invert_short_rate(CIR, JD, r) for r in (0.03, 0.06)]
    res = price_bond(CIR, JD, SWISS_PUT, states, eps=1e-7)
    mapped = [
        (x, r)
        for xs, rates in zip(res.break_even_states, res.break_even_short_rates)
        for x, r in zip(xs, rates)
        if x is not None
    ]
    assert len(mapped) > 0 and calls == [len(mapped)]
    for x, r in mapped:
        assert r == pytest.approx(short_rate_map(CIR, JD, x), abs=1e-15)

    straight = BondSchedule(coupon=0.05, coupon_times=(1.0, 2.0), protection_index=2,
                            notice_delta=0.1)
    calls.clear()
    price_bond(CIR, JD, straight, states, eps=1e-7)
    assert calls == []


@pytest.mark.parametrize("config", ("subcir_jd", "subcir_pj", "subvasicek_jd", "subvasicek_pj"))
def test_a_warm_direct_state_pricing_resolves_no_series(monkeypatch, config):
    # priced at states, with no quote inverted first: the first pricing grows
    # the clock's short-rate map over its break-even states, and a second
    # pricing reads them through it (each resolved the series anew before)
    from eigenbond import subordinators

    model = dataclasses.replace(benchmark.benchmark_model(config))
    sub = benchmark.benchmark_subordinator(config)
    resolved = []

    def counted(*args, _original=subordinators._resolved_series):
        resolved.append(args[2].size)
        return _original(*args)

    monkeypatch.setattr(subordinators, "_resolved_series", counted)
    first = price_bond(model, sub, SWISS, [0.02, 0.05, 0.1], eps=1e-7)
    assert len(resolved) == 1
    warm = price_bond(model, sub, SWISS, [0.02, 0.05, 0.1], eps=1e-7)
    assert len(resolved) == 1
    assert warm.break_even_short_rates == first.break_even_short_rates


def test_put_everywhere_degenerate_raises():
    # A put region over the whole search interval.  On CIR the interval
    # starts at the state space's boundary 0, so the region is the whole
    # space: the holder puts at the first date wherever the rate lies, and
    # the bond is worth the put price paid then, 5 P(1, x0).  On Vasicek the
    # interval stops short of the state space, and the region is refused.
    sched = BondSchedule(
        coupon=0.0,
        coupon_times=(1.0, 2.0, 3.0),
        protection_index=1,
        notice_delta=0.1,
        put_prices=(5.0, 5.0),
    )
    res = price_bond(CIR, NONE, sched, [0.05], eps=1e-7)
    assert res.break_even_states == [(None, CIR.state_lo)] * 2
    assert res.values[0] == pytest.approx(5.0 * float(CIR.closed_form_bond(1.0, 0.05)), abs=1e-7)
    with pytest.raises(BracketError, match="put region covers the whole search interval") as info:
        price_bond(VAS, NONE, sched, [0.05], eps=1e-7)
    assert info.value.decision_index is not None


def test_a_put_root_at_the_edge_of_the_search_interval_is_priced(monkeypatch):
    # find returns search_lo for a put region over the whole interval (D > 0
    # there) and for a root where D is exactly 0 there.  On Vasicek, whose
    # interval stops short of the state space, the region is refused and
    # the root is priced.
    from eigenbond import pricer

    sched = BondSchedule(coupon=0.0, coupon_times=(1.0, 2.0, 3.0), protection_index=1,
                         notice_delta=0.1, put_prices=(5.0, 5.0))
    find = pricer._RootFinder.find
    edges = []

    def at_the_edge(self, kind, strike, hint=None):
        if kind != "put":
            return find(self, kind, strike, hint)
        edges.append(self.search_lo)
        return self.search_lo

    monkeypatch.setattr(pricer._RootFinder, "find", at_the_edge)
    for d_at_edge in (0.0, 1e-3):
        monkeypatch.setattr(pricer._RootFinder, "_difference",
                            lambda self, strike: lambda x: (d_at_edge, 1.0))
        edges.clear()
        if d_at_edge > 0.0:
            with pytest.raises(BracketError, match="put region covers the whole search interval"):
                price_bond(VAS, NONE, sched, [0.05], eps=1e-7)
        else:
            res = price_bond(VAS, NONE, sched, [0.05], eps=1e-7)
            assert [put for _, put in res.break_even_states] == edges[::-1]
            assert math.isfinite(res.values[0])


def test_a_cir_put_region_over_the_whole_interval_is_priced():
    # a 5-year 5% bond putable at 1.2 puts everywhere at its last date
    # (decision index 4), where the pricer refused it before
    from eigenbond.oracle import quadrature_dp_price

    sched = BondSchedule(coupon=0.05, coupon_times=(1.0, 2.0, 3.0, 4.0, 5.0), protection_index=2,
                         notice_delta=0.1, put_prices=(1.2,) * 3)
    res = price_bond(CIR, NONE, sched, [0.05], eps=1e-10)
    assert res.break_even_states[-1] == (None, CIR.state_lo)
    assert res.values[0] == pytest.approx(quadrature_dp_price(CIR, NONE, sched, 0.05), abs=1e-6)


def test_eps_domain():
    with pytest.raises(ValidationError):
        price_bond(CIR, NONE, SWISS, [0.05], eps=0.01)
    with pytest.raises(ValidationError):
        price_bond(CIR, NONE, SWISS, [], eps=1e-7)


def test_subordinator_guard_at_bottom_eigenvalue():
    # a Vasicek parameter set with lambda_0 < 0 outside the IG domain is
    # rejected at construction with a clear diagnostic
    low = VasicekModel(kappa=0.3, theta=0.01, sigma=0.25)
    assert low.eigenvalue(0) < 0.0
    tight = SubordinatorSpec.inverse_gaussian(drift=0.0, mu=0.02, nu_var=1.0)
    with pytest.raises(ValidationError):
        price_bond(low, tight, SWISS, [0.05], eps=1e-7)


def test_result_carries_decision_metadata():
    res = price_bond(CIR, NONE, SWISS, [0.05], eps=1e-7)
    assert [d.index for d in res.dates] == list(range(11, 21))
    assert all(d.assembled >= series.MIN_LEVEL for d in res.dates)
    for (call_state, _), (call_rate, _) in zip(
        res.break_even_states, res.break_even_short_rates
    ):
        if call_state is None:
            assert call_rate is None
        else:
            assert call_rate == pytest.approx(call_state)  # r(x) = x here
