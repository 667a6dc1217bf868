import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenbond import benchmark, series
from eigenbond.errors import BracketError, ConvergenceError, ValidationError
from eigenbond.models import CIRModel, ThreeHalvesModel, VasicekModel
from eigenbond.pricer import (
    BondSchedule,
    price_bond,
    zero_coupon_price,
)
from eigenbond.subordinators import SubordinatorSpec

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


@pytest.mark.parametrize("eps", (0.5, 2e-3, 0.0, -1e-9, float("nan")))
def test_zero_coupon_refuses_a_bad_eps_up_front(eps):
    # eps = 0.5 returned 0.93978 for a bond worth 0.94690; a negative or NaN
    # eps ran on into a ConvergenceError at n = 2000
    with pytest.raises(ValidationError, match="eps must lie in"):
        zero_coupon_price(CIR, NONE, 1.0, 0.05, eps=eps)


# ---------------------------------------------------------------------------
# streamed series
# ---------------------------------------------------------------------------


def _count_recurrence_steps(monkeypatch):
    """Per recurrence generator started, the number of degrees it computed."""
    from eigenbond import models

    steps = []
    make = models._terms

    def counted(*args):
        steps.append(0)
        for term in make(*args):
            steps[-1] += 1
            yield term

    monkeypatch.setattr(models, "_terms", counted)
    return steps


@pytest.mark.parametrize("model", (CIR, VAS, TH), ids=lambda m: m.kind)
def test_pool_series_draws_only_the_steps_the_rule_needs(monkeypatch, model):
    from eigenbond import pricer

    steps = _count_recurrence_steps(monkeypatch)
    basis = pricer.SpectralBasis(model, NONE)
    for x in model.stationary_distribution().ppf([0.01, 0.5, 0.99]):
        for t in (0.02, 0.1666, 1.0, 5.0):
            for eps in (1e-7, 1e-13):
                steps.clear()
                flows = ((t, 1.0),)
                value, level = pricer._series_eval_pool(basis, flows, float(x), eps)
                assert steps[-1] == level + 3
                # a pass before it drew the whole supply, half the grown list
                assert len(steps) == 1 or steps[-2] == len(basis.pool_weights(flows, 0)) // 2 + 1

    steps.clear()
    weights = basis.pool_weights(((1.0, 1.0),), 0)
    value, level = pricer._series_eval_capped(basis, weights, 0.05, 1e-9)
    assert steps == [level + 3]


def test_pool_series_keeps_its_depth_between_calls(monkeypatch):
    from eigenbond import pricer

    steps = _count_recurrence_steps(monkeypatch)
    basis = pricer.SpectralBasis(CIR, NONE)
    value, level = pricer._series_eval_pool(basis, ((0.02, 1.0),), 0.05, 1e-13)
    # a first supply of 33 weights, used whole, then a list of 65 that the
    # rule stops inside
    assert steps == [33, level + 3] and level + 3 <= 65
    steps.clear()
    assert pricer._series_eval_pool(basis, ((0.02, 1.0),), 0.05, 1e-13) == (value, level)
    assert steps == [level + 3]  # the cached list keeps its depth


@pytest.mark.parametrize(
    "model,sub", ((CIR, NONE), (VAS, NONE), (CIR, JD), (TH, NONE)), ids=("cir", "vas", "jd", "th")
)
def test_pool_series_is_the_same_for_any_cached_supply(model, sub):
    from eigenbond import pricer

    deep = pricer.SpectralBasis(model, sub)
    scale = 1.0425
    xs = model.stationary_distribution().ppf(np.linspace(0.02, 0.98, 9))
    for t in (0.1666, 1.0, 7.0):
        flows = ((t, scale),)
        assert len(deep.pool_weights(flows, 1024)) == 1025
        for x in xs:
            for eps in (1e-7, 1e-12):
                fresh = pricer.SpectralBasis(model, sub)
                assert len(fresh.pool_weights(flows, 32)) == 33
                assert pricer._series_eval_pool(
                    fresh, flows, float(x), eps
                ) == pricer._series_eval_pool(deep, flows, float(x), eps)


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
    from eigenbond import pricer

    built = []
    make = pricer._discount_bond

    def counted(basis, flows, eps):
        built.append(flows)
        return make(basis, flows, eps)

    monkeypatch.setattr(pricer, "_discount_bond", counted)
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
    leg = pricer._discount_bond(pricer.SpectralBasis(model, sub), flows, eps)
    for x in model.stationary_distribution().ppf([0.01, 0.25, 0.5, 0.75, 0.99]):
        got = leg(float(x))
        ref = sum(a * zero_coupon_price(model, sub, t, float(x), eps=eps) for t, a in flows)
        exact = sum(a * zero_coupon_price(model, sub, t, float(x), eps=1e-15) for t, a in flows)
        assert abs(got - ref) <= eps * abs(got), (x, got, ref)
        assert abs(got - exact) <= eps * exact, (x, got, exact)


@pytest.mark.parametrize("model", (CIR, VAS), ids=("cir", "vas"))
def test_coupon_leg_matches_the_closed_form_on_the_plain_clock(model):
    from eigenbond import pricer

    flows = _protected_coupons(SWISS)
    leg = pricer._discount_bond(pricer.SpectralBasis(model, NONE), flows, 1e-7)
    for x in model.stationary_distribution().ppf([0.01, 0.25, 0.5, 0.75, 0.99]):
        ref = sum(a * float(model.closed_form_bond(t, x)) for t, a in flows)
        assert leg(float(x)) == pytest.approx(ref, rel=1e-14, abs=0.0)


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
    # look cheaper than holding over the whole search interval
    capped = pricer._series_eval_capped

    def inflated(*args):
        value, level = capped(*args)
        return value + 10.0, level

    monkeypatch.setattr(pricer, "_series_eval_capped", inflated)
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
    assert np.mean([len(d.eval_levels) for d in res.dates]) <= 10.0


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


def _walk(interval, root):
    """A break-even search on diff(x) = x - root (K = 1, P(delta, x) = 1,
    C(x) = 1 - (x - root)), with the list of the states it evaluates."""
    from eigenbond import pricer

    seen = []

    def cont(x):
        seen.append(x)
        return 1.0 - (x - root), 0

    return pricer._RootFinder(cont, lambda x: 1.0, interval, 7, []), seen


def test_walk_clamps_a_hint_outside_the_search_interval():
    from eigenbond import pricer

    # the bottom of the 3/2 search interval moves with the carried length, so
    # last date's state can lie below this date's search_lo
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
    with pytest.raises(BracketError, match="put region covers the whole search interval"):
        _walk(interval, lo - 1.0)[0].find("put", 1.0, hint=hint)
    # diff <= 0 everywhere: a call region over the whole interval, and no put region
    assert _walk(interval, hi + 1.0)[0].find("call", 1.0, hint=hint) == hi
    assert _walk(interval, hi + 1.0)[0].find("put", 1.0, hint=hint) is None


@pytest.mark.parametrize(
    "model,sub,schedule",
    (
        (CIR, NONE, _five_year_monthly([1.0] * 48)),
        (VAS, NONE, SWISS_PUT),
        # the expansion strike leg may need a deeper node matrix than the hold
        (CIR, JD, SWISS_PUT),
    ),
    ids=("cir_callable", "vasicek_call_put", "subcir_jd_call_put"),
)
def test_one_polynomial_table_per_break_even_state_per_pass(monkeypatch, model, sub, schedule):
    from eigenbond import coeffs, pricer

    # Hermite-function rows and Laguerre node matrices (one kernel), and the
    # closed-form Laguerre tables, which assembly no longer builds
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
    apply = coeffs.Endpoint.apply
    monkeypatch.setattr(
        coeffs.Endpoint, "apply", lambda self, *args: applies.append(self.x) or apply(self, *args)
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
    return out + sched.coupon * engine.basis.unit_weights(sched.notice_delta, n_rows)


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


@pytest.mark.xfail(
    strict=True,
    reason="the 3/2 search interval reaches down to where the series are rounding noise",
)
def test_three_halves_callable_is_stable_at_tight_eps():
    # search_lo moves down as the carried vector grows; at eps 1e-11 it
    # reaches states where the pool series of the hold value and of the
    # discounted strike read orders of magnitude off, the walk's first end
    # reads diff > 0 and the call region is declared empty at dates 20..13
    model = ThreeHalvesModel(kappa=2.0, theta=0.06, sigma=0.5)
    v10 = price_bond(model, NONE, SWISS, [0.05], eps=1e-10).values[0]
    v11 = price_bond(model, NONE, SWISS, [0.05], eps=1e-11).values[0]
    assert abs(v11 - v10) <= 1e-8


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


def test_put_everywhere_degenerate_raises():
    sched = BondSchedule(
        coupon=0.0,
        coupon_times=(1.0, 2.0, 3.0),
        protection_index=1,
        notice_delta=0.1,
        put_prices=(5.0, 5.0),
    )
    with pytest.raises(BracketError) as info:
        price_bond(CIR, NONE, sched, [0.05], eps=1e-7)
    assert info.value.decision_index is not None


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
