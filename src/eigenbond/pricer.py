"""Backward recursion pricing of callable, putable, and straight bonds.

The bond value at issue is built by one stage per decision date:

1.  The recursion starts from the redemption, held from the last decision
    date (from issue without one) to maturity: hold weights
    (1 + coupon) p_n e^{-phi(lambda_n) h}.
2.  At each decision date, stepping backward, the hold value is the
    eigenfunction series over the date's hold weights.  The issuer calls
    below the state x_c where the discounted call price drops under the
    hold value, the holder puts above the state x_p where the discounted
    put price rises above it.  Each break-even state is found by one
    bracketed Newton loop on the difference and its slope, started at the
    previous date's state of the same kind, or without one (the first
    search, or an empty region at the previous date) at the bottom of the
    search interval, raised to where the series of the continuation and of
    the notice bond resolve (``resolved_floor``, a pool's kept by
    ``Spectrum.floor``): Newton steps inside the sign bracket every evaluation
    narrows, and a bisection, or before a sign change a walk outward,
    where a Newton step would leave the bracket or stall.  The new
    coefficient vector sums, over the regions, the overlap over the region
    applied to its payoff (the strike times the expansion of P(delta, .)
    over an exercise region, the hold weights over the hold region), plus
    the coupon term.  The sum telescopes to one overlap apply per finite
    break-even state (``_Engine._assemble``; the overlap block is applied
    without being formed, see ``coeffs``).  Decayed back to the date
    before, it is that date's hold weights.  What every date reads besides
    its states (the expansion of P(delta, .), the coupon term and the
    decay over each distinct holding period) is built once per run.
3.  At issue the value is the same series over the last hold weights plus
    the protected coupons, one series over their summed weights.  A
    straight bond is the recursion with no decision date.

Every scalar series is the truncated sum_n w_n phi_n(x) and its slope in x,
from a loop of the model that steps the recurrence and its derivative until
the two-term look-ahead rule of ``series`` fires on the value terms, with
no term array built; the slope is summed to the same level.  ``_series``
reads one series from ``series_sum``.  Where two series are read at the
same state, the continuation with its notice-period bond at every
break-even evaluation and the issue value with its protected coupons, one
helper per cash-flow set (``_flow_series``) reads both.  On an affine model
with the plain clock it takes ``series_sum`` and the bond's closed form; else
it takes one ``series_pair`` pass, which steps the recurrence once and
keeps both stop rules, each result bit for bit ``series_sum``'s.  Those
loops are the rule's bodies besides ``series.truncate_terms``;
``tests/test_series.py::test_series_sum_and_truncate_terms_agree_bit_for_bit``
and ``test_series_pair_and_two_series_sums_agree_bit_for_bit`` pin them
against each other.
A supply that reaches ``POOL_CAP`` (a pool) must fire the rule; a shorter
one (a cut vector) gives all its terms when it does not (``_supplied``,
for each series of a pair too).  The weights are float lists: a date's
hold weights, or the pool sum_j a_j p_n e^{-phi(lambda_n) t_j} of cash
flows ((t_j, a_j), ...) on the model's subordinate spectrum
(``subordinators.Spectrum``, one per model and clock, kept on the model),
built once per cash-flow set of the recursion and never grown; a
zero-coupon bond's weights are built per call and not kept.  The
recursion's first search, at the last decision date, reads the
redemption's whole pool.  Off the plain clock, or on the 3/2 model, a
cash-flow set's bond sum_j a_j P(t_j, x) is its pool's series, cut at eps
of the mean flow.  ``price_bond`` refuses an initial state below the issue
value's search interval, or where its series or the coupons' pool does not
resolve (``series.resolved``).
Continuation values and break-even states are computed only inside the
recursion (``_Engine``); the public entry points are ``price_bond`` and
``zero_coupon_price``.  Every break-even search closes to ``TOL_X``.

The coefficients carried from one date to the next are cut separately, by
the decay of their own next-stage term weights: exercise kinks give the
assembled value function slower coefficient decay than the series
evaluations that located the boundaries, so the two depths are controlled
independently (see ``ASSEMBLY_TAIL_MARGIN``).  The redemption's carried
vector is its pool's ``Spectrum.cut``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import coeffs as coeffs_mod
from . import series
from .errors import (
    BracketError,
    ConvergenceError,
    ValidationError,
    check_integer,
    check_real,
    real_array,
)
from .models import POOL_CAP, DiffusionModel
from .subordinators import Spectrum, SubordinatorSpec, short_rate_map, spectrum

__all__ = [
    "BondSchedule",
    "DateRecord",
    "PricingResult",
    "zero_coupon_price",
    "price_bond",
]

# Each break-even search closes to within TOL_X / 2 of the crossing: by a
# Newton iterate's step or its quadratic error estimate, or by the midpoint
# of an evaluated sign change at most TOL_X wide.
TOL_X = 1e-7

# Before a sign change is evaluated, a bracketing step walks out from last
# date's state of the same kind by this width, then by steps growing this
# factor at a time.
_WARM_HALF_WIDTH = 1e-3
_WARM_GROWTH = 4.0

# The carried coefficient vector is cut where the next stage's term weights
# |c_n| e^{-phi(lambda_n) h} drop below ASSEMBLY_TAIL_MARGIN * eps relative
# to their running sum.  The margin is calibrated so the per-date
# truncation-level profile lands on benchmark.MAX_TRUNCATION; the discarded
# tail stays invisible at the eps-level tolerances of every value and
# break-even benchmark (tighten eps to deepen everything coherently).
ASSEMBLY_TAIL_MARGIN = 100.0


# ---------------------------------------------------------------------------
# Schedules and result containers
# ---------------------------------------------------------------------------


def _reals(name: str, values) -> tuple[float, ...]:
    """``values`` as a tuple of floats, refused with ``ValidationError``
    unless it is a sequence of real numbers."""
    try:
        values = tuple(values)
    except TypeError:
        raise ValidationError(f"{name} must be a sequence of numbers, got {values!r}") from None
    for i, value in enumerate(values):
        check_real(f"{name}[{i}]", value)
    return tuple(map(float, values))


@dataclass(frozen=True)
class BondSchedule:
    """Coupon and exercise schedule of a (possibly) callable/putable bond.

    Face value is normalized to one.  ``coupon_times`` are the payment
    dates t_1 < ... < t_k with t_k the maturity, each paying ``coupon``.
    Exercise is possible at t_i for i = protection_index..k-1 (1-based),
    decided at tau_i = t_i - notice_delta; ``call_prices`` / ``put_prices``
    hold the strike ladders over exactly those dates.
    """

    coupon: float
    coupon_times: tuple[float, ...]
    protection_index: int
    notice_delta: float
    call_prices: tuple[float, ...] | None = None
    put_prices: tuple[float, ...] | None = None

    def __post_init__(self):
        times = _reals("coupon_times", self.coupon_times)
        object.__setattr__(self, "coupon_times", times)
        if len(times) == 0:
            raise ValidationError("schedule needs at least one coupon/redemption date")
        check_real("coupon", self.coupon)
        if not (math.isfinite(self.coupon) and self.coupon >= 0.0):
            raise ValidationError(f"coupon must be finite and >= 0, got {self.coupon}")
        if not all(map(math.isfinite, times)) or times[0] <= 0.0 or any(
            t2 <= t1 for t1, t2 in zip(times, times[1:])
        ):
            raise ValidationError("coupon times must be finite, positive and strictly increasing")
        check_real("notice period", self.notice_delta)
        if not (math.isfinite(self.notice_delta) and self.notice_delta >= 0.0):
            raise ValidationError(f"notice period must be finite and >= 0, got {self.notice_delta}")
        spacing = min(
            [times[0]] + [t2 - t1 for t1, t2 in zip(times, times[1:])]
        )
        if self.notice_delta >= spacing:
            raise ValidationError("notice period must be shorter than the coupon spacing")
        k = len(times)
        check_integer("protection index", self.protection_index)
        if not 1 <= self.protection_index <= k:
            raise ValidationError(
                f"protection index must lie in [1, {k}], got {self.protection_index}"
            )
        n_ex = k - self.protection_index
        for name, ladder in (("call_prices", self.call_prices), ("put_prices", self.put_prices)):
            if ladder is not None:
                ladder = _reals(name, ladder)
                object.__setattr__(self, name, ladder)
                if len(ladder) != n_ex:
                    raise ValidationError(
                        f"{name} must list one strike per exercisable date "
                        f"({n_ex} expected, got {len(ladder)})"
                    )
                if not all(math.isfinite(v) and v > 0.0 for v in ladder):
                    raise ValidationError(f"{name} must be finite and positive")
        if self.call_prices is not None and self.put_prices is not None:
            if any(c <= p for c, p in zip(self.call_prices, self.put_prices)):
                raise ValidationError("call prices must exceed put prices datewise")

    @property
    def maturity(self) -> float:
        return self.coupon_times[-1]

    @property
    def n_coupons(self) -> int:
        return len(self.coupon_times)

    @property
    def exercise_indices(self) -> range:
        """1-based coupon indices with an embedded decision."""
        return range(self.protection_index, self.n_coupons)

    def coupon_time(self, i: int) -> float:
        """t_i for the 1-based coupon index."""
        return self.coupon_times[i - 1]

    def decision_time(self, i: int) -> float:
        return self.coupon_time(i) - self.notice_delta

    def holding_period(self, i: int) -> float:
        """Time from decision date i to the next one, or to maturity after the last."""
        if i == self.n_coupons - 1:
            return self.maturity - self.decision_time(i)
        return self.decision_time(i + 1) - self.decision_time(i)

    def call_price(self, i: int) -> float | None:
        if self.call_prices is None:
            return None
        return self.call_prices[i - self.protection_index]

    def put_price(self, i: int) -> float | None:
        if self.put_prices is None:
            return None
        return self.put_prices[i - self.protection_index]


@dataclass
class DateRecord:
    """Per-decision-date diagnostics of the backward recursion."""

    index: int
    decision_time: float
    call_state: float | None = None
    put_state: float | None = None
    call_rate: float | None = None
    put_rate: float | None = None
    eval_levels: list[int] = field(default_factory=list)
    search_fallbacks: int = 0  # searches that took a bracketing step: a walk or a bisection
    assembled: int = 0

    @property
    def average_level(self) -> float:
        return float(np.mean(self.eval_levels)) if self.eval_levels else float("nan")

    @property
    def max_level(self) -> int:
        return max(self.eval_levels) if self.eval_levels else 0


@dataclass
class PricingResult:
    """Bond values plus break-even and truncation diagnostics."""

    initial_states: np.ndarray
    values: np.ndarray
    dates: list[DateRecord]
    value_levels: list[int]
    eps: float

    @property
    def break_even_states(self):
        return [(d.call_state, d.put_state) for d in self.dates]

    @property
    def break_even_short_rates(self):
        return [(d.call_rate, d.put_rate) for d in self.dates]


# ---------------------------------------------------------------------------
# Series over the spectrum
# ---------------------------------------------------------------------------


def _series(
    spec: Spectrum, weights: list[float], x: float, eps: float
) -> tuple[float, float, int]:
    """Truncated sum_n weights_n phi_n(x) in one pass: (value, slope, stop
    level), from the model's ``series_sum``.  The rule fires on the value
    terms; the slope is sum_n weights_n phi_n'(x) to the same level."""
    return _supplied(spec.model.series_sum(weights, x, eps), weights, x)


def _supplied(
    result: tuple[float, float, int, bool], weights: list[float], x: float
) -> tuple[float, float, int]:
    """(value, slope, level) of a series ``result`` over ``weights`` at x.

    A supply that reaches ``POOL_CAP`` (a pool) must fire the rule; a
    shorter one (a cut vector) gives all its terms when the rule does not
    fire inside it.
    """
    value, slope, level, converged = result
    if not converged and len(weights) > POOL_CAP:
        raise ConvergenceError(f"series at x={x} not converged by n={len(weights) - 1}")
    return value, slope, level


# ---------------------------------------------------------------------------
# Zero-coupon bonds
# ---------------------------------------------------------------------------


def zero_coupon_price(
    model: DiffusionModel,
    sub: SubordinatorSpec,
    t: float,
    x: float,
    eps: float = 1e-9,
) -> float:
    """Zero-coupon bond by the (subordinate) eigenfunction expansion."""
    series.check_eps(eps)
    check_real("maturity", t)
    if not (t > 0.0 and math.isfinite(t)):
        raise ValidationError(f"maturity must be positive and finite, got {t}")
    check_real("state", x)
    model.check_state(x)
    spec = spectrum(model, sub)  # the maturity's weights are not kept on it
    value, _, _ = _series(spec, spec.unit_weights(t, POOL_CAP).tolist(), x, eps)
    return value


def _flow_series(spec: Spectrum, flows: tuple[tuple[float, float], ...], eps: float):
    """(weights, x) -> (C, C', level, B, B'): the truncated series C over
    ``weights`` at x with its slope and level, as ``_series`` gives them at
    eps, and the discount bond B = sum_j a_j P(t_j, x) of the cash flows
    ((t_j, a_j), ...) with its slope.  On an affine model with the plain
    clock B is the closed form, with slope -sum_j a_j B_j A_j e^{-B_j x};
    else it is one series over the summed weights (the spectrum's pool), cut
    at eps of the mean flow (eps / len(flows) relative to the sum), so that
    the earliest flow, whose slow decay sets the depth, is cut no looser
    than on its own, and both series come from one recurrence pass (the
    model's ``series_pair``)."""
    model = spec.model
    if not (spec.sub.is_trivial and model.affine):
        eps_pool = eps / max(len(flows), 1)
        pool = spec.pool(flows)
        pair = model.series_pair

        def joint(weights: list[float], x: float) -> tuple[float, float, int, float, float]:
            one, two = pair(weights, eps, pool, eps_pool, x)
            value, slope, level = _supplied(one, weights, x)
            bond, bond_slope, _ = _supplied(two, pool, x)
            return value, slope, level, bond, bond_slope

        return joint
    legs = [(a, *model.affine_bond_factors(t)) for t, a in flows]
    single = model.series_sum

    def closed(weights: list[float], x: float) -> tuple[float, float, int, float, float]:
        value, slope, level = _supplied(single(weights, x, eps), weights, x)
        values = [a * a_fac * math.exp(-b_fac * x) for a, a_fac, b_fac in legs]
        bond_slope = -sum(b_fac * bond for (_, _, b_fac), bond in zip(legs, values))
        return value, slope, level, sum(values), bond_slope

    return closed


# ---------------------------------------------------------------------------
# Break-even search
# ---------------------------------------------------------------------------


class _RootFinder:
    """Locates one date's break-even states against a continuation function.

    ``evaluate(x)`` returns the continuation value, its slope and its series
    stop level, and the notice-period bond and its slope (``_flow_series``
    over the date's weights); ``interval`` is the model's ``search_interval``
    raised to where both resolve.  The levels of
    every evaluation ``find`` makes are appended to ``levels``; the sign
    scan records none.  ``fallbacks`` counts the searches that took a
    bracketing step.
    """

    def __init__(
        self,
        evaluate,
        interval: tuple[float, float, float],
        decision_index: int,
        levels: list[int],
    ):
        self.evaluate = evaluate
        self.search_lo, self.bracket_start, self.search_hi = interval
        self.decision_index = decision_index
        self.levels = levels
        self.fallbacks = 0

    def _difference(self, strike: float, levels: list[int] | None = None):
        """x -> (D(x), D'(x)) for D = K P(delta, .) - C."""

        def diff(x: float) -> tuple[float, float]:
            value, slope, level, bond, bond_slope = self.evaluate(x)
            if levels is not None:
                levels.append(level)
            return strike * bond - value, strike * bond_slope - slope

        return diff

    def find(self, kind: str, strike: float, hint: float | None = None) -> float | None:
        """Break-even state, or None when the exercise region is empty.

        The difference D = K P(delta, .) - C is increasing with a single
        crossing: exercise regions are the low-rate side for calls and the
        high-rate side for puts.  One loop closes the search, the ``rtsafe``
        scheme of Press et al., *Numerical Recipes*, 9.4: Newton steps inside
        a sign bracket [lo, hi] (D(lo) <= 0 < D(hi)) that every evaluation
        narrows, starting as the search interval, whose ends are not
        evaluated.  The first state is ``hint`` (last date's break-even
        state of the same kind, clamped into the interval); without one it
        is ``search_lo``, and the first step walks to ``bracket_start``.

        A bracketing step replaces the Newton step when the iterate would
        leave the bracket, when D' <= 0, or, once a sign change is
        evaluated, when the step fails to halve the last one.  It bisects
        an evaluated sign change; before one, it walks out from the
        bracket's evaluated end by ``_WARM_HALF_WIDTH`` (cold: to
        ``bracket_start``), each further walk step ``_WARM_GROWTH`` times
        the last, stopping at the interval's edge.  Each evaluation is at a
        new state.

        An iterate is accepted when its step is at most ``TOL_X / 2``, or
        when it lies inside an evaluated sign change and the quadratic error
        estimate |D'' / 2 D'| step^2, D'' from the last two slopes, is at
        most ``TOL_X / 4``; an evaluated sign change at most ``TOL_X`` wide
        gives its midpoint.  An edge of the interval that fails to straddle
        decides the whole interval: a call region over all of it has its
        break-even state at ``search_hi``, and a put region over all of it
        raises, since a poorly resolved 3/2 continuation can fake one.
        """
        diff = self._difference(strike, self.levels)
        edge_lo, edge_hi = self.search_lo, self.search_hi
        lo, hi = edge_lo, edge_hi
        lo_seen = hi_seen = bracketed = False  # D evaluated at lo, at hi
        if hint is None:
            x, reach = edge_lo, max(self.bracket_start - edge_lo, TOL_X)
        else:
            x, reach = min(max(hint, edge_lo), edge_hi), _WARM_HALF_WIDTH
        last_x = last_slope = last_step = None
        while True:
            value, slope = diff(x)
            if value > 0.0:
                if x == edge_lo:
                    if kind == "call":
                        return None  # strike too dear even at the lowest rates
                    raise BracketError(
                        "put region covers the whole search interval",
                        decision_index=self.decision_index,
                    )
                hi, hi_seen = x, True
            else:
                if x == edge_hi:
                    # a call region over the whole interval, or no put region
                    return edge_hi if kind == "call" else None
                lo, lo_seen = x, True
            straddled = lo_seen and hi_seen
            step = -value / slope if slope > 0.0 else math.nan  # nan: no Newton step
            new = x + step
            # a cold start walks its first step
            newton = lo < new < hi and (hint is not None or last_x is not None)
            if newton and abs(step) <= 0.5 * TOL_X:
                return new
            if straddled:
                if hi - lo <= TOL_X:
                    return 0.5 * (lo + hi)
                if newton:
                    curvature = (slope - last_slope) / (x - last_x)
                    if abs(curvature / (2.0 * slope)) * step * step <= 0.25 * TOL_X:
                        return new
                    newton = abs(step) <= 0.5 * abs(last_step)
            if not newton:
                self.fallbacks += not bracketed  # once per search
                bracketed = True
                if straddled:
                    new = 0.5 * (lo + hi)
                elif lo_seen:
                    new, reach = min(lo + reach, edge_hi), reach * _WARM_GROWTH
                else:
                    new, reach = max(hi - reach, edge_lo), reach * _WARM_GROWTH
            last_x, last_slope, last_step = x, slope, new - x
            x = new

    def scan_single_crossing(self, strike: float, has_root: bool) -> None:
        """64-point sign scan guarding the single-root assumption."""
        xs = np.linspace(self.search_lo, self.search_hi, 64)
        diff = self._difference(strike)
        signs = np.sign([diff(x)[0] for x in xs])
        signs = signs[signs != 0.0]
        crossings = int(np.sum(signs[1:] != signs[:-1]))
        expected = 1 if has_root else 0
        if crossings != expected:
            raise BracketError(
                f"sign scan found {crossings} crossings where {expected} expected",
                decision_index=self.decision_index,
            )


# ---------------------------------------------------------------------------
# The backward recursion
# ---------------------------------------------------------------------------


def _jump(below: np.ndarray, above: np.ndarray) -> np.ndarray:
    """below - above, the shorter of the two zero-padded to the longer."""
    out = np.zeros(max(below.size, above.size))
    out[: below.size] = below
    out[: above.size] -= above
    return out


class _Engine:
    def __init__(
        self,
        model: DiffusionModel,
        sub: SubordinatorSpec,
        schedule: BondSchedule,
        eps: float,
    ):
        series.check_eps(eps)
        has_dates = schedule.protection_index < schedule.n_coupons
        if has_dates:
            tau_first = schedule.decision_time(schedule.protection_index)
            if tau_first <= 0.0:
                raise ValidationError("first decision time must be positive")
            model.check_recursion()
        self.model = model
        self.sub = sub
        self.schedule = schedule
        self.eps = eps
        self._eps_assembly = ASSEMBLY_TAIL_MARGIN * eps
        self.spectrum = spectrum(model, sub)
        self.with_notice = _flow_series(self.spectrum, ((schedule.notice_delta, 1.0),), eps)
        self.dates: list[DateRecord] = []
        # break-even states of the date stepped last, the next date's hints
        self._hints: dict[str, float | None] = {"call": None, "put": None}
        # what every date's assembly reads, built once per run and kept on
        # the engine, not the spectrum, so nothing outlives the call: the
        # expansion of P(delta, .), the coupon term to POOL_CAP and, on first
        # use, the decay to POOL_CAP over each holding period (a run has few
        # distinct ones), and the floor of the notice bond that every search reads
        if has_dates:
            notice = schedule.notice_delta
            self._strike = self.spectrum.cut(((notice, 1.0),), eps)
            self._notice_floor = self.spectrum.floor(((notice, 1.0),), eps)
            self._coupon_term = schedule.coupon * self.spectrum.unit_weights(notice, POOL_CAP)
        self._decays: dict[float, np.ndarray] = {}

    # -- one decision date ---------------------------------------------------

    def _step(self, i: int, search: list[float], carried: np.ndarray, floor: float) -> np.ndarray:
        """Locate date i's break-even states and return the hold weights of
        the date before it, or of the issue date at the first date.

        ``carried`` is date i's hold weights: the vector carried from the
        stage after it, already decayed over the holding period.  The
        break-even search reads ``search``: the same weights as a list, or
        the redemption's whole pool at the last date (see ``run``), from
        ``floor``, where that series resolves, up."""
        sched = self.schedule
        record = DateRecord(index=i, decision_time=sched.decision_time(i))
        m_cols = carried.size - 1
        lo, start, hi = self.model.search_interval(m_cols)
        # D = K P(delta, .) - C is read only where both its series resolve
        interval = max(lo, floor, self._notice_floor), start, hi
        evaluate = functools.partial(self.with_notice, search)
        finder = _RootFinder(evaluate, interval, i, record.eval_levels)

        states: dict[str, float | None] = {"call": None, "put": None}
        for kind, strike in (("call", sched.call_price(i)), ("put", sched.put_price(i))):
            if strike is not None:
                states[kind] = finder.find(kind, strike, hint=self._hints[kind])
                if kind == "call" and states[kind] == finder.search_hi:
                    # taken on an affine model once the sign scan confirms it:
                    # on the 3/2 model a wrongly large continuation can fake one
                    if not self.model.affine:
                        raise BracketError("call region covers the whole search interval", i)
                    finder.scan_single_crossing(strike, False)
        self._hints = states
        record.search_fallbacks = finder.fallbacks
        x_call, x_put = states["call"], states["put"]
        if x_call is not None and x_put is not None and not x_call < x_put:
            raise BracketError(
                f"break-even ordering violated: x_call={x_call} >= x_put={x_put}",
                decision_index=i,
            )
        record.call_state, record.put_state = x_call, x_put

        # -- assembly -------------------------------------------------------
        # The carried coefficient vector is cut where the *next* stage's
        # term weights |c_n| e^{-phi(lambda_n) h_next} become negligible,
        # independent of the levels the break-even search happened to touch:
        # exercise kinks give the assembled value function a slower
        # coefficient decay than the function it was built from, so the
        # next date may need deeper coefficients than this date's
        # evaluations used.  The decay over h_next is the run's table for
        # that period, built at the first date that holds for it.
        if i > sched.protection_index:
            h_next = sched.holding_period(i - 1)
        else:
            h_next = sched.decision_time(i)
        decay_next = self._decays.get(h_next)
        if decay_next is None:
            decay_next = self._decays[h_next] = self.spectrum.decay(h_next, POOL_CAP)
        # a few rows past the incoming length: a date that needs more than
        # it carried in rarely needs many more, and a redone pass costs a
        # whole assembly
        n_rows = min(max(16, m_cols + 4), POOL_CAP)
        while True:
            new = self._assemble(i, n_rows, x_call, x_put, carried)
            level, converged = series.stop_level(
                np.abs(new) * decay_next[: n_rows + 1], self._eps_assembly
            )
            if converged:
                new = new[: level + 3]  # keep the two look-ahead terms
                break
            if n_rows >= POOL_CAP:
                raise ConvergenceError(
                    f"carried coefficients at decision index {i} not converged by n={POOL_CAP}"
                )
            n_rows = min(2 * n_rows, POOL_CAP)

        if not np.isfinite(new).all():
            raise ConvergenceError(f"non-finite expansion coefficients at decision index {i}")
        record.assembled = new.size - 1
        self.dates.append(record)
        return new * decay_next[: new.size]

    def _assemble(self, i, n_rows, x_call, x_put, hold) -> np.ndarray:
        """Rows 0..n_rows of the coefficient vector carried from date i.

        Each region's payoff is a coefficient vector: K e over an exercise
        region (e the expansion of P(delta, .)) and the hold weights
        ``hold`` in between.  With A_x the overlap over the states below x
        (``coeffs.overlap_below``: 0 at ``state_lo``, I at ``state_hi``), the
        sum over the regions of (A_end - A_start) g telescopes into the
        payoff of the highest region plus one apply per finite break-even
        state, on the jump of the payoff across it:

            new = g_highest + sum_x A_x (g_below(x) - g_above(x)) + coupon term.
        """
        sched, strike = self.schedule, self._strike
        states, payoffs = [], [hold]  # in state order
        if x_call is not None:
            states.insert(0, x_call)
            payoffs.insert(0, sched.call_price(i) * strike)
        if x_put is not None:
            states.append(x_put)
            payoffs.append(sched.put_price(i) * strike)
        top = payoffs[-1]
        new = self._coupon_term[: n_rows + 1].copy()
        new[: top.size] += top[: n_rows + 1]
        for x, below, above in zip(states, payoffs, payoffs[1:]):
            new += coeffs_mod.overlap_below(self.model, x, n_rows, _jump(below, above))
        return new

    # -- full run --------------------------------------------------------------

    def run(self, initial_states: np.ndarray) -> PricingResult:
        """One stage per decision date, backward from the redemption held
        from the last date (from issue without one) to maturity; the
        issue-date value is the same series over the last hold weights."""
        sched = self.schedule
        dates = sched.exercise_indices
        held = sched.holding_period(dates[-1]) if dates else sched.maturity
        redemption = ((held, 1.0 + sched.coupon),)
        # the first search reads the whole pool, the assembly its cut; a
        # straight bond assembles nothing, so its pool need not fire the cut
        search = self.spectrum.pool(redemption)
        weights = self.spectrum.cut(redemption, self.eps) if dates else None
        # the first search reads the pool from its kept floor, each later one
        # (and the issue value) its carried list from the list's own
        floor = self.spectrum.floor(redemption, self.eps)
        for i in reversed(dates):
            try:
                weights = self._step(i, search, weights, floor)
            except ConvergenceError as exc:
                raise ConvergenceError(f"at decision index {i}: {exc}") from exc
            search = weights.tolist()
            floor = self.model.resolved_floor(search, self.eps, weights.size - 1)
        self.dates.sort(key=lambda d: d.index)

        flows = tuple((t, sched.coupon) for t in sched.coupon_times[: sched.protection_index - 1])
        with_coupons = _flow_series(self.spectrum, flows, self.eps)  # the protected coupons
        eps_coupons = self.eps / max(len(flows), 1)
        floor = max(floor, self.spectrum.floor(flows, eps_coupons))
        # a floor is read on a grid: a state below it may still resolve
        lo = self.model.search_interval(len(search) - 1)[0]
        read = ((search, self.eps), (self.spectrum.pool(flows), eps_coupons))
        for x0 in initial_states[initial_states < floor]:
            if x0 < lo or not all(self.model.resolves(w, e, x0) for w, e in read):
                raise ValidationError(
                    f"initial state {x0:.6g} lies below {floor:.6g}, where the issue-date "
                    f"series of the {self.model.kind} model resolve to eps"
                )
        values = np.empty(len(initial_states))
        value_levels: list[int] = []
        for j, x0 in enumerate(initial_states):
            value, _, level, coupons, _ = with_coupons(search, x0)
            values[j] = value + coupons
            value_levels.append(level)

        self._map_break_even_rates()
        return PricingResult(
            initial_states=np.asarray(initial_states, dtype=float),
            values=values,
            dates=self.dates,
            value_levels=value_levels,
            eps=self.eps,
        )

    def _map_break_even_rates(self) -> None:
        """Map every call and put state of the run in one short-rate map call."""
        states = [
            state
            for record in self.dates
            for state in (record.call_state, record.put_state)
            if state is not None
        ]
        if not states:
            return
        rates = iter(short_rate_map(self.model, self.sub, np.array(states)).tolist())
        for record in self.dates:
            if record.call_state is not None:
                record.call_rate = next(rates)
            if record.put_state is not None:
                record.put_rate = next(rates)


def price_bond(
    model: DiffusionModel,
    sub: SubordinatorSpec,
    schedule: BondSchedule,
    initial_states,
    eps: float = 1e-7,
) -> PricingResult:
    """Value a callable/putable bond at one or more initial states.

    The backward recursion over decision dates runs once; each initial
    state then costs one recurrence pass for its value and the
    protected-coupon leg together (the leg a closed form on an affine model
    with the plain clock).
    """
    initial_states = np.atleast_1d(real_array("initial states", initial_states))
    if initial_states.ndim != 1:
        raise ValidationError(
            f"initial states must be a number or a 1-D sequence, got shape {initial_states.shape}"
        )
    if initial_states.size == 0:
        raise ValidationError("need at least one initial state")
    for x0 in initial_states:
        model.check_state(x0)
    engine = _Engine(model, sub, schedule, eps=eps)
    return engine.run(initial_states)
