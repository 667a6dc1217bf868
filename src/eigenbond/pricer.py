"""Backward recursion pricing of callable, putable, and straight bonds.

The bond value at issue is built in three moves:

1.  Terminal coefficients c_n = (1 + coupon) p_n expand the redemption
    payment in the eigenbasis.
2.  At each decision date, stepping backward, the hold value is the
    eigenfunction series with coefficients c_n e^{-phi(lambda_n) h}.  The
    issuer calls below the state x_c where the discounted call price drops
    under the hold value, the holder puts above the state x_p where the
    discounted put price rises above it; both break-even states are found
    by one bracket walk, started at the previous date's state of the same
    kind (or at the bottom of the search interval), and Brent.  The
    new coefficient vector sums, over the regions, the overlap over the
    region applied to its payoff (the strike times the expansion of
    P(delta, .) over an exercise region, the continuation coefficients
    over the hold region), plus the coupon term.  The sum telescopes to
    one overlap apply per finite break-even state (``_Engine._assemble``;
    the overlap is never formed at a Gauss-Jacobi endpoint, see
    ``coeffs``).
3.  At issue the value is the series at the first decision time plus the
    protected coupons, one series over their summed weights.

Each quantity has one evaluator.  ``_discount_bond`` gives
x -> sum_j a_j P(t_j, x) over cash flows ((t_j, a_j), ...), for the
notice-period bond of the strike comparisons and for all the protected
coupons at once: the closed form on an affine model with the plain clock,
else one growing-supply series, cut at eps of the mean flow.  Continuation
values and break-even states are computed only inside the recursion
(``_Engine``); the public entry points are ``price_bond`` and
``zero_coupon_price``.  Brent closes every break-even search to ``TOL_X``.

Every series evaluation is truncated adaptively by the two-term
look-ahead rule of ``series``, streamed: the terms w_n phi_n(x) are drawn
one at a time from the model's recurrence (``eigenfunction_terms``) until
the rule fires, with no term array built.  The weights w_n are plain float
lists: the continuation weights once per date, and for the growing-supply
series sum_j a_j p_n e^{-phi(lambda_n) t_j}, cached by ``SpectralBasis``
per cash-flow set and grown by doubling only when a series runs past them.
The coefficients carried from one date to the next are a plain array, cut
separately, by the decay of their own next-stage term weights: exercise
kinks give the assembled value function slower coefficient decay than the
series evaluations that located the boundaries, so the two depths are
controlled independently (see ``ASSEMBLY_TAIL_MARGIN``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from operator import mul

import numpy as np
from scipy import optimize

from . import coeffs as coeffs_mod
from . import series
from .errors import BracketError, ConvergenceError, ValidationError
from .models import POOL_CAP, DiffusionModel
from .subordinators import SubordinatorSpec, laplace_exponent, short_rate_map

__all__ = [
    "BondSchedule",
    "DateRecord",
    "PricingResult",
    "zero_coupon_price",
    "price_bond",
]

# Brent closes each break-even search to within TOL_X / 2 of the crossing.
TOL_X = 1e-7

# A date's break-even walk starts from last date's state of the same kind
# with this half-width; an end that fails to straddle moves out by steps
# growing this factor at a time.
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
        times = tuple(float(t) for t in self.coupon_times)
        object.__setattr__(self, "coupon_times", times)
        if len(times) == 0:
            raise ValidationError("schedule needs at least one coupon/redemption date")
        if not (math.isfinite(self.coupon) and self.coupon >= 0.0):
            raise ValidationError(f"coupon must be finite and >= 0, got {self.coupon}")
        if not all(map(math.isfinite, times)) or times[0] <= 0.0 or any(
            t2 <= t1 for t1, t2 in zip(times, times[1:])
        ):
            raise ValidationError("coupon times must be finite, positive and strictly increasing")
        if not (math.isfinite(self.notice_delta) and self.notice_delta >= 0.0):
            raise ValidationError(f"notice period must be finite and >= 0, got {self.notice_delta}")
        spacing = min(
            [times[0]] + [t2 - t1 for t1, t2 in zip(times, times[1:])]
        )
        if self.notice_delta >= spacing:
            raise ValidationError("notice period must be shorter than the coupon spacing")
        k = len(times)
        index = self.protection_index
        if isinstance(index, bool) or not isinstance(index, numbers.Integral):
            raise ValidationError(f"protection index must be an integer, got {index!r}")
        if not 1 <= self.protection_index <= k:
            raise ValidationError(
                f"protection index must lie in [1, {k}], got {self.protection_index}"
            )
        n_ex = k - self.protection_index
        for name, ladder in (("call_prices", self.call_prices), ("put_prices", self.put_prices)):
            if ladder is not None:
                ladder = tuple(float(v) for v in ladder)
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
# Spectral supply
# ---------------------------------------------------------------------------


class SpectralBasis:
    """Grow-on-demand subordinate eigenvalues and unit coefficients, with the
    weight lists of the growing-supply series cached per cash-flow set."""

    def __init__(self, model: DiffusionModel, sub: SubordinatorSpec):
        self.model = model
        self.sub = sub
        try:
            lam0 = float(model.eigenvalue(0))
            laplace_exponent(sub, lam0)
        except ValidationError as exc:
            raise ValidationError(
                f"subordinator undefined at the bottom eigenvalue lambda_0 = "
                f"{model.eigenvalue(0):.6g}: {exc}"
            ) from exc
        self._grow(64)
        self._pools: dict[tuple[tuple[float, float], ...], list[float]] = {}

    def _grow(self, n_hi: int) -> None:
        lam = np.asarray(self.model.eigenvalues(n_hi), dtype=float)
        self.philam = np.asarray(laplace_exponent(self.sub, lam), dtype=float)
        self.p = self.model.unit_payoff_coefficients(n_hi)

    def ensure(self, n_hi: int) -> None:
        if n_hi >= self.philam.size:
            self._grow(max(n_hi, 2 * (self.philam.size - 1)))

    def unit_weights(self, t: float, n_hi: int) -> np.ndarray:
        """p_n e^{-phi(lambda_n) t} for n = 0..n_hi."""
        self.ensure(n_hi)
        return self.p[: n_hi + 1] * np.exp(-self.philam[: n_hi + 1] * t)

    def decay(self, t: float, n_hi: int) -> np.ndarray:
        self.ensure(n_hi)
        return np.exp(-self.philam[: n_hi + 1] * t)

    def pool_weights(self, flows: tuple[tuple[float, float], ...], n_hi: int) -> list[float]:
        """sum_j a_j p_n e^{-phi(lambda_n) t_j} over the cash flows ((t_j, a_j), ...)
        as a float list of at least n_hi + 1 entries, cached per flows tuple; a
        miss doubles the cached list, up to ``POOL_CAP``."""
        weights = self._pools.get(flows)
        if weights is None or len(weights) <= n_hi:
            if weights is not None:
                n_hi = max(n_hi, min(2 * (len(weights) - 1), POOL_CAP))
            zero = np.zeros(n_hi + 1)  # no flows (no protected coupons): zero weights
            weights = sum((a * self.unit_weights(t, n_hi) for t, a in flows), zero).tolist()
            self._pools[flows] = weights
        return weights


def _series_eval_capped(
    basis: SpectralBasis, weights: list[float], x: float, eps: float
) -> tuple[float, int]:
    """Truncated sum_n weights_n phi_n(x) with a fixed coefficient supply.

    Returns (value, stop level).  When the rule does not fire within the
    supply, every available term is used.
    """
    terms = map(mul, weights, basis.model.eigenfunction_terms(len(weights) - 1, x))
    value, level, _ = series.truncate_stream(terms, eps)
    return value, level


def _series_eval_pool(
    basis: SpectralBasis, flows: tuple[tuple[float, float], ...], x: float, eps: float
) -> tuple[float, int]:
    """Truncated sum_n w_n phi_n(x) over the weights w of ``pool_weights``, growing supply.

    The series is offered the basis's whole cached weight list: the level
    where the rule first fires does not depend on how far the supply
    reaches, so a list grown by an earlier call changes no result.
    """
    n_hi = 32
    while True:
        weights = basis.pool_weights(flows, n_hi)
        n_hi = len(weights) - 1
        terms = map(mul, weights, basis.model.eigenfunction_terms(n_hi, x))
        value, level, converged = series.truncate_stream(terms, eps)
        if converged:
            return value, level
        if n_hi >= POOL_CAP:
            raise ConvergenceError(
                f"series of the cash flows {flows} at x={x} not converged by n={POOL_CAP}"
            )
        n_hi = min(2 * n_hi, POOL_CAP)


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
    if not t > 0.0:
        raise ValidationError("maturity must be positive")
    if not (math.isfinite(x) and model.contains(x)):
        raise ValidationError(f"state {x} outside the {model.kind} state space or not finite")
    basis = SpectralBasis(model, sub)
    value, _ = _series_eval_pool(basis, ((t, 1.0),), x, eps)
    return value


def _discount_bond(basis: SpectralBasis, flows: tuple[tuple[float, float], ...], eps: float):
    """x -> sum_j a_j P(t_j, x) over the cash flows ((t_j, a_j), ...): the
    affine closed form on the plain clock, else one growing-supply
    eigenfunction series over the summed weights, cut at eps of the mean
    flow (eps / len(flows) relative to the sum), so that the earliest flow,
    whose slow decay sets the depth, is cut no looser than on its own."""
    model = basis.model
    if not (basis.sub.is_trivial and model.affine):
        eps_mean = eps / max(len(flows), 1)
        return lambda x: _series_eval_pool(basis, flows, x, eps_mean)[0]
    legs = [(a, *model.affine_bond_factors(t)) for t, a in flows]
    return lambda x: sum(a * a_fac * math.exp(-b_fac * x) for a, a_fac, b_fac in legs)


# ---------------------------------------------------------------------------
# Break-even search
# ---------------------------------------------------------------------------


class _RootFinder:
    """Locates one date's break-even states against a continuation function.

    ``cont(x)`` returns the continuation value and its series stop level;
    ``interval`` is the model's ``search_interval``.  The levels of every
    evaluation ``find`` makes are appended to ``levels``; the sign scan
    records none.
    """

    def __init__(
        self,
        cont,
        discounted_strike,
        interval: tuple[float, float, float],
        decision_index: int,
        levels: list[int],
    ):
        self.cont = cont
        self.discounted_strike = discounted_strike
        self.search_lo, self.bracket_start, self.search_hi = interval
        self.decision_index = decision_index
        self.levels = levels

    def _difference(self, strike: float, levels: list[int] | None = None):
        """x -> K P(delta, x) - C(x), evaluated once per distinct x."""
        seen: dict[float, float] = {}

        def diff(x: float) -> float:
            if x not in seen:
                value, level = self.cont(x)
                if levels is not None:
                    levels.append(level)
                seen[x] = strike * self.discounted_strike(x) - value
            return seen[x]

        return diff

    def find(self, kind: str, strike: float, hint: float | None = None) -> float | None:
        """Break-even state, or None when the exercise region is empty.

        The difference K P(delta, x) - C(x) is increasing with a single
        crossing: exercise regions are the low-rate side for calls and the
        high-rate side for puts.  One walk brackets the crossing.  It starts
        at ``hint`` +- ``_WARM_HALF_WIDTH`` (``hint``, last date's break-even
        state of the same kind, clamped into the search interval), or at
        [search_lo, start] without one.  An end that fails to straddle
        becomes the other end while the failed side moves out by steps
        growing ``_WARM_GROWTH``-fold, stopping at the interval's edge.
        Brent's method then closes the bracket to within ``TOL_X / 2`` of
        the crossing.  At an edge that fails to straddle the region covers
        the whole interval or none of it: a call region over all of it has
        its break-even state at ``search_hi``, and a put region over all of
        it raises, since a poorly resolved 3/2 continuation can fake one.
        """
        diff = self._difference(strike, self.levels)
        edge_lo, edge_hi = self.search_lo, self.search_hi
        if hint is None:
            lo, hi = edge_lo, max(self.bracket_start, edge_lo + TOL_X)
            step = 0.5 * (hi - lo)
        else:
            hint, step = min(max(hint, edge_lo), edge_hi), _WARM_HALF_WIDTH
            lo, hi = max(hint - step, edge_lo), min(hint + step, edge_hi)
        while diff(lo) > 0.0:  # the root lies below lo
            if lo == edge_lo:
                if kind == "call":
                    return None  # strike too dear even at the lowest rates
                raise BracketError(
                    "put region covers the whole search interval",
                    decision_index=self.decision_index,
                )
            step *= _WARM_GROWTH
            lo, hi = max(lo - step, edge_lo), lo
        while diff(hi) <= 0.0:  # the root lies above hi
            if hi == edge_hi:
                # a call region over the whole interval, or no put region
                return edge_hi if kind == "call" else None
            step *= _WARM_GROWTH
            lo, hi = hi, min(hi + step, edge_hi)
        return optimize.brentq(diff, lo, hi, xtol=0.5 * TOL_X)

    def scan_single_crossing(self, strike: float, has_root: bool) -> None:
        """64-point sign scan guarding the single-root assumption."""
        xs = np.linspace(self.search_lo, self.search_hi, 64)
        diff = self._difference(strike)
        signs = np.sign([diff(x) for x in xs])
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


def _resized(vector: np.ndarray, size: int) -> np.ndarray:
    """A copy of ``vector`` cut or zero-padded to ``size`` entries."""
    out = np.zeros(size)
    out[: min(size, vector.size)] = vector[:size]
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
        if schedule.protection_index < schedule.n_coupons:
            tau_first = schedule.decision_time(schedule.protection_index)
            if tau_first <= 0.0:
                raise ValidationError("first decision time must be positive")
            model.check_recursion()
        self.model = model
        self.sub = sub
        self.schedule = schedule
        self.eps = eps
        self._eps_assembly = ASSEMBLY_TAIL_MARGIN * eps
        self.basis = SpectralBasis(model, sub)
        self.pdelta = _discount_bond(self.basis, ((schedule.notice_delta, 1.0),), eps)
        self.dates: list[DateRecord] = []
        # break-even states of the date stepped last, the next date's hints
        self._hints: dict[str, float | None] = {"call": None, "put": None}

    # -- one decision date ---------------------------------------------------

    def _step(self, i: int, prev: np.ndarray | None) -> np.ndarray:
        """Locate date i's break-even states and return the coefficient
        vector carried to the date before it; ``prev`` is the vector carried
        from date i + 1, None at the terminal stage.
        """
        sched = self.schedule
        h = sched.holding_period(i)
        record = DateRecord(index=i, decision_time=sched.decision_time(i))

        if prev is None:
            # terminal stage: c_n = (1 + coupon) p_n, unbounded supply
            scale = 1.0 + sched.coupon
            majorant = lambda m_hi: scale * self.basis.unit_weights(h, m_hi)
            m_cols = series.weight_cutoff(majorant, self.eps)
            prev_weights = scale * self.basis.unit_weights(h, m_cols)

            def cont(x: float) -> tuple[float, int]:
                return _series_eval_pool(self.basis, ((h, scale),), x, self.eps)

        else:
            m_cols = prev.size - 1
            prev_weights = prev * self.basis.decay(h, m_cols)
            cont_weights = prev_weights.tolist()

            def cont(x: float) -> tuple[float, int]:
                return _series_eval_capped(self.basis, cont_weights, x, self.eps)

        interval = self.model.search_interval(m_cols)
        finder = _RootFinder(cont, self.pdelta, interval, i, record.eval_levels)

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
        # evaluations used.
        if i > sched.protection_index:
            h_next = sched.holding_period(i - 1)
        else:
            h_next = sched.decision_time(i)
        n_rows = max(16, m_cols)
        while True:
            new = self._assemble(i, n_rows, x_call, x_put, prev_weights)
            decay_next = self.basis.decay(h_next, n_rows)
            level, converged = series.stop_level(np.abs(new) * decay_next, self._eps_assembly)
            if converged:
                new = new[: level + 3]  # keep the two look-ahead terms
                break
            if n_rows >= POOL_CAP:
                raise ConvergenceError(
                    f"carried coefficients at decision index {i} not converged by n={POOL_CAP}"
                )
            n_rows = min(2 * n_rows, POOL_CAP)

        if not np.all(np.isfinite(new)):
            raise ConvergenceError(f"non-finite expansion coefficients at decision index {i}")
        record.assembled = new.size - 1
        self.dates.append(record)
        return new

    def _assemble(self, i, n_rows, x_call, x_put, prev_weights) -> np.ndarray:
        """Rows 0..n_rows of the coefficient vector carried from date i.

        Each region's payoff is a coefficient vector: K e over an exercise
        region (e the expansion of P(delta, .)) and the hold weights w in
        between.  With A_x the overlap from the bottom of the coordinate to
        x (0 at the bottom, I at the top), the sum over the regions of
        (A_end - A_start) g telescopes into the payoff at the top of the
        coordinate plus one apply per finite break-even state, on the jump
        of the payoff across it:

            new = g_top + s sum_x A_x (g_left(x) - g_right(x)) + coupon term,

        where s = +1 when the coordinate increases with the state (g_top
        the region at ``state_hi``) and s = -1 on a reversed coordinate
        (g_top the region at ``state_lo``).
        """
        sched, model = self.schedule, self.model
        strike = coeffs_mod._expansion_weights(model, self.sub, sched.notice_delta, self.eps)
        states, payoffs = [], [prev_weights]  # in state order
        if x_call is not None:
            states.insert(0, x_call)
            payoffs.insert(0, sched.call_price(i) * strike)
        if x_put is not None:
            states.append(x_put)
            payoffs.append(sched.put_price(i) * strike)
        sign, top = (-1.0, payoffs[0]) if model.coordinate_reversed else (1.0, payoffs[-1])
        new = _resized(top, n_rows + 1)
        new += sched.coupon * self.basis.unit_weights(sched.notice_delta, n_rows)
        for x, left, right in zip(states, payoffs, payoffs[1:]):
            size = max(left.size, right.size)
            jump = _resized(left, size) - _resized(right, size)
            new += sign * coeffs_mod.Endpoint(model, x).apply(n_rows, jump)
        return new

    # -- full run --------------------------------------------------------------

    def run(self, initial_states: np.ndarray) -> PricingResult:
        sched = self.schedule
        k = sched.n_coupons
        coefficients: np.ndarray | None = None
        for i in range(k - 1, sched.protection_index - 1, -1):
            try:
                coefficients = self._step(i, coefficients)
            except ConvergenceError as exc:
                raise ConvergenceError(f"at decision index {i}: {exc}") from exc
        self.dates.sort(key=lambda d: d.index)

        if coefficients is not None:
            start_t = sched.decision_time(sched.protection_index)
            weights0 = (coefficients * self.basis.decay(start_t, coefficients.size - 1)).tolist()

        flows = tuple((t, sched.coupon) for t in sched.coupon_times[: sched.protection_index - 1])
        coupon_leg = _discount_bond(self.basis, flows, self.eps)  # the protected coupons
        values = np.empty(len(initial_states))
        value_levels: list[int] = []
        for j, x0 in enumerate(initial_states):
            if coefficients is None:
                redemption = ((sched.maturity, 1.0 + sched.coupon),)
                value, level = _series_eval_pool(self.basis, redemption, x0, self.eps)
            else:
                value, level = _series_eval_capped(self.basis, weights0, x0, self.eps)
            values[j] = value + coupon_leg(x0)
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
    state then costs one series evaluation plus the protected-coupon leg,
    one more series (a closed form on an affine model with the plain clock).
    """
    initial_states = np.atleast_1d(np.asarray(initial_states, dtype=float))
    if initial_states.size == 0:
        raise ValidationError("need at least one initial state")
    for x0 in initial_states:
        if not (math.isfinite(x0) and model.contains(x0)):
            raise ValidationError(
                f"initial state {x0} outside the {model.kind} state space or not finite"
            )
    engine = _Engine(model, sub, schedule, eps=eps)
    return engine.run(initial_states)
