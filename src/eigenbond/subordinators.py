"""Levy subordinators: Laplace exponents and the induced short-rate map.

A subordinator (nondecreasing Levy process) with drift gamma and Levy
measure nu(ds) time-changes a short-rate diffusion into a jump-diffusion
(gamma > 0) or pure-jump (gamma = 0) model.  Computationally the change is
tiny: each eigenvalue lambda_n of the pricing semigroup is replaced by
phi(lambda_n), where phi is the subordinator's Laplace exponent, while the
eigenfunctions are untouched.  Every caller forms these subordinate
eigenvalues as ``laplace_exponent(sub, model.eigenvalues(n_max))``.  The
short rate of the time-changed model is no longer the state itself but

    r_phi(x) = gamma * r(x) + integral (1 - P(s, x)) nu(ds),

with P(s, x) the zero-coupon bond of the *diffusion* model.  Integrating
the bond's eigenfunction expansion termwise against nu turns it into

    r_phi(x) = gamma * x + sum_n p_n (phi(lambda_n) - gamma lambda_n) phi_n(x),

a series in the eigenfunctions the pricer already evaluates.  This is the
only route ``short_rate_map`` and ``invert_short_rate`` take, for every
model.  The Levy-integral quadrature lives in ``oracle.py`` as an
independent cross-check.

``invert_short_rate`` keeps, on the model and per clock, every bracket
(a grid of states, the coefficients resolved over it, r_phi and dr_phi/dx
tabulated at its states) whose rates enclosed the quote it was walked for.
A quote inside a kept bracket resolves no series: it closes in the grid
cell whose tabulated rates enclose it, seeded by the cell's cubic Hermite
interpolant of the inverse, at one series evaluation in the common case.
``short_rate_map`` reads the states inside a kept bracket through its
coefficients and resolves the series over the others.

Supported families (lowercase names used in configs):

* ``"none"``            trivial clock, phi(lam) = lam
* ``"ig"``              inverse Gaussian, parameterized by the mean mu and
                        variance nu_var of the process at unit time
* ``"gamma"``           Levy density C s^{-1} e^{-eta s}
* ``"tempered_stable"`` Levy density C s^{-p-1} e^{-eta s}, p < 1 and p != 0
                        (its p -> 0 limit is ``"gamma"``)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import series
from .errors import BracketError, ValidationError, check_real, real_array
from .models import POOL_CAP, DiffusionModel

__all__ = [
    "SubordinatorSpec",
    "laplace_exponent",
    "Spectrum",
    "spectrum",
    "levy_mean",
    "mean_rate",
    "short_rate_map",
    "invert_short_rate",
]

FAMILIES = ("none", "ig", "gamma", "tempered_stable")


@dataclass(frozen=True)
class SubordinatorSpec:
    """Subordinator family plus parameters.

    ``drift`` is the deterministic clock speed gamma >= 0.  The inverse
    Gaussian family uses (mu, nu_var) = mean and variance at unit time; the
    gamma and tempered-stable families use the Levy-density parameters
    (c, eta) and additionally p for tempered stable.
    """

    family: str = "none"
    drift: float = 0.0
    mu: float | None = None
    nu_var: float | None = None
    c: float | None = None
    p: float | None = None
    eta: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(
                f"unknown subordinator family {self.family!r}; expected one of {FAMILIES}"
            )
        for name in ("drift", "mu", "nu_var", "c", "p", "eta"):
            value = getattr(self, name)
            if value is not None or name == "drift":  # only drift is never optional
                check_real(name, value)
                if not math.isfinite(value):
                    raise ValidationError(f"{name} must be finite, got {value}")
        if self.family != "none" and not self.drift >= 0.0:
            raise ValidationError(f"drift must be >= 0, got {self.drift}")
        if self.family == "ig":
            if self.mu is None or self.nu_var is None:
                raise ValidationError("ig subordinator requires mu and nu_var")
            if not (self.mu > 0.0 and self.nu_var > 0.0):
                raise ValidationError("ig subordinator requires mu > 0 and nu_var > 0")
        elif self.family == "gamma":
            if self.c is None or self.eta is None:
                raise ValidationError("gamma subordinator requires c and eta")
            if not (self.c > 0.0 and self.eta > 0.0):
                raise ValidationError("gamma subordinator requires c > 0 and eta > 0")
        elif self.family == "tempered_stable":
            if self.c is None or self.p is None or self.eta is None:
                raise ValidationError("tempered_stable subordinator requires c, p, eta")
            if not self.c > 0.0:
                raise ValidationError("tempered_stable requires c > 0")
            if not self.p < 1.0:
                raise ValidationError(f"tempered_stable requires p < 1, got {self.p}")
            if self.p == 0.0:
                raise ValidationError(
                    "tempered_stable requires p != 0; its p -> 0 limit is the 'gamma' family"
                )
            if self.eta < 0.0:
                raise ValidationError("tempered_stable requires eta >= 0")
            if self.eta == 0.0 and not 0.0 < self.p:
                raise ValidationError("eta = 0 (stable limit) needs 0 < p < 1")

    # Convenience constructors ------------------------------------------------

    @staticmethod
    def none() -> "SubordinatorSpec":
        return SubordinatorSpec(family="none")

    @staticmethod
    def inverse_gaussian(drift: float, mu: float, nu_var: float) -> "SubordinatorSpec":
        return SubordinatorSpec(family="ig", drift=drift, mu=mu, nu_var=nu_var)

    @staticmethod
    def gamma_process(drift: float, c: float, eta: float) -> "SubordinatorSpec":
        return SubordinatorSpec(family="gamma", drift=drift, c=c, eta=eta)

    @staticmethod
    def tempered_stable(drift: float, c: float, p: float, eta: float) -> "SubordinatorSpec":
        return SubordinatorSpec(family="tempered_stable", drift=drift, c=c, p=p, eta=eta)

    @property
    def is_trivial(self) -> bool:
        return self.family == "none"


def laplace_exponent(sub: SubordinatorSpec, lam):
    """phi(lam) = gamma lam + int (1 - e^{-lam s}) nu(ds), elementwise in lam."""
    lam = np.asarray(lam, dtype=float)
    if sub.family == "none":
        return lam + 0.0
    if sub.family == "ig":
        arg = 1.0 + 2.0 * (sub.nu_var / sub.mu) * lam
        if np.any(arg < 0.0):
            raise ValidationError(
                "inverse Gaussian Laplace exponent undefined: 1 + 2 (nu/mu) lam < 0"
            )
        return sub.drift * lam + sub.mu**2 / sub.nu_var * (np.sqrt(arg) - 1.0)
    if sub.family == "gamma":
        ratio = 1.0 + lam / sub.eta
        if np.any(ratio <= 0.0):
            raise ValidationError("gamma Laplace exponent undefined: 1 + lam/eta <= 0")
        return sub.drift * lam + sub.c * np.log(ratio)
    # tempered stable, p != 0
    shifted = lam + sub.eta
    if np.any(shifted < 0.0):
        raise ValidationError("tempered-stable Laplace exponent undefined: lam + eta < 0")
    g = math.gamma(-sub.p)
    return sub.drift * lam - sub.c * g * (shifted**sub.p - sub.eta**sub.p)


Flows = tuple[tuple[float, float], ...]  # cash flows ((t_j, a_j), ...)


class Spectrum:
    """The subordinate spectrum of one model under one clock: lambda_n,
    phi(lambda_n) and p_n for n = 0..``POOL_CAP``, set once and never grown.

    ``pool(flows)``, ``cut(flows, eps)`` and ``floor(flows, eps)`` are kept
    per key, each stored in one assignment once built, so threads sharing a
    model never see a partial entry.
    """

    def __init__(self, model: DiffusionModel, sub: SubordinatorSpec):
        self.model = model
        self.sub = sub
        self.lam = np.asarray(model.eigenvalues(POOL_CAP), dtype=float)
        try:
            self.philam = np.asarray(laplace_exponent(sub, self.lam), dtype=float)
        except ValidationError as exc:
            raise ValidationError(
                f"subordinator undefined at the bottom eigenvalue lambda_0 = "
                f"{self.lam[0]:.6g}: {exc}"
            ) from exc
        self.p = model.unit_payoff_coefficients(POOL_CAP)
        self._pools: dict[Flows, list[float]] = {}
        self._cuts: dict[tuple[Flows, float], np.ndarray] = {}
        self._floors: dict[tuple[Flows, float], float] = {}

    def unit_weights(self, t: float, n_hi: int) -> np.ndarray:
        """p_n e^{-phi(lambda_n) t} for n = 0..n_hi."""
        return self.p[: n_hi + 1] * np.exp(-self.philam[: n_hi + 1] * t)

    def decay(self, t: float, n_hi: int) -> np.ndarray:
        """e^{-phi(lambda_n) t} for n = 0..n_hi."""
        return np.exp(-self.philam[: n_hi + 1] * t)

    def pool(self, flows: Flows) -> list[float]:
        """sum_j a_j p_n e^{-phi(lambda_n) t_j} for n = 0..``POOL_CAP`` as a
        float list; no flows (no protected coupons) give zero weights."""
        weights = self._pools.get(flows)
        if weights is None:
            zero = np.zeros(POOL_CAP + 1)
            weights = sum((a * self.unit_weights(t, POOL_CAP) for t, a in flows), zero).tolist()
            self._pools[flows] = weights
        return weights

    def cut(self, flows: Flows, eps: float) -> np.ndarray:
        """``pool(flows)`` up to the level of ``series.weight_cutoff``, read-only."""
        weights = self._cuts.get((flows, eps))
        if weights is None:
            pool = np.array(self.pool(flows))
            weights = pool[: series.weight_cutoff(pool, eps) + 1]
            weights.flags.writeable = False
            self._cuts[flows, eps] = weights
        return weights

    def floor(self, flows: Flows, eps: float) -> float:
        """The model's ``resolved_floor`` of ``pool(flows)`` at eps, over the
        search interval of the ``cut(flows, eps)`` length (of the whole pool
        where its weights do not fire the cut, as a straight bond's
        redemption or protected coupons need not)."""
        floor = self._floors.get((flows, eps))
        if floor is None:
            pool = self.pool(flows)
            n_supply, _ = series.stop_level(np.abs(pool), eps)
            floor = self._floors[flows, eps] = self.model.resolved_floor(pool, eps, n_supply)
        return floor


def spectrum(model: DiffusionModel, sub: SubordinatorSpec) -> Spectrum:
    """The model's ``Spectrum`` under the clock, built on first use and kept
    on the model."""
    spectra = model._spectra
    return spectra.get(sub) or spectra.setdefault(sub, Spectrum(model, sub))


def levy_mean(sub: SubordinatorSpec) -> float:
    """First moment int s nu(ds) of the jump measure."""
    if sub.family == "none":
        return 0.0
    if sub.family == "ig":
        return sub.mu
    if sub.family == "gamma":
        return sub.c / sub.eta
    if sub.eta == 0.0:
        raise ValidationError(
            "stable limit eta = 0 has a divergent first moment; cannot normalize"
        )
    return sub.c * math.gamma(1.0 - sub.p) * sub.eta ** (sub.p - 1.0)


def mean_rate(sub: SubordinatorSpec) -> float:
    """Expected clock speed E[T_1] = gamma + int s nu(ds); 1 for the trivial clock."""
    if sub.family == "none":
        return 1.0
    return sub.drift + levy_mean(sub)


# ---------------------------------------------------------------------------
# Short-rate map of the time-changed model
# ---------------------------------------------------------------------------

# The terms a truncated series drops sum to at most _TAIL_TOL at every
# state it maps; the largest term it keeps, times the machine epsilon (the
# rounding its partial sums carry), must stay below _ROUNDING_TOL.
_TAIL_TOL = 1e-15
_ROUNDING_TOL = 1e-12
_FIRST_SUPPLY = 127
_MAX_SUPPLY = 16383

# Quote inversion: the bracket first reaches _BRACKET_WIDTH either side of
# the quote and doubles its reach at most _BRACKET_STEPS times; its grid of
# _BRACKET_GRID states spread evenly over it tabulates r_phi and its slope,
# and a quote closes in the cell whose tabulated rates enclose it.  Over the
# bench's 160 rate_sweep quotes, with the Hermite seed, 65 states take 1.79
# evaluations per quote, 129 take 1.14 and 257 take 1.00.
_BRACKET_WIDTH = 0.5
_BRACKET_STEPS = 8
_BRACKET_GRID = 257
_STATE_TOL = 1e-12  # the closed state's sign bracket, or twice its last step


def _jump_rate_coefficients(model: DiffusionModel, sub: SubordinatorSpec, n_max: int):
    """c_n = p_n (phi(lambda_n) - gamma lambda_n) for n = 0..n_max."""
    lam = model.eigenvalues(n_max)
    jump = laplace_exponent(sub, lam) - sub.drift * lam
    return model.unit_payoff_coefficients(n_max) * jump


def _resolved_series(model: DiffusionModel, sub: SubordinatorSpec, xs: np.ndarray):
    """(c_0..c_{N-1}, r_phi(xs)) with N the shortest length resolving every state.

    The supply doubles until its top quarter sums below ``_TAIL_TOL`` at
    every state; the coefficients are then cut where the remaining terms,
    each bounded by its largest magnitude over ``xs``, sum below it.
    """
    n_max = _FIRST_SUPPLY
    while True:
        coefficients = _jump_rate_coefficients(model, sub, n_max)
        with np.errstate(over="ignore", invalid="ignore"):
            terms = model.eigenfunction_matrix(n_max, xs) * coefficients
        envelope = np.max(np.abs(terms), axis=0)
        tail = np.cumsum(envelope[::-1])[::-1]  # tail[n] bounds the terms from n on
        if tail[3 * (n_max + 1) // 4] <= _TAIL_TOL:
            break
        if n_max >= _MAX_SUPPLY or not np.all(np.isfinite(envelope)):
            raise ValidationError(
                f"short-rate expansion not resolved by n={n_max} over states "
                f"[{xs.min():.6g}, {xs.max():.6g}]"
            )
        n_max = 2 * n_max + 1
    if not series.resolved(envelope, tol=_ROUNDING_TOL):  # bounds every state's terms
        raise ValidationError(
            f"short-rate expansion cancels to rounding noise over states "
            f"[{xs.min():.6g}, {xs.max():.6g}]"
        )
    n_used = max(int(np.argmax(tail <= _TAIL_TOL)), 1)
    return coefficients[:n_used], sub.drift * xs + terms[:, :n_used].sum(axis=1)


def short_rate_map(model: DiffusionModel, sub: SubordinatorSpec, x):
    """Short rate r_phi(x) of the time-changed model at a state or an array of states.

    States inside a bracket that ``invert_short_rate`` kept for the clock
    are read through that bracket's coefficients, one ``eigenfunction_matrix``
    product per bracket.  The other states share one coefficient vector
    resolved over them.  A scalar state returns a float, an array of states
    an array.
    """
    xs = real_array("states", x)
    for state in xs.flat:
        model.check_state(state)
    if sub.is_trivial or xs.size == 0:
        return float(xs) if xs.ndim == 0 else xs.copy()
    flat = xs.ravel()
    rates = np.empty(flat.size)
    left = np.ones(flat.size, dtype=bool)
    for states, coefficients, *_ in model._short_rate_brackets.get(sub, ()):
        inside = left & (states[0] <= flat) & (flat <= states[-1])
        if inside.any():
            matrix = model.eigenfunction_matrix(coefficients.size - 1, flat[inside])
            rates[inside] = sub.drift * flat[inside] + matrix @ coefficients
            left &= ~inside
    if left.any():
        rates[left] = _resolved_series(model, sub, flat[left])[1]
    return float(rates[0]) if xs.ndim == 0 else rates.reshape(xs.shape)


def _step_down(model: DiffusionModel, x: float, width: float) -> float:
    """x - width, stopped at a lower boundary that is a state.

    An excluded boundary (the 3/2 origin) is approached halfway per step.
    """
    lower = x - width
    if model.contains(lower):
        return lower
    if model.contains(model.state_lo):
        return model.state_lo
    return 0.5 * (x + model.state_lo)


def _walk_bracket(model: DiffusionModel, sub: SubordinatorSpec, rate: float):
    """(states, coefficients, rates) of the first grid whose series values
    enclose the quote, or of the last one tried when a lower boundary that
    is a state stops the walk below the quote.

    Near an excluded lower boundary (the 3/2 origin) the series may not
    resolve over a grid; its lower end then moves halfway back toward the
    quote, once, before the quote is refused."""
    width = _BRACKET_WIDTH
    lo, hi = _step_down(model, rate, width), rate + width
    retry = not model.contains(model.state_lo)
    for _ in range(_BRACKET_STEPS):
        xs = np.linspace(lo, hi, _BRACKET_GRID)
        try:
            coefficients, rates = _resolved_series(model, sub, xs)
        except ValidationError:
            if not retry:
                raise
            lo, retry = 0.5 * (lo + rate), False
            continue
        if rates[-1] < rate:
            hi += width
        elif rates[0] > rate and (lower := _step_down(model, lo, width)) < lo:
            lo = lower
        else:
            return xs, coefficients, rates
        width *= 2.0
    raise ValidationError(f"cannot bracket state for short rate {rate}")


def _gap(model: DiffusionModel, sub: SubordinatorSpec, coefficients: np.ndarray, rate: float):
    """state -> r_phi(state) - rate through the given coefficient vector."""
    n_max = coefficients.size - 1

    def gap(state: float) -> float:
        return sub.drift * state + float(model.eigenfunctions(n_max, state) @ coefficients) - rate

    return gap


# 12 h r'(x_0) and 12 h r'(x_1) from r(x_0) .. r(x_4), h the grid's step
_END_STENCIL = np.array([[-25.0, 48.0, -36.0, 16.0, -3.0], [-3.0, -10.0, 18.0, -6.0, 1.0]])


def _grid_slopes(xs: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """dr_phi/dx at the states of an evenly spaced grid: fourth-order central
    differences of the tabulated rates, one-sided five-point differences at
    the two states at each end."""
    step = (xs[-1] - xs[0]) / (xs.size - 1)
    slopes = np.empty_like(rates)
    slopes[2:-2] = rates[:-4] - 8.0 * rates[1:-3] + 8.0 * rates[3:-1] - rates[4:]
    slopes[:2] = _END_STENCIL @ rates[:5]
    slopes[-2:] = -_END_STENCIL[::-1, ::-1] @ rates[-5:]
    return slopes / (12.0 * step)


def _seed(lo: float, hi: float, r_lo: float, r_hi: float, s_lo: float, s_hi: float,
          rate: float) -> tuple[float, float]:
    """(x, dx/dr) at ``rate`` of the cell's cubic Hermite interpolant of the
    inverse x(r), with dx/dr = 1/slope at the cell's ends.

    The chord of the cell stands in for the seed where the interpolant's
    seed is not strictly inside the cell (or an end slope is not positive),
    and for its dx/dr where that is not within a factor 2 of the chord's.
    Within it, a first step that meets the stop rule lands within
    ``_STATE_TOL``/2 of the root; a dx/dr far too small would stop the
    loop after a step far too short."""
    width, rise = hi - lo, r_hi - r_lo
    chord = width / rise
    if s_lo > 0.0 and s_hi > 0.0:
        t = (rate - r_lo) / rise
        m_lo, m_hi = rise / width / s_lo, rise / width / s_hi  # the ends' dx/dr over the chord's
        x = lo + width * t * (t * (3.0 - 2.0 * t) + m_lo * (1.0 - t) ** 2 + m_hi * t * (t - 1.0))
        if lo < x < hi:
            ratio = (6.0 * t * (1.0 - t) + m_lo * (1.0 - t) * (1.0 - 3.0 * t)
                     + m_hi * t * (3.0 * t - 2.0))  # its dx/dr over the chord's
            return x, chord * ratio if 0.5 <= ratio <= 2.0 else chord
    return lo - (r_lo - rate) * chord, chord


def _close(model: DiffusionModel, sub: SubordinatorSpec, bracket, rate: float) -> float:
    """The state of ``rate`` in the cell of the bracket's grid whose
    tabulated rates enclose it.

    The seed is the cell's cubic Hermite interpolant of the inverse
    (``_seed``), at no evaluation.  The first step is Newton's, with the
    interpolant's dx/dr at the seed; each later step is the secant through
    the last two points.  A step that would leave the sign bracket bisects
    it instead.  The loop stops at a step of at most ``_STATE_TOL``/2 or a
    sign bracket at most ``_STATE_TOL`` wide, most often after the first
    evaluation.
    """
    xs, coefficients, rates, slopes = bracket
    cell = min(max(int(rates.searchsorted(rate)), 1), rates.size - 1)
    lo, hi = xs[cell - 1 : cell + 1].tolist()
    r_lo, r_hi = rates[cell - 1 : cell + 1].tolist()
    s_lo, s_hi = slopes[cell - 1 : cell + 1].tolist()
    x, dxdg = _seed(lo, hi, r_lo, r_hi, s_lo, s_hi, rate)
    gap = _gap(model, sub, coefficients, rate)
    x_prev = g_prev = None
    while True:
        g = gap(x)
        if g == 0.0:
            return x
        if g < 0.0:
            lo = x
        else:
            hi = x
        if x_prev is not None:
            dxdg = (x - x_prev) / (g - g_prev) if g != g_prev else math.inf
        step = -g * dxdg
        x_prev, g_prev, x = x, g, x + step
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        elif abs(step) <= 0.5 * _STATE_TOL:
            return x
        if hi - lo <= _STATE_TOL:
            return x


def invert_short_rate(
    model: DiffusionModel,
    sub: SubordinatorSpec,
    rate: float,
) -> float:
    """State x with r_phi(x) = rate; r_phi is strictly increasing in x.

    A quote closes inside a bracket: a grid of states whose series values,
    through one coefficient vector resolved over the grid, enclose it.  The
    closing step (``_close``) starts from the grid's tabulated rates and
    slopes and evaluates the series once in the common case.

    Brackets are kept on the model per clock (read-only), each with r_phi
    and its slope tabulated at its states once, when it is kept.  A quote
    inside a kept bracket's rates closes in it and resolves no series; any
    other quote walks a bracket of its own, widening it until its rates
    enclose the quote, and keeps it.  A quote below r_phi at a lower
    boundary that is a state has no state and is refused with
    ``BracketError``; a refused quote keeps nothing.
    """
    check_real("short rate", rate)
    rate = float(rate)
    if not math.isfinite(rate):
        raise ValidationError(f"short rate must be finite, got {rate}")
    if sub.is_trivial:
        return rate
    brackets = model._short_rate_brackets.get(sub, ())
    bracket = next((b for b in brackets if b[2].item(0) <= rate <= b[2].item(-1)), None)
    if bracket is None:
        xs, coefficients, rates = _walk_bracket(model, sub, rate)
        if rates[0] > rate:
            raise BracketError(
                f"short rate {rate} lies below r_phi = {rates[0]:.6g} at the lower "
                f"boundary state {xs[0]:.6g}; no state has it"
            )
        bracket = (xs, coefficients, rates, _grid_slopes(xs, rates))
        for array in bracket:
            array.flags.writeable = False
        model._short_rate_brackets.setdefault(sub, []).append(bracket)
    return _close(model, sub, bracket, rate)
