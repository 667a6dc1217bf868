"""Short-rate diffusion models and their spectral data.

Three mean-reverting diffusions drive the short rate r_t = r(X_t) = X_t:

* square-root (CIR): dX = kappa (theta - X) dt + sigma sqrt(X) dW on [0, inf)
* Ornstein-Uhlenbeck (Vasicek): dX = kappa (theta - X) dt + sigma dW on R
* 3/2: dX = kappa (theta - X) X dt + sigma X^{3/2} dW on (0, inf)

For each model the pricing semigroup has a purely discrete spectrum with an
affine eigenvalue ladder; the eigenfunctions are weighted Laguerre or
Hermite polynomials, orthonormal in L2 against the speed density m(x).
This module provides eigenvalues, normalized eigenfunctions, unit-payoff
projection coefficients p_n = (1, phi_n), speed densities, stationary
distributions, and the exponential-affine closed-form zero-coupon bonds
where they exist (CIR and Vasicek).

Every eigenfunction is a prefactor times a normalized polynomial in a mapped
coordinate, so each model supplies three things: its coordinate map
(``poly_coordinate``), its prefactor, and the coefficients of its normalized
three-term recurrence (the norm constant folded into the recursion, which
keeps every intermediate O(1) and finite at degrees where the raw polynomial
and the norm constant would separately overflow or underflow).  Laguerre and
Hermite polynomials satisfy one step,
N_n P_n = (a_n + (s - z) b_n) N_{n-1} P_{n-1} - c_n N_{n-2} P_{n-2}, and
CIR and 3/2 name the Laguerre coefficients of their ``laguerre_order``,
Vasicek the Hermite ones, each starting from N_0 =
exp(``log_norm_constants(0)``).  Three loops step it.
The kernel (``_kernel``) returns every degree at once, one row per degree,
for a float abscissa and an array alike; ``eigenfunctions`` (one state) and
``eigenfunction_matrix`` (an array of states) multiply the model's
``_prefactor`` (numpy ``exp``/``power`` for a float and an array alike) into
it at ``poly_coordinate(x)``, so they agree to the last bit.  ``series_sum``
evaluates a weighted series at one state: its loop steps the recurrence and
its x-derivative (the chain rule through ``coordinate_slope`` and
``prefactor_log_slope``), sums the value and the slope and applies the
truncation rule of ``series`` inline, so it takes only the steps the rule
reads and builds no term array.  ``series_pair`` sums two weighted series
at one state in one such pass, each under its own eps and its own stop
rule, and each result is bit for bit what ``series_sum`` returns alone: the
pricer reads a continuation with its notice bond, and an issue value with
its protected coupons, that way on the jump clocks and on the 3/2 model.
The rule thus has three bodies, these loops and ``series.truncate_terms``;
``tests/test_series.py::test_series_sum_and_truncate_terms_agree_bit_for_bit``
and ``test_series_pair_and_two_series_sums_agree_bit_for_bit`` pin them
against each other.  The Laguerre overlap block
(``coeffs.overlap_below``) takes ``_kernel``'s rows of the order one above
the model's (``_raised_recurrence``) at the coordinate of one state.

The coefficient lists are built on first use, cached on the model and grown
on demand; the derived constants (``gamma``, ``b``, ``order_m``,
``hermite_shift``, ...) are cached too, and so is the subordinate spectrum
of each clock (``_spectra``, see ``subordinators.Spectrum``), built whole to
``POOL_CAP`` on first use; the spectrum also keeps the clock's short-rate map.
Every norm constant is formed in log space, so parameter sets whose raw
factors overflow separately still evaluate.

The pricer and the integral tables (``coeffs``) run the same code for every
model; what differs between the diffusions is read from these facts:

* ``affine``: whether ``affine_bond_factors`` (and so ``closed_form_bond``)
  exist, which the break-even search takes for its notice-period bond on
  the plain clock, and whether a call region may cover the whole search
  interval;
* ``search_interval(n_supply)``: the states a break-even search over
  series of ``n_supply`` terms may probe and the first upper end of its
  walk when no earlier state starts it;
* ``resolved_floor(weights, eps, n_supply)``: the lowest state of that
  interval where the series of ``weights`` resolves to eps
  (``series.resolved``): ``state_lo`` on CIR and Vasicek, read from the
  series near the 3/2 origin, where the coordinate beta / x is huge;
* ``polynomial_family`` ("laguerre" or "hermite") and
  ``coordinate_reversed`` (whether ``poly_coordinate`` decreases in the
  state), which ``coeffs.overlap_below`` alone reads, to pick the rows of
  its one closed form and to take the overlap over the states below x;
* ``coordinate_slope(x)`` and ``prefactor_log_slope(x)``: d
  ``poly_coordinate``/dx and d log(prefactor)/dx, which turn the
  recurrence's slope in the coordinate into the series' slope in the
  state, read by the break-even search's Newton steps.

``import eigenbond`` and every pricing entry point load numpy and the
standard library, no scipy module: the log-gammas of the norm constants
and payoff coefficients are ``math.lgamma`` per entry (``_lgamma``), once
per spectrum.  ``scipy.stats`` loads when a ``stationary_distribution`` is
first called, which imports it in its body: only the oracle's quadrature
grid reads the law.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    UnsupportedModelError,
    ValidationError,
    check_integer,
    check_real,
    real_array,
)
from .series import MIN_LEVEL, resolved

__all__ = [
    "DiffusionModel",
    "CIRModel",
    "VasicekModel",
    "ThreeHalvesModel",
    "make_model",
    "MODEL_KINDS",
]

# The one depth limit: every subordinate spectrum (``subordinators.Spectrum``)
# holds degrees 0..POOL_CAP, and the recurrence coefficient lists double up to it.
POOL_CAP = 2000
_BRACKET_CAP = 50.0  # upper search bound of the positive models, as a multiple of theta
_FLOOR_STATES = 24  # geometric grid over which the 3/2 search floor is read


_Coefficients = Callable[[int], tuple[float, float, float]]


def _lgamma(values: np.ndarray) -> np.ndarray:
    """log Gamma of each entry by ``math.lgamma``: at most ``POOL_CAP`` + 1
    entries, once per spectrum."""
    return np.array([math.lgamma(v) for v in values.tolist()])


class _Recurrence:
    """Normalized three-term recurrence of one model: for n >= 1,
    N_n P_n(z) = (a_n + (s - z) b_n) N_{n-1} P_{n-1}(z) - c_n N_{n-2} P_{n-2}(z),
    from N_0 P_0 = ``n0`` (and zero below degree 0).

    ``shift`` is s and ``coefficients(n)`` returns (a_n, b_n, c_n).  The
    per-degree lists are filled on first use and grown on demand, doubling
    up to ``POOL_CAP``.  Grown lists are new lists, stored in one assignment
    and returned as built, so a caller never sees lists shorter than it
    asked for even when threads share a model.
    """

    def __init__(self, n0: float, shift: float, coefficients: _Coefficients):
        self.n0 = n0
        self.shift = shift
        self._coefficients = coefficients
        self._lists: tuple[list, ...] = ([0.0], [0.0], [0.0])  # degree 0 takes no step

    def upto(self, n_max: int) -> tuple[list, ...]:
        """The lists a, b, c, to degree n_max at least."""
        lists = self._lists
        have = len(lists[0])
        if have <= n_max:
            size = max(n_max + 1, min(2 * have, POOL_CAP + 1))
            more = zip(*(self._coefficients(n) for n in range(have, size)))
            lists = tuple(old + list(new) for old, new in zip(lists, more))
            self._lists = lists
        return lists


def _kernel(rec: _Recurrence, n_max: int, z, seed=1.0, out=None) -> np.ndarray:
    """seed N_n P_n(z) for n = 0..n_max, rows over z when z is an array,
    written into ``out`` when it is given.

    The recurrence is linear, so the factor ``seed`` (a float, or an array
    like z) taken into degree 0 scales every degree: a factor that is tiny
    where the polynomials are huge keeps each row in double range.
    """
    a, b, c = rec.upto(n_max)
    gap = rec.shift - z
    rows = np.empty((n_max + 1,) + np.shape(z)) if out is None else out
    prev, cur = 0.0, rec.n0 * seed
    rows[0] = cur
    for n in range(1, n_max + 1):
        prev, cur = cur, (a[n] + gap * b[n]) * cur - c[n] * prev
        rows[n] = cur
    return rows


def _laguerre_coefficients(alpha: float) -> tuple[float, _Coefficients]:
    """(s, coefficients) of N_n L_n^(alpha): s = alpha - 1, a_n = 2 r1_n,
    b_n = r1_n / n and c_n = (1 + (alpha - 1)/n) r2_n, with
    r1_n = sqrt(n / (alpha + n)), r2_n = sqrt(n (n-1) / ((alpha + n)(alpha + n - 1)))."""

    def coefficients(n: int) -> tuple[float, float, float]:
        r1 = math.sqrt(n / (alpha + n))
        r2 = math.sqrt(n * (n - 1.0) / ((alpha + n) * (alpha + n - 1.0)))
        return 2.0 * r1, r1 / n, (1.0 + (alpha - 1.0) / n) * r2

    return alpha - 1.0, coefficients


def _hermite_coefficients(n: int) -> tuple[float, float, float]:
    """N_n H_n with s = 0: a_n = 0, b_n = -sqrt(2/n), c_n = sqrt((n-1)/n)."""
    return 0.0, -math.sqrt(2.0 / n), math.sqrt((n - 1.0) / n)


# The orthonormal Hermite functions H_n(z) e^{-z^2/2} / sqrt(sqrt(pi) 2^n n!),
# once the kernel is seeded with e^{-z^2/2}: the Vasicek recurrence with the
# norm constant of the weight e^{-z^2} in place of the model's.
HERMITE_FUNCTIONS = _Recurrence(math.pi**-0.25, 0.0, _hermite_coefficients)


@dataclass(frozen=True)
class DiffusionModel:
    """Base for the three short-rate diffusions; holds kappa, theta, sigma."""

    kappa: float
    theta: float
    sigma: float

    kind = "base"
    affine = False
    coordinate_reversed = False

    def __post_init__(self):
        for name in ("kappa", "theta", "sigma"):
            value = getattr(self, name)
            check_real(name, value)
            if not (math.isfinite(value) and value > 0.0):
                raise ValidationError(f"{name} must be finite and > 0, got {value}")

    # --- state space -----------------------------------------------------

    @property
    def state_lo(self) -> float:
        raise NotImplementedError

    @property
    def state_hi(self) -> float:
        raise NotImplementedError

    def contains(self, x: float) -> bool:
        return self.state_lo <= x <= self.state_hi

    def check_state(self, x: float) -> None:
        """Raise ValidationError unless x is finite and inside the state space."""
        if not (math.isfinite(x) and self.contains(x)):
            raise ValidationError(
                f"state {x} outside the {self.kind} state space "
                f"[{self.state_lo}, {self.state_hi}] or not finite"
            )

    def search_interval(self, n_supply: int) -> tuple[float, float, float]:
        """(lo, start, hi): the break-even search probes [lo, hi], where series
        of ``n_supply`` terms resolve; a walk without a hint first ends at start."""
        raise NotImplementedError

    def resolved_floor(self, weights, eps: float, n_supply: int) -> float:
        """The lowest state, at or above ``search_interval(n_supply)``'s lo,
        from which sum_n weights_n phi_n(x) resolves to eps; ``state_lo``,
        reading nothing, where no series cancels to rounding noise."""
        return self.state_lo

    def resolves(self, weights, eps: float, x):
        """Whether sum_n weights_n phi_n(x) resolves to eps (``series.resolved``)
        at a state, or at each of an array of states."""
        w = np.asarray(weights, dtype=float).reshape((-1,) + (1,) * np.ndim(x))
        with np.errstate(over="ignore", invalid="ignore"):
            terms = self._eigenfunction_rows(w.shape[0] - 1, x) * w
        return resolved(terms, eps)

    def check_recursion(self) -> None:
        """Raise ValidationError where the backward recursion misses eps."""

    # --- spectral data ----------------------------------------------------

    def eigenvalue(self, n) -> float | np.ndarray:
        """n-th eigenvalue of the negated pricing generator (affine in n)."""
        raise NotImplementedError

    def eigenvalues(self, n_max: int) -> np.ndarray:
        check_integer("degree n_max", n_max)
        return self.eigenvalue(np.arange(n_max + 1))

    def log_norm_constants(self, n_max: int) -> np.ndarray:
        """log N_n for n = 0..n_max (N_n > 0 for all three models)."""
        raise NotImplementedError

    def unit_payoff_coefficients(self, n_max: int) -> np.ndarray:
        """Projections p_n = (1, phi_n) of the unit payoff for n = 0..n_max."""
        raise NotImplementedError

    def poly_coordinate(self, x) -> float | np.ndarray:
        """Abscissa of the model's polynomial family at a state or states."""
        raise NotImplementedError

    def _prefactor(self, x) -> float | np.ndarray:
        """Factor of phi_n(x) besides the normalized polynomial (numpy, so a
        float and an array of states round alike)."""
        raise NotImplementedError

    def coordinate_slope(self, x: float) -> float:
        """d poly_coordinate / dx at the state x."""
        raise NotImplementedError

    def prefactor_log_slope(self, x: float) -> float:
        """d log(prefactor) / dx at the state x."""
        raise NotImplementedError

    def eigenfunctions(self, n_max: int, x: float) -> np.ndarray:
        """phi_0(x) .. phi_{n_max}(x), orthonormal against m(x) dx."""
        check_integer("degree n_max", n_max)
        check_real("state", x)
        self.check_state(x)
        return self._eigenfunction_rows(n_max, float(x))

    def eigenfunction_matrix(self, n_max: int, xs: np.ndarray) -> np.ndarray:
        """Matrix [j, n] = phi_n(xs[j]); vectorized over the abscissas."""
        check_integer("degree n_max", n_max)
        xs = real_array("states", xs)
        for x in xs.flat:
            self.check_state(x)
        return self._eigenfunction_rows(n_max, xs).T

    def series_sum(
        self, weights: list[float], x: float, eps: float
    ) -> tuple[float, float, int, bool]:
        """(value, slope, level, converged) of sum_n weights_n phi_n(x) cut
        by the rule of ``series``: one loop steps the recurrence, sums the
        terms left to right and applies the rule, reading weights only up to
        level + 2.  The terms are bit for bit weights_n times
        ``eigenfunctions``, and value, level and converged those of
        ``series.truncate_terms`` on them.  The slope is
        sum_{n<=level} weights_n phi_n'(x), from the same step differentiated
        in x: D_n = (a_n + (s - z) b_n) D_{n-1} - b_n dz N_{n-1} P_{n-1}
        - c_n D_{n-2}, with dz = seed dz/dx and D_0 = N_0 d seed/dx (the
        chain rule through ``coordinate_slope`` and ``prefactor_log_slope``).
        When the rule does not fire inside the weights, level is the last
        index and every term is summed."""
        n_max = len(weights) - 1
        check_integer("degree n_max", n_max)
        self.check_state(x)
        x = float(x)
        rec = self._recurrence
        a, b, c = rec.upto(n_max)
        seed = float(self._prefactor(x))
        gap = rec.shift - self.poly_coordinate(x)
        dz = seed * self.coordinate_slope(x)
        prev, cur = 0.0, rec.n0
        dprev, dcur = 0.0, rec.n0 * (seed * self.prefactor_log_slope(x))
        # after degree n: the sums to degree n - 2 and the terms n - 1, n
        weight = weights[0]
        total, ahead1, ahead2 = 0.0, 0.0, weight * (seed * cur)
        dtotal, dahead1, dahead2 = 0.0, 0.0, weight * dcur
        first = MIN_LEVEL + 2
        for n in range(1, n_max + 1):
            bn, cn = b[n], c[n]
            step = a[n] + gap * bn
            dprev, dcur = dcur, step * dcur - bn * dz * cur - cn * dprev
            prev, cur = cur, step * cur - cn * prev
            weight = weights[n]
            total += ahead1
            dtotal += dahead1
            ahead1, ahead2 = ahead2, weight * (seed * cur)
            dahead1, dahead2 = dahead2, weight * dcur
            if n >= first:  # the rule at level n - 2
                bound = eps * abs(total)
                if abs(ahead1) <= bound and abs(ahead1 + ahead2) <= bound:
                    return total, dtotal, n - 2, True
        return total + ahead1 + ahead2, dtotal + dahead1 + dahead2, n_max, False

    def series_pair(
        self, weights: list[float], eps: float, other: list[float], other_eps: float, x: float
    ) -> tuple[tuple[float, float, int, bool], tuple[float, float, int, bool]]:
        """``series_sum(weights, x, eps)`` and ``series_sum(other, x,
        other_eps)`` from one pass over the recurrence and its slope, each
        bit for bit what ``series_sum`` returns alone and each list read up
        to its own level + 2.  While both rules are open, one loop forms
        phi_n = seed N_n P_n once per degree and each term as weight * phi_n,
        ``series_sum``'s association; once one series stops (its rule fires
        or its weights run out), the other goes on alone."""
        n_one, n_two = len(weights) - 1, len(other) - 1
        check_integer("degree n_max", n_one)
        check_integer("degree n_max", n_two)
        self.check_state(x)
        x = float(x)
        rec = self._recurrence
        a, b, c = rec.upto(max(n_one, n_two))
        seed = float(self._prefactor(x))
        gap = rec.shift - self.poly_coordinate(x)
        dz = seed * self.coordinate_slope(x)
        prev, cur = 0.0, rec.n0
        dprev, dcur = 0.0, rec.n0 * (seed * self.prefactor_log_slope(x))
        # after degree n: each series' sums to degree n - 2 and its terms n - 1, n
        phi, weight, weight2 = seed * cur, weights[0], other[0]
        total, ahead1, ahead2 = 0.0, 0.0, weight * phi
        dtotal, dahead1, dahead2 = 0.0, 0.0, weight * dcur
        total2, ahead21, ahead22 = 0.0, 0.0, weight2 * phi
        dtotal2, dahead21, dahead22 = 0.0, 0.0, weight2 * dcur
        first = MIN_LEVEL + 2
        one = two = None
        n = 0
        for n in range(1, min(n_one, n_two) + 1):
            bn, cn = b[n], c[n]
            step = a[n] + gap * bn
            dprev, dcur = dcur, step * dcur - bn * dz * cur - cn * dprev
            prev, cur = cur, step * cur - cn * prev
            phi, weight, weight2 = seed * cur, weights[n], other[n]
            total += ahead1
            dtotal += dahead1
            ahead1, ahead2 = ahead2, weight * phi
            dahead1, dahead2 = dahead2, weight * dcur
            total2 += ahead21
            dtotal2 += dahead21
            ahead21, ahead22 = ahead22, weight2 * phi
            dahead21, dahead22 = dahead22, weight2 * dcur
            if n >= first:  # the rules at level n - 2
                bound = eps * abs(total)
                if abs(ahead1) <= bound and abs(ahead1 + ahead2) <= bound:
                    one = total, dtotal, n - 2, True
                bound = other_eps * abs(total2)
                if abs(ahead21) <= bound and abs(ahead21 + ahead22) <= bound:
                    two = total2, dtotal2, n - 2, True
                if one or two:
                    break
        if one is None and n == n_one:
            one = total + ahead1 + ahead2, dtotal + dahead1 + dahead2, n_one, False
        if two is None and n == n_two:
            two = total2 + ahead21 + ahead22, dtotal2 + dahead21 + dahead22, n_two, False
        if one and two:
            return one, two
        # the open series goes on alone, in series_sum's loop
        if two is None:
            weights, eps, n_max = other, other_eps, n_two
            total, ahead1, ahead2 = total2, ahead21, ahead22
            dtotal, dahead1, dahead2 = dtotal2, dahead21, dahead22
        else:
            n_max = n_one
        for n in range(n + 1, n_max + 1):
            bn, cn = b[n], c[n]
            step = a[n] + gap * bn
            dprev, dcur = dcur, step * dcur - bn * dz * cur - cn * dprev
            prev, cur = cur, step * cur - cn * prev
            weight = weights[n]
            total += ahead1
            dtotal += dahead1
            ahead1, ahead2 = ahead2, weight * (seed * cur)
            dahead1, dahead2 = dahead2, weight * dcur
            if n >= first:  # the rule at level n - 2
                bound = eps * abs(total)
                if abs(ahead1) <= bound and abs(ahead1 + ahead2) <= bound:
                    rest = total, dtotal, n - 2, True
                    break
        else:
            rest = total + ahead1 + ahead2, dtotal + dahead1 + dahead2, n_max, False
        return (one, rest) if two is None else (rest, two)

    def _eigenfunction_rows(self, n_max: int, x) -> np.ndarray:
        """Rows [n] = phi_n(x): one code path for a state and for an array of
        states, so both evaluators agree to the last bit."""
        return self._prefactor(x) * _kernel(self._recurrence, n_max, self.poly_coordinate(x))

    def _recurrence_coefficients(self) -> tuple[float, _Coefficients]:
        """(s, coefficients) of the model's normalized recurrence (see
        ``_Recurrence``): the Laguerre family of order ``laguerre_order``
        unless the model names its own."""
        return _laguerre_coefficients(self.laguerre_order)

    @cached_property
    def _recurrence(self) -> _Recurrence:
        n0 = math.exp(self.log_norm_constants(0)[0])
        return _Recurrence(n0, *self._recurrence_coefficients())

    @cached_property
    def _raised_recurrence(self) -> _Recurrence:
        """The normalized Laguerre recurrence of order ``laguerre_order`` + 1
        from N_0 P_0 = 1, whose rows the Laguerre overlap block
        (``coeffs.overlap_below``) is built from."""
        return _Recurrence(1.0, *_laguerre_coefficients(self.laguerre_order + 1.0))

    @cached_property
    def _raised_roots(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """sqrt(n), sqrt(n + alpha + 1) and sqrt(n + alpha) for n = 0..POOL_CAP + 1
        (alpha the ``laguerre_order``): the per-degree factors of the same
        rows, for every degree they are built to."""
        n = np.arange(POOL_CAP + 2, dtype=float)
        alpha = self.laguerre_order
        with np.errstate(invalid="ignore"):  # sqrt(alpha < 0) at n = 0, never read
            return np.sqrt(n), np.sqrt(n + alpha + 1.0), np.sqrt(n + alpha)

    # --- the per-clock cache, filled by another module ---------------------

    @cached_property
    def _spectra(self) -> dict[object, object]:
        """The subordinate spectrum (``subordinators.Spectrum``) by clock;
        filled on demand by ``subordinators.spectrum``."""
        return {}

    # --- densities and bonds ----------------------------------------------

    def speed_density(self, x: float):
        """Speed density m(x); the stationary density up to normalization."""
        raise NotImplementedError

    def log_speed_mass(self) -> float:
        """log of the (finite) mass M of m, which can leave double range."""
        raise NotImplementedError

    def speed_mass(self) -> float:
        return math.exp(self.log_speed_mass())

    def stationary_distribution(self):
        """Normalized stationary law as a frozen scipy.stats distribution."""
        raise NotImplementedError

    def affine_bond_factors(self, t: float) -> tuple[float, float]:
        raise UnsupportedModelError(
            f"no affine closed-form zero-coupon bond for the {self.kind} model"
        )

    def closed_form_bond(self, t: float, x) -> float | np.ndarray:
        """Exponential-affine zero-coupon bond A(t) e^{-B(t) x} (affine models)."""
        if not (t >= 0.0 and math.isfinite(t)):
            raise ValidationError(f"maturity must be >= 0 and finite, got {t}")
        a_fac, b_fac = self.affine_bond_factors(t)
        return a_fac * np.exp(-b_fac * np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CIRModel(DiffusionModel):
    """Square-root diffusion; eigenfunctions are weighted Laguerre polynomials."""

    kind = "cir"
    state_lo, state_hi = 0.0, math.inf
    affine = True
    polynomial_family = "laguerre"

    @cached_property
    def gamma(self) -> float:
        """sqrt(kappa^2 + 2 sigma^2); the eigenvalue gap."""
        return math.sqrt(self.kappa**2 + 2.0 * self.sigma**2)

    @cached_property
    def b(self) -> float:
        """2 kappa theta / sigma^2; Feller boundary parameter."""
        return 2.0 * self.kappa * self.theta / self.sigma**2

    def search_interval(self, n_supply: int) -> tuple[float, float, float]:
        # the origin is an admissible boundary and poses no resolution problem
        return 0.0, self.theta, self.theta * _BRACKET_CAP

    @property
    def laguerre_order(self) -> float:
        return self.b - 1.0

    def poly_coordinate(self, x) -> float | np.ndarray:
        """Map state to the Laguerre abscissa u = 2 gamma x / sigma^2."""
        return 2.0 * self.gamma * x / self.sigma**2

    def eigenvalue(self, n):
        return self.gamma * np.asarray(n) + 0.5 * self.b * (self.gamma - self.kappa)

    def log_norm_constants(self, n_max: int) -> np.ndarray:
        n = np.arange(n_max + 1)
        s2 = self.sigma**2
        return 0.5 * (
            math.log(s2) + _lgamma(n + 1.0) - math.log(2.0) - _lgamma(self.b + n)
        ) + 0.5 * self.b * math.log(2.0 * self.gamma / s2)

    def unit_payoff_coefficients(self, n_max: int) -> np.ndarray:
        n = np.arange(n_max + 1)
        g, b, s2 = self.gamma, self.b, self.sigma**2
        log_p = (
            math.log(2.0 / s2)
            + self.log_norm_constants(n_max)
            + _lgamma(b + n)
            - _lgamma(n + 1.0)
            + b * math.log(s2 / (g + self.kappa))
            + n * math.log((g - self.kappa) / (g + self.kappa))
        )
        # (kappa - gamma) < 0 always, so the sign alternates with n.
        return np.where(n % 2 == 0, 1.0, -1.0) * np.exp(log_p)

    def _prefactor(self, x):
        return np.exp((self.kappa - self.gamma) * x / self.sigma**2)

    def coordinate_slope(self, x: float) -> float:
        return 2.0 * self.gamma / self.sigma**2

    def prefactor_log_slope(self, x: float) -> float:
        return (self.kappa - self.gamma) / self.sigma**2

    # named in the class body, where bench/tracer.py wraps them per class
    eigenfunctions = DiffusionModel.eigenfunctions
    eigenfunction_matrix = DiffusionModel.eigenfunction_matrix

    def speed_density(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < 0.0):
            raise ValidationError("CIR speed density requires x >= 0")
        s2 = self.sigma**2
        return (2.0 / s2) * x ** (self.b - 1.0) * np.exp(-2.0 * self.kappa * x / s2)

    def log_speed_mass(self) -> float:
        s2 = self.sigma**2
        return math.log(2.0 / s2) + math.lgamma(self.b) + self.b * math.log(s2 / (2.0 * self.kappa))

    def stationary_distribution(self):
        from scipy import stats

        return stats.gamma(self.b, scale=self.sigma**2 / (2.0 * self.kappa))

    def affine_bond_factors(self, t: float) -> tuple[float, float]:
        g, k, b = self.gamma, self.kappa, self.b
        egt = math.expm1(g * t)  # e^{gt} - 1
        denom = (g + k) * egt + 2.0 * g
        a_fac = (2.0 * g * math.exp(0.5 * (k + g) * t) / denom) ** b
        b_fac = 2.0 * egt / denom
        return a_fac, b_fac


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VasicekModel(DiffusionModel):
    """Ornstein-Uhlenbeck short rate; eigenfunctions are weighted Hermite polynomials."""

    kind = "vasicek"
    state_lo, state_hi = -math.inf, math.inf
    affine = True
    polynomial_family = "hermite"
    search_sigmas = 4.0  # half-width of the search band in stationary standard deviations

    @cached_property
    def hermite_shift(self) -> float:
        """a = sigma / kappa^{3/2}; offset of the Hermite argument."""
        return self.sigma / self.kappa**1.5

    def check_recursion(self) -> None:
        # past a = 10 the carried coefficient cut misses eps by orders of
        # magnitude (a = 14.1 by 1.9e-4 on the Swiss callable at eps 1e-7)
        if self.hermite_shift > 10.0:
            raise ValidationError(
                f"{self!r}: Hermite shift a = {self.hermite_shift:.4g} exceeds 10, where "
                "the carried coefficient cut of the backward recursion falls short of eps"
            )

    def search_interval(self, n_supply: int) -> tuple[float, float, float]:
        # a symmetric band around theta, whose mapped coordinates the series resolve
        half = self.search_sigmas * self.sigma / math.sqrt(2.0 * self.kappa)
        return self.theta - half, self.theta + half, self.theta + half

    def xi(self, x) -> float | np.ndarray:
        return math.sqrt(self.kappa) / self.sigma * (x - self.theta)

    def poly_coordinate(self, x) -> float | np.ndarray:
        """Map state to the Hermite abscissa w = xi(x) + a."""
        return self.xi(x) + self.hermite_shift

    def eigenvalue(self, n):
        return self.theta - self.sigma**2 / (2.0 * self.kappa**2) + self.kappa * np.asarray(n)

    def log_norm_constants(self, n_max: int) -> np.ndarray:
        n = np.arange(n_max + 1)
        return 0.5 * (
            0.5 * math.log(self.kappa / math.pi)
            + math.log(self.sigma)
            - (n + 1.0) * math.log(2.0)
            - _lgamma(n + 1.0)
        )

    def unit_payoff_coefficients(self, n_max: int) -> np.ndarray:
        n = np.arange(n_max + 1)
        a = self.hermite_shift
        log_p = (
            math.log(2.0 / self.sigma)
            + 0.5 * math.log(math.pi / self.kappa)
            + self.log_norm_constants(n_max)
            + n * math.log(a)
            - 0.25 * a * a
        )
        return np.exp(log_p)

    def _recurrence_coefficients(self) -> tuple[float, _Coefficients]:
        return 0.0, _hermite_coefficients

    def _prefactor(self, x):
        a = self.hermite_shift
        return np.exp(-a * self.xi(x) - 0.5 * a * a)

    def coordinate_slope(self, x: float) -> float:
        return math.sqrt(self.kappa) / self.sigma

    def prefactor_log_slope(self, x: float) -> float:
        return -self.hermite_shift * math.sqrt(self.kappa) / self.sigma

    # named in the class body, where bench/tracer.py wraps them per class
    eigenfunctions = DiffusionModel.eigenfunctions
    eigenfunction_matrix = DiffusionModel.eigenfunction_matrix

    def speed_density(self, x):
        x = np.asarray(x, dtype=float)
        s2 = self.sigma**2
        return (2.0 / s2) * np.exp(-self.kappa * (self.theta - x) ** 2 / s2)

    def log_speed_mass(self) -> float:
        return math.log(2.0 / self.sigma) + 0.5 * math.log(math.pi / self.kappa)

    def stationary_distribution(self):
        from scipy import stats

        return stats.norm(self.theta, self.sigma / math.sqrt(2.0 * self.kappa))

    def affine_bond_factors(self, t: float) -> tuple[float, float]:
        k, s2 = self.kappa, self.sigma**2
        b_fac = -math.expm1(-k * t) / k  # (1 - e^{-kt}) / k
        a_fac = math.exp(
            (b_fac - t) * (k * k * self.theta - 0.5 * s2) / (k * k)
            - s2 * b_fac * b_fac / (4.0 * k)
        )
        return a_fac, b_fac


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThreeHalvesModel(DiffusionModel):
    """3/2 diffusion; Laguerre eigenfunctions in the reciprocal coordinate beta/x."""

    kind = "three_halves"
    state_lo, state_hi = 0.0, math.inf  # the origin is a boundary, not a state
    polynomial_family = "laguerre"
    coordinate_reversed = True

    @cached_property
    def alpha(self) -> float:
        """kappa / sigma^2 + 1; exponent parameter of the speed density."""
        return self.kappa / self.sigma**2 + 1.0

    @cached_property
    def beta(self) -> float:
        """2 kappa theta / sigma^2; scale of the reciprocal coordinate."""
        return 2.0 * self.kappa * self.theta / self.sigma**2

    @cached_property
    def order_m(self) -> float:
        """sqrt((kappa/sigma^2 + 1/2)^2 + 2/sigma^2); half the Laguerre order."""
        return math.sqrt((self.kappa / self.sigma**2 + 0.5) ** 2 + 2.0 / self.sigma**2)

    def contains(self, x: float) -> bool:
        return self.state_lo < x <= self.state_hi

    def search_interval(self, n_supply: int) -> tuple[float, float, float]:
        # the left end maps to a huge Laguerre abscissa: pull it in to keep the
        # coordinate inside the oscillatory range of the available degrees
        v_max = 4.0 * max(n_supply, 16) + 2.0 * self.laguerre_order + 2.0
        return self.beta / v_max, self.theta, self.theta * _BRACKET_CAP

    def resolved_floor(self, weights, eps: float, n_supply: int) -> float:
        """The lowest of ``_FLOOR_STATES`` geometric states in [lo, theta] (lo
        ``search_interval(n_supply)``'s) from which on the series of ``weights``
        resolves to eps: near the origin the coordinate beta / x is huge and
        the terms grow by orders of magnitude and cancel to noise."""
        xs = np.geomspace(self.search_interval(n_supply)[0], self.theta, _FLOOR_STATES)
        noise = np.flatnonzero(~self.resolves(weights, eps, xs))
        return float(xs[min(noise[-1] + 1, xs.size - 1) if noise.size else 0])

    @property
    def laguerre_order(self) -> float:
        return 2.0 * self.order_m

    def poly_coordinate(self, x) -> float | np.ndarray:
        """Map state to the Laguerre abscissa v = beta / x (orientation reversed)."""
        return self.beta / x

    def eigenvalue(self, n):
        gap = self.kappa * self.theta
        return gap * (np.asarray(n) + self.order_m - self.alpha + 0.5)

    def log_norm_constants(self, n_max: int) -> np.ndarray:
        n = np.arange(n_max + 1)
        two_m = 2.0 * self.order_m
        return 0.5 * (
            math.log(self.sigma**2)
            + (two_m + 1.0) * math.log(self.beta)
            + _lgamma(n + 1.0)
            - math.log(2.0)
            - _lgamma(two_m + n + 1.0)
        )

    def unit_payoff_coefficients(self, n_max: int) -> np.ndarray:
        n = np.arange(n_max + 1)
        m, al = self.order_m, self.alpha
        log_p = (
            math.log(2.0 / self.sigma**2)
            + self.log_norm_constants(n_max)
            - (al + m + 0.5) * math.log(self.beta)
            + math.lgamma(al + m + 0.5)
            + _lgamma(m + n - al + 0.5)
            - _lgamma(n + 1.0)
            - math.lgamma(m - al + 0.5)
        )
        return np.exp(log_p)

    def _prefactor(self, x):
        return np.power(x, self.alpha - self.order_m - 0.5)

    def coordinate_slope(self, x: float) -> float:
        return -self.beta / (x * x)

    def prefactor_log_slope(self, x: float) -> float:
        return (self.alpha - self.order_m - 0.5) / x

    # named in the class body, where bench/tracer.py wraps them per class
    eigenfunctions = DiffusionModel.eigenfunctions
    eigenfunction_matrix = DiffusionModel.eigenfunction_matrix

    def speed_density(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0.0):
            raise ValidationError("3/2 speed density requires x > 0")
        s2 = self.sigma**2
        return (2.0 / s2) * x ** (-2.0 * self.alpha - 1.0) * np.exp(-self.beta / x)

    def log_speed_mass(self) -> float:
        # substitute v = beta/x: (2/sigma^2) beta^{-2 alpha} Gamma(2 alpha)
        two_a = 2.0 * self.alpha
        return math.log(2.0 / self.sigma**2) + math.lgamma(two_a) - two_a * math.log(self.beta)

    def stationary_distribution(self):
        from scipy import stats

        return stats.invgamma(2.0 * self.alpha, scale=self.beta)


# ---------------------------------------------------------------------------

_MODEL_CLASSES = {cls.kind: cls for cls in (CIRModel, VasicekModel, ThreeHalvesModel)}
MODEL_KINDS = tuple(_MODEL_CLASSES)


def make_model(kind: str, kappa: float, theta: float, sigma: float) -> DiffusionModel:
    """Construct a model by kind name ('cir', 'vasicek', 'three_halves')."""
    cls = _MODEL_CLASSES.get(kind.lower()) if isinstance(kind, str) else None
    if cls is None:
        raise ValidationError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    return cls(kappa=kappa, theta=theta, sigma=sigma)
