"""Adaptive truncation of eigenfunction series.

A series sum_{n>=0} t_n is cut off at the first level N (at least
MIN_LEVEL) where the next term and the sum of the next two terms are both
small relative to everything accumulated so far:

    |t_{N+1}| <= eps |S_N|   and   |t_{N+1} + t_{N+2}| <= eps |S_N|,

with S_N = sum_{n<=N} t_n.  The two-term look-ahead guards against the
near-cancellation of consecutive terms of alternating-sign expansions.

The rule has three bodies, each a loop that keeps S_N as a running sum
added left to right.  ``truncate_terms`` applies it to a term array, and
``stop_level`` and ``weight_cutoff`` (which cuts a whole weight array by it)
call that.  The model's ``series_sum`` (see ``models``) runs it inside the
recurrence loop of a weighted eigenfunction series, and ``series_pair``
runs it twice in one such loop, once for each of two series at one state,
so the pricer's scalar series build no term array and compute no
eigenfunction beyond the look-ahead.
``tests/test_series.py::test_series_sum_and_truncate_terms_agree_bit_for_bit``
pins the first two bodies against each other, and
``tests/test_series.py::test_series_pair_and_two_series_sums_agree_bit_for_bit``
the pair against two ``series_sum`` calls.  ``check_eps`` refuses a tolerance
that is not a real number or lies outside (0, 1e-3], for every entry point
that takes one, and ``resolved`` holds the one test of whether a series'
rounding stays within its bound.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, ValidationError, check_real

__all__ = [
    "MIN_LEVEL",
    "check_eps",
    "resolved",
    "stop_level",
    "truncate_terms",
    "weight_cutoff",
]

MIN_LEVEL = 2  # always keep at least levels 0..2 (three terms)


def check_eps(eps: float) -> None:
    """Refuse a series tolerance that is not a real number or lies outside
    (0, 1e-3], NaN included."""
    check_real("eps", eps)
    if not 0.0 < eps <= 1e-3:
        raise ValidationError(f"eps must lie in (0, 1e-3], got {eps}")


def truncate_terms(terms: np.ndarray, eps: float) -> tuple[float, int, bool]:
    """The rule applied to a term array: ``(S_N, N, converged)``.

    When the terms run out before it fires (the last two are needed as
    look-ahead and can never themselves be stopping levels), the level is
    the last index, the value the sum of every term and ``converged`` is
    False: with a capped coefficient supply the caller simply uses every
    available term.  The running sum is the cumulative sum the rule
    compares against, added left to right.
    """
    total, ahead1, ahead2 = 0.0, 0.0, 0.0  # S_{k-3}, t_{k-2}, t_{k-1}
    k = -1
    for k, term in enumerate(np.asarray(terms, dtype=float).tolist()):  # term = t_k
        total += ahead1
        ahead1, ahead2 = ahead2, term
        if k >= MIN_LEVEL + 2:  # the rule at level N = k - 2
            bound = eps * abs(total)
            if abs(ahead1) <= bound and abs(ahead1 + ahead2) <= bound:
                return total, k - 2, True
    if k < 0:
        raise ValueError("empty term sequence")
    return total + ahead1 + ahead2, k, False


def stop_level(terms: np.ndarray, eps: float) -> tuple[int, bool]:
    """``(level, converged)`` of ``truncate_terms``."""
    _, level, converged = truncate_terms(terms, eps)
    return level, converged


def weight_cutoff(weights: np.ndarray, eps: float) -> int:
    """Truncation level for a sum dominated termwise by ``weights``.

    The rule runs once over the whole array and must fire inside it.  Used
    for the inner sums of strike projections, where the overlap factors are
    bounded by one and the weights p_m e^{-phi(lambda_m) delta} carry all
    the decay, and to size the redemption's carried vector.
    """
    level, converged = stop_level(np.abs(weights), eps)
    if not converged:
        raise ConvergenceError(
            f"inner-series weights did not satisfy the truncation rule by n={len(weights) - 1}"
        )
    return level


def resolved(terms: np.ndarray, eps: float = 0.0, tol: float = 0.0) -> np.ndarray:
    """Where the series of ``terms`` (axis 0 the degree, any others the
    states) resolves: every term finite, and its largest magnitude times
    2^-52, the rounding its partial sums carry, at most eps times the sum's
    plus ``tol``.  Where eigenfunctions grow by orders of magnitude the
    terms cancel, and a series read there is noise.  Overflowed terms are
    read under numpy's error state, so no warning leaks."""
    terms = np.asarray(terms, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        bound = eps * np.abs(terms.sum(axis=0)) + tol
        return np.isfinite(terms).all(axis=0) & (np.abs(terms).max(axis=0) * 2.0**-52 <= bound)
