"""Adaptive truncation of eigenfunction series.

A series sum_{n>=0} t_n is cut off at the first level N (at least
MIN_LEVEL) where the next term and the sum of the next two terms are both
small relative to everything accumulated so far:

    |t_{N+1}| <= eps |S_N|   and   |t_{N+1} + t_{N+2}| <= eps |S_N|,

with S_N = sum_{n<=N} t_n.  The two-term look-ahead guards against the
near-cancellation of consecutive terms of alternating-sign expansions.

The rule is written once, as a stream (``truncate_stream``): it draws terms
one at a time, only as far as the rule needs, and keeps S_N as a running
sum, so the pricer's scalar series build no term array and compute no
eigenfunction beyond the look-ahead.  ``stop_level`` and ``truncate_terms``
apply it to a term array; ``weight_cutoff`` cuts a whole weight array by
it, in one pass.  ``check_eps`` refuses a tolerance outside (0, 1e-3], for
every entry point that takes one.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .errors import ConvergenceError, ValidationError

__all__ = [
    "MIN_LEVEL",
    "check_eps",
    "stop_level",
    "truncate_stream",
    "truncate_terms",
    "weight_cutoff",
]

MIN_LEVEL = 2  # always keep at least levels 0..2 (three terms)


def check_eps(eps: float) -> None:
    """Refuse a series tolerance outside (0, 1e-3], NaN included."""
    if not 0.0 < eps <= 1e-3:
        raise ValidationError(f"eps must lie in (0, 1e-3], got {eps}")


def truncate_stream(terms: Iterable[float], eps: float) -> tuple[float, int, bool]:
    """The rule applied to terms drawn one at a time: ``(S_N, N, converged)``.

    Draws terms only as far as the rule needs: N + 3 of them when it fires
    at level N.  When the terms run out first (the last two are needed as
    look-ahead and can never themselves be stopping levels), the level is
    the last index, the value the sum of every term and ``converged`` is
    False: with a capped coefficient supply the caller simply uses every
    available term.  The running sum is the cumulative sum the rule
    compares against, added left to right.
    """
    total, ahead1, ahead2 = 0.0, 0.0, 0.0  # S_{k-3}, t_{k-2}, t_{k-1}
    k = -1
    for term in terms:  # term = t_k
        k += 1
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
    """``(level, converged)`` of ``truncate_stream`` for a term array."""
    _, level, converged = truncate_stream(np.asarray(terms, dtype=float).tolist(), eps)
    return level, converged


def truncate_terms(terms: np.ndarray, eps: float) -> tuple[float, int, bool]:
    """Truncated value, stop level, and convergence flag for a term array."""
    return truncate_stream(np.asarray(terms, dtype=float).tolist(), eps)


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
