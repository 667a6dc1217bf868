"""Adaptive truncation of eigenfunction series.

A series sum_{n>=0} t_n is cut off at the first level N (at least
MIN_LEVEL) where the next term and the sum of the next two terms are both
small relative to everything accumulated so far:

    |t_{N+1}| <= eps |S_N|   and   |t_{N+1} + t_{N+2}| <= eps |S_N|,

with S_N = sum_{n<=N} t_n.  The two-term look-ahead guards against the
near-cancellation of consecutive terms of alternating-sign expansions.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError
from .models import POOL_CAP

__all__ = ["MIN_LEVEL", "stop_level", "truncate_terms", "weight_cutoff"]

MIN_LEVEL = 2  # always keep at least levels 0..2 (three terms)


def stop_level(terms: np.ndarray, eps: float) -> tuple[int, bool]:
    """First admissible truncation level for the given term sequence.

    Returns ``(level, converged)``.  When the rule never fires within the
    supplied terms (the last two entries are needed as look-ahead and can
    never themselves be stopping levels), the level is the last index and
    ``converged`` is False: with a capped coefficient supply the caller
    simply uses every available term.
    """
    terms = np.asarray(terms, dtype=float)
    n_terms = terms.size
    if n_terms == 0:
        raise ValueError("empty term sequence")
    last = n_terms - 1
    if n_terms < MIN_LEVEL + 3:
        return last, False
    partial = np.cumsum(terms)
    scale = eps * np.abs(partial[MIN_LEVEL:-2])
    look1 = np.abs(terms[MIN_LEVEL + 1 : -1])
    look2 = np.abs(terms[MIN_LEVEL + 1 : -1] + terms[MIN_LEVEL + 2 :])
    hits = np.nonzero((look1 <= scale) & (look2 <= scale))[0]
    if hits.size == 0:
        return last, False
    return int(hits[0]) + MIN_LEVEL, True


def truncate_terms(terms: np.ndarray, eps: float) -> tuple[float, int, bool]:
    """Truncated value, stop level, and convergence flag for a term sequence."""
    level, converged = stop_level(terms, eps)
    return float(np.sum(terms[: level + 1])), level, converged


def weight_cutoff(weight_fn, eps: float) -> int:
    """Truncation level for a sum dominated termwise by the weights.

    ``weight_fn(n_hi)`` must return the nonnegative majorant weights for
    indices 0..n_hi; n_hi starts at 32 and doubles up to ``POOL_CAP``.
    Used for the inner sums of expansion-route strike projections, where
    the overlap factors are bounded by one and the weights
    p_m e^{-phi(lambda_m) delta} carry all the decay, and to size the
    terminal stage's coefficient vector.
    """
    n_hi = 32
    while True:
        level, converged = stop_level(np.abs(weight_fn(n_hi)), eps)
        if converged:
            return level
        if n_hi >= POOL_CAP:
            raise ConvergenceError(
                f"inner-series weights did not satisfy the truncation rule by n={POOL_CAP}"
            )
        n_hi = min(2 * n_hi, POOL_CAP)
