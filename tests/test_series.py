import math

import numpy as np
import pytest

from eigenbond import series
from eigenbond.errors import ValidationError

# Reference copy of the numpy rule that the streaming one replaced: one
# cumulative sum and two vector comparisons over the whole supply.  The
# running sum of the stream is that cumulative sum, so (level, converged)
# must agree exactly.


def _reference_stop_level(terms, eps):
    terms = np.asarray(terms, dtype=float)
    n_terms = terms.size
    if n_terms == 0:
        raise ValueError("empty term sequence")
    last = n_terms - 1
    if n_terms < series.MIN_LEVEL + 3:
        return last, False
    partial = np.cumsum(terms)
    scale = eps * np.abs(partial[series.MIN_LEVEL : -2])
    look1 = np.abs(terms[series.MIN_LEVEL + 1 : -1])
    look2 = np.abs(terms[series.MIN_LEVEL + 1 : -1] + terms[series.MIN_LEVEL + 2 :])
    hits = np.nonzero((look1 <= scale) & (look2 <= scale))[0]
    if hits.size == 0:
        return last, False
    return int(hits[0]) + series.MIN_LEVEL, True


def _random_sequence(rng):
    """Term sequences of the shapes the pricer meets, and of the edge cases."""
    size = int(rng.integers(1, 201))
    shape = rng.integers(8)
    if shape == 0:  # geometric decay, random signs
        terms = rng.choice([-1.0, 1.0], size) * rng.uniform(0.05, 0.95) ** np.arange(size)
    elif shape == 1:  # alternating signs, slow decay
        terms = (-1.0) ** np.arange(size) / (1.0 + np.arange(size)) ** rng.uniform(0.5, 4.0)
    elif shape == 2:  # exact-zero tail
        terms = rng.normal(size=size)
        terms[rng.integers(0, size + 1) :] = 0.0
    elif shape == 3:  # NaN terms
        terms = rng.uniform(0.1, 0.9) ** np.arange(size)
        terms[rng.integers(0, size, int(rng.integers(1, 4)))] = np.nan
    elif shape == 4:  # no decay at all: never converges
        terms = rng.normal(size=size)
    elif shape == 5:  # a zero running sum: the bound is zero
        terms = np.zeros(size)
        terms[: min(size, 2)] = (1.0, -1.0)[: min(size, 2)]
    elif shape == 6:  # cancelling pairs in the look-ahead
        decay = rng.uniform(0.3, 0.9) ** np.arange(size)
        terms = decay * np.repeat([1.0, -1.0], size)[:size]
    else:  # integers and powers of two, so that ties with the bound occur
        terms = rng.integers(-4, 5, size) * 2.0 ** -rng.integers(0, 60, size)
    return terms


def test_streaming_rule_matches_the_numpy_reference():
    rng = np.random.default_rng(20121)
    fired = unconverged = 0
    for _ in range(12_000):
        terms = _random_sequence(rng)
        eps = float(rng.choice([1e-3, 1e-6, 1e-9, 1e-12, 2.0**-20, 2.0**-40]))
        expected = _reference_stop_level(terms, eps)
        assert series.stop_level(terms, eps) == expected, (terms.tolist(), eps)
        value, level, converged = series.truncate_stream(iter(terms.tolist()), eps)
        assert (level, converged) == expected
        partial = np.cumsum(terms)[level]
        assert value == partial or (math.isnan(value) and math.isnan(partial))
        fired += converged
        unconverged += not converged
    assert fired > 3000 and unconverged > 3000  # both outcomes well covered


@pytest.mark.parametrize("size", range(1, series.MIN_LEVEL + 4))
def test_short_sequences(size):
    terms = [1.0] + [0.0] * (size - 1)
    expected = (size - 1, False) if size < series.MIN_LEVEL + 3 else (series.MIN_LEVEL, True)
    assert series.stop_level(terms, 1e-8) == _reference_stop_level(terms, 1e-8) == expected


def test_empty_sequence_is_an_error():
    with pytest.raises(ValueError):
        series.truncate_stream(iter(()), 1e-8)
    with pytest.raises(ValueError):
        series.stop_level(np.array([]), 1e-8)


def test_stream_draws_only_what_the_rule_needs():
    drawn = []

    def terms():
        for n in range(1000):
            drawn.append(n)
            yield 0.5**n

    value, level, converged = series.truncate_stream(terms(), 1e-6)
    assert converged and len(drawn) == level + 3
    assert value == float(np.cumsum(0.5 ** np.arange(level + 1))[-1])


def test_unconverged_stream_sums_every_term():
    terms = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0]
    assert series.truncate_stream(iter(terms), 1e-8) == (0.0, 5, False)


@pytest.mark.parametrize("eps", (0.0, -1e-9, 2e-3, 0.5, math.nan, math.inf))
def test_check_eps_refuses_a_bad_tolerance(eps):
    with pytest.raises(ValidationError, match="eps must lie in"):
        series.check_eps(eps)


def test_check_eps_accepts_the_whole_range():
    for eps in (1e-3, 1e-7, 1e-16, 5e-324):
        series.check_eps(eps)
