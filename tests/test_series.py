import math
import warnings

import numpy as np
import pytest

from eigenbond import series
from eigenbond.errors import ValidationError
from eigenbond.models import POOL_CAP, CIRModel, ThreeHalvesModel, VasicekModel
from eigenbond.subordinators import SubordinatorSpec, spectrum

# Reference copy of the numpy rule that the running-sum loop replaced: one
# cumulative sum and two vector comparisons over the whole supply.  The
# loop's running sum is that cumulative sum, so (level, converged) must
# agree exactly.


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
        value, level, converged = series.truncate_terms(terms, eps)
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
        series.truncate_terms(np.array([]), 1e-8)
    with pytest.raises(ValueError):
        series.stop_level(np.array([]), 1e-8)


def test_stream_draws_only_what_the_rule_needs(counted_reads):
    # the series evaluator reads weight n as it takes recurrence step n
    model = CIRModel(0.14294371, 0.133976855, 0.38757496)
    weights = counted_reads((0.5 ** np.arange(1000)).tolist())
    value, _, level, converged = model.series_sum(weights, 0.05, 1e-6)
    assert converged and weights.reads == level + 3
    terms = np.multiply(weights[: level + 1], model.eigenfunctions(level, 0.05))
    assert value == float(np.cumsum(terms)[-1])


def test_unconverged_stream_sums_every_term():
    terms = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    assert series.truncate_terms(terms, 1e-8) == (0.0, 5, False)


# The rule has three bodies: ``truncate_terms`` over a term array, the
# model's ``series_sum``, which runs it inside the recurrence loop, and its
# ``series_pair`` (below).  The first two must agree bit for bit on the
# terms w_n phi_n(x).
_PIN_MODELS = (
    CIRModel(0.14294371, 0.133976855, 0.38757496),
    VasicekModel(0.44178462, 0.098397028, 0.13264223),
    ThreeHalvesModel(2.0, 0.05, 0.5),
    CIRModel(1.0, 0.05, 0.02),  # b = 250
    ThreeHalvesModel(2.0, 0.06, 0.1),  # Laguerre order 402
)


def _pin_weights(model, rng):
    """Pools, random-sign cut vectors that do not converge, 1 to 5 weights,
    a vector with an all-zero tail and one of zeros only (a zero bound,
    where the rule's comparisons tie)."""
    spec = spectrum(model, SubordinatorSpec.none())
    pools = [spec.pool(((t, 1.0),)) for t in (0.02, 1.0)]
    cuts = [(rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 1.0, n)).tolist() for n in (30, 64)]
    short = [rng.standard_normal(n).tolist() for n in range(1, series.MIN_LEVEL + 4)]
    zeros = [pools[1][:8] + [0.0] * 12, [0.0] * 12]
    return pools + cuts + short + zeros


@pytest.mark.parametrize(
    "model", _PIN_MODELS, ids=("cir", "vasicek", "three_halves", "cir_b250", "three_halves_402")
)
def test_series_sum_and_truncate_terms_agree_bit_for_bit(model):
    rng = np.random.default_rng(2015)
    lo, _, hi = model.search_interval(64)
    hi = min(hi, model.theta * 4.0)
    states = np.linspace(lo, hi, 7)[1:].tolist()
    outcomes = set()
    for weights in _pin_weights(model, rng):
        n_max = len(weights) - 1
        for x in states:
            terms = np.multiply(weights, model.eigenfunctions(n_max, x))
            for eps in (1e-7, 1e-13):
                value, _, level, converged = model.series_sum(weights, x, eps)
                expected, expected_level, expected_converged = series.truncate_terms(terms, eps)
                assert (value.hex(), level, converged) == (
                    expected.hex(), expected_level, expected_converged
                ), (n_max, x, eps)
                outcomes.add((converged, len(weights) < series.MIN_LEVEL + 3))
    assert outcomes == {(True, False), (False, False), (False, True)}


# The pair form steps the recurrence once for two series and keeps both
# rules: each of its results must be bit for bit what ``series_sum`` returns
# alone, whichever series stops first and however it stops.


def _bits(result):
    value, slope, level, converged = result
    return value.hex(), slope.hex(), level, converged


def _pair_matches_two_sums(model, weights, eps, other, other_eps, x):
    """Both results of the pair against ``series_sum``, bit for bit; the pair."""
    one, two = model.series_pair(weights, eps, other, other_eps, x)
    assert _bits(one) == _bits(model.series_sum(weights, x, eps)), (len(weights), x, eps)
    assert _bits(two) == _bits(model.series_sum(other, x, other_eps)), (len(other), x, other_eps)
    return one, two


@pytest.mark.parametrize(
    "model", _PIN_MODELS, ids=("cir", "vasicek", "three_halves", "cir_b250", "three_halves_402")
)
def test_series_pair_and_two_series_sums_agree_bit_for_bit(model):
    rng = np.random.default_rng(2015)
    lo, _, hi = model.search_interval(64)
    hi = min(hi, model.theta * 4.0)
    states = np.linspace(lo, hi, 4)[1:].tolist()
    supplies = _pin_weights(model, rng)
    order = set()  # (first stops before second, second before first)
    for weights in supplies:
        for other in supplies:
            for x in states:
                for eps, other_eps in ((1e-7, 1e-13), (1e-13, 1e-7)):
                    one, two = _pair_matches_two_sums(model, weights, eps, other, other_eps, x)
                    order.add((one[2] < two[2], two[2] < one[2]))
    assert order == {(True, False), (False, True), (False, False)}


@pytest.mark.parametrize("model", _PIN_MODELS[:3], ids=("cir", "vasicek", "three_halves"))
def test_series_pair_keeps_each_rule_and_supply(model, counted_reads):
    spec = spectrum(model, SubordinatorSpec.inverse_gaussian(drift=0.5, mu=0.5, nu_var=1.0))
    slow, fast = spec.pool(((0.02, 1.0),)), spec.pool(((1.0, 1.0),))
    x = model.theta
    assert len(slow) == len(fast) == POOL_CAP + 1
    rng = np.random.default_rng(5046)
    cut = (rng.choice([-1.0, 1.0], 6) * rng.uniform(0.5, 1.0, 6)).tolist()

    # a cut vector runs out without firing while the pool fires later
    one, two = _pair_matches_two_sums(model, cut, 1e-7, slow, 1e-13, x)
    assert one[2:] == (5, False) and two[3] and two[2] > 5

    # the second sum fires first, and each list is read to its level + 2
    weights, other = counted_reads(slow), counted_reads(fast)
    one, two = _pair_matches_two_sums(model, weights, 1e-13, other, 1e-7, x)
    assert one[3] and two[3] and two[2] < one[2]
    assert (weights.reads, other.reads) == (2 * (one[2] + 3), 2 * (two[2] + 3))  # pair + sum

    # a zero pool (no protected coupon) fires at the first level it may
    zero = spec.pool(())
    for weights in (cut, slow):
        one, two = _pair_matches_two_sums(model, weights, 1e-10, zero, 1e-10, x)
        assert two == (0.0, 0.0, series.MIN_LEVEL, True)

    # both supplies at POOL_CAP: two pools that fire, and two that do not
    _pair_matches_two_sums(model, slow, 1e-13, fast, 1e-13, x)
    noise = [(rng.choice([-1.0, 1.0], POOL_CAP + 1)).tolist() for _ in range(2)]
    one, two = _pair_matches_two_sums(model, noise[0], 1e-13, noise[1], 1e-13, x)
    assert one[2:] == two[2:] == (POOL_CAP, False)
    one, two = _pair_matches_two_sums(model, slow, 1e-13, noise[0], 1e-13, x)
    assert one[3] and two[2:] == (POOL_CAP, False)


def test_series_pair_refuses_empty_weights():
    model = _PIN_MODELS[0]
    for weights, other in (([], [1.0] * 6), ([1.0] * 6, [])):
        with pytest.raises(ValidationError, match="degree n_max must be >= 0"):
            model.series_pair(weights, 1e-7, other, 1e-7, 0.05)


@pytest.mark.parametrize("eps", (0.0, -1e-9, 2e-3, 0.5, math.nan, math.inf))
def test_check_eps_refuses_a_bad_tolerance(eps):
    with pytest.raises(ValidationError, match="eps must lie in"):
        series.check_eps(eps)


def test_check_eps_accepts_the_whole_range():
    for eps in (1e-3, 1e-7, 1e-16, 5e-324):
        series.check_eps(eps)


def test_resolved_reads_every_term_finite_and_its_rounding_within_the_bound():
    # columns: a sum of 1 carrying 1e3 of terms (rounding 2.2e-13); one
    # cancelling to 2e-3 from 1e10 (rounding 2.2e-6); one overflowed to inf
    # of both signs, whose sum numpy reads as an invalid reduce
    terms = np.array([[1e3, 1e10, np.inf], [-999.0, -1e10, -np.inf], [0.0, 2e-3, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # eps relative to the sum: 2.2e-13 against eps * 1, 2.2e-6 against eps * 2e-3
        assert series.resolved(terms, 1e-13).tolist() == [False, False, False]
        assert series.resolved(terms, 1e-12).tolist() == [True, False, False]
        assert series.resolved(terms, 1e-3).tolist() == [True, False, False]
        assert series.resolved(terms, 2e-3).tolist() == [True, True, False]
        # an absolute tolerance
        assert series.resolved(terms, tol=1e-13).tolist() == [False, False, False]
        assert series.resolved(terms, tol=1e-12).tolist() == [True, False, False]
        assert series.resolved(terms, tol=1e-5).tolist() == [True, True, False]
