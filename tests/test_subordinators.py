import dataclasses
import math

import numpy as np
import pytest

from eigenbond import benchmark, subordinators
from eigenbond.errors import BracketError, ValidationError
from eigenbond.models import CIRModel, ThreeHalvesModel, VasicekModel
from eigenbond.oracle import short_rate_quadrature
from eigenbond.subordinators import (
    SubordinatorSpec,
    invert_short_rate,
    laplace_exponent,
    levy_mean,
    mean_rate,
    short_rate_map,
    spectrum,
)

CIR = CIRModel(kappa=0.14294371, theta=0.133976855, sigma=0.38757496)
VAS = VasicekModel(kappa=0.44178462, theta=0.098397028, sigma=0.13264223)
TH = ThreeHalvesModel(kappa=2.0, theta=0.05, sigma=0.5)

JD = SubordinatorSpec.inverse_gaussian(drift=0.5, mu=0.5, nu_var=1.0)
PJ = SubordinatorSpec.inverse_gaussian(drift=0.0, mu=1.0, nu_var=1.0)
GAMMA = SubordinatorSpec.gamma_process(drift=0.2, c=0.6, eta=1.5)
TS = SubordinatorSpec.tempered_stable(drift=0.1, c=0.4, p=0.7, eta=2.0)
NONE = SubordinatorSpec.none()
FAMILIES = (JD, PJ, GAMMA, TS)


def test_laplace_exponent_vanishes_at_zero():
    for sub in FAMILIES + (NONE,):
        assert float(laplace_exponent(sub, 0.0)) == pytest.approx(0.0, abs=1e-15)


def test_ig_hand_evaluation():
    # drift 0.5, mu 0.5, nu 1 at lam=2: 0.5*2 + 0.25*(sqrt(9)-1) = 1.5
    assert float(laplace_exponent(JD, 2.0)) == pytest.approx(1.5, rel=1e-14)


def test_gamma_family_log_branch():
    lam = np.array([0.3, 1.7, 9.0])
    expected = GAMMA.drift * lam + GAMMA.c * np.log(1.0 + lam / GAMMA.eta)
    np.testing.assert_allclose(laplace_exponent(GAMMA, lam), expected, rtol=1e-14)


def test_ig_equals_tempered_stable_half():
    # IG(mu, nu) is tempered stable with p=1/2, C=mu sqrt(mu/(2 pi nu)), eta=mu/(2 nu)
    c = JD.mu * math.sqrt(JD.mu / (2.0 * math.pi * JD.nu_var))
    eta = 0.5 * JD.mu / JD.nu_var
    ts = SubordinatorSpec.tempered_stable(drift=JD.drift, c=c, p=0.5, eta=eta)
    lam = np.linspace(0.0, 40.0, 17)
    np.testing.assert_allclose(
        laplace_exponent(ts, lam), laplace_exponent(JD, lam), rtol=1e-12
    )


def test_trivial_clock_is_identity():
    lam = CIR.eigenvalues(30)
    np.testing.assert_array_equal(laplace_exponent(NONE, lam), lam)


def test_subordinate_eigenvalues_lie_below_for_unit_mean_clock():
    lam = CIR.eigenvalues(50)
    sub_lam = laplace_exponent(JD, lam)
    assert np.all(sub_lam[10:] < lam[10:])
    assert np.all(np.diff(sub_lam) > 0.0)


def test_trace_condition_at_small_time():
    # partial sums of exp(-phi(lambda_n) t) converge at t = 0.1 for every
    # benchmark clock; pure-jump exponents grow like sqrt(lambda), so the
    # tail dies slowly and needs ~1e5 terms before dropping below 1e-12
    for model in (CIR, VAS):
        for sub in (JD, PJ):
            lam = laplace_exponent(sub, model.eigenvalues(100_000))
            terms = np.exp(-lam * 0.1)
            assert terms[-1] < 1e-12
            total = float(np.sum(terms))
            assert np.isfinite(total)
            # the second half of the range contributes a negligible tail
            assert float(np.sum(terms[50_000:])) <= 1e-7 * total


def test_monotone_on_random_pairs():
    rng = np.random.default_rng(42)
    for sub in FAMILIES:
        a = rng.uniform(0.0, 120.0, size=1000)
        b = a + rng.uniform(1e-6, 30.0, size=1000)
        assert np.all(laplace_exponent(sub, b) > laplace_exponent(sub, a))


def test_concavity_and_bernstein_signs():
    lam = np.linspace(0.0, 100.0, 401)
    h = lam[1] - lam[0]
    for sub in FAMILIES:
        phi = laplace_exponent(sub, lam)
        first = np.diff(phi) / h
        second = np.diff(first) / h
        assert np.all(first > 0.0)  # (-1)^2 phi' >= 0
        assert np.all(second <= 1e-12)  # (-1)^3 phi'' <= 0


def test_mean_rate_normalization():
    assert abs(mean_rate(JD) - 1.0) <= 1e-12
    assert abs(mean_rate(PJ) - 1.0) <= 1e-12
    assert mean_rate(NONE) == 1.0


def test_levy_mean_closed_forms():
    assert levy_mean(GAMMA) == pytest.approx(GAMMA.c / GAMMA.eta, rel=1e-14)
    expected = TS.c * math.gamma(1.0 - TS.p) * TS.eta ** (TS.p - 1.0)
    assert levy_mean(TS) == pytest.approx(expected, rel=1e-14)


def test_stable_limit_has_divergent_moment():
    stable = SubordinatorSpec.tempered_stable(drift=0.0, c=1.0, p=0.5, eta=0.0)
    with pytest.raises(ValidationError):
        mean_rate(stable)


def test_ig_domain_error():
    with pytest.raises(ValidationError):
        laplace_exponent(JD, -2.0)


def test_spec_validation():
    with pytest.raises(ValidationError):
        SubordinatorSpec(family="ig", drift=0.5)  # missing mu/nu_var
    with pytest.raises(ValidationError):
        SubordinatorSpec(family="ig", drift=-0.1, mu=1.0, nu_var=1.0)
    with pytest.raises(ValidationError):
        SubordinatorSpec(family="tempered_stable", drift=0.0, c=1.0, p=1.5, eta=1.0)
    with pytest.raises(ValidationError):
        SubordinatorSpec(family="weibull")


def test_tempered_stable_p_zero_is_refused_for_the_gamma_family():
    with pytest.raises(ValidationError, match="'gamma' family"):
        SubordinatorSpec.tempered_stable(0.0, 0.1, 0.0, 1.0)
    SubordinatorSpec.gamma_process(0.0, 0.1, 1.0)  # the p -> 0 limit itself


@pytest.mark.parametrize("bad", (math.nan, math.inf), ids=("nan", "inf"))
@pytest.mark.parametrize(
    "family,field",
    (("ig", "drift"), ("ig", "mu"), ("ig", "nu_var"), ("gamma", "c"), ("gamma", "eta"),
     ("tempered_stable", "p"), ("tempered_stable", "eta")),
)
def test_clock_refuses_non_finite_parameters(family, field, bad):
    params = {
        "ig": {"drift": 0.1, "mu": 0.5, "nu_var": 1.0},
        "gamma": {"drift": 0.1, "c": 0.5, "eta": 2.0},
        "tempered_stable": {"drift": 0.1, "c": 0.5, "p": 0.5, "eta": 2.0},
    }[family]
    with pytest.raises(ValidationError, match=f"{field} must be finite"):
        SubordinatorSpec(family=family, **{**params, field: bad})


def test_short_rate_map_trivial():
    assert short_rate_map(CIR, NONE, 0.05) == 0.05


def test_short_rate_integrand_bounds():
    # 1 - P(s, x) stays in [0, 1) for the CIR bond at nonnegative states
    for s in (0.01, 0.5, 3.0, 20.0):
        for x in (0.0, 0.03, 0.4):
            val = 1.0 - float(CIR.closed_form_bond(s, x))
            assert 0.0 <= val < 1.0


@pytest.mark.parametrize("model", (CIR, VAS), ids=lambda m: m.kind)
@pytest.mark.parametrize("sub", (JD, PJ), ids=("jd", "pj"))
def test_short_rate_quadrature_matches_expansion_identity(model, sub):
    # Levy-integral quadrature of the closed-form bond is an independent
    # route to the function the eigenfunction expansion sums
    for x in (0.0, 1e-10, 0.02, 0.05, 0.11, 2.0):
        quad = short_rate_quadrature(model, sub, x)
        ident = short_rate_map(model, sub, x)
        assert quad == pytest.approx(ident, abs=2e-11)


@pytest.mark.parametrize("model", (CIR, VAS, TH), ids=lambda m: m.kind)
def test_short_rate_map_vectorizes_over_states(model):
    xs = np.array([0.03, 0.05, 0.08, 0.2])
    rates = short_rate_map(model, JD, xs)
    assert isinstance(rates, np.ndarray) and rates.shape == xs.shape
    scalar = short_rate_map(model, JD, 0.05)
    assert type(scalar) is float
    assert rates[1] == pytest.approx(scalar, abs=1e-15)
    assert np.all(np.diff(rates) > 0.0)
    np.testing.assert_array_equal(short_rate_map(model, NONE, xs), xs)


def test_short_rate_map_refuses_states_outside_the_space():
    with pytest.raises(ValidationError):
        short_rate_map(CIR, JD, np.array([0.05, -0.01]))
    with pytest.raises(ValidationError):
        short_rate_map(TH, JD, 0.0)


@pytest.mark.parametrize("sub", (NONE, JD), ids=("plain", "jd"))
def test_quote_edges_are_the_same_on_every_clock(sub):
    # the plain clock returned a NaN quote as the state; the jump clock
    # escaped an empty state array as numpy's ValueError
    with pytest.raises(ValidationError, match="short rate must be finite"):
        invert_short_rate(CIR, sub, math.nan)
    rates = short_rate_map(CIR, sub, [])
    assert isinstance(rates, np.ndarray) and rates.shape == (0,)


def test_short_rate_map_refuses_where_the_expansion_cancels():
    # near the 3/2 origin the Laguerre abscissa beta/x is huge and the
    # series terms grow far beyond the sum they cancel to
    with pytest.raises(ValidationError):
        short_rate_map(TH, JD, 1e-3)


def test_short_rate_map_stable_clock_needs_no_tilt():
    stable = SubordinatorSpec.tempered_stable(drift=0.0, c=0.1, p=0.5, eta=0.0)
    rates = short_rate_map(CIR, stable, np.array([0.0, 0.05, 0.2]))
    assert np.all(rates > 0.0) and np.all(np.diff(rates) > 0.0)
    x = invert_short_rate(CIR, stable, float(rates[1]))
    assert x == pytest.approx(0.05, abs=1e-10)


def test_short_rate_map_three_halves_runs():
    val = short_rate_map(TH, JD, 0.05)
    assert 0.0 < val < 0.2
    assert short_rate_map(TH, NONE, 0.05) == 0.05


def test_invert_short_rate_round_trip():
    for sub in (JD, PJ):
        for r in (0.01, 0.05, 0.10):
            x = invert_short_rate(CIR, sub, r)
            assert short_rate_map(CIR, sub, x) == pytest.approx(r, abs=1e-10)
    assert invert_short_rate(CIR, NONE, 0.07) == 0.07


def test_invert_short_rate_three_halves_approaches_the_open_origin():
    # the 3/2 origin is not a state: the bracket halves its way toward it
    for sub in (JD, PJ):
        for r in (0.02, 0.1, 0.3):
            x = invert_short_rate(TH, sub, r)
            assert short_rate_map(TH, sub, x) == pytest.approx(r, abs=1e-10)


def test_invert_short_rate_refuses_an_unbracketable_quote():
    with pytest.raises(ValidationError):
        invert_short_rate(CIR, JD, 500.0)


@pytest.mark.parametrize("model", (CIR, VAS), ids=lambda m: m.kind)
@pytest.mark.parametrize("sub", (JD, PJ), ids=("jd", "pj"))
def test_invert_short_rate_evaluates_the_series_at_most_twelve_times(
    monkeypatch, model, sub
):
    calls = [0]
    cls = type(model)
    for name in ("eigenfunctions", "eigenfunction_matrix"):

        def counted(*args, _original=getattr(cls, name), **kwargs):
            calls[0] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    for rate in (0.01, 0.035, 0.07, 0.12):
        before = calls[0]
        invert_short_rate(model, sub, rate)
        assert 1 <= calls[0] - before <= 12


# ---------------------------------------------------------------------------
# brackets cached per model and clock
# ---------------------------------------------------------------------------

# (model, clock, quoted range): the bench's jump configs over the rate_sweep
# range, and 3/2 from the lowest quote a fresh model inverts (0.012 under JD,
# 0.0125 under PJ; below them the series cancels to rounding noise over every
# grid the walk tries)
JUMP_CASES = [
    (benchmark.benchmark_model(config), benchmark.benchmark_subordinator(config), (0.01, 0.12))
    for config in ("subcir_jd", "subcir_pj", "subvasicek_jd", "subvasicek_pj")
] + [(TH, JD, (0.012, 0.3)), (TH, PJ, (0.0125, 0.3))]
CASE_IDS = ("subcir_jd", "subcir_pj", "subvasicek_jd", "subvasicek_pj", "3/2_jd", "3/2_pj")


def _fresh(model):
    """An equal model with empty caches."""
    return dataclasses.replace(model)


def _map(model, sub):
    """The short-rate map kept on the model's spectrum for the clock, or None."""
    spec = model._spectra.get(sub)
    return None if spec is None else spec.rate_map


def _sweep_quotes(count=40, lo=0.01, hi=0.12, seed=5046):
    """One uniform quote in each of ``count`` slices of [lo, hi]."""
    edges = np.linspace(lo, hi, count + 1)
    return np.random.default_rng(seed).uniform(edges[:-1], edges[1:])


@pytest.mark.parametrize("model,sub,quoted", JUMP_CASES, ids=CASE_IDS)
def test_cached_brackets_match_cold_inversion_in_any_order(model, sub, quoted):
    quotes = _sweep_quotes(24, *quoted)
    cold = [invert_short_rate(_fresh(model), sub, q) for q in quotes]
    orders = {
        "ascending": np.arange(quotes.size),
        "reversed": np.arange(quotes.size)[::-1],
        "shuffled": np.random.default_rng(9137).permutation(quotes.size),
    }
    for order in orders.values():
        warm = _fresh(model)
        states = {i: invert_short_rate(warm, sub, quotes[i]) for i in order}
        assert states[order[0]] == cold[order[0]]  # the first quote runs the walk
        # a kept bracket's coefficients differ from the quote's own walk by
        # their cut alone: a few ulps, not the closing tolerance of 1e-12
        assert max(abs(states[i] - cold[i]) for i in order) <= 1e-14


@pytest.mark.parametrize("sub,lowest", ((JD, 0.012), (PJ, 0.0125)), ids=("jd", "pj"))
def test_a_fresh_three_halves_model_inverts_what_a_warm_one_does(sub, lowest):
    # The first grid of a low quote reaches toward the excluded origin, where
    # the series cancels to rounding noise; its lower end moves halfway back
    # toward the quote.  Before, a fresh model refused 0.0154 and 0.016 under
    # JD, and a model that kept the bracket of 0.03 inverted them.
    quotes = (lowest, 0.0154, 0.016, 0.03)
    cold = [invert_short_rate(_fresh(TH), sub, q) for q in quotes]
    for order in (quotes, quotes[::-1]):
        warm = _fresh(TH)
        states = {q: invert_short_rate(warm, sub, q) for q in order}
        assert max(abs(states[q] - x) for q, x in zip(quotes, cold)) <= 1e-12
    for q, x in zip(quotes, cold):
        assert short_rate_map(TH, sub, x) == pytest.approx(q, abs=1e-13)
    fresh = _fresh(TH)
    with pytest.raises(ValidationError, match="cancels to rounding noise"):
        invert_short_rate(fresh, sub, 0.0115)
    assert _map(fresh, sub) is None


def test_the_short_rate_map_refuses_rounding_noise_by_the_shared_test(monkeypatch):
    # one rounding-noise test in the package: the short-rate map reads it
    # with its absolute tolerance, the 3/2 search floor with eps of the sum
    from eigenbond import models, series

    assert models.resolved is series.resolved
    calls = []
    shared = series.resolved

    def counted(terms, eps=0.0, tol=0.0):
        calls.append((eps, tol))
        return shared(terms, eps, tol)

    monkeypatch.setattr(series, "resolved", counted)
    short_rate_map(_fresh(TH), JD, np.linspace(0.02, 0.2, 5))
    assert calls == [(0.0, subordinators._ROUNDING_TOL)]
    calls.clear()
    with pytest.raises(ValidationError, match="cancels to rounding noise"):
        invert_short_rate(_fresh(TH), JD, 0.0115)
    assert calls and set(calls) == {(0.0, subordinators._ROUNDING_TOL)}


def test_a_sweep_resolves_one_series_per_model_and_clock(monkeypatch):
    calls = []

    def counted(model, sub, xs, _original=subordinators._resolved_series):
        calls.append((id(model), sub))
        return _original(model, sub, xs)

    monkeypatch.setattr(subordinators, "_resolved_series", counted)
    cases = [(_fresh(model), sub) for model, sub, _ in JUMP_CASES[:4]]
    for model, sub in cases:
        for quote in _sweep_quotes():
            invert_short_rate(model, sub, quote)
    assert sorted(calls) == sorted((id(model), sub) for model, sub in cases)


def test_a_quote_inside_a_kept_bracket_closes_without_walking(monkeypatch):
    # Kept from 0.05, the bracket's rates enclose 0.0592, whose state lies
    # 1.3e-5 below a point of the grid a walk of its own would start from.
    # Its first and last tabulated rates close in its first and last cells,
    # at the grid's end states.
    model, sub = _fresh(benchmark.benchmark_model("subvasicek_jd")), JD
    invert_short_rate(model, sub, 0.05)
    before = _map(model, sub)
    xs, _, rates, _ = before
    ends = {float(rates[0]): float(xs[0]), float(rates[-1]): float(xs[-1])}

    def walk(*args):
        raise AssertionError("a quote inside a kept bracket walked")

    monkeypatch.setattr(subordinators, "_walk", walk)
    states = {quote: invert_short_rate(model, sub, quote) for quote in (0.0592, *ends)}
    assert _map(model, sub) is before
    monkeypatch.undo()
    for quote, end in ends.items():
        assert abs(states[quote] - end) <= 1e-12, (quote, end)
    for quote, state in states.items():
        assert abs(state - invert_short_rate(_fresh(model), sub, quote)) <= 1e-14, quote


def test_a_kept_bracket_is_not_evaluated_outside_its_states(monkeypatch):
    # Kept from 0.03 under JD, the 3/2 bracket covers the states from 0.015,
    # where its coefficients were resolved; 0.016 closes in one of its cells
    # or walks a bracket of its own, never below them.
    model = _fresh(TH)
    invert_short_rate(model, JD, 0.03)
    kept_xs, kept_coefficients, _, _ = _map(model, JD)
    assert kept_xs[0] == pytest.approx(0.015, rel=1e-12)
    kept_states = []

    def spied(model, sub, coefficients, rate, _original=subordinators._gap):
        gap = _original(model, sub, coefficients, rate)
        if coefficients is not kept_coefficients:
            return gap
        return lambda state: kept_states.append(state) or gap(state)

    monkeypatch.setattr(subordinators, "_gap", spied)
    state = invert_short_rate(model, JD, 0.016)
    assert all(kept_xs[0] <= x <= kept_xs[-1] for x in kept_states)
    monkeypatch.undo()
    assert abs(state - invert_short_rate(_fresh(TH), JD, 0.016)) <= 1e-12


def test_a_kept_quote_evaluates_no_state_twice(monkeypatch):
    # the cell's ends are read from the kept table, and the Newton step, the
    # secant and its bisections never return to an evaluated state
    model = _fresh(CIR)
    state = invert_short_rate(model, JD, 0.05)
    evaluated = []
    eigenfunctions = CIRModel.eigenfunctions

    def counted(self, n_max, x):
        evaluated.append(float(x))
        return eigenfunctions(self, n_max, x)

    def walk(*args):
        raise AssertionError("a quote inside a kept bracket walked")

    monkeypatch.setattr(CIRModel, "eigenfunctions", counted)
    monkeypatch.setattr(subordinators, "_walk", walk)
    assert invert_short_rate(model, JD, 0.05) == state
    assert len(evaluated) >= 1
    assert len(set(evaluated)) == len(evaluated)
    # and so do the kept map's first and last tabulated rates
    _, _, rates, _ = _map(model, JD)
    for quote in (float(rates[0]), float(rates[-1])):
        evaluated.clear()
        invert_short_rate(model, JD, quote)
        assert evaluated and len(set(evaluated)) == len(evaluated), quote


@pytest.mark.parametrize("model,sub,quoted", JUMP_CASES, ids=CASE_IDS)
def test_the_rate_map_reads_the_kept_coefficients(monkeypatch, model, sub, quoted):
    # States outside the kept map grow it once, by a grid from the lowest
    # state asked to _BRACKET_WIDTH above the highest; the same states asked
    # again are read through the grown map and resolve nothing.
    warm = _fresh(model)
    for quote in _sweep_quotes(8, *quoted):
        invert_short_rate(warm, sub, quote)
    kept = _map(warm, sub)[0]
    # mostly off the kept grid, its ends included, and one state above it
    states = np.append(np.linspace(kept[0], kept[-1], 47), kept[-1] + 0.05)
    resolved = []

    def counted(model, sub, xs, _original=subordinators._resolved_series):
        resolved.append(xs.copy())
        return _original(model, sub, xs)

    monkeypatch.setattr(subordinators, "_resolved_series", counted)
    rates = short_rate_map(warm, sub, states)
    grown = _map(warm, sub)[0]
    assert len(resolved) == 1 and set(kept) <= set(grown)
    assert grown[0] == kept[0] and grown[-1] == states[-1] + subordinators._BRACKET_WIDTH
    assert np.array_equal(short_rate_map(warm, sub, states), rates)
    assert np.array_equal(short_rate_map(warm, sub, states[::-1]), rates[::-1])
    assert len(resolved) == 1
    monkeypatch.undo()
    # Near the 3/2 origin the series cancels large terms: two resolutions of
    # one state differ by the rounding those terms carry (2.6e-13 at the
    # lowest kept 3/2 state under JD), so that rounding is allowed on top.
    fresh = _fresh(model)
    coefficients, expected = subordinators._resolved_series(fresh, sub, states)
    terms = fresh.eigenfunction_matrix(coefficients.size - 1, states) * coefficients
    rounding = np.finfo(float).eps * np.abs(terms).sum(axis=1)
    assert np.all(np.abs(rates - expected) <= 1e-13 + rounding)


def _kept(model, sub, quoted):
    """A fresh model with the one bracket kept from the middle of the quoted
    range, and that bracket."""
    warm = _fresh(model)
    invert_short_rate(warm, sub, 0.5 * sum(quoted))
    return warm, _map(warm, sub)


def _tight_root(model, sub, bracket, quote):
    from scipy.optimize import brentq

    xs, coefficients, *_ = bracket
    return brentq(subordinators._gap(model, sub, coefficients, quote), xs[0], xs[-1], xtol=1e-14)


def test_a_sweep_closes_each_quote_in_one_evaluation_on_the_root(monkeypatch):
    # the bench's rate_sweep quotes at seed 5046, 40 per jump config in turn
    rng = np.random.default_rng(5046)
    edges = np.linspace(0.01, 0.12, 41)
    evaluations = [0]
    for cls in (CIRModel, VasicekModel):

        def counted(self, n_max, x, _original=cls.eigenfunctions):
            evaluations[0] += 1
            return _original(self, n_max, x)

        monkeypatch.setattr(cls, "eigenfunctions", counted)
    misses = []
    for model, sub, _ in JUMP_CASES[:4]:
        model = _fresh(model)
        for quote in rng.uniform(edges[:-1], edges[1:]):
            state = invert_short_rate(model, sub, quote)
            bracket = _map(model, sub)
            assert bracket[2][0] <= quote <= bracket[2][-1]
            before = evaluations[0]
            misses.append(abs(state - _tight_root(model, sub, bracket, quote)))
            evaluations[0] = before
    assert evaluations[0] / len(misses) <= 1.2
    assert len(misses) == 160 and max(misses) <= 1e-12


@pytest.mark.parametrize("model,sub,quoted", JUMP_CASES, ids=CASE_IDS)
def test_quotes_at_the_ends_and_at_the_tabulated_rates_close_on_the_root(
    monkeypatch, model, sub, quoted
):
    # The first and last two cells read one-sided differences; a tabulated
    # rate lies on a cell's end, where the Hermite seed is that end's state.
    # Each closes in one evaluation, but for the 3/2 model's first cells,
    # where r_phi bends most (two).
    warm, bracket = _kept(model, sub, quoted)
    _, _, rates, _ = bracket
    n = rates.size
    cells = (1, 2, n - 2, n - 1)
    quotes = [float(rates[k - 1] + f * (rates[k] - rates[k - 1])) for k in cells
              for f in (0.1, 0.5, 0.9)]
    quotes += [float(rates[k]) for k in (1, n // 4, n // 2, 3 * n // 4, n - 2)]
    evaluations = [0]

    def counted(self, n_max, x, _original=type(model).eigenfunctions):
        evaluations[0] += 1
        return _original(self, n_max, x)

    monkeypatch.setattr(type(model), "eigenfunctions", counted)
    for quote in quotes:
        evaluations[0] = 0
        state = invert_short_rate(warm, sub, quote)
        assert evaluations[0] <= (2 if model is TH else 1), quote
        assert abs(state - _tight_root(warm, sub, bracket, quote)) <= 1e-12, quote
    assert _map(warm, sub) is bracket  # every quote closed in it


def test_a_three_halves_quote_in_the_lowest_kept_cell_closes_like_a_fresh_model():
    # Kept from 0.0154 under JD, the lowest cell's rates start at 0.01193,
    # and a fresh model inverts its quotes from 0.012 up.  Kept from 0.012,
    # the lowest state is 0.0090, near the excluded origin, where a fresh
    # model refuses the cell's quotes.  There eps times the sum of the
    # series' |terms| reaches 2.1e-12 (at 0.0092), the gap changes sign
    # several times within 1.3e-12 of a tight Brent's root, and that
    # rounding over the slope is allowed on top.
    for kept_from, lowest in ((0.0154, 0.01155), (0.012, 0.009)):
        warm = _fresh(TH)
        invert_short_rate(warm, JD, kept_from)
        bracket = _map(warm, JD)
        xs, coefficients, rates, _ = bracket
        assert xs[0] == pytest.approx(lowest, rel=1e-12)
        chord = (rates[1] - rates[0]) / (xs[1] - xs[0])
        for f in (0.1, 0.5, 0.9):
            quote = float(rates[0] + f * (rates[1] - rates[0]))
            state = invert_short_rate(warm, JD, quote)
            assert xs[0] < state < xs[1]
            assert _map(warm, JD) is bracket
            if quote >= 0.012:
                expected, rounding = invert_short_rate(_fresh(TH), JD, quote), 0.0
            else:
                expected = _tight_root(warm, JD, bracket, quote)
                terms = warm.eigenfunctions(coefficients.size - 1, state) * coefficients
                rounding = np.finfo(float).eps * np.abs(terms).sum() / chord
            assert abs(state - expected) <= 1e-12 + rounding, (kept_from, quote)


def _wrong_slopes(slopes, wrong):
    """The kept slopes scaled, or with the one at the middle state set <= 0."""
    if wrong in ("times_3", "over_3"):
        return slopes * (3.0 if wrong == "times_3" else 1.0 / 3.0)
    changed = slopes.copy()
    changed[slopes.size // 2] = 0.0 if wrong == "zero" else -slopes[slopes.size // 2]
    return changed


@pytest.mark.parametrize("wrong", ("times_3", "over_3", "zero", "negative"))
@pytest.mark.parametrize("model,sub,quoted", JUMP_CASES, ids=CASE_IDS)
def test_wrong_kept_slopes_still_close_on_the_root(monkeypatch, model, sub, quoted, wrong):
    # the chord stands in for the seed where the Hermite seed leaves its cell
    # or an end slope is not positive, and for the first step's dx/dr where
    # the interpolant's is off the chord's by more than 2x (slopes over 3
    # give it 0 at mid-cell); the secant steps take over from a step astray
    warm, (xs, coefficients, rates, slopes) = _kept(model, sub, quoted)
    bracket = (xs, coefficients, rates, _wrong_slopes(slopes, wrong))
    bracket[3].flags.writeable = False
    spectrum(warm, sub).rate_map = bracket
    seeds = []

    def spied(*args, _original=subordinators._seed):
        seeds.append((args, _original(*args)))
        return seeds[-1][1]

    monkeypatch.setattr(subordinators, "_seed", spied)
    evaluated = []

    def counted(self, n_max, x, _original=type(model).eigenfunctions):
        evaluated.append(float(x))
        return _original(self, n_max, x)

    monkeypatch.setattr(type(model), "eigenfunctions", counted)
    middle, total = rates.size // 2, 0
    for k in (1, middle - 1, middle, middle + 1, middle + 2, rates.size - 1):
        for f in (0.2, 0.5, 0.8):
            quote = float(rates[k - 1] + f * (rates[k] - rates[k - 1]))
            evaluated.clear()
            state = invert_short_rate(warm, sub, quote)
            assert len(set(evaluated)) == len(evaluated) >= 1, quote
            assert abs(state - _tight_root(warm, sub, bracket, quote)) <= 1e-12, quote
            total += len(evaluated)
    assert _map(warm, sub) is bracket
    assert total > len(seeds)  # steps beyond the first were taken
    if wrong in ("zero", "negative"):  # the chord seeds the cells beside that slope
        chords = [lo - (r_lo - rate) * (hi - lo) / (r_hi - r_lo)
                  for (lo, hi, r_lo, r_hi, *_, rate), _ in seeds]
        assert [x for (_, (x, _)) in seeds[6:12]] == chords[6:12]


def test_two_clocks_on_one_model_keep_their_own_brackets():
    model = _fresh(CIR)
    jd, pj = invert_short_rate(model, JD, 0.05), invert_short_rate(model, PJ, 0.05)
    kept = _map(model, PJ)
    assert set(model._spectra) == {JD, PJ} and _map(model, JD) is not kept
    # a state outside the JD map grows that map alone
    short_rate_map(model, JD, 3.0)
    assert _map(model, JD)[0][-1] == 3.5 and _map(model, PJ) is kept
    assert jd == invert_short_rate(_fresh(CIR), JD, 0.05)
    assert pj == invert_short_rate(_fresh(CIR), PJ, 0.05)
    assert jd != pj


def test_refused_quotes_leave_the_cache_as_it_was():
    model = _fresh(CIR)
    state = invert_short_rate(model, JD, 0.05)
    before = _map(model, JD)
    with pytest.raises(ValidationError):
        invert_short_rate(model, JD, 500.0)
    # below r_phi(0) = 0.00592: no state, and the bracket stops at the boundary
    refusal = r"short rate 0\.004 lies below r_phi = 0\.00592473 at the lower boundary"
    with pytest.raises(BracketError, match=refusal):
        invert_short_rate(model, JD, 0.004)
    assert _map(model, JD) is before
    fresh = _fresh(CIR)
    with pytest.raises(BracketError, match=refusal):
        invert_short_rate(fresh, JD, 0.004)
    assert _map(fresh, JD) is None
    assert invert_short_rate(model, JD, 0.05) == state


def test_a_failed_growth_leaves_the_map_as_it_was():
    # near the 3/2 origin the series cancels to rounding noise: the state is
    # refused and the map kept from 0.05 stays as it was, and so does a map
    # that a state just above the origin would have started
    model = _fresh(TH)
    invert_short_rate(model, JD, 0.05)
    before = _map(model, JD)
    with pytest.raises(ValidationError):
        short_rate_map(model, JD, np.array([1e-3, 0.05]))
    assert _map(model, JD) is before
    fresh = _fresh(TH)
    with pytest.raises(ValidationError):
        short_rate_map(fresh, JD, 1e-3)
    assert _map(fresh, JD) is None


@pytest.mark.parametrize(
    "model,state,rate",
    ((TH, 3.7, 2.4332660047053483),
     (benchmark.benchmark_model("subvasicek_jd"), 22.3, 13.268568349123681)),
    ids=("3/2", "subvasicek"),
)
def test_a_state_whose_grown_grid_does_not_resolve_is_resolved_alone(model, state, rate):
    # The grid to _BRACKET_WIDTH above the state reaches where the series
    # stops resolving (3/2 past about 3.956, Vasicek past 22.55): the state
    # is read through coefficients resolved over it alone, as before the map
    # was kept (the rates are those values), and the map, fresh or kept
    # from a quote, stays as it was.
    for quote in (None, 0.05):
        model = _fresh(model)
        if quote is not None:
            invert_short_rate(model, JD, quote)
        before = _map(model, JD)
        assert short_rate_map(model, JD, state) == pytest.approx(rate, abs=1e-13)
        assert short_rate_map(model, JD, np.array([state]))[0] == pytest.approx(rate, abs=1e-13)
        assert _map(model, JD) is before


def test_a_growth_that_does_not_meet_the_map_replaces_it(monkeypatch):
    # Kept from the quote 0.05, the CIR map covers [0, 0.55]; the state 3.0
    # grows a grid over [3.0, 3.5] that does not meet it and replaces it, so
    # the map never spans a gap that no resolution checked.  A quote and a
    # state between them then close and map as on a fresh model.
    model = _fresh(CIR)
    invert_short_rate(model, JD, 0.05)
    short_rate_map(model, JD, 3.0)
    fresh = _fresh(CIR)
    short_rate_map(fresh, JD, 3.0)
    for kept, alone in zip(_map(model, JD), _map(fresh, JD)):
        assert np.array_equal(kept, alone)
    quote = short_rate_map(_fresh(CIR), JD, 1.5)
    resolved = []

    def counted(model, sub, xs, _original=subordinators._resolved_series):
        resolved.append(xs.copy())
        return _original(model, sub, xs)

    monkeypatch.setattr(subordinators, "_resolved_series", counted)
    state = invert_short_rate(model, JD, quote)
    rate = short_rate_map(model, JD, 1.6)
    states = _map(model, JD)[0]
    assert len(resolved) == 1  # the quote's walk covers the state
    assert np.diff(states).max() <= 2 * subordinators._BRACKET_WIDTH / (states.size - 1)
    monkeypatch.undo()
    assert abs(state - invert_short_rate(_fresh(CIR), JD, quote)) <= 1e-14
    assert abs(state - 1.5) <= 1e-12
    assert rate == pytest.approx(short_rate_map(_fresh(CIR), JD, 1.6), abs=1e-13)


@pytest.mark.parametrize("state", (0.0125, 0.02))
def test_a_fresh_map_grows_upward_from_the_lowest_state(state):
    # Grown down by _BRACKET_WIDTH as well, the grid would reach the 3/2
    # origin, where 0.0125 is not resolved by n=16383 and 0.02 cancels to
    # rounding noise; a state resolved alone maps through the grown map.
    model = ThreeHalvesModel(2.0, 0.06, 0.5)
    rate = short_rate_map(model, JD, state)
    xs = _map(model, JD)[0]
    assert xs[0] == state and xs[-1] == state + subordinators._BRACKET_WIDTH
    coefficients, (alone,) = subordinators._resolved_series(_fresh(model), JD, np.array([state]))
    terms = model.eigenfunctions(coefficients.size - 1, state) * coefficients
    assert abs(rate - alone) <= 1e-13 + np.finfo(float).eps * np.abs(terms).sum()


def test_a_plain_clock_refuses_a_rate_that_is_not_a_state():
    # the rate is the state: a negative CIR rate, and the excluded 3/2 origin
    for model, rate in ((CIR, -0.01), (TH, 0.0)):
        with pytest.raises(ValidationError, match="outside the"):
            invert_short_rate(model, NONE, rate)
    assert invert_short_rate(VAS, NONE, -0.01) == -0.01
    assert invert_short_rate(TH, NONE, 0.02) == 0.02


def test_cached_brackets_are_read_only():
    model = _fresh(VAS)
    invert_short_rate(model, PJ, 0.05)
    kept = _map(model, PJ)
    assert len(kept) == 4  # states, coefficients, rates, slopes
    for array in kept:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0
