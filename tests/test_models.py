import math

import numpy as np
import pytest
from scipy import integrate

from eigenbond import models, specfun
from eigenbond.coeffs import overlap_matrix
from eigenbond.errors import UnsupportedModelError, ValidationError
from eigenbond.models import POOL_CAP, CIRModel, ThreeHalvesModel, VasicekModel, make_model
from eigenbond.oracle import short_rate_quadrature
from eigenbond.subordinators import SubordinatorSpec, short_rate_map

CIR = CIRModel(kappa=0.14294371, theta=0.133976855, sigma=0.38757496)
VAS = VasicekModel(kappa=0.44178462, theta=0.098397028, sigma=0.13264223)
TH = ThreeHalvesModel(kappa=2.0, theta=0.05, sigma=0.5)
ALL = (CIR, VAS, TH)


def test_make_model_dispatch():
    assert make_model("cir", 1.0, 0.05, 0.1).kind == "cir"
    assert make_model("VASICEK", 1.0, 0.05, 0.1).kind == "vasicek"
    with pytest.raises(ValidationError):
        make_model("hull_white", 1.0, 0.05, 0.1)
    with pytest.raises(ValidationError):
        make_model("cir", -1.0, 0.05, 0.1)


def test_cir_eigenvalue_gap_is_gamma():
    gap = CIR.eigenvalue(1) - CIR.eigenvalue(0)
    expected = math.sqrt(0.14294371**2 + 2.0 * 0.38757496**2)
    assert gap == pytest.approx(expected, rel=1e-14)


def test_vasicek_bottom_eigenvalue():
    expected = 0.098397028 - 0.13264223**2 / (2.0 * 0.44178462**2)
    assert VAS.eigenvalue(0) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("model", ALL, ids=lambda m: m.kind)
def test_affine_spectrum(model):
    lam = model.eigenvalues(200)
    gaps = np.diff(lam)
    assert np.max(np.abs(gaps - gaps[0])) <= 1e-12 * abs(gaps[0])
    assert np.all(gaps > 0.0)


def test_threehalves_gap_is_kappa_theta():
    gap = TH.eigenvalue(1) - TH.eigenvalue(0)
    assert gap == pytest.approx(TH.kappa * TH.theta, rel=1e-14)


def test_cir_ground_eigenfunction_shape():
    # degree-zero Laguerre polynomial is 1, so phi_0 is a pure exponential
    xs = np.array([0.0, 0.03, 0.2, 0.9])
    phi0 = np.array([CIR.eigenfunctions(0, float(x))[0] for x in xs])
    n0 = phi0[0]
    expected = n0 * np.exp((CIR.kappa - CIR.gamma) * xs / CIR.sigma**2)
    np.testing.assert_allclose(phi0, expected, rtol=1e-13)


@pytest.mark.parametrize("model", ALL, ids=lambda m: m.kind)
def test_orthonormality(model):
    om = overlap_matrix(model, 30, model.state_lo, model.state_hi)
    assert np.max(np.abs(om - np.eye(31))) <= 1e-8


@pytest.mark.parametrize("model", ALL, ids=lambda m: m.kind)
def test_eigenfunction_matrix_agrees_pointwise(model):
    # one state and an array of states take one code path, so the short-rate
    # map's matrix sum and its inverse's scalar gap are the same function
    xs = model.stationary_distribution().rvs(2000, random_state=np.random.default_rng(2012))
    mat = model.eigenfunction_matrix(40, xs)
    for j, x in enumerate(xs):
        np.testing.assert_array_equal(mat[j], model.eigenfunctions(40, float(x)))


@pytest.mark.parametrize("model", ALL, ids=lambda m: m.kind)
def test_eigenfunction_terms_agree_with_eigenfunctions(model):
    # the pricer's scalar series at unit weights: a plain float, the
    # left-to-right sum of ``eigenfunctions`` up to its stop level
    xs = model.stationary_distribution().rvs(500, random_state=np.random.default_rng(2013))
    for x in xs:
        value, slope, level, _ = model.series_sum([1.0] * 61, float(x), 1e-7)
        assert type(value) is float and type(slope) is float
        total = 0.0
        for phi in model.eigenfunctions(60, float(x))[: level + 1].tolist():
            total += phi
        assert value == total
    with pytest.raises(ValidationError):
        model.series_sum([1.0] * 6, math.nan, 1e-7)


@pytest.mark.parametrize("model", ALL, ids=lambda m: m.kind)
def test_series_terms_carry_the_slope_of_each_partial_sum(model):
    # the slope the break-even search's Newton steps read: the differentiated
    # recurrence's sum to the stop level against a central difference of the
    # same partial sum, on random-sign weights, decaying (the rule fires) and
    # not (it does not)
    rng = np.random.default_rng(2014)
    signs = rng.choice([-1.0, 1.0], 41)
    outcomes = set()
    for weights in (rng.standard_normal(41), signs * 0.6 ** np.arange(41)):
        for x in model.stationary_distribution().ppf([0.01, 0.25, 0.5, 0.75, 0.99]):
            x = float(x)
            _, slope, level, converged = model.series_sum(weights.tolist(), x, 1e-7)
            outcomes.add(converged)
            h = min(1e-6 * max(abs(x), 0.01), 0.5 * (x - model.state_lo))
            up, down = (np.cumsum(weights * model.eigenfunctions(40, x + s)) for s in (h, -h))
            central = (up - down) / (2.0 * h)
            scale = np.max(np.abs(central))
            assert slope == pytest.approx(central[level], rel=0.0, abs=1e-7 * scale)
    assert outcomes == {True, False}


@pytest.mark.parametrize("model", ALL, ids=lambda m: m.kind)
def test_coordinate_and_prefactor_slopes_are_their_derivatives(model):
    for x in model.stationary_distribution().ppf([0.01, 0.25, 0.5, 0.75, 0.99]):
        h = min(1e-6 * max(abs(x), 0.01), 0.5 * (x - model.state_lo))
        dz = (model.poly_coordinate(x + h) - model.poly_coordinate(x - h)) / (2.0 * h)
        log_prefactor = lambda y: math.log(float(model._prefactor(y)))
        dlog = (log_prefactor(x + h) - log_prefactor(x - h)) / (2.0 * h)
        assert model.coordinate_slope(x) == pytest.approx(dz, rel=1e-7)
        assert model.prefactor_log_slope(x) == pytest.approx(dlog, rel=1e-6)


# Reference copy of the eigenfunction kernel's recursion in numpy: one array
# row per degree, every coefficient recomputed per degree, with the
# prefactor from numpy for one state and for many.  The kernel keeps its
# order of operations, N_n = (a_n + (s - z) b_n) N_{n-1} - c_n N_{n-2}, so
# its values match bit for bit.


def _reference_step(n0, shift, coefficients, n_max, z):
    out = np.empty((n_max + 1,) + z.shape)
    out[0] = n0
    prev = np.zeros(z.shape)
    for n in range(1, n_max + 1):
        a, b, c = coefficients(n)
        out[n] = (a + (shift - z) * b) * out[n - 1] - c * prev
        prev = out[n - 1]
    return out


def _reference_laguerre(model, alpha, n_max, z):
    def coefficients(n):
        r1 = math.sqrt(n / (alpha + n))
        r2 = math.sqrt(n * (n - 1.0) / ((alpha + n) * (alpha + n - 1.0)))
        return 2.0 * r1, r1 / n, (1.0 + (alpha - 1.0) / n) * r2

    n0 = math.exp(model.log_norm_constants(0)[0])
    return _reference_step(n0, alpha - 1.0, coefficients, n_max, z)


def _reference_cir(model, n_max, x):
    u = np.asarray(2.0 * model.gamma * np.asarray(x, dtype=float) / model.sigma**2)
    out = _reference_laguerre(model, model.b - 1.0, n_max, u)
    return (np.exp((model.kappa - model.gamma) * x / model.sigma**2) * out).T


def _reference_vasicek(model, n_max, x):
    a = model.hermite_shift
    xi = math.sqrt(model.kappa) / model.sigma * (np.asarray(x, dtype=float) - model.theta)
    n0 = math.exp(model.log_norm_constants(0)[0])
    out = _reference_step(
        n0, 0.0, lambda n: (0.0, -math.sqrt(2.0 / n), math.sqrt((n - 1.0) / n)), n_max, xi + a
    )
    return (np.exp(-a * xi - 0.5 * a * a) * out).T


def _reference_three_halves(model, n_max, x):
    v = model.beta / np.asarray(x, dtype=float)
    out = _reference_laguerre(model, 2.0 * model.order_m, n_max, v)
    return (np.power(x, model.alpha - model.order_m - 0.5) * out).T


# The classical-order recursions the kernel replaced: degree 1 written out,
# and (2 + (s - z)/n) r1_n N_{n-1} - (1 + s/n) r2_n N_{n-2} from degree 2.
# Their rounding differs from the kernel's, so they agree to a tolerance.


def _classical_laguerre(n0, alpha, n_max, z):
    out = np.empty((n_max + 1,) + z.shape)
    out[0] = n0
    if n_max >= 1:
        out[1] = (-z + alpha + 1.0) * math.sqrt(1.0 / (alpha + 1.0)) * n0
    for n in range(2, n_max + 1):
        r1 = math.sqrt(n / (alpha + n))
        r2 = math.sqrt(n * (n - 1.0) / ((alpha + n) * (alpha + n - 1.0)))
        out[n] = (2.0 + (alpha - 1.0 - z) / n) * r1 * out[n - 1] - (
            1.0 + (alpha - 1.0) / n
        ) * r2 * out[n - 2]
    return out


def _classical_cir(model, n_max, x):
    u = np.asarray(2.0 * model.gamma * np.asarray(x, dtype=float) / model.sigma**2)
    b, s2 = model.b, model.sigma**2
    n0 = math.exp(
        0.5 * (math.log(s2) - math.log(2.0) - math.lgamma(b))
        + 0.5 * b * math.log(2.0 * model.gamma / s2)
    )
    out = _classical_laguerre(n0, b - 1.0, n_max, u)
    return (np.exp((model.kappa - model.gamma) * x / model.sigma**2) * out).T


def _classical_vasicek(model, n_max, x):
    a = model.hermite_shift
    xi = math.sqrt(model.kappa) / model.sigma * (np.asarray(x, dtype=float) - model.theta)
    w = xi + a
    out = np.empty((n_max + 1,) + w.shape)
    n0 = math.sqrt(math.sqrt(model.kappa / math.pi) * model.sigma / 2.0)
    out[0] = np.full(w.shape, n0)
    if n_max >= 1:
        out[1] = w * math.sqrt(2.0) * n0
    for n in range(2, n_max + 1):
        out[n] = w * math.sqrt(2.0 / n) * out[n - 1] - math.sqrt((n - 1.0) / n) * out[n - 2]
    return (np.exp(-a * xi - 0.5 * a * a) * out).T


def _classical_three_halves(model, n_max, x):
    v = model.beta / np.asarray(x, dtype=float)
    two_m = 2.0 * model.order_m
    n0 = math.exp(
        0.5
        * (
            math.log(model.sigma**2)
            + (two_m + 1.0) * math.log(model.beta)
            - math.log(2.0)
            - math.lgamma(two_m + 1.0)
        )
    )
    out = _classical_laguerre(n0, two_m, n_max, v)
    return (np.power(x, model.alpha - model.order_m - 0.5) * out).T


_GRID = tuple(np.linspace(0.0, 1.0, 41)[1:])
_REFERENCE_CASES = (
    (CIR, _reference_cir, _classical_cir, (0.0, 1e-9, 0.02, 0.133976855, 0.7, 3.0) + _GRID),
    (VAS, _reference_vasicek, _classical_vasicek, (-0.4, -0.05, 0.0, 0.098397028, 0.31, 1.2) + _GRID),
    (TH, _reference_three_halves, _classical_three_halves, (0.0101, 0.02, 0.05, 0.3, 2.0) + _GRID),
)
_REFERENCE_IDS = [case[0].kind for case in _REFERENCE_CASES]


@pytest.mark.parametrize("n_max", (0, 1, 2, 64, 300))
@pytest.mark.parametrize("model,reference,_,xs", _REFERENCE_CASES, ids=_REFERENCE_IDS)
def test_kernel_matches_numpy_recursion_bit_for_bit(model, reference, _, xs, n_max):
    for x in xs:
        np.testing.assert_array_equal(model.eigenfunctions(n_max, x), reference(model, n_max, x))
    grid = np.array(xs)
    np.testing.assert_array_equal(
        model.eigenfunction_matrix(n_max, grid), reference(model, n_max, grid)
    )


@pytest.mark.parametrize("n_max", (0, 1, 2, 64, 300))
@pytest.mark.parametrize("model,_,classical,xs", _REFERENCE_CASES, ids=_REFERENCE_IDS)
def test_kernel_matches_the_classical_order_recursion(model, _, classical, xs, n_max):
    # the step (a_n + (s - z) b_n) rounds apart from (2 + (s - z)/n) r1_n and
    # from the written-out degree 1; measured at most 1.0e-13 (3/2, n = 300)
    grid = np.array(xs)
    kernel, reference = model.eigenfunction_matrix(n_max, grid), classical(model, n_max, grid)
    assert np.max(np.abs(kernel - reference)) <= 1e-12 * np.max(np.abs(reference))


@pytest.mark.parametrize("model", ALL, ids=lambda m: m.kind)
def test_eigenfunctions_are_the_normalized_classical_polynomials(model):
    # phi_n = prefactor N_n P_n(coordinate), P_n from the unnormalized
    # recursions of specfun and N_n from log_norm_constants
    norms = np.exp(model.log_norm_constants(40))
    for x in model.stationary_distribution().ppf([0.01, 0.25, 0.5, 0.75, 0.99]):
        z = model.poly_coordinate(x)
        if model.polynomial_family == "hermite":
            polynomials = specfun.hermite_sequence(40, z)
        else:
            polynomials = specfun.laguerre_sequence(40, model.laguerre_order, z)
        expected = model._prefactor(x) * norms * polynomials
        phi = model.eigenfunctions(40, x)
        assert np.max(np.abs(phi - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_recurrence_coefficients_are_built_on_use_and_grown():
    model = CIRModel(kappa=0.3, theta=0.05, sigma=0.2)
    assert "_recurrence" not in vars(model)  # nothing built at construction
    short = model.eigenfunctions(10, 0.05)
    lists = model._recurrence.upto(0)
    assert [len(values) for values in lists] == [11, 11, 11]
    long = model.eigenfunctions(40, 0.05)
    lists = model._recurrence.upto(0)
    assert [len(values) for values in lists] == [41, 41, 41]
    np.testing.assert_array_equal(long[:11], short)
    np.testing.assert_array_equal(long, _reference_cir(model, 40, 0.05))


def test_cir_unit_coefficient_signs_alternate():
    p = CIR.unit_payoff_coefficients(9)
    assert np.all(np.sign(p) == np.where(np.arange(10) % 2 == 0, 1.0, -1.0))


@pytest.mark.parametrize("model,x", [(CIR, 0.05), (VAS, 0.05), (TH, 0.05)], ids=lambda v: getattr(v, "kind", v))
def test_unit_payoff_completeness(model, x):
    p = model.unit_payoff_coefficients(100)
    phi = model.eigenfunctions(100, x)
    assert float(np.sum(p * phi)) == pytest.approx(1.0, abs=1e-6)


def test_vasicek_p0_closed_form():
    a = VAS.hermite_shift
    n0 = math.sqrt(math.sqrt(VAS.kappa / math.pi) * VAS.sigma / 2.0)
    expected = 2.0 / VAS.sigma * math.sqrt(math.pi / VAS.kappa) * n0 * math.exp(-0.25 * a * a)
    assert VAS.unit_payoff_coefficients(0)[0] == pytest.approx(expected, rel=1e-13)


def test_unit_payoff_against_quadrature():
    for model, lo, hi in ((CIR, 0.0, 60.0), (VAS, -2.5, 2.7), (TH, 1e-4, 40.0)):
        phi3 = lambda z: model.eigenfunctions(3, z)[3] * model.speed_density(z)
        val, _ = integrate.quad(phi3, lo, hi, epsabs=1e-12, epsrel=1e-11, limit=400)
        assert model.unit_payoff_coefficients(3)[3] == pytest.approx(val, rel=1e-9, abs=5e-9)


# Laguerre orders 249 and 402: log-gammas up to 1.6e4 at POOL_CAP
LARGE_ORDERS = (CIRModel(1.0, 0.05, 0.02), ThreeHalvesModel(2.0, 0.06, 0.1))


def test_lgamma_per_entry_matches_scipy_gammaln():
    from scipy.special import gammaln

    for shift in (1.0, 0.255, 0.5, 17.9, 250.0, 403.0):
        x = np.arange(POOL_CAP + 1) + shift
        ref = gammaln(x)
        assert np.all(np.abs(models._lgamma(x) - ref) <= 4.0 * np.spacing(np.maximum(np.abs(ref), 1.0)))


@pytest.mark.parametrize(
    "model", ALL + LARGE_ORDERS, ids=("cir", "vasicek", "three_halves", "cir_b250", "three_halves_402")
)
def test_norm_constants_and_payoff_coefficients_match_scipy_gammaln(monkeypatch, model):
    # each entry sums log-gammas up to lgamma(n + order + 1), which both
    # routines round to within a few ulps, and logs of the parameters: the
    # entries agree to a few ulps of that magnitude (1.8e-12 at POOL_CAP
    # and order 402)
    from scipy.special import gammaln

    log_n = model.log_norm_constants(POOL_CAP)
    p = model.unit_payoff_coefficients(POOL_CAP)
    monkeypatch.setattr(models, "_lgamma", gammaln)
    ref_log_n = model.log_norm_constants(POOL_CAP)
    ref_p = model.unit_payoff_coefficients(POOL_CAP)
    n = np.arange(POOL_CAP + 1)
    ulp = np.spacing(np.abs(gammaln(n + getattr(model, "laguerre_order", 0.0) + 2.0)) + 8.0)
    assert np.all(np.abs(log_n - ref_log_n) <= 8.0 * ulp)
    kept = ref_p != 0.0
    assert np.all(np.sign(p) == np.sign(ref_p)) and np.all(np.abs(p[~kept]) <= 1e-300)
    rel = np.abs(np.log(np.abs(p[kept])) - np.log(np.abs(ref_p[kept])))
    assert np.all(rel <= 16.0 * ulp[kept])


def test_closed_form_bond_at_zero_maturity():
    assert float(CIR.closed_form_bond(0.0, 0.37)) == pytest.approx(1.0, abs=1e-14)
    assert float(VAS.closed_form_bond(0.0, -0.1)) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("t", (math.inf, math.nan))
def test_closed_form_bond_refuses_a_non_finite_maturity(t):
    # both returned nan
    for model in (CIR, VAS):
        with pytest.raises(ValidationError, match="maturity must be >= 0 and finite"):
            model.closed_form_bond(t, 0.05)


def test_cir_bond_factors_direct_evaluation():
    g, b = CIR.gamma, CIR.b
    t = 1.0
    denom = (g + CIR.kappa) * (math.exp(g * t) - 1.0) + 2.0 * g
    a_ref = (2.0 * g * math.exp(0.5 * (CIR.kappa + g) * t) / denom) ** b
    b_ref = 2.0 * (math.exp(g * t) - 1.0) / denom
    assert float(CIR.closed_form_bond(1.0, 0.05)) == pytest.approx(
        a_ref * math.exp(-b_ref * 0.05), rel=1e-14
    )


@pytest.mark.parametrize("model,grid", [(CIR, np.linspace(0.0, 1.0, 21)), (VAS, np.linspace(-0.2, 0.3, 21))], ids=("cir", "vasicek"))
def test_bond_decreasing_in_state(model, grid):
    vals = model.closed_form_bond(2.0, grid)
    assert np.all(np.diff(vals) < 0.0)
    assert np.all(vals > 0.0)


def test_threehalves_has_no_affine_bond():
    with pytest.raises(UnsupportedModelError):
        TH.closed_form_bond(1.0, 0.05)


def test_cir_speed_density_at_long_run_level():
    s2 = CIR.sigma**2
    expected = 2.0 / s2 * CIR.theta ** (CIR.b - 1.0) * math.exp(-2.0 * CIR.kappa * CIR.theta / s2)
    assert float(CIR.speed_density(CIR.theta)) == pytest.approx(expected, rel=1e-14)


def test_vasicek_speed_density_symmetry():
    for d in (0.01, 0.1, 0.5):
        assert float(VAS.speed_density(VAS.theta + d)) == pytest.approx(
            float(VAS.speed_density(VAS.theta - d)), rel=1e-14
        )


@pytest.mark.parametrize("model,lo,hi", [(CIR, 0.0, 80.0), (VAS, -3.0, 3.2), (TH, 1e-5, 200.0)], ids=lambda v: getattr(v, "kind", v))
def test_speed_mass_quadrature(model, lo, hi):
    val, _ = integrate.quad(lambda z: float(model.speed_density(z)), lo, hi, epsabs=1e-10, epsrel=1e-10, limit=400)
    assert val == pytest.approx(model.speed_mass(), rel=1e-8)


def test_benchmark_cir_has_reflecting_origin():
    # the published parameter set violates the Feller condition, so the
    # origin is a regular reflecting boundary and x=0 is a valid state
    assert CIR.b < 1.0
    assert CIR.contains(0.0)
    assert np.isfinite(CIR.eigenfunctions(5, 0.0)).all()


_JD = SubordinatorSpec.inverse_gaussian(drift=0.5, mu=0.5, nu_var=1.0)


@pytest.mark.parametrize(
    "call",
    (
        lambda: CIR.eigenfunction_matrix(3, [0.05, -1.0]),
        lambda: CIR.eigenfunctions(3, math.inf),
        lambda: CIR.series_sum([1.0] * 4, math.inf, 1e-7),
        lambda: CIR.eigenfunction_matrix(3, [0.05, math.nan]),
        lambda: short_rate_map(TH, SubordinatorSpec.none(), math.inf),
        lambda: short_rate_quadrature(CIR, _JD, math.inf),
        lambda: VAS.check_state(-math.inf),
        lambda: TH.check_state(0.0),
    ),
    ids=("matrix_negative", "rows_inf", "terms_inf", "matrix_nan", "rate_map_inf",
         "rate_quadrature_inf", "check_vasicek_-inf", "check_three_halves_origin"),
)
def test_one_state_check_refuses_non_finite_and_outside_states(call):
    # the matrix returned a row at the negative state; the rows and terms at
    # inf were [0, nan, nan, nan]; both short-rate maps returned inf
    with pytest.raises(ValidationError, match="state space .* or not finite"):
        call()


def test_state_space_validation():
    with pytest.raises(ValidationError):
        CIR.eigenfunctions(3, -0.01)
    with pytest.raises(ValidationError):
        TH.eigenfunctions(3, 0.0)
    with pytest.raises(ValidationError):
        TH.speed_density(-1.0)
