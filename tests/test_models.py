import math

import numpy as np
import pytest
from scipy import integrate

from eigenbond.coeffs import overlap_matrix
from eigenbond.errors import UnsupportedModelError, ValidationError
from eigenbond.models import CIRModel, ThreeHalvesModel, VasicekModel, make_model

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
    # the pricer's streamed series draws these plain floats one at a time
    xs = model.stationary_distribution().rvs(500, random_state=np.random.default_rng(2013))
    for x in xs:
        streamed = list(model.eigenfunction_terms(60, float(x)))
        assert all(type(value) is float for value in streamed)
        np.testing.assert_array_equal(streamed, model.eigenfunctions(60, float(x)))
    with pytest.raises(ValidationError):
        model.eigenfunction_terms(5, math.nan)


# Reference copy of the numpy recursions the eigenfunction kernel replaced:
# one array row per degree, every coefficient recomputed per degree, with
# the prefactor from numpy for one state and for many.  The kernel keeps
# their order of operations, so its values match bit for bit.


def _reference_cir(model, n_max, x):
    u = np.asarray(2.0 * model.gamma * np.asarray(x, dtype=float) / model.sigma**2)
    b = model.b
    out = np.empty((n_max + 1,) + u.shape)
    s2 = model.sigma**2
    n0 = math.exp(
        0.5 * (math.log(s2) - math.log(2.0) - math.lgamma(b))
        + 0.5 * b * math.log(2.0 * model.gamma / s2)
    )
    out[0] = n0
    if n_max >= 1:
        out[1] = (-u + b) * math.sqrt(1.0 / b) * n0
    for n in range(2, n_max + 1):
        r1 = math.sqrt(n / (b + n - 1.0))
        r2 = math.sqrt(n * (n - 1.0) / ((b + n - 1.0) * (b + n - 2.0)))
        out[n] = (2.0 + (b - 2.0 - u) / n) * r1 * out[n - 1] - (
            1.0 + (b - 2.0) / n
        ) * r2 * out[n - 2]
    return (np.exp((model.kappa - model.gamma) * x / model.sigma**2) * out).T


def _reference_vasicek(model, n_max, x):
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


def _reference_three_halves(model, n_max, x):
    v = model.beta / np.asarray(x, dtype=float)
    two_m = 2.0 * model.order_m
    out = np.empty((n_max + 1,) + v.shape)
    n0 = math.exp(
        0.5
        * (
            math.log(model.sigma**2)
            + (two_m + 1.0) * math.log(model.beta)
            - math.log(2.0)
            - math.lgamma(two_m + 1.0)
        )
    )
    out[0] = np.full(v.shape, n0)
    if n_max >= 1:
        out[1] = (-v + two_m + 1.0) * math.sqrt(1.0 / (two_m + 1.0)) * n0
    for n in range(2, n_max + 1):
        r1 = math.sqrt(n / (two_m + n))
        r2 = math.sqrt(n * (n - 1.0) / ((two_m + n) * (two_m + n - 1.0)))
        out[n] = (2.0 + (two_m - 1.0 - v) / n) * r1 * out[n - 1] - (
            1.0 + (two_m - 1.0) / n
        ) * r2 * out[n - 2]
    return (np.power(x, model.alpha - model.order_m - 0.5) * out).T


_GRID = tuple(np.linspace(0.0, 1.0, 41)[1:])
_REFERENCE_CASES = (
    (CIR, _reference_cir, (0.0, 1e-9, 0.02, 0.133976855, 0.7, 3.0) + _GRID),
    (VAS, _reference_vasicek, (-0.4, -0.05, 0.0, 0.098397028, 0.31, 1.2) + _GRID),
    (TH, _reference_three_halves, (0.0101, 0.02, 0.05, 0.3, 2.0) + _GRID),
)


@pytest.mark.parametrize("n_max", (0, 1, 2, 64, 300))
@pytest.mark.parametrize(
    "model,reference,xs", _REFERENCE_CASES, ids=[case[0].kind for case in _REFERENCE_CASES]
)
def test_kernel_matches_numpy_recursion_bit_for_bit(model, reference, xs, n_max):
    for x in xs:
        np.testing.assert_array_equal(model.eigenfunctions(n_max, x), reference(model, n_max, x))
    grid = np.array(xs)
    np.testing.assert_array_equal(
        model.eigenfunction_matrix(n_max, grid), reference(model, n_max, grid)
    )


def test_recurrence_coefficients_are_built_on_use_and_grown():
    model = CIRModel(kappa=0.3, theta=0.05, sigma=0.2)
    assert "_recurrence" not in vars(model)  # nothing built at construction
    short = model.eigenfunctions(10, 0.05)
    first, _ = model._recurrence.upto(0)
    assert len(first) == 11
    long = model.eigenfunctions(40, 0.05)
    first, _ = model._recurrence.upto(0)
    assert len(first) == 41
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


def test_closed_form_bond_at_zero_maturity():
    assert float(CIR.closed_form_bond(0.0, 0.37)) == pytest.approx(1.0, abs=1e-14)
    assert float(VAS.closed_form_bond(0.0, -0.1)) == pytest.approx(1.0, abs=1e-14)


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


def test_state_space_validation():
    with pytest.raises(ValidationError):
        CIR.eigenfunctions(3, -0.01)
    with pytest.raises(ValidationError):
        TH.eigenfunctions(3, 0.0)
    with pytest.raises(ValidationError):
        TH.speed_density(-1.0)
