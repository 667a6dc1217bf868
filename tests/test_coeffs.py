import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import integrate
from scipy import special as sp

from eigenbond import coeffs, series
from eigenbond.pricer import zero_coupon_price
from eigenbond.errors import ValidationError
from eigenbond.models import (
    POOL_CAP,
    CIRModel,
    ThreeHalvesModel,
    VasicekModel,
    _kernel,
    _laguerre_coefficients,
    _Recurrence,
)
from eigenbond.specfun import hermite_sequence, laguerre_sequence, lower_incomplete_gamma
from eigenbond.subordinators import SubordinatorSpec, laplace_exponent, spectrum

CIR = CIRModel(kappa=0.14294371, theta=0.133976855, sigma=0.38757496)
VAS = VasicekModel(kappa=0.44178462, theta=0.098397028, sigma=0.13264223)
TH = ThreeHalvesModel(kappa=2.0, theta=0.05, sigma=0.5)
# Laguerre orders 249, 168.5 and 402, where Gamma(alpha + n + 1) leaves double range
B250 = CIRModel(kappa=1.0, theta=0.05, sigma=0.02)
TH_168 = ThreeHalvesModel(kappa=2.0, theta=0.06, sigma=0.155)
TH_402 = ThreeHalvesModel(kappa=2.0, theta=0.06, sigma=0.1)
NONE = SubordinatorSpec.none()
JD = SubordinatorSpec.inverse_gaussian(drift=0.5, mu=0.5, nu_var=1.0)
DELTA = 0.1666


def quad(f, lo, hi):
    val, _ = integrate.quad(f, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=400)
    return val


def _hermite_norm(n: int) -> float:
    """sqrt(sqrt(pi) 2^n n!): the Hermite tables are in orthonormal form, and
    times these norms they are the integrals of the raw H_n."""
    return math.sqrt(math.sqrt(math.pi) * 2.0**n * math.factorial(n))


# ---------------------------------------------------------------------------
# The regularized incomplete gamma P(a, z)
# ---------------------------------------------------------------------------

# a = alpha + 1 over the orders the models reach: 0.255 (benchmark CIR,
# alpha = -0.745), 1, 17.9 (about the 3/2 test models' order), 170, 250 (CIR
# b = 250) and 403 (the 3/2 model at order 402)
P_ORDERS = (0.255, 1.0, 17.9, 170.0, 250.0, 403.0)


def _mp_regularized_lower_gamma(a, z):
    with mpmath.workdps(40):
        value = mpmath.gammainc(mpmath.mpf(a), 0, mpmath.mpf(z), regularized=True)
        return float(value), (-float(mpmath.log(value)) if value > 0 else math.inf)


@pytest.mark.parametrize("a", P_ORDERS)
def test_regularized_lower_gamma_against_mpmath(a):
    # z from the least positive float to the clamp of _laguerre_rows at
    # POOL_CAP, through z = a (Temme's expansion past a = 20) and both sides
    # of z = a + 1, where the series hands over to the continued fraction.
    # Within 1e-14 relative; a P below e^-22 is formed as exp(y), and the
    # double y carries |y| 2^-53 of rounding, which it may show 4 times over
    # (scipy's gammainc misses P(403, 148) by 6e-13).
    clamp = 4.0 * (2.0 * POOL_CAP + a) + 80.0
    zs = [5e-324, 1e-300, 1e-30, 1e-8, *np.geomspace(1e-3, clamp, 40)]
    zs += [*(a * (1.0 + np.linspace(-0.5, 0.5, 21))), a + 1.0, math.nextafter(a + 1.0, 0.0)]
    for z in map(float, zs):
        ref, log_ref = _mp_regularized_lower_gamma(a, z)
        got = coeffs.regularized_lower_gamma(a, z)
        if ref < sys.float_info.min:  # below the normal range
            assert abs(got - ref) <= 1e-300, (z, got, ref)
        else:
            tol = max(1e-14, 4.0 * log_ref * 2.0**-53)
            assert abs(got - ref) <= tol * ref, (z, got, ref)


@pytest.mark.parametrize("t", (-0.9, -0.5, -0.3, -1e-4, -1e-12, 1e-12, 1e-4, 0.3, 1.0, 3.0))
def test_log1pmx_against_mpmath(t):
    with mpmath.workdps(40):
        ref = float(mpmath.log1p(mpmath.mpf(t)) - mpmath.mpf(t))
    assert coeffs._log1pmx(t) == pytest.approx(ref, rel=4e-16)


def _series_product(a, b, size):
    out = [Fraction(0)] * size
    for i, x in enumerate(a[:size]):
        for j, y in enumerate(b[: size - i]):
            out[i + j] += x * y
    return out


def _temme_terms(lengths):
    """d[k][n] of Temme's expansion in exact rationals.  lambda - 1 = mu(eta)
    solves mu - log(1 + mu) = eta^2 / 2 by series reversion; c_0 = 1/mu - 1/eta;
    c_k = c_{k-1}' / eta + (-1)^k g_k / mu, whose pole at eta = 0 cancels only
    for g_k = (-1)^(k+1) d[k-1][1], so d[k][n] = (n + 2) d[k-1][n+2] + (-1)^k g_k d[0][n]."""
    size = max(n + 2 * k for k, n in enumerate(lengths)) + 2
    mu = [Fraction(0), Fraction(1)] + [Fraction(0)] * size
    for p in range(2, size + 1):
        # the coefficient of eta^(p+1) in sum_r (-1)^r mu^r / r, r >= 2, with mu_p = 0,
        # is -mu_p: mu_p enters it through mu^2 / 2 alone
        power, total = mu[: p + 2], Fraction(0)
        for r in range(2, p + 2):
            power = _series_product(power, mu[: p + 2], p + 2)
            total += Fraction((-1) ** r, r) * power[p + 1]
        mu[p] = -total
    inverse = [Fraction(1)] + [Fraction(0)] * size  # eta / mu
    for n in range(1, size + 1):
        inverse[n] = -sum(mu[j + 1] * inverse[n - j] for j in range(1, n + 1))
    rows = [inverse[1:]]
    for k in range(1, len(lengths)):
        prev, g = rows[-1], (-1) ** (k + 1) * rows[-1][1]
        rows.append([(n + 2) * prev[n + 2] + (-1) ** k * g * rows[0][n] for n in range(len(prev) - 2)])
    stirling = [Fraction(1, 12), Fraction(1, 288), Fraction(-139, 51840), Fraction(-571, 2488320)]
    assert [(-1) ** (k + 1) * rows[k - 1][1] for k in range(1, 5)] == stirling
    return [row[:n] for row, n in zip(rows, lengths)]


def test_temme_terms_are_the_exact_coefficients_rounded():
    lengths = [len(row) for row in coeffs._TEMME_TERMS]
    exact = _temme_terms(lengths)
    assert [list(row) for row in coeffs._TEMME_TERMS] == [[float(d) for d in row] for row in exact]


# ---------------------------------------------------------------------------
# Laguerre pair integrals
# ---------------------------------------------------------------------------


def test_laguerre_pair_seed_is_lower_gamma():
    for alpha, x in ((0.5, 1.3), (2.0, 4.0), (CIR.laguerre_order, 0.7)):
        table = coeffs.laguerre_pair_integrals(0, alpha, x)
        assert table[0, 0] == pytest.approx(lower_incomplete_gamma(alpha + 1.0, x), rel=1e-13)


def test_laguerre_pair_against_quadrature_fixed_case():
    alpha = CIR.laguerre_order
    table = coeffs.laguerre_pair_integrals(6, alpha, 3.7)
    f = lambda y: (
        laguerre_sequence(5, alpha, y)[2]
        * laguerre_sequence(5, alpha, y)[5]
        * math.exp(-y)
        * y**alpha
    )
    assert table[2, 5] == pytest.approx(quad(f, 0.0, 3.7), abs=1e-10)
    np.testing.assert_allclose(table, table.T, rtol=0.0, atol=1e-18)


def test_laguerre_pair_infinity_is_orthogonality():
    alpha = 1.3
    table = coeffs.laguerre_pair_integrals_at_infinity(8, alpha)
    n = np.arange(9, dtype=float)
    np.testing.assert_allclose(
        np.diag(table), np.exp(sp.gammaln(alpha + n + 1.0) - sp.gammaln(n + 1.0)), rtol=1e-14
    )
    assert np.max(np.abs(table - np.diag(np.diag(table)))) == 0.0


def test_laguerre_exp_seed_and_infinity():
    alpha, s, x = 0.8, 1.4, 2.0
    vec = coeffs.laguerre_exp_integrals(3, alpha, s, x)
    seed = s ** -(alpha + 1.0) * lower_incomplete_gamma(alpha + 1.0, s * x)
    assert vec[0] == pytest.approx(seed, rel=1e-13)
    inf_vec = coeffs.laguerre_exp_integrals_at_infinity(3, alpha, s)
    n = 3
    expected = math.gamma(alpha + n + 1.0) * (s - 1.0) ** n / (math.factorial(n) * s ** (alpha + n + 1.0))
    assert inf_vec[3] == pytest.approx(expected, rel=1e-13)


def test_laguerre_exp_against_quadrature_fixed_case():
    alpha = CIR.laguerre_order
    vec = coeffs.laguerre_exp_integrals(3, alpha, 1.4, 2.0)
    f = lambda y: y**alpha * math.exp(-1.4 * y) * laguerre_sequence(3, alpha, y)[3]
    assert vec[3] == pytest.approx(quad(f, 0.0, 2.0), abs=1e-10)


def test_laguerre_exp_infinity_against_quadrature():
    alpha, s = 0.6, 1.7
    vec = coeffs.laguerre_exp_integrals_at_infinity(4, alpha, s)
    f = lambda y: y**alpha * math.exp(-s * y) * laguerre_sequence(4, alpha, y)[4]
    assert vec[4] == pytest.approx(quad(f, 0.0, 120.0), abs=1e-11)


# ---------------------------------------------------------------------------
# Hermite pair / exp integrals
# ---------------------------------------------------------------------------


def test_hermite_pair_seed_is_normal_cdf():
    for x in (-1.2, 0.3, 2.0):
        table = coeffs.hermite_pair_integrals(0, x)
        assert table[0, 0] * _hermite_norm(0) ** 2 == pytest.approx(
            math.sqrt(math.pi) * sp.ndtr(math.sqrt(2.0) * x), rel=1e-13
        )


def test_hermite_pair_against_quadrature_fixed_case():
    table = coeffs.hermite_pair_integrals(5, 0.3)
    f = lambda y: math.exp(-y * y) * hermite_sequence(4, y)[1] * hermite_sequence(4, y)[4]
    raw = table[1, 4] * _hermite_norm(1) * _hermite_norm(4)
    assert raw == pytest.approx(quad(f, -30.0, 0.3), abs=1e-10)


def test_hermite_pair_infinity_is_orthogonality():
    table = coeffs.hermite_pair_integrals_at_infinity(7)
    n = np.arange(8, dtype=float)
    norms = np.array([_hermite_norm(k) for k in range(8)])
    np.testing.assert_allclose(
        np.diag(table) * norms**2, math.sqrt(math.pi) * 2.0**n * sp.gamma(n + 1.0), rtol=1e-13
    )
    assert np.array_equal(table, np.eye(8))


def test_hermite_exp_seed_is_erf_form():
    s, x = 0.7, 1.1
    vec = coeffs.hermite_exp_integrals(0, s, x)
    expected = 0.5 * math.exp(0.25 * s * s) * math.sqrt(math.pi) * (math.erf(0.5 * (2.0 * x - s)) + 1.0)
    assert vec[0] * _hermite_norm(0) == pytest.approx(expected, rel=1e-13)


def test_hermite_exp_against_quadrature_fixed_case():
    vec = coeffs.hermite_exp_integrals(2, 0.7, 1.1)
    f = lambda y: math.exp(0.7 * y - y * y) * hermite_sequence(2, y)[2]
    assert vec[2] * _hermite_norm(2) == pytest.approx(quad(f, -30.0, 1.1), abs=1e-10)


def test_hermite_exp_infinity_sign():
    # the full-line limit is e^{s^2/4} sqrt(pi) (+s)^n (raw H_n): the
    # recursion limit and direct quadrature agree on the positive sign
    s = 0.42
    vec = coeffs.hermite_exp_integrals_at_infinity(3, s)
    f = lambda y: math.exp(s * y - y * y) * hermite_sequence(3, y)[3]
    assert vec[3] * _hermite_norm(3) == pytest.approx(quad(f, -30.0, 30.0), rel=1e-11)
    assert vec[3] > 0.0


def test_the_pool_cap_is_the_only_degree_limit():
    for model in (VAS, CIR, TH, B250, TH_168, TH_402):
        assert coeffs.max_table_degree(model) == POOL_CAP
    # the closed-form Laguerre reference tables keep their Gamma range
    table = coeffs.laguerre_pair_integrals(150, TH.laguerre_order, TH.poly_coordinate(0.05))
    assert np.all(np.isfinite(table))
    with pytest.raises(ValidationError):
        coeffs.laguerre_pair_integrals(152, TH.laguerre_order, 1.0)


def test_orthonormal_hermite_tables_at_high_degree():
    n = 300
    idx = np.arange(n + 1)
    sign = (-1.0) ** (idx[:, None] + idx[None, :])
    for x in (0.37, 2.9, 7.5):
        table = coeffs.hermite_pair_integrals(n, x)
        # [-inf, x] and [-x, inf] (h_n(-y) = (-1)^n h_n(y)) make up the line
        reflected = coeffs.hermite_pair_integrals(n, -x)
        assert np.max(np.abs(table + sign * reflected - np.eye(n + 1))) <= 1e-14
        eigvals = np.linalg.eigvalsh(table)  # a Gram matrix of a part of the line
        assert eigvals.min() >= -1e-12 and eigvals.max() <= 1.0 + 1e-12
    assert np.array_equal(coeffs.hermite_pair_integrals(n, 40.0), np.eye(n + 1))
    assert np.all(np.isfinite(coeffs.hermite_pair_integrals(1000, 3.3)))
    assert np.all(np.isfinite(coeffs.hermite_exp_integrals(1000, 0.4, 3.3)))
    assert np.all(np.isfinite(coeffs.hermite_exp_integrals_at_infinity(1000, 0.4)))


def _raw_hermite_tables(n_max, s, x):
    """The pair and exp integrals of the raw H_n against e^{-y^2}, by the
    recursions in H_n (finite only up to degree ~140)."""
    herm = hermite_sequence(n_max + 1, x)
    damp = math.exp(-x * x)
    diag = np.empty(n_max + 1)
    diag[0] = math.sqrt(math.pi) * sp.ndtr(math.sqrt(2.0) * x)
    for n in range(1, n_max + 1):
        diag[n] = -herm[n - 1] * herm[n] * damp + 2.0 * n * diag[n - 1]
    cross = np.outer(herm[: n_max + 1], herm[1:])
    idx = np.arange(n_max + 1, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        pair = damp * (cross - cross.T) / (2.0 * (idx[None, :] - idx[:, None]))
    pair[np.diag_indices(n_max + 1)] = diag
    exp = np.empty(n_max + 1)
    exp[0] = 0.5 * math.exp(0.25 * s * s) * math.sqrt(math.pi) * (sp.erf(x - 0.5 * s) + 1.0)
    for n in range(1, n_max + 1):
        exp[n] = -math.exp(s * x - x * x) * herm[n - 1] + s * exp[n - 1]
    return pair, exp


def test_orthonormal_hermite_tables_match_the_rescaled_raw_recursion():
    n = 100
    norms = np.array([_hermite_norm(k) for k in range(n + 1)])
    for x in np.linspace(-3.0, 6.0, 19):
        for s in (-1.2, 0.45):
            pair, exp = _raw_hermite_tables(n, s, x)
            got = coeffs.hermite_pair_integrals(n, x)
            assert np.max(np.abs(got - pair / np.outer(norms, norms))) <= 1e-13, x
            got = coeffs.hermite_exp_integrals(n, s, x)
            assert np.max(np.abs(got - exp / norms)) <= 1e-13, (x, s)


# ---------------------------------------------------------------------------
# randomized recursion-vs-quadrature sweeps
# ---------------------------------------------------------------------------


def test_randomized_laguerre_pair_cases():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        n, m = rng.integers(0, 12, size=2)
        alpha = float(rng.uniform(-0.8, 4.0))
        x = float(rng.uniform(0.05, 12.0))
        table = coeffs.laguerre_pair_integrals(int(max(n, m)), alpha, x)
        f = lambda y: (
            laguerre_sequence(int(max(n, m)), alpha, y)[n]
            * laguerre_sequence(int(max(n, m)), alpha, y)[m]
            * math.exp(-y)
            * y**alpha
        )
        ref = quad(f, 0.0, x)
        assert table[n, m] == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_randomized_laguerre_exp_cases():
    rng = np.random.default_rng(2025)
    for _ in range(50):
        n = int(rng.integers(0, 12))
        alpha = float(rng.uniform(-0.8, 4.0))
        s = float(rng.uniform(0.2, 3.0))
        x = float(rng.uniform(0.05, 12.0))
        vec = coeffs.laguerre_exp_integrals(n, alpha, s, x)
        f = lambda y: y**alpha * math.exp(-s * y) * laguerre_sequence(n, alpha, y)[n]
        ref = quad(f, 0.0, x)
        assert vec[n] == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_randomized_hermite_pair_cases():
    rng = np.random.default_rng(2026)
    for _ in range(50):
        n, m = rng.integers(0, 12, size=2)
        x = float(rng.uniform(-3.0, 3.0))
        table = coeffs.hermite_pair_integrals(int(max(n, m)), x)
        f = lambda y: (
            hermite_sequence(int(max(n, m)), y)[n]
            * hermite_sequence(int(max(n, m)), y)[m]
            * math.exp(-y * y)
        )
        ref = quad(f, -30.0, x)
        raw = table[n, m] * _hermite_norm(n) * _hermite_norm(m)
        assert raw == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_randomized_hermite_exp_cases():
    rng = np.random.default_rng(2027)
    for _ in range(50):
        n = int(rng.integers(0, 12))
        s = float(rng.uniform(-1.5, 1.5))
        x = float(rng.uniform(-3.0, 3.0))
        vec = coeffs.hermite_exp_integrals(n, s, x)
        f = lambda y: math.exp(s * y - y * y) * hermite_sequence(max(n, 1), y)[n]
        ref = quad(f, -30.0, x)
        assert vec[n] * _hermite_norm(n) == pytest.approx(ref, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# overlap matrices
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("model", (CIR, VAS, TH), ids=lambda m: m.kind)
def test_overlap_full_interval_identity(model):
    om = coeffs.overlap_matrix(model, 12, model.state_lo, model.state_hi)
    assert np.max(np.abs(om - np.eye(13))) <= 1e-8


def test_overlap_empty_interval_is_zero():
    om = coeffs.overlap_matrix(CIR, 6, 0.05, 0.05)
    assert np.all(om == 0.0)


def test_overlap_cir_entry_against_quadrature():
    om = coeffs.overlap_matrix(CIR, 10, 0.0, 0.05)
    f = lambda z: CIR.eigenfunctions(3, z)[2] * CIR.eigenfunctions(3, z)[3] * CIR.speed_density(z)
    assert om[2, 3] == pytest.approx(quad(f, 0.0, 0.05), abs=1e-9)


@pytest.mark.parametrize(
    "model,interval",
    [(CIR, (0.0, 0.06)), (VAS, (-0.15, 0.08)), (TH, (0.02, 0.11))],
    ids=("cir", "vasicek", "three_halves"),
)
def test_overlap_is_positive_semidefinite(model, interval):
    om = coeffs.overlap_matrix(model, 20, *interval)
    np.testing.assert_allclose(om, om.T, atol=1e-14)
    eigvals = np.linalg.eigvalsh(om)
    assert eigvals.min() >= -1e-10


@pytest.mark.parametrize(
    "model,pts",
    [(CIR, (0.01, 0.04, 0.09)), (VAS, (-0.1, 0.03, 0.2)), (TH, (0.02, 0.05, 0.3))],
    ids=("cir", "vasicek", "three_halves"),
)
def test_overlap_interval_additivity(model, pts):
    x, y, z = pts
    a = coeffs.overlap_matrix(model, 12, x, y)
    b = coeffs.overlap_matrix(model, 12, y, z)
    c = coeffs.overlap_matrix(model, 12, x, z)
    assert np.max(np.abs(a + b - c)) <= 1e-10


def test_overlap_monotone_in_interval():
    inner = coeffs.overlap_matrix(CIR, 10, 0.02, 0.05)
    outer = coeffs.overlap_matrix(CIR, 10, 0.01, 0.08)
    eigvals = np.linalg.eigvalsh(outer - inner)
    assert eigvals.min() >= -1e-10


def test_overlap_interval_order_error():
    with pytest.raises(ValidationError):
        coeffs.overlap_matrix(CIR, 4, 0.1, 0.05)


# ---------------------------------------------------------------------------
# strike projections
# ---------------------------------------------------------------------------


def test_strike_full_interval_equals_discounted_unit_coeffs():
    for model in (CIR, VAS):
        spj = coeffs.strike_projection(model, NONE, 10, model.state_lo, model.state_hi, DELTA)
        expected = model.unit_payoff_coefficients(10) * np.exp(
            -model.eigenvalues(10) * DELTA
        )
        np.testing.assert_allclose(spj, expected, rtol=1e-11, atol=1e-13)


def test_strike_full_interval_subordinated():
    spj = coeffs.strike_projection(CIR, JD, 10, 0.0, math.inf, DELTA, eps=1e-12)
    lam = CIR.eigenvalues(10)
    from eigenbond.subordinators import laplace_exponent

    expected = CIR.unit_payoff_coefficients(10) * np.exp(-laplace_exponent(JD, lam) * DELTA)
    np.testing.assert_allclose(spj, expected, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("eps", (-1.0, 0.0, 0.5, math.nan))
def test_strike_refuses_a_bad_eps_up_front(eps):
    # eps = -1 ran on into a ConvergenceError from the inner series
    with pytest.raises(ValidationError, match="eps must lie in"):
        coeffs.strike_projection(CIR, JD, 10, 0.0, 0.05, DELTA, eps=eps)


@pytest.mark.parametrize("delta", (math.nan, math.inf))
def test_strike_refuses_a_non_finite_notice_period(delta):
    # NaN ran on into a ConvergenceError from the inner series; inf returned zeros
    with pytest.raises(ValidationError, match="notice period must be finite"):
        coeffs.strike_projection(CIR, JD, 10, 0.0, 0.05, delta)


@pytest.mark.parametrize(
    "n_max", (-1, 2.5, 3.0, True, POOL_CAP + 1),
    ids=("negative", "fraction", "float", "bool", "above_pool_cap"),
)
def test_overlap_and_strike_refuse_a_bad_degree(n_max):
    # -1 raised IndexError in overlap_matrix and returned [] from
    # strike_projection; 2.5 raised TypeError in both; the rows' per-degree
    # factors are kept to POOL_CAP + 1
    with pytest.raises(ValidationError, match="degree n_max must be"):
        coeffs.overlap_matrix(CIR, n_max, 0.0, 0.05)
    with pytest.raises(ValidationError, match="degree n_max must be"):
        coeffs.strike_projection(CIR, JD, n_max, 0.0, 0.05, DELTA)
    assert coeffs.overlap_matrix(CIR, np.int64(3), 0.0, 0.05).shape == (4, 4)


@pytest.mark.parametrize(
    "model,states",
    (
        (VasicekModel(0.2, 0.05, 0.02), (-1e308, -1e200, 1e200, 1e308)),
        (CIRModel(0.2, 0.05, 0.07), (5e-324, 1e308)),
        (ThreeHalvesModel(2.0, 0.06, 0.5), (5e-324, 1e308)),
    ),
    ids=("vasicek", "cir", "three_halves"),
)
def test_states_at_the_ends_of_the_float_range_are_at_the_ends_of_the_space(model, states):
    # their coordinates overflow to +-inf or underflow to 0 (the 3/2 one
    # runs the other way): the overlap below them is zero or the identity,
    # to the accuracy of the closed-form tests below
    for x in states:
        below = coeffs.overlap_matrix(model, 8, model.state_lo, x)
        expected = np.eye(9) if x > 1.0 else np.zeros((9, 9))
        np.testing.assert_allclose(below, expected, rtol=0.0, atol=1e-12, err_msg=str(x))
        total = below + coeffs.overlap_matrix(model, 8, x, model.state_hi)
        np.testing.assert_allclose(total, np.eye(9), rtol=0.0, atol=1e-12, err_msg=str(x))


def test_expansion_strike_weights_are_cut_once_per_clock_notice_and_eps(monkeypatch):
    model = CIRModel(kappa=0.14294371, theta=0.133976855, sigma=0.38757496)
    cuts = []
    cutoff = series.weight_cutoff
    monkeypatch.setattr(series, "weight_cutoff", lambda *args: cuts.append(args) or cutoff(*args))
    first = [coeffs.strike_projection(model, JD, 12, 0.0, x, DELTA, eps=1e-10) for x in (0.03, 0.1)]
    again = [coeffs.strike_projection(model, JD, 12, 0.0, x, DELTA, eps=1e-10) for x in (0.03, 0.1)]
    assert len(cuts) == 1
    for a, b in zip(first, again):
        np.testing.assert_array_equal(a, b)
    coeffs.strike_projection(model, JD, 12, 0.0, 0.03, DELTA, eps=1e-12)
    coeffs.strike_projection(model, JD, 12, 0.0, 0.03, 0.5, eps=1e-10)
    assert len(cuts) == 3

    # the cached weights are the ones the cut would give afresh, bit for bit
    (weights, eps), = cuts[:1]
    m_cut = cutoff(weights, eps)
    cached = spectrum(model, JD)._cuts[((DELTA, 1.0),), 1e-10]
    np.testing.assert_array_equal(cached, weights[: m_cut + 1])
    assert not cached.flags.writeable


def test_strike_zero_notice_is_unit_coeffs():
    spj = coeffs.strike_projection(CIR, NONE, 8, 0.0, math.inf, 0.0)
    np.testing.assert_allclose(
        spj, CIR.unit_payoff_coefficients(8), rtol=1e-12, atol=1e-14
    )


def test_strike_route_cross_check():
    # the plain-clock strike legs of the affine models against quadrature in
    # the state of the closed-form bond; b = 160: the projections are
    # ~1e-138, so the integrand is taken relative to sqrt(speed mass)
    b160 = CIRModel(kappa=1.0, theta=0.05, sigma=0.025)
    for model, lo, hi in ((CIR, 0.0, 0.04), (VAS, -0.2, 0.03), (b160, 0.0, 0.05)):
        got = coeffs.strike_projection(model, NONE, 10, lo, hi, DELTA, eps=1e-12)
        scale = float(np.max(np.abs(got)))
        root_mass = math.exp(0.5 * model.log_speed_mass())
        if model is VAS:
            root = lambda x: math.sqrt(model.speed_density(x)) / root_mass
        else:
            root = lambda x: _root_speed(model, x) / root_mass
        bond = lambda x: float(model.closed_form_bond(DELTA, x))
        for k in range(11):
            f = lambda x: bond(x) * model.eigenfunctions(10, x)[k] * root(x) ** 2
            ref = quad(f, lo, hi) * root_mass**2
            assert abs(got[k] - ref) <= 1e-11 * scale, (model, k)


def test_strike_against_quadrature():
    spj = coeffs.strike_projection(CIR, NONE, 4, 0.0, 0.0412, DELTA, eps=1e-12)
    f = lambda z: (
        float(CIR.closed_form_bond(DELTA, z))
        * CIR.eigenfunctions(4, z)[4]
        * CIR.speed_density(z)
    )
    assert spj[4] == pytest.approx(quad(f, 0.0, 0.0412), abs=1e-10)


def test_strike_partial_sums_reproduce_indicator_bond():
    # sum_n strike_n(lo, hi) phi_n(z) converges pointwise to
    # P(delta, z) 1_(lo,hi)(z); the sharp indicator makes this a slow
    # Fourier-type limit, so assert the measured decay, not a fantasy rate
    lo, hi = 0.01, 0.09
    spj = coeffs.strike_projection(CIR, NONE, 160, lo, hi, DELTA, eps=1e-12)
    # interior point: raw partial sums settle toward the bond value
    phi_in = CIR.eigenfunctions(160, 0.05)
    partial_in = np.cumsum(spj * phi_in)
    target_in = float(CIR.closed_form_bond(DELTA, 0.05))
    assert abs(partial_in[160] - target_in) < abs(partial_in[80] - target_in)
    assert abs(partial_in[160] - target_in) <= 5e-3
    # exterior point: partial sums oscillate around zero; the averaged tail
    # is small compared to the indicator jump
    phi_out = CIR.eigenfunctions(160, 0.2)
    partial_out = np.cumsum(spj * phi_out)
    assert abs(np.mean(partial_out[120:])) <= 3e-2
    assert np.max(np.abs(partial_out[120:])) <= 0.1


# ---------------------------------------------------------------------------
# The overlap at finite Laguerre endpoints, against the closed-form tables
# ---------------------------------------------------------------------------

B160 = CIRModel(kappa=1.0, theta=0.05, sigma=0.025)  # b = 160, Laguerre order 159


def _state_at(model, z):
    """The state whose polynomial coordinate is z."""
    unit = model.poly_coordinate(1.0)
    return unit / z if model.coordinate_reversed else z / unit


def _coordinates(model, x_lo, x_hi):
    """The interval's ends in the Laguerre coordinate, in coordinate order; a
    state-space boundary maps to an end of the coordinate range."""

    def coordinate(x):
        if model.state_lo < x < model.state_hi:
            return model.poly_coordinate(x)
        return math.inf if (x == model.state_hi) != model.coordinate_reversed else 0.0

    return sorted(map(coordinate, (x_lo, x_hi)))


def _log_norms(alpha, n):
    """log N_k = log sqrt(k! / Gamma(k + alpha + 1)), k = 0..n: the norms that
    turn the Laguerre pair integrals into the overlaps of the orthonormal
    Laguerre functions, which are the overlaps of every Laguerre model."""
    k = np.arange(n + 1, dtype=float)
    return 0.5 * (sp.gammaln(k + 1.0) - sp.gammaln(k + alpha + 1.0))


def _closed_overlap(model, n, x_lo, x_hi):
    alpha = model.laguerre_order

    def pair(z):
        if z == 0.0:
            return np.zeros((n + 1, n + 1))
        if z == math.inf:
            return coeffs.laguerre_pair_integrals_at_infinity(n, alpha)
        return coeffs.laguerre_pair_integrals(n, alpha, z)

    z_lo, z_hi = _coordinates(model, x_lo, x_hi)
    log_n = _log_norms(alpha, n)
    pref = np.exp(log_n[:, None] + log_n[None, :])
    return pref * (pair(z_hi) - pair(z_lo))


def _strike_log_factors(model, n, delta=DELTA):
    """Tilt s and the per-degree log factors log A(delta) + 2 log N_n - log N'_n
    (N_n the orthonormal Laguerre norms, N'_n the model's) that turn the
    closed-form Laguerre exp integrals into the strike projections of the
    CIR bond A(delta) e^{-B(delta) x}."""
    a_fac, b_fac = model.affine_bond_factors(delta)
    g = model.gamma
    tilt = b_fac * model.sigma**2 / (2.0 * g) + (model.kappa + g) / (2.0 * g)
    log_n = _log_norms(model.laguerre_order, n)
    return tilt, math.log(a_fac) + 2.0 * log_n - model.log_norm_constants(n)


def _closed_expansion_strike(model, sub, n, x_lo, x_hi, eps):
    lam = laplace_exponent(sub, model.eigenvalues(POOL_CAP))
    weights = model.unit_payoff_coefficients(POOL_CAP) * np.exp(-lam * DELTA)
    m = series.weight_cutoff(weights, eps)
    return _closed_overlap(model, max(n, m), x_lo, x_hi)[: n + 1, : m + 1] @ weights[: m + 1]


def _intervals(model, z):
    """[bottom, x], [x, top] and [x, x'] with x at coordinate z, in state order."""
    x, x2 = _state_at(model, z), _state_at(model, 1.5 * z)
    return ((model.state_lo, x), (x, model.state_hi), tuple(sorted((x, x2))))


GJ_CASES = (
    # benchmark CIR (order -0.745) up to the top of its search interval
    (CIR, 40, (1e-3, 0.1, 1.0, 5.0, 20.0, CIR.poly_coordinate(CIR.search_interval(40)[2]))),
    (TH, 40, (1e-3, 1.0, 16.0, 80.0, 320.0, 640.0)),  # order 17.9
    (B160, 9, (1e-3, 80.0, 160.0, 320.0, 640.0)),  # degree cap 9
)


@pytest.mark.parametrize("model,n,zs", GJ_CASES, ids=("cir", "three_halves", "cir_b160"))
def test_gauss_jacobi_overlap_matches_closed_form(model, n, zs):
    for z in zs:
        for lo, hi in _intervals(model, z):
            got = coeffs.overlap_matrix(model, n, lo, hi)
            assert np.max(np.abs(got - _closed_overlap(model, n, lo, hi))) <= 1e-12, (z, lo, hi)


@pytest.mark.parametrize("model,n,zs", GJ_CASES, ids=("cir", "three_halves", "cir_b160"))
def test_gauss_jacobi_strike_matches_closed_form(model, n, zs):
    # Interval integrals are differences of integrals from the bottom of the
    # coordinate, so both routes are accurate relative to the whole-space
    # projection, not to a small difference.  The plain clock takes the same
    # route as the jump clock.
    for sub in (JD, NONE):
        full = np.max(np.abs(coeffs.strike_projection(model, sub, n, 0.0, math.inf, DELTA, eps=1e-12)))
        for z in zs:
            for lo, hi in _intervals(model, z):
                got = coeffs.strike_projection(model, sub, n, lo, hi, DELTA, eps=1e-12)
                ref = _closed_expansion_strike(model, sub, n, lo, hi, 1e-12)
                assert np.max(np.abs(got - ref)) <= 1e-12 * full, (sub, z, lo, hi)


TH_102 = ThreeHalvesModel(kappa=2.0, theta=0.06, sigma=0.2)  # Laguerre order 102


@pytest.mark.parametrize("n_max", (0, 1, 2, 64, 300))
@pytest.mark.parametrize("model", (CIR, B250, TH_102, TH_402),
                         ids=("cir", "cir_b250", "three_halves_102", "three_halves_402"))
def test_laguerre_rows_agree_with_the_kernel(model, n_max):
    # psi_n formed from the order-(alpha + 1) functions chi against the
    # orthonormal Laguerre functions of order alpha by their own recurrence;
    # the two seeds round apart by the rounding of their logs (measured up to
    # 1.9e-13 of the row's largest magnitude, at order 402 and n_max = 1)
    alpha = model.laguerre_order
    order = _Recurrence(1.0, *_laguerre_coefficients(alpha))
    top = 4.0 * (2.0 * n_max + alpha + 1.0) + 80.0
    for x in (1e-9, 0.01, 0.05, 0.2, 1.0, 1e9):
        z = model.poly_coordinate(x)
        psi, _, _ = coeffs._laguerre_rows(model, n_max, z)
        z = min(max(z, math.ulp(0.0)), top)
        seed = math.exp(0.5 * (alpha * math.log(z) - z - math.lgamma(alpha + 1.0)))
        kernel = _kernel(order, n_max, z, seed)
        assert psi.shape == kernel.shape
        assert np.all(np.abs(psi - kernel) <= 1e-12 * np.max(np.abs(kernel))), x


@pytest.mark.parametrize("z", (-40.0, -3.0, 0.0, 2.5, 40.0))
def test_hermite_apply_equals_the_sliced_table(z):
    rng = np.random.default_rng(23)
    for n_rows, size in ((0, 1), (5, 9), (40, 20), (20, 41), (135, 136), (300, 12), (12, 300)):
        table = coeffs.hermite_pair_integrals(max(n_rows, size - 1), z)[: n_rows + 1, :size]
        rows = coeffs._hermite_rows(max(n_rows, size - 1), z)
        for shape in ((size,), (size, 3)):
            weights = rng.uniform(-1.0, 1.0, shape)
            got = coeffs._pair_apply(*rows, n_rows, weights)
            assert got.shape == (n_rows + 1,) + shape[1:]
            assert np.max(np.abs(got - table @ weights)) <= 1e-15, (n_rows, size, shape)
    # the pricer's route: the overlap below a Vasicek state is the apply
    x = VAS.theta + 0.01 * z
    weights = rng.uniform(-1.0, 1.0, 30)
    below = coeffs.overlap_below(VAS, x, 40, weights)
    rows = coeffs._hermite_rows(40, VAS.poly_coordinate(x))
    np.testing.assert_array_equal(below, coeffs._pair_apply(*rows, 40, weights))


@pytest.mark.parametrize("z", (1e-3, 2.5, 40.0, 160.0, 640.0))
def test_laguerre_apply_equals_the_sliced_table(z):
    # the same apply on the Laguerre rows of the benchmark CIR (order -0.745),
    # against the closed-form table in orthonormal form, whose diagonal is
    # itself off 40-digit mpmath by up to 1.2e-13 at degree 132 and z = 640
    # (the rows by 1.4e-17), so the apply gets that much room
    alpha = CIR.laguerre_order
    rng = np.random.default_rng(23)
    for n_rows, size in ((0, 1), (5, 9), (40, 20), (20, 41), (135, 136)):
        n_max = max(n_rows, size - 1)
        log_n = _log_norms(alpha, n_max)
        table = np.exp(log_n[:, None] + log_n[None, :]) * coeffs.laguerre_pair_integrals(n_max, alpha, z)
        table = table[: n_rows + 1, :size]
        rows = coeffs._laguerre_rows(CIR, n_max, z)
        for shape in ((size,), (size, 3)):
            weights = rng.uniform(-1.0, 1.0, shape)
            got = coeffs._pair_apply(*rows, n_rows, weights)
            assert got.shape == (n_rows + 1,) + shape[1:]
            assert np.max(np.abs(got - table @ weights)) <= 2.5e-13, (n_rows, size, shape)
    # the pricer's route: the overlap below a CIR state is the apply
    x = _state_at(CIR, z)
    weights = rng.uniform(-1.0, 1.0, 30)
    below = coeffs.overlap_below(CIR, x, 40, weights)
    rows = coeffs._laguerre_rows(CIR, 40, CIR.poly_coordinate(x))
    np.testing.assert_array_equal(below, coeffs._pair_apply(*rows, 40, weights))


@pytest.mark.parametrize("family", ("hermite", "laguerre"))
def test_pair_apply_on_a_vector_is_the_one_column_apply(family):
    # one path for a vector and a matrix of columns
    rng = np.random.default_rng(29)
    for n_rows, size in ((0, 1), (5, 9), (40, 20), (20, 41), (135, 136)):
        n_max = max(n_rows, size - 1)
        if family == "hermite":
            rows = coeffs._hermite_rows(n_max, 0.7)
        else:
            rows = coeffs._laguerre_rows(CIR, n_max, 2.5)
        weights = rng.uniform(-1.0, 1.0, size)
        column = coeffs._pair_apply(*rows, n_rows, weights[:, None])
        np.testing.assert_array_equal(coeffs._pair_apply(*rows, n_rows, weights), column[:, 0])


def _mp_laguerre(n, a, u):
    """L_n^(a)(u) by the three-term recurrence, in mpmath arithmetic."""
    prev, cur = 0, 1
    for k in range(n):
        prev, cur = cur, ((2 * k + 1 + a - u) * cur - (k + a) * prev) / (k + 1)
    return cur


def _mp_weighted_integral(g, alpha, z):
    """int_0^z u^alpha g(u) du by mpmath; u = v^(1/(alpha+1)) removes a
    singular weight."""
    a = mpmath.mpf(alpha)
    if alpha < 0.0:
        p = 1 / (a + 1)
        return p * mpmath.quad(lambda v: g(v**p), mpmath.linspace(0, mpmath.mpf(z) ** (a + 1), 3))
    return mpmath.quad(lambda u: u**a * g(u), [0, z / 2, z], method="gauss-legendre")


def test_gauss_jacobi_entries_against_mpmath():
    cases = ((CIR, 3, 7, 5.0), (CIR, 30, 31, 40.0), (TH, 2, 5, 16.0), (B160, 4, 9, 160.0))
    for model, m, n, z in cases:
        alpha = model.laguerre_order
        log_n = _log_norms(alpha, n)
        with mpmath.workdps(20):
            a = mpmath.mpf(alpha)
            g = lambda u: _mp_laguerre(m, a, u) * _mp_laguerre(n, a, u) * mpmath.exp(-u)
            ref = _mp_weighted_integral(g, alpha, z)
            ref = float(ref * mpmath.exp(log_n[m] + log_n[n]))
        x = _state_at(model, z)
        lo, hi = (x, math.inf) if model.coordinate_reversed else (0.0, x)
        got = coeffs.overlap_matrix(model, n, lo, hi)[m, n]
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-15), (model.kind, m, n, z)

    # the plain-clock strike leg of the benchmark CIR at one entry
    n, z = 6, 3.0
    tilt, log_pref = _strike_log_factors(CIR, n)
    with mpmath.workdps(20):
        a = mpmath.mpf(CIR.laguerre_order)
        g = lambda u: mpmath.exp(-tilt * u) * _mp_laguerre(n, a, u)
        ref = float(_mp_weighted_integral(g, CIR.laguerre_order, z) * mpmath.exp(log_pref[n]))
    got = coeffs.strike_projection(CIR, NONE, n, 0.0, _state_at(CIR, z), DELTA, eps=1e-12)
    assert got[n] == pytest.approx(ref, rel=1e-12, abs=1e-15)


def test_negative_order_overlap_at_large_coordinates_matches_closed_form():
    # the benchmark CIR (order -0.745) at degree 60, where a Gauss-Jacobi
    # rule of about 900 nodes missed the closed form by 6.8e-13 at z = 160
    # and 6.5e-12 at z = 640
    for z in (160.0, 640.0):
        x = _state_at(CIR, z)
        got = coeffs.overlap_matrix(CIR, 60, 0.0, x)
        assert np.max(np.abs(got - _closed_overlap(CIR, 60, 0.0, x))) <= 1e-13, z


def _mp_pair_entry(alpha, m, n, z):
    """int_0^z psi_m psi_n of the orthonormal Laguerre functions in 40-digit
    mpmath: P(alpha + 1, z) at m = n = 0, else the Sturm-Liouville identity
    N_m N_n z^{alpha+1} e^{-z} (L_m L_{n-1}^(alpha+1) - L_n L_{m-1}^(alpha+1)) / (n - m)."""
    with mpmath.workdps(40):
        a, z = mpmath.mpf(alpha), mpmath.mpf(z)
        if m == n == 0:
            return float(mpmath.gammainc(a + 1, 0, z, regularized=True))

        def norm(k):
            return mpmath.sqrt(mpmath.factorial(k) / mpmath.gamma(k + a + 1))

        def lower(k):  # N_k L_{k-1}^(alpha+1), zero at k = 0
            return norm(k) * _mp_laguerre(k - 1, a + 1, z) if k > 0 else 0

        pair = norm(m) * _mp_laguerre(m, a, z) * lower(n) - lower(m) * norm(n) * _mp_laguerre(n, a, z)
        return float(z ** (a + 1) * mpmath.exp(-z) * pair / (n - m))


def test_overlap_at_the_extremes_against_the_identity_in_mpmath():
    # CIR b = 250 at degree 300 (a Gauss-Jacobi rule missed by 7.1e-5 there);
    # the benchmark CIR near the origin, where psi_n taken from the
    # order-(alpha + 1) rows does not cancel; 3/2 of order 402
    cases = (
        (B250, 300, 1501.0, ((0, 0), (0, 1), (150, 151), (299, 300), (100, 250))),
        (CIR, 60, 7.5e-6, ((0, 0), (0, 1), (1, 2), (30, 60), (59, 60))),
        (CIR, 60, 7.5e-12, ((0, 0), (0, 1), (1, 2), (30, 60), (59, 60))),
        (TH_402, 40, 533.0, ((0, 0), (0, 40), (5, 30), (20, 21), (39, 40))),
    )
    for model, n, z, entries in cases:
        x = _state_at(model, z)
        lo, hi = (x, math.inf) if model.coordinate_reversed else (0.0, x)
        got = coeffs.overlap_matrix(model, n, lo, hi)
        for m, k in entries:
            ref = _mp_pair_entry(model.laguerre_order, m, k, model.poly_coordinate(x))
            assert abs(got[m, k] - ref) <= 1e-13, (model.kind, n, z, m, k)


def _root_speed(model, x):
    """sqrt(m(x)), by way of log m: at large orders m(x) and phi_n(x)^2 leave
    double range on opposite sides."""
    s2 = model.sigma**2
    if model.kind == "cir":
        log_m = math.log(2.0 / s2) + (model.b - 1.0) * math.log(x) - 2.0 * model.kappa * x / s2
    else:
        log_m = math.log(2.0 / s2) - (2.0 * model.alpha + 1.0) * math.log(x) - model.beta / x
    return math.exp(0.5 * log_m)


@pytest.mark.parametrize(
    "model,states",
    ((B250, (0.04, 0.05, 0.053, 0.07)), (TH_168, (0.04, 0.058, 0.063, 0.09)),
     (TH_402, (0.045, 0.059, 0.062, 0.08))),
    ids=("cir_b250", "three_halves_168", "three_halves_402"),
)
def test_integrals_beyond_the_gamma_range_against_quadrature_in_the_state(model, states):
    n = 12
    phi = lambda x: model.eigenfunctions(n, x) * _root_speed(model, x)
    for lo, hi in zip(states, states[1:]):
        gram = coeffs.overlap_matrix(model, n, lo, hi)
        for m, k in ((0, 0), (3, 7), (5, 11), (12, 12)):
            ref = quad(lambda x: phi(x)[m] * phi(x)[k], lo, hi)
            assert gram[m, k] == pytest.approx(ref, abs=1e-12), (lo, hi, m, k)
    # the strike legs, against the closed-form bond on CIR and the series
    # bond on 3/2; their scale is sqrt(speed mass), e^{-498} for b = 250 and
    # e^{+366} for order 402
    if model.affine:
        bond = lambda x: float(model.closed_form_bond(DELTA, x))
    else:
        bond = lambda x: zero_coupon_price(model, NONE, DELTA, x, eps=1e-12)
    for lo, hi in ((states[0], states[2]), (states[1], states[3])):
        got = coeffs.strike_projection(model, NONE, n, lo, hi, DELTA, eps=1e-12)
        scale = np.max(np.abs(got))
        for k in (0, 4, 12):
            ref = quad(lambda x: bond(x) * phi(x)[k] * _root_speed(model, x), lo, hi)
            assert abs(got[k] - ref) <= 1e-11 * scale, (lo, hi, k)


@pytest.mark.parametrize(
    "call",
    (
        lambda: coeffs.hermite_pair_integrals(2.5, 0.3),
        lambda: coeffs.hermite_pair_integrals(-1, 0.3),
        lambda: coeffs.hermite_pair_integrals(POOL_CAP + 1, 0.3),
        lambda: coeffs.hermite_pair_integrals_at_infinity(-1),
        lambda: coeffs.hermite_exp_integrals(-2, 0.5, 0.3),
        lambda: coeffs.hermite_exp_integrals_at_infinity(1.5, 0.5),
        lambda: coeffs.laguerre_pair_integrals(True, 0.5, 1.0),
        lambda: coeffs.laguerre_pair_integrals_at_infinity(-1, 0.5),
        lambda: coeffs.laguerre_exp_integrals(-1, 0.5, 1.5, 1.0),
        lambda: coeffs.laguerre_exp_integrals_at_infinity(2.0, 0.5, 1.5),
        lambda: CIR.eigenvalues(2.5),
        lambda: CIR.eigenfunctions(2.5, 0.05),
        lambda: CIR.series_sum([], 0.05, 1e-7),
        lambda: CIR.eigenfunction_matrix(2.5, [0.05]),
    ),
    ids=("hermite_pair_fraction", "hermite_pair_negative", "hermite_pair_above_pool_cap",
         "hermite_pair_inf_negative",
         "hermite_exp_negative", "hermite_exp_inf_fraction", "laguerre_pair_bool",
         "laguerre_pair_inf_negative", "laguerre_exp_negative", "laguerre_exp_inf_float",
         "eigenvalues_fraction", "eigenfunctions_fraction", "terms_negative",
         "matrix_fraction"),
)
def test_tables_and_evaluators_refuse_a_bad_degree(call):
    # these raised TypeError, IndexError or ValueError, or returned a table
    # (eigenvalues(2.5) gave four values, the Laguerre limit at -1 gave [])
    with pytest.raises(ValidationError, match="degree n_max must be"):
        call()


def test_hermite_tables_at_infinite_and_nan_abscissas():
    # the exp table at inf was [1.417, nan, nan, nan]; the pair table at NaN
    # returned a table
    limit = coeffs.hermite_exp_integrals_at_infinity(3, 0.5)
    assert np.array_equal(coeffs.hermite_exp_integrals(3, 0.5, math.inf), limit)
    assert np.array_equal(coeffs.hermite_exp_integrals(3, 0.5, -math.inf), np.zeros(4))
    for table in (lambda x: coeffs.hermite_pair_integrals(3, x),
                  lambda x: coeffs.hermite_exp_integrals(3, 0.5, x)):
        with pytest.raises(ValidationError, match="NaN"):
            table(math.nan)
