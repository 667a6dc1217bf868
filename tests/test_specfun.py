import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from eigenbond.errors import ValidationError
from eigenbond.specfun import (
    hermite_sequence,
    laguerre_sequence,
    laguerre_sequence_table,
    lower_incomplete_gamma,
)

# order parameter of the 3/2 test model (2m with kappa=2, theta=0.05, sigma=0.5)
ALPHA_32 = 2.0 * math.sqrt((2.0 / 0.25 + 0.5) ** 2 + 2.0 / 0.25)


def mp_laguerre(n_max, alpha, x):
    """The same degree recursion in 40-digit arithmetic."""
    with mpmath.workdps(40):
        a, xx = mpmath.mpf(alpha), mpmath.mpf(x)
        seq = [mpmath.mpf(1)]
        if n_max >= 1:
            seq.append(-xx + a + 1)
        for n in range(2, n_max + 1):
            seq.append(
                (2 + (a - 1 - xx) / n) * seq[n - 1] - (1 + (a - 1) / n) * seq[n - 2]
            )
        return [float(v) for v in seq]


def test_laguerre_degree_zero():
    assert laguerre_sequence(0, 0.5, 7.3).tolist() == [1.0]


def test_laguerre_degree_one():
    out = laguerre_sequence(1, 0.5, 2.0)
    assert out[0] == 1.0
    assert out[1] == pytest.approx(-0.5, abs=0.0)


def test_laguerre_explicit_quadratic():
    # L_2^(0)(x) = (x^2 - 4x + 2)/2 evaluated at 1
    assert laguerre_sequence(2, 0.0, 1.0)[-1] == pytest.approx(-0.5, rel=1e-15)


@pytest.mark.parametrize("alpha", [0.5, 1.0, ALPHA_32])
def test_laguerre_matches_extended_precision(alpha):
    for x in np.linspace(0.0, 50.0, 11):
        got = laguerre_sequence(60, alpha, float(x))
        ref = np.array(mp_laguerre(60, alpha, float(x)))
        scale = np.maximum(np.abs(ref), 1e-280)
        assert np.max(np.abs(got - ref) / scale) <= 1e-10


def test_laguerre_table_consistent_with_single_order():
    alphas = np.array([0.25, 1.25, 2.25])
    table = laguerre_sequence_table(12, alphas, 3.7)
    for j, a in enumerate(alphas):
        np.testing.assert_allclose(table[:, j], laguerre_sequence(12, a, 3.7), rtol=1e-14)


def test_laguerre_domain_errors():
    with pytest.raises(ValidationError):
        laguerre_sequence(3, -1.0, 1.0)
    with pytest.raises(ValidationError):
        laguerre_sequence(3, 0.5, math.inf)
    with pytest.raises(ValidationError):
        laguerre_sequence(-1, 0.5, 1.0)


def test_hermite_low_degrees():
    assert hermite_sequence(0, 5.0).tolist() == [1.0]
    np.testing.assert_allclose(hermite_sequence(1, 3.0), [1.0, 6.0])
    # H_2(x) = 4x^2 - 2 at x=1
    assert hermite_sequence(2, 1.0)[-1] == pytest.approx(2.0, rel=1e-15)


def test_hermite_parity():
    for x in np.linspace(0.25, 8.0, 8):
        plus = hermite_sequence(60, float(x))
        minus = hermite_sequence(60, float(-x))
        signs = np.where(np.arange(61) % 2 == 0, 1.0, -1.0)
        scale = np.maximum(np.abs(plus), 1e-280)
        assert np.max(np.abs(minus - signs * plus) / scale) <= 1e-12


def test_hermite_domain_error():
    with pytest.raises(ValidationError):
        hermite_sequence(3, math.nan)


def test_lower_gamma_trivial_and_closed_form():
    assert lower_incomplete_gamma(1.0, 0.0) == 0.0
    assert lower_incomplete_gamma(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)


def test_lower_gamma_against_quadrature():
    # substituted y = u^2 so the integrand is smooth at the origin
    val, _ = integrate.quad(
        lambda u: 2.0 * math.exp(-u * u) * u**4, 0.0, math.sqrt(3.0), epsabs=1e-14
    )
    assert lower_incomplete_gamma(2.5, 3.0) == pytest.approx(val, rel=1e-12)


def test_lower_gamma_saturates_to_gamma():
    for a in (0.3, 1.0, 2.5, 7.0, 30.0):
        assert lower_incomplete_gamma(a, 200.0) == pytest.approx(math.gamma(a), rel=1e-10)


def test_lower_gamma_monotone_in_x():
    xs = np.linspace(0.0, 12.0, 40)
    vals = [lower_incomplete_gamma(1.7, float(x)) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_lower_gamma_domain_errors():
    with pytest.raises(ValidationError):
        lower_incomplete_gamma(0.0, 1.0)
    with pytest.raises(ValidationError):
        lower_incomplete_gamma(1.0, -0.5)
