"""Truncated-interval eigenfunction integrals by one closed form over both
polynomial families, with closed-form reference tables.

The backward recursion for callable/putable bonds needs, at every decision
date, the Gram ("overlap") integrals of pairs of eigenfunctions over the
hold region and the projections of the discounted strike onto each
eigenfunction over the exercise regions:

    overlap_{m,n}(x, y) = int_x^y phi_m phi_n m(z) dz
    strike_n(x, y)      = int_x^y P(delta, z) phi_n(z) m(z) dz

Under every model and clock P(delta, .) is itself an eigenfunction series
with coefficients p_m e^{-phi(lambda_m) delta} (``subordinators.Spectrum.cut``),
so a strike projection is one more overlap, applied to those coefficients.

An interval integral is the difference of two overlaps over the states
below its ends (``overlap_below``), each applied to a coefficient vector w
one of four ways:

* zero at ``state_lo``;
* the identity at ``state_hi`` (orthonormality), so it returns w itself;
* at an interior state, the block from the bottom of the model's
  polynomial coordinate to the state's coordinate z.  In that coordinate
  the eigenfunctions are the orthonormal functions of the family, so the
  block is model-free: for a Hermite coordinate (Vasicek)
  h_n(y) = H_n(y) e^{-y^2/2} / sqrt(sqrt(pi) 2^n n!), for a Laguerre one
  (CIR, 3/2) psi_n(u) = sqrt(u^alpha e^{-u}) N_n L_n^(alpha)(u) with
  N_n^2 = n! / Gamma(n + alpha + 1).  Both obey a Sturm-Liouville
  equation, so (Christoffel-Darboux) every off-diagonal entry is

    int^z f_m f_n = (f_m g_n - g_m f_n) / (n - m)

  with g_n = h_{n+1} sqrt((n+1)/2) for Hermite and g_n = sqrt(n) chi_n for
  Laguerre, chi_n(u) = sqrt(u^{alpha+2} e^{-u}) M_{n-1} L_{n-1}^(alpha+1)(u),
  M_{n-1}^2 = (n-1)! / Gamma(n + alpha + 1), chi_0 = 0.  The diagonal d
  steps up in degree from a seed, erfc(-z) / 2 or the regularized
  incomplete gamma P(alpha + 1, z) (``regularized_lower_gamma``, in the
  standard library's arithmetic: DiDonato and Morris's prefix, the power
  series, the continued fraction and, near z = a for large a, Temme's
  uniform expansion).  ``_hermite_rows`` and
  ``_laguerre_rows`` build (f, g, d) by one recurrence pass each, with no
  factor leaving double range at any degree.  Their per-degree square
  roots are built once to degree ``POOL_CAP`` + 1, as module constants for
  Hermite and per Laguerre order on the model (``_raised_roots``), so a
  call costs the recurrence and a few array operations; no overlap or pair
  table takes a degree above ``POOL_CAP``.
  ``_pair_apply`` applies the block to w as it stands, both weighted
  columns written side by side into one array and through one product with
  D[m, n] = 1 / (n - m), without forming the block;
* on a coordinate that decreases in the state (3/2, v = beta / x), the
  identity minus that block, since the states below x are the
  coordinates above z.

Only ``overlap_below`` reads the model's polynomial family, to pick the row
builder, and the orientation of its coordinate.  The other tables here are
the reference that tests compare against, and the pricer builds none of
them: the closed-form Laguerre tables at a finite coordinate,
int_0^x L_m L_n e^{-y} y^alpha dy and int_0^x y^alpha e^{-s y} L_n dy,
which step down in order from incomplete-gamma seeds at elevated order;
the Hermite pair table int_-inf^x h_m h_n dy, formed entry by entry from
the same rows; the Hermite exp integrals int_-inf^x e^{s y - y^2/2} h_n dy,
which step up from an erfc seed; and the full-line limits of both families
(``*_at_infinity``), which the exact identity at ``state_hi`` replaces.
The pricer takes one ``overlap_below`` per finite break-even state per
assembly pass (see ``pricer._Engine._assemble``).  The module, reference
tables included, runs on numpy and the standard library.
"""

from __future__ import annotations

import math

import numpy as np

from . import series
from .errors import ValidationError, check_integer
from .models import HERMITE_FUNCTIONS, POOL_CAP, DiffusionModel, _kernel, _lgamma
from .specfun import laguerre_sequence_table
from .subordinators import SubordinatorSpec, spectrum

__all__ = [
    "laguerre_pair_integrals",
    "laguerre_pair_integrals_at_infinity",
    "laguerre_exp_integrals",
    "laguerre_exp_integrals_at_infinity",
    "hermite_pair_integrals",
    "hermite_pair_integrals_at_infinity",
    "hermite_exp_integrals",
    "hermite_exp_integrals_at_infinity",
    "overlap_below",
    "overlap_matrix",
    "strike_projection",
    "max_table_degree",
    "regularized_lower_gamma",
]


def max_table_degree(model: DiffusionModel) -> int:
    """``POOL_CAP`` for every model: no table the pricer builds leaves double range."""
    return POOL_CAP


def _lower_gamma_vec(a: np.ndarray, x: float) -> np.ndarray:
    """Non-regularized lower incomplete gamma for a vector of parameters."""
    return np.array([regularized_lower_gamma(v, x) * math.gamma(v) for v in a.tolist()])


# ---------------------------------------------------------------------------
# The regularized lower incomplete gamma P(a, z)
# ---------------------------------------------------------------------------

# Stirling's series lgamma(a + 1) - (a log a - a + log(2 pi a) / 2)
# = sum_j B_2j / (2j (2j - 1) a^(2j - 1)), j = 1..8; the first term left out
# is below 1e-22 from a = 20
_STIRLING = (
    1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400
)

# d[k][n] of Temme's uniform expansion (DLMF 8.12): c_k(eta) = sum_n d[k][n] eta^n,
# c_0 = 1 / (lambda - 1) - 1 / eta and c_k = c_{k-1}' / eta + (-1)^k g_k / (lambda - 1),
# with g_k the Stirling coefficients of Gamma*(a).  Rows k = 0..9, each cut where
# its terms fall below 1e-17 at a = 20 and |eta| = 0.471 (lambda = 0.6);
# tests/test_coeffs.py rebuilds them in exact rationals.
_TEMME_TERMS = (
    (-0.3333333333333333, 0.08333333333333333, -0.014814814814814815, 0.0011574074074074073,
     0.0003527336860670194, -0.0001787551440329218, 3.919263178522438e-05,
     -2.185448510679992e-06, -1.85406221071516e-06, 8.296711340953087e-07,
     -1.7665952736826078e-07, 6.707853543401498e-09, 1.0261809784240309e-08,
     -4.382036018453353e-09, 9.14769958223679e-10, -2.5514193994946248e-11,
     -5.830772132550426e-11, 2.4361948020667415e-11),
    (-0.001851851851851852, -0.003472222222222222, 0.0026455026455026454,
     -0.0009902263374485596, 0.00020576131687242798, -4.018775720164609e-07,
     -1.8098550334489977e-05, 7.64916091608111e-06, -1.6120900894563446e-06,
     4.647127802807434e-09, 1.378633446915721e-07, -5.752545603517705e-08,
     1.1951628599778148e-08, -1.7543241719747647e-11, -1.0091543710600413e-09,
     4.162792991842583e-10, -8.56390702649298e-11),
    (0.004133597883597883, -0.0026813271604938273, 0.0007716049382716049,
     2.0093878600823047e-06, -0.0001073665322636516, 5.2923448829120125e-05,
     -1.2760635188618728e-05, 3.423578734096138e-08, 1.3721957309062934e-06,
     -6.298992138380055e-07, 1.4280614206064242e-07, -2.0477098421990866e-10,
     -1.409252991086752e-08, 6.228974084922022e-09, -1.3670488396617114e-09),
    (0.0006494341563786008, 0.00022947209362139917, -0.0004691894943952557,
     0.00026772063206283885, -7.561801671883977e-05, -2.396505113867297e-07,
     1.1082654115347302e-05, -5.6749528269915965e-06, 1.4230900732435883e-06,
     -2.7861080291528143e-11, -1.6958404091930278e-07, 8.099464905388083e-08,
     -1.9111168485973655e-08),
    (-0.0008618882909167117, 0.0007840392217200666, -0.0002990724803031902,
     -1.4638452578843418e-06, 6.641498215465122e-05, -3.968365047179435e-05,
     1.1375726970678419e-05, 2.507497226237533e-10, -1.6954149536558305e-06,
     8.907507532205309e-07, -2.292934834000805e-07, 2.956794137544049e-11,
     2.8865829742708783e-08),
    (-0.00033679855336635813, -6.972813758365857e-05, 0.0002772753244959392,
     -0.00019932570516188847, 6.797780477937208e-05, 1.419062920643967e-07,
     -1.3594048189768693e-05, 8.018470256334202e-06, -2.291481176508095e-06,
     -3.252473551298454e-10, 3.4652846491085265e-07, -1.8447187191171344e-07),
    (0.0005313079364639922, -0.0005921664373536939, 0.0002708782096718045,
     7.902353232660328e-07, -8.153969367561969e-05, 5.61168275310625e-05,
     -1.8329116582843375e-05, -3.0796134506033047e-09, 3.465155368803609e-06,
     -2.0291327396058603e-06),
    (0.00034436760689237765, 5.171790908260592e-05, -0.00033493161081142234,
     0.0002812695154763237, -0.00010976582244684731, -1.2741009095484485e-07,
     2.7744451511563645e-05, -1.8263488805711332e-05, 5.7876949497350525e-06),
    (-0.0006526239185953094, 0.0008394987206720873, -0.000438297098541721,
     -6.969091458420552e-07, 0.00016644846642067547, -0.00012783517679769218,
     4.629953263691304e-05),
    (-0.0005967612901927463, -7.204895416020011e-05, 0.0006782308837667328,
     -0.0006401475260262758, 0.00027750107634328704),
)

_TEMME_A = 20.0  # Temme's expansion for a above this, near z = a
_EPS = 2.0**-53
_TINY = 1e-300  # the Lentz guard against a zero denominator


def _log1pmx(t: float) -> float:
    """log(1 + t) - t for t > -1, without the cancellation of log1p(t) - t
    near 0: with y = t / (2 + t), log(1 + t) = 2 atanh y, so the difference
    is -t^2 / (2 + t) + 2 y (y^2/3 + y^4/5 + ...), |y| <= 1/3 on [-1/2, 1]."""
    if not -0.5 <= t <= 1.0:
        return math.log1p(t) - t
    y = t / (2.0 + t)
    y2 = y * y
    power, total, k = y2, 0.0, 3.0
    while power > _EPS * k * total:
        total += power / k
        power *= y2
        k += 2.0
    return 2.0 * y * total - t * t / (2.0 + t)


def _gamma_prefix(a: float, z: float) -> float:
    """z^a e^-z / Gamma(a + 1), the factor before the series and the continued
    fraction.  Below ``_TEMME_A`` from ``math.pow``, ``math.exp`` and
    ``math.gamma`` (each within an ulp of its exact inputs); above it in the
    form of DiDonato and Morris (ACM TOMS 12, 1986),
    exp(a log1pmx((z - a) / a) - mu(a)) / sqrt(2 pi a) with mu Stirling's
    remainder, where exp(a log z - z - lgamma(a + 1)) would lose
    |a log z| ulps of the exponent to cancellation."""
    if a < _TEMME_A:
        return math.pow(z, a) * math.exp(-z) / math.gamma(a + 1.0)
    ratio = z / a
    if ratio == 0.0:
        return 0.0  # (z / a)^a underflows long before
    if ratio < 0.5:
        exponent = math.log(ratio) + (1.0 - ratio)
    else:
        exponent = _log1pmx((z - a) / a)
    inv2 = 1.0 / (a * a)
    mu = 0.0
    for c in reversed(_STIRLING):
        mu = mu * inv2 + c
    return math.exp(a * exponent - mu / a) / math.sqrt(2.0 * math.pi * a)


def _temme_lower(a: float, t: float) -> float:
    """P(a, a (1 + t)) by Temme's uniform expansion (1979; DLMF 8.12.3-8.12.4):
    P = erfc(-eta sqrt(a/2)) / 2 - e^{-a eta^2/2} / sqrt(2 pi a) sum_k c_k(eta) a^-k,
    with eta^2 / 2 = t - log(1 + t) and eta of the sign of t."""
    half_square = -_log1pmx(t)
    eta = math.copysign(math.sqrt(2.0 * half_square), t)
    inv, total = 1.0 / a, 0.0
    for row in reversed(_TEMME_TERMS):
        c = 0.0
        for d in reversed(row):
            c = c * eta + d
        total = total * inv + c
    tail = math.exp(-a * half_square) / math.sqrt(2.0 * math.pi * a) * total
    return 0.5 * math.erfc(-eta * math.sqrt(0.5 * a)) - tail


def regularized_lower_gamma(a: float, z: float) -> float:
    """P(a, z) = int_0^z e^-y y^(a-1) dy / Gamma(a) for a > 0 and z >= 0.

    Temme's uniform expansion near z = a for large a (a > ``_TEMME_A`` and
    |z - a| / a below 0.4, or below sqrt(20 / a) past a = 200, as Boost
    chooses for doubles); elsewhere the power series
    P = z^a e^-z / Gamma(a + 1) (1 + z / (a + 1) + z^2 / ((a + 1)(a + 2)) + ...)
    below z = a + 1 and, above it, 1 - Q with Q = a z^a e^-z / Gamma(a + 1)
    times Legendre's continued fraction 1 / (z + 1 - a - 1 (1 - a) / (z + 3 - a - ...)),
    by the modified Lentz method (Press et al., *Numerical Recipes*, 6.2).
    Against 40-digit mpmath it is within 1e-14 relative where |log P| is
    below 20; beyond, a double exponent carries |log P| 2^-53 of rounding.
    """
    if z <= 0.0:
        return 0.0
    t = (z - a) / a
    if a > _TEMME_A and (abs(t) < 0.4 if a <= 200.0 else t * t < 20.0 / a):
        return _temme_lower(a, t)
    if z < a + 1.0:
        term = total = 1.0
        k = a
        while term > _EPS * total:
            k += 1.0
            term *= z / k
            total += term
        return _gamma_prefix(a, z) * total
    if z - a * math.log(z) > 750.0:
        return 1.0  # Q underflows
    b = z + 1.0 - a
    c, d = 1.0 / _TINY, 1.0 / b
    fraction = d
    n = 0
    while True:
        n += 1
        step = -n * (n - a)
        b += 2.0
        d = step * d + b
        d = 1.0 / (d if abs(d) > _TINY else _TINY)
        c = b + step / c
        c = c if abs(c) > _TINY else _TINY
        ratio = d * c
        fraction *= ratio
        if abs(ratio - 1.0) <= _EPS:
            return 1.0 - a * _gamma_prefix(a, z) * fraction


def _check_laguerre_degree(n_max: int, alpha: float) -> None:
    check_integer("degree n_max", n_max)
    if alpha + n_max + 1.0 > 170.0:
        raise ValidationError(
            f"closed-form Laguerre recursions need alpha + n + 1 <= 170 "
            f"(their Gamma seeds overflow beyond); got alpha={alpha}, n_max={n_max}"
        )


# ---------------------------------------------------------------------------
# Laguerre family
# ---------------------------------------------------------------------------


def laguerre_pair_integrals(n_max: int, alpha: float, x: float) -> np.ndarray:
    """Table [m, n] = int_0^x L_m^(alpha) L_n^(alpha) e^{-y} y^alpha dy.

    Off-diagonal entries from the closed form; diagonal entries from the
    descending-order chain seeded by lower incomplete gammas at orders
    alpha + n_max .. alpha.
    """
    if not alpha > -1.0:
        raise ValidationError(f"Laguerre order must satisfy alpha > -1, got {alpha}")
    _check_laguerre_degree(n_max, alpha)
    if x < 0.0:
        raise ValidationError(f"endpoint must be >= 0, got {x}")
    size = n_max + 1
    if x == 0.0:
        return np.zeros((size, size))

    js = np.arange(n_max + 2, dtype=float)
    lag = laguerre_sequence_table(n_max + 1, alpha + js, x)  # [degree, order offset]
    log_x = math.log(x)

    # Diagonal chain: diag[j, n] = a_{n,n}^(alpha+j)(x), needed for n <= n_max - j.
    diag = np.zeros((n_max + 1, n_max + 1))
    diag[:, 0] = _lower_gamma_vec(alpha + js[:-1] + 1.0, x)
    for j in range(n_max - 1, -1, -1):
        k = n_max - j
        n = np.arange(1, k + 1, dtype=float)
        weight = math.exp(-x + (alpha + j + 1.0) * log_x)
        diag[j, 1 : k + 1] = (
            lag[1 : k + 1, j] * lag[0:k, j + 1] * weight + diag[j + 1, 0:k]
        ) / n

    # Off-diagonal closed form; L_{-1}^(alpha+1) := 0 absorbs the m or n = 0 rows.
    weight0 = math.exp(-x + (alpha + 1.0) * log_x)
    shifted = np.concatenate(([0.0], lag[: n_max, 1]))  # L_{m-1}^(alpha+1)
    cross = np.outer(lag[: size, 0], shifted)
    idx = np.arange(size, dtype=float)
    denom = idx[None, :] - idx[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        table = weight0 * (cross - cross.T) / denom
    table[np.diag_indices(size)] = diag[0, : size]
    return table


def laguerre_pair_integrals_at_infinity(n_max: int, alpha: float) -> np.ndarray:
    """Full-line limit: Gamma(alpha + n + 1) / n! on the diagonal, zero off it."""
    check_integer("degree n_max", n_max)
    if not alpha > -1.0:
        raise ValidationError(f"Laguerre order must satisfy alpha > -1, got {alpha}")
    n = np.arange(n_max + 1, dtype=float)
    return np.diag(np.exp(_lgamma(alpha + n + 1.0) - _lgamma(n + 1.0)))


def laguerre_exp_integrals(n_max: int, alpha: float, s: float, x: float) -> np.ndarray:
    """Vector [n] = int_0^x y^alpha e^{-s y} L_n^(alpha)(y) dy, s > 0."""
    if not alpha > -1.0:
        raise ValidationError(f"Laguerre order must satisfy alpha > -1, got {alpha}")
    _check_laguerre_degree(n_max, alpha)
    if not s > 0.0:
        raise ValidationError(f"exponential tilt must satisfy s > 0, got {s}")
    if x < 0.0:
        raise ValidationError(f"endpoint must be >= 0, got {x}")
    if x == 0.0:
        return np.zeros(n_max + 1)

    js = np.arange(n_max + 2, dtype=float)
    lag = laguerre_sequence_table(n_max + 1, alpha + js, x)
    log_x = math.log(x)
    log_s = math.log(s)

    table = np.zeros((n_max + 1, n_max + 1))
    a_seed = alpha + js[:-1] + 1.0
    table[:, 0] = np.exp(-a_seed * log_s) * _lower_gamma_vec(a_seed, s * x)
    for j in range(n_max - 1, -1, -1):
        k = n_max - j
        n = np.arange(1, k + 1, dtype=float)
        weight = math.exp(-s * x + (alpha + j + 1.0) * log_x)
        table[j, 1 : k + 1] = (
            weight * lag[0:k, j + 1] + (s - 1.0) * table[j + 1, 0:k]
        ) / n
    return table[0]


def laguerre_exp_integrals_at_infinity(n_max: int, alpha: float, s: float) -> np.ndarray:
    """Full-line limit Gamma(alpha + n + 1) (s - 1)^n / (n! s^{alpha + n + 1}),
    formed in log space (it leaves double range at large alpha)."""
    check_integer("degree n_max", n_max)
    if not alpha > -1.0:
        raise ValidationError(f"Laguerre order must satisfy alpha > -1, got {alpha}")
    if not s > 0.0:
        raise ValidationError(f"exponential tilt must satisfy s > 0, got {s}")
    n = np.arange(n_max + 1, dtype=float)
    sign = np.where(n % 2 == 0, 1.0, -1.0) if s < 1.0 else np.ones(n_max + 1)
    if s == 1.0:  # (s - 1)^n = 0 for n >= 1
        powers = np.where(n > 0, -math.inf, 0.0)
    else:
        powers = n * math.log(abs(s - 1.0))
    log_mag = (
        _lgamma(alpha + n + 1.0)
        - _lgamma(n + 1.0)
        + powers
        - (alpha + n + 1.0) * math.log(s)
    )
    return sign * np.exp(log_mag)


# ---------------------------------------------------------------------------
# Hermite family, orthonormal form
# ---------------------------------------------------------------------------


def _hermite_functions(n_max: int, x: float) -> np.ndarray:
    """[n] = h_n(x) = H_n(x) e^{-x^2/2} / sqrt(sqrt(pi) 2^n n!), the orthonormal
    Hermite functions, by the normalized recurrence with e^{-x^2/2} in its
    seed (no factor leaves double range at any degree); zero at +-inf."""
    if math.isinf(x):
        return np.zeros(n_max + 1)
    return _kernel(HERMITE_FUNCTIONS, n_max, x, math.exp(-0.5 * x * x))


def _check_hermite_table(n_max: int, x: float) -> None:
    check_integer("degree n_max", n_max)
    if math.isnan(x):
        raise ValidationError("endpoint must not be NaN")


# The per-degree factors of the Hermite rows, for every degree they are
# built to: sqrt((n + 1) / 2) for n = 0..POOL_CAP + 1, and sqrt(2n) from n = 1
_HERMITE_ROOTS = np.sqrt(0.5 * np.arange(1, POOL_CAP + 3, dtype=float))
_HERMITE_STEP_ROOTS = 2.0 * _HERMITE_ROOTS


def _hermite_rows(n_max: int, x: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h, g, d) of the Hermite pair table at x, degrees 0..n_max: the
    functions h_n, g_n = h_{n+1} sqrt((n+1)/2), and the diagonal, which steps
    d_n = d_{n-1} - h_{n-1} h_n / sqrt(2n) up from d_0 = erfc(-x) / 2."""
    herm = _hermite_functions(n_max + 1, x)
    h, g = herm[:-1], herm[1:] * _HERMITE_ROOTS[: n_max + 1]
    d = np.zeros(n_max + 1)
    d[1:] = h[:-1] * herm[1:-1] / _HERMITE_STEP_ROOTS[:n_max]
    np.add.accumulate(d, out=d)
    return h, g, np.subtract(0.5 * math.erfc(-x), d, out=d)


def hermite_pair_integrals(n_max: int, x: float) -> np.ndarray:
    """Table [m, n] = int_{-inf}^x h_m h_n dy, entry by entry from
    ``_hermite_rows``: (h_m g_n - g_m h_n) / (n - m) off the diagonal."""
    _check_hermite_table(n_max, x)
    _check_degree(n_max)
    h, g, d = _hermite_rows(n_max, x)
    table = (np.outer(h, g) - np.outer(g, h)) * _gaps(n_max + 1, n_max + 1)
    table[np.diag_indices(n_max + 1)] = d
    return table


def hermite_pair_integrals_at_infinity(n_max: int) -> np.ndarray:
    """Full-line limit: the identity (orthonormality)."""
    check_integer("degree n_max", n_max)
    return np.eye(n_max + 1)


def hermite_exp_integrals(n_max: int, s: float, x: float) -> np.ndarray:
    """Vector [n] = int_{-inf}^x e^{s y - y^2/2} h_n(y) dy, stepping
    e_n = (s e_{n-1} - e^{s x - x^2/2} h_{n-1}(x)) / sqrt(2n); at x = inf
    the full-line limit."""
    _check_hermite_table(n_max, x)
    if x == math.inf:
        return hermite_exp_integrals_at_infinity(n_max, s)
    herm = _hermite_functions(max(n_max, 1), x)
    boundary = math.exp(s * x - 0.5 * x * x)
    out = np.empty(n_max + 1)
    out[0] = 0.5 * math.exp(0.25 * s * s) * math.pi**0.25 * math.erfc(0.5 * s - x)
    for n in range(1, n_max + 1):
        out[n] = (s * out[n - 1] - boundary * herm[n - 1]) / math.sqrt(2.0 * n)
    return out


def hermite_exp_integrals_at_infinity(n_max: int, s: float) -> np.ndarray:
    """Full-line limit e^{s^2/4} pi^{1/4} s^n / sqrt(2^n n!) (the recursion
    limit of the above)."""
    check_integer("degree n_max", n_max)
    steps = s / np.sqrt(2.0 * np.arange(1, n_max + 1, dtype=float))
    return math.exp(0.25 * s * s) * math.pi**0.25 * np.cumprod(np.concatenate(([1.0], steps)))


# ---------------------------------------------------------------------------
# Model-level assembly
# ---------------------------------------------------------------------------

# [m, n] = 1 / (n - m) off the diagonal and 0 on it, for every size up to its
# own: grown on demand (doubling up to POOL_CAP + 1) and read as a slice
_reciprocal_gaps = np.zeros((0, 0))


def _gaps(rows: int, cols: int) -> np.ndarray:
    global _reciprocal_gaps
    gaps = _reciprocal_gaps
    if len(gaps) < max(rows, cols):
        size = max(rows, cols, min(2 * len(gaps), POOL_CAP + 1))
        idx = np.arange(size, dtype=float)
        with np.errstate(divide="ignore"):
            gaps = 1.0 / (idx[None, :] - idx[:, None])
        gaps[np.diag_indices(size)] = 0.0
        _reciprocal_gaps = gaps  # one assignment: a thread sees the old or the new
    return gaps[:rows, :cols]


def _pair_apply(
    f: np.ndarray, g: np.ndarray, d: np.ndarray, n_rows: int, weights: np.ndarray
) -> np.ndarray:
    """Rows 0..n_rows of the pair block with entries (f_m g_n - g_m f_n) / (n - m)
    off the diagonal and d on it, columns 0..size - 1 (size = the rows of
    ``weights``, a vector or a matrix of columns), applied to ``weights``
    without forming the block.

    With D[m, n] = 1 / (n - m) (zero on the diagonal) the block applied to
    w is f (D (g w)) - g (D (f w)) + d w: one product of D with both
    weighted columns, written side by side into one array.
    """
    size = weights.shape[0]
    columns = weights.reshape(size, -1)
    k = columns.shape[1]
    weighted = np.empty((size, 2 * k))
    np.multiply(g[:size, None], columns, out=weighted[:, :k])
    np.multiply(f[:size, None], columns, out=weighted[:, k:])
    both = _gaps(n_rows + 1, size) @ weighted
    out = f[: n_rows + 1, None] * both[:, :k] - g[: n_rows + 1, None] * both[:, k:]
    diag = min(n_rows + 1, size)
    out[:diag] += d[:diag, None] * columns[:diag]
    return out.reshape((n_rows + 1,) + weights.shape[1:])


def _laguerre_rows(
    model: DiffusionModel, n_max: int, z: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(psi, g, d) of the Laguerre pair block at the coordinate z, degrees
    0..n_max, for the model's ``laguerre_order`` alpha.

    One ``_kernel`` pass of the order-(alpha + 1) recurrence, seeded with
    sqrt(z^{alpha+2} e^{-z} / Gamma(alpha + 2)) in logs (large alpha and z
    would under- or overflow it), gives chi_1 .. chi_{n_max+1}; then
    psi_n = (sqrt(n + alpha + 1) chi_{n+1} - sqrt(n) chi_n) / z and
    g_n = sqrt(n) chi_n.  (chi from psi, sqrt(n + alpha) psi_{n-1} -
    sqrt(n) psi_n, cancels at small z when alpha < 0.)  The diagonal steps
    d_n = d_{n-1} + chi_n (psi_n / sqrt(n) - psi_{n-1} / sqrt(n + alpha))
    up from d_0 = P(alpha + 1, z).  Beyond z = 4 (2 n_max + alpha + 1) + 80
    every integrand is below 1e-26 of its total, so a larger z is cut
    there, and a coordinate that underflows is read as the least positive
    float.  The square roots are the model's ``_raised_roots``.
    """
    alpha = model.laguerre_order
    root_n, root_raised, root_order = model._raised_roots
    z = min(max(z, math.ulp(0.0)), 4.0 * (2.0 * n_max + alpha + 1.0) + 80.0)
    seed = math.exp(0.5 * ((alpha + 2.0) * math.log(z) - z - math.lgamma(alpha + 2.0)))
    chi = np.zeros(n_max + 2)
    _kernel(model._raised_recurrence, n_max, z, seed, chi[1:])
    root_n = root_n[: n_max + 1]
    g = root_n * chi[:-1]
    psi = (root_raised[: n_max + 1] * chi[1:] - g) / z
    d = np.zeros(n_max + 1)
    d[1:] = chi[1:-1] * (psi[1:] / root_n[1:] - psi[:-1] / root_order[1 : n_max + 1])
    np.add.accumulate(d, out=d)
    d += regularized_lower_gamma(alpha + 1.0, z)
    return psi, g, d


def overlap_below(
    model: DiffusionModel, x: float, n_rows: int, weights: np.ndarray
) -> np.ndarray:
    """Rows 0..n_rows of the overlap over the states below x, one column per
    row of ``weights`` (a vector, or a matrix of columns), applied to
    ``weights``: at an interior state, the closed-form pair block at the
    state's coordinate (``_pair_apply``) on the rows of the model's family.
    The identity copy of ``weights`` is built only where it is returned or
    subtracted from: at ``state_hi`` and on a reversed coordinate.
    """
    shape = (n_rows + 1,) + weights.shape[1:]
    if x == model.state_lo:
        return np.zeros(shape)
    if x != model.state_hi:
        z = model.poly_coordinate(x)
        n_max = max(n_rows, weights.shape[0] - 1)
        if model.polynomial_family == "hermite":
            rows = _hermite_rows(n_max, z)
        else:
            rows = _laguerre_rows(model, n_max, z)
        block = _pair_apply(*rows, n_rows, weights)
        if not model.coordinate_reversed:
            return block
    out = np.zeros(shape)
    out[: weights.shape[0]] = weights[: n_rows + 1]  # the identity, by orthonormality
    if x != model.state_hi:
        out -= block
    return out


def _check_degree(n_max: int) -> None:
    """Refuse a degree that is not an integer in 0..``POOL_CAP``, the
    degrees the rows of both families are built to."""
    check_integer("degree n_max", n_max)
    if n_max > POOL_CAP:
        raise ValidationError(f"degree n_max must be <= POOL_CAP = {POOL_CAP}, got {n_max}")


def _check_interval(model: DiffusionModel, n_max: int, x_lo: float, x_hi: float) -> None:
    _check_degree(n_max)
    for name, x in (("x_lo", x_lo), ("x_hi", x_hi)):
        if not (model.state_lo <= x <= model.state_hi):
            raise ValidationError(f"{name}={x} outside closure of the state space")
    if x_lo > x_hi:
        raise ValidationError(f"interval endpoints out of order: {x_lo} > {x_hi}")


def overlap_matrix(model: DiffusionModel, n_max: int, x_lo: float, x_hi: float) -> np.ndarray:
    """Gram matrix overlap_{m,n}(x_lo, x_hi) for m, n = 0..n_max.

    The endpoints may be the state-space boundaries; the full interval
    yields the identity (orthonormality) and an empty interval the zero
    matrix.
    """
    _check_interval(model, n_max, x_lo, x_hi)
    unit = np.eye(n_max + 1)
    return overlap_below(model, x_hi, n_max, unit) - overlap_below(model, x_lo, n_max, unit)


def strike_projection(
    model: DiffusionModel,
    sub: SubordinatorSpec,
    n_max: int,
    x_lo: float,
    x_hi: float,
    delta: float,
    eps: float = 1e-10,
) -> np.ndarray:
    """Projections strike_n(x_lo, x_hi) of the delta-discounted unit payoff:
    the overlap over the interval applied to the expansion of P(delta, .),
    its inner sum cut by the same adaptive rule as the pricer's strike legs
    (the spectrum's ``cut``), under every model and clock."""
    series.check_eps(eps)
    _check_interval(model, n_max, x_lo, x_hi)
    if not (math.isfinite(delta) and delta >= 0.0):
        raise ValidationError(f"notice period must be finite and >= 0, got {delta}")
    strike = spectrum(model, sub).cut(((delta, 1.0),), eps)
    return overlap_below(model, x_hi, n_max, strike) - overlap_below(model, x_lo, n_max, strike)
