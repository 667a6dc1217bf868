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
  incomplete gamma P(alpha + 1, z).  ``_hermite_rows`` and
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
assembly pass (see ``pricer._Engine._assemble``).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp

from . import series
from .errors import ValidationError, check_integer
from .models import HERMITE_FUNCTIONS, POOL_CAP, DiffusionModel, _kernel
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
]


def max_table_degree(model: DiffusionModel) -> int:
    """``POOL_CAP`` for every model: no table the pricer builds leaves double range."""
    return POOL_CAP


def _lower_gamma_vec(a: np.ndarray, x: float) -> np.ndarray:
    """Non-regularized lower incomplete gamma for a vector of parameters."""
    return sp.gammainc(a, x) * np.exp(sp.gammaln(a))


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
    return np.diag(np.exp(sp.gammaln(alpha + n + 1.0) - sp.gammaln(n + 1.0)))


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
        sp.gammaln(alpha + n + 1.0)
        - sp.gammaln(n + 1.0)
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
    d += sp.gammainc(alpha + 1.0, z)
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
