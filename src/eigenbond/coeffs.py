"""Truncated-interval eigenfunction integrals by Gauss-Jacobi quadrature
and orthonormal Hermite tables, with closed-form reference tables.

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
  polynomial coordinate to the state's coordinate z: by Gauss-Jacobi
  quadrature for a Laguerre coordinate (CIR, 3/2), where phi_m phi_n m is
  u^alpha e^{-u} times a polynomial in u, so a Gauss rule for the weight
  t^alpha on [0, 1] (``_gauss_jacobi``, cached on the model per size),
  scaled to [0, z], takes every integral.  The node matrix V (one row per
  degree, one column per node) comes from one banded triangular solve,
  the recurrence over all nodes at once (``models._node_matrix``), and the
  block applied to w is V (V^T w), without forming the block.  For a
  Hermite coordinate (Vasicek) it is the Hermite pair table, taken in
  orthonormal form over the Hermite functions
  h_n(y) = H_n(y) e^{-y^2/2} / sqrt(sqrt(pi) 2^n n!) of the models'
  normalized recurrence:

    pair_{m,n}(x) = int_-inf^x h_m h_n dy

  The off-diagonal entries have a closed form, h_m g_n - g_m h_n over
  n - m with g_n = h_{n+1} sqrt((n+1)/2), and the diagonal steps up in
  degree from an erfc seed; no factor leaves double range at any degree.
  The closed form is applied to w as it stands, two weighted columns
  through one product with D[m, n] = 1 / (n - m) (``_hermite_pair_apply``),
  without forming the table;
* on a coordinate that decreases in the state (3/2, v = beta / x), the
  identity minus that block, since the states below x are the
  coordinates above z.

Only ``overlap_below`` reads the model's polynomial family and the
orientation of its coordinate, and the model's ``overlap_log_constant``
turns its polynomial integrals into eigenfunction integrals.  The other
tables here are the reference that tests compare against, and the pricer
builds none of them: the closed-form Laguerre tables at a finite
coordinate, int_0^x L_m L_n e^{-y} y^alpha dy and int_0^x y^alpha e^{-s y}
L_n dy, which step down in order from incomplete-gamma seeds at elevated
order; the Hermite exp integrals int_-inf^x e^{s y - y^2/2} h_n dy, which
step up from an erfc seed; and the full-line limits of both families
(``*_at_infinity``), which the exact identity at ``state_hi`` replaces.
The pricer takes one ``overlap_below`` per finite break-even state per
assembly pass (see ``pricer._Engine._assemble``).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import linalg
from scipy import special as sp

from . import series
from .errors import ValidationError, check_integer
from .models import HERMITE_FUNCTIONS, POOL_CAP, DiffusionModel, _kernel, _node_matrix
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


def hermite_pair_integrals(n_max: int, x: float) -> np.ndarray:
    """Table [m, n] = int_{-inf}^x h_m h_n dy: ``_hermite_pair_apply`` on the
    identity, so the table and the pricer's apply share one code path.

    The diagonal steps d_n = d_{n-1} - h_{n-1} h_n / sqrt(2n) up from
    d_0 = erfc(-x) / 2; off the diagonal
    (h_m h_{n+1} sqrt((n+1)/2) - h_n h_{m+1} sqrt((m+1)/2)) / (n - m).
    """
    _check_hermite_table(n_max, x)
    return _hermite_pair_apply(x, n_max, np.eye(n_max + 1))


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


def _hermite_pair_apply(x: float, n_rows: int, weights: np.ndarray) -> np.ndarray:
    """Rows 0..n_rows of ``hermite_pair_integrals`` at x, columns 0..size - 1
    (size = the rows of ``weights``, a vector or a matrix of columns), applied
    to ``weights`` without forming the table.

    With g_n = h_{n+1} sqrt((n+1)/2) and D[m, n] = 1 / (n - m) (zero on the
    diagonal), the table is h_m g_n D[m, n] - g_m h_n D[m, n] off the
    diagonal, so T w = h (D (g w)) - g (D (h w)) + d w: one product of D
    with both weighted columns, and the diagonal d of the erfc chain.
    """
    size = weights.shape[0]
    n_max = max(n_rows, size - 1)
    herm = _hermite_functions(n_max + 1, x)
    root = np.sqrt(0.5 * np.arange(1, n_max + 2, dtype=float))  # sqrt((n+1)/2)
    h, g = herm[:-1], herm[1:] * root

    diag = np.empty(min(n_rows + 1, size))
    diag[0] = 0.5 * sp.erfc(-x)
    steps = h[: len(diag) - 1] * herm[1 : len(diag)] / (2.0 * root[: len(diag) - 1])
    diag[1:] = diag[0] - np.cumsum(steps)

    columns = weights.reshape(size, -1)
    k = columns.shape[1]
    both = _gaps(n_rows + 1, size) @ np.hstack((g[:size, None] * columns, h[:size, None] * columns))
    out = h[: n_rows + 1, None] * both[:, :k] - g[: n_rows + 1, None] * both[:, k:]
    out[: len(diag)] += diag[:, None] * columns[: len(diag)]
    return out.reshape((n_rows + 1,) + weights.shape[1:])


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
    out[0] = 0.5 * math.exp(0.25 * s * s) * math.pi**0.25 * sp.erfc(0.5 * s - x)
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

# Gauss-Jacobi sizes are rounded up to a multiple of this, so that a run
# builds only a handful of rules.
_RULE_STEP = 8


def _gauss_jacobi(size: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t_j and log weights of the ``size``-point Gauss rule on [0, 1]
    for the weight t^alpha (Golub-Welsch).

    The nodes are the eigenvalues of the Jacobi matrix of the shifted Jacobi
    polynomials, polished by one Newton step on their orthonormal
    three-term recurrence, which keeps the nodes near t = 0 to relative
    precision; ``scipy.special.roots_jacobi`` maps its nodes from [-1, 1] and
    loses that precision there (its rule misses int_0^1 t^alpha e^{-t} dt by
    6e-13 at alpha = -0.745 with 80 nodes).  The weights are the Christoffel
    numbers mu_0 / sum_k q_k(t_j)^2, summed under a running scale so that
    large alpha neither overflows nor underflows.
    """
    k = np.arange(size + 1, dtype=float)
    two_k = 2.0 * k + alpha
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = np.where(k == 0, alpha / (alpha + 2.0), alpha * alpha / (two_k * (two_k + 2.0)))
        off = k * (k + alpha) / (two_k * np.sqrt((two_k + 1.0) * (two_k - 1.0)))
    diag = 0.5 + 0.5 * shift
    off[0] = 0.0  # off[n] couples degrees n - 1 and n
    t = linalg.eigvalsh_tridiagonal(diag[:size], off[1:size])
    for newton in (True, False):
        q_prev, q = np.zeros(size), np.ones(size)
        dq_prev, dq = np.zeros(size), np.zeros(size)
        total, log_scale = np.ones(size), np.zeros(size)
        for n in range(size):  # q = q_n -> q_{n+1}, dq its derivative
            gap = t - diag[n]
            q_prev, q = q, (gap * q - off[n] * q_prev) / off[n + 1]
            dq_prev, dq = dq, (q_prev + gap * dq - off[n] * dq_prev) / off[n + 1]
            if n + 1 < size:
                total += q * q
            if n % 8 == 7:  # q grows by at most ~1/off per degree
                scale = np.maximum(np.abs(q), 1.0)
                q, q_prev, dq, dq_prev = q / scale, q_prev / scale, dq / scale, dq_prev / scale
                total /= scale * scale
                log_scale += np.log(scale)
        if newton:
            t = t - q / dq
    return t, -math.log(alpha + 1.0) - np.log(total) - 2.0 * log_scale


def _jacobi_rule(model: DiffusionModel, size: int) -> tuple[np.ndarray, np.ndarray]:
    """``_gauss_jacobi`` for the model's ``laguerre_order``, built on first use
    of a size and cached on the model."""
    rules = model._jacobi_rules
    rule = rules.get(size)
    if rule is None:
        rule = rules[size] = _gauss_jacobi(size, model.laguerre_order)
    return rule


def overlap_below(
    model: DiffusionModel, x: float, n_rows: int, weights: np.ndarray
) -> np.ndarray:
    """Rows 0..n_rows of the overlap over the states below x, one column per
    row of ``weights`` (a vector, or a matrix of columns), applied to
    ``weights``.

    At a Laguerre coordinate z the rule has n_max + 12 + ceil(1.5 z) nodes
    u_j of [0, z] for the weight u^alpha, rounded up to a multiple of
    ``_RULE_STEP``: the factor e^{-u} needs nodes in proportion to z.
    Beyond u = 4 (2 n_max + alpha + 1) + 80 every integrand is below 1e-26
    of its total, so a larger z is cut there.  With weights w_j,
    h_j = log sqrt(w_j e^{C - u_j}) (C the model's ``overlap_log_constant``)
    and V[n, j] = N_n L_n(u_j) e^{h_j}, V V^T is the block.  V is one banded
    solve over every node (``models._node_matrix``), not a numpy step per
    degree.  At a Hermite coordinate the pair table's closed form is applied
    to the weights (``_hermite_pair_apply``) without forming the table.
    """
    size = weights.shape[0]
    out = np.zeros((n_rows + 1,) + weights.shape[1:])
    if x == model.state_lo:
        return out
    out[:size] = weights[: n_rows + 1]  # the identity, by orthonormality
    if x == model.state_hi:
        return out
    z = model.poly_coordinate(x)
    if model.polynomial_family == "hermite":
        block = _hermite_pair_apply(z, n_rows, weights)
    else:
        n_max = max(n_rows, size - 1)
        # a coordinate that underflows is read as the least positive float
        z = min(max(z, math.ulp(0.0)), 4.0 * (2.0 * n_max + model.laguerre_order + 1.0) + 80.0)
        n_nodes = n_max + 12 + math.ceil(1.5 * z)
        t, log_w = _jacobi_rule(model, -(-n_nodes // _RULE_STEP) * _RULE_STEP)
        u = z * t
        # the weights on [0, z] carry z^(alpha + 1); logs keep large alpha
        # and z (CIR with b = 160) from under- or overflowing, and e^h
        # seeds the node matrix, where N_n L_n(u_j) alone would overflow
        log_scale = (model.laguerre_order + 1.0) * math.log(z) + model.overlap_log_constant
        rows = _node_matrix(model._recurrence, n_max, u, np.exp(0.5 * (log_w + log_scale - u)))
        block = rows[: n_rows + 1] @ (rows[:size].T @ weights)
    return out - block if model.coordinate_reversed else block


def _check_interval(model: DiffusionModel, n_max: int, x_lo: float, x_hi: float) -> None:
    check_integer("degree n_max", n_max)
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
