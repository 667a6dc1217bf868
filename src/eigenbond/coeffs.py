"""Closed-form recursions for truncated-interval eigenfunction integrals.

The backward recursion for callable/putable bonds needs, at every decision
date, the Gram ("overlap") integrals of pairs of eigenfunctions over the
hold region and the projections of the discounted strike onto each
eigenfunction over the exercise regions:

    overlap_{m,n}(x, y) = int_x^y phi_m phi_n m(z) dz
    strike_n(x, y)      = int_x^y P(delta, z) phi_n(z) m(z) dz

Both reduce to two families of weighted polynomial integrals, taken from
the bottom of the model's polynomial coordinate to the mapped endpoint:

    pair_{m,n}(x) = int_0^x  L_m L_n e^{-y} y^alpha dy      (Laguerre family)
                    int_-inf^x H_m H_n e^{-y^2} dy          (Hermite family)
    exp_n(s, x)   = int_0^x  y^alpha e^{-s y} L_n dy
                    int_-inf^x e^{s y - y^2} H_n dy

Off-diagonal pair integrals have closed forms; the diagonal ones and the
exp integrals satisfy recursions that step *down* in the polynomial order
while stepping up in degree, so each is built as a two-dimensional table
seeded at elevated order (alpha + N descending to alpha).

An interval integral is the difference of the two endpoint integrals, taken
in coordinate order, times the model's constant factors
(``overlap_log_constant``, ``strike_factors``).  An ``Endpoint`` places one
state in the coordinate of the model's ``polynomial_family``: a state-space
boundary maps to an end of the coordinate range, where the integrals are
zero or the orthogonality / Gamma-integral limits.  At a finite coordinate
the Endpoint holds the polynomial table (Laguerre polynomials of orders
alpha..alpha+N+1, or Hermite polynomials) that the pair and exp integrals
both slice.  The pricer makes one ``Endpoint`` per finite break-even state
per assembly pass, so each endpoint table is built once: the hold overlap
and the strike leg that meet at the state share it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp

from . import series
from .errors import UnsupportedModelError, ValidationError
from .models import HERMITE_DEGREE_CAP, DiffusionModel
from .specfun import hermite_sequence, laguerre_sequence_table
from .subordinators import SubordinatorSpec, laplace_exponent

__all__ = [
    "laguerre_pair_integrals",
    "laguerre_pair_integrals_at_infinity",
    "laguerre_exp_integrals",
    "laguerre_exp_integrals_at_infinity",
    "hermite_pair_integrals",
    "hermite_pair_integrals_at_infinity",
    "hermite_exp_integrals",
    "hermite_exp_integrals_at_infinity",
    "Endpoint",
    "overlap_matrix",
    "strike_projection",
    "max_table_degree",
]


def max_table_degree(model: DiffusionModel) -> int:
    """Largest degree whose integral tables stay inside double range (the
    model's ``table_degree_cap``); callers that grow coefficient vectors
    adaptively must stop here.
    """
    return model.table_degree_cap


def _lower_gamma_vec(a: np.ndarray, x: float) -> np.ndarray:
    """Non-regularized lower incomplete gamma for a vector of parameters."""
    return sp.gammainc(a, x) * np.exp(sp.gammaln(a))


def _check_laguerre_degree(n_max: int, alpha: float) -> None:
    if alpha + n_max + 1.0 > 170.0:
        raise ValidationError(
            f"Laguerre integral tables limited to alpha + n + 1 <= 170 "
            f"(Gamma overflows double precision); got alpha={alpha}, n_max={n_max}"
        )


# ---------------------------------------------------------------------------
# Laguerre family
# ---------------------------------------------------------------------------


def laguerre_pair_integrals(n_max: int, alpha: float, x: float, lag=None) -> np.ndarray:
    """Table [m, n] = int_0^x L_m^(alpha) L_n^(alpha) e^{-y} y^alpha dy.

    Off-diagonal entries from the closed form; diagonal entries from the
    descending-order chain seeded by lower incomplete gammas at orders
    alpha + n_max .. alpha.  ``lag`` may pass in the polynomial table
    (see ``Endpoint.table``).
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
    if lag is None:
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
    if not alpha > -1.0:
        raise ValidationError(f"Laguerre order must satisfy alpha > -1, got {alpha}")
    n = np.arange(n_max + 1, dtype=float)
    return np.diag(np.exp(sp.gammaln(alpha + n + 1.0) - sp.gammaln(n + 1.0)))


def laguerre_exp_integrals(n_max: int, alpha: float, s: float, x: float, lag=None) -> np.ndarray:
    """Vector [n] = int_0^x y^alpha e^{-s y} L_n^(alpha)(y) dy, s > 0; ``lag`` as above."""
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
    if lag is None:
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
    """Full-line limit Gamma(alpha + n + 1) (s - 1)^n / (n! s^{alpha + n + 1})."""
    if not alpha > -1.0:
        raise ValidationError(f"Laguerre order must satisfy alpha > -1, got {alpha}")
    if not s > 0.0:
        raise ValidationError(f"exponential tilt must satisfy s > 0, got {s}")
    n = np.arange(n_max + 1, dtype=float)
    if s == 1.0:
        out = np.zeros(n_max + 1)
        out[0] = math.gamma(alpha + 1.0)
        return out
    sign = np.where(n % 2 == 0, 1.0, -1.0) if s < 1.0 else np.ones(n_max + 1)
    log_mag = (
        sp.gammaln(alpha + n + 1.0)
        - sp.gammaln(n + 1.0)
        + n * math.log(abs(s - 1.0))
        - (alpha + n + 1.0) * math.log(s)
    )
    return sign * np.exp(log_mag)


# ---------------------------------------------------------------------------
# Hermite family
# ---------------------------------------------------------------------------


def _check_hermite_degree(n_max: int) -> None:
    if n_max > HERMITE_DEGREE_CAP:
        raise ValidationError(
            f"Hermite integral tables limited to degree {HERMITE_DEGREE_CAP} "
            "(the orthogonality constants overflow double precision beyond)"
        )


def hermite_pair_integrals(n_max: int, x: float, herm=None) -> np.ndarray:
    """Table [m, n] = int_{-inf}^x H_m H_n e^{-y^2} dy; ``herm`` as ``Endpoint.table``."""
    _check_hermite_degree(n_max)
    size = n_max + 1
    if herm is None:
        herm = hermite_sequence(n_max + 1, x)
    damp = math.exp(-x * x)

    diag = np.empty(size)
    diag[0] = math.sqrt(math.pi) * sp.ndtr(math.sqrt(2.0) * x)
    for n in range(1, size):
        diag[n] = -herm[n - 1] * herm[n] * damp + 2.0 * n * diag[n - 1]

    cross = np.outer(herm[:size], herm[1 : size + 1])  # H_n H_{m+1}
    idx = np.arange(size, dtype=float)
    denom = 2.0 * (idx[None, :] - idx[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        table = damp * (cross - cross.T) / denom
    table[np.diag_indices(size)] = diag
    return table


def hermite_pair_integrals_at_infinity(n_max: int) -> np.ndarray:
    """Full-line limit: sqrt(pi) 2^n n! on the diagonal, zero off it."""
    _check_hermite_degree(n_max)
    n = np.arange(n_max + 1, dtype=float)
    return np.diag(
        np.exp(0.5 * math.log(math.pi) + n * math.log(2.0) + sp.gammaln(n + 1.0))
    )


def hermite_exp_integrals(n_max: int, s: float, x: float, herm=None) -> np.ndarray:
    """Vector [n] = int_{-inf}^x e^{s y - y^2} H_n(y) dy; ``herm`` as ``Endpoint.table``."""
    _check_hermite_degree(n_max)
    if herm is None:
        herm = hermite_sequence(max(n_max, 1), x)
    boundary = math.exp(s * x - x * x)
    out = np.empty(n_max + 1)
    out[0] = (
        0.5
        * math.exp(0.25 * s * s)
        * math.sqrt(math.pi)
        * (sp.erf(0.5 * (2.0 * x - s)) + 1.0)
    )
    for n in range(1, n_max + 1):
        out[n] = -boundary * herm[n - 1] + s * out[n - 1]
    return out


def hermite_exp_integrals_at_infinity(n_max: int, s: float) -> np.ndarray:
    """Full-line limit e^{s^2/4} sqrt(pi) s^n (the recursion limit of the above)."""
    _check_hermite_degree(n_max)
    n = np.arange(n_max + 1)
    return math.exp(0.25 * s * s) * math.sqrt(math.pi) * s**n.astype(float)


# ---------------------------------------------------------------------------
# Model-level assembly
# ---------------------------------------------------------------------------


class Endpoint:
    """A state placed in the model's polynomial coordinate, with the
    polynomial table its integrals share at a finite coordinate.

    Smaller tables are leading slices of larger ones, entry for entry, so
    sharing one changes no value.
    """

    def __init__(self, model: DiffusionModel, x: float):
        self.model = model
        self.x = x
        self._hermite = model.polynomial_family == "hermite"
        self._bottom = -math.inf if self._hermite else 0.0
        if model.state_lo < x < model.state_hi:
            self.z = model.poly_coordinate(x)
        else:  # a state-space boundary maps to an end of the coordinate range
            at_top = (x == model.state_hi) != model.coordinate_reversed
            self.z = math.inf if at_top else self._bottom
        self._table: np.ndarray | None = None

    def table(self, n_max: int) -> np.ndarray:
        """[degree, j] = L_degree^(alpha+j), or [degree] = H_degree, at the
        finite coordinate for degrees and j up to at least n_max + 1; built
        on first use, rebuilt only for a higher degree.
        """
        if self._table is None or self._table.shape[0] < n_max + 2:
            if self._hermite:
                self._table = hermite_sequence(n_max + 1, self.z)
            else:
                js = np.arange(n_max + 2, dtype=float)
                self._table = laguerre_sequence_table(
                    n_max + 1, self.model.laguerre_order + js, self.z
                )
        return self._table

    def pair(self, n_max: int) -> np.ndarray:
        """Pair-integral table from the bottom of the coordinate to z."""
        if self.z == self._bottom:
            return np.zeros((n_max + 1, n_max + 1))
        if self._hermite:
            if self.z == math.inf:
                return hermite_pair_integrals_at_infinity(n_max)
            return hermite_pair_integrals(n_max, self.z, self.table(n_max))
        alpha = self.model.laguerre_order
        if self.z == math.inf:
            return laguerre_pair_integrals_at_infinity(n_max, alpha)
        return laguerre_pair_integrals(n_max, alpha, self.z, self.table(n_max))

    def exp(self, n_max: int, s: float) -> np.ndarray:
        """Exp integrals at tilt s from the bottom of the coordinate to z."""
        if self.z == self._bottom:
            return np.zeros(n_max + 1)
        if self._hermite:
            if self.z == math.inf:
                return hermite_exp_integrals_at_infinity(n_max, s)
            return hermite_exp_integrals(n_max, s, self.z, self.table(n_max))
        alpha = self.model.laguerre_order
        if self.z == math.inf:
            return laguerre_exp_integrals_at_infinity(n_max, alpha, s)
        return laguerre_exp_integrals(n_max, alpha, s, self.z, self.table(n_max))


def _endpoint(model: DiffusionModel, x: float | Endpoint) -> Endpoint:
    return x if isinstance(x, Endpoint) else Endpoint(model, x)


def _check_interval(model: DiffusionModel, x_lo: float, x_hi: float) -> None:
    if not (model.state_lo <= x_lo <= model.state_hi):
        raise ValidationError(f"x_lo={x_lo} outside closure of the state space")
    if not (model.state_lo <= x_hi <= model.state_hi):
        raise ValidationError(f"x_hi={x_hi} outside closure of the state space")
    if x_lo > x_hi:
        raise ValidationError(f"interval endpoints out of order: {x_lo} > {x_hi}")


def _coordinate_order(model: DiffusionModel, lo: Endpoint, hi: Endpoint):
    """The interval's endpoints, lower coordinate first."""
    return (hi, lo) if model.coordinate_reversed else (lo, hi)


def overlap_matrix(model: DiffusionModel, n_max: int, x_lo: float, x_hi: float) -> np.ndarray:
    """Gram matrix overlap_{m,n}(x_lo, x_hi) for m, n = 0..n_max.

    The endpoints may be the state-space boundaries; the full interval
    yields the identity (orthonormality) and an empty interval the zero
    matrix.
    """
    _check_interval(model, x_lo, x_hi)
    return _overlap_block(model, n_max, n_max, x_lo, x_hi)


def _overlap_block(
    model: DiffusionModel, n_rows: int, n_cols: int, x_lo: float | Endpoint, x_hi: float | Endpoint
) -> np.ndarray:
    """Rectangular overlap block (rows 0..n_rows, cols 0..n_cols)."""
    lo, hi = _endpoint(model, x_lo), _endpoint(model, x_hi)
    if lo.x == hi.x:
        return np.zeros((n_rows + 1, n_cols + 1))
    n_max = max(n_rows, n_cols)
    log_n = model.log_norm_constants(n_max)
    pref = np.exp(log_n[: n_rows + 1, None] + log_n[None, : n_cols + 1] + model.overlap_log_constant)
    lo, hi = _coordinate_order(model, lo, hi)
    return pref * (hi.pair(n_max) - lo.pair(n_max))[: n_rows + 1, : n_cols + 1]


def _closed_form_strike(
    model: DiffusionModel, n_max: int, lo: Endpoint, hi: Endpoint, delta: float
) -> np.ndarray:
    tilt, log_pref = model.strike_factors(delta, n_max)
    lo, hi = _coordinate_order(model, lo, hi)
    # The factor and the integral can leave double range on opposite sides
    # (CIR with b = 160: factors near 1e-420 against integrals near e^629),
    # so each integral is split into mantissa and power of two and the power
    # joins the factor's log.
    mantissa, power = np.frexp(hi.exp(n_max, tilt) - lo.exp(n_max, tilt))
    return mantissa * np.exp(log_pref + power * math.log(2.0))


def _expansion_strike(
    model: DiffusionModel,
    sub: SubordinatorSpec,
    n_max: int,
    lo: Endpoint,
    hi: Endpoint,
    delta: float,
    eps: float,
) -> np.ndarray:
    def weights(m_hi: int) -> np.ndarray:
        lam = laplace_exponent(sub, model.eigenvalues(m_hi))
        return model.unit_payoff_coefficients(m_hi) * np.exp(-lam * delta)

    m_cut = series.weight_cutoff(weights, eps)
    w = weights(m_cut)
    block = _overlap_block(model, n_max, m_cut, lo, hi)
    return block @ w


def strike_projection(
    model: DiffusionModel,
    sub: SubordinatorSpec,
    n_max: int,
    x_lo: float | Endpoint,
    x_hi: float | Endpoint,
    delta: float,
    eps: float = 1e-10,
    route: str = "auto",
) -> np.ndarray:
    """Projections strike_n(x_lo, x_hi) of the delta-discounted unit payoff.

    ``route="closed_form"`` integrates the exponential-affine bond directly
    (affine models on the plain clock); ``route="expansion"`` expands the bond in
    eigenfunctions with the inner sum cut by the same adaptive rule as the
    pricer.  ``"auto"`` picks the closed form whenever it exists.  Either
    endpoint may be an ``Endpoint`` whose table other integrals share.
    """
    lo, hi = _endpoint(model, x_lo), _endpoint(model, x_hi)
    _check_interval(model, lo.x, hi.x)
    if delta < 0.0:
        raise ValidationError(f"notice period must be >= 0, got {delta}")
    closed_form = sub.is_trivial and model.affine
    if route == "auto":
        route = "closed_form" if closed_form else "expansion"
    if route not in ("closed_form", "expansion"):
        raise ValidationError(f"unknown strike projection route {route!r}")
    if route == "closed_form" and not closed_form:
        raise UnsupportedModelError(
            "closed-form strike projections need an affine model on the plain clock"
        )
    if lo.x == hi.x:
        return np.zeros(n_max + 1)
    if route == "closed_form":
        return _closed_form_strike(model, n_max, lo, hi, delta)
    return _expansion_strike(model, sub, n_max, lo, hi, delta, eps)
