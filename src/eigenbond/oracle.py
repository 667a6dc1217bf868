"""Independent validators for the coefficient-recursion pricer.

Desk-scale cross-checks that deliberately avoid the coefficient
recursion, the overlap/strike tables, and the break-even search:

* ``quadrature_dp_price``: dynamic programming on a state grid.  The
  pricing operator is applied by numerical integration of the transition
  density expansion p_t(x, y) = sum_n e^{-phi(lambda_n) t} phi_n(x)
  phi_n(y) against the speed measure; decisions are taken nodewise.
  Shares only the model layer (eigenfunctions, closed-form bonds) with the
  main pricer.

* ``mc_zero_coupon``: Monte Carlo discounting along simulated Euler
  paths of the diffusion.  A subordinated model's bond is the diffusion's
  closed-form bond averaged over draws of the inverse Gaussian or gamma
  clock, so it shares no series with the pricer.

* ``short_rate_quadrature``: the short rate r_phi(x) of a time-changed
  model as the Levy integral of 1 - P(s, x) over the closed-form bond,
  by adaptive quadrature.  It cross-checks the eigenfunction expansion
  that ``subordinators.short_rate_map`` sums.

``import eigenbond`` imports this module but neither ``scipy.integrate``
nor ``scipy.stats``: ``short_rate_quadrature`` imports the first in its
body, and ``build_grid`` loads the second through the model's
``stationary_distribution``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DensityTruncationError, UnsupportedModelError, ValidationError, check_integer
from .models import CIRModel, DiffusionModel, ThreeHalvesModel, VasicekModel
from .pricer import BondSchedule
from .subordinators import SubordinatorSpec, laplace_exponent

__all__ = [
    "QuadratureGrid",
    "build_grid",
    "quadrature_dp_price",
    "mc_zero_coupon",
    "short_rate_quadrature",
]

_TAIL_MASS = 1e-11
_DENSITY_TAIL = 1e-12


class QuadratureGrid:
    """State abscissas and weights against the stationary law m(x) / M, M = e^{log_mass}."""

    def __init__(self, nodes, weights, bounds: tuple[float, float], log_mass: float):
        if np.any(weights <= 0.0):
            raise ValidationError("quadrature weights must be positive")
        self.nodes = nodes
        self.weights = weights
        self.bounds = bounds
        self.log_mass = log_mass


def build_grid(model: DiffusionModel, grid_size: int) -> QuadratureGrid:
    """Gauss-Legendre grid over stationary-quantile bounds, weighted by m(x) / M.

    The CIR speed density has an integrable singularity x^{b-1} at the
    origin when b < 1; the left panel is then built in the substituted
    variable u = x^b, which absorbs the singularity into the Jacobian
    exactly.  For b >= 1 the density is bounded and one panel serves.
    """
    dist = model.stationary_distribution()
    lo = float(dist.ppf(_TAIL_MASS))
    hi = float(dist.ppf(1.0 - _TAIL_MASS))
    half = grid_size // 2

    if isinstance(model, CIRModel) and model.b < 1.0:
        b = model.b
        split = model.theta
        nodes_l, wts_l = np.polynomial.legendre.leggauss(half)
        u = 0.5 * split**b * (nodes_l + 1.0)
        x_l = u ** (1.0 / b)
        w_l = 0.5 * split**b * wts_l * (1.0 / b) * u ** (1.0 / b - 1.0)
        w_l = w_l * dist.pdf(x_l)
        nodes_r, wts_r = np.polynomial.legendre.leggauss(grid_size - half)
        x_r = 0.5 * (hi - split) * nodes_r + 0.5 * (hi + split)
        w_r = 0.5 * (hi - split) * wts_r * dist.pdf(x_r)
        nodes = np.concatenate([x_l, x_r])
        weights = np.concatenate([w_l, w_r])
        lo = 0.0
    else:
        nodes_g, wts_g = np.polynomial.legendre.leggauss(grid_size)
        nodes = 0.5 * (hi - lo) * nodes_g + 0.5 * (hi + lo)
        weights = 0.5 * (hi - lo) * wts_g * dist.pdf(nodes)

    return QuadratureGrid(nodes, weights, (lo, hi), model.log_speed_mass())


def _density_matrix(
    eig_matrix: np.ndarray, philam: np.ndarray, t: float
) -> np.ndarray:
    """p_t(x_i, y_j) via the eigenfunction expansion on the grid."""
    damp = np.exp(-philam * t)
    return (eig_matrix * damp) @ eig_matrix.T


def _check_density_tail(philam: np.ndarray, t_min: float) -> None:
    tail = math.exp(-float(philam[-1]) * t_min)
    if tail > _DENSITY_TAIL:
        t_ok = -math.log(_DENSITY_TAIL) / float(philam[-1])
        raise DensityTruncationError(
            f"density truncation too coarse for t={t_min}: raise n_density "
            f"(currently valid only for t >= {t_ok:.3f})"
        )


def quadrature_dp_price(
    model: DiffusionModel,
    sub: SubordinatorSpec,
    schedule: BondSchedule,
    x0: float,
    grid_size: int = 400,
    n_density: int = 120,
) -> float:
    """Bond value by grid dynamic programming on the transition density.

    Exercise decisions are applied nodewise; expectations are quadrature
    sums against the density expansion.  No expansion coefficients are
    carried and no boundaries are located, which makes this an independent
    check of the recursion pricer at the cost of grid-level accuracy.
    """
    check_integer("grid_size", grid_size, 200)
    check_integer("n_density", n_density)
    sched = schedule
    k = sched.n_coupons
    grid = build_grid(model, grid_size)
    y, w = grid.nodes, grid.weights

    philam = np.asarray(laplace_exponent(sub, model.eigenvalues(n_density)), dtype=float)
    steps = [sched.holding_period(i) for i in range(sched.protection_index, k)]
    if steps:
        _check_density_tail(philam, min(steps))
    # phi_n sqrt(M) against the weights m / M: a product that stays in range
    root_mass = math.exp(0.5 * grid.log_mass)
    eig = model.eigenfunction_matrix(n_density, y) * root_mass

    # zero-coupon P(delta, y) on the grid for the strike comparisons
    n_bond = 300
    philam_b = np.asarray(laplace_exponent(sub, model.eigenvalues(n_bond)), dtype=float)
    p_b = model.unit_payoff_coefficients(n_bond)
    eig_b = model.eigenfunction_matrix(n_bond, y)
    p_delta = eig_b @ (p_b * np.exp(-philam_b * sched.notice_delta))

    value = np.full(grid_size, 1.0 + sched.coupon)
    for i in range(k - 1, sched.protection_index - 1, -1):
        density = _density_matrix(eig, philam, sched.holding_period(i))
        cont = density @ (w * value)
        value = cont.copy()
        k_call, k_put = sched.call_price(i), sched.put_price(i)
        if k_call is not None:
            value = np.minimum(k_call * p_delta, value)
        if k_put is not None:
            value = np.maximum(k_put * p_delta, value)
        value = value + sched.coupon * p_delta

    # discount the first decision-date value function back to issue
    if sched.protection_index < k:
        start_t = sched.decision_time(sched.protection_index)
    else:
        start_t = sched.maturity
    proj = eig.T @ (w * value)
    phi0 = model.eigenfunctions(n_density, x0) * root_mass
    v0 = float(np.sum(np.exp(-philam * start_t) * proj * phi0))
    for i in range(1, sched.protection_index):
        t_i = sched.coupon_time(i)
        pv = float(
            np.sum(
                model.unit_payoff_coefficients(n_bond)
                * np.exp(-philam_b * t_i)
                * model.eigenfunctions(n_bond, x0)
            )
        )
        v0 += sched.coupon * pv
    return v0


# ---------------------------------------------------------------------------
# Short-rate map by Levy-integral quadrature
# ---------------------------------------------------------------------------

_TAIL_CUTOFF = 1e-18


def levy_density(sub: SubordinatorSpec, s):
    """Levy density nu(s) of the jump measure (zero for the trivial clock)."""
    s = np.asarray(s, dtype=float)
    if sub.family == "none":
        return np.zeros_like(s)
    if sub.family == "ig":
        coef = sub.mu * math.sqrt(sub.mu / (2.0 * math.pi * sub.nu_var))
        return coef * s**-1.5 * np.exp(-0.5 * sub.mu / sub.nu_var * s)
    if sub.family == "gamma":
        return sub.c * s**-1.0 * np.exp(-sub.eta * s)
    return sub.c * s ** (-sub.p - 1.0) * np.exp(-sub.eta * s)


def _jump_tail_limit(sub: SubordinatorSpec) -> float:
    """Upper integration limit where the exponential tilt kills the density."""
    if sub.family == "ig":
        eta = 0.5 * sub.mu / sub.nu_var
    else:
        eta = sub.eta
    if eta <= 0.0:
        raise ValidationError("short-rate quadrature requires an exponentially tilted family")
    return max(2.0, -math.log(_TAIL_CUTOFF) / eta)


def short_rate_quadrature(model: DiffusionModel, sub: SubordinatorSpec, x: float) -> float:
    """r_phi(x) = gamma x + int (1 - P(s, x)) nu(ds) with the closed-form bond.

    The density is integrably singular at s = 0 (s^{-p-1} with p < 1, or
    s^{-3/2} for inverse Gaussian); substituting s = u^2 on (0, 1] makes the
    integrand bounded there since 1 - P(s, x) vanishes linearly in s.
    Needs the affine closed-form bond (CIR, Vasicek) and an exponentially
    tilted Levy density.
    """
    from scipy import integrate

    model.check_state(x)
    if sub.is_trivial:
        return float(x)

    def near(u):
        s = u * u
        return 2.0 * u * (1.0 - model.closed_form_bond(s, x)) * levy_density(sub, s)

    def far(s):
        return (1.0 - model.closed_form_bond(s, x)) * levy_density(sub, s)

    s_max = _jump_tail_limit(sub)
    near_part, _ = integrate.quad(near, 0.0, 1.0, epsabs=1e-13, epsrel=1e-11, limit=200)
    far_part, _ = integrate.quad(far, 1.0, s_max, epsabs=1e-13, epsrel=1e-11, limit=200)
    return sub.drift * float(x) + near_part + far_part


# ---------------------------------------------------------------------------
# Monte Carlo zero-coupon validator
# ---------------------------------------------------------------------------


_STEPS_PER_YEAR = 250  # Euler steps of the plain-clock Monte Carlo


def _euler_diffusion_discount(
    model: DiffusionModel, t: float, x0: float, n_paths: int, steps: int, rng
) -> np.ndarray:
    """exp(-int r) along full-truncation Euler paths of the diffusion."""
    floor = {CIRModel: 0.0, VasicekModel: -math.inf, ThreeHalvesModel: 1e-12}.get(type(model))
    if floor is None:
        raise ValidationError(f"no Monte Carlo scheme for {model.kind}")
    dt = t / steps
    sqdt = math.sqrt(dt)
    x = np.full(n_paths, float(x0))
    rate = np.maximum(x, floor)  # the short rate, floored where the scheme needs it
    integral = np.zeros(n_paths)
    for _ in range(steps):
        z = rng.standard_normal(n_paths)
        if isinstance(model, CIRModel):
            x = x + model.kappa * (model.theta - rate) * dt + model.sigma * np.sqrt(rate) * sqdt * z
        elif isinstance(model, VasicekModel):
            x = x + model.kappa * (model.theta - x) * dt + model.sigma * sqdt * z
        else:
            x = x + model.kappa * (model.theta - rate) * rate * dt + model.sigma * rate**1.5 * sqdt * z
        rate_new = np.maximum(x, floor)
        integral += 0.5 * (rate + rate_new) * dt
        rate = rate_new
    return np.exp(-integral)


def _clock_average_bonds(
    model: DiffusionModel, sub: SubordinatorSpec, t: float, x0: float, n_paths: int, rng
) -> np.ndarray:
    """Closed-form diffusion bonds P(T_t, x0) at draws of the clock T_t.

    Bochner subordination makes the subordinate bond the diffusion's bond
    averaged over the clock, P_phi(t, x) = E[P(T_t, x)], so the draws are
    unbiased samples of it.  T_t is the drift times t plus an inverse
    Gaussian (mean mu t, shape mu^3 t^2 / nu_var) or gamma (shape c t,
    rate eta) increment.
    """
    if sub.family not in ("ig", "gamma"):
        raise ValidationError(
            f"subordinated Monte Carlo samples the ig and gamma clocks, not {sub.family}"
        )
    if not model.affine:
        raise UnsupportedModelError(
            f"subordinated Monte Carlo needs the closed-form bond, which the {model.kind} model lacks"
        )
    if sub.family == "ig":
        jumps = rng.wald(sub.mu * t, sub.mu**3 * t * t / sub.nu_var, size=n_paths)
    else:
        jumps = rng.gamma(sub.c * t, 1.0 / sub.eta, size=n_paths)
    return np.array([model.closed_form_bond(clock, x0) for clock in jumps + sub.drift * t])


def mc_zero_coupon(
    model: DiffusionModel,
    sub: SubordinatorSpec,
    t: float,
    x0: float,
    n_paths: int = 100_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo zero-coupon price estimate with its standard error.

    On the plain clock each path is a full-truncation Euler path of the
    diffusion with ``_STEPS_PER_YEAR`` steps a year; on a jump clock each
    path is one clock draw (see ``_clock_average_bonds``).  Deterministic
    for a fixed seed.  Paths are generated in chunks drawn from spawned
    child streams so the memory footprint stays bounded.
    """
    if not (t > 0.0 and math.isfinite(t)):
        raise ValidationError(f"maturity must be positive and finite, got {t}")
    check_integer("n_paths", n_paths, 1)
    check_integer("seed", seed)
    model.check_state(x0)
    steps = max(1, int(round(t * _STEPS_PER_YEAR)))
    chunk = 20_000
    n_chunks = (n_paths + chunk - 1) // chunk
    streams = np.random.default_rng(seed).spawn(n_chunks)
    total = 0.0
    total_sq = 0.0
    done = 0
    for rng in streams:
        m = min(chunk, n_paths - done)
        if sub.is_trivial:
            disc = _euler_diffusion_discount(model, t, x0, m, steps, rng)
        else:
            disc = _clock_average_bonds(model, sub, t, x0, m, rng)
        total += float(np.sum(disc))
        total_sq += float(np.sum(disc * disc))
        done += m
    mean = total / n_paths
    var = max(total_sq / n_paths - mean * mean, 0.0)
    return mean, math.sqrt(var / n_paths)
