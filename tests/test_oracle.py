import numpy as np
import pytest

from eigenbond import benchmark
from eigenbond.errors import DensityTruncationError, UnsupportedModelError, ValidationError
from eigenbond.models import ThreeHalvesModel
from eigenbond.oracle import build_grid, mc_zero_coupon, quadrature_dp_price
from eigenbond.pricer import BondSchedule, price_bond, zero_coupon_price
from eigenbond.subordinators import SubordinatorSpec

CIR = benchmark.benchmark_model("cir")
VAS = benchmark.benchmark_model("vasicek")
NONE = SubordinatorSpec.none()

REDUCED = BondSchedule(
    coupon=0.0425,
    coupon_times=tuple(float(i + 1) for i in range(6)),
    protection_index=3,
    notice_delta=0.1666,
    call_prices=(1.02, 1.01, 1.00),
)


@pytest.mark.parametrize("model", (CIR, VAS), ids=lambda m: m.kind)
def test_grid_weights_recover_speed_mass(model):
    grid = build_grid(model, 400)
    assert np.all(grid.weights > 0.0)
    assert float(np.sum(grid.weights)) == pytest.approx(model.speed_mass(), rel=1e-6)


def test_zero_option_schedule_matches_expansion():
    sched = BondSchedule(coupon=0.0, coupon_times=(4.0,), protection_index=1, notice_delta=0.0)
    for model in (CIR, VAS):
        dp = quadrature_dp_price(model, NONE, sched, 0.05)
        ref = zero_coupon_price(model, NONE, 4.0, 0.05, eps=1e-10)
        assert dp == pytest.approx(ref, abs=1e-6)


@pytest.mark.parametrize("model", (CIR, VAS), ids=lambda m: m.kind)
def test_reduced_schedule_cross_method_agreement(model):
    dp = quadrature_dp_price(model, NONE, REDUCED, 0.05)
    rec = price_bond(model, NONE, REDUCED, [0.05], eps=1e-9).values[0]
    assert abs(dp - rec) <= 1e-4


def test_grid_refinement_improves_agreement():
    ref = price_bond(VAS, NONE, REDUCED, [0.05], eps=1e-10).values[0]
    coarse = quadrature_dp_price(VAS, NONE, REDUCED, 0.05, grid_size=200)
    fine = quadrature_dp_price(VAS, NONE, REDUCED, 0.05, grid_size=400)
    assert abs(fine - ref) <= 0.5 * abs(coarse - ref) + 1e-9


def test_density_truncation_guard():
    fast = BondSchedule(
        coupon=0.0425,
        coupon_times=(0.05, 0.10, 0.15),
        protection_index=1,
        notice_delta=0.01,
        call_prices=(1.0, 1.0),
    )
    with pytest.raises(DensityTruncationError):
        quadrature_dp_price(CIR, NONE, fast, 0.05, n_density=40)


def test_grid_size_floor():
    with pytest.raises(ValidationError):
        quadrature_dp_price(CIR, NONE, REDUCED, 0.05, grid_size=100)


def test_mc_is_deterministic_under_seed():
    a = mc_zero_coupon(CIR, NONE, 0.5, 0.05, n_paths=4000, steps_per_year=250, seed=9)
    b = mc_zero_coupon(CIR, NONE, 0.5, 0.05, n_paths=4000, steps_per_year=250, seed=9)
    assert a == b


def test_mc_short_maturity_limit():
    mean, se = mc_zero_coupon(CIR, NONE, 0.004, 0.05, n_paths=4000, steps_per_year=250, seed=3)
    assert mean == pytest.approx(1.0, abs=1e-3)
    assert se < 1e-5


def test_mc_cir_against_closed_form():
    mean, se = mc_zero_coupon(CIR, NONE, 1.0, 0.05, n_paths=40_000, steps_per_year=250, seed=12)
    ref = float(CIR.closed_form_bond(1.0, 0.05))
    assert abs(mean - ref) <= 3.0 * se + 2e-4  # Euler bias allowance at dt=1/250


def test_mc_parameter_validation():
    with pytest.raises(ValidationError):
        mc_zero_coupon(CIR, NONE, 1.0, 0.05, n_paths=1000, steps_per_year=100)
    with pytest.raises(ValidationError):
        mc_zero_coupon(CIR, NONE, 1.0, -0.05, n_paths=1000, steps_per_year=250)


def test_mc_subordinated_runs_and_is_sane():
    jd = SubordinatorSpec.inverse_gaussian(drift=0.5, mu=0.5, nu_var=1.0)
    mean, se = mc_zero_coupon(CIR, jd, 0.1666, 0.05, n_paths=4000, steps_per_year=250, seed=5)
    ref = zero_coupon_price(CIR, jd, 0.1666, 0.05, eps=1e-10)
    assert abs(mean - ref) <= 4.0 * se + 5e-4
    mean, se = mc_zero_coupon(VAS, jd, 0.1666, 0.05, n_paths=4000, steps_per_year=250, seed=5)
    ref = zero_coupon_price(VAS, jd, 0.1666, 0.05, eps=1e-10)
    assert abs(mean - ref) <= 4.0 * se + 5e-4


def test_mc_subordinated_needs_the_closed_form_bond():
    # the rate table comes from the Levy-integral quadrature of the
    # closed-form bond, which the 3/2 model lacks
    jd = SubordinatorSpec.inverse_gaussian(drift=0.5, mu=0.5, nu_var=1.0)
    th = ThreeHalvesModel(kappa=2.0, theta=0.05, sigma=0.5)
    with pytest.raises(UnsupportedModelError):
        mc_zero_coupon(th, jd, 0.1666, 0.05, n_paths=100, steps_per_year=250)


def test_mc_rate_table_is_built_once_per_call(monkeypatch):
    from eigenbond import oracle

    calls = []

    def counted(model, sub, x):
        calls.append(x)
        return x

    monkeypatch.setattr(oracle, "short_rate_quadrature", counted)
    jd = SubordinatorSpec.inverse_gaussian(drift=0.5, mu=0.5, nu_var=1.0)
    # 20,001 paths run as two chunks; the 600-point table is shared
    mc_zero_coupon(CIR, jd, 0.02, 0.05, n_paths=20_001, steps_per_year=250, seed=1)
    assert len(calls) == 600


def _whole_chunk_discount(model, sub, t, x0, n_paths, steps_per_year, rng, rate_table):
    """Reference substep loop that sweeps every path of the chunk on each pass."""
    n_steps = max(1, int(round(t * steps_per_year)))
    du = t / n_steps
    dt_x = 1.0 / steps_per_year
    xs, rphi = rate_table
    x = np.full(n_paths, float(x0))
    integral = np.zeros(n_paths)
    for _ in range(n_steps):
        integral += np.interp(np.clip(x, xs[0], xs[-1]), xs, rphi) * du
        jump = rng.wald(sub.mu * du, sub.mu**3 * du**2 / sub.nu_var, size=n_paths)
        remaining = jump + sub.drift * du
        while True:
            step = np.minimum(remaining, dt_x)
            active = step > 0.0
            if not np.any(active):
                break
            dt_vec = step[active]
            if model.kind == "cir":
                pos = np.maximum(x[active], 0.0)
                x[active] = (
                    x[active]
                    + model.kappa * (model.theta - pos) * dt_vec
                    + model.sigma * np.sqrt(pos * dt_vec) * rng.standard_normal(dt_vec.size)
                )
            else:
                decay = np.exp(-model.kappa * dt_vec)
                sd = model.sigma * np.sqrt(
                    (1.0 - np.exp(-2.0 * model.kappa * dt_vec)) / (2.0 * model.kappa)
                )
                x[active] = (
                    model.theta
                    + (x[active] - model.theta) * decay
                    + sd * rng.standard_normal(dt_vec.size)
                )
            remaining = remaining - step
    return np.exp(-integral)


@pytest.mark.parametrize("model", (CIR, VAS), ids=lambda m: m.kind)
def test_mc_substeps_on_active_paths_are_bit_identical(model):
    # the substep passes shrink to the paths with clock time left, in path
    # order and with the same draw sizes, so a fixed seed gives the same paths
    from eigenbond.oracle import _subordinated_discount

    jd = SubordinatorSpec.inverse_gaussian(drift=0.5, mu=0.5, nu_var=1.0)
    xs = np.linspace(-0.5, 1.0, 61)
    table = (xs, 0.01 + 0.9 * xs)
    args = (model, jd, 0.1, 0.05, 2000, 250)
    shrinking = _subordinated_discount(*args, np.random.default_rng(7), table)
    reference = _whole_chunk_discount(*args, np.random.default_rng(7), table)
    np.testing.assert_array_equal(shrinking, reference)


def test_three_halves_callable_matches_grid_dp():
    # the terminal search interval follows the terminal coefficient supply;
    # sized for the 2000-term pool cap it reached down to x ~ 1.2e-4, where
    # the bond series does not converge
    th = ThreeHalvesModel(kappa=2.0, theta=0.06, sigma=0.5)
    schedule = benchmark.swiss1987_schedule()
    value = price_bond(th, NONE, schedule, [0.05], eps=1e-7).values[0]
    ref = quadrature_dp_price(th, NONE, schedule, 0.05, n_density=250)
    assert value == pytest.approx(ref, abs=1e-4)
