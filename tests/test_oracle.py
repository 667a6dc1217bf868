import dataclasses
import math

import numpy as np
import pytest

from eigenbond import benchmark, oracle
from eigenbond.errors import DensityTruncationError, UnsupportedModelError, ValidationError
from eigenbond.models import CIRModel, DiffusionModel, ThreeHalvesModel
from eigenbond.oracle import build_grid, mc_zero_coupon, quadrature_dp_price
from eigenbond.pricer import BondSchedule, price_bond, zero_coupon_price
from eigenbond.subordinators import SubordinatorSpec

CIR = benchmark.benchmark_model("cir")
VAS = benchmark.benchmark_model("vasicek")
NONE = SubordinatorSpec.none()
CLOCKS = {
    "jd": benchmark.benchmark_subordinator("subcir_jd"),
    "pj": benchmark.benchmark_subordinator("subcir_pj"),
    "gamma": SubordinatorSpec.gamma_process(drift=0.2, c=0.6, eta=1.5),
}

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
    mass = float(np.sum(grid.weights)) * math.exp(grid.log_mass)
    assert mass == pytest.approx(model.speed_mass(), rel=1e-6)


def test_zero_option_schedule_matches_expansion():
    sched = BondSchedule(coupon=0.0, coupon_times=(4.0,), protection_index=1, notice_delta=0.0)
    # CIR with b = 10, 40, 160: a bounded speed density, no x^b panel
    large_b = tuple(CIRModel(kappa=1.0, theta=0.05, sigma=s) for s in (0.1, 0.05, 0.025))
    for model in (CIR, VAS) + large_b:
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


@pytest.mark.parametrize(
    "call",
    (
        lambda: quadrature_dp_price(CIR, NONE, REDUCED, 0.05, grid_size=250.5),
        lambda: quadrature_dp_price(CIR, NONE, REDUCED, 0.05, n_density=120.5),
        lambda: quadrature_dp_price(CIR, NONE, REDUCED, 0.05, grid_size=True),
        lambda: mc_zero_coupon(CIR, NONE, 1.0, 0.05, n_paths=2.5),
        lambda: mc_zero_coupon(CIR, NONE, 1.0, 0.05, n_paths=1000.0),
        lambda: mc_zero_coupon(CIR, NONE, 1.0, 0.05, n_paths=100, seed=1.5),
        lambda: mc_zero_coupon(CIR, NONE, 1.0, 0.05, n_paths=100, seed=-1),
    ),
    ids=("grid_fraction", "density_fraction", "grid_bool", "paths_fraction", "paths_float",
         "seed_fraction", "seed_negative"),
)
def test_oracle_integer_arguments_are_refused_unless_integers(call):
    # each escaped as TypeError (a negative seed as numpy's ValueError)
    with pytest.raises(ValidationError, match="must be an integer|must be >= 0"):
        call()


def test_grid_size_floor():
    with pytest.raises(ValidationError):
        quadrature_dp_price(CIR, NONE, REDUCED, 0.05, grid_size=100)


def test_mc_is_deterministic_under_seed():
    # 24,000 paths run as two chunks
    for sub in (NONE, CLOCKS["jd"], CLOCKS["gamma"]):
        a = mc_zero_coupon(CIR, sub, 0.5, 0.05, n_paths=24_000, seed=9)
        b = mc_zero_coupon(CIR, sub, 0.5, 0.05, n_paths=24_000, seed=9)
        assert a == b


def test_mc_short_maturity_limit():
    mean, se = mc_zero_coupon(CIR, NONE, 0.004, 0.05, n_paths=4000, seed=3)
    assert mean == pytest.approx(1.0, abs=1e-3)
    assert se < 1e-5


def test_mc_cir_against_closed_form():
    mean, se = mc_zero_coupon(CIR, NONE, 1.0, 0.05, n_paths=40_000, seed=12)
    ref = float(CIR.closed_form_bond(1.0, 0.05))
    assert abs(mean - ref) <= 3.0 * se + 2e-4  # Euler bias allowance at dt=1/250


def test_mc_parameter_validation():
    with pytest.raises(ValidationError):
        mc_zero_coupon(CIR, NONE, 1.0, -0.05, n_paths=1000)
    with pytest.raises(ValidationError, match="not finite"):
        mc_zero_coupon(VAS, NONE, 1.0, math.inf, n_paths=100)
    tempered = SubordinatorSpec.tempered_stable(drift=0.1, c=0.5, p=0.5, eta=2.0)
    with pytest.raises(ValidationError):
        mc_zero_coupon(CIR, tempered, 1.0, 0.05, n_paths=1000)


@pytest.mark.parametrize("clock,t", (("jd", 0.0), ("none", -1.0)))
def test_mc_refuses_a_nonpositive_maturity(clock, t):
    sub = NONE if clock == "none" else CLOCKS[clock]
    with pytest.raises(ValidationError, match="maturity must be positive"):
        mc_zero_coupon(CIR, sub, t, 0.05, n_paths=100)


@pytest.mark.parametrize("t", (math.inf, math.nan))
@pytest.mark.parametrize("clock", ("none", "jd"))
def test_mc_refuses_a_non_finite_maturity(clock, t):
    # t = inf escaped as OverflowError on both clocks
    sub = NONE if clock == "none" else CLOCKS[clock]
    with pytest.raises(ValidationError, match="maturity must be positive and finite"):
        mc_zero_coupon(CIR, sub, t, 0.05, n_paths=100)


@pytest.mark.parametrize("t", (0.1666, 1.0, 5.0))
@pytest.mark.parametrize("clock", ("jd", "pj", "gamma"))
@pytest.mark.parametrize("model", (CIR, VAS), ids=lambda m: m.kind)
def test_mc_clock_average_matches_expansion(model, clock, t):
    # the subordinate bond is the diffusion's bond averaged over the clock,
    # the same quantity the eigenfunction series sums, so no bias allowance
    mean, se = mc_zero_coupon(model, CLOCKS[clock], t, 0.05, n_paths=40_000, seed=5)
    ref = zero_coupon_price(model, CLOCKS[clock], t, 0.05, eps=1e-10)
    assert abs(mean - ref) <= 3.0 * se


def test_mc_subordinated_needs_the_closed_form_bond():
    # the clock average is over the closed-form bond, which the 3/2 model lacks
    th = ThreeHalvesModel(kappa=2.0, theta=0.05, sigma=0.5)
    with pytest.raises(UnsupportedModelError):
        mc_zero_coupon(th, CLOCKS["jd"], 0.1666, 0.05, n_paths=100)


def test_mc_jump_clock_shares_no_series_with_the_pricer(monkeypatch):
    def series_code(*args, **kwargs):
        raise AssertionError("the Monte Carlo called series code")

    monkeypatch.setattr(DiffusionModel, "_eigenfunction_rows", series_code)
    monkeypatch.setattr(oracle, "laplace_exponent", series_code)
    monkeypatch.setattr(oracle, "short_rate_quadrature", series_code)
    for model in (CIR, VAS):
        for sub in CLOCKS.values():
            mean, _ = mc_zero_coupon(model, sub, 1.0, 0.05, n_paths=100, seed=1)
            assert 0.0 < mean < 1.0


@pytest.mark.parametrize("calls", ("all_at_0.90", "swiss_ladder"))
def test_large_b_callable_matches_grid_dp(calls):
    # b = 160: the closed-form strike leg underflowed to zero
    model = CIRModel(kappa=1.0, theta=0.05, sigma=0.025)
    schedule = benchmark.swiss1987_schedule()
    if calls == "all_at_0.90":
        schedule = dataclasses.replace(schedule, call_prices=(0.90,) * 10)
    value = price_bond(model, NONE, schedule, [0.05]).values[0]
    ref = quadrature_dp_price(model, NONE, schedule, 0.05, n_density=250)
    assert value == pytest.approx(ref, abs=1e-6)


def test_three_halves_callable_matches_grid_dp():
    # the terminal search interval follows the terminal coefficient supply;
    # sized for the 2000-term pool cap it reached down to x ~ 1.2e-4, where
    # the bond series does not converge
    th = ThreeHalvesModel(kappa=2.0, theta=0.06, sigma=0.5)
    schedule = benchmark.swiss1987_schedule()
    value = price_bond(th, NONE, schedule, [0.05], eps=1e-7).values[0]
    ref = quadrature_dp_price(th, NONE, schedule, 0.05, n_density=250)
    assert value == pytest.approx(ref, abs=1e-4)
