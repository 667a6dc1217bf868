"""The pricer and the integral tables read model facts, not model types."""

import numpy as np
import pytest

from eigenbond import benchmark, models
from eigenbond.models import CIRModel, DiffusionModel, ThreeHalvesModel
from eigenbond.oracle import quadrature_dp_price
from eigenbond.pricer import price_bond, zero_coupon_price
from eigenbond.subordinators import SubordinatorSpec

NONE = SubordinatorSpec.none()
JD = benchmark.benchmark_subordinator("subcir_jd")
SWISS = benchmark.swiss1987_schedule()
SWISS_PUT = benchmark.swiss1987_schedule(include_put=True)
RATES = list(benchmark.RATES)


def _twin(cls):
    """A copy of ``cls`` built on DiffusionModel alone: no isinstance check
    against the model classes can recognise its instances."""
    body = {k: v for k, v in vars(cls).items() if k not in ("__dict__", "__weakref__")}
    return type(cls.__name__, (DiffusionModel,), body)


def _outputs(result):
    return (
        result.values.tolist(),
        result.value_levels,
        [
            (d.call_state, d.put_state, d.call_rate, d.put_rate, d.eval_levels, d.assembled)
            for d in result.dates
        ],
    )


@pytest.mark.parametrize(
    "model,sub,schedule",
    (
        (benchmark.benchmark_model("cir"), NONE, SWISS_PUT),
        (benchmark.benchmark_model("cir"), JD, SWISS_PUT),
        (benchmark.benchmark_model("vasicek"), NONE, SWISS_PUT),
        (benchmark.benchmark_model("vasicek"), JD, SWISS_PUT),
        (ThreeHalvesModel(kappa=2.0, theta=0.06, sigma=0.5), NONE, SWISS),
    ),
    ids=("cir", "cir_jd", "vasicek", "vasicek_jd", "three_halves"),
)
def test_twin_class_prices_bit_for_bit(model, sub, schedule):
    twin = _twin(type(model))(model.kappa, model.theta, model.sigma)
    assert not isinstance(twin, type(model))
    original = _outputs(price_bond(model, sub, schedule, RATES, eps=1e-8))
    assert _outputs(price_bond(twin, sub, schedule, RATES, eps=1e-8)) == original


def test_model_kinds_come_from_the_classes():
    assert models.MODEL_KINDS == ("cir", "vasicek", "three_halves")
    for kind in models.MODEL_KINDS:
        assert models.make_model(kind, 1.0, 0.05, 0.5).kind == kind


@pytest.mark.parametrize(
    "model",
    (
        CIRModel(kappa=1.0, theta=0.05, sigma=0.02),  # b = 250
        ThreeHalvesModel(kappa=2.0, theta=0.06, sigma=0.155),  # Laguerre order 168.5
        ThreeHalvesModel(kappa=2.0, theta=0.06, sigma=0.1),  # Laguerre order ~402
    ),
    ids=("cir_b250", "three_halves_2m168", "three_halves_2m402"),
)
def test_models_beyond_the_gamma_range_price_the_callable(model):
    # Gamma(alpha + n + 1) leaves double range at degree 2 or sooner here,
    # so no table built on it could serve these models; the grid DP's
    # own error is about 1e-10
    x0 = model.theta
    ref = quadrature_dp_price(model, NONE, SWISS, x0, n_density=240)
    for eps in (1e-7, 1e-10):
        value = price_bond(model, NONE, SWISS, [x0], eps=eps).values[0]
        assert value == pytest.approx(ref, abs=max(eps, 1e-9))


@pytest.mark.parametrize("schedule", (SWISS, SWISS_PUT), ids=("call", "call_put"))
@pytest.mark.parametrize("eps", (1e-7, 1e-10))
def test_cir_b160_matches_the_grid_dp(schedule, eps):
    # b = 160: a Laguerre order at the edge of the Gamma range (Gamma(b + n)
    # overflows from degree 12)
    model = CIRModel(kappa=1.0, theta=0.05, sigma=0.025)
    value = price_bond(model, NONE, schedule, [0.05], eps=eps).values[0]
    assert value == pytest.approx(quadrature_dp_price(model, NONE, schedule, 0.05), abs=1e-9)
    assert np.isfinite(zero_coupon_price(model, NONE, 5.0, 0.05))
