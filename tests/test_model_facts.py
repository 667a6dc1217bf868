"""The pricer and the integral tables read model facts, not model types."""

import numpy as np
import pytest

from eigenbond import benchmark, coeffs, models
from eigenbond.errors import ValidationError
from eigenbond.models import CIRModel, DiffusionModel, ThreeHalvesModel
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
    "kind,params",
    (("cir", (1.0, 0.05, 0.02)), ("three_halves", (2.0, 0.06, 0.1))),
    ids=("cir_b250", "three_halves_2m402"),
)
def test_models_without_integral_tables_are_refused(kind, params):
    # b = 250 overflowed Gamma(b) in the eigenfunction norm; 2m ~ 402 gave a
    # negative table degree cap that surfaced deep in the recursion
    with pytest.raises(ValidationError, match="integral tables"):
        models.make_model(kind, *params)


def test_model_at_a_small_degree_cap_still_prices():
    model = CIRModel(kappa=1.0, theta=0.05, sigma=0.025)  # b = 160
    assert coeffs.max_table_degree(model) == 9
    result = price_bond(model, NONE, SWISS, [0.05])
    assert result.values[0] == pytest.approx(0.9265283079527182, abs=1e-12)
    assert max(d.assembled for d in result.dates) <= 9
    assert np.isfinite(zero_coupon_price(model, NONE, 5.0, 0.05))
