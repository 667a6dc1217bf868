"""What ``import eigenbond`` and the pricing entry points load.

The pricer runs on numpy and the standard library: no pricing entry point
and no CLI ``price`` loads any ``scipy`` module.  The stationary laws
(``scipy.stats``) and the oracle's quadrature (``scipy.integrate``) load
where they are first used.  The checks run in fresh interpreters, since
this one has loaded scipy long since.
"""

import os
import subprocess
import sys
from pathlib import Path

import eigenbond

ROOT = Path(__file__).resolve().parents[1]

SCIPY_LOADED = """
def scipy_loaded():
    return sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))
"""

SCRIPT = """
import sys

from eigenbond import (
    SubordinatorSpec, ThreeHalvesModel, benchmark, cli, invert_short_rate, price_bond,
    short_rate_map, strike_projection, zero_coupon_price,
)
""" + SCIPY_LOADED + """
models = (
    benchmark.benchmark_model("cir"),
    benchmark.benchmark_model("vasicek"),
    ThreeHalvesModel(2.0, 0.06, 0.5),
)
clocks = (
    SubordinatorSpec.none(),
    SubordinatorSpec.inverse_gaussian(drift=0.5, mu=0.5, nu_var=1.0),
    SubordinatorSpec.gamma_process(drift=0.2, c=0.6, eta=1.5),
)
schedule = benchmark.swiss1987_schedule()
for model in models:
    for sub in clocks:
        x = invert_short_rate(model, sub, 0.05)
        price_bond(model, sub, schedule, [x], eps=1e-7)
        zero_coupon_price(model, sub, 1.0, x, eps=1e-7)
        short_rate_map(model, sub, x)
        strike_projection(model, sub, 10, model.state_lo, x, schedule.notice_delta, eps=1e-7)
assert cli.main(["price", "--config", "docs/config_example.json"]) == 0
assert scipy_loaded() == [], scipy_loaded()

law = models[0].stationary_distribution()
assert abs(law.mean() - models[0].theta) <= 1e-12 * models[0].theta, law.mean()
print("stationary law", type(law.dist).__name__)
"""

IMPORT_ONLY = "import sys\nimport eigenbond\n" + SCIPY_LOADED + "print(scipy_loaded())\n"


def _fresh(script: str) -> subprocess.CompletedProcess:
    """Run script in a fresh interpreter on the eigenbond this suite imports,
    wherever it was found."""
    path = (str(Path(eigenbond.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True
    )


def test_import_eigenbond_loads_no_scipy():
    run = _fresh(IMPORT_ONLY)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_pricing_leaves_the_stationary_laws_and_the_quadrature_unloaded():
    # and every other scipy module: pricing and CLI price load none
    run = _fresh(SCRIPT)
    assert run.returncode == 0, run.stderr
    assert run.stdout.rstrip().endswith("stationary law gamma_gen")
