"""Callable/putable bond analytics via eigenfunction expansions.

Prices zero-coupon, callable, putable, and callable-putable bonds under
CIR, Vasicek, and 3/2 short-rate diffusions and their Levy-subordinated
jump extensions.  The pricing semigroup is expanded in its eigenfunctions;
embedded options are handled by a backward recursion on the expansion
coefficients with break-even boundaries located by one bracketed Newton
loop, started where the boundaries located last predict it.
"""

__version__ = "0.1.0"

from .coeffs import overlap_matrix, strike_projection
from .errors import (
    BracketError,
    ConvergenceError,
    DensityTruncationError,
    EigenbondError,
    UnsupportedModelError,
    ValidationError,
)
from .models import CIRModel, DiffusionModel, ThreeHalvesModel, VasicekModel, make_model
from .oracle import mc_zero_coupon, quadrature_dp_price
from .pricer import (
    BondSchedule,
    PricingResult,
    price_bond,
    zero_coupon_price,
)
from .subordinators import (
    SubordinatorSpec,
    invert_short_rate,
    laplace_exponent,
    mean_rate,
    short_rate_map,
)

__all__ = [
    "__version__",
    "BondSchedule",
    "BracketError",
    "CIRModel",
    "ConvergenceError",
    "DensityTruncationError",
    "DiffusionModel",
    "EigenbondError",
    "PricingResult",
    "SubordinatorSpec",
    "ThreeHalvesModel",
    "UnsupportedModelError",
    "ValidationError",
    "VasicekModel",
    "invert_short_rate",
    "laplace_exponent",
    "make_model",
    "mc_zero_coupon",
    "mean_rate",
    "overlap_matrix",
    "price_bond",
    "quadrature_dp_price",
    "short_rate_map",
    "strike_projection",
    "zero_coupon_price",
]
