"""Orthogonal polynomials and classical special functions.

Generalized Laguerre and Hermite polynomials in raw (unnormalized) form,
evaluated by their two-term recursions, plus the lower incomplete gamma
function, the regularized P(a, x) of ``coeffs`` times Gamma(a).  The
closed-form Laguerre tables of ``coeffs``, the reference its quadrature
is checked against, are built on them; the eigenfunctions and every table
the pricer takes run on the normalized recurrences of ``models`` instead.
The module runs on numpy and the standard library, like the pricer.

Polynomial evaluators return the full sequence of degrees 0..n_max at a
fixed abscissa: every caller needs all indices up to its truncation level,
and returning the sequence avoids quadratic recomputation.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

__all__ = [
    "laguerre_sequence",
    "hermite_sequence",
    "laguerre_sequence_table",
    "lower_incomplete_gamma",
]


def laguerre_sequence(n_max: int, alpha: float, x: float) -> np.ndarray:
    """Generalized Laguerre polynomials L_0^(alpha)(x) .. L_{n_max}^(alpha)(x).

    Uses the classical degree recursion
        L_n = (2 + (alpha - 1 - x)/n) L_{n-1} - (1 + (alpha - 1)/n) L_{n-2}
    seeded by L_0 = 1 and L_1 = -x + alpha + 1.
    """
    if n_max < 0:
        raise ValidationError("n_max must be >= 0")
    if not alpha > -1.0:
        raise ValidationError(f"Laguerre order must satisfy alpha > -1, got {alpha}")
    if not math.isfinite(x):
        raise ValidationError(f"abscissa must be finite, got {x}")
    out = np.empty(n_max + 1)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = -x + alpha + 1.0
    for n in range(2, n_max + 1):
        out[n] = (2.0 + (alpha - 1.0 - x) / n) * out[n - 1] - (
            1.0 + (alpha - 1.0) / n
        ) * out[n - 2]
    return out


def laguerre_sequence_table(n_max: int, alphas: np.ndarray, x: float) -> np.ndarray:
    """Laguerre sequences for several orders at one abscissa.

    Returns a table of shape (n_max + 1, len(alphas)) with entry [n, j]
    equal to L_n^(alphas[j])(x).  The degree recursion is run once,
    vectorized across the orders; this is the workhorse behind the
    elevated-order chains in the coefficient recursions.
    """
    alphas = np.asarray(alphas, dtype=float)
    if n_max < 0:
        raise ValidationError("n_max must be >= 0")
    if np.any(alphas <= -1.0):
        raise ValidationError("all Laguerre orders must satisfy alpha > -1")
    if not math.isfinite(x):
        raise ValidationError(f"abscissa must be finite, got {x}")
    table = np.empty((n_max + 1, alphas.size))
    table[0] = 1.0
    if n_max >= 1:
        table[1] = -x + alphas + 1.0
    for n in range(2, n_max + 1):
        table[n] = (2.0 + (alphas - 1.0 - x) / n) * table[n - 1] - (
            1.0 + (alphas - 1.0) / n
        ) * table[n - 2]
    return table


def hermite_sequence(n_max: int, x: float) -> np.ndarray:
    """Physicists' Hermite polynomials H_0(x) .. H_{n_max}(x).

    Uses H_n = 2 x H_{n-1} - 2 (n-1) H_{n-2} with H_0 = 1, H_1 = 2x.
    """
    if n_max < 0:
        raise ValidationError("n_max must be >= 0")
    if not math.isfinite(x):
        raise ValidationError(f"abscissa must be finite, got {x}")
    out = np.empty(n_max + 1)
    out[0] = 1.0
    if n_max >= 1:
        out[1] = 2.0 * x
    for n in range(2, n_max + 1):
        out[n] = 2.0 * x * out[n - 1] - 2.0 * (n - 1) * out[n - 2]
    return out


def lower_incomplete_gamma(a: float, x: float) -> float:
    """Lower incomplete gamma gamma(a, x) = int_0^x e^{-y} y^{a-1} dy.

    Non-regularized: the regularized P(a, x) of
    ``coeffs.regularized_lower_gamma`` scaled by Gamma(a); a must stay below
    the Gamma overflow threshold (~171).
    """
    from .coeffs import regularized_lower_gamma  # coeffs imports this module

    if not a > 0.0:
        raise ValidationError(f"gamma parameter must be positive, got a={a}")
    if x < 0.0 or not math.isfinite(x):
        raise ValidationError(f"integration endpoint must be >= 0 and finite, got {x}")
    return regularized_lower_gamma(a, x) * math.gamma(a)
