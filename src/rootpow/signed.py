"""Signed inputs and the activation functions the transform reconstructs.

The two-parameter signed transform applies one shape to the positive half
axis and a second, independent shape to the mirrored negative half.  It is
continuous at 0 with slope 1 for every shape pair.  Composing a handful of
these calls with adds and halvings reproduces softplus, sigmoid, tanh, and
relu exactly (relu for any negative-side shape whose domain covers the
argument range; see `relu`).
"""

from __future__ import annotations

import math

from .core import _require_lambda, transform

__all__ = [
    "signed_transform",
    "softplus",
    "sigmoid",
    "tanh",
    "relu",
    "elu_reference",
]

_LN2 = math.log(2.0)


def signed_transform(x: float, lam_pos: float, lam_neg: float) -> float:
    """Odd-style stitching: shape lam_pos for x >= 0, mirrored lam_neg below."""
    lam_pos = _require_lambda(lam_pos)
    lam_neg = _require_lambda(lam_neg)
    x = float(x)
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    if x >= 0.0:
        return transform(x, lam_pos)
    return -transform(-x, lam_neg)


def softplus(x: float) -> float:
    x = float(x)
    # softplus(x) = x + softplus(-x) keeps the inner expm1 on x <= 0, where
    # it cannot overflow (past x = 709.78 it would, and return inf).
    if x > 0.0:
        return x + softplus(-x)
    # The inner call is expm1(x), so inner + 1 = e**x > 0 and the outer
    # negative-side shape never fires; 0 is the cheapest placeholder.
    return signed_transform(signed_transform(x, 1.0, -math.inf) + 1.0, -1.0, 0.0)


def sigmoid(x: float) -> float:
    return 0.5 * signed_transform(
        signed_transform(float(x) + _LN2, 1.0, -math.inf) + 1.0, -2.0, 0.0
    )


def tanh(x: float) -> float:
    return 0.5 * signed_transform(signed_transform(2.0 * float(x), 1.0, -math.inf), -2.0, 2.0)


def relu(x: float, lam_neg: float = 0.0) -> float:
    """max(0, x) rebuilt from two signed transforms.

    Exact up to round-off whenever x - 2 stays below the domain bound of
    the lam_neg shape (always true for lam_neg <= 1); for x <= 0 the
    clamped saturation of the lam = 2 stage is what produces the 0.
    """
    lam_neg = _require_lambda(lam_neg)
    inner = signed_transform(2.0 - float(x), 2.0, lam_neg)
    return 2.0 - signed_transform(inner, -2.0, -lam_neg)


def elu_reference(x: float) -> float:
    """Test oracle: identity above 0, exp(x) - 1 below."""
    x = float(x)
    return x if x >= 0.0 else math.exp(x) - 1.0
