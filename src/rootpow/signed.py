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

from .core import _elementwise, _require_lambda, _transform

__all__ = [
    "signed_transform",
    "softplus",
    "sigmoid",
    "tanh",
    "relu",
]

_LN2 = math.log(2.0)


def _signed(x, ops, lam_pos: float, lam_neg: float):
    return ops.select(
        x >= 0.0,
        lambda: _transform(x, ops, lam_pos),
        lambda: -_transform(-x, ops, lam_neg),
    )


def signed_transform(x, lam_pos: float, lam_neg: float):
    """Odd-style stitching: shape lam_pos for x >= 0, mirrored lam_neg below."""
    return _elementwise(_signed, x, _require_lambda(lam_pos), _require_lambda(lam_neg))


# The activations are the paper's signed-transform compositions, bit for
# bit, with the stitching resolved: the inner s(y, 1, -inf) is expm1(y) on
# both sides, and each outer stage only ever takes its lam_pos half (tanh:
# both halves agree), so every stage is a single _transform.


def _softplus(x, ops):
    # as max(x, 0) + softplus(-|x|) the inner expm1 never sees x > 0, so cannot overflow
    return ops.maximum(x, 0.0) + _transform(_transform(-abs(x), ops, 1.0) + 1.0, ops, -1.0)


def softplus(x):
    return _elementwise(_softplus, x)


def _sigmoid(x, ops):
    return 0.5 * _transform(_transform(x + _LN2, ops, 1.0) + 1.0, ops, -2.0)


def sigmoid(x):
    return _elementwise(_sigmoid, x)


def _tanh(x, ops):
    return 0.5 * _transform(_transform(2.0 * x, ops, 1.0), ops, -2.0)


def tanh(x):
    return _elementwise(_tanh, x)


def _relu(x, ops, lam_neg: float):
    return 2.0 - _signed(_signed(2.0 - x, ops, 2.0, lam_neg), ops, -2.0, -lam_neg)


def relu(x, lam_neg: float = 0.0):
    """max(0, x) rebuilt from two signed transforms.

    Exact up to round-off whenever x - 2 stays below the domain bound of
    the lam_neg shape (always true for lam_neg <= 1); for x <= 0 the
    clamped saturation of the lam = 2 stage is what produces the 0.
    """
    return _elementwise(_relu, x, _require_lambda(lam_neg))
