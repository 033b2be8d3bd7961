"""Robust loss family: the transform applied to half the squared residual.

loss(x, lam, c) = transform(0.5 * (x/c)**2, lam).  lam = 0 is plain
quadratic loss; decreasing lam flattens the penalty on large residuals
until it saturates at lam = -inf.  Several named robust losses fall out at
particular lam, listed in ``LOSS_REFERENCE_LAMBDAS``; the tests check them
against their literal closed forms.
"""

from __future__ import annotations

import math

from .core import _elementwise, _require_lambda, _transform

__all__ = ["loss", "LOSS_REFERENCE_LAMBDAS"]

# lam value at which each named loss is reproduced by `loss`.
LOSS_REFERENCE_LAMBDAS = {
    "l2": 0.0,
    "cauchy": -1.0,
    "welsch": -math.inf,
    "charbonnier": -0.5,
    "geman_mcclure": -2.0,
}


def _require_scale(c: float) -> float:
    c = float(c)
    if not (c > 0.0) or math.isinf(c):
        raise ValueError(f"scale c must be a positive finite real, got {c!r}")
    return c


def _loss(x, ops, lam: float, c: float, power=_transform):
    # power(0.5 * (x/c)**2): the loss, or with _derivative the kernel.
    # r * r, not r ** 2: past the binary64 range a float product gives inf,
    # which the transform maps to its limit, where ** raises OverflowError;
    # and the product is correctly rounded, which libm's pow(r, 2.0) is not
    # on about 1 input in 1000.  u is the one new array power runs in.
    r = x / c if c != 1.0 else x
    u = 0.5 * r
    u *= r
    return power(u, ops, lam, u)


def loss(x, lam: float, c: float = 1.0):
    """Robust penalty of residual x (a float or an ndarray) at shape lam
    and scale c.

    Even in x, zero at x = 0, non-negative, and non-decreasing in lam.
    For lam > 1 the squared argument can pass the transform's pole; the
    core clamp makes the loss saturate at a large finite value there.
    """
    return _elementwise(_loss, x, _require_lambda(lam), _require_scale(c))
