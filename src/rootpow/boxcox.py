"""Box-Cox transform, its slope-normalized variant, and the exact bridge
between Box-Cox and the self-inverting transform.

Conventions differ by a shift: Box-Cox is the identity at parameter 1,
the self-inverting transform at 0.  Both directions of the bridge are
implemented by delegating to the other side's evaluator body, which
doubles as a cross-check of the case tables.  The normalized variant is
|1 - lam| * boxcox(x / |1 - lam|, lam), whose scale is exact next to
lam = 1 (it stays within 64 ulps there).  The one power step, in
``_boxcox``, goes through expm1(a * log1p(b)) rather than raw pow.
"""

from __future__ import annotations

import math

from .core import EPS, TINY, UnsupportedBranchError, _elementwise, _require_lambda, _transform

__all__ = [
    "boxcox",
    "boxcox_normalized",
    "transform_via_boxcox",
    "boxcox_via_transform",
]


def _require_boxcox_lambda(lam: float) -> float:
    lam = float(lam)
    if math.isnan(lam) or math.isinf(lam):
        raise ValueError(f"Box-Cox parameter must be finite, got {lam!r}")
    return lam


def _boxcox(x, ops, lam: float):
    if ops.any(x <= -1.0):
        raise ValueError(f"Box-Cox domain requires x > -1, got {x!r}")
    if abs(lam) < TINY:
        return ops.log1p(x)
    return ops.expm1(lam * ops.log1p(x)) / lam


def boxcox(x, lam: float):
    """Box-Cox value ((x+1)**lam - 1)/lam, log1p(x) at lam = 0, at x (a
    float or an ndarray); needs x > -1."""
    return _elementwise(_boxcox, x, _require_boxcox_lambda(lam))


def _boxcox_normalized(x, ops, lam: float):
    if abs(lam - 1.0) < EPS:
        return x
    denom = abs(1.0 - lam)
    try:
        return denom * _boxcox(x / denom, ops, lam)
    except ValueError:  # _boxcox's domain check, on x / denom
        raise ValueError(f"x = {x!r} outside the lam = {lam!r} branch domain") from None


def boxcox_normalized(x, lam: float):
    """Box-Cox rescaled so the slope at 0 is 1 and the curvature sign is
    sign(lam - 1): |1 - lam| * boxcox(x / |1 - lam|, lam), the identity at
    lam = 1; needs x > -|1 - lam|.  Takes a float or an ndarray."""
    return _elementwise(_boxcox_normalized, x, _require_boxcox_lambda(lam))


def _transform_via_boxcox(x, ops, lam: float):
    if abs(lam) < TINY:
        return _boxcox(x, ops, 1.0)
    if lam < 0.0:
        return -lam * _boxcox(-x / lam, ops, lam + 1.0)
    return lam / (1.0 - lam) * _boxcox((1.0 - lam) / lam * x, ops, 1.0 / (1.0 - lam))


def transform_via_boxcox(x, lam: float):
    """The self-inverting transform computed through Box-Cox.

    The printed mapping is singular at lam = 1 (it would need an infinite
    Box-Cox parameter), and extended lam has no Box-Cox image, so those
    raise UnsupportedBranchError.
    """
    lam = _require_lambda(lam)
    if math.isinf(lam):
        raise UnsupportedBranchError("no Box-Cox image for extended lam")
    if abs(lam - 1.0) < EPS:
        raise UnsupportedBranchError("bridge is singular at lam = 1")
    return _elementwise(_transform_via_boxcox, x, lam)


def _boxcox_via_transform(x, ops, lam: float):
    if abs(lam - 1.0) < EPS:
        return _transform(x, ops, 0.0)
    k = abs(1.0 - lam)
    return _transform(k * x, ops, lam - 1.0 if lam < 1.0 else 1.0 - 1.0 / lam) / k


def boxcox_via_transform(x, lam: float):
    """Box-Cox computed through the self-inverting transform.

    Dispatch: parameters below 1 route through shape lam - 1, parameters
    above 1 through shape 1 - 1/lam, and 1 itself is the identity.  (The
    below/above split at 1, not 0, is what makes the two mappings agree
    with the direct evaluator on (0, 1).)
    """
    return _elementwise(_boxcox_via_transform, x, _require_boxcox_lambda(lam))
