"""Box-Cox transform, its slope-normalized variant, and the exact bridge
between Box-Cox and the self-inverting transform.

Conventions differ by a shift: Box-Cox is the identity at parameter 1,
the self-inverting transform at 0.  Both directions of the bridge are
implemented by delegating to the other side's evaluator, which doubles as
a cross-check of the case tables.  All power steps go through
expm1(a * log1p(b)) rather than raw pow.
"""

from __future__ import annotations

import math

from .core import (
    EPS,
    TINY,
    UnsupportedBranchError,
    _expm1,
    _require_lambda,
    transform,
)

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


def boxcox(x: float, lam: float) -> float:
    """Box-Cox value ((x+1)**lam - 1)/lam, log1p(x) at lam = 0; needs x > -1."""
    lam = _require_boxcox_lambda(lam)
    x = float(x)
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    if x <= -1.0:
        raise ValueError(f"Box-Cox domain requires x > -1, got {x!r}")
    if abs(lam) < TINY:
        return math.log1p(x)
    return _expm1(lam * math.log1p(x)) / lam


def boxcox_normalized(x: float, lam: float) -> float:
    """Box-Cox rescaled so the slope at 0 is 1 and the curvature sign is
    sign(lam - 1); the identity at lam = 1."""
    lam = _require_boxcox_lambda(lam)
    x = float(x)
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    if abs(lam - 1.0) < EPS:
        return x
    if abs(lam) < TINY:
        if x <= -1.0:
            raise ValueError(f"out of domain at lam = 0: need x > -1, got {x!r}")
        return math.log1p(x)
    denom = 1.0 - lam if lam < 1.0 else lam - 1.0
    t = x / denom
    if t <= -1.0:
        raise ValueError(f"x = {x!r} outside the lam = {lam!r} branch domain")
    scaled = _expm1(lam * math.log1p(t))
    if lam < 1.0:
        return (1.0 / lam - 1.0) * scaled
    return (lam - 1.0) / lam * scaled


def transform_via_boxcox(x: float, lam: float) -> float:
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
    if abs(lam) < TINY:
        return boxcox(x, 1.0)
    if lam < 0.0:
        return -lam * boxcox(-float(x) / lam, lam + 1.0)
    return lam / (1.0 - lam) * boxcox((1.0 - lam) / lam * float(x), 1.0 / (1.0 - lam))


def boxcox_via_transform(x: float, lam: float) -> float:
    """Box-Cox computed through the self-inverting transform.

    Dispatch: parameters below 1 route through shape lam - 1, parameters
    above 1 through shape 1 - 1/lam, and 1 itself is the identity.  (The
    below/above split at 1, not 0, is what makes the two mappings agree
    with the direct evaluator on (0, 1).)
    """
    lam = _require_boxcox_lambda(lam)
    x = float(x)
    if abs(lam - 1.0) < EPS:
        return transform(x, 0.0)
    if lam < 1.0:
        return transform((1.0 - lam) * x, lam - 1.0) / (1.0 - lam)
    return transform((lam - 1.0) * x, 1.0 - 1.0 / lam) / (lam - 1.0)
