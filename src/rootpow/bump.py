"""Compactly supported bump functions for shape parameters in (1, inf).

Every member is positive exactly on (-1, 1), hits 1 only at 0, and is
evaluated through the stable transform as exp(-transform(pole * x**2,
lam)), pole = lam/(lam-1) the transform's own (1 past lam = 1/EPS), which
stays well behaved as lam approaches 1 from above where the simplified
closed form's exponent 1/(1-lam) explodes.
"""

from __future__ import annotations

import math

from .core import _elementwise, _pole, _require_lambda, _transform

__all__ = ["bump"]


def _require_bump_lambda(lam: float) -> float:
    lam = _require_lambda(lam)
    if not (1.0 < lam < math.inf):
        raise ValueError(f"bump shape must satisfy 1 < lam < inf, got {lam!r}")
    return lam


def _bump(x, ops, lam: float):
    return ops.select(
        abs(x) < 1.0,
        lambda: ops.exp(-_transform(_pole(lam) * x * x, ops, lam)),
        lambda: 0.0,
    )


def bump(x, lam: float):
    """Bump value at x (a float or an ndarray); exactly 0 for |x| >= 1."""
    return _elementwise(_bump, x, _require_bump_lambda(lam))
