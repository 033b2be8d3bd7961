"""Stationary kernels from the transform's derivative.

kernel(x, lam, c) = derivative(0.5 * (x/c)**2, lam) where x is the
distance between two points.  Computing through the derivative avoids the
division by x that makes the loss-gradient formulation blow up near the
origin.  The same quantity is the per-point weight used by iteratively
reweighted least squares when minimizing the matching loss.
"""

from __future__ import annotations

import math

from .core import _derivative, _elementwise, _require_lambda
from .loss import _loss, _require_scale

__all__ = ["kernel", "irls_weight", "KERNEL_REFERENCE_LAMBDAS"]

# lam value at which each named kernel is reproduced by `kernel`.
KERNEL_REFERENCE_LAMBDAS = {
    "gaussian": -math.inf,
    "inverse": -1.0,
    "quadratic": 0.5,
    "multiquadric": 1.0 / 3.0,
    "inverse_multiquadric": -0.5,
}


def _kernel(x, ops, lam: float, c: float):
    return _loss(x, ops, lam, c, _derivative)


def kernel(x, lam: float, c: float = 1.0):
    """Kernel value at distance x (a float or an ndarray); 1 at the
    origin, strictly positive, even."""
    return _elementwise(_kernel, x, _require_lambda(lam), _require_scale(c))


def irls_weight(residual, lam: float, c: float = 1.0):
    """IRLS weight of a residual: the kernel evaluated at it.

    The c**2 factor that relates kernel and loss gradient is dropped; the
    weights only ever enter in ratios.
    """
    return kernel(residual, lam, c)
