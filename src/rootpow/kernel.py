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
from .loss import _require_scale

__all__ = ["kernel", "kernel_reference", "irls_weight", "KERNEL_REFERENCE_LAMBDAS"]

KERNEL_REFERENCE_LAMBDAS = {
    "gaussian": -math.inf,
    "inverse": -1.0,
    "quadratic": 0.5,
    "multiquadric": 1.0 / 3.0,
    "inverse_multiquadric": -0.5,
}


def _kernel(x, ops, lam: float, c: float):
    r = x / c  # squared as in loss._loss
    return _derivative(0.5 * r * r, ops, lam)


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


def kernel_reference(x: float, name: str, c: float = 1.0, lam: float | None = None) -> float:
    """Literal closed form of a named kernel (test oracle).

    Known names: Gaussian, Inverse, Quadratic, Multiquadric,
    InverseMultiquadric, and RationalQuadratic which takes its negative
    shape through ``lam``.
    """
    c = _require_scale(c)
    x = float(x)
    r2 = (x / c) ** 2
    key = name.replace("-", "_").replace(" ", "_").lower()
    if key == "gaussian" or key == "rbf":
        return math.exp(-0.5 * r2)
    if key == "inverse":
        return 2.0 * c * c / (2.0 * c * c + x * x)
    if key == "quadratic":
        return 1.0 + 0.5 * r2
    if key == "multiquadric":
        return math.sqrt(1.0 + r2)
    if key in ("inverse_multiquadric", "inversemultiquadric"):
        return 1.0 / math.sqrt(1.0 + r2)
    if key in ("rational_quadratic", "rationalquadratic"):
        if lam is None or not lam < 0.0:
            raise ValueError("RationalQuadratic needs a negative lam")
        return (1.0 - 0.5 * r2 / lam) ** lam
    raise ValueError(f"unknown kernel name {name!r}")
