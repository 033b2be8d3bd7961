"""Closed forms of the named families, the oracles the tests compare to.

Each is the textbook formula written out directly, independent of the
transform: the named robust losses and kernels (at the lam values in
``LOSS_REFERENCE_LAMBDAS`` and ``KERNEL_REFERENCE_LAMBDAS``), the classic
bump and ELU.  The one exception is Z's plain tanh-sinh sum, which
integrates the transform and so calls it: it pins the library's sum, which
stops early on the upper tail, bit for bit.  They take floats only.
"""

import math
import sys

from rootpow import transform
from rootpow.families import _require_scale


def loss_reference(x: float, name: str, c: float = 1.0) -> float:
    """Literal closed form of a named robust loss (test oracle).

    Known names: L2, Cauchy, Welsch, Charbonnier, GemanMcClure (case and
    underscore insensitive).
    """
    c = _require_scale(c)
    u = 0.5 * (float(x) / c) ** 2
    key = name.replace("-", "_").replace(" ", "_").lower()
    if key == "l2":
        return u
    if key == "cauchy" or key == "lorentzian":
        return math.log(1.0 + u)
    if key == "welsch" or key == "leclerc":
        return 1.0 - math.exp(-u)
    if key == "charbonnier":
        return math.sqrt((float(x) / c) ** 2 + 1.0) - 1.0
    if key in ("geman_mcclure", "gemanmcclure"):
        x = float(x)
        return 2.0 * x * x / (4.0 * c * c + x * x)
    raise ValueError(f"unknown loss name {name!r}")


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


def bump_classic(x: float) -> float:
    """The textbook bump exp(-1/(1 - x**2)) on (-1, 1), 0 elsewhere."""
    x = float(x)
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    if abs(x) >= 1.0:
        return 0.0
    return math.exp(-1.0 / (1.0 - x * x))


def elu_reference(x: float) -> float:
    """Test oracle: identity above 0, exp(x) - 1 below."""
    x = float(x)
    return x if x >= 0.0 else math.exp(x) - 1.0


def tanh_sinh_reference(lam: float, num_points: int = 205) -> float:
    """Z(lam) by the plain tanh-sinh sum over every node, with no stop.

    The same rule as ``partition_function``, written out again: the
    integrand exp(u - f(expm1(u)**2 / 2)) in u = log1p(x) on
    [0, u_max], where exp(-f) falls to eps**2 at x_max = expm1(u_max); the
    2m + 1 nodes t_k = k h, h = 3.1875 / m, m = num_points // 2, mapped by
    u = u_max (1 + tanh(pi/2 sinh t)) / 2; summed in the library's order,
    the middle node, then the nodes of -t_k and t_k for k = 1..m; and
    doubled for x < 0.  Raises ValueError where u_max overflows.
    """
    lam = float(lam)
    u_max = math.log1p(math.sqrt(2.0 * transform(-math.log(sys.float_info.epsilon**2), -lam)))
    if not math.isfinite(u_max):
        raise ValueError(f"the cutoff overflows at lam = {lam!r}")

    def term(v: float, w: float) -> float:
        u = u_max * v
        x = math.expm1(u)
        return w * math.exp(u - transform(0.5 * x * x, lam))

    m = num_points // 2
    h = 3.1875 / m
    total = term(0.5, 0.25 * math.pi * h)
    for k in range(1, m + 1):
        t = k * h
        a = 0.5 * math.pi * math.sinh(t)
        cosh_a = math.cosh(a)
        v = 0.5 * math.exp(-a) / cosh_a  # (1 - tanh a) / 2 without cancellation
        w = 0.25 * math.pi * h * math.cosh(t) / (cosh_a * cosh_a)
        total += term(v, w)
        total += term(1.0 - v, w)
    return 2.0 * u_max * total
