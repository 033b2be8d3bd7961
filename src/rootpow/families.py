"""The families one power transform generates: robust losses, stationary
kernels, signed transforms and activations, bumps, and the Box-Cox bridge.

Each family is a short composition of the core bodies ``_transform`` and
``_derivative``: its body, the one statement of its arithmetic, which runs
on numpy alone.  Each public evaluator checks its parameters once, a
float inline and anything else through its reader function (the two
bridges: always the reader), then takes one of two routes.  A scalar x
takes the family's float step: a plain function of (x, *params) that
calls the float closures of the lam's plan row (Box-Cox: libm) and picks
a side with an ``if``, making the body's passes in the body's order, so
it gives the bits of the body run on libm; a test holds each step to its
body.  A float goes to the step
directly, every other scalar kind (an int, a numpy scalar, a float
subclass) through ``core._elementwise``, which reads it as a float.  An
array takes ``core._elementwise``'s numpy route, the body on numpy's
ufuncs.  The comment above each family says why it is computed as it is.
"""

from __future__ import annotations

import math
from math import inf

from .core import (
    EPS, TINY, Branch, UnsupportedBranchError, _derivative, _elementwise, _plan, _require_number,
    _to_float, _transform,
)

__all__ = [
    "loss", "LOSS_REFERENCE_LAMBDAS", "kernel", "irls_weight", "KERNEL_REFERENCE_LAMBDAS",
    "signed_transform", "softplus", "sigmoid", "tanh", "relu", "bump", "boxcox",
    "boxcox_normalized", "transform_via_boxcox", "boxcox_via_transform",
]

# Loss.  lam = 0 is plain quadratic loss; decreasing lam flattens the
# penalty on large residuals until it saturates at lam = -inf.  Several
# named robust losses fall out at particular lam; the tests check them
# against their literal closed forms.

# lam value at which each named loss is reproduced by `loss`.
LOSS_REFERENCE_LAMBDAS = {
    "l2": 0.0,
    "cauchy": -1.0,
    "welsch": -math.inf,
    "charbonnier": -0.5,
    "geman_mcclure": -2.0,
}


def _require_scale(c: float) -> float:
    if type(c) is not float:
        c = _to_float(c, "scale c")
    if not (c > 0.0) or math.isinf(c):
        raise ValueError(f"scale c must be a positive finite real, got {c!r}")
    return c


def _loss(x, np, lam: float, c: float, power=_transform):
    # power(0.5 * (x/c)**2): the loss, or with _derivative the kernel.
    # r * r, not r ** 2: past the binary64 range a float product gives inf,
    # which the transform maps to its limit, where ** raises OverflowError;
    # and the product is correctly rounded, which libm's pow(r, 2.0) is not
    # on about 1 input in 1000.  u, the one new array power runs in, is >= 0
    # or +inf: nonneg=True, so power skips an identity floor on log1p's argument.
    r = x / c if c != 1.0 else x
    u = 0.5 * r
    u *= r
    return power(u, np, lam, u, nonneg=True)


# The float steps of _loss and _kernel.  The body skips x / c at c = 1 to
# save an array pass; on a float, x / 1.0 is x.  0.5 * r * r is the body's u.
def _float_loss(x: float, lam: float, c: float) -> float:
    r = x / c
    return _plan[lam][9](0.5 * r * r)


def _float_kernel(x: float, lam: float, c: float) -> float:
    r = x / c
    return _plan[lam][10](0.5 * r * r)


def loss(x, lam: float, c: float = 1.0):
    """Robust penalty of residual x (a float or an ndarray) at shape lam
    and scale c.

    Even in x, zero at x = 0, non-negative, and non-decreasing in lam.
    For lam > 1 the squared argument can pass the transform's pole; the
    core clamp makes the loss saturate at a large finite value there.
    """
    if type(lam) is not float or lam != lam:
        lam = _require_number(lam)
    if not (type(c) is float and 0.0 < c < inf):
        c = _require_scale(c)
    if type(x) is float and x == x:
        return _float_loss(x, lam, c)
    return _elementwise(_loss, _float_loss, x, lam, c)


# Kernel, x the distance between two points.  Going through the derivative
# avoids the division by x that makes the loss-gradient formulation blow up
# near the origin.  The same quantity is the per-point weight of iteratively
# reweighted least squares minimizing the matching loss.

# lam value at which each named kernel is reproduced by `kernel`.
KERNEL_REFERENCE_LAMBDAS = {
    "gaussian": -math.inf,
    "inverse": -1.0,
    "quadratic": 0.5,
    "multiquadric": 1.0 / 3.0,
    "inverse_multiquadric": -0.5,
}


def _kernel(x, np, lam: float, c: float):
    return _loss(x, np, lam, c, _derivative)


def kernel(x, lam: float, c: float = 1.0):
    """Kernel value at distance x (a float or an ndarray); 1 at the
    origin, strictly positive, even."""
    if type(lam) is not float or lam != lam:
        lam = _require_number(lam)
    if not (type(c) is float and 0.0 < c < inf):
        c = _require_scale(c)
    if type(x) is float and x == x:
        return _float_kernel(x, lam, c)
    return _elementwise(_kernel, _float_kernel, x, lam, c)


def irls_weight(residual, lam: float, c: float = 1.0):
    """IRLS weight of a residual: the kernel evaluated at it.

    The c**2 factor that relates kernel and loss gradient is dropped; the
    weights only ever enter in ratios.
    """
    return kernel(residual, lam, c)


# Signed transform: one shape on the positive half axis and a second,
# independent shape on the mirrored negative half, continuous at 0 with
# slope 1 for every shape pair.  Composing a handful of these calls with
# adds and halvings reproduces softplus, sigmoid, tanh, and relu exactly
# (relu for any negative-side shape whose domain covers the argument range).

_LN2 = math.log(2.0)


def _signed(x, np, lam_pos: float, lam_neg: float):
    return np.where(x >= 0.0, _transform(x, np, lam_pos), -_transform(-x, np, lam_neg))


def _float_signed(x: float, lam_pos: float, lam_neg: float) -> float:
    return _plan[lam_pos][9](x) if x >= 0.0 else -_plan[lam_neg][9](-x)


def signed_transform(x, lam_pos: float, lam_neg: float):
    """Odd-style stitching: shape lam_pos for x >= 0, mirrored lam_neg below."""
    if type(lam_pos) is not float or lam_pos != lam_pos:
        lam_pos = _require_number(lam_pos)
    if type(lam_neg) is not float or lam_neg != lam_neg:
        lam_neg = _require_number(lam_neg)
    if type(x) is float and x == x:
        return _float_signed(x, lam_pos, lam_neg)
    return _elementwise(_signed, _float_signed, x, lam_pos, lam_neg)


# The activations are the paper's signed-transform compositions, bit for
# bit, with the stitching resolved: the inner s(y, 1, -inf) is expm1(y) on
# both sides, and each outer stage only ever takes its lam_pos half (tanh:
# both halves agree), so every stage is a single _transform.  The float
# steps call the float transforms of lam = 1, -1, -2 and 2, bound once.
_EXPM1, _LOG1P, _NEG_TWO, _TWO = _plan[1.0][9], _plan[-1.0][9], _plan[-2.0][9], _plan[2.0][9]


def _softplus(x, np):
    # as max(x, 0) + softplus(-|x|) the inner expm1 never sees x > 0, so cannot overflow
    return np.maximum(x, 0.0) + _transform(_transform(-abs(x), np, 1.0) + 1.0, np, -1.0)


def _float_softplus(x: float) -> float:
    # max(x, 0) as a conditional: the builtin costs ~150 ns a call
    return (0.0 if 0.0 > x else x) + _LOG1P(_EXPM1(-abs(x)) + 1.0)


def softplus(x):
    if type(x) is float and x == x:
        return _float_softplus(x)
    return _elementwise(_softplus, _float_softplus, x)


def _sigmoid(x, np):
    return 0.5 * _transform(_transform(x + _LN2, np, 1.0) + 1.0, np, -2.0)


def _float_sigmoid(x: float) -> float:
    return 0.5 * _NEG_TWO(_EXPM1(x + _LN2) + 1.0)


def sigmoid(x):
    if type(x) is float and x == x:
        return _float_sigmoid(x)
    return _elementwise(_sigmoid, _float_sigmoid, x)


def _tanh(x, np):
    return 0.5 * _transform(_transform(2.0 * x, np, 1.0), np, -2.0)


def _float_tanh(x: float) -> float:
    return 0.5 * _NEG_TWO(_EXPM1(2.0 * x))


def tanh(x):
    if type(x) is float and x == x:
        return _float_tanh(x)
    return _elementwise(_tanh, _float_tanh, x)


def _relu(x, np, lam_neg: float):
    return 2.0 - _signed(_signed(2.0 - x, np, 2.0, lam_neg), np, -2.0, -lam_neg)


def _float_relu(x: float, lam_neg: float) -> float:
    y = 2.0 - x
    y = _TWO(y) if y >= 0.0 else -_plan[lam_neg][9](-y)
    return 2.0 - (_NEG_TWO(y) if y >= 0.0 else -_plan[-lam_neg][9](-y))


def relu(x, lam_neg: float = 0.0):
    """max(0, x) rebuilt from two signed transforms.

    Exact up to round-off whenever x - 2 stays below the domain bound of
    the lam_neg shape (always true for lam_neg <= 1).  The round-off is
    absolute: for x <= 0, and for 0 < x <= 2**-53, where 2 - x rounds to
    2, the lam = 2 stage clamps just below its pole, 2, rather than
    saturate at inf, so the result is 2**-52, not 0.
    """
    if type(lam_neg) is not float or lam_neg != lam_neg:
        lam_neg = _require_number(lam_neg)
    if type(x) is float and x == x:
        return _float_relu(x, lam_neg)
    return _elementwise(_relu, _float_relu, x, lam_neg)


# Bump: positive exactly on (-1, 1), 1 only at 0.  The argument is scaled by
# the transform's own pole (1 past lam = 1/EPS), which keeps the bump well
# behaved as lam approaches 1 from above, where the simplified closed form's
# exponent 1/(1-lam) explodes.


def _require_bump_lambda(lam: float) -> float:
    lam = _require_number(lam)
    if not (1.0 < lam < math.inf):
        raise ValueError(f"bump shape must satisfy 1 < lam < inf, got {lam!r}")
    return lam


def _bump(x, np, lam: float):
    return np.where(abs(x) < 1.0, np.exp(-_transform(_plan[lam][7] * x * x, np, lam)), 0.0)


def _float_bump(x: float, lam: float) -> float:
    # the transform of pole * x * x >= 0 is >= 0 (or inf), so exp never overflows
    if abs(x) < 1.0:
        row = _plan[lam]
        return math.exp(-row[9](row[7] * x * x))
    return 0.0


def bump(x, lam: float):
    """Bump value at x (a float or an ndarray); exactly 0 for |x| >= 1."""
    if not (type(lam) is float and 1.0 < lam < inf):
        lam = _require_bump_lambda(lam)
    if type(x) is float and x == x:
        return _float_bump(x, lam)
    return _elementwise(_bump, _float_bump, x, lam)


# Box-Cox.  Conventions differ by a shift: Box-Cox is the identity at
# parameter 1, the transform at 0.  Each direction of the bridge delegates
# to the other side's body, or its step to the other side's step, which
# doubles as a cross-check of the case tables.  The normalized variant's
# scale is exact next to lam = 1 (it stays within 64 ulps there).  The one
# power step, in _boxcox and _float_boxcox, goes through
# expm1(a * log1p(b)) rather than raw pow.


def _require_boxcox_lambda(lam: float) -> float:
    if type(lam) is not float:
        lam = _to_float(lam, "Box-Cox parameter lam")
    if math.isnan(lam) or math.isinf(lam):
        raise ValueError(f"Box-Cox parameter must be finite, got {lam!r}")
    return lam


def _boxcox(x, np, lam: float):
    if np.any(x <= -1.0):
        raise ValueError(f"Box-Cox domain requires x > -1, got {x!r}")
    if abs(lam) < TINY:
        return np.log1p(x)
    return np.expm1(lam * np.log1p(x)) / lam


def _float_boxcox(x: float, lam: float) -> float:
    if x <= -1.0:
        raise ValueError(f"Box-Cox domain requires x > -1, got {x!r}")
    if abs(lam) < TINY:
        return math.log1p(x)
    try:
        return math.expm1(lam * math.log1p(x)) / lam
    except OverflowError:  # numpy's expm1 gives inf there
        return math.inf / lam


def boxcox(x, lam: float):
    """Box-Cox value ((x+1)**lam - 1)/lam, log1p(x) at lam = 0, at x (a
    float or an ndarray); needs x > -1."""
    if not (type(lam) is float and -inf < lam < inf):
        lam = _require_boxcox_lambda(lam)
    if type(x) is float and x == x:
        return _float_boxcox(x, lam)
    return _elementwise(_boxcox, _float_boxcox, x, lam)


def _boxcox_normalized(x, np, lam: float):
    if abs(lam - 1.0) < EPS:
        return x
    denom = abs(1.0 - lam)
    try:
        return denom * _boxcox(x / denom, np, lam)
    except ValueError:  # _boxcox's domain check, on x / denom
        raise ValueError(f"x = {x!r} outside the lam = {lam!r} branch domain") from None


def _float_boxcox_normalized(x: float, lam: float) -> float:
    if abs(lam - 1.0) < EPS:
        return x
    denom = abs(1.0 - lam)
    try:
        return denom * _float_boxcox(x / denom, lam)
    except ValueError:  # _float_boxcox's domain check, on x / denom
        raise ValueError(f"x = {x!r} outside the lam = {lam!r} branch domain") from None


def boxcox_normalized(x, lam: float):
    """Box-Cox rescaled so the slope at 0 is 1 and the curvature sign is
    sign(lam - 1): |1 - lam| * boxcox(x / |1 - lam|, lam), the identity at
    lam = 1; needs x > -|1 - lam|.  Takes a float or an ndarray."""
    if not (type(lam) is float and -inf < lam < inf):
        lam = _require_boxcox_lambda(lam)
    if type(x) is float and x == x:
        return _float_boxcox_normalized(x, lam)
    return _elementwise(_boxcox_normalized, _float_boxcox_normalized, x, lam)


def _transform_via_boxcox(x, np, lam: float):
    if _plan[lam][8] is Branch.ZERO:
        return _boxcox(x, np, 1.0)
    if lam < 0.0:
        return -lam * _boxcox(-x / lam, np, lam + 1.0)
    return lam / (1.0 - lam) * _boxcox((1.0 - lam) / lam * x, np, 1.0 / (1.0 - lam))


def _float_transform_via_boxcox(x: float, lam: float) -> float:
    if _plan[lam][8] is Branch.ZERO:
        return _float_boxcox(x, 1.0)
    if lam < 0.0:
        return -lam * _float_boxcox(-x / lam, lam + 1.0)
    return lam / (1.0 - lam) * _float_boxcox((1.0 - lam) / lam * x, 1.0 / (1.0 - lam))


def transform_via_boxcox(x, lam: float):
    """The self-inverting transform computed through Box-Cox.

    The printed mapping is singular at lam = 1 (it would need an infinite
    Box-Cox parameter), and extended lam has no Box-Cox image, so those
    raise UnsupportedBranchError.
    """
    lam = _require_number(lam)
    if math.isinf(lam):
        raise UnsupportedBranchError("no Box-Cox image for extended lam")
    if _plan[lam][8] is Branch.ONE:
        raise UnsupportedBranchError("bridge is singular at lam = 1")
    if type(x) is float and x == x:
        return _float_transform_via_boxcox(x, lam)
    return _elementwise(_transform_via_boxcox, _float_transform_via_boxcox, x, lam)


def _boxcox_via_transform(x, np, lam: float):
    if abs(lam - 1.0) < EPS:
        return _transform(x, np, 0.0)
    k = abs(1.0 - lam)
    return _transform(k * x, np, lam - 1.0 if lam < 1.0 else 1.0 - 1.0 / lam) / k


def _float_boxcox_via_transform(x: float, lam: float) -> float:
    if abs(lam - 1.0) < EPS:
        return _plan[0.0][9](x)
    k = abs(1.0 - lam)
    return _plan[lam - 1.0 if lam < 1.0 else 1.0 - 1.0 / lam][9](k * x) / k


def boxcox_via_transform(x, lam: float):
    """Box-Cox computed through the self-inverting transform.

    Dispatch: parameters below 1 route through shape lam - 1, parameters
    above 1 through shape 1 - 1/lam, and 1 itself is the identity.  (The
    below/above split at 1, not 0, is what makes the two mappings agree
    with the direct evaluator on (0, 1).)
    """
    lam = _require_boxcox_lambda(lam)
    if type(x) is float and x == x:
        return _float_boxcox_via_transform(x, lam)
    return _elementwise(_boxcox_via_transform, _float_boxcox_via_transform, x, lam)
