"""Core evaluators for the self-inverting power transform.

The transform maps x >= 0 through a single shape knob ``lam`` that ranges
over the extended reals.  ``lam = 0`` is the identity, ``lam = 1`` behaves
like expm1, ``lam = -1`` like log1p, and the limits at +/-infinity are
-log1p(-x) and -expm1(-x).  Flipping the sign of ``lam`` inverts the
transform exactly, which is the property everything else in this package
leans on.

Every branch is evaluated as

    post_scale * expm1?( mid_scale * log1p?( pre_scale * x ) )

so the whole family costs at most one log1p and one expm1 per call.  The
branch constants live in :class:`BranchPlan`; :func:`classify` picks the
branch from windows derived from binary64 precision.

:func:`transform`, :func:`inverse` and :func:`derivative` take a float or
an ndarray.  Each has one body, run with libm ops for a float (giving a
float) or with numpy ufuncs for an array (giving an array of its shape).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "Branch",
    "BranchPlan",
    "UnsupportedBranchError",
    "classify",
    "branch_plan",
    "max_domain",
    "parse_lambda",
    "render_lambda",
    "transform",
    "transform_naive",
    "inverse",
    "derivative",
]

# Smallest double strictly above -1; keeps log1p arguments legal when
# pre_scale * x rounds onto -1 at a clamped domain edge (happens e.g. at
# lam = 1.5, where pre_scale * max_domain rounds to exactly -1).
_ABOVE_MINUS_ONE = math.nextafter(-1.0, 0.0)
_BELOW_ONE = math.nextafter(1.0, -math.inf)


class UnsupportedBranchError(ValueError):
    """Raised when the naive closed form has no defined branch for lam."""


# Branch windows: lam counts as infinite beyond 1/EPS, as +/-1 within EPS
# of those points, and as zero within TINY (the smallest positive normal).
EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).tiny)
_PINF_THRESHOLD = 1.0 / EPS


class Branch(Enum):
    """The seven evaluation regimes of the transform."""

    POS_INF = "pos_inf"
    ONE = "one"
    POS = "pos"
    ZERO = "zero"
    NEG = "neg"
    NEG_ONE = "neg_one"
    NEG_INF = "neg_inf"


@dataclass(frozen=True)
class BranchPlan:
    """Scale factors and skip flags for one branch of the transform."""

    pre_scale: float
    skip_log: bool
    mid_scale: float
    skip_exp: bool
    post_scale: float


def _require_lambda(lam: float) -> float:
    lam = float(lam)
    if math.isnan(lam):
        raise ValueError("shape parameter lam must not be NaN")
    return lam


def parse_lambda(text: str) -> float:
    """Parse a shape parameter from its CLI spelling.

    Accepts decimal literals plus "inf" and "-inf".  NaN is rejected.
    """
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"cannot parse lam from {text!r}") from None
    return _require_lambda(value)


def render_lambda(lam: float) -> str:
    """Inverse of :func:`parse_lambda`; round-trips every accepted value."""
    lam = _require_lambda(lam)
    if lam == math.inf:
        return "inf"
    if lam == -math.inf:
        return "-inf"
    return repr(lam)


def classify(lam: float) -> Branch:
    """Assign lam to exactly one of the seven branches."""
    lam = _require_lambda(lam)
    if lam > _PINF_THRESHOLD:
        return Branch.POS_INF
    if abs(lam - 1.0) < EPS:
        return Branch.ONE
    if abs(lam) < TINY:
        return Branch.ZERO
    if abs(lam + 1.0) < EPS:
        return Branch.NEG_ONE
    if lam < -_PINF_THRESHOLD:
        return Branch.NEG_INF
    return Branch.POS if lam > 0.0 else Branch.NEG


def _nozero(value: float) -> float:
    # Division guard; unreachable after classification but kept so the plan
    # constants are total functions of lam.
    return TINY if abs(value) < TINY else value


@lru_cache(maxsize=4096)
def branch_plan(lam: float) -> BranchPlan:
    """Build the scale/skip table row for lam."""
    branch = classify(lam)
    if branch is Branch.POS_INF:
        return BranchPlan(-1.0, False, 1.0, True, -1.0)
    if branch is Branch.ONE:
        return BranchPlan(1.0, True, 1.0, False, 1.0)
    if branch is Branch.ZERO:
        return BranchPlan(1.0, True, 1.0, True, 1.0)
    if branch is Branch.NEG_ONE:
        return BranchPlan(1.0, False, 1.0, True, 1.0)
    if branch is Branch.NEG_INF:
        return BranchPlan(-1.0, True, 1.0, False, -1.0)
    if branch is Branch.POS:
        return BranchPlan(
            (1.0 - lam) / _nozero(lam),
            False,
            1.0 / _nozero(1.0 - lam),
            False,
            lam,
        )
    return BranchPlan(
        -1.0 / _nozero(lam),
        False,
        lam + 1.0,
        False,
        -lam / _nozero(lam + 1.0),
    )


def max_domain(lam: float) -> float:
    """Upper end of the valid input range for the given lam.

    Unbounded for lam <= 1.  For lam > 1 the transform has a pole at
    lam/(lam - 1) (at 1 for lam = +inf); the largest double strictly below
    that pole is returned so log1p arguments stay above -1 after clamping.
    """
    lam = _require_lambda(lam)
    if lam <= 1.0:
        return math.inf
    if lam == math.inf:
        return _BELOW_ONE
    return math.nextafter(lam / (lam - 1.0), -math.inf)


def _expm1(t: float) -> float:
    try:
        return math.expm1(t)
    except OverflowError:
        return math.inf


def _exp(t: float) -> float:
    try:
        return math.exp(t)
    except OverflowError:
        return math.inf


class _Ops(NamedTuple):
    """The primitives a branch plan is composed from, for one operand kind."""

    log1p: Callable
    expm1: Callable
    exp: Callable
    minimum: Callable
    maximum: Callable
    ones: Callable


# Two-argument min/max as conditionals: the builtins cost ~150 ns a call.
_FLOAT_OPS = _Ops(
    math.log1p,
    _expm1,
    _exp,
    lambda a, b: b if b < a else a,
    lambda a, b: b if b > a else a,
    lambda x: 1.0,
)
_ARRAY_OPS = _Ops(np.log1p, np.expm1, np.exp, np.minimum, np.maximum, np.ones_like)


def _elementwise(body, x, *params):
    """Evaluate ``body(x, ops, *params)`` for a float or an ndarray x.

    A float runs through libm and gives a float; an ndarray runs through
    numpy ufuncs, with overflow to inf expected, and gives a float64 array
    of its shape.  A NaN anywhere in x raises ValueError.
    """
    if isinstance(x, np.ndarray):
        x = np.asarray(x, dtype=float)
        if np.isnan(x).any():
            raise ValueError("x must not be NaN")
        with np.errstate(over="ignore"):
            return np.asarray(body(x, _ARRAY_OPS, *params))
    x = float(x)
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    return body(x, _FLOAT_OPS, *params)


def _transform(x, ops: _Ops, lam: float):
    plan = branch_plan(lam)
    t = plan.pre_scale * ops.minimum(x, max_domain(lam))
    if not plan.skip_log:
        t = ops.log1p(ops.maximum(t, _ABOVE_MINUS_ONE))
    t = plan.mid_scale * t
    if not plan.skip_exp:
        t = ops.expm1(t)
    return plan.post_scale * t


def _derivative(x, ops: _Ops, lam: float):
    plan = branch_plan(lam)
    t = plan.pre_scale * ops.minimum(x, max_domain(lam))
    if not plan.skip_log:
        inner = ops.log1p(ops.maximum(t, _ABOVE_MINUS_ONE))
        if plan.skip_exp:
            return ops.exp(-inner)
        dmid = plan.mid_scale - 1.0
        if dmid == 0.0:
            # |lam| below ~eps/2 underflows the exponent entirely; the
            # power this plan evaluates is 1, and 0 * inf must not leak
            # NaN when pre_scale * x overflows.
            return ops.ones(t)
        return ops.exp(dmid * inner)
    if plan.skip_exp:
        return ops.ones(t)
    return ops.exp(plan.mid_scale * t)


def transform(x: float | np.ndarray, lam: float) -> float | np.ndarray:
    """Stable evaluation of the transform at x (a float or an ndarray).

    x is clamped from above to :func:`max_domain` first, so the result is
    finite or +inf but never NaN for x >= 0 and any non-NaN lam.  Negative
    x is evaluated through the same branch formulas; inputs beyond the
    negative-side pole saturate the same way the clamped upper edge does.
    """
    return _elementwise(_transform, x, _require_lambda(lam))


def inverse(x: float | np.ndarray, lam: float) -> float | np.ndarray:
    """Inverse transform; identical to evaluating at -lam."""
    return transform(x, -_require_lambda(lam))


def derivative(x: float | np.ndarray, lam: float) -> float | np.ndarray:
    """Analytic d/dx of :func:`transform`, strictly positive, 1 at x = 0.

    Shares the branch plan with :func:`transform`: for log-using branches
    the derivative is exp((mid_scale - 1) * log1p(pre_scale * x)) when the
    expm1 stage is active and exp(-log1p(pre_scale * x)) when it is
    skipped; the accumulated scale factors always cancel to 1.
    """
    return _elementwise(_derivative, x, _require_lambda(lam))


def transform_naive(x: float, lam: float) -> float:
    """Literal closed-form evaluation through pow, with no expm1/log1p.

    Exists as the comparison subject for the accuracy harness.  The closed
    form divides by |lam| and by (2 - |lam| + lam), so lam in {0, +inf,
    -inf} is rejected outright and lam = +/-1 raises ZeroDivisionError from
    the scaffolding itself.
    """
    x = float(x)
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    lam = _require_lambda(lam)
    if math.isinf(lam) or abs(lam) < TINY:
        raise UnsupportedBranchError(
            f"naive closed form undefined at lam = {render_lambda(lam)}"
        )
    s = abs(lam)
    scale = 2.0 * s / (2.0 - s + lam)
    inner = (2.0 - s - lam) / (2.0 * s)
    expo = (1.0 - s) ** (-1.0 if lam > 0.0 else 1.0)
    return scale * ((1.0 + inner * x) ** expo - 1.0)

