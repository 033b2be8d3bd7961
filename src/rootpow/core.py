"""Core evaluators for the self-inverting power transform.

The transform maps x >= 0 through a single shape knob ``lam`` that ranges
over the extended reals.  ``lam = 0`` is the identity, ``lam = 1`` behaves
like expm1, ``lam = -1`` like log1p, and the limits at +/-infinity are
-log1p(-x) and -expm1(-x).  Flipping the sign of ``lam`` inverts the
transform exactly, which is the property everything else in this package
leans on.

Every branch is evaluated as

    post_scale * expm1?( mid_scale * log1p?( pre_scale * x ) )

so the whole family costs at most one log1p and one expm1 per call.  One
cached per-lam table decides, once per lam, the branch (from windows
derived from binary64 precision), its constants and clamp bound, and the
pole; :func:`classify`, :func:`branch_plan`, :func:`max_domain` and every
evaluator body read it.

Every scalar evaluator checks a float shape inline, and anything else
(another number kind, a NaN, a complex, what is no number) through
``_require_number``, which reads it as a float or refuses it by name;
:func:`classify`, :func:`branch_plan` and :func:`max_domain` call it on
every lam.

:func:`transform`, :func:`inverse` and :func:`derivative` take a float or
an ndarray, by one of two routes.  A scalar takes the float body its lam's
table row holds: a closure of x over the row's constants, picked from the
plan's skip flags, that makes the array body's passes on libm, in the same
order and to the same bits, without its tests for identity passes.  A
float goes there from the public function directly, every other scalar
kind (an int, a numpy scalar, a float subclass) through ``_elementwise``,
which reads it as a float.  An array goes through ``_elementwise`` to the
one array body, which runs numpy's ufuncs.  Every family in ``families``
and ``distribution`` has the same two: a float step that calls the row's
float bodies, and an array body built on ``_transform``/``_derivative``;
a test holds each float body and step to its array body run on libm.
"""

from __future__ import annotations

import _thread
import math
import sys
from collections import namedtuple
from enum import Enum

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
# lam = 5.5, where pre_scale * max_domain rounds to exactly -1).
_ABOVE_MINUS_ONE = math.nextafter(-1.0, 0.0)


class UnsupportedBranchError(ValueError):
    """Raised where the naive closed form has no defined branch for lam, or
    its scaffolding no finite value at x."""


# Branch windows: lam counts as infinite beyond 1/EPS, as +/-1 within EPS
# of those points, and as zero within TINY (the smallest positive normal).
EPS = sys.float_info.epsilon
TINY = sys.float_info.min
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


# Scale factors and skip flags for one branch of the transform, and its
# clamp bound.
BranchPlan = namedtuple("BranchPlan", "pre_scale skip_log mid_scale skip_exp post_scale max_domain")


def _to_float(value, name: str) -> float:
    # value, which is not a float, as one.  A complex number, numpy's complex
    # scalars and 0-d arrays included, is a ValueError naming it: float()
    # would drop its imaginary part with only a ComplexWarning (or raise
    # TypeError for Python's).  So is what is not a number: a type with
    # neither __float__ nor __index__ (float() would parse a str or bytes,
    # and raise TypeError for None or a list), or one whose __float__ raises
    # TypeError (an ndarray of ndim >= 1).  So is an int past the largest
    # double.
    if isinstance(value, complex) or getattr(getattr(value, "dtype", None), "kind", "") == "c":
        raise ValueError(f"{name} must be real, got {value!r}")
    if not (hasattr(type(value), "__float__") or hasattr(type(value), "__index__")):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int past the largest double
        raise ValueError(f"{name} is too large for a double") from None
    except TypeError:
        raise ValueError(f"{name} must be a number, got {value!r}") from None


def _require_number(value: float, name: str = "shape parameter lam") -> float:
    # value as a float; a complex number, an int past the largest double or a
    # NaN is a ValueError naming it.  An evaluator checks a float inline
    # (type(lam) is float and lam == lam) and calls this for anything else.
    if type(value) is not float:
        value = _to_float(value, name)
    if value != value:  # NaN
        raise ValueError(f"{name} must not be NaN")
    return value


def _require_count(value: int, name: str, least: int) -> int:
    # value, an int, a numpy integer or an integral float, as an int >= least;
    # anything else (a bool, a str, 2.5, NaN, inf, an ndarray of ndim >= 1,
    # whose __index__ raises TypeError) is a ValueError naming it
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    try:
        if isinstance(value, bool):  # an int, but no count
            raise TypeError
        value = value.__index__()
    except (AttributeError, TypeError):
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


def parse_lambda(text: str) -> float:
    """Parse a shape parameter from its CLI spelling.

    Accepts decimal literals plus "inf" and "-inf".  NaN is rejected.
    """
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"cannot parse lam from {text!r}") from None
    return _require_number(value)


def render_lambda(lam: float) -> str:
    """Inverse of :func:`parse_lambda`; round-trips every accepted value."""
    return repr(_require_number(lam))


def _sorted_linspace(lo: float, hi: float, count: int):
    """np.linspace(lo, hi, count), count >= 2, as an iterator in the order
    sorted() gives: the CLI's ranges, the default lam grid, the ZTable s grid.

    Each node is numpy's own arithmetic, i*step + lo, or i/div*delta + lo
    where step underflows to 0, and the last node is hi itself.
    """
    div = count - 1
    delta = hi - lo
    step = delta / div
    # the nodes before hi are monotone in i: a descending range runs i backwards
    indices = range(div - 1, -1, -1) if delta < 0.0 else range(div)
    if step == 0.0:
        nodes = (i / div * delta + lo for i in indices)
    else:
        nodes = (i * step + lo for i in indices)
    # hi, the last index, goes where a stable sort puts it: after a +0.0 node it
    # ties with, before a node that a rounded subnormal step pushed past it
    for node in nodes:
        if node > hi:
            yield hi
            yield node
            yield from nodes
            return
        yield node
    yield hi


# The float bodies: for each combination of a plan's skip flags, the passes
# of the array body below with libm on a float, in the same order, minus its
# tests for identity passes (times 1 is exact on a non-NaN float).  An expm1
# or exp past the largest double is inf, as numpy's is, before the
# post-scale.  Each is a closure of x alone over its row's constants, which
# _row builds once per lam: the transform's over (pre, mid, post, floor),
# the derivative's over (pre, dmid, floor).  transform, inverse and
# derivative call one on a float x directly, each family's float step does
# too, and _elementwise reaches one on any other scalar kind.


def _float_transform(pre: float, skip_log: bool, mid: float, skip_exp: bool, post: float,
                     floor: float):
    # the row's float transform body
    if skip_log and skip_exp:
        def scale(x: float) -> float:
            return post * (mid * (pre * x))
        return scale
    if skip_log:
        def exp(x: float) -> float:
            try:
                t = math.expm1(mid * (pre * x))
            except OverflowError:
                t = math.inf
            return post * t
        return exp
    if skip_exp:
        def log(x: float) -> float:
            t = pre * x
            return post * (mid * math.log1p(floor if floor > t else t))
        return log

    def log_exp(x: float) -> float:
        t = pre * x
        t = mid * math.log1p(floor if floor > t else t)
        try:
            t = math.expm1(t)
        except OverflowError:
            t = math.inf
        return post * t
    return log_exp


def _float_slope_one(x: float) -> float:
    # the derivative where its power is 1: one function for every such row
    return 1.0


def _float_derivative(pre: float, skip_log: bool, unit: bool, dmid: float, floor: float):
    # the row's float derivative body
    if unit:
        return _float_slope_one
    if skip_log:
        def slope_exp(x: float) -> float:
            try:
                return math.exp(pre * x)
            except OverflowError:
                return math.inf
        return slope_exp

    def slope_log(x: float) -> float:
        t = pre * x
        t = dmid * math.log1p(floor if floor > t else t)
        try:
            return math.exp(t)
        except OverflowError:
            return math.inf
    return slope_log


def _row(pre, skip_log, mid, skip_exp, post, bound, floor, pole, branch) -> tuple:
    # A plan row: the nine fields, then the float bodies its skip flags pick
    # and dmid, the derivative's power of 1 + pre * x (the expm1 stage's mid
    # less 1, or -1 without it).  The power is 1 where both stages run or
    # neither does and mid is 1: lam = 0, or |lam| below ~eps/2, where
    # (mid - 1) * log1p(pre * x) would be 0 * inf for a large pre * x.
    dmid = -1.0 if skip_exp else mid - 1.0
    ft = _float_transform(pre, skip_log, mid, skip_exp, post, floor)
    fd = _float_derivative(pre, skip_log, skip_log == skip_exp and mid == 1.0, dmid, floor)
    return pre, skip_log, mid, skip_exp, post, bound, floor, pole, branch, ft, fd, dmid


def _plan_row(lam: float) -> tuple:
    # The one table of what depends on lam alone, for a checked float lam:
    # (pre, skip_log, mid, skip_exp, post, bound, floor, pole, branch, ft,
    # fd, dmid), that is branch_plan's six fields, the floor of log1p's
    # argument, the pole on x > 0 (inf for lam <= 1), the branch, and what
    # _row derives from them for the bodies.  A plain tuple: the bodies
    # unpack it, and CPython specializes unpacking only for exact tuples.
    # The seven windows of lam are tested here and nowhere else.
    inf, floor = math.inf, _ABOVE_MINUS_ONE
    if lam > _PINF_THRESHOLD:  # pole 1: lam/(lam - 1) still rounds above 1 up to ~2/EPS
        bound = math.nextafter(1.0, 0.0)
        return _row(-1.0, False, 1.0, True, -1.0, bound, floor, 1.0, Branch.POS_INF)
    if abs(lam - 1.0) < EPS:
        return _row(1.0, True, 1.0, False, 1.0, inf, floor, inf, Branch.ONE)
    if abs(lam) < TINY:
        return _row(1.0, True, 1.0, True, 1.0, inf, floor, inf, Branch.ZERO)
    if abs(lam + 1.0) < EPS:
        return _row(1.0, False, 1.0, True, 1.0, inf, floor, inf, Branch.NEG_ONE)
    if lam < -_PINF_THRESHOLD:
        return _row(-1.0, True, 1.0, False, -1.0, inf, floor, inf, Branch.NEG_INF)
    if lam < 0.0:
        post = -lam / (lam + 1.0)
        return _row(-1.0 / lam, False, lam + 1.0, False, post, inf, floor, inf, Branch.NEG)
    pre, mid = (1.0 - lam) / lam, 1.0 / (1.0 - lam)
    if lam <= 1.0:
        return _row(pre, False, mid, False, lam, inf, floor, inf, Branch.POS)
    # Past 1 the bound is the largest double strictly below the pole.  The
    # clamp is a floor: pre < 0 and rounding is monotone, so
    # max(pre * x, pre * bound) is pre * min(x, bound) to the bit, and the
    # clamp and the guard are one max after the pre-scale.
    pole = lam / (lam - 1.0)
    bound = math.nextafter(pole, -inf)
    return _row(pre, False, mid, False, lam, bound, max(pre * bound, floor), pole, Branch.POS)


_PLAN_ROWS = 4096


class _PlanCache(dict):
    # lam -> _plan_row(lam), read as _plan[lam]: a hit is one dict
    # subscript, where a call through lru_cache builds an args tuple.  A miss
    # at _PLAN_ROWS rows empties the cache first (dropping only the oldest
    # row would scan past every row dropped before it, on each miss).  The
    # lock keeps two threads' misses from both passing the test and then
    # inserting past the bound.
    _lock = _thread.allocate_lock()  # threading.Lock, without importing threading

    def __missing__(self, lam: float) -> tuple:
        row = _plan_row(lam)
        with self._lock:
            if len(self) >= _PLAN_ROWS:
                self.clear()
            self[lam] = row
        return row


_plan = _PlanCache()


def classify(lam: float) -> Branch:
    """Assign lam to exactly one of the seven branches."""
    return _plan[_require_number(lam)][8]


def branch_plan(lam: float) -> BranchPlan:
    """Build the scale/skip table row and the clamp bound for lam."""
    return BranchPlan._make(_plan[_require_number(lam)][:6])


def max_domain(lam: float) -> float:
    """Upper end of the valid input range for the given lam.

    Unbounded for lam <= 1.  For lam > 1 it is the largest double strictly
    below the transform's pole at lam/(lam - 1), which is 1 for every lam
    above 1/EPS, the window where :func:`classify` counts lam as +inf.
    """
    return _plan[_require_number(lam)][5]


def _elementwise(body, step, x, *params):
    """Evaluate ``step(x, *params)`` for a scalar x, ``body(x, np, *params)``
    for an ndarray x.

    These are the two routes of every public evaluator: its float step for
    each scalar kind, its body on numpy for an array.  The evaluator takes
    a non-NaN float x to its step (or the step's float body) itself, and
    sends everything else here.  An ndarray runs through numpy's ufuncs,
    overflow to inf expected, as a C-contiguous array of ndim >= 1 (a 0-d
    ufunc result is a scalar, which takes no ``out=``) that the body may
    return but not write into, and gives a new float64 array of x's shape.
    Any other x (an int, a numpy scalar, a float subclass) is read as a
    float, as a shape parameter is, and runs the step, so it gives the bits
    of the float call.  A NaN in x, or a complex x, raises ValueError.
    numpy is never imported here.
    """
    np = sys.modules.get("numpy")
    if np is not None and isinstance(x, np.ndarray):
        if x.dtype.kind == "c":  # dtype=float would drop the imaginary part
            raise ValueError("x must be real, got a complex array")
        a = np.ascontiguousarray(x, dtype=float)
        if np.isnan(a).any():
            raise ValueError("x must not be NaN")
        with np.errstate(over="ignore"):
            out = body(a, np, *params)
        return (out.copy() if out is a else out).reshape(x.shape)
    return step(_require_number(x, "x"), *params)


# The array bodies, the one statement of the arithmetic, which the float
# bodies above restate on libm.  Each runs on numpy, handed in as np (the
# tests hand in a libm namespace of the same names instead, to hold the
# float bodies to them).  A body allocates at most one array and runs every
# later pass in it: ``out``, None until a pass allocates it, or x itself
# when the caller hands over an array it owns.  Passes that are exact
# identities on non-NaN input (times 1) are skipped, and so is the floor of
# log1p's argument at pre > 0 when the caller says x >= 0 or +inf (nonneg).
# Only the pre-scale, or log1p after a skipped floor, can meet x unallocated:
# a plan that skips the log has mid_scale 1, and one that skips the exp a
# post_scale of 1 or a log before it.


def _transform(x, np, lam: float, out=None, nonneg=False):
    pre, skip_log, mid, skip_exp, post, _, floor, _, _, _, _, _ = _plan[lam]
    if pre != 1.0:
        if out is None:
            x = out = pre * x
        else:
            x *= pre
    if not skip_log:
        if not (nonneg and pre > 0.0):
            x = out = np.maximum(x, floor, out=out)
        x = out = np.log1p(x, out)
    if mid != 1.0:
        x *= mid
    if not skip_exp:
        x = np.expm1(x, out)
    if post != 1.0:
        x *= post
    return x


def _derivative(x, np, lam: float, out=None, nonneg=False):
    pre, skip_log, _, _, _, _, floor, _, _, _, fd, dmid = _plan[lam]
    if fd is _float_slope_one:  # the power is 1 (0 * inf must not leak NaN)
        return x ** 0.0  # 1 for every x, inf included
    if pre != 1.0:
        if out is None:
            x = out = pre * x
        else:
            x *= pre
    if not skip_log:
        if not (nonneg and pre > 0.0):
            x = out = np.maximum(x, floor, out=out)
        x = out = np.log1p(x, out)
        x *= dmid
    return np.exp(x, out)


# The float steps _elementwise runs for transform (inverse: at -lam) and derivative.
def _transform_step(x: float, lam: float) -> float:
    return _plan[lam][9](x)


def _derivative_step(x: float, lam: float) -> float:
    return _plan[lam][10](x)


def transform(x: float | np.ndarray, lam: float) -> float | np.ndarray:
    """Stable evaluation of the transform at x (a float or an ndarray).

    x is clamped from above to :func:`max_domain` first, so the result is
    finite or +inf but never NaN for x >= 0 and any non-NaN lam.  Negative
    x is evaluated through the same branch formulas; inputs beyond the
    negative-side pole saturate the same way the clamped upper edge does.
    """
    if type(lam) is not float or lam != lam:
        lam = _require_number(lam)
    if type(x) is float and x == x:
        return _plan[lam][9](x)
    return _elementwise(_transform, _transform_step, x, lam)


def inverse(x: float | np.ndarray, lam: float) -> float | np.ndarray:
    """Inverse transform; identical to evaluating at -lam."""
    if type(lam) is not float or lam != lam:
        lam = _require_number(lam)
    lam = -lam
    if type(x) is float and x == x:
        return _plan[lam][9](x)
    return _elementwise(_transform, _transform_step, x, lam)


def derivative(x: float | np.ndarray, lam: float) -> float | np.ndarray:
    """Analytic d/dx of :func:`transform`, strictly positive, 1 at x = 0.

    Shares the branch plan with :func:`transform`: for log-using branches
    the derivative is exp((mid_scale - 1) * log1p(pre_scale * x)) when the
    expm1 stage is active and exp(-log1p(pre_scale * x)) when it is
    skipped; the accumulated scale factors always cancel to 1.
    """
    if type(lam) is not float or lam != lam:
        lam = _require_number(lam)
    if type(x) is float and x == x:
        return _plan[lam][10](x)
    return _elementwise(_derivative, _derivative_step, x, lam)


def transform_naive(x: float, lam: float) -> float:
    """Literal closed-form evaluation through pow, with no expm1/log1p.

    Exists as the comparison subject for the accuracy harness; it raises
    nothing but ValueError.  The closed form divides by |lam| and by
    (2 - |lam| + lam), so lam in {0, +inf, -inf} is rejected outright.
    Where the pow base 1 + inner * x is negative (for lam > 1, x past the
    pole) the form has no real value and ValueError is raised.  Where it
    divides by zero (lam = +/-1, 2 - |lam| + lam rounding to 0), its power
    overflows or its value is NaN, UnsupportedBranchError is raised.
    """
    x = _require_number(x, "x")
    lam = _require_number(lam)
    if math.isinf(lam) or _plan[lam][8] is Branch.ZERO:
        raise UnsupportedBranchError(
            f"naive closed form undefined at lam = {render_lambda(lam)}"
        )
    s = abs(lam)
    try:
        scale = 2.0 * s / (2.0 - s + lam)
        inner = (2.0 - s - lam) / (2.0 * s)
        expo = (1.0 - s) ** (-1.0 if lam > 0.0 else 1.0)
        base = 1.0 + inner * x
        if base < 0.0:  # ** would return a complex number
            raise ValueError(
                f"naive closed form has no real value at x = {x!r}, lam = {render_lambda(lam)}"
            )
        value = scale * (base ** expo - 1.0)
    except ArithmeticError:  # a zero divisor, or a power past the largest double
        value = math.nan
    if value != value:
        raise UnsupportedBranchError(
            f"naive closed form has no value at x = {x!r}, lam = {render_lambda(lam)}"
        )
    return value

