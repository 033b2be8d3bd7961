"""Location estimation by iteratively reweighted least squares.

Minimizes the summed robust loss of (x_i - mu) by alternating between
kernel weights k_i at the current residuals and a step toward their
weighted mean.  lam > 0 is rejected: there the weights grow with the
residual and the scheme stops being a descent method.

For lam <= 0 the transform f is concave in u = r**2 / 2, so the objective
lies under the sweep's quadratic majorizer F(mu) - g*s + K*s**2/2 of the
step s (K = sum k_i, g = sum k_i * r_i), and every s between 0 and twice
the weighted-mean step g/K is a descent step (Heiser 1995; Lange, MM
Optimization Algorithms, 2016).  A sweep takes s = omega * g/K: Newton's
factor omega = K/h, h = K + sum r_i**2 * f''(u_i) <= K, where h/K > 1/2,
and omega = 1 where h <= 0, as twice the step would leap to and fro
across a narrow basin.  omega is 1 where the kernel is 1 (lam = 0).

In between, 0 < kappa = h/K <= 1/2, omega is the longest factor up to
K/h that a cubic bound proves a descent step (Nesterov & Polyak, Math.
Program. 108, 2006), and at least the majorizer's 2, from numbers the
sweep already has.  The objective F has F' = -g/c**2, F'' = h/c**2 and
|F'''| <= n * L3/c**3, where L3 = 2 lies above sup |rho'''| of the loss
at c = 1 over every lam <= 0 (1.3801, at lam = -inf).  So
F(mu + s) - F(mu) <= omega * g**2/(K c**2) * (-1 + kappa*omega/2
+ A*omega**2), A = n * L3 * |g/K| / (6 c K), which is <= 0 up to the
bracket's root w = 2/(kappa/2 + sqrt(kappa**2/4 + 4A)), and the step
takes omega = min(K/h, max(2, w)).  w reaches K/h exactly where
n * L3 * |g/K| <= 3 * K * kappa**2 * c.  Below K/h the root has
A*w**2 = 1 - kappa*w/2 >= 1/2, so the slack of L3 over 1.3801 lowers the
bound there by more than 0.15, far more than the rounding of w can raise
it.  No step evaluates the loss.

The sweeps sum with numpy's pairwise sums, accurate to O(eps * log n) of
the summed magnitudes, far inside the stopping tolerance.  A fit ends with
one plain sweep whose sums are exactly rounded, so its result is the
exactly rounded weighted mean at the final weights: a lam = 0 fit returns
``math.fsum(observations) / n``.  Each of those sums is split into two
numpy sums, one exact and one with an error bound, and taken from them
where the bound proves it equal to ``math.fsum``'s, from ``math.fsum``
elsewhere (Rump, Ogita & Oishi 2008).
"""

from __future__ import annotations

import math
import struct
import sys
from collections import namedtuple

import numpy as np

from .core import _derivative, _float_slope_one, _plan, _require_count, _require_number
from .families import _kernel, _loss, _require_scale

__all__ = [
    "IrlsProblem",
    "IrlsResult",
    "fit_location",
    "irls_step",
    "loss_objective",
    "objective_gradient",
]

_MAX = sys.float_info.max
_MIN_ITERS = 1
# above sup |d3/dr3 loss(r, lam)| at c = 1 over every lam <= 0, which is
# 1.3801 and is reached at lam = -inf (module docstring)
_L3 = 2.0


def _require_irls_lambda(lam: float) -> float:
    # the IRLS shape as a float: lam <= 0, where every sweep is a descent step
    lam = _require_number(lam)
    if lam > 0.0:
        raise ValueError(f"IRLS requires lam <= 0, got {lam!r}")
    return lam


def _require_tol(tol: float) -> float:
    tol = _require_number(tol, "tol")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    return tol


def _read_observations(observations):
    """The observations as a tuple of floats and as a read-only float64
    array, or the library's refusal of what is no sequence of real numbers."""
    if isinstance(observations, (tuple, list)):
        layout = f"{len(observations)}d"
        try:
            packed = struct.pack(layout, *observations)
        except struct.error:  # some observation is no float: np.array finds which
            # kind, but would parse text as a number and read None as NaN
            if any(v is None or isinstance(v, (str, bytes, bytearray)) for v in observations):
                raise ValueError("observations must be real numbers") from None
        else:  # one C pass; the bytes back the array without a copy
            return struct.unpack(layout, packed), np.frombuffer(packed)
    # dtype=float would drop the imaginary part of a complex array
    elif isinstance(observations, np.ndarray) and observations.dtype.kind == "c":
        raise ValueError("observations must be real numbers")
    try:
        values = np.array(observations, dtype=float)
    except OverflowError:  # an int past the largest double
        raise ValueError("an observation is too large for a double") from None
    except TypeError:  # a complex or another non-number
        raise ValueError("observations must be real numbers") from None
    except ValueError:  # a ragged sequence
        raise ValueError("observations must be a non-empty sequence of numbers") from None
    if values.ndim != 1:  # a scalar, or a nested sequence
        raise ValueError("observations must be a non-empty sequence of numbers")
    values.flags.writeable = False
    return tuple(values.tolist()), values


class IrlsProblem(namedtuple("IrlsProblem", "observations lam c max_iters tol")):
    """Observations plus shape, scale, and stopping controls.

    The observations must be real and finite, and so must their span
    max - min: every residual of a location inside the data is then a
    double.  lam must be <= 0 (may be -inf); max_iters is a count (README,
    Arrays) of at least 1; tol, the relative step threshold
    |new - old| <= tol * (1 + |new|), must be positive.
    """

    def __new__(cls, observations: tuple[float, ...], lam: float, c: float = 1.0,
                max_iters: int = 100, tol: float = 1e-12):
        observations, values = _read_observations(observations)
        if values.size == 0:
            raise ValueError("observations must be a non-empty sequence of numbers")
        lo, hi = float(np.minimum.reduce(values)), float(np.maximum.reduce(values))  # NaN too
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("observations must all be finite")
        if math.isinf(hi - lo):
            raise ValueError("observations must span at most the largest double")
        lam = _require_irls_lambda(lam)
        c = _require_scale(c)
        max_iters = _require_count(max_iters, "max_iters", _MIN_ITERS)
        tol = _require_tol(tol)
        self = super().__new__(cls, observations, lam, c, max_iters, tol)
        # The observations once more, as a read-only float64 array for the
        # vectorized sweeps, and their least and greatest value.
        self._values = values
        self._lo = lo
        self._hi = hi
        return self

    # namedtuple's _make, which _replace calls, would skip the checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    def _clamp(self, mu: float) -> float:
        """mu moved to the nearest point of [min, max] of the data."""
        return min(max(mu, self._lo), self._hi)


IrlsResult = namedtuple("IrlsResult", "mu iterations grad_norm converged")


def _residuals(mu: float, problem: IrlsProblem) -> np.ndarray:
    """x - mu for every observation, for any finite mu.

    Inside the data's range no residual passes the span.  Outside it one
    can pass the largest double; it is not a double then, and is held at
    the largest one, so it gets a finite loss and weight, not inf * 0.
    """
    if problem._lo <= mu <= problem._hi:
        return problem._values - mu
    with np.errstate(over="ignore"):
        return np.clip(problem._values - mu, -_MAX, _MAX)


def _weighted_shift(r: np.ndarray, problem: IrlsProblem) -> tuple[float, float]:
    """Total kernel weight of the residuals r and their weighted mean.

    The mean is summed over the normalized weights w / total, so no
    partial sum passes max|r|.  Both are 0.0 when every weight is 0.
    """
    w = _kernel(r, np, problem.lam, problem.c)  # r is finite: no NaN scan
    total = float(np.add.reduce(w))
    if not total > 0.0:
        return 0.0, 0.0
    w /= total
    w *= r
    return total, float(np.add.reduce(w))


def irls_step(mu: float, problem: IrlsProblem) -> float:
    """One reweighting sweep: kernel weights at the current residuals,
    then the weighted mean, as mu plus the weighted mean residual.

    A mu outside the data's range is first moved to its nearest end,
    which shrinks every residual and so cannot raise the objective.  A NaN
    mu raises ValueError.
    """
    mu = problem._clamp(_require_number(mu, "mu"))
    with np.errstate(over="ignore"):
        return mu + _weighted_shift(problem._values - mu, problem)[1]


def _exact_sum(a: np.ndarray) -> float:
    """math.fsum(a.tolist()) of a float64 array, to the bit, mostly from
    two numpy sums (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31, 2008).

    With sigma = 2**k >= (n + 2) * max|a| and n < 2**26,
    q = (a + sigma) - sigma holds multiples of eps * sigma (eps = 2**-53)
    whose partial sums stay below sigma, so q.sum() is exact in any order;
    r = a - q is exact with |r| <= eps * sigma, so r.sum() is off by less
    than bound = 2 * n**2 * eps**2 * sigma.  TwoSum splits q.sum() +
    r.sum() into s + e exactly, and s is the rounded sum when e +- bound
    lies strictly inside half the gaps around s, which no tie does and
    s = 0 never does (half its gap rounds to 0).  Otherwise fsum sums: for
    zeros, inf or NaN, max|a| below 2**-960 (where the bound would not be
    an exact double), sigma past 2**1023 and n from 2**26.
    """
    n = a.size
    m = max(float(np.maximum.reduce(a)), -float(np.minimum.reduce(a)))
    k = math.frexp(m)[1] + (n + 2).bit_length()
    if 2.0 ** -960 <= m < math.inf and k <= 1023 and n < 2 ** 26:
        sigma = math.ldexp(1.0, k)
        q = a + sigma
        q -= sigma
        t1 = float(np.add.reduce(q))
        t2 = float(np.add.reduce(np.subtract(a, q, out=q)))
        s = t1 + t2
        z = s - t1
        e = (t1 - (s - z)) + (t2 - z)
        bound = math.ldexp(2.0 * n * n, k - 106)
        if (e + bound < (math.nextafter(s, math.inf) - s) / 2
                and e - bound > (math.nextafter(s, -math.inf) - s) / 2):
            return s
    return math.fsum(a.tolist())


def _exact_sweep(mu: float, problem: IrlsProblem) -> float:
    """irls_step with both sums exactly rounded by _exact_sum:
    fsum(w * x) / fsum(w)."""
    mu = problem._clamp(mu)
    w = _kernel(problem._values - mu, np, problem.lam, problem.c)
    total = _exact_sum(w)
    if not total > 0.0:
        return mu
    w *= problem._values  # w <= 1 for lam <= 0: no product overflows
    try:
        mean = _exact_sum(w) / total
    except OverflowError:
        # n terms of up to the largest double: sum them scaled by a power
        # of two below 1/n, exactly but for subnormal terms
        scale = 2.0 ** -w.size.bit_length()
        mean = math.fsum((w * scale).tolist()) / total / scale
    # the division can round just past the data's range, to inf at the ends
    return problem._clamp(mean)


def loss_objective(mu: float, problem: IrlsProblem) -> float:
    """Summed robust loss at location mu, exactly rounded (by
    _exact_sum); inf once the sum passes the largest double.  A NaN mu
    raises ValueError."""
    with np.errstate(over="ignore"):  # the residuals are finite: no NaN scan
        terms = _loss(_residuals(_require_number(mu, "mu"), problem), np, problem.lam, problem.c)
    try:
        return _exact_sum(terms)
    except OverflowError:  # the terms are >= 0
        return math.inf


def objective_gradient(mu: float, problem: IrlsProblem) -> float:
    """d/dmu of the objective, through the analytic kernel identity
    rho'(r) = r * kernel(r) / c**2.

    Never NaN: the sum is taken as total weight times weighted mean
    residual, and c divides twice, since c * c underflows to 0 below
    about 1e-162.  A gradient past the largest double is +-inf.  A NaN mu
    raises ValueError.
    """
    with np.errstate(over="ignore"):
        total, shift = _weighted_shift(_residuals(_require_number(mu, "mu"), problem), problem)
    return -(total * shift) / problem.c / problem.c


def _median(values: np.ndarray) -> float:
    """Median of a non-empty array, the mean of the middle two for even n
    (as statistics.median and np.median), halved before the sum where
    that sum would overflow.  One partition at the upper middle hi puts the
    lower half in part[:hi], so for even n the lower middle is its max."""
    hi = values.size // 2
    part = np.partition(values, hi)
    b = float(part[hi])
    a = float(np.maximum.reduce(part[:hi])) if values.size % 2 == 0 else b
    mid = (a + b) / 2.0
    return mid if math.isfinite(mid) else a / 2.0 + b / 2.0


def _newton_sweep(mu: float, problem: IrlsProblem) -> tuple[float, float, float]:
    """g/K, h/K and K from a mu inside the data, g/K summed as
    sum (k/K) * r as _weighted_shift sums it, and h/K as 1 + sum (k/K) * q,
    2u * f''(u) = q * k.  With t = pre * u, q is 2 * dmid * (1 - 1/(1 + t))
    on the log branches (2 * dmid at t = inf, not inf/inf), and 2 * t at
    lam = -inf, t floored at -MAX so that k = 0 at u = inf gives 0, not
    NaN."""
    r = problem._values - mu
    x = r / problem.c if problem.c != 1.0 else r
    u = 0.5 * x
    u *= x
    k = _derivative(u, np, problem.lam, nonneg=True)  # a new array: u stays
    total = float(np.add.reduce(k))
    if not total > 0.0:
        return 0.0, 1.0, 0.0
    k /= total
    pre, skip_log, _, _, _, _, _, _, _, _, fd, dmid = _plan[problem.lam]
    if fd is _float_slope_one:  # the kernel is 1: f'' = 0
        curvature = 1.0
    else:
        u *= pre  # t, in u's buffer
        if skip_log:  # f'(u) = exp(t)
            np.maximum(u, -_MAX, out=u)
            u *= k
            curvature = 1.0 + 2.0 * float(np.add.reduce(u))
        else:  # f'(u) = (1 + t)**dmid
            u += 1.0
            np.divide(k, u, out=u)
            curvature = 1.0 + 2.0 * dmid * (1.0 - float(np.add.reduce(u)))
    k *= r
    return float(np.add.reduce(k)), curvature, total


def fit_location(problem: IrlsProblem) -> IrlsResult:
    """Run IRLS from the median of the observations.

    The median start keeps the iteration inside a reasonable basin when
    lam < -1 makes the objective multimodal; the returned gradient norm
    is the caller's stationarity check.

    Each pass is one safeguarded Newton sweep (module docstring): Newton's
    point where K/h < 2, the longest factor in [2, K/h] that the cubic
    bound proves a descent step where K/h >= 2, and the plain step where
    h <= 0.  So the objective never rises from one iterate to the next,
    and no pass evaluates the loss; the fit stops at the first step of at
    most tol * (1 + |mu|).  ``iterations`` counts the sweeps and never
    exceeds ``max_iters``.  One exactly rounded plain sweep then fixes the
    returned mu; it is itself a majorize-minimize step and is not counted.
    """
    tol, budget, c = problem.tol, problem.max_iters, problem.c
    mu = _median(problem._values)
    bound = problem._values.size * _L3
    passes, converged = 0, False
    with np.errstate(over="ignore"):
        while passes < budget:
            shift, curvature, total = _newton_sweep(mu, problem)
            passes += 1
            if curvature > 0.5:
                omega = 1.0 / curvature
            elif curvature > 0.0:  # the longest step the cubic bound proves
                a = abs(shift) / c * bound / (6.0 * total)
                w = 2.0 / (0.5 * curvature + math.sqrt(0.25 * curvature * curvature + 4.0 * a))
                omega = min(1.0 / curvature, max(2.0, w))
            else:
                omega = 1.0
            new = problem._clamp(mu + omega * shift)
            converged = abs(new - mu) <= tol * (1.0 + abs(new))
            mu = new
            if converged:
                break
        mu = _exact_sweep(mu, problem)
        # objective_gradient's sum, mu being a float inside the data
        total, shift = _weighted_shift(problem._values - mu, problem)
    grad_norm = abs(total * shift) / problem.c / problem.c
    return IrlsResult(mu=mu, iterations=passes, grad_norm=grad_norm, converged=converged)
