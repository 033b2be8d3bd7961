"""Location estimation by iteratively reweighted least squares.

Minimizes the summed robust loss of (x_i - mu) by alternating between
kernel weights at the current residuals and the weighted mean.  For
lam <= 0 each sweep is a majorize-minimize step, so the objective never
increases.  lam > 0 is rejected: there the weights grow with the residual
and the scheme stops being a descent method.

The sweeps converge only linearly, so a fit runs them in cycles of two
and then tries the Aitken extrapolation of the pair (SQUAREM in one
dimension, Varadhan & Roland 2008).  The extrapolated point is taken
only when it lies in [min, max] of the data and its summed loss is
finite and no higher than at the cycle's start, so the fit stays a
descent method: the objective never rises from one accepted iterate to
the next.

A sweep is one run of the kernel body plus numpy's pairwise sums, which
are accurate to O(eps * log n) of the summed magnitudes, far inside the
stopping tolerance.  A fit ends with one more sweep whose sums are
exactly rounded, so its result is the exactly rounded weighted mean at
the final weights: a lam = 0 fit returns ``math.fsum(observations) / n``.
Each of those sums is split into two numpy sums, one exact and one with
an error bound, and taken from them where the bound proves it equal to
``math.fsum``'s, from ``math.fsum`` elsewhere (Rump, Ogita & Oishi 2008).
"""

from __future__ import annotations

import math
import struct
import sys
from collections import namedtuple

import numpy as np

from .core import _require_count, _require_number
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


def _step(mu: float, problem: IrlsProblem) -> float:
    # irls_step, run inside the caller's np.errstate(over="ignore")
    mu = problem._clamp(mu)
    return mu + _weighted_shift(problem._values - mu, problem)[1]


def irls_step(mu: float, problem: IrlsProblem) -> float:
    """One reweighting sweep: kernel weights at the current residuals,
    then the weighted mean, as mu plus the weighted mean residual.

    A mu outside the data's range is first moved to its nearest end,
    which shrinks every residual and so cannot raise the objective.  A NaN
    mu raises ValueError.
    """
    with np.errstate(over="ignore"):
        return _step(_require_number(mu, "mu"), problem)


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


def _pass_loss(mu: float, problem: IrlsProblem) -> float:
    """loss_objective summed by numpy's pairwise sum: one pass over the
    observations, about the cost of a sweep; inf past the largest double."""
    return float(np.add.reduce(_loss(_residuals(mu, problem), np, problem.lam, problem.c)))


def fit_location(problem: IrlsProblem) -> IrlsResult:
    """Run IRLS from the median of the observations.

    The median start keeps the iteration inside a reasonable basin when
    lam < -1 makes the objective multimodal; the returned gradient norm
    is the caller's stationarity check.

    Each cycle takes two sweeps, mu -> m1 -> m2, each under the stopping
    test, then forms the Aitken point a = m2 - d2**2 / (d2 - d1) of the
    steps d1 = m1 - mu, d2 = m2 - m1.  The next cycle starts from a when
    a lies in [min, max] of the data and its summed loss is finite and no
    higher than at mu, and from m2 otherwise.  The loss at mu is computed
    only when a's passes that test, and after an accepted a it is a's.
    Every iterate the fit continues from thus has an objective no higher
    than the one before it.  After a point whose summed loss is inf (an
    outlier that squares past the largest double), the fit tries no more.

    ``iterations`` counts the passes over the observations, sweeps and
    loss evaluations alike, and never exceeds ``max_iters``.  After them
    one exactly rounded sweep fixes the returned mu; it is itself a
    majorize-minimize step and is not counted.
    """
    lo, hi, tol, budget = problem._lo, problem._hi, problem.tol, problem.max_iters
    mu = _median(problem._values)
    mu_loss = None  # _pass_loss(mu), once computed
    passes = 0
    extrapolate = True  # until a point's summed loss is inf
    converged = False
    with np.errstate(over="ignore"):
        while passes < budget:
            m1 = _step(mu, problem)
            passes += 1
            if abs(m1 - mu) <= tol * (1.0 + abs(m1)):
                mu, converged = m1, True
                break
            if passes == budget:
                mu = m1
                break
            m2 = _step(m1, problem)
            passes += 1
            if abs(m2 - m1) <= tol * (1.0 + abs(m2)):
                mu, converged = m2, True
                break
            d1, d2 = m1 - mu, m2 - m1
            a = m2 - d2 * d2 / (d2 - d1) if d2 != d1 else math.nan
            # the comparison is False for NaN and for +-inf
            if extrapolate and lo <= a <= hi and passes + 1 + (mu_loss is None) <= budget:
                a_loss = _pass_loss(a, problem)
                passes += 1
                extrapolate = math.isfinite(a_loss)
                if extrapolate:
                    if mu_loss is None:
                        mu_loss = _pass_loss(mu, problem)
                        passes += 1
                    if a_loss <= mu_loss:
                        mu, mu_loss = a, a_loss
                        continue
            mu, mu_loss = m2, None
        mu = _exact_sweep(mu, problem)
        # objective_gradient's sum, mu being a float inside the data
        total, shift = _weighted_shift(problem._values - mu, problem)
    return IrlsResult(
        mu=mu,
        iterations=passes,
        grad_norm=abs(total * shift) / problem.c / problem.c,
        converged=converged,
    )
