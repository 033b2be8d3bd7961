"""Location estimation by iteratively reweighted least squares.

Minimizes the summed robust loss of (x_i - mu) by alternating between
kernel weights at the current residuals and the weighted mean.  For
lam <= 0 each sweep is a majorize-minimize step, so the objective never
increases.  lam > 0 is rejected: there the weights grow with the residual
and the scheme stops being a descent method.

A sweep is one array kernel call plus numpy's pairwise sums, which are
accurate to O(eps * log n) of the summed magnitudes, far inside the
stopping tolerance.  A fit ends with one more sweep summed with
``math.fsum``, so its result is the exactly rounded weighted mean at the
final weights: a lam = 0 fit returns ``math.fsum(observations) / n``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .core import _require_lambda
from .kernel import irls_weight
from .loss import _require_scale, loss

__all__ = [
    "IrlsProblem",
    "IrlsResult",
    "fit_location",
    "irls_step",
    "loss_objective",
    "objective_gradient",
]

_MAX = sys.float_info.max


@dataclass(frozen=True)
class IrlsProblem:
    """Observations plus shape, scale, and stopping controls.

    The observations must be finite, and so must their span max - min:
    every residual of a location inside the data is then a double.  lam
    must be <= 0 (may be -inf); tol is the relative step threshold
    |new - old| <= tol * (1 + |new|).
    """

    observations: tuple[float, ...]
    lam: float
    c: float = 1.0
    max_iters: int = 100
    tol: float = 1e-12
    # The observations once more, as a read-only float64 array for the
    # vectorized sweeps, and their least and greatest value.
    _values: np.ndarray = field(init=False, repr=False, compare=False)
    _lo: float = field(init=False, repr=False, compare=False)
    _hi: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        values = np.array(self.observations, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("observations must be a non-empty sequence of numbers")
        if not np.isfinite(values).all():
            raise ValueError("observations must all be finite")
        lo, hi = float(values.min()), float(values.max())
        if math.isinf(hi - lo):
            raise ValueError("observations must span at most the largest double")
        values.flags.writeable = False
        object.__setattr__(self, "observations", tuple(values.tolist()))
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_hi", hi)
        lam = _require_lambda(self.lam)
        if lam > 0.0:
            raise ValueError(f"IRLS requires lam <= 0, got {lam!r}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "c", _require_scale(self.c))
        if int(self.max_iters) < 1:
            raise ValueError("max_iters must be positive")
        object.__setattr__(self, "max_iters", int(self.max_iters))
        if not (float(self.tol) > 0.0):
            raise ValueError("tol must be positive")
        object.__setattr__(self, "tol", float(self.tol))

    def _clamp(self, mu: float) -> float:
        """mu moved to the nearest point of [min, max] of the data."""
        return min(max(mu, self._lo), self._hi)


@dataclass(frozen=True)
class IrlsResult:
    mu: float
    iterations: int
    grad_norm: float
    converged: bool


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
    w = irls_weight(r, problem.lam, problem.c)
    total = float(w.sum())
    if not total > 0.0:
        return 0.0, 0.0
    return total, float((w / total * r).sum())


def irls_step(mu: float, problem: IrlsProblem) -> float:
    """One reweighting sweep: kernel weights at the current residuals,
    then the weighted mean, as mu plus the weighted mean residual.

    A mu outside the data's range is first moved to its nearest end,
    which shrinks every residual and so cannot raise the objective.
    """
    mu = problem._clamp(mu)
    return mu + _weighted_shift(problem._values - mu, problem)[1]


def _exact_sweep(mu: float, problem: IrlsProblem) -> float:
    """irls_step with both sums exactly rounded: fsum(w * x) / fsum(w)."""
    mu = problem._clamp(mu)
    w = irls_weight(problem._values - mu, problem.lam, problem.c)
    total = math.fsum(w.tolist())
    if not total > 0.0:
        return mu
    terms = w * problem._values  # w <= 1 for lam <= 0: no product overflows
    try:
        mean = math.fsum(terms.tolist()) / total
    except OverflowError:
        # n terms of up to the largest double: sum them scaled by a power
        # of two below 1/n, exactly but for subnormal terms
        scale = 2.0 ** -terms.size.bit_length()
        mean = math.fsum((terms * scale).tolist()) / total / scale
    # the division can round just past the data's range, to inf at the ends
    return problem._clamp(mean)


def loss_objective(mu: float, problem: IrlsProblem) -> float:
    """Summed robust loss at location mu, exactly rounded; inf once the
    sum passes the largest double."""
    terms = loss(_residuals(mu, problem), problem.lam, problem.c).tolist()
    try:
        return math.fsum(terms)
    except OverflowError:  # the terms are >= 0
        return math.inf


def objective_gradient(mu: float, problem: IrlsProblem) -> float:
    """d/dmu of the objective, through the analytic kernel identity
    rho'(r) = r * kernel(r) / c**2.

    Never NaN: the sum is taken as total weight times weighted mean
    residual, and c divides twice, since c * c underflows to 0 below
    about 1e-162.  A gradient past the largest double is +-inf.
    """
    total, shift = _weighted_shift(_residuals(mu, problem), problem)
    return -(total * shift) / problem.c / problem.c


def _median(values: np.ndarray) -> float:
    """Median of a non-empty array, the mean of the middle two for even n
    (as statistics.median and np.median), halved before the sum where
    that sum would overflow."""
    lo, hi = (values.size - 1) // 2, values.size // 2
    part = np.partition(values, (lo, hi))
    a, b = float(part[lo]), float(part[hi])
    mid = (a + b) / 2.0
    return mid if math.isfinite(mid) else a / 2.0 + b / 2.0


def fit_location(problem: IrlsProblem) -> IrlsResult:
    """Run IRLS from the median of the observations.

    The median start keeps the iteration inside a reasonable basin when
    lam < -1 makes the objective multimodal; the returned gradient norm
    is the caller's stationarity check.  After the last counted sweep one
    exactly rounded sweep fixes the returned mu; it is itself a
    majorize-minimize step and is not counted in ``iterations``.
    """
    mu = _median(problem._values)
    converged = False
    iterations = 0
    for iterations in range(1, problem.max_iters + 1):
        new_mu = irls_step(mu, problem)
        step_ok = abs(new_mu - mu) <= problem.tol * (1.0 + abs(new_mu))
        mu = new_mu
        if step_ok:
            converged = True
            break
    mu = _exact_sweep(mu, problem)
    return IrlsResult(
        mu=mu,
        iterations=iterations,
        grad_norm=abs(objective_gradient(mu, problem)),
        converged=converged,
    )
