"""Location estimation by iteratively reweighted least squares.

Minimizes the summed robust loss of (x_i - mu) by alternating between
kernel weights at the current residuals and the weighted mean.  For
lam <= 0 each sweep is a majorize-minimize step, so the objective never
increases.  lam > 0 is rejected: there the weights grow with the residual
and the scheme stops being a descent method.
"""

from __future__ import annotations

import math
import statistics
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


@dataclass(frozen=True)
class IrlsProblem:
    """Observations plus shape, scale, and stopping controls.

    lam must be <= 0 (may be -inf); tol is the relative step threshold
    |new - old| <= tol * (1 + |new|).
    """

    observations: tuple[float, ...]
    lam: float
    c: float = 1.0
    max_iters: int = 100
    tol: float = 1e-12
    # The observations once more, as a read-only float64 array for the
    # vectorized sweeps.
    _values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        obs = tuple(float(v) for v in self.observations)
        if not obs:
            raise ValueError("observations must be non-empty")
        if not all(map(math.isfinite, obs)):
            raise ValueError("observations must all be finite")
        object.__setattr__(self, "observations", obs)
        values = np.array(obs, dtype=float)
        values.flags.writeable = False
        object.__setattr__(self, "_values", values)
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


@dataclass(frozen=True)
class IrlsResult:
    mu: float
    iterations: int
    grad_norm: float
    converged: bool


def irls_step(mu: float, problem: IrlsProblem) -> float:
    """One reweighting sweep: kernel weights at current residuals, then
    the weighted mean."""
    values = problem._values
    weights = irls_weight(values - mu, problem.lam, problem.c)
    total = math.fsum(weights.tolist())
    if not (total > 0.0) or math.isinf(total):
        return mu
    return math.fsum((weights * values).tolist()) / total


def loss_objective(mu: float, problem: IrlsProblem) -> float:
    """Summed robust loss at location mu."""
    return math.fsum(loss(problem._values - mu, problem.lam, problem.c).tolist())


def objective_gradient(mu: float, problem: IrlsProblem) -> float:
    """d/dmu of the objective, through the analytic kernel identity
    rho'(r) = r * kernel(r) / c**2."""
    r = problem._values - mu
    c2 = problem.c * problem.c
    return -math.fsum((r * irls_weight(r, problem.lam, problem.c) / c2).tolist())


def fit_location(problem: IrlsProblem) -> IrlsResult:
    """Run IRLS from the median of the observations.

    The median start keeps the iteration inside a reasonable basin when
    lam < -1 makes the objective multimodal; the returned gradient norm
    is the caller's stationarity check.
    """
    mu = float(statistics.median(problem.observations))
    converged = False
    iterations = 0
    for iterations in range(1, problem.max_iters + 1):
        new_mu = irls_step(mu, problem)
        step_ok = abs(new_mu - mu) <= problem.tol * (1.0 + abs(new_mu))
        mu = new_mu
        if step_ok:
            converged = True
            break
    return IrlsResult(
        mu=mu,
        iterations=iterations,
        grad_norm=abs(objective_gradient(mu, problem)),
        converged=converged,
    )
