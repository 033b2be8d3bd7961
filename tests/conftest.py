import math

import numpy as np

from rootpow.core import max_domain
from rootpow.families import loss


def ulps_apart(a: float, b: float) -> float:
    """Distance between two doubles in units of the last place of b."""
    if a == b:
        return 0.0
    if b == 0.0:
        return abs(a) / math.ulp(0.0)
    return abs(a - b) / math.ulp(abs(b))


def closed_form_ulp_allowance(x: float, lam: float) -> float:
    """Ulp budget for comparing the stable path against a closed form.

    Both sides quantize the log1p argument pre_scale * x once (~1.5 eps
    relative); the log differentiates that to eps * |t| / (1 + t) and the
    mid_scale exponent multiplies it, which is what dominates near a
    domain edge where t approaches -1.  Away from edges this collapses to
    the flat 4-ulp budget.
    """
    from rootpow.core import branch_plan

    plan = branch_plan(lam)
    if plan.skip_log:
        return 4.0
    t = plan.pre_scale * x
    return 4.0 + 3.0 * abs(plan.mid_scale) * abs(t) / (1.0 + t)


def stable_ulp_budget(x: float, lam: float) -> float:
    """First-order rounding bound for the stable evaluator vs exact truth.

    The chain rounds pre_scale, pre_scale * x, log1p, the mid product, and
    expm1; the resulting relative error is a few eps amplified by
    |T| = |mid * log1p(t)| through expm1 and by |mid| * |t| / (1 + t)
    through the log near a domain pole.  Coefficient 2.5 carries headroom
    over the measured worst utilization of 0.75.
    """
    from rootpow.core import branch_plan

    plan = branch_plan(lam)
    t = plan.pre_scale * x
    if plan.skip_log:
        return 4.0 + 2.5 * abs(plan.mid_scale * t)
    inner = math.log1p(max(t, math.nextafter(-1.0, 0.0)))
    pole = abs(plan.mid_scale) * abs(t) / (1.0 + t)
    amp = abs(plan.mid_scale * inner) if not plan.skip_exp else 0.0
    return 4.0 + 2.5 * (amp + pole)


def invertible_x_grid(lam: float, cap: float = 1e6, points: int = 60) -> np.ndarray:
    """x samples where both the transform and its inverse stay inside their
    evaluation windows: 0.9 * min(max_domain(lam), cap) bounds the input,
    and 0.9 * min(max_domain(-lam), cap) bounds the image (mapped back
    through the inverse, which is monotone).  Saturating members
    (expm1-like overflow, 1 - exp(-x) flattening) make round trips outside
    that window unresolvable in binary64."""
    import sys

    from rootpow.core import branch_plan, inverse

    x_hi = 0.9 * min(max_domain(lam), cap)
    y_cap = 0.9 * min(max_domain(-lam), cap)
    x_hi = min(x_hi, inverse(y_cap, lam))
    # shapes within a few ulps of the subnormal boundary carry pre_scale
    # ~1/tiny; keep pre_scale * x representable
    pre = abs(branch_plan(lam).pre_scale)
    if pre > 1.0:
        x_hi = min(x_hi, 0.25 * sys.float_info.max / pre)
    return np.linspace(0.0, x_hi, points)


def minimize_objective(obs, lam: float, c: float = 1.0) -> float:
    """Independent location minimizer: dense scan, downhill walk from the
    median into its basin, golden-section, then finite-difference Newton
    polish (comparison search alone stalls near sqrt(eps))."""
    obs = np.asarray(obs, dtype=float)
    lo, hi = obs.min() - 1.0, obs.max() + 1.0
    grid = np.linspace(lo, hi, 200001)
    vals = loss(obs[None, :] - grid[:, None], lam, c).sum(axis=1)
    med = float(np.median(obs))
    i = int(np.argmin(np.abs(grid - med)))
    while 0 < i < len(grid) - 1:
        if vals[i - 1] < vals[i]:
            i -= 1
        elif vals[i + 1] < vals[i]:
            i += 1
        else:
            break
    a, b = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, len(grid) - 1)])

    def f(mu: float) -> float:
        return float(loss(obs - mu, lam, c).sum())

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = b - invphi * (b - a), a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(90):
        if b - a <= 1e-10 * (1.0 + abs(a)):
            break
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    mu = 0.5 * (a + b)
    for h in (1e-4, 1e-5):
        d1 = (f(mu + h) - f(mu - h)) / (2.0 * h)
        d2 = (f(mu + h) - 2.0 * f(mu) + f(mu - h)) / (h * h)
        if d2 > 0.0 and math.isfinite(d1):
            mu -= d1 / d2
    return mu
