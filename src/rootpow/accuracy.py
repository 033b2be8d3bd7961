"""Accuracy study: naive closed form vs stable evaluation.

Measures the geometric mean of absolute error against an extended-precision
oracle over log-spaced x grids, one row per lam.  The oracle evaluates the
same case formulas the stable path targets, but in software wide floats
(mpmath) with the branch chosen by the working-precision classifier, then
rounds once to binary64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath
import numpy as np

from .core import (
    EPS,
    TINY,
    Branch,
    classify,
    max_domain,
    transform,
    transform_naive,
)

__all__ = [
    "AccuracyRow",
    "AccuracyReport",
    "oracle_transform",
    "error_sweep",
    "default_lambda_grid",
    "report_to_csv",
]

ORACLE_DPS = 50


@dataclass(frozen=True)
class AccuracyRow:
    """Geometric-mean absolute errors at one lam; err_naive is None where
    the naive closed form has no defined branch."""

    lam: float
    err_naive: float | None
    err_stable: float


@dataclass(frozen=True)
class AccuracyReport:
    rows: tuple[AccuracyRow, ...]
    x_lo: float
    x_hi: float
    samples: int


def oracle_transform(x: float, lam: float, dps: int = ORACLE_DPS) -> float:
    """Ground-truth transform value, correctly rounded to binary64.

    Evaluates the closed form of the branch that the working-precision
    classifier assigns to lam, using mpmath at ``dps`` decimal digits.
    Doubling ``dps`` must not move the rounded result by more than the
    final rounding itself; tests assert this.
    """
    x = float(x)
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    branch = classify(lam)
    x = min(x, max_domain(lam))
    if branch is Branch.ZERO:
        return x
    with mpmath.workdps(dps):
        xm = mpmath.mpf(x)
        if branch is Branch.POS_INF:
            val = -mpmath.log(1 - xm)
        elif branch is Branch.ONE:
            val = mpmath.expm1(xm)
        elif branch is Branch.NEG_ONE:
            val = mpmath.log(1 + xm)
        elif branch is Branch.NEG_INF:
            val = -mpmath.expm1(-xm)
        elif branch is Branch.POS:
            lm = mpmath.mpf(lam)
            val = lm * (mpmath.expm1(mpmath.log1p((1 - lm) / lm * xm) / (1 - lm)))
        else:
            lm = mpmath.mpf(lam)
            val = -lm / (lm + 1) * mpmath.expm1((lm + 1) * mpmath.log1p(-xm / lm))
        return float(val)


def default_lambda_grid() -> list[float]:
    """The default sweep: neighborhoods of +/-1 at eps scales, decade
    magnitudes, the +/-1 +/- 1e-8 probe points, and a dense pass over
    [-3, 3] that avoids the exactly singular lam in {-1, 0, 1}."""
    lams: set[float] = set()
    for k in range(7):
        step = (10.0**k) * EPS
        for base in (1.0, -1.0):
            lams.add(base + step)
            lams.add(base - step)
    for k in range(7):
        lams.add(10.0**k)
        lams.add(-(10.0**k))
    for offset in (1e-8, -1e-8):
        lams.add(1.0 + offset)
        lams.add(-1.0 + offset)
    dense = np.linspace(-3.0, 3.0, 120)
    lams.update(float(v) for v in dense if abs(v) != 1.0 and v != 0.0)
    return sorted(lams)


@lru_cache(maxsize=64)
def _log_spaced(x_lo: float, x_hi: float, n: int) -> tuple[float, ...]:
    return tuple(float(v) for v in np.geomspace(x_lo, x_hi, n))


def error_sweep(
    lams: list[float] | None = None,
    x_lo: float = 0.01,
    x_hi: float = 1.0,
    n: int = 128,
    dps: int = ORACLE_DPS,
) -> AccuracyReport:
    """Geometric-mean absolute error of both implementations per lam.

    Zero errors are floored at the smallest positive normal before taking
    the geometric mean, otherwise a single exact hit would zero the row.
    Rows where the naive form raises are reported stable-only.
    """
    if not (0.0 < x_lo < x_hi):
        raise ValueError("need 0 < x_lo < x_hi")
    if n < 2:
        raise ValueError("need at least two sample points")
    if lams is None:
        lams = default_lambda_grid()
    xs = _log_spaced(float(x_lo), float(x_hi), int(n))
    floor = TINY
    rows = []
    for lam in sorted(lams):
        truth = [oracle_transform(x, lam, dps) for x in xs]
        e_stable = _geo_mean(
            [abs(transform(x, lam) - t) for x, t in zip(xs, truth)], floor
        )
        try:
            e_naive = _geo_mean(
                [abs(transform_naive(x, lam) - t) for x, t in zip(xs, truth)], floor
            )
        except (ArithmeticError, ValueError):
            e_naive = None
        rows.append(AccuracyRow(lam=lam, err_naive=e_naive, err_stable=e_stable))
    return AccuracyReport(rows=tuple(rows), x_lo=x_lo, x_hi=x_hi, samples=n)


def _geo_mean(errors: list[float], floor: float) -> float:
    logs = [math.log(max(e, floor)) for e in errors]
    return math.exp(math.fsum(logs) / len(logs))


def report_to_csv(report: AccuracyReport) -> str:
    """Render a report as the ``lambda,err_naive,err_stable`` CSV.  The
    err_naive field is empty on stable-only rows."""
    lines = ["lambda,err_naive,err_stable"]
    for row in report.rows:
        naive = "" if row.err_naive is None else format(row.err_naive, ".17g")
        lines.append(
            f"{format(row.lam, '.17g')},{naive},{format(row.err_stable, '.17g')}"
        )
    return "\n".join(lines) + "\n"
