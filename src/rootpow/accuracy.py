"""Accuracy study: naive closed form vs stable evaluation.

Measures the geometric mean of absolute error against an extended-precision
oracle over log-spaced x grids, one row per lam.  The oracle evaluates the
same case formulas the stable path targets, but in stdlib ``decimal`` at
50 significant digits plus guard digits, with the branch chosen by the
working-precision classifier, then rounds once to binary64.
"""

from __future__ import annotations

import math
from collections import namedtuple
import decimal
from decimal import Decimal

from .core import (
    EPS, TINY, Branch, _plan, _require_count, _require_number, _sorted_linspace, transform,
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
_MIN_SAMPLES = 2
# Digits the oracle carries past dps: below _SERIES_BELOW the series take
# over, so a log or exp argument never cancels more than 8 of them.
_GUARD_DIGITS = 10
_SERIES_BELOW = Decimal("1e-8")


def _wide(dps: int) -> decimal.Context:
    # dps + guard digits, exponents far past binary64's; every operation, unary minus too, rounds
    return decimal.Context(prec=dps + _GUARD_DIGITS, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
                           traps=[decimal.InvalidOperation, decimal.DivisionByZero])


# Geometric-mean absolute errors at one lam; err_naive is None where the
# naive closed form has no defined branch.
AccuracyRow = namedtuple("AccuracyRow", "lam err_naive err_stable")
AccuracyReport = namedtuple("AccuracyReport", "rows x_lo x_hi samples")


def _log1p(y: Decimal) -> Decimal:
    # ln(1 + y), summing y - y^2/2 + y^3/3 - ... where 1 + y would cancel
    # the leading digits of y
    if y < -1:
        raise ValueError("x is past the pole of the transform at this lam")
    if abs(y) >= _SERIES_BELOW:
        return (1 + y).ln()
    total, power, k = y, y, 1
    while True:
        k += 1
        power *= -y
        last, total = total, total + power / k
        if total == last:
            return total


def _expm1(z: Decimal) -> Decimal:
    # exp(z) - 1, summing z + z^2/2! + ... where the subtraction would cancel
    if abs(z) >= _SERIES_BELOW:
        return z.exp() - 1
    total, term, k = z, z, 1
    while True:
        k += 1
        term = term * z / k
        last, total = total, total + term
        if total == last:
            return total


def oracle_transform(x: float, lam: float) -> float:
    """Ground-truth transform value, correctly rounded to binary64.

    Evaluates the closed form of the branch that the working-precision
    classifier assigns to lam in ``decimal`` arithmetic: 50 significant
    digits plus guard digits, with an exponent range far past binary64 (an
    exp too large even for that gives inf); doubling the digits does not
    move the rounded result.  An x past the transform's pole at lam raises
    ValueError; an exact zero comes back as +0.0.
    """
    x, lam = _require_number(x, "x"), _require_number(lam)
    row = _plan[lam]
    branch, x = row[8], min(x, row[5])  # the branch, and x clamped to the bound
    if branch is Branch.ZERO:
        return x
    with decimal.localcontext(_wide(ORACLE_DPS)):  # read per call: tests double it
        xm, lm = Decimal(x), Decimal(lam)
        if branch is Branch.POS_INF:
            val = -_log1p(-xm)
        elif branch is Branch.ONE:
            val = _expm1(xm)
        elif branch is Branch.NEG_ONE:
            val = _log1p(xm)
        elif branch is Branch.NEG_INF:
            val = -_expm1(-xm)
        elif branch is Branch.POS:
            val = lm * _expm1(_log1p((1 - lm) / lm * xm) / (1 - lm))
        else:
            val = -lm / (lm + 1) * _expm1((lm + 1) * _log1p(-xm / lm))
        return float(val) if val else 0.0


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
    dense = _sorted_linspace(-3.0, 3.0, 120)
    lams.update(v for v in dense if abs(v) != 1.0 and v != 0.0)
    return sorted(lams)


def _require_window(x_lo: float, x_hi: float, lo_name: str = "x_lo",
                    hi_name: str = "x_hi") -> tuple[float, float]:
    # error_sweep's x window as floats, 0 < x_lo < x_hi < inf, under the
    # names the caller gives (the CLI's are --xmin and --xmax).  A NaN fails
    # the window test; an int past the largest double is refused by name.
    x_lo, x_hi = (v if v != v else _require_number(v, name)
                  for v, name in ((x_lo, lo_name), (x_hi, hi_name)))
    if not (0.0 < x_lo < x_hi < math.inf):
        raise ValueError(f"need 0 < {lo_name} < {hi_name} < inf")
    return x_lo, x_hi


def error_sweep(
    lams: list[float] | None = None,
    x_lo: float = 0.01,
    x_hi: float = 1.0,
    n: int = 128,
) -> AccuracyReport:
    """Geometric-mean absolute error of both implementations per lam.

    Zero errors are floored at the smallest positive normal before taking
    the geometric mean, otherwise a single exact hit would zero the row;
    an exact hit on inf counts as zero error too.  So one exact hit more
    or fewer among 128 samples moves a row by about 190x where the other
    errors are near 1e-17.  The x grid is exp(ln x_lo + i*(ln x_hi -
    ln x_lo)/(n - 1)) in the oracle's decimal context, rounded once: the
    same on every host, with both ends exact; n is a count (README, Arrays)
    of at least 2.  Each lam is read once, as a float, by the shape
    parameter's reader.  Rows where the naive form raises are stable-only.
    """
    x_lo, x_hi = _require_window(x_lo, x_hi)
    n = _require_count(n, "n", _MIN_SAMPLES)
    lams = default_lambda_grid() if lams is None else sorted(map(_require_number, lams))
    with decimal.localcontext(_wide(ORACLE_DPS)):
        ln_lo = Decimal(x_lo).ln()
        step = (Decimal(x_hi).ln() - ln_lo) / (n - 1)
        xs = [float((ln_lo + i * step).exp()) for i in range(n)]
    rows = []
    for lam in lams:
        truth = [oracle_transform(x, lam) for x in xs]
        e_stable = _geo_mean_error([transform(x, lam) for x in xs], truth)
        try:
            e_naive = _geo_mean_error([transform_naive(x, lam) for x in xs], truth)
        except ValueError:
            e_naive = None
        rows.append(AccuracyRow(lam=lam, err_naive=e_naive, err_stable=e_stable))
    return AccuracyReport(rows=tuple(rows), x_lo=x_lo, x_hi=x_hi, samples=n)


def _geo_mean_error(values: list[float], truth: list[float]) -> float:
    # an exact hit is tested before subtracting, since inf - inf is NaN
    logs = [math.log(TINY if v == t else max(abs(v - t), TINY)) for v, t in zip(values, truth)]
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
