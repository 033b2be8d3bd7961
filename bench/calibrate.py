"""Host-speed calibration.

The benchmark host is shared: for stretches of seconds to minutes every
process on it runs up to 2x slower, and a whole run can fall inside such
a stretch.  To keep runs comparable, the client times a fixed kernel
between ops and rescales every end-to-end timing by how much slower than
its reference time the kernel ran at that moment.  Neither kernel shares
code with rootpow, so a change to the package cannot move them.

* ``slowdown`` times in-process work.  It imitates the package's
  instruction mix (scalar float math behind a small plan cache, then a
  compensated sum) so that it slows down by about the same factor.
* ``child_slowdown`` times a fresh interpreter that imports numpy, the
  work that dominates a CLI op or a set-up process (start, unmarshal,
  module bodies, extension loading).  The in-process kernel does not
  track those: over 98 CLI ops its samples correlated 0.08 with the op
  times, the child's 0.48 (0.65 over another 247 ops), and rescaling by
  the child cut the quartile spread of 24-op medians across a 7-minute
  stretch from 0.13-0.16 to 0.03-0.04 of their median.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache

from common import run_python

# Kernel times on a quiet 2-vCPU Xeon host (Python 3.11.7, numpy 2); the
# child's is near the fastest seen there.  Only the ratio to them is used;
# they set the scale at which rescaled timings read.
REFERENCE_S = 1.8e-4
CHILD_REFERENCE_S = 0.18
CHILD_ARGS = ["-c", "import numpy"]
KERNEL_REPS = 5


@dataclass(frozen=True)
class _Plan:
    pre: float
    skip_log: bool
    mid: float
    post: float


@lru_cache(maxsize=64)
def _plan(lam: float) -> _Plan:
    if lam == 0.0:
        return _Plan(1.0, True, 1.0, 1.0)
    if lam > 0.0:
        return _Plan((1.0 - lam) / lam, False, 1.0 / (1.0 - lam), lam)
    return _Plan(-1.0 / lam, False, lam + 1.0, -lam / (lam + 1.0))


def _power(x: float, lam: float) -> float:
    x = float(x)
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    plan = _plan(lam)
    t = plan.pre * x
    if not plan.skip_log:
        t = math.log1p(max(t, -0.999))
    try:
        t = math.expm1(plan.mid * t)
    except OverflowError:
        t = math.inf
    return plan.post * t


_ARGS = [(0.001 * i, (-2.0, -0.5, 0.0, 0.5, 0.25)[i % 5]) for i in range(300)]


def slowdown() -> float:
    """How much slower than REFERENCE_S the in-process kernel runs now, on
    the thread CPU clock that times in-process ops: the median of
    KERNEL_REPS runs.  Over 2400 robust_fit ops one run per
    sample left a quartile spread of 0.08 between 200-op medians, five
    runs 0.04."""
    times = []
    for _ in range(KERNEL_REPS):
        start = time.thread_time()
        math.fsum([_power(0.5 * x * x, lam) for x, lam in _ARGS])
        times.append(time.thread_time() - start)
    return sorted(times)[KERNEL_REPS // 2] / REFERENCE_S


def child_slowdown() -> float:
    """How much slower than CHILD_REFERENCE_S a fresh ``import numpy``
    process runs now."""
    proc = run_python(CHILD_ARGS)
    if proc.returncode != 0:
        raise RuntimeError("calibration child failed: " + proc.stderr.decode()[-500:])
    return proc.wall_s / CHILD_REFERENCE_S
