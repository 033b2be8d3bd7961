"""Paths, the child-process runner, span recording and small statistics
shared by the workloads and the layer probes."""

from __future__ import annotations

import math
import os
import select
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

# One thread everywhere: the host has two cores and the load is a single
# closed-loop client, so a BLAS or OpenMP pool would only add noise.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_threads() -> None:
    """Pin thread pools in this process and, through the environment, in
    every child.  Must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Proc:
    """Outcome of one child process."""

    returncode: int
    wall_s: float
    maxrss_mb: float
    stdout: bytes
    stderr: bytes


def run_python(args: list[str], timeout: float = 150.0) -> Proc:
    """Run ``python <args>`` with ``src`` on the path and wait for it.

    Output goes to files, not pipes, so a child never blocks on a full pipe
    and the parent needs no reader threads.  ``wait4`` gives the child's own
    peak RSS.  A child still running after ``timeout`` is killed; either way
    it is reaped before this returns.
    """
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    out_path, err_path = tmp / "child.out", tmp / "child.err"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(
        sys.executable, [sys.executable, *args], child_env(), file_actions=actions
    )
    try:
        pidfd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], timeout)
        finally:
            os.close(pidfd)
        if not ready:
            os.kill(pid, signal.SIGKILL)
    finally:
        _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return Proc(
        returncode=os.waitstatus_to_exitcode(status),
        wall_s=wall,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
    )


def median(values) -> float:
    return float(statistics.median(values))


def tail(values, percentile: float) -> tuple[float, float]:
    """The nearest-rank ``percentile`` of values, as (value, percentile),
    moved down to the highest rank with at least ten samples beyond it
    when a run has too few samples for it.  With ten or fewer samples it
    is the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    k = min(math.ceil(percentile / 100.0 * n), n - 10) if n > 10 else n
    return ordered[k - 1], 100.0 * k / n


@dataclass
class Tracer:
    """In-memory spans plus per-name call/element/time totals.

    Full span records are kept up to ``cap``; beyond it only the totals
    grow, so a long traced run stays small in memory.
    """

    cap: int = 50_000
    spans: list = field(default_factory=list)
    totals: dict = field(default_factory=dict)
    dropped: int = 0
    _next: int = 1

    def record(
        self, name, start_ns, end_ns, parent=None, op=None, elements=1, ok=True, span_id=None
    ):
        if span_id is None:
            span_id = self.new_id()
        tot = self.totals.get(name)
        if tot is None:
            tot = self.totals[name] = [0, 0, 0]
        tot[0] += 1
        tot[1] += elements
        tot[2] += end_ns - start_ns
        if len(self.spans) < self.cap:
            self.spans.append((span_id, name, start_ns, end_ns, parent, op, elements, ok))
        else:
            self.dropped += 1
        return span_id

    def new_id(self) -> int:
        """Reserve an id for a parent span recorded after its children."""
        span_id = self._next
        self._next += 1
        return span_id

    def dump(self) -> dict:
        keys = ("id", "name", "start_ns", "end_ns", "parent", "op", "elements", "ok")
        return {
            "spans": [dict(zip(keys, s)) for s in self.spans],
            "dropped_spans": self.dropped,
            "counts": {
                name: {"calls": c, "elements": e, "total_ns": t}
                for name, (c, e, t) in sorted(self.totals.items())
            },
        }
