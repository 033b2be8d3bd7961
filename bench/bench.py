"""rootpow benchmark: one closed-loop client, three workloads.

    python3 bench/bench.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src``.
Workloads (see ``workloads.py``):

    cli_batch   one op = one ``python -m rootpow.cli`` process
    robust_fit  one op = IrlsProblem(2000 observations) + fit_location
    scalar_mix  one op = 1000 scalar calls across the public evaluators

``--trace 0`` measures the end-to-end metrics: set-up time (median of
several fresh processes), op latency median and tail (a fixed percentile
per workload), ops per second, failure ratio and peak RSS.  The timed
phase runs whole passes of the workload's rotation until ``--seconds``
have passed, and at least two.  In-process ops are timed on the client
thread's CPU clock, CLI ops and set-up on the wall clock (see
``workloads.op_clock_ns``).  Every timing is rescaled to a reference host
speed by a calibration kernel timed before and after each op and each
set-up process: an in-process kernel for the in-process workloads, a
fresh ``import numpy`` process for CLI ops and set-up (see
``calibrate.py``); the raw figures are printed beside them.

``--trace 1`` is a separate run that times the same ops untraced and then
traced (the ratio is the tracing overhead), runs the per-layer probes of
``layers.py`` and writes every span to ``bench/out``.

Both print a report, then one JSON line: ``{"correct", "attempted",
"failed", "metrics"}``.  Runs take a lock in ``bench/out`` so that two
workloads never run at once in one checkout.
"""

from __future__ import annotations

import argparse
import fcntl
import gc
import json
import math
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import OUT, SRC, Tracer, median, pin_threads, run_python, tail  # noqa: E402

pin_threads()

import calibrate  # noqa: E402
import numpy as np  # noqa: E402

# Whole passes of the rotation per untraced run, however long they take: a
# cli_batch pass of 12 ops takes 14-22 s, and a run of one pass has no
# sample with ten beyond it above the fastest two.
MIN_PASSES = 2
# Fresh set-up processes per untraced run; setup_s is the median of their
# rescaled times.
SETUP_REPS = 5


def _compile_sources() -> None:
    """Warm the bytecode cache the way an installed package has it."""
    proc = run_python(["-m", "compileall", "-q", str(SRC)])
    if proc.returncode != 0:
        raise RuntimeError("compiling src failed: " + proc.stderr.decode()[-500:])


def _slowdown(workload) -> float:
    return calibrate.slowdown() if workload.in_process else calibrate.child_slowdown()


def _run_ops(workload, ops, tracer=None, before=None):
    """Run ops in order, timing the workload's calibration kernel between
    them.  ``before`` is a slowdown sampled just before the first op.

    Returns per-op latency and loop-cycle seconds (op plus scoring, up to
    the calibration; in-process ops on the thread CPU clock, see
    ``workloads.op_clock_ns``), per-op slowdown factors, summed outcome counts and
    the last slowdown sample, which the next call may take as ``before``.
    An op's factor is the geometric mean of the samples just before and
    just after it: over 2400 robust_fit ops this cut the quartile spread
    of 200-op tails from 0.20 (centred median of nine samples) to 0.05.
    """
    if before is None:
        before = _slowdown(workload)
    clock = time.thread_time if workload.in_process else time.perf_counter
    latencies, cycles, factors = [], [], []
    counts = [0, 0, 0]
    for op_id, op in enumerate(ops):
        start = clock()
        dt, outcome = workload.run_op(op, tracer, op_id)
        cycles.append(clock() - start)
        after = _slowdown(workload)
        factors.append(math.sqrt(before * after))
        before = after
        latencies.append(dt)
        counts[0] += outcome.attempted
        counts[1] += outcome.failed
        counts[2] += outcome.unexpected
    return latencies, cycles, factors, counts, before


def _rescale(seconds, factors) -> np.ndarray:
    """Per-op seconds at the reference host speed (see calibrate.py)."""
    return np.asarray(seconds, dtype=float) / np.asarray(factors, dtype=float)


def _setup_times(workload) -> tuple[list[float], list[float]]:
    """Wall seconds of SETUP_REPS fresh set-up processes, and for each the
    geometric mean of the child-process slowdowns sampled just before and
    just after it.  Over 16 cli_batch set-ups this cut the quartile spread
    of single set-up times from 0.20 of their median to 0.12, and the
    medians of ten runs of five set-ups spread 0.03."""
    times, factors = [], []
    before = calibrate.child_slowdown()
    for _ in range(SETUP_REPS):
        proc = run_python(workload.setup_args())
        ok = proc.returncode == 0 and getattr(workload, "check_setup", lambda p: True)(proc)
        if not ok:
            raise RuntimeError("set-up failed: " + proc.stderr.decode()[-500:])
        after = calibrate.child_slowdown()
        times.append(proc.wall_s)
        factors.append(math.sqrt(before * after))
        before = after
    return times, factors


def untraced(workload, seconds: float) -> tuple[dict, dict, list]:
    setup, setup_speed = _setup_times(workload)
    workload.prepare()
    gc.collect()
    latencies, cycles, speed, counts = [], [], [], [0, 0, 0]
    before = _slowdown(workload)
    start = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        lat, cyc, spd, c, before = _run_ops(workload, workload.pass_ops(), before=before)
        passes += 1
        latencies += lat
        cycles += cyc
        speed += spd
        counts = [a + b for a, b in zip(counts, c)]
    elapsed = time.perf_counter() - start
    scaled = _rescale(latencies, speed)
    if workload.name == "cli_batch":
        rss = workload.maxrss_mb
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tail_s, tail_pct = tail(scaled, workload.tail_percentile)
    metrics = {
        "setup_s": median(_rescale(setup, setup_speed)),
        "op_p50_ms": median(scaled) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "ops_per_s": len(latencies) / float(np.sum(_rescale(cycles, speed))),
        "fail_ratio": counts[1] / counts[0],
        "peak_rss_mb": rss,
    }
    notes = {
        "op_samples": len(latencies),
        "passes": passes,
        "op_tail_percentile": tail_pct,
        "timed_s": elapsed,
        "setup_samples_s": setup,
        "raw_setup_s": median(setup),
        "speed_factor_median": median(speed),
        "setup_speed_factor_median": median(setup_speed),
        "raw_op_p50_ms": median(latencies) * 1e3,
        "raw_op_tail_ms": tail(latencies, workload.tail_percentile)[0] * 1e3,
        "raw_ops_per_s": len(latencies) / sum(cycles),
    }
    return metrics, notes, counts


def traced(workload, seconds: float, seed: int) -> tuple[dict, dict, list]:
    import layers
    import workloads as wl

    workload.prepare()
    gc.collect()
    # Untraced half: as many ops of the rotation as fit in seconds / 2.
    pass_ops = workload.pass_ops()
    ops, plain, plain_speed = [], [], []
    counts = [0, 0, 0]
    before = _slowdown(workload)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds / 2 or not ops:
        op = pass_ops[len(ops) % len(pass_ops)]
        lat, _, spd, c, before = _run_ops(workload, [op], before=before)
        ops.append(op)
        plain += lat
        plain_speed += spd
        counts = [a + b for a, b in zip(counts, c)]
    tracer = Tracer()
    gc.collect()
    traced_lat, _, traced_speed, c, _ = _run_ops(workload, ops, tracer)
    counts = [a + b for a, b in zip(counts, c)]
    plain_scaled = _rescale(plain, plain_speed)
    traced_scaled = _rescale(traced_lat, traced_speed)
    overhead = median(traced_scaled / plain_scaled) - 1.0

    others = {cls.name: cls(seed) for cls in (wl.CliBatch, wl.RobustFit, wl.ScalarMix)}
    others[workload.name] = workload
    probe_speed = [calibrate.slowdown() for _ in range(9)]
    metrics = layers.probe_all(tracer, seed, others["cli_batch"], others["robust_fit"],
                               others["scalar_mix"])
    probe_speed += [calibrate.slowdown() for _ in range(9)]
    speed_factor = median(probe_speed)
    metrics["trace.overhead_ratio"] = overhead
    notes = {
        "overhead_ops": len(ops),
        "untraced_p50_ms": median(plain_scaled) * 1e3,
        "traced_p50_ms": median(traced_scaled) * 1e3,
        "probe_speed_factor": speed_factor,
        "roadmap_cross_check": layers.cross_check(metrics, speed_factor),
    }
    trace_path = OUT / f"trace-{workload.name}-{seed}.json"
    trace_path.write_text(json.dumps(tracer.dump()), encoding="ascii")
    notes["trace_file"] = str(trace_path.relative_to(SRC.parent))
    return metrics, notes, counts


UNITS = {
    "setup_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "ops_per_s": "1/s",
    "fail_ratio": "ratio", "peak_rss_mb": "MB",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cli_batch", "robust_fit", "scalar_mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rootpow" / "__init__.py").is_file():
        print(f"error: no rootpow package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(parents=True, exist_ok=True)
    lock = open(OUT / ".lock", "w")  # held until the process exits
    fcntl.flock(lock, fcntl.LOCK_EX)
    _compile_sources()

    import layers
    import workloads as wl

    units = {**UNITS, **layers.UNITS}
    workload = wl.WORKLOADS[args.workload](args.seed)
    if args.trace:
        metrics, notes, counts = traced(workload, args.seconds, args.seed)
    else:
        metrics, notes, counts = untraced(workload, args.seconds)
    attempted, failed, unexpected = counts
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": layers.host_facts(), "notes": notes,
        "attempted": attempted, "failed": failed, "unexpected_failures": unexpected,
        "metrics": metrics,
    }
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1), encoding="ascii")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, value in report["host"].items():
        print(f"  host.{key}: {value}")
    for key, value in notes.items():
        if key != "roadmap_cross_check":
            print(f"  {key}: {value}")
    for row in notes.get("roadmap_cross_check", []):
        flag = "agrees" if row["agrees"] else "DISAGREES"
        print(f"  roadmap {row['row']}: table {row['roadmap']} {row['unit']}, "
              f"bench {row['bench']:.4g} {row['unit']} "
              f"({row['bench_at_reference_speed']:.4g} at reference speed) -> {flag}")
    for key, value in metrics.items():
        print(f"  {key} = {value:.6g} {units[key]}")
    print(f"  attempted {attempted}, failed {failed} (unexpected {unexpected})")
    for line in workload.unexpected[:10]:
        print(f"  unexpected failure: {line}")
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
