"""Per-layer probes for the traced run, host facts, and the cross-check of
the probes against the re-anchor table in ROADMAP.md.

Every probe times calls into public rootpow functions (or the CLI as a
child process) from outside, on inputs drawn from the run's seed.  A
probe loop is recorded as one span whose element count is the number of
calls in it, so the span bookkeeping stays out of the per-call timings.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
import time

import numpy as np
import rootpow as rp

import workloads as wl
from common import OUT, SRC, Tracer, median, run_python

ROOFLINE_N = 1_000_000
UNITS = {
    "roofline.ns_per_elem": "ns",
    "core.transform.ns_per_call": "ns",
    "core.derivative.ns_per_call": "ns",
    "core.inverse.ns_per_call": "ns",
    "core.transform.roofline_ratio": "ratio",
    "loss.ns_per_call": "ns",
    "kernel.irls_weight.ns_per_call": "ns",
    "signed.ns_per_call": "ns",
    "bump.ns_per_call": "ns",
    "boxcox.ns_per_call": "ns",
    "distribution.pdf.ns_per_call": "ns",
    "distribution.build_table.s": "s",
    "distribution.partition_function.ms": "ms",
    "distribution.ztable_lookup.us_per_call": "us",
    "accuracy.error_sweep.s": "s",
    "accuracy.oracle.us_per_point": "us",
    "irls.iterations": "count",
    "irls.converged_ratio": "ratio",
    "irls.step.ms": "ms",
    "irls.fit.self_share": "ratio",
    "irls.fit_location_1e5.s": "s",
    "cli.process_start_s": "s",
    "cli.import_s": "s",
    **{f"cli.{c}.{k}": "s" for c in ("eval", "accuracy", "ztable", "irls") for k in ("wall_s", "inproc_s")},
    "cli.bytes_out": "bytes",
    "trace.overhead_ratio": "ratio",
}
BIG_FIT_N = 100_000


def host_facts() -> dict:
    facts = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "roofline_array_bytes": ROOFLINE_N * 8,
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
        ),
    }
    try:
        import scipy

        facts["scipy"] = scipy.__version__
    except ImportError:
        facts["scipy"] = None
    try:
        from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__

        facts["numpy_simd_baseline"] = list(__cpu_baseline__)
        facts["numpy_simd_dispatch"] = list(__cpu_dispatch__)
    except ImportError:
        facts["numpy_simd_dispatch"] = None
    try:
        llc = subprocess.run(
            ["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10
        ).stdout.strip()
        facts["llc_bytes"] = int(llc) if llc.isdigit() else None
    except (OSError, subprocess.SubprocessError):
        facts["llc_bytes"] = None
    return facts


def _per_call(tracer: Tracer, name: str, fn, calls: list, reps: int = 5, min_calls: int = 8000) -> float:
    """Median over reps of ns per call of fn over the argument tuples."""
    calls = calls * max(1, math.ceil(min_calls / len(calls)))
    now = time.perf_counter_ns
    samples = []
    for _ in range(reps):
        t0 = now()
        for args in calls:
            fn(*args)
        t1 = now()
        tracer.record(name, t0, t1, elements=len(calls))
        samples.append((t1 - t0) / len(calls))
    return median(samples)


def _timed(tracer: Tracer, name: str, call, elements: int = 1, parent=None):
    t0 = time.perf_counter_ns()
    value = call()
    t1 = time.perf_counter_ns()
    span = tracer.record(name, t0, t1, parent, elements=elements)
    return (t1 - t0) / 1e9, value, span


def _child(tracer: Tracer, name: str, argv: list[str]):
    """Run a child process under a span: (Proc, span id)."""
    t0 = time.perf_counter_ns()
    proc = run_python(argv)
    return proc, tracer.record(name, t0, time.perf_counter_ns(), ok=proc.returncode == 0)


def probe_scalar(tracer: Tracer, mix: wl.ScalarMix, rng) -> dict:
    regular: dict[str, list] = {}
    for batch in mix.batches:
        for (_, args), span, extreme in zip(batch["calls"], batch["spans"], batch["extreme"]):
            if not extreme:
                regular.setdefault(span, []).append(args)
    m = {}
    x = rng.uniform(0.0, 10.0, ROOFLINE_N)
    roof = []
    for _ in range(7):
        dt, _, _ = _timed(tracer, "numpy.expm1_log1p", lambda: np.expm1(np.log1p(x)), ROOFLINE_N)
        roof.append(dt * 1e9 / ROOFLINE_N)
    m["roofline.ns_per_elem"] = median(roof)
    for lam in wl.PDF_LAMS:  # pdf is timed with Z cached
        rp.partition_function(lam)
    for metric, span, fn in (
        ("core.transform.ns_per_call", "core.transform", rp.transform),
        ("core.derivative.ns_per_call", "core.derivative", rp.derivative),
        ("core.inverse.ns_per_call", "core.inverse", rp.inverse),
        ("loss.ns_per_call", "loss.loss", rp.loss),
        ("kernel.irls_weight.ns_per_call", "kernel.kernel", rp.irls_weight),
        ("signed.ns_per_call", "signed.signed_transform", rp.signed_transform),
        ("bump.ns_per_call", "bump.bump", rp.bump),
        ("boxcox.ns_per_call", "boxcox.boxcox", rp.boxcox),
        ("distribution.pdf.ns_per_call", "distribution.pdf", rp.pdf),
    ):
        name = "kernel.irls_weight" if fn is rp.irls_weight else span
        m[metric] = _per_call(tracer, name, fn, regular[span])
    m["core.transform.roofline_ratio"] = m["core.transform.ns_per_call"] / m["roofline.ns_per_elem"]
    return m


def probe_distribution(tracer: Tracer, rng) -> dict:
    m = {}
    rp.partition_function.cache_clear()
    dt, table, _ = _timed(tracer, "distribution.build_table", rp.build_table, rp.DEFAULT_GRID_SIZE)
    m["distribution.build_table.s"] = dt
    rp.partition_function.cache_clear()
    cold = [
        _timed(tracer, "distribution.partition_function", lambda lam=lam: rp.partition_function(lam))[0]
        for lam in rng.uniform(-1.0, 10.0, 16)
    ]
    m["distribution.partition_function.ms"] = median(cold) * 1e3
    lams = [(float(v),) for v in rng.uniform(-1.0, 20.0, 400)]
    m["distribution.ztable_lookup.us_per_call"] = (
        _per_call(tracer, "distribution.ZTable.lookup", table.lookup, lams, reps=3, min_calls=400) / 1e3
    )
    return m


def probe_accuracy(tracer: Tracer, rng) -> dict:
    dt, _, _ = _timed(tracer, "accuracy.error_sweep", rp.error_sweep)
    pos, neg = wl.shape_pools(rng, 4)
    points = [(float(x), wl.core_lam(rng, pos, neg)) for x in np.geomspace(0.01, 1.0, 1000)]
    us = _per_call(tracer, "accuracy.oracle_transform", rp.oracle_transform, points, reps=3, min_calls=1000)
    return {"accuracy.error_sweep.s": dt, "accuracy.oracle.us_per_point": us / 1e3}


def probe_irls(tracer: Tracer, fits: wl.RobustFit, rng) -> dict:
    """One traced pass over the first FIT_DEFECT_EVERY problems of the
    robust_fit pool (every lam, one defect), with the inner layers of each
    fit replayed as child spans, plus the n = 1e5 probe."""
    iterations = converged = 0
    steps, shares = [], []
    ops = fits.pass_ops()[:wl.FIT_DEFECT_EVERY]
    for op in ops:
        start, end, _, out = fits.fit(op)
        parent = tracer.record("irls.fit_location", start, end, op=op, elements=wl.FIT_N,
                               ok=isinstance(out, tuple))
        child = fits.replay_children(op, tracer, parent, op, out)
        if not isinstance(out, tuple):
            continue
        iterations += out[1]
        converged += bool(out[3])
        fit_s = (end - start) / 1e9
        step = child["irls.irls_step"]
        steps.append(step)
        shares.append((fit_s - out[1] * step - child["irls.objective_gradient"]) / fit_s)
    m = {
        "irls.iterations": iterations,
        "irls.converged_ratio": converged / len(ops),
        "irls.step.ms": median(steps) * 1e3,
        "irls.fit.self_share": median(shares),
    }
    obs = tuple(float(v) for v in wl.fit_dataset(rng, BIG_FIT_N))
    problem = rp.IrlsProblem(observations=obs, lam=-2.0)
    dt, res, parent = _timed(tracer, "irls.fit_location", lambda: rp.fit_location(problem), BIG_FIT_N)
    mu0 = float(statistics.median(obs))
    _timed(tracer, "irls.irls_step", lambda: rp.irls_step(mu0, problem), BIG_FIT_N, parent)
    _timed(tracer, "kernel.irls_weight", lambda: [rp.irls_weight(v - mu0, -2.0) for v in obs],
           BIG_FIT_N, parent)
    _timed(tracer, "irls.objective_gradient", lambda: rp.objective_gradient(res.mu, problem),
           BIG_FIT_N, parent)
    m["irls.fit_location_1e5.s"] = dt
    return m


def probe_cli(tracer: Tracer, cli: wl.CliBatch) -> dict:
    m = {}
    starts = [_child(tracer, "python.start", ["-c", "pass"])[0].wall_s for _ in range(5)]
    imports = [_child(tracer, "rootpow.import", ["-c", "import rootpow"])[0].wall_s for _ in range(3)]
    m["cli.process_start_s"] = median(starts)
    m["cli.import_s"] = median(imports) - m["cli.process_start_s"]
    by_label = {op["label"]: op["argv"] for op in cli.ops}
    commands = {
        "eval": by_label["eval-rho"],
        "accuracy": by_label["accuracy"],
        "ztable": wl.cli_argv("ztable", "--output", str(OUT / "ztable-probe.json")),
        "irls": by_label["irls"],
    }
    bytes_out = 0
    for command, argv in commands.items():
        proc, parent = _child(tracer, f"cli.{command}", argv)
        bytes_out += len(proc.stdout)
        m[f"cli.{command}.wall_s"] = proc.wall_s
        rp.partition_function.cache_clear()  # as cold as a fresh process
        s0, s1, ok, _ = wl.inproc_main(argv[2:])
        tracer.record("cli.main", s0, s1, parent, ok=ok)
        m[f"cli.{command}.inproc_s"] = (s1 - s0) / 1e9
    m["cli.bytes_out"] = bytes_out
    return m


# Rows of the ROADMAP re-anchor table that have a public entry point:
# (row, metric, low, high, scale to the table's unit, unit).
ROADMAP_ROWS = (
    ("import rootpow", "cli.import_s", 0.74, 0.74, 1.0, "s"),
    ("ZTable.lookup", "distribution.ztable_lookup.us_per_call", 120.0, 137.0, 1.0, "us"),
    ("build_table()", "distribution.build_table.s", 0.6, 0.6, 1.0, "s"),
    ("error_sweep() default grid", "accuracy.error_sweep.s", 1.7, 1.7, 1.0, "s"),
    ("scalar transform", "core.transform.ns_per_call", 1.0, 2.0, 1e-3, "us"),
    ("fit_location n=1e5 lam=-2", "irls.fit_location_1e5.s", 4.0, 4.0, 1.0, "s"),
)
AGREE = 1.25  # a row agrees when the bench value is within 25% of its range


def cross_check(metrics: dict, speed_factor: float) -> list[dict]:
    """Each row with the bench's value as measured and rescaled to the
    reference host speed; agreement is judged on the measured value."""
    rows = []
    for row, metric, lo, hi, scale, unit in ROADMAP_ROWS:
        value = metrics[metric] * scale
        rows.append({
            "row": row, "roadmap": [lo, hi], "unit": unit, "bench": value,
            "bench_at_reference_speed": value / speed_factor,
            "agrees": lo / AGREE <= value <= hi * AGREE,
        })
    return rows


def probe_all(tracer: Tracer, seed: int, cli: wl.CliBatch, fits: wl.RobustFit, mix: wl.ScalarMix) -> dict:
    rng = np.random.default_rng([seed, 4])
    metrics = {}
    metrics.update(probe_scalar(tracer, mix, rng))
    metrics.update(probe_distribution(tracer, rng))
    metrics.update(probe_accuracy(tracer, rng))
    metrics.update(probe_irls(tracer, fits, rng))
    metrics.update(probe_cli(tracer, cli))
    return metrics
