"""The three workloads: inputs drawn from the seed, one op each, and the
check of every op against the closed forms in ``reference``.

Every workload runs a fixed rotation of ops (its *pass*).  Timed phases
run whole passes, so each run executes the same mix of ops and the same
share of known-defect inputs whatever the host speed.

Scoring follows the robustness contract: a correct number, a ValueError
or a one-line diagnostic with a documented exit code is a success; a
traceback, an OverflowError, a NaN or a wrong number is a failure.  Each
workload mixes in a stated share of *defect* inputs (values at the ends
of the binary64 range).  A failure on a defect input is expected at the
current code and only raises ``fail_ratio``; a failure on any other input
is unexpected and makes the run incorrect.
"""

from __future__ import annotations

import io
import json
import math
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np
import rootpow as rp
import rootpow.cli

import reference as ref
from common import OUT, Tracer, run_python


# In-process ops are timed on the client thread's CPU clock, not the wall
# clock.  On a shared host the wall time of a 2 ms scalar_mix op includes
# stalls of up to 10 ms while the thread is descheduled (the slowest ops
# of a 12 s probe took 9-14 ms of wall time but 4-6 ms of CPU time), and
# those stalls, not the package, would set a run's op_tail_ms.
op_clock_ns = time.thread_time_ns

# op_tail_ms is read at a fixed percentile per workload (``tail_percentile``),
# the highest round one that a run's samples keep ten beyond: a cli_batch
# run has 24 ops or more, a robust_fit run 200 or more, a scalar_mix run
# several thousand.  A fixed percentile keeps the metric the same quantity
# when a faster package fits more ops into a run.  Over eight 10 s
# scalar_mix runs the 99th percentile spread 0.037 of its median, the
# eleventh-slowest op (p99.6-p99.8) 0.058.


@dataclass
class Outcome:
    """Result of one op: calls attempted, failed, and failed unexpectedly."""

    attempted: int
    failed: int
    unexpected: int


def _log_uniform(rng, lo_exp: float, hi_exp: float) -> float:
    return float(10.0 ** rng.uniform(lo_exp, hi_exp))


def _signed(rng, value: float) -> float:
    return value if rng.random() < 0.5 else -value


def _lam_arg(lam: float) -> str:
    return repr(float(lam))


def shape_pools(rng, k: int) -> tuple[list[float], list[float]]:
    """k generic shapes on each side of the POS and NEG branches."""
    pos = list(rng.uniform(0.1, 0.9, k)) + list(rng.uniform(1.1, 4.0, k))
    neg = list(rng.uniform(-4.0, -1.1, k)) + list(rng.uniform(-0.9, -0.1, k))
    return [float(v) for v in pos], [float(v) for v in neg]


def core_lam(rng, pos: list[float], neg: list[float]) -> float:
    """A shape from one of the seven branches, each equally likely."""
    branch = int(rng.integers(7))
    if branch == 2:
        return pos[int(rng.integers(len(pos)))]
    if branch == 4:
        return neg[int(rng.integers(len(neg)))]
    return (math.inf, 1.0, None, 0.0, None, -1.0, -math.inf)[branch]


# --------------------------------------------------------------------------
# scalar_mix


# (module span name, public function) for every evaluator in the mix.
EVALUATORS = {
    "transform": ("core.transform", rp.transform),
    "inverse": ("core.inverse", rp.inverse),
    "derivative": ("core.derivative", rp.derivative),
    "loss": ("loss.loss", rp.loss),
    "kernel": ("kernel.kernel", rp.kernel),
    "pdf": ("distribution.pdf", rp.pdf),
    "bump": ("bump.bump", rp.bump),
    "signed_transform": ("signed.signed_transform", rp.signed_transform),
    "softplus": ("signed.softplus", rp.softplus),
    "sigmoid": ("signed.sigmoid", rp.sigmoid),
    "tanh": ("signed.tanh", rp.tanh),
    "relu": ("signed.relu", rp.relu),
    "boxcox": ("boxcox.boxcox", rp.boxcox),
    "boxcox_normalized": ("boxcox.boxcox_normalized", rp.boxcox_normalized),
}
BATCH = 1000
# 2 calls per evaluator and batch sit at the binary64 extremes: 28 of 1000.
EXTREME_PER_EVALUATOR = 2
REGULAR = {name: 69 for name in EVALUATORS}
REGULAR["transform"] += BATCH - len(EVALUATORS) * (69 + EXTREME_PER_EVALUATOR)
POOL_BATCHES = 32
PDF_LAMS = (0.0, -1.0, -0.5, math.inf)  # the shapes whose Z has a closed form

REF_FUNCS = {
    "transform": lambda x, lam: ref.transform(x, lam),
    "inverse": lambda x, lam: ref.transform(x, -lam),
    "derivative": ref.derivative,
    "loss": ref.loss,
    "kernel": ref.kernel,
    "pdf": ref.pdf,
    "bump": ref.bump,
    "signed_transform": ref.signed_transform,
    "softplus": ref.softplus,
    "sigmoid": ref.sigmoid,
    "tanh": ref.tanh,
    "relu": ref.relu,
    "boxcox": ref.boxcox,
    "boxcox_normalized": ref.boxcox_normalized,
}
# pdf goes through the quadrature normalizer, accurate to ~1e-6 relative;
# the activations are compositions whose error is absolute, not relative.
RTOL = {"pdf": 3e-6}
ATOL = {name: 1e-12 for name in ("softplus", "sigmoid", "tanh", "relu", "signed_transform")}


class ScalarMix:
    """One op is a batch of 1000 scalar calls across the public evaluators.

    lam covers all seven branches; 2.8% of calls use |x| in [1e160, 1e300]
    (x > 709.8 for softplus).  At the current code the defect calls to
    loss, kernel, pdf (OverflowError) and softplus (inf) fail: 8 per batch.
    """

    name = "scalar_mix"
    in_process = True
    tail_percentile = 99.0

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 1])
        pos, neg = self._pos, self._neg = shape_pools(rng, 4)
        self._bump_lams = [float(v) for v in rng.uniform(1.1, 6.0, 8)]
        self._bc_lams = [float(v) for v in rng.uniform(-3.0, 3.0, 8)] + [0.0]
        self._signed_lams = [1.0, 0.0, -1.0, -math.inf] + pos[:4] + neg
        self.batches = [self._batch(rng) for _ in range(POOL_BATCHES)]
        self._verdicts: dict[int, tuple[list, Outcome]] = {}
        self.unexpected: list[str] = []

    @staticmethod
    def _core_x(rng, lam: float) -> float:
        if lam > 1.0:
            return float(rng.uniform(0.0, 0.9)) * ref.pole(lam)
        return _log_uniform(rng, -4.0, 1.5)

    def _args(self, rng, name: str, extreme: bool) -> tuple:
        pick = lambda seq: seq[int(rng.integers(len(seq)))]  # noqa: E731
        big = lambda lo: _signed(rng, _log_uniform(rng, lo, 300.0))  # noqa: E731
        if name in ("transform", "derivative", "inverse"):
            lam = core_lam(rng, self._pos, self._neg)
            domain_lam = -lam if name == "inverse" else lam
            x = _log_uniform(rng, 200.0, 300.0) if extreme else self._core_x(rng, domain_lam)
            return (x, lam)
        if name in ("loss", "kernel"):
            lam, c = core_lam(rng, self._pos, self._neg), pick((0.5, 1.0, 2.0))
            if extreme:
                return (big(160.0), lam, c)
            half = 10.0 if lam <= 1.0 else math.sqrt(1.8 * ref.pole(lam))
            return (float(rng.uniform(-half, half)) * c, lam, c)
        if name == "pdf":
            c = pick((0.5, 1.0, 2.0))
            if extreme:
                return (big(160.0), pick(PDF_LAMS[:3]), c)
            return (float(rng.uniform(-4.0, 4.0)) * c, pick(PDF_LAMS), c)
        if name == "bump":
            lam = pick(self._bump_lams)
            return (big(200.0) if extreme else float(rng.uniform(-0.99, 0.99)), lam)
        if name == "signed_transform":
            lp, ln = pick(self._signed_lams), pick(self._signed_lams)
            return (big(200.0) if extreme else float(rng.uniform(-20.0, 20.0)), lp, ln)
        if name == "softplus":
            return (_log_uniform(rng, math.log10(710.0), 300.0) if extreme else float(rng.uniform(-30.0, 30.0)),)
        if name in ("sigmoid", "tanh"):
            return (big(200.0) if extreme else float(rng.uniform(-30.0, 30.0)),)
        if name == "relu":
            if extreme:
                return (big(200.0), 0.0)
            return (float(rng.uniform(-30.0, 30.0)), pick((0.0, -0.5, -1.0)))
        if name == "boxcox":
            lam = pick(self._bc_lams)
            return (_log_uniform(rng, 200.0, 300.0) if extreme else float(rng.uniform(-0.9, 30.0)), lam)
        lam = pick(self._bc_lams + [1.0])  # boxcox_normalized
        if extreme:
            return (_log_uniform(rng, 200.0, 300.0), lam)
        if lam == 1.0:
            return (float(rng.uniform(-30.0, 30.0)), lam)
        return (float(rng.uniform(-0.9 * abs(1.0 - lam), 30.0)), lam)

    def _batch(self, rng) -> dict:
        names, args, extreme = [], [], []
        for name in EVALUATORS:
            for k in range(REGULAR[name] + EXTREME_PER_EVALUATOR):
                is_extreme = k < EXTREME_PER_EVALUATOR
                names.append(name)
                args.append(self._args(rng, name, is_extreme))
                extreme.append(is_extreme)
        order = rng.permutation(len(names))
        names = [names[i] for i in order]
        args = [args[i] for i in order]
        extreme = np.array([extreme[i] for i in order])
        want = np.empty(len(names))
        rtol = np.empty(len(names))
        atol = np.empty(len(names))
        groups: dict[tuple, list[int]] = {}
        for i, (name, a) in enumerate(zip(names, args)):
            groups.setdefault((name, a[1:]), []).append(i)
        for (name, params), idx in groups.items():
            xs = np.array([args[i][0] for i in idx])
            want[idx] = REF_FUNCS[name](xs, *params)
            rtol[idx] = RTOL.get(name, 1e-9)
            atol[idx] = ATOL.get(name, 1e-300)
        calls = [(EVALUATORS[n][1], a) for n, a in zip(names, args)]
        spans = [EVALUATORS[n][0] for n in names]
        return {"calls": calls, "spans": spans, "extreme": extreme,
                "want": want, "rtol": rtol, "atol": atol}

    def setup_args(self) -> list[str]:
        lams = ", ".join(repr(v) if math.isfinite(v) else "float('inf')" for v in PDF_LAMS)
        return ["-c", f"import rootpow as rp\nfor lam in ({lams}):\n    rp.partition_function(lam)"]

    def prepare(self) -> None:
        """Fill the Z cache, then run and score every batch once untimed:
        later runs of a batch only compare against that verdict, which keeps
        scoring out of the timed phase."""
        for lam in PDF_LAMS:
            rp.partition_function(lam)
        for op in self.pass_ops():
            self.run_op(op)

    def pass_ops(self) -> list[int]:
        return list(range(len(self.batches)))

    def run_op(self, op: int, tracer: Tracer | None = None, op_id: int = 0):
        batch = self.batches[op]
        calls = batch["calls"]
        if tracer is None:
            out = []
            append = out.append
            cpu0 = op_clock_ns()
            for fn, args in calls:
                try:
                    append(fn(*args))
                except Exception as exc:  # scored below; the op keeps going
                    append(type(exc))
            cpu1 = op_clock_ns()
        else:
            out = []
            parent = tracer.new_id()
            now = time.perf_counter_ns
            cpu0 = op_clock_ns()
            start = now()
            for (fn, args), span in zip(calls, batch["spans"]):
                t0 = now()
                try:
                    out.append(fn(*args))
                    ok = True
                except Exception as exc:  # scored below; the op keeps going
                    out.append(type(exc))
                    ok = False
                tracer.record(span, t0, now(), parent, op_id, 1, ok)
            end = now()
            cpu1 = op_clock_ns()
            tracer.record("scalar_mix.batch", start, end, None, op_id, len(calls), span_id=parent)
        return (cpu1 - cpu0) / 1e9, self._score(op, out)

    def _score(self, op: int, out: list) -> Outcome:
        cached = self._verdicts.get(op)
        if cached is not None and cached[0] == out:
            return cached[1]
        batch = self.batches[op]
        extreme = batch["extreme"]
        got = np.array([v if isinstance(v, float) else math.nan for v in out])
        value_error = np.array([v is ValueError for v in out])
        ok = ref.close(got, batch["want"], batch["rtol"], batch["atol"])
        ok |= value_error & extreme
        failed = ~ok
        for i in np.flatnonzero(failed & ~extreme)[:3]:
            fn, args = batch["calls"][i]
            self.unexpected.append(f"{fn.__name__}{args} -> {out[i]!r}, want {batch['want'][i]!r}")
        outcome = Outcome(len(out), int(failed.sum()), int((failed & ~extreme).sum()))
        self._verdicts[op] = (out, outcome)
        return outcome

# --------------------------------------------------------------------------
# robust_fit

FIT_LAMS = (-math.inf, -2.0, -1.0, -0.5, 0.0)
FIT_N = 2000
# 100 datasets, not fewer: iteration counts differ between datasets, so
# a smaller pool lets the seed move op_p50_ms.
FIT_POOL = 100
# One fit in 25 carries a single observation at +/-1e300; its squared
# residual overflows at the current code.
FIT_DEFECT_EVERY = 25
FIT_DEFECT_INDEX = 22  # within each 25: a lam = -1 (Cauchy) fit


def fit_dataset(rng, n: int) -> np.ndarray:
    """90% N(0, 1), 10% outliers at +/-[10, 50]."""
    obs = rng.standard_normal(n)
    far = rng.random(n) < 0.1
    obs[far] = np.where(rng.random(far.sum()) < 0.5, -1.0, 1.0) * rng.uniform(10.0, 50.0, far.sum())
    return obs


def check_fit(obs: np.ndarray, fixpoint: float, mu, converged, grad_norm) -> bool:
    """The bounds tests/test_irls.py holds a fit to."""
    scale = 1.0 + float(np.sum(np.abs(obs)))
    return bool(
        converged
        and isinstance(mu, float)
        and abs(mu - fixpoint) <= 1e-8
        and grad_norm <= 1e-8 * scale
    )


class RobustFit:
    """One op is IrlsProblem(2000 observations) plus fit_location; lam
    rotates over FIT_LAMS.  1 fit in 25 is a defect input."""

    name = "robust_fit"
    in_process = True
    tail_percentile = 95.0

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 2])
        self.problems = []
        for k in range(FIT_POOL):
            obs = fit_dataset(rng, FIT_N)
            defect = k % FIT_DEFECT_EVERY == FIT_DEFECT_INDEX
            if defect:
                obs[int(rng.integers(FIT_N))] = _signed(rng, 1e300)
            lam = FIT_LAMS[k % len(FIT_LAMS)]
            self.problems.append({
                "obs": obs,
                "tuple": tuple(float(v) for v in obs),
                "lam": lam,
                "fixpoint": ref.irls_fixpoint(obs, lam),
                "defect": defect,
            })
        self._verdicts: dict[int, tuple] = {}
        self.unexpected: list[str] = []

    def setup_args(self) -> list[str]:
        return ["-c", "import rootpow"]

    def prepare(self) -> None:
        pass

    def pass_ops(self) -> list[int]:
        return list(range(len(self.problems)))

    def fit(self, op: int):
        """One timed fit: (start_ns, end_ns, CPU ns, result tuple or
        exception class)."""
        p = self.problems[op]
        cpu0 = op_clock_ns()
        start = time.perf_counter_ns()
        try:
            res = rp.fit_location(rp.IrlsProblem(observations=p["tuple"], lam=p["lam"]))
            out = (res.mu, res.iterations, res.grad_norm, res.converged)
        except Exception as exc:  # scored by the caller
            out = type(exc)
        end = time.perf_counter_ns()
        return start, end, op_clock_ns() - cpu0, out

    def run_op(self, op: int, tracer: Tracer | None = None, op_id: int = 0):
        start, end, cpu_ns, out = self.fit(op)
        if tracer is not None:
            parent = tracer.record("irls.fit_location", start, end, None, op_id, FIT_N,
                                   ok=isinstance(out, tuple))
            self.replay_children(op, tracer, parent, op_id, out)
        return cpu_ns / 1e9, self._score(op, out)

    def replay_children(self, op, tracer, parent, op_id, out) -> dict:
        """fit_location hides its inner layers; call them on the same inputs.

        Returns the child durations in seconds."""
        p = self.problems[op]
        problem = rp.IrlsProblem(observations=p["tuple"], lam=p["lam"])
        mu0 = float(statistics.median(p["tuple"]))
        now = time.perf_counter_ns
        times = {}
        for name, call in (
            ("irls.irls_step", lambda: rp.irls_step(mu0, problem)),
            ("kernel.irls_weight", lambda: [rp.irls_weight(x - mu0, p["lam"]) for x in p["tuple"]]),
            ("irls.objective_gradient",
             lambda: rp.objective_gradient(out[0] if isinstance(out, tuple) else mu0, problem)),
        ):
            t0 = now()
            ok = True
            try:
                call()
            except Exception:  # the defect input overflows here too
                ok = False
            t1 = now()
            tracer.record(name, t0, t1, parent, op_id, FIT_N, ok)
            times[name] = (t1 - t0) / 1e9
        return times

    def _score(self, op: int, out) -> Outcome:
        cached = self._verdicts.get(op)
        if cached is not None and cached[0] == out:
            return cached[1]
        p = self.problems[op]
        if isinstance(out, tuple):
            mu, _, grad_norm, converged = out
            good = check_fit(p["obs"], p["fixpoint"], mu, converged, grad_norm)
        else:
            good = out is ValueError and p["defect"]
        outcome = Outcome(1, int(not good), int(not good and not p["defect"]))
        if outcome.unexpected:
            self.unexpected.append(f"fit {op} at lam {p['lam']!r} -> {out!r}")
        self._verdicts[op] = (out, outcome)
        return outcome


# --------------------------------------------------------------------------
# cli_batch

GRID = 20_000
ZTABLE_GRID = 5_000


def cli_argv(*args: str) -> list[str]:
    return ["-m", "rootpow.cli", *args]


def inproc_main(argv: list[str]):
    """Run a CLI argv through rootpow.cli.main in this process with its
    output captured: (start_ns, end_ns, ok, bytes written to stdout)."""
    sink, errs = io.StringIO(), io.StringIO()
    t0 = time.perf_counter_ns()
    try:
        with redirect_stdout(sink), redirect_stderr(errs):
            ok = rootpow.cli.main(argv) == 0
    except (Exception, SystemExit):  # the defect op raises here
        ok = False
    return t0, time.perf_counter_ns(), ok, len(sink.getvalue())


class CliBatch:
    """One op is one ``python -m rootpow.cli`` process from a fixed rotation
    of 12: eight 20k-point evals, a 5k-point pdf eval through the Z table,
    an irls fit of a 2000-row CSV, an 8 x 128 accuracy sweep, and one eval
    whose comma list holds an |x| >= 1e160 (the defect op, 1 in 12)."""

    name = "cli_batch"
    in_process = False
    tail_percentile = 55.0

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 3])
        OUT.mkdir(parents=True, exist_ok=True)
        self.table_path = OUT / "ztable.json"
        pos, neg = shape_pools(rng, 2)
        pick = lambda seq: seq[int(rng.integers(len(seq)))]  # noqa: E731
        self.ops = []

        def grid_op(fn, lo, hi, want, extra=(), rtol=1e-9, atol=1e-300, count=GRID):
            argv = cli_argv("eval", "--fn", fn, *extra, f"--x={lo!r}:{hi!r}:{count}")
            xs = np.linspace(lo, hi, count)
            self.ops.append({"label": f"eval-{fn}", "argv": argv, "xs": np.sort(xs),
                             "want": want, "rtol": rtol, "atol": atol, "defect": False})

        for fn in ("f", "g"):
            lam = core_lam(rng, pos, neg)
            hi = 0.9 * ref.pole(lam) if lam > 1.0 else _log_uniform(rng, 0.0, 1.5)
            reffn = ref.transform if fn == "f" else ref.derivative
            grid_op(fn, 0.0, hi, lambda x, lam=lam, r=reffn: r(x, lam), (f"--lambda={_lam_arg(lam)}",))
        for fn in ("rho", "k"):
            lam, c = core_lam(rng, pos, neg), pick((0.5, 1.0, 2.0))
            half = c * (float(rng.uniform(5.0, 10.0)) if lam <= 1.0 else 0.99 * math.sqrt(1.8 * ref.pole(lam)))
            reffn = ref.loss if fn == "rho" else ref.kernel
            grid_op(fn, -half, half, lambda x, lam=lam, c=c, r=reffn: r(x, lam, c),
                    (f"--lambda={_lam_arg(lam)}", f"--c={c!r}"))
        lam, c = pick(PDF_LAMS), pick((0.5, 1.0, 2.0))
        grid_op("pdf", -4.0 * c, 4.0 * c, lambda x, lam=lam, c=c: ref.pdf(x, lam, c),
                (f"--lambda={_lam_arg(lam)}", f"--c={c!r}"), rtol=3e-6)
        lam = float(rng.uniform(1.1, 6.0))
        grid_op("bump", -1.2, 1.2, lambda x, lam=lam: ref.bump(x, lam), (f"--lambda={_lam_arg(lam)}",))
        half = float(rng.uniform(10.0, 30.0))
        grid_op("tanh", -half, half, ref.tanh, atol=1e-12)
        signed_lams = [1.0, 0.0, -1.0, -math.inf] + pos[:2] + neg
        lp, ln = pick(signed_lams), pick(signed_lams)
        half = float(rng.uniform(5.0, 20.0))
        grid_op("fpm", -half, half, lambda x, lp=lp, ln=ln: ref.signed_transform(x, lp, ln),
                (f"--lambda={_lam_arg(lp)}", f"--lambda-neg={_lam_arg(ln)}"), atol=1e-12)

        lam, c = pick((-0.5, 0.0, -1.0, math.inf)), pick((0.5, 1.0, 2.0))
        grid_op("pdf", -3.0 * c, 3.0 * c, lambda x, lam=lam, c=c: ref.pdf(x, lam, c),
                (f"--lambda={_lam_arg(lam)}", f"--c={c!r}", "--ztable", str(self.table_path)),
                rtol=3e-6, count=ZTABLE_GRID)
        self.ops[-1]["label"] = "eval-pdf-ztable"

        obs = fit_dataset(rng, FIT_N)
        data_path = OUT / "irls-data.csv"
        data_path.write_text("".join(f"{v!r}\n" for v in obs.tolist()), encoding="ascii")
        lam = pick(FIT_LAMS)
        self.ops.append({"label": "irls", "argv": cli_argv("irls", "--data", str(data_path),
                                                        f"--lambda={_lam_arg(lam)}"),
                         "obs": obs, "fixpoint": ref.irls_fixpoint(obs, lam), "defect": False})

        lams = sorted(float(v) for v in rng.uniform(-3.0, 3.0, 8))
        self.ops.append({"label": "accuracy", "lams": lams, "defect": False,
                         "argv": cli_argv("accuracy", "--lambdas=" + ",".join(map(repr, lams)), "--n", "128")})

        xs = [float(v) for v in rng.uniform(-10.0, 10.0, 64)]
        xs.insert(int(rng.integers(65)), _signed(rng, _log_uniform(rng, 160.0, 300.0)))
        self.ops.append({"label": "eval-rho-extreme",
                         "argv": cli_argv("eval", "--fn", "rho", "--lambda=-2", "--x=" + ",".join(map(repr, xs))),
                         "xs": np.sort(xs), "want": lambda x: ref.loss(x, -2.0), "rtol": 1e-9,
                         "atol": 1e-300, "defect": True})
        self._verdicts: dict[int, tuple] = {}
        self.unexpected: list[str] = []
        self.maxrss_mb = 0.0

    def setup_args(self) -> list[str]:
        return cli_argv("ztable", "--output", str(self.table_path))

    def check_setup(self, proc) -> bool:
        if proc.returncode != 0:
            return False
        table = json.loads(self.table_path.read_text(encoding="ascii"))
        return len(table["s_grid"]) == rp.DEFAULT_GRID_SIZE

    def prepare(self) -> None:
        if not self.table_path.exists():
            proc = run_python(self.setup_args())
            if not self.check_setup(proc):
                raise RuntimeError("building the Z table failed: " + proc.stderr.decode()[-500:])

    def pass_ops(self) -> list[int]:
        return list(range(len(self.ops)))

    def run_op(self, op: int, tracer: Tracer | None = None, op_id: int = 0):
        spec = self.ops[op]
        start = time.perf_counter_ns()
        proc = run_python(spec["argv"])
        end = time.perf_counter_ns()
        self.maxrss_mb = max(self.maxrss_mb, proc.maxrss_mb)
        outcome = self._score(op, proc)
        if tracer is not None:
            command = spec["argv"][2]
            parent = tracer.record(f"cli.{command}", start, end, None, op_id,
                                   ok=not outcome.failed)
            t0, t1, ok, _ = inproc_main(spec["argv"][2:])
            tracer.record("cli.main", t0, t1, parent, op_id, ok=ok)
            t0 = time.perf_counter_ns()
            run_python(["-c", "import rootpow"])
            tracer.record("rootpow.import", t0, time.perf_counter_ns(), parent, op_id)
        return (end - start) / 1e9, outcome

    def _score(self, op: int, proc) -> Outcome:
        key = (proc.returncode, proc.stdout, proc.stderr)
        cached = self._verdicts.get(op)
        if cached is not None and cached[0] == key:
            return cached[1]
        spec = self.ops[op]
        try:
            good = self._check(spec, proc)
        except (ValueError, KeyError, IndexError, TypeError):  # malformed output
            good = False
        outcome = Outcome(1, int(not good), int(not good and not spec["defect"]))
        if outcome.unexpected:
            err = proc.stderr.decode("utf-8", "replace").strip().splitlines()
            self.unexpected.append(f"{spec['label']} exit {proc.returncode}: {err[-1] if err else ''}")
        self._verdicts[op] = (key, outcome)
        return outcome

    @staticmethod
    def _diagnosed(proc) -> bool:
        err = proc.stderr.decode("utf-8", "replace")
        return (proc.returncode in (1, 2) and err.count("\n") == 1
                and err.startswith("error:") and "Traceback" not in err)

    def _check(self, spec: dict, proc) -> bool:
        label = spec["label"]
        if spec["defect"] and self._diagnosed(proc):
            return True
        if label == "irls":
            if proc.returncode != 0:
                return False
            res = json.loads(proc.stdout)
            return check_fit(spec["obs"], spec["fixpoint"], res["mu"], res["converged"], res["grad_norm"])
        if proc.returncode != 0 or proc.stderr:
            return False
        text = proc.stdout.decode("ascii")
        if label == "accuracy":
            lines = text.splitlines()
            if lines[0] != "lambda,err_naive,err_stable" or len(lines) != 9:
                return False
            for line, lam in zip(lines[1:], spec["lams"]):
                got_lam, naive, stable = line.split(",")
                if float(got_lam) != lam or not (0.0 <= float(stable) <= 1e-14):
                    return False
                if naive and not (0.0 <= float(naive) < math.inf):
                    return False
            return True
        if not text.startswith("x,value\n"):
            return False
        data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
        xs, values = data[:, 0], data[:, 1]
        if xs.shape != spec["xs"].shape or not np.array_equal(xs, spec["xs"]):
            return False
        return bool(np.all(ref.close(values, spec["want"](xs), spec["rtol"], spec["atol"])))


WORKLOADS = {cls.name: cls for cls in (CliBatch, RobustFit, ScalarMix)}
