"""Digests of what rootpow computes, to prove that a refactor changes no output.

Prints one ``section sha256 count`` line per section: every public
evaluator on a shape x input grid (each float call as ``float.hex`` or the
exception type, then one array call per parameter set, and in one section
``scalar.int_float64`` each x of the grid again as an ``np.float64`` and,
where integral, as an int: the kinds that reach the evaluator's float step
through ``_elementwise``, where a float goes to it directly), the per-shape
readers (the branch of every shape, and ``classify``, ``branch_plan`` and
``max_domain`` at each spelling of lam they accept), log Z at every node
of the default ``build_table``, the RobustFit fits of the bench's seeds
101-103 with their summed losses, and the exit code, stdout and stderr of
``rootpow.cli.main`` for every ``eval --fn``, for ``eval --fn pdf
--ztable`` and for the default ``accuracy``.  Run it against two source
trees and diff the outputs:

    PYTHONPATH=<parent>/src python tools/parity.py > parent.txt
    PYTHONPATH=<change>/src python tools/parity.py > change.txt
    diff parent.txt change.txt

It needs numpy only, and imports ``bench/workloads.py`` (which it does not
change) for the RobustFit problems.  The digests are byte-exact per host:
numpy's SIMD ufuncs and libm may round differently elsewhere.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import rootpow as rp
from rootpow.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import RobustFit  # noqa: E402

INF = math.inf
MAX = sys.float_info.max
TINY = sys.float_info.min

# Every branch and the edges of its window.  For lam > 1, pre_scale *
# max_domain rounds to -1 + k * 2**-53 with k = 0 at 5.5, 1 at 2, 2 at 1.5
# and 3 at 1916.7266395961983, so every floor of log1p's argument is met.
SHAPES = [
    -INF, -MAX, -1e300, -1e17, -4.6e15, -4.5e15, -1e6, -5.5, -2.0, -1.5,
    math.nextafter(-1.0, -INF), -1.0, math.nextafter(-1.0, 0.0), -0.5, -1e-8, -TINY, -5e-324,
    -0.0, 0.0, 5e-324, TINY, 1e-300, 1e-8, 0.3, 0.5, 1.0 - 2.0**-52, math.nextafter(1.0, 0.0),
    1.0, 1.0 + 2.0**-52, 1.0 + 1e-8, 1.1, 1.5, 2.0, 3.0, 5.5, 1916.7266395961983, 1e6,
    4.5e15, 4.6e15, 1e17, 1e300, MAX, INF,
]
_MAGNITUDES = [
    0.0, 5e-324, TINY / 2.0, TINY, 1e-300, 1e-17, 1e-8, 1e-4, 0.1, 0.5, 0.9,
    math.nextafter(1.0, 0.0), 1.0, 1.2, 1.5, 2.0, 3.0, 10.0, 100.0, 1e6, 2.0**53, 1e16,
    1e100, 1e154, 1.4e154, 1e200, 1e300, MAX, INF,
]
XS = sorted([*_MAGNITUDES, *(-v for v in _MAGNITUDES), math.nextafter(-1.0, 0.0)])
SCALES = (0.5, 1.0, 2.0)
NEG_SHAPES = (-INF, -2.0, 0.0, 0.5, 1.5, INF)


def _fmt(value) -> str:
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.ndarray):
        return f"{value.dtype}{value.shape}:{hashlib.sha256(value.tobytes()).hexdigest()}"
    if isinstance(value, tuple):
        return "(" + ",".join(map(_fmt, value)) + ")"
    return repr(value)


def _call(fn, *args) -> str:
    try:
        return _fmt(fn(*args))
    except Exception as exc:  # the exception type is part of the output
        return type(exc).__name__


class Digest:
    def __init__(self) -> None:
        self.sections: dict[str, tuple] = {}

    def add(self, section: str, record: str) -> None:
        h, n = self.sections.get(section) or (hashlib.sha256(), 0)
        h.update(record.encode() + b"\n")
        self.sections[section] = (h, n + 1)

    def print(self) -> None:
        for section, (h, n) in self.sections.items():
            print(f"{section} {h.hexdigest()} {n}")


def _other_kinds(x: float):
    # x as the scalar kinds other than float: an np.float64, and an int
    # where x is integral
    yield np.float64(x)
    if x.is_integer():
        yield int(x)


def _inputs(lam: float) -> list[float]:
    # the clamp edge and past it, where lam > 1 bounds the domain
    if not lam > 1.0:
        return XS
    b = rp.max_domain(lam)
    return XS + [math.nextafter(b, -INF), b, math.nextafter(b, INF), 2.0 * b]


_SHAPED = [(lam,) for lam in SHAPES]
_SCALED = [(lam, c) for lam in SHAPES for c in SCALES]
# Every public evaluator of x and its parameter sets, but oracle_transform,
# which evaluates in decimal at milliseconds a call.
EVALUATORS = [
    (rp.transform, _SHAPED), (rp.inverse, _SHAPED), (rp.derivative, _SHAPED),
    (rp.transform_naive, _SHAPED), (rp.loss, _SCALED), (rp.kernel, _SCALED),
    (rp.irls_weight, _SCALED), (rp.pdf, _SCALED),
    (rp.signed_transform, [(lam, neg) for lam in SHAPES for neg in NEG_SHAPES]),
    (rp.softplus, [()]), (rp.sigmoid, [()]), (rp.tanh, [()]), (rp.relu, _SHAPED),
    (rp.bump, _SHAPED), (rp.boxcox, _SHAPED), (rp.boxcox_normalized, _SHAPED),
    (rp.transform_via_boxcox, _SHAPED), (rp.boxcox_via_transform, _SHAPED),
]


def evaluators(digest: Digest) -> None:
    for fn, params in EVALUATORS:
        for args in params:
            xs = _inputs(args[0]) if args else XS
            ok = []
            for x in xs:
                try:
                    record = _fmt(fn(x, *args))
                    ok.append(x)
                except Exception as exc:
                    record = type(exc).__name__
                digest.add(f"float.{fn.__name__}", record)
                for other in _other_kinds(x):
                    record = f"{fn.__name__} {type(other).__name__} {_call(fn, other, *args)}"
                    digest.add("scalar.int_float64", record)
            if fn is not rp.transform_naive:  # it takes floats only
                digest.add(f"array.{fn.__name__}", _call(fn, np.array(ok), *args))
    for fn in (rp.branch_plan, rp.max_domain, rp.support_halfwidth, rp.partition_function):
        for lam in SHAPES:
            digest.add(f"shape.{fn.__name__}", _call(fn, lam))
    for lam in SHAPES:
        digest.add("shape.classify", _call(lambda lam: rp.classify(lam).name, lam))
    # the lam spellings transform accepts, a 0-d array, a numpy scalar and an int, and a str,
    # which it refuses
    for fn in (rp.classify, rp.branch_plan, rp.max_domain):
        for lam in (np.array(2.0), np.float64(2.0), 2, "2"):
            record = f"{fn.__name__} {type(lam).__name__} {_call(fn, lam)}"
            digest.add("shape.lam_spellings", record)
    small = rp.build_table(64)
    for lam in SHAPES:
        digest.add("shape.ZTable.lookup", _call(small.lookup, lam))
    # every node of the default table, each one quadrature
    for log_z in rp.build_table().log_z:
        digest.add("distribution.build_table", log_z.hex())


def fits(digest: Digest) -> None:
    for seed in (101, 102, 103):
        for p in RobustFit(seed).problems:
            problem = rp.IrlsProblem(observations=p["tuple"], lam=p["lam"])
            try:
                res = rp.fit_location(problem)
            except Exception as exc:
                digest.add("irls.fit_location", type(exc).__name__)
                continue
            fields = (res.mu, res.iterations, res.grad_norm, res.converged)
            digest.add("irls.fit_location", _fmt(fields))
            for mu in (float(np.median(p["obs"])), res.mu):
                digest.add("irls.loss_objective", _call(rp.loss_objective, mu, problem))


def _cli(digest: Digest, section: str, argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    digest.add(section, json.dumps([argv, code, out.getvalue(), err.getvalue()]))


def cli(digest: Digest) -> None:
    # runs in a scratch working directory, so file names print the same
    lams = ["-inf", "-2", "-1", "-0.5", "0", "0.5", "1", "1.5", "5.5", "inf"]
    grids = ["-3:3:61", "0,5e-324,1e-300,1e154,1e300,1.7976931348623157e308,inf,-1e300,-inf"]
    # --fn -> its flag sets; "{}" takes each of lams
    lam = ["--lambda={}"]
    per_fn = {
        "f": [lam], "finv": [lam], "g": [lam], "bump": [lam], "h": [lam], "hhat": [lam],
        "rho": [lam, lam + ["--c=2"]], "k": [lam, lam + ["--c=0.5"]],
        "pdf": [lam, lam + ["--c=2"]], "fpm": [lam + ["--lambda-neg=-2"], lam + ["--lambda-neg=inf"]],
        "relu": [["--lambda-neg={}"]],
        "softplus": [[]], "sigmoid": [[]], "tanh": [[]],
    }
    for fn, flag_sets in per_fn.items():
        for flags in flag_sets:
            for value in lams if flags else [None]:
                for x in grids:
                    argv = ["eval", f"--fn={fn}", *(f.format(value) for f in flags), f"--x={x}"]
                    _cli(digest, f"cli.eval.{fn}", argv)
    # past two 4096-row chunks, so a lost tail chunk or a second header shows
    _cli(digest, "cli.eval.rho_chunks", ["eval", "--fn=rho", "--lambda=-2", "--x=-1e3:1e3:8193"])
    rp.build_table(64).save("ztable.json")
    for value in lams:
        argv = ["eval", "--fn=pdf", f"--lambda={value}", "--ztable=ztable.json", f"--x={grids[0]}"]
        _cli(digest, "cli.eval.pdf_ztable", argv)
    # log Z past what exp keeps finite, and a path open rejects
    for log_z in (1000.0, -1000.0):
        name = f"ztable{log_z:+.0f}.json"
        Path(name).write_text(json.dumps({
            "s_grid": np.linspace(-0.5, 1.0, 16).tolist(), "log_z": [log_z] * 16,
            "num_points": 64, "precision": "binary64",
        }))
        argv = ["eval", "--fn=pdf", "--lambda=0.3", "--x=0.5", f"--ztable={name}"]
        _cli(digest, "cli.eval.pdf_ztable_log_z_1000", argv)
    argv = ["eval", "--fn=pdf", "--lambda=0", "--x=1", "--ztable=a\0b"]
    _cli(digest, "cli.eval.pdf_ztable_nul_path", argv)
    _cli(digest, "cli.accuracy", ["accuracy"])


if __name__ == "__main__":
    digest = Digest()
    evaluators(digest)
    fits(digest)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        cli(digest)
    digest.print()
