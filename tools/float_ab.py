"""Interleaved in-process A/B of rootpow's float calls on two source trees.

Loads the package of each tree under its own name (``rootpow_a`` and
``rootpow_b``), so both run in one process on the same inputs.  Every
public evaluator gets a fixed list of float calls spread over the seven
branches, with -0.0, +-inf and the points where a family picks its other
side (bump at |x| = 1, pdf at its support edge for lam > 1).  Each round
times each evaluator's list on both trees, the side that goes first
alternating by round, as the minimum over ``--repeats`` passes on the
thread CPU clock.  It prints, per evaluator and for the
whole batch, ns per call on each tree and the median over rounds of the
B/A time ratio with its quartiles.

Before timing it checks that the two trees give the same ``float.hex`` (or
the same exception type) on every call, and lists the calls that differ.
It still times every evaluator, over the calls that return on both trees,
so a change that moves some values on purpose gets its ratios too, and
then exits 1 if any call differed.  The timing never changes the exit
status.  Run the same tree twice for an A/A run, which shows the noise
floor of the ratios:

    python tools/float_ab.py <tree_a> <tree_b> [--rounds 30] [--repeats 5]

The check and the timing are ``compare(sides, rounds, repeats, inner)``,
which takes any two op sets (``tools/irls_ab.py`` passes one per IRLS
problem): a sample is ``inner`` passes over an op's calls, and ``main``
here only builds the float calls and prints.

``oracle_transform`` is left out: it evaluates in ``decimal``, at
milliseconds a call.  It imports no numpy itself, since every call is a
float call, and neither does a tree whose ``pdf`` takes Z from a float rule.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import statistics
import sys
import time
from pathlib import Path

INF = math.inf
# every branch: -inf, neg, -1, neg, zero, pos (two), 1, bounded pos, +inf
CORE_LAMS = [-INF, -1e20, -3.0, -1.0, -0.5, -1e-300, 0.0, 1e-20, 0.5, 1.0, 1.5, 3.0, 1e20, INF]
FRACTIONS = (-0.3, 0.0, 0.2, 0.5, 0.9, 3.0)
EDGE_XS = (-0.0, INF, -INF)
SCALES = (1.0, 2.0)
BOXCOX_LAMS = (-2.0, 0.0, 0.5, 1.0, 2.0)
WIDE_XS = (-30.0, -1.0, 0.0, 0.5, 30.0, *EDGE_XS)
# the bump is 0 from |x| = 1 on
BUMP_XS = (-1.0, -0.9, -0.3, 0.0, 0.5, math.nextafter(1.0, 0.0), 1.0, 1.2, *EDGE_XS)
SIGNED_PAIRS = ((0.5, -2.0), (1.0, -INF), (-1.0, 0.0), (3.0, 1.5))
INNER = 10  # passes over an evaluator's calls per timed sample


def load(tree: str, name: str):
    """Import ``<tree>/src/rootpow`` as the package ``name``."""
    init = Path(tree).resolve() / "src" / "rootpow" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def calls(rp) -> dict[str, tuple]:
    """Evaluator name -> (function, its argument tuples), on package rp."""
    def xs(lam):
        # -0.3 to 3, scaled for lam > 1 so that 3 lies at 0.9 of the domain bound
        top = min(1.0, 0.3 * rp.max_domain(lam))
        return [*(f * top for f in FRACTIONS), *EDGE_XS]

    def support_edges(lam, c):
        # just inside and just past the support bound, where pdf turns 0
        edge = c * rp.support_halfwidth(lam)
        return [math.nextafter(edge, 0.0), math.nextafter(edge, INF)]

    core = [(x, lam) for lam in CORE_LAMS for x in xs(lam)]
    inv = [(x, lam) for lam in CORE_LAMS for x in xs(-lam)]
    scaled = [(x * c, lam, c) for lam in CORE_LAMS for c in SCALES for x in xs(lam)]
    pdf = [args for args in scaled if args[1] >= -1.0] + [
        (x, lam, c) for lam in CORE_LAMS if lam > 1.0 for c in SCALES
        for x in support_edges(lam, c)
    ]
    boxcox = [(x, lam) for lam in BOXCOX_LAMS for x in (0.0, 0.5, 3.0)]
    return {
        "transform": (rp.transform, core),
        "inverse": (rp.inverse, inv),
        "derivative": (rp.derivative, core),
        "transform_naive": (rp.transform_naive, core),
        "loss": (rp.loss, scaled),
        "kernel": (rp.kernel, scaled),
        "irls_weight": (rp.irls_weight, scaled),
        "pdf": (rp.pdf, pdf),
        "bump": (rp.bump, [(x, lam) for lam in (1.5, 3.0, 1e20) for x in BUMP_XS]),
        "signed_transform": (rp.signed_transform, [
            (x, lp, ln) for lp, ln in SIGNED_PAIRS for x in WIDE_XS
        ]),
        "softplus": (rp.softplus, [(x,) for x in WIDE_XS]),
        "sigmoid": (rp.sigmoid, [(x,) for x in WIDE_XS]),
        "tanh": (rp.tanh, [(x,) for x in WIDE_XS]),
        "relu": (rp.relu, [(x, ln) for ln in (0.0, -0.5, -1.0) for x in WIDE_XS]),
        "boxcox": (rp.boxcox, boxcox),
        "boxcox_normalized": (rp.boxcox_normalized, boxcox),
        "transform_via_boxcox": (rp.transform_via_boxcox, core),
        "boxcox_via_transform": (rp.boxcox_via_transform, boxcox),
        "classify": (rp.classify, [(lam,) for lam in CORE_LAMS]),
        "branch_plan": (rp.branch_plan, [(lam,) for lam in CORE_LAMS]),
        "max_domain": (rp.max_domain, [(lam,) for lam in CORE_LAMS]),
        "support_halfwidth": (rp.support_halfwidth, [(lam,) for lam in CORE_LAMS if lam >= -1.0]),
    }


def _record(fn, args) -> tuple[bool, str]:
    """Whether the call returned, and its value's bits or its exception type."""
    try:
        value = fn(*args)
    except Exception as exc:  # the exception type is part of the output
        return False, type(exc).__name__
    if isinstance(value, float):
        return True, value.hex()
    if isinstance(value, tuple):  # a result record: each float field as its bits
        value = tuple(v.hex() if isinstance(v, float) else v for v in value)
    return True, repr(value)


def _sample(fn, arg_list, repeats: int, inner: int) -> int:
    best = None
    for _ in range(repeats):
        start = time.thread_time_ns()
        for _ in range(inner):
            for args in arg_list:
                fn(*args)
        elapsed = time.thread_time_ns() - start
        best = elapsed if best is None or elapsed < best else best
    return best


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(sides, rounds: int, repeats: int, inner: int):
    """Check, then time, two op sets of the same names and argument lists.

    ``sides`` is a pair of dicts, op name -> (function, its argument
    tuples), one per tree.  Returns ``(differ, timed, per, batch)``:
    ``differ`` lists each call whose record differs as ``(name, args,
    record on A, record on B)``; ``timed`` maps each op that has calls
    returning on both trees to their count; ``per`` maps it, and
    ``batch`` holds the sums over all ops, as three lists over rounds: ns
    per call on A, ns per call on B, and the B/A time ratio.
    """
    differ = []
    timed = {}
    for name, (fn_a, arg_list) in sides[0].items():
        fn_b = sides[1][name][0]
        records = [(_record(fn_a, a), _record(fn_b, a)) for a in arg_list]
        differ += [(name, a, ra[1], rb[1]) for a, (ra, rb) in zip(arg_list, records)
                   if ra != rb]
        # only the calls that return on both trees are timed: raising is not
        # the path to time
        returned = [a for a, (ra, rb) in zip(arg_list, records) if ra[0] and rb[0]]
        if returned:
            timed[name] = (fn_a, fn_b, returned)
    total = sum(len(v[2]) for v in timed.values())

    per = {name: ([], [], []) for name in timed}  # ns on A, ns on B, B/A
    batch = [], [], []
    for r in range(rounds):
        sum_a = sum_b = 0
        for name, (fn_a, fn_b, arg_list) in timed.items():
            if r % 2:
                t_b = _sample(fn_b, arg_list, repeats, inner)
                t_a = _sample(fn_a, arg_list, repeats, inner)
            else:
                t_a = _sample(fn_a, arg_list, repeats, inner)
                t_b = _sample(fn_b, arg_list, repeats, inner)
            n = inner * len(arg_list)
            per[name][0].append(t_a / n)
            per[name][1].append(t_b / n)
            per[name][2].append(t_b / t_a)
            sum_a += t_a
            sum_b += t_b
        batch[0].append(sum_a / (inner * total))
        batch[1].append(sum_b / (inner * total))
        batch[2].append(sum_b / sum_a)
    return differ, {name: len(v[2]) for name, v in timed.items()}, per, batch


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a")
    parser.add_argument("tree_b")
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    sides = [calls(load(args.tree_a, "rootpow_a")), calls(load(args.tree_b, "rootpow_b"))]
    differ, timed, per, batch = compare(sides, args.rounds, args.repeats, INNER)

    total = sum(timed.values())
    if differ:
        print(f"{len(differ)} float calls differ between the trees:",
              *(f"{name}{a}: {ra} != {rb}" for name, a, ra, rb in differ[:20]), sep="\n")
        print(f"timing {total} float calls over {len(timed)} evaluators that return on both trees")
    else:
        print(f"{total} float calls over {len(timed)} evaluators give the same bits on both trees")
    print(f"{'evaluator':<22}{'A ns/call':>11}{'B ns/call':>11}{'B/A':>8}"
          f"  [q1, q3] over {args.rounds} rounds")
    for name, (ns_a, ns_b, ratio) in [*per.items(), ("batch", batch)]:
        q1, med, q3 = _quartiles(ratio)
        print(f"{name:<22}{statistics.median(ns_a):>11.0f}{statistics.median(ns_b):>11.0f}"
              f"{med:>8.3f}  [{q1:.3f}, {q3:.3f}]")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
