"""Interleaved in-process A/B of rootpow's IRLS fits on two source trees.

Loads the package of each tree under its own name (``rootpow_a`` and
``rootpow_b``), so both run in one process on the same inputs: the
bench's RobustFit pools of ``--seeds`` (100 problems of 2000 observations
each, lam rotating over -inf, -2, -1, -0.5 and 0, one problem in 25 with
an observation at +-1e300), built by this checkout's
``bench/workloads.py``.  One op is what the bench's robust_fit workload
times: ``IrlsProblem(observations, lam)`` from a tuple, then
``fit_location``.

It checks and times on ``float_ab.compare``, with one op set per problem.
Before timing it checks that the two trees give the same result on every
problem, ``(mu, iterations, grad_norm, converged)`` with each float as
``float.hex``, or the same exception type, and lists the problems that
differ.  Each round then times every problem that returns on both trees,
on each tree, the side that goes first alternating by round, as the
minimum over ``--repeats`` ops on the thread CPU clock, and takes the B/A
ratio of the summed times.  It prints us per op on each tree and the
median over rounds of the B/A ratio with its quartiles, and each tree's
95th percentile over the problems of their median us per op (the
percentile at which the bench reads robust_fit's op_tail_ms), then exits
1 if any result differed.  When every fit returns on both trees it prints
each tree's mean and greatest ``iterations`` per lam; when fits differ
it also prints, so that a change that moves fits on purpose can quote its
move, the largest |mu_B - mu_A| / (1 + |mu_A|), and on each tree the
summed ``iterations`` and the worst ``grad_norm / (1 + sum |x|)``.  The
timing never changes the exit status.  Run the same tree twice for an
A/A run, which shows the noise floor of the ratio:

    python tools/irls_ab.py <tree_a> <tree_b> [--seeds 101 102 103] [--rounds 20] [--repeats 3]
        [--stress-size 12000]

Before the timing lines it also fits a stress pool on both trees, to
measure the paths the bench's pools never take (flat minima, h <= 0
passes) the same way on every run.  ``stress_pool`` draws it from a fixed
seeded generator: ``--stress-size`` fits of n 2-300 normal observations
with 0 to n/4 of them replaced by uniform outliers on +-30, lam in
{-inf, -1e3, -10, -2, -1, -0.5, -0.2, -1e-3} and c 0.3-3; a third as
many flat-prone fits of n 3-8 observations uniform on +-15, lam in
{-inf, -10, -2, -1, -0.5, -0.2}, c = 1; and the named hard cases of
``tests/test_irls.py``.  For each tree it prints the fits that did not
converge and the summed ``iterations``; between the trees, the largest
|mu_B - mu_A| / (1 + |mu_A|), how many fits move by more than 1e-6 by
that measure, and each fit whose final loss (tree A's ``loss_objective``
at each tree's mu) exceeds the other tree's by more than 1e-12 relative.
The pool is reported, never gated: the exit status stays the bench pools'
bit check.  ``--stress-size 0`` leaves only the named cases.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import statistics
import sys
from pathlib import Path

import numpy as np
from float_ab import _quartiles, compare, load

_ROOT = Path(__file__).resolve().parent.parent


def pools(seeds) -> list[tuple[tuple, float]]:
    """(observations as a tuple, lam) of every RobustFit problem of the seeds."""
    # the bench's workloads import rootpow: this checkout's, only to build data
    sys.path[:0] = [str(_ROOT / "src"), str(_ROOT / "bench")]
    from workloads import RobustFit

    return [(p["tuple"], p["lam"]) for seed in seeds for p in RobustFit(seed).problems]


# the named hard cases of tests/test_irls.py: (name, observations, lam, c)
_SCALE = 2.0 ** 1000
NAMED = (
    ("flat minimum (-2, -1.6, 1.2, 5.4)", (-2.0, -1.6, 1.2, 5.4), -0.5, 1.0),
    ("flat minimum (-10, -9, 10, 12)", (-10.0, -9.0, 10.0, 12.0), -0.5, 1.0),
    ("quartic minimum", (4.8, 22.4, 10.4, -24.3, -14.6, -16.8, 10.0, -7.3, -9.3), -math.inf, 1.0),
    ("narrow basin", (-34.0, -11.8, -11.8, 20.4, 15.4, 10.1), -5.0, 1.0),
    ("step past the data", (2.5, 2.5, -1.8, -0.2), -math.inf, 1.0),
    ("1e300 observation", (-0.5, 0.25, 0.0, 0.5, -0.25, 1e300), -1.0, 1.0),
    *((f"2**1000 scale (lam = {lam!r})", tuple(v * _SCALE for v in (-2.0, -1.6, 1.2, 5.4)),
       lam, _SCALE) for lam in (-0.5, -1.0, -2.0, -math.inf)),
)
STRESS_SEED = 16
_DRAWN_LAMS = (-math.inf, -1e3, -10.0, -2.0, -1.0, -0.5, -0.2, -1e-3)
_FLAT_LAMS = (-math.inf, -10.0, -2.0, -1.0, -0.5, -0.2)


def stress_pool(seed: int, size: int) -> list[tuple[str, tuple, float, float]]:
    """(name, observations, lam, c) of the stress pool (module docstring):
    ``size`` drawn fits, ``size // 3`` flat-prone ones, then NAMED."""
    rng = np.random.default_rng(seed)
    pool = []
    for k in range(size):
        n = int(rng.integers(2, 301))
        lam = _DRAWN_LAMS[int(rng.integers(len(_DRAWN_LAMS)))]
        c = float(rng.uniform(0.3, 3.0))
        obs = rng.standard_normal(n)
        far = rng.permutation(n)[:int(rng.integers(0, n // 4 + 1))]
        obs[far] = rng.uniform(-30.0, 30.0, far.size)
        name = f"drawn {k} (n = {n}, lam = {lam!r}, c = {c:.3g})"
        pool.append((name, tuple(obs.tolist()), lam, c))
    for k in range(size // 3):
        n = int(rng.integers(3, 9))
        lam = _FLAT_LAMS[int(rng.integers(len(_FLAT_LAMS)))]
        obs = rng.uniform(-15.0, 15.0, n)
        pool.append((f"flat-prone {k} (n = {n}, lam = {lam!r})", tuple(obs.tolist()), lam, 1.0))
    return pool + list(NAMED)


def pool_hash(pool) -> str:
    """sha256 over every fit's name, observations' bits, lam and c."""
    digest = hashlib.sha256()
    for name, obs, lam, c in pool:
        digest.update(repr((name, [v.hex() for v in obs], lam.hex(), c.hex())).encode())
    return digest.hexdigest()


def stress_report(packages, pool) -> list[str]:
    """The stress pool's lines (module docstring)."""
    fits = [[rp.fit_location(rp.IrlsProblem(obs, lam, c)) for _, obs, lam, c in pool]
            for rp in packages]
    lines = [f"stress pool: {len(pool)} fits, data sha256 {pool_hash(pool)[:16]}"]
    for side, results in zip("AB", fits):
        stuck = [name for (name, *_), r in zip(pool, results) if not r.converged]
        lines.append(f"{side} stress: {len(stuck)} unconverged, "
                     f"{sum(r.iterations for r in results)} iterations in all")
        lines += [f"  {side} unconverged: {name}" for name in stuck]
    mus = [[r.mu for r in results] for results in fits]
    moved = sum(abs(b - a) > 1e-6 * (1.0 + abs(a)) for a, b in zip(*mus))
    lines.append(f"stress largest |mu_B - mu_A| / (1 + |mu_A|): {largest_move(*mus):.3g}, "
                 f"{moved} fits past 1e-6")
    loss = packages[0].loss_objective
    worse = []
    for (name, obs, lam, c), mu_a, mu_b in zip(pool, *mus):
        problem = packages[0].IrlsProblem(obs, lam, c)
        la, lb = loss(mu_a, problem), loss(mu_b, problem)
        if max(la, lb) > min(la, lb) * (1.0 + 1e-12):
            worse.append(f"  {'B' if lb > la else 'A'} higher: {name}: A mu {mu_a!r} loss {la!r}, "
                         f"B mu {mu_b!r} loss {lb!r}")
    lines.append(f"stress fits whose final loss exceeds the other tree's by more than "
                 f"1e-12 relative: {len(worse)}")
    return lines + worse


def _op(rp):
    return lambda observations, lam: rp.fit_location(rp.IrlsProblem(observations, lam))


def fit_summary(rp, problems) -> dict:
    """One tree's fits of the problems: each mu, the mean and the greatest
    ``iterations`` per lam, their sum, and the worst
    ``grad_norm / (1 + sum |x|)``."""
    op, mus, passes, worst = _op(rp), [], {}, 0.0
    for obs, lam in problems:
        result = op(obs, lam)
        mus.append(result.mu)
        passes.setdefault(repr(lam), []).append(result.iterations)
        worst = max(worst, result.grad_norm / (1.0 + math.fsum(map(abs, obs))))
    return {
        "mu": mus,
        "passes": {lam: {"mean": statistics.mean(n), "max": max(n)} for lam, n in passes.items()},
        "iterations": sum(sum(n) for n in passes.values()),
        "worst_grad_ratio": worst,
    }


def p95_op(rounds_per_op) -> float:
    """The 95th percentile over ops of each op's median over rounds."""
    medians = [statistics.median(times) for times in rounds_per_op]
    return statistics.quantiles(medians, n=20)[-1] if len(medians) > 1 else medians[0]


def largest_move(mus_a, mus_b) -> float:
    """The largest |mu_B - mu_A| / (1 + |mu_A|)."""
    return max(abs(b - a) / (1.0 + abs(a)) for a, b in zip(mus_a, mus_b))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a")
    parser.add_argument("tree_b")
    parser.add_argument("--seeds", type=int, nargs="+", default=[101, 102, 103])
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--stress-size", type=int, default=12000)
    args = parser.parse_args(argv)
    packages = [load(args.tree_a, "rootpow_a"), load(args.tree_b, "rootpow_b")]
    ops = [_op(rp) for rp in packages]
    problems = pools(args.seeds)
    # one op set per problem: each fit's time is its own minimum over repeats
    sides = [{f"problem {k} (lam = {lam!r})": (op, [(obs, lam)])
              for k, (obs, lam) in enumerate(problems)} for op in ops]
    differ, timed, per, batch = compare(sides, args.rounds, args.repeats, inner=1)

    # every fit returns on both trees
    summaries = [fit_summary(rp, problems) for rp in packages] if len(timed) == len(problems) else []
    if differ:
        print(f"{len(differ)} of {len(problems)} fits differ between the trees:",
              *(f"{name}: {ra} != {rb}" for name, _, ra, rb in differ[:20]), sep="\n")
        if summaries:
            a, b = summaries
            print(f"largest |mu_B - mu_A| / (1 + |mu_A|): {largest_move(a['mu'], b['mu']):.3g}")
            for side, summary in zip("AB", summaries):
                print(f"{side}: {summary['iterations']} iterations in all, worst grad_norm / "
                      f"(1 + sum |x|) {summary['worst_grad_ratio']:.3g}")
        print(f"timing the {len(timed)} fits that return on both trees")
    else:
        print(f"{len(problems)} fits give the same results on both trees")
    for side, summary in zip("AB", summaries):
        print(f"{side} iterations per lam, mean/max: " + ", ".join(
            f"{lam} {p['mean']:.2f}/{p['max']}" for lam, p in summary["passes"].items()))
    print(*stress_report(packages, stress_pool(STRESS_SEED, args.stress_size)), sep="\n")
    p95 = [p95_op(times[k] for times in per.values()) / 1e3 for k in (0, 1)]
    print(f"p95 over the fits: A {p95[0]:.1f} us/op, B {p95[1]:.1f} us/op")
    q1, med, q3 = _quartiles(batch[2])
    print(f"A {statistics.median(batch[0]) / 1e3:.1f} us/op, B "
          f"{statistics.median(batch[1]) / 1e3:.1f} us/op, B/A {med:.3f} [{q1:.3f}, {q3:.3f}] "
          f"over {args.rounds} rounds")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
