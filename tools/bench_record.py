"""Record a tree's benchmark, against a parent tree when one is given, as
one JSON file: the ``BENCH_<pr>.json`` a change that claims speed commits.

    python tools/bench_record.py <tree> [--parent <tree>] > BENCH_<pr>.json

Each tree's ``bench/bench.py`` runs as it is, in a copy of the tree's
``src`` and ``bench`` under a temporary directory, so neither checkout gets
a ``bench/out``.  Pair k of the 10 runs every workload for 20 s at seed
7301 + k on both trees, the parent first in even pairs and the change
first in odd ones; without ``--parent`` only the tree runs.  The IRLS fits
then run through ``tools/irls_ab.py``'s engine on the bench's RobustFit
pools of seeds 101-103, over 20 rounds, the tree against the parent;
without ``--parent`` the tree stands in for it, which makes the IRLS rows
an A/A run.  Progress goes to stderr, the record to stdout.

The record is one object:

    schema      1
    tree, parent        {"sha256", "commit", "dirty"}; sha256 is over the
                sorted relative paths and bytes of the copied src and bench
                files, the code measured; commit is HEAD and dirty whether
                git sees src or bench changed (both null outside a git
                checkout); parent is null without --parent
    host        {"python", "numpy", "machine", "cpu", "nproc"}
    bench       {"seconds", "pairs", "seeds": [...], "workloads": {name: {
                    "correct": {"tree": [bool per pair], "parent": [...]},
                    metric: {"unit", "better",
                             "tree": {"median", "q1", "q3", "runs": [...]},
                             "parent": {...} or null,
                             "wins": pairs where the tree is better, or null}}}}
    irls        {"seeds": [101, 102, 103], "rounds",
                 "us_per_fit": {"tree", "parent"},
                 "ratio": {"median", "q1", "q3"} of tree / parent time,
                 "fits_differ": count of fits whose result bits differ,
                 "largest_move": max |mu_tree - mu_parent| / (1 + |mu_parent|),
                 "tree", "parent": {"passes": {lam: {"mean", "max"}},
                                    "iterations", "worst_grad_ratio"}}
    lines       {"tree", "parent": {"src/rootpow/<m>.py" or "tools/<t>.py": lines, "total"}}

A metric's ``better`` and ``unit`` come from the tree's ``BENCHMARK.json``
(``end_to_end``); its quartiles are ``statistics.quantiles(n=4)`` of the
runs.  ``us_per_fit`` is the median over rounds of a construct+fit, each
fit timed as its minimum over repeats on the thread CPU clock.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import irls_ab
from float_ab import _quartiles, compare, load

WORKLOADS = ("cli_batch", "robust_fit", "scalar_mix")
PAIRS, SECONDS, SEED = 10, 20.0, 7301
IRLS_SEEDS, IRLS_ROUNDS = (101, 102, 103), 20


def _copy(tree: Path, into: Path) -> Path:
    """The tree's ``src`` and ``bench`` under ``into``, without build output."""
    skip = shutil.ignore_patterns("__pycache__", "out")
    for part in ("src", "bench"):
        shutil.copytree(tree / part, into / part, ignore=skip)
    return into


def _bench(copy: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last line of one ``bench/bench.py`` run in the copy, as a dict."""
    out = subprocess.run(
        [sys.executable, "bench/bench.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=copy, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def _stats(runs: list[float]) -> dict:
    q1, med, q3 = _quartiles(runs)
    return {"median": med, "q1": q1, "q3": q3, "runs": runs}


def _tree_facts(tree: Path, copy: Path) -> dict:
    def git(*args):
        done = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    digest = hashlib.sha256()
    for path in sorted(p for p in copy.rglob("*") if p.is_file()):
        digest.update(path.relative_to(copy).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    commit = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--", "src", "bench")) if commit else None
    return {"sha256": digest.hexdigest(), "commit": commit, "dirty": dirty}


def _lines(tree: Path) -> dict:
    files = sorted((tree / "src" / "rootpow").glob("*.py")) + sorted((tree / "tools").glob("*.py"))
    lines = {str(p.relative_to(tree)): len(p.read_text(encoding="utf-8").splitlines())
             for p in files}
    return {**lines, "total": sum(lines.values())}


def _host() -> dict:
    import numpy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine(), "cpu": cpu, "nproc": os.cpu_count()}


def record_bench(tree: Path, parent: Path | None, workloads=WORKLOADS, pairs: int = PAIRS,
                 seconds: float = SECONDS, seed: int = SEED) -> tuple[dict, dict]:
    """The ``bench`` entry of the record, and the ``tree`` and ``parent``
    entries of the copies it ran."""
    end_to_end = json.loads((tree / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    trees = {"tree": tree, "parent": parent} if parent else {"tree": tree}
    runs = {w: {side: [] for side in trees} for w in workloads}
    with tempfile.TemporaryDirectory(prefix="bench_record-") as tmp:
        copies = {side: _copy(path, Path(tmp) / side) for side, path in trees.items()}
        facts = {side: _tree_facts(trees[side], copy) for side, copy in copies.items()}
        sides = tuple(trees)
        for k in range(pairs):
            order = sides if k % 2 else sides[::-1]
            for workload in workloads:
                for side in order:
                    result = _bench(copies[side], workload, seed + k, seconds)
                    runs[workload][side].append(result)
                    print(f"pair {k} {workload} {side}: correct {result['correct']}, op_p50 "
                          f"{result['metrics']['op_p50_ms']['value']:.4g} ms", file=sys.stderr)
    table = {}
    for workload, by_side in runs.items():
        entry = {"correct": {side: [r["correct"] for r in rs] for side, rs in by_side.items()}}
        for metric in end_to_end:
            name = metric["name"]
            values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in by_side.items()}
            sign = 1.0 if metric["better"] == "lower" else -1.0
            entry[name] = {
                "unit": metric["unit"], "better": metric["better"],
                "tree": _stats(values["tree"]),
                "parent": _stats(values["parent"]) if parent else None,
                "wins": sum(sign * (t - p) < 0.0 for t, p in zip(values["tree"], values["parent"]))
                if parent else None,
            }
        table[workload] = entry
    bench = {"seconds": seconds, "pairs": pairs, "seeds": [seed + k for k in range(pairs)],
             "workloads": table}
    return bench, facts


def record_irls(tree: Path, parent: Path | None, rounds: int = IRLS_ROUNDS) -> dict:
    packages = {"tree": load(str(tree), "rootpow_tree"),
                "parent": load(str(parent or tree), "rootpow_parent")}
    problems = irls_ab.pools(IRLS_SEEDS)
    sides = [{f"problem {k}": (irls_ab._op(packages[side]), [(obs, lam)])
              for k, (obs, lam) in enumerate(problems)} for side in ("parent", "tree")]
    differ, _, _, batch = compare(sides, rounds, 3, inner=1)
    q1, med, q3 = _quartiles(batch[2])
    summary = {side: irls_ab.fit_summary(rp, problems) for side, rp in packages.items()}
    return {
        "seeds": list(IRLS_SEEDS), "rounds": rounds,
        "us_per_fit": {"tree": statistics.median(batch[1]) / 1e3,
                       "parent": statistics.median(batch[0]) / 1e3},
        "ratio": {"median": med, "q1": q1, "q3": q3},
        "fits_differ": len(differ),
        "largest_move": irls_ab.largest_move(summary["parent"]["mu"], summary["tree"]["mu"]),
        **{side: {key: s[key] for key in ("passes", "iterations", "worst_grad_ratio")}
           for side, s in summary.items()},
    }


def record(tree: Path, parent: Path | None, workloads=WORKLOADS, pairs: int = PAIRS,
           seconds: float = SECONDS, irls_rounds: int = IRLS_ROUNDS) -> dict:
    bench, facts = record_bench(tree, parent, workloads, pairs, seconds)
    return {
        "schema": 1,
        "tree": facts["tree"],
        "parent": facts.get("parent"),
        "host": _host(),
        "bench": bench,
        "irls": record_irls(tree, parent, irls_rounds),
        "lines": {"tree": _lines(tree), "parent": _lines(parent) if parent else None},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree")
    parser.add_argument("--parent")
    args = parser.parse_args(argv)
    parent = Path(args.parent).resolve() if args.parent else None
    print(json.dumps(record(Path(args.tree).resolve(), parent), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
