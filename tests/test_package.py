"""The package namespace, and a smoke run of the benchmark that reads it."""

import ast
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import rootpow

_SRC = os.path.dirname(os.path.dirname(rootpow.__file__))
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])),
}
_ROOT = Path(__file__).resolve().parent.parent
_SUBMODULES = [
    "core", "loss", "kernel", "signed", "bump", "boxcox", "distribution", "irls", "accuracy",
]


def test_all_is_the_union_of_the_submodules():
    names = [name for mod in _SUBMODULES for name in import_module(f"rootpow.{mod}").__all__]
    assert sorted(names) == rootpow.__all__


def test_every_public_name_resolves_and_is_listed():
    for name in rootpow.__all__:
        assert getattr(rootpow, name) is not None
    assert set(rootpow.__all__) <= set(dir(rootpow))
    with pytest.raises(AttributeError):
        rootpow.no_such_name


@pytest.mark.parametrize("order", [
    ["cli", "loss", "kernel", "bump", "boxcox"],
    list(reversed(_SUBMODULES)) + ["cli"],
    ["irls", "distribution", "accuracy", "boxcox", "bump", "kernel", "loss", "cli"],
], ids=["cli-first", "reversed", "numpy-modules-first"])
def test_functions_named_like_modules_stay_functions(order):
    # loss, kernel, bump and boxcox are submodules and public functions; a
    # first import of a submodule binds the package attribute to it
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import {', '.join('rootpow.' + mod for mod in order)}\n"
         "names = ('loss', 'kernel', 'bump', 'boxcox')\n"
         "print([type(getattr(rootpow, name)).__name__ for name in names])"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['function', 'function', 'function', 'function']\n"


def _module_level_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_every_private_name_is_used():
    # a private helper, constant or table that nothing reads is dead code
    # left over from a refactor; imports do not count as reads
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(rootpow.__file__).parent.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name in _module_level_names(tree)
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
        and name not in read
    ]
    assert unread == []


@pytest.mark.parametrize("workload", ["scalar_mix", "robust_fit"])
def test_bench_smoke(workload):
    # the bench reads ~30 names through `rootpow.<name>`, and robust_fit
    # runs the IRLS sweeps; only the bench's correctness and its metric
    # names are checked here, no timing
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "bench" / "bench.py"),
         "--workload", workload, "--seed", "1", "--seconds", "0"],
        capture_output=True,
        text=True,
        cwd=_ROOT,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    declared = json.loads((_ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert sorted(result["metrics"]) == sorted(metric["name"] for metric in declared)
