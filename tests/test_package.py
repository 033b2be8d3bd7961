"""The package namespace, and a smoke run of the benchmark that reads it."""

import ast
import inspect
import json
import math
import os
import shutil
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
_SUBMODULES = ["core", "families", "distribution", "irls", "accuracy"]


def test_all_is_the_union_of_the_submodules():
    names = [name for mod in _SUBMODULES for name in import_module(f"rootpow.{mod}").__all__]
    assert sorted(names) == rootpow.__all__


def test_no_submodule_is_named_like_a_public_name():
    assert set(_SUBMODULES + ["cli"]).isdisjoint(rootpow.__all__)


def test_every_public_name_resolves_and_is_listed():
    for name in rootpow.__all__:
        assert getattr(rootpow, name) is not None
    assert set(rootpow.__all__) <= set(dir(rootpow))
    with pytest.raises(AttributeError):
        rootpow.no_such_name


@pytest.mark.parametrize("order", [
    ["cli", "families"],
    list(reversed(_SUBMODULES)) + ["cli"],
    ["irls", "distribution", "accuracy", "families", "cli"],
], ids=["cli-first", "reversed", "numpy-modules-first"])
def test_functions_named_like_modules_stay_functions(order):
    # a first import of a submodule binds the package attribute to it,
    # which must never replace one of these functions
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


def _own_imports(scope: ast.AST):
    # the import statements of a scope, not those of the functions inside it
    for node in ast.iter_child_nodes(scope):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _own_imports(node)


def test_every_import_is_read():
    # a name imported at module or function level that its scope never
    # reads is left over from a refactor; __all__ re-exports count as reads
    unread = []
    for path in sorted(Path(rootpow.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exported = {node.value for top in tree.body if isinstance(top, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in top.targets)
                    for node in ast.walk(top.value) if isinstance(node, ast.Constant)}
        for scope in [tree, *(node for node in ast.walk(tree)
                              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))]:
            read = {node.id for node in ast.walk(scope)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread += [
                f"{path.stem}.{getattr(scope, 'name', '<module>')}: {name}"
                for node in _own_imports(scope) if getattr(node, "module", None) != "__future__"
                for name in (alias.asname or alias.name.split(".")[0] for alias in node.names)
                if name not in read and not (scope is tree and name in exported)
            ]
    assert unread == []


_POWER = ("log1p", "expm1")


def _power_writers(tree: ast.Module):
    """The top-level definitions of a module that call log1p or expm1:
    through np (the numpy module an array body is handed), through math
    (under any name it is imported as), or through a module-level alias of
    math's."""
    maths, aliases = set(), set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            maths |= {alias.asname or alias.name for alias in node.names if alias.name == "math"}
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            aliases |= {alias.asname or alias.name for alias in node.names if alias.name in _POWER}
    for node in tree.body:  # name = math.log1p
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute)
                and node.value.attr in _POWER and isinstance(node.value.value, ast.Name)
                and node.value.value.id in maths):
            aliases |= {target.id for target in node.targets if isinstance(target, ast.Name)}
    for top in tree.body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr in _POWER
                    and isinstance(func.value, ast.Name) and func.value.id in maths | {"np"}
                    or isinstance(func, ast.Name) and func.id in aliases):
                yield getattr(top, "name", "<module>")


def test_the_power_is_written_only_in_the_transform_and_boxcox_bodies():
    # expm1(a * log1p(b)) is spelled out for the transform, its derivative
    # and Box-Cox: in the array bodies, which run the numpy they are handed,
    # in the float bodies a plan row holds, the closures that
    # _float_transform and _float_derivative build, and in Box-Cox's float
    # step, which call libm; every other evaluator composes one of those.  The log1p and expm1 of
    # _quadrature, partition_function's uncached rule, map its cutoff and
    # its nodes between x and u = log1p(x), and are no power.
    written = {
        f"{path.stem}.{name}"
        for path in sorted(Path(rootpow.__file__).parent.glob("*.py"))
        for name in _power_writers(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert written == {
        "core._transform", "core._derivative", "core._float_transform",
        "core._float_derivative", "families._boxcox", "families._float_boxcox",
        "distribution._quadrature",
    }
    # inside the two factories, the three float transform bodies that take
    # a log1p or an expm1, and the derivative body that takes a log1p
    core = ast.parse(Path(rootpow.core.__file__).read_text(encoding="utf-8"))
    factories = {top.name: top for top in core.body if isinstance(top, ast.FunctionDef)}
    nested = {
        f"{name}.{node.name}"
        for name in ("_float_transform", "_float_derivative")
        for node in ast.walk(factories[name])
        if isinstance(node, ast.FunctionDef) and node is not factories[name]
        and any(isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                and call.func.attr in _POWER for call in ast.walk(node))
    }
    assert nested == {
        "_float_transform.exp", "_float_transform.log", "_float_transform.log_exp",
        "_float_derivative.slope_log",
    }


def test_the_lam_windows_are_tested_only_in_the_plan():
    # core._plan_row decides each lam's branch, constants and pole once, and
    # every other reader takes them from its table; the Box-Cox bodies and
    # their float steps compare their own parameter, whose windows are not
    # the transform's
    threshold, windows = set(), set()
    for path in sorted(Path(rootpow.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            where = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if (isinstance(node, ast.Name) and node.id == "_PINF_THRESHOLD"
                        and isinstance(node.ctx, ast.Load)):
                    threshold.add(where)
                elif (isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
                        and isinstance(node.left.func, ast.Name) and node.left.func.id == "abs"
                        and any(isinstance(c, ast.Name) and c.id in ("EPS", "TINY")
                                for c in node.comparators)):
                    windows.add(where)
    assert threshold == {"core._plan_row"}
    assert windows == {"core._plan_row", "families._boxcox", "families._boxcox_normalized",
                       "families._boxcox_via_transform", "families._float_boxcox",
                       "families._float_boxcox_normalized",
                       "families._float_boxcox_via_transform"}


# One keyword construction per record.
_RECORDS = {
    "BranchPlan": dict(pre_scale=-0.5, skip_log=False, mid_scale=-1.0, skip_exp=False,
                       post_scale=2.0, max_domain=1.9999999999999998),
    "ZTable": dict(s_grid=(-0.5, 0.25, 1.0), log_z=(1.0, 0.5, 0.25), num_points=64),
    "IrlsProblem": dict(observations=(0.0, 1.0, 10.0), lam=-2.0, c=1.5, max_iters=50, tol=1e-10),
    "IrlsResult": dict(mu=0.5, iterations=7, grad_norm=1e-13, converged=True),
    "AccuracyRow": dict(lam=0.5, err_naive=None, err_stable=1e-17),
    "AccuracyReport": dict(rows=(rootpow.AccuracyRow(0.5, None, 1e-17),),
                           x_lo=0.01, x_hi=1.0, samples=2),
}


@pytest.mark.parametrize("name", sorted(_RECORDS))
class TestRecords:
    def test_keyword_construction(self, name):
        record = getattr(rootpow, name)(**_RECORDS[name])
        assert record._asdict() == _RECORDS[name]

    def test_fields_are_read_only(self, name):
        record = getattr(rootpow, name)(**_RECORDS[name])
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))

    def test_equal_value_equal_hash(self, name, tmp_path):
        record = getattr(rootpow, name)(**_RECORDS[name])
        if name == "ZTable":
            record.save(tmp_path / "zt.json")
            again = rootpow.ZTable.load(tmp_path / "zt.json")
        else:
            again = getattr(rootpow, name)(**_RECORDS[name])
        assert again is not record
        assert again == record
        assert hash(again) == hash(record)


def test_branch_plan_is_a_branch_plan_record():
    plan = rootpow.branch_plan(2.0)
    assert type(plan) is rootpow.BranchPlan
    assert plan == rootpow.BranchPlan(**_RECORDS["BranchPlan"])
    assert plan.max_domain == rootpow.max_domain(2.0)


def test_problem_repr_names_its_fields_only():
    text = repr(rootpow.IrlsProblem(**_RECORDS["IrlsProblem"]))
    assert text.startswith("IrlsProblem(")
    for field in _RECORDS["IrlsProblem"]:
        assert f"{field}=" in text
    assert "_values" not in text and "_lo" not in text and "_hi" not in text


@pytest.mark.parametrize("name, bad, good", [
    ("ZTable", {"s_grid": (-0.5, 0.25, 2.0)}, {"num_points": 128}),
    ("ZTable", {"log_z": (1.0, math.inf, 0.25)}, {"log_z": (2.0, 1.0, 0.5)}),
    ("ZTable", {"num_points": True}, {"num_points": 256}),
    ("IrlsProblem", {"lam": 3.0}, {"lam": -2.5}),
    ("IrlsProblem", {"observations": (0.0, math.nan)}, {"observations": (1.0, 2.0, 30.0)}),
    ("IrlsProblem", {"max_iters": 0}, {"max_iters": 5}),
], ids=["ztable-grid", "ztable-log-z", "ztable-num-points", "irls-lam", "irls-observations",
        "irls-max-iters"])
def test_replace_reruns_the_checks(name, bad, good):
    # namedtuple's _replace builds through _make, which the two records
    # with invariants route through their checks
    record = getattr(rootpow, name)(**_RECORDS[name])
    with pytest.raises(ValueError):
        record._replace(**bad)
    changed = record._replace(**good)
    assert type(changed) is type(record)
    assert changed == getattr(rootpow, name)(**{**_RECORDS[name], **good})
    if name == "ZTable":
        assert math.isfinite(changed.lookup(0.7))
    else:
        assert math.isfinite(rootpow.fit_location(changed).mu)


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


def _float_ab(tree_a, tree_b):
    return subprocess.run(
        [sys.executable, str(_ROOT / "tools" / "float_ab.py"), str(tree_a), str(tree_b),
         "--rounds", "1", "--repeats", "1"],
        capture_output=True,
        text=True,
        cwd=_ROOT,
    )


def test_float_ab_gates_on_bits_only(tmp_path):
    # an A/A run passes and prints its ratios; a tree whose log+exp float
    # body is one ulp off fails, whatever the timing, after its ratios
    same = _float_ab(_ROOT, _ROOT)
    assert same.returncode == 0, same.stderr[-2000:]
    assert "give the same bits on both trees" in same.stdout
    assert same.stdout.splitlines()[-1].startswith("batch")
    package = tmp_path / "src" / "rootpow"
    shutil.copytree(_ROOT / "src" / "rootpow", package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    core = package / "core.py"
    text = core.read_text(encoding="utf-8")
    off = text.replace("    return post * t\n",
                       "    return math.nextafter(post * t, math.inf)\n", 1)
    assert off != text
    core.write_text(off, encoding="utf-8")
    differ = _float_ab(_ROOT, tmp_path)
    assert differ.returncode == 1
    assert "float calls differ between the trees" in differ.stdout
    assert differ.stdout.splitlines()[-1].startswith("batch")


def _irls_ab(tree_a, tree_b):
    return subprocess.run(
        [sys.executable, str(_ROOT / "tools" / "irls_ab.py"), str(tree_a), str(tree_b),
         "--seeds", "101", "--rounds", "1", "--repeats", "1", "--stress-size", "300"],
        capture_output=True,
        text=True,
        cwd=_ROOT,
    )


def test_irls_ab_gates_on_bits_only(tmp_path):
    # an A/A run passes and prints its ratio; a tree whose median start is
    # one ulp off fails, whatever the timing, after its ratio
    same = _irls_ab(_ROOT, _ROOT)
    assert same.returncode == 0, same.stderr[-2000:]
    assert same.stdout.startswith("100 fits give the same results on both trees")
    # each tree's greatest passes per lam and 95th percentile, for a tail claim
    assert same.stdout.count(" iterations per lam, mean/max: -inf ") == 2
    assert "\np95 over the fits: A " in same.stdout
    assert " B/A " in same.stdout.splitlines()[-1]
    # the stress pool is reported before the timing: 300 drawn fits, 100
    # flat-prone ones and the 10 named cases, the same on both sides
    stress = [line for line in same.stdout.splitlines() if line.startswith("stress ")]
    assert stress[0].startswith("stress pool: 410 fits, data sha256 ")
    assert stress[1:] == ["stress largest |mu_B - mu_A| / (1 + |mu_A|): 0, 0 fits past 1e-6",
                          "stress fits whose final loss exceeds the other tree's by more than "
                          "1e-12 relative: 0"]
    sides = [line.split(": ", 1)[1] for line in same.stdout.splitlines()
             if line.startswith(("A stress: ", "B stress: "))]
    assert len(sides) == 2 and sides[0] == sides[1], sides
    assert same.stdout.index("stress pool: ") < same.stdout.index("\np95 over the fits: ")
    package = tmp_path / "src" / "rootpow"
    shutil.copytree(_ROOT / "src" / "rootpow", package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    irls = package / "irls.py"
    text = irls.read_text(encoding="utf-8")
    off = text.replace("    return mid if math.isfinite(mid)",
                       "    return math.nextafter(mid, math.inf) if math.isfinite(mid)", 1)
    assert off != text
    irls.write_text(off, encoding="utf-8")
    differ = _irls_ab(_ROOT, tmp_path)
    assert differ.returncode == 1
    assert "fits differ between the trees" in differ.stdout
    # the move a by-design change quotes: every even-n start moved one ulp
    assert "largest |mu_B - mu_A| / (1 + |mu_A|): " in differ.stdout
    assert differ.stdout.count(" iterations in all, worst grad_norm / (1 + sum |x|) ") == 2
    # the pool is reported on the moved tree too, and never sets the exit
    assert differ.stdout.count("\nA stress: ") == 1 and differ.stdout.count("\nB stress: ") == 1
    assert "\nstress largest |mu_B - mu_A| / (1 + |mu_A|): " in differ.stdout
    assert " B/A " in differ.stdout.splitlines()[-1]


def test_irls_ab_stress_pool_is_deterministic(monkeypatch):
    # one seed gives one pool, in this process and in a fresh one with
    # another hash seed; another seed gives another; every named hard case
    # of tests/test_irls.py is in it, and the drawn fits keep their ranges
    monkeypatch.syspath_prepend(str(_ROOT / "tools"))
    import irls_ab

    pool = irls_ab.stress_pool(16, 300)
    digest = irls_ab.pool_hash(pool)
    assert irls_ab.pool_hash(irls_ab.stress_pool(16, 300)) == digest
    assert irls_ab.pool_hash(irls_ab.stress_pool(17, 300)) != digest
    child = subprocess.run(
        [sys.executable, "-c",
         "import irls_ab; print(irls_ab.pool_hash(irls_ab.stress_pool(16, 300)))"],
        capture_output=True, text=True, cwd=_ROOT / "tools",
        env={**CHILD_ENV, "PYTHONHASHSEED": "12345"},
    )
    assert child.stdout.strip() == digest, child.stderr[-2000:]
    assert len(pool) == 300 + 100 + len(irls_ab.NAMED)
    named = {(obs, lam, c) for _, obs, lam, c in pool[400:]}
    scale = 2.0 ** 1000
    for case in [((-2.0, -1.6, 1.2, 5.4), -0.5, 1.0), ((-10.0, -9.0, 10.0, 12.0), -0.5, 1.0),
                 ((4.8, 22.4, 10.4, -24.3, -14.6, -16.8, 10.0, -7.3, -9.3), -math.inf, 1.0),
                 ((-34.0, -11.8, -11.8, 20.4, 15.4, 10.1), -5.0, 1.0),
                 ((2.5, 2.5, -1.8, -0.2), -math.inf, 1.0),
                 ((-0.5, 0.25, 0.0, 0.5, -0.25, 1e300), -1.0, 1.0),
                 *(((-2.0 * scale, -1.6 * scale, 1.2 * scale, 5.4 * scale), lam, scale)
                   for lam in (-0.5, -1.0, -2.0, -math.inf))]:
        assert case in named, case
    assert len({name for name, *_ in pool}) == len(pool)
    for _, obs, lam, c in pool[:300]:
        assert 2 <= len(obs) <= 300 and 0.3 <= c <= 3.0
        assert lam in (-math.inf, -1e3, -10.0, -2.0, -1.0, -0.5, -0.2, -1e-3)
    for _, obs, lam, c in pool[300:400]:
        assert 3 <= len(obs) <= 8 and c == 1.0 and max(map(abs, obs)) <= 15.0
        assert lam in (-math.inf, -10.0, -2.0, -1.0, -0.5, -0.2)


def test_bench_record_writes_its_schema():
    # one pair of the shortest robust_fit runs, the tree as its own parent:
    # the record holds every metric BENCHMARK.json declares, for both sides
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys\n"
         "from pathlib import Path\n"
         "sys.path.insert(0, 'tools')\n"
         "import bench_record\n"
         "root = Path.cwd()\n"
         "print(json.dumps(bench_record.record(root, root, workloads=('robust_fit',), pairs=1,\n"
         "                                     seconds=0.0, irls_rounds=1)))"],
        capture_output=True,
        text=True,
        cwd=_ROOT,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    record = json.loads(proc.stdout)
    assert sorted(record) == ["bench", "host", "irls", "lines", "parent", "schema", "tree"]
    # the copies' content hash names the code measured, in or out of git
    assert record["tree"] == record["parent"] and len(record["tree"]["sha256"]) == 64
    fit = record["bench"]["workloads"]["robust_fit"]
    assert fit["correct"] == {"tree": [True], "parent": [True]}
    declared = json.loads((_ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for metric in declared:
        row = fit[metric["name"]]
        assert len(row["tree"]["runs"]) == len(row["parent"]["runs"]) == 1
        assert row["wins"] in (0, 1)
    irls = record["irls"]
    assert irls["fits_differ"] == 0 and irls["largest_move"] == 0.0
    assert irls["tree"] == irls["parent"]
    assert sorted(irls["tree"]["passes"]) == sorted(map(repr, (-math.inf, -2.0, -1.0, -0.5, 0.0)))
    assert record["lines"]["tree"]["src/rootpow/irls.py"] > 0


def test_the_tools_cover_every_public_evaluator():
    # every public function of x (or of a residual) is timed by float_ab and
    # digested by parity, so that neither drifts behind a new evaluator;
    # both leave out oracle_transform, which takes milliseconds a call.
    # parity puts bench/ on sys.path as it loads, so a child reads it.
    public = {
        name for name in rootpow.__all__
        if callable(fn := getattr(rootpow, name)) and not isinstance(fn, type)
        and next(iter(inspect.signature(fn).parameters), None) in ("x", "residual")
    }
    assert "oracle_transform" in public and len(public) >= 19
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "sys.path.insert(0, 'tools')\n"
         "import float_ab, parity, rootpow\n"
         "print(' '.join(float_ab.calls(rootpow)))\n"
         "print(' '.join(fn.__name__ for fn, _ in parity.EVALUATORS\n"
         "               if getattr(rootpow, fn.__name__, None) is fn))"],
        capture_output=True,
        text=True,
        cwd=_ROOT,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    timed, digested = (set(line.split()) for line in proc.stdout.splitlines())
    assert public - timed == {"oracle_transform"}
    assert public - digested == {"oracle_transform"}
