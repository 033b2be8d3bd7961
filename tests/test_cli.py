"""CLI contract: determinism, exit codes, lossless round trips."""

import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import rootpow
from rootpow import cli
from rootpow.cli import main
from rootpow.distribution import ZTable, _decompactify, build_table, partition_function

# Child interpreters import rootpow from where this process found it, so
# the console tests also run from a checkout without an install.
_SRC = os.path.dirname(os.path.dirname(rootpow.__file__))
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])),
}


# the optional flags each --fn reads; eval refuses the others
_OPTIONAL_FLAGS = ("--lambda", "--lambda-neg", "--c", "--ztable")
_EVAL_READS = {
    **dict.fromkeys(["f", "finv", "g", "bump", "h", "hhat"], ("--lambda",)),
    **dict.fromkeys(["rho", "k"], ("--lambda", "--c")),
    "pdf": ("--lambda", "--c", "--ztable"),
    "fpm": ("--lambda", "--lambda-neg"),
    "relu": ("--lambda-neg",),
    **dict.fromkeys(["softplus", "sigmoid", "tanh"], ()),
}


@pytest.fixture
def run(capsys):
    def invoke(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits on a usage error
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


class TestEval:
    def test_identity_grid(self, run):
        code, out, err = run(["eval", "--fn", "f", "--lambda", "0", "--x", "0:1:3"])
        assert code == 0
        assert out == "x,value\n0,0\n0.5,0.5\n1,1\n"

    def test_gaussian_kernel_value(self, run):
        code, out, _ = run(["eval", "--fn", "k", "--lambda=-inf", "--x", "1"])
        assert code == 0
        value = float(out.strip().split("\n")[1].split(",")[1])
        assert value == math.exp(-0.5)

    def test_bump_shape_validation(self, run):
        code, out, err = run(["eval", "--fn", "bump", "--lambda", "1", "--x", "0"])
        assert code != 0
        assert out == ""
        assert err.strip().startswith("error:")

    def test_bump_evaluation(self, run):
        code, out, _ = run(["eval", "--fn", "bump", "--lambda", "2", "--x", "0.5"])
        assert code == 0
        value = float(out.strip().split("\n")[1].split(",")[1])
        assert value == pytest.approx(math.exp(-2.0 / 3.0), rel=1e-12)

    def test_boxcox_evaluation(self, run):
        code, out, _ = run(["eval", "--fn", "h", "--lambda", "2", "--x", "1"])
        assert code == 0
        assert float(out.strip().split("\n")[1].split(",")[1]) == pytest.approx(1.5, rel=1e-14)
        code, out, _ = run(["eval", "--fn", "hhat", "--lambda", "2", "--x", "1"])
        assert code == 0
        assert float(out.strip().split("\n")[1].split(",")[1]) == pytest.approx(1.5, rel=1e-14)

    def test_normalized_boxcox_next_to_one(self, run):
        code, out, _ = run(["eval", "--fn", "hhat", "--lambda", "0.9999999999999", "--x", "1"])
        assert code == 0
        value = float(out.strip().split("\n")[1].split(",")[1])
        want = 0.9999999999971058  # 40-digit mpmath, rounded
        assert abs(value - want) <= 64 * math.ulp(want)

    def test_pdf_requires_valid_shape(self, run):
        code, _, err = run(["eval", "--fn", "pdf", "--lambda=-2", "--x", "0"])
        assert code != 0
        assert "lambda" in err

    def test_missing_lambda(self, run):
        code, _, err = run(["eval", "--fn", "f", "--x", "1"])
        assert code == 2
        assert "--lambda" in err

    def test_explicit_x_list(self, run):
        code, out, _ = run(["eval", "--fn", "rho", "--lambda=-2", "--x", "2,0,-2"])
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert [r.split(",")[0] for r in rows] == ["-2", "0", "2"]

    def test_values_round_trip_losslessly(self, run):
        code, out, _ = run(["eval", "--fn", "g", "--lambda", "0.3", "--x", "0:5:11"])
        assert code == 0
        from rootpow.core import derivative

        for line in out.strip().split("\n")[1:]:
            x_s, v_s = line.split(",")
            assert float(v_s) == derivative(float(x_s), 0.3)

    def test_signed_functions(self, run):
        code, out, _ = run(["eval", "--fn", "tanh", "--x", "1"])
        assert code == 0
        assert float(out.strip().split("\n")[1].split(",")[1]) == pytest.approx(
            math.tanh(1.0), abs=1e-9
        )
        code, out, _ = run(
            ["eval", "--fn", "fpm", "--lambda", "1", "--lambda-neg=-inf", "--x=-1"]
        )
        assert code == 0
        value = float(out.strip().split("\n")[1].split(",")[1])
        assert value == pytest.approx(math.expm1(-1.0), rel=1e-12)

    def test_boxcox_domain_error_is_diagnosed(self, run):
        code, _, err = run(["eval", "--fn", "h", "--lambda", "2", "--x=-1.5"])
        assert code == 2
        assert "error:" in err

    def test_failing_x_writes_nothing(self, run):
        # the failure is found before the header goes out with the first chunk
        code, out, err = run(["eval", "--fn", "h", "--lambda", "2", "--x=-3,-0.5,1"])
        assert (code, out) == (2, "")
        assert err.startswith("error: at x = -3: ") and err.count("\n") == 1

    def test_loss_past_binary64_square(self, run):
        code, out, err = run(["eval", "--fn", "rho", "--lambda=-2", "--x", "1e200"])
        assert code == 0
        assert out == "x,value\n9.9999999999999997e+199,2\n"
        assert err == ""

    def test_determinism(self, run):
        argv = ["eval", "--fn", "pdf", "--lambda", "0.5", "--x=-2:2:41"]
        out1 = run(argv)
        out2 = run(argv)
        assert out1 == out2

    @pytest.mark.parametrize("spec", ["-1e308:1e308:3", "0:inf:3", "nan:1:3"])
    def test_non_finite_range_is_one_line_error(self, run, spec):
        # these used to end at "x = nan", a value nobody gave, the first
        # after two multi-line numpy overflow warnings
        code, out, err = run(["eval", "--fn", "f", "--lambda", "0.5", f"--x={spec}"])
        assert code == 2
        assert out == ""
        assert err == f"error: --x: range needs finite lo, hi and hi - lo, got {spec!r}\n"

    @pytest.mark.parametrize("fn, flag, reason", [
        ("bump", "--lambda=1", "--lambda: bump shape must satisfy 1 < lam < inf"),
        ("rho", "--c=inf", "--c: scale c must be a positive finite real"),
        ("bump", "--lambda=abc", "--lambda: cannot parse lam from 'abc'"),
    ])
    def test_parameter_error_carries_library_reason(self, run, fn, flag, reason):
        code, out, err = run(["eval", "--fn", fn, "--lambda=2", flag, "--x", "0"])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {reason}")
        assert err.count("\n") == 1

    # an optional flag that --fn does not read is refused, not dropped,
    # before the x list is parsed or a table is loaded
    @pytest.mark.parametrize("fn, flag", [
        (fn, flag) for fn, reads in _EVAL_READS.items() for flag in _OPTIONAL_FLAGS
        if flag not in reads
    ])
    def test_unread_flag_is_refused(self, run, fn, flag):
        assert set(_EVAL_READS) == set(cli._EVAL_FUNCTIONS)
        read = [f"{f}=-0.5" for f in _EVAL_READS[fn] if f != "--ztable"]
        value = "no-such-table.json" if flag == "--ztable" else "-0.5"
        code, out, err = run(["eval", "--fn", fn, *read, f"{flag}={value}", "--x=nonsense"])
        assert (code, out) == (2, "")
        assert err == f"error: {flag}: --fn {fn} does not read it\n"

    # --c is 1 unless set, for the table-less density and the tabled one too
    @pytest.mark.parametrize("fn, flags", [
        ("rho", ["--lambda=-2"]), ("k", ["--lambda=-1"]), ("pdf", ["--lambda=0.5"]),
        ("pdf", ["--lambda=3", "--ztable"]),
    ], ids=["rho", "k", "pdf", "pdf-ztable"])
    def test_unset_scale_prints_the_bytes_of_scale_one(self, run, tmp_path, fn, flags):
        if "--ztable" in flags:  # the flag comes last; its path follows here
            rootpow.build_table(16).save(tmp_path / "zt.json")
            flags = flags + [str(tmp_path / "zt.json")]
        argv = ["eval", "--fn", fn, *flags, "--x=-1e200,-2.5,-0,0,5e-324,0.3,1.7,1e200"]
        code, out, err = run(argv)
        assert (code, err) == (0, "") and out.count("\n") == 9
        assert run([*argv, "--c=1"]) == (code, out, err)

    def test_descending_range_is_sorted_like_linspace(self, run):
        # lo = 3 subnormals down to hi = -0.0 puts a +0.0 node next to hi,
        # and a stable sort keeps the +0.0 first
        lo, hi = 1.5e-323, -0.0
        code, out, _ = run(["eval", "--fn", "f", "--lambda", "0", f"--x={lo!r}:{hi!r}:5"])
        assert code == 0
        want = sorted(np.linspace(lo, hi, 5).tolist())
        assert out == "x,value\n" + "".join(f"{x:.17g},{x:.17g}\n" for x in want)
        assert out.startswith("x,value\n0,0\n-0,-0\n")

    def test_range_output_streams(self, monkeypatch):
        class Sink:
            rows = 0

            def write(self, text):
                self.rows += text.count("\n")

        sink = Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(["eval", "--fn", "f", "--lambda", "0.5", "--x", "0:1:200000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert sink.rows == 200_001
        # a materialized grid alone would hold 200,000 floats (~6 MB)
        assert peak < 1_500_000

    def test_pdf_ztable_reads_z_once(self, run, tmp_path, monkeypatch):
        # every read of the Z cache counted, on a cold cache: one read, one
        # quadrature, for 1000 x
        from rootpow import distribution

        path = tmp_path / "zt.json"
        rootpow.build_table(64).save(path)
        reads, fills = [], []

        class CountingZ(type(distribution._z)):
            def __getitem__(self, lam):
                reads.append(lam)
                return super().__getitem__(lam)

        monkeypatch.setattr(
            distribution, "_z",
            CountingZ(lambda lam: fills.append(lam) or distribution._quadrature(lam)),
        )
        code, out, _ = run(
            ["eval", "--fn", "pdf", "--lambda", "0.3", "--ztable", str(path), "--x=-3:3:1000"]
        )
        assert code == 0
        assert out.count("\n") == 1001
        assert reads == [0.3] and fills == [0.3]

    @pytest.mark.parametrize("fn", ["h", "hhat"])
    def test_boxcox_reads_its_lambda_once(self, run, fn):
        # the Box-Cox rows run their float step at each x, past the check
        from rootpow.families import _require_boxcox_lambda

        calls = []
        def profile(frame, event, arg):
            if event == "call" and frame.f_code is _require_boxcox_lambda.__code__:
                calls.append(frame.f_locals["lam"])
        sys.setprofile(profile)
        try:
            code, out, _ = run(["eval", "--fn", fn, "--lambda", "0.5", "--x=-0.25:3:100"])
        finally:
            sys.setprofile(None)
        assert code == 0
        assert out.count("\n") == 101
        assert calls == [0.5]


# Every --fn against the public float call it stands for: the eval table
# restates the library's signatures, and this keeps the two from drifting.
# Each case is (id, --fn, its flags, the public call on x and the Z table,
# which is None but for --ztable).
_XS = "-1e200,-2.5,-0.75,-0,0,5e-324,0.3,1.7,1e200"
_BOXCOX_XS = "-0.75,-0.5,-0,0,5e-324,0.3,1.7,40,1e200"
_DRIFT = [
    ("f", "f", ["--lambda=1.5"], lambda x, t: rootpow.transform(x, 1.5)),
    ("finv", "finv", ["--lambda=-0.5"], lambda x, t: rootpow.inverse(x, -0.5)),
    ("g", "g", ["--lambda=0.3"], lambda x, t: rootpow.derivative(x, 0.3)),
    *[case
      for c in (1.0, 0.5)
      for case in [
          (f"rho-c{c}", "rho", ["--lambda=-2", f"--c={c}"], lambda x, t, c=c: rootpow.loss(x, -2.0, c)),
          (f"k-c{c}", "k", ["--lambda=-1", f"--c={c}"], lambda x, t, c=c: rootpow.kernel(x, -1.0, c)),
          (f"pdf-c{c}", "pdf", ["--lambda=0.5", f"--c={c}"], lambda x, t, c=c: rootpow.pdf(x, 0.5, c)),
          (f"pdf-ztable-c{c}", "pdf", ["--lambda=3", f"--c={c}", "--ztable"],
           lambda x, t, c=c: rootpow.pdf(x, 3.0, c, t)),
      ]],
    ("bump", "bump", ["--lambda=2"], lambda x, t: rootpow.bump(x, 2.0)),
    ("fpm", "fpm", ["--lambda=0.5", "--lambda-neg=-2"],
     lambda x, t: rootpow.signed_transform(x, 0.5, -2.0)),
    ("softplus", "softplus", [], lambda x, t: rootpow.softplus(x)),
    ("sigmoid", "sigmoid", [], lambda x, t: rootpow.sigmoid(x)),
    ("tanh", "tanh", [], lambda x, t: rootpow.tanh(x)),
    ("relu", "relu", [], lambda x, t: rootpow.relu(x)),
    ("relu-lambda-neg", "relu", ["--lambda-neg=0.5"], lambda x, t: rootpow.relu(x, 0.5)),
    ("h", "h", ["--lambda=0.5"], lambda x, t: rootpow.boxcox(x, 0.5)),
    ("hhat", "hhat", ["--lambda=2"], lambda x, t: rootpow.boxcox_normalized(x, 2.0)),
]


@pytest.mark.parametrize("fn, flags, public", [case[1:] for case in _DRIFT],
                         ids=[case[0] for case in _DRIFT])
def test_eval_prints_the_public_float_call_bit_for_bit(run, tmp_path, fn, flags, public):
    table = None
    if "--ztable" in flags:  # the flag comes last; its path follows here
        table = rootpow.build_table(16)
        table.save(tmp_path / "zt.json")
        flags = flags + [str(tmp_path / "zt.json")]
    xs = _BOXCOX_XS if fn in ("h", "hhat") else _XS
    code, out, err = run(["eval", "--fn", fn, *flags, f"--x={xs}"])
    assert (code, err) == (0, "")
    rows = out.splitlines()[1:]
    assert len(rows) == len(xs.split(","))
    for row in rows:
        x_text, value_text = row.split(",")
        x = float(x_text)
        assert float(value_text).hex() == public(x, table).hex(), (fn, x)


# Whole outputs, built from the public float calls, at range counts on each
# side of the rows one write holds (cli._CHUNK, 4096), and on specials.
_CHUNKED = [
    ("f", ["--lambda=0.5"], lambda x: rootpow.transform(x, 0.5)),
    ("rho", ["--lambda=-2", "--c=2"], lambda x: rootpow.loss(x, -2.0, 2.0)),
    ("fpm", ["--lambda=0.5", "--lambda-neg=-2"], lambda x: rootpow.signed_transform(x, 0.5, -2.0)),
    ("pdf", ["--lambda=0.5"], lambda x: rootpow.pdf(x, 0.5)),
]


def _csv(xs, public):
    return "x,value\n" + "".join(f"{x:.17g},{public(x):.17g}\n" for x in xs)


@pytest.mark.parametrize("count", [1, 2, 4095, 4096, 4097, 8193])
@pytest.mark.parametrize("fn, flags, public", _CHUNKED, ids=[case[0] for case in _CHUNKED])
def test_eval_range_output_across_chunks(run, fn, flags, public, count):
    xs = sorted(np.linspace(-3.0, 3.0, count).tolist())
    code, out, err = run(["eval", "--fn", fn, *flags, f"--x=-3:3:{count}"])
    assert (code, err) == (0, "")
    assert out == _csv(xs, public)


@pytest.mark.parametrize("fn, flags, public", _CHUNKED, ids=[case[0] for case in _CHUNKED])
def test_eval_list_output_on_specials(run, fn, flags, public):
    xs = [-0.0, 5e-324, 1e308, math.inf, -math.inf]
    code, out, err = run(["eval", "--fn", fn, *flags, "--x=" + ",".join(map(repr, xs))])
    assert (code, err) == (0, "")
    assert out == _csv(sorted(xs), public)


def _fuzz_grids(seed, n):
    """Random lo:hi:count ranges with finite hi - lo, over every binade,
    subnormals and signed zeros included."""
    rng = np.random.default_rng(seed)
    specials = [0.0, -0.0, 5e-324, -5e-324, 1.5e-323, -1.5e-323, 4.4e-323, 1.0, -1.0, 1e308, -1e308]

    def endpoint():
        kind = rng.integers(4)
        if kind == 0:
            return specials[rng.integers(len(specials))]
        if kind == 1:
            return float(rng.uniform(-10.0, 10.0))
        sign = -1.0 if rng.random() < 0.5 else 1.0
        return sign * float(10.0 ** rng.uniform(-323.5, 308.0 if kind == 2 else -300.0))

    grids = []
    while len(grids) < n:
        lo, hi = endpoint(), endpoint()
        if math.isfinite(hi - lo):
            grids.append((lo, hi, int(rng.choice([2, 3, 4, 5, 7, 9, 17, 100]))))
    return grids


def test_streamed_range_order_equals_sorted_linspace():
    from rootpow.core import _sorted_linspace

    # a rounded subnormal step pushes a node past hi, and a -0.0/+0.0 tie
    # must keep its linspace order, which reversing a range would swap
    grids = [(0.0, 9 * 5e-324, 7), (1.5e-323, -0.0, 5)] + _fuzz_grids(20260518, 4000)
    for lo, hi, count in grids:
        want = [x.hex() for x in sorted(np.linspace(lo, hi, count).tolist())]
        assert [x.hex() for x in _sorted_linspace(lo, hi, count)] == want, (lo, hi, count)


class TestAccuracyCommand:
    def test_stable_only_row(self, run):
        code, out, _ = run(["accuracy", "--lambdas", "0", "--n", "8"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "lambda,err_naive,err_stable"
        assert lines[1].split(",")[1] == ""

    def test_naive_row_past_the_pole_is_stable_only(self, run):
        # at lam = 5.5 the pole is 1.22: the naive pow base goes negative
        # on the upper half of [0.5, 2], where ** returns a complex number
        code, out, _ = run(["accuracy", "--lambdas", "5.5", "--xmin", "0.5", "--xmax", "2", "--n", "8"])
        assert code == 0
        _, naive, stable = out.splitlines()[1].split(",")
        assert naive == ""
        assert float(stable) < 1e-15

    def test_dominance_on_small_run(self, run):
        code, out, _ = run(["accuracy", "--lambdas", "0.5,2,-2,1.00000001", "--n", "24"])
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            _, naive_s, stable_s = line.split(",")
            if naive_s:
                assert float(stable_s) <= float(naive_s) * 1.001 or float(stable_s) < 1e-300

    def test_window_flags(self, run):
        code, out, _ = run(
            ["accuracy", "--lambdas", "0.5", "--xmin", "0.01", "--xmax", "1", "--n", "8"]
        )
        assert code == 0
        code2, _, err = run(["accuracy", "--xmin", "0", "--xmax", "1", "--n", "8"])
        assert code2 == 2
        assert "xmin" in err

    @pytest.mark.parametrize("xmax", ["inf", "nan"])
    def test_non_finite_window_is_one_line_error(self, run, xmax):
        # --xmax=inf used to print numpy's two-line warning, then a nan row
        code, out, err = run(["accuracy", "--lambdas=0.5", f"--xmax={xmax}", "--n", "4"])
        assert code == 2
        assert out == ""
        assert err == "error: need 0 < --xmin < --xmax < inf\n"

    def test_exact_inf_hit_is_zero_error(self, run):
        # at x = 1e308 value and oracle are both inf, and inf - inf is NaN:
        # for both forms at lam = 0.3, for the stable one at lam = 0.5
        code, out, _ = run(["accuracy", "--lambdas=0.3,0.5", "--xmax=1e308", "--n", "4"])
        assert code == 0
        assert out.splitlines()[2].split(",")[1] == ""  # the naive form overflows
        errors = [float(v) for row in out.splitlines()[1:] for v in row.split(",")[1:] if v]
        assert len(errors) == 3
        assert all(0.0 < e < math.inf for e in errors)


class TestZTableCommand:
    def test_build_and_reuse(self, run, tmp_path):
        path = tmp_path / "zt.json"
        code, out, err = run(["ztable", "--grid-size", "64", "--output", str(path)])
        assert code == 0
        assert out == ""
        assert err == "ztable: 64 nodes, 205 quadrature points\n"
        code, out, _ = run(
            ["eval", "--fn", "pdf", "--lambda", "0", "--ztable", str(path), "--x", "0"]
        )
        assert code == 0
        value = float(out.strip().split("\n")[1].split(",")[1])
        assert value == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-4)

    def test_eval_with_a_table_prints_the_no_table_bytes(self, run, tmp_path):
        # Z is partition_function's at every lam, so stdout is the no-table
        # bytes off node and at the nodes lam = 0 and node 13, where
        # exp(log_z) is an ulp off the rule's Z
        path = tmp_path / "zt.json"
        assert run(["ztable", "--output", str(path)])[0] == 0
        table = ZTable.load(path)
        node_13 = -0.9538188277087033
        assert _decompactify(table.s_grid[13]) == node_13 and 0.0 in table.s_grid
        assert math.exp(table.log_z[13]) != partition_function(node_13)
        for lam in ("-0.5", "0.3", "2.5", "0", repr(node_13)):
            argv = ["eval", "--fn", "pdf", f"--lambda={lam}", "--x=-3:3:41"]
            code, out, err = run([*argv, "--ztable", str(path)])
            assert (code, err) == (0, "")
            assert out == run(argv)[1]

    def test_rebuild_is_byte_identical(self, run, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["ztable", "--grid-size", "64"]
        assert run(args + ["--output", str(p1)])[0] == 0
        assert run(args + ["--output", str(p2)])[0] == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_non_uniform_table_rejected(self, run, tmp_path):
        path = tmp_path / "zt.json"
        path.write_text(json.dumps({
            "s_grid": [-0.5, 0.0, 0.25, 1.0],
            "log_z": [1.0, 1.0, 1.0, 1.0],
            "num_points": 64,
            "precision": "binary64",
        }))
        code, out, err = run(
            ["eval", "--fn", "pdf", "--lambda", "0", "--ztable", str(path), "--x", "0"]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot load ztable")

    def test_malformed_table_is_one_line_error(self, run, tmp_path):
        path = tmp_path / "zt.json"
        path.write_text(json.dumps({
            "s_grid": 5, "log_z": [1.0], "num_points": 64, "precision": "binary64",
        }))
        code, out, err = run(
            ["eval", "--fn", "pdf", "--lambda", "0", "--ztable", str(path), "--x", "0"]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot load ztable")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("payload", [
        [[-0.5, 1.0], [1.0, 1.0]],
        {"s_grid": [-0.5, 1.0], "log_z": [1.0, "1.0"], "num_points": 64, "precision": "binary64"},
        {"s_grid": [-0.5, 1.0], "log_z": [1.0, 1.0], "num_points": "abc", "precision": "binary64"},
        {"s_grid": [-0.5, 1.0], "log_z": [1.0, 1.0], "num_points": 15, "precision": "binary64"},
        {"s_grid": [-0.5, 1.0], "log_z": [1.0, 1.0], "num_points": -5, "precision": "binary64"},
        {"log_z": [1.0, 1.0], "num_points": 64, "precision": "binary64"},
        {"s_grid": [-0.5, 1.0], "log_z": [1.0, 1.0], "num_points": 64, "precision": "binary32"},
        {"s_grid": [0.5, 1.0], "log_z": [1.0, 1.0], "num_points": 64, "precision": "binary64"},
        {"s_grid": [-0.5, 1.0], "log_z": [1000.0, 1000.0], "num_points": 64, "precision": "binary64"},
    ], ids=["list-payload", "string-in-log-z", "string-num-points", "15-num-points",
            "negative-num-points", "missing-s-grid", "binary32-precision", "grid-off-the-range",
            "log-z-past-700"])
    def test_wrong_types_in_table_are_validation_errors(self, run, tmp_path, payload):
        path = tmp_path / "zt.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(
            ["eval", "--fn", "pdf", "--lambda", "0", "--ztable", str(path), "--x", "0"]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot load ztable")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("field, value, message", [
        ("log_z", [1.0, "HUGE"], "log_z values must be finite"),
        ("s_grid", [-0.5, "HUGE"], "s_grid must run from -0.5 to 1.0"),
        ("num_points", "HUGE", "num_points must be an integer"),
    ], ids=["log-z", "s-grid", "num-points"])
    def test_an_integer_past_the_digit_limit_exits_2_naming_its_field(
        self, run, tmp_path, field, value, message
    ):
        # valid JSON, so a refused payload: exit 2 with the field's rule,
        # never Python's "Exceeds the limit (4300 digits)" text
        payload = {"s_grid": [-0.5, 1.0], "log_z": [1.0, 1.0], "num_points": 64,
                   "precision": "binary64", field: value}
        path = tmp_path / "zt.json"
        path.write_text(json.dumps(payload).replace('"HUGE"', "1" + "0" * 5000))
        code, out, err = run(
            ["eval", "--fn", "pdf", "--lambda", "0", "--ztable", str(path), "--x", "0"]
        )
        assert (code, out, err) == (2, "", f"error: cannot load ztable: {message}\n")

    def test_small_grid_rejected(self, run, tmp_path):
        code, _, err = run(["ztable", "--grid-size", "8", "--output", str(tmp_path / "x.json")])
        assert code == 2
        assert "grid-size" in err

    def test_unwritable_output(self, run, tmp_path):
        code, _, err = run(
            ["ztable", "--grid-size", "16", "--output", str(tmp_path / "nope" / "x.json")]
        )
        assert code == 1
        assert "cannot write" in err

    def test_unreadable_table_file(self, run, tmp_path):
        # an I/O failure exits 1, as an unreadable irls --data file does;
        # a table that loads but breaks the schema exits 2 (tests above)
        code, out, err = run(
            ["eval", "--fn", "pdf", "--lambda", "0", "--ztable", str(tmp_path / "absent.json"),
             "--x", "0"]
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot load ztable")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("content", [
        b"\xff" * 16,
        b'{"s_grid": [-0.5, 1.0], "log_z": [1.',
        b"",
        b"s_grid,log_z\n-0.5,1.0\n",
        b'{"precision": "binary64"} {}',
        '{"precision": "bin\u00e4ry64"}'.encode("utf-8"),
        b'\xef\xbb\xbf{"precision": "binary64"}',
    ], ids=["undecodable", "truncated-json", "empty", "csv", "trailing-data", "utf8-not-ascii",
            "utf8-bom"])
    def test_a_table_file_that_cannot_be_parsed_exits_1(self, run, tmp_path, content):
        # a file the CLI cannot decode or parse is a data failure, exit 1,
        # as for irls --data; a parsed payload the table refuses exits 2
        path = tmp_path / "zt.json"
        path.write_bytes(content)
        code, out, err = run(
            ["eval", "--fn", "pdf", "--lambda", "0", "--ztable", str(path), "--x", "0"]
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot load ztable: ")
        assert err.count("\n") == 1


class TestIrlsCommand:
    def test_mean_fit(self, run, tmp_path):
        data = tmp_path / "obs.csv"
        data.write_text("1\n2\n3\n")
        code, out, _ = run(["irls", "--data", str(data), "--lambda", "0"])
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "mu": 2.0,
            "iterations": 1,
            "grad_norm": 0.0,
            "converged": True,
        }

    def test_outlier_fit(self, run, tmp_path):
        data = tmp_path / "obs.csv"
        data.write_text("0\n0\n10\n")
        code, out, _ = run(["irls", "--data", str(data), "--lambda=-inf"])
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["mu"]) <= 1e-8
        assert payload["converged"] is True

    def test_header_flag(self, run, tmp_path):
        data = tmp_path / "obs.csv"
        data.write_text("value\n1\n2\n3\n")
        code, out, _ = run(
            ["irls", "--data", str(data), "--lambda", "0", "--skip-header"]
        )
        assert code == 0
        assert json.loads(out)["mu"] == 2.0

    def test_blank_lines_are_skipped(self, run, tmp_path):
        outputs = []
        for name, text in [("plain", "0\n0.5\n10\n"), ("blank", "\n0\n\n  \n0.5\n10\n\n")]:
            (tmp_path / name).write_text(text)
            outputs.append(run(["irls", "--data", str(tmp_path / name), "--lambda=-2"]))
        assert outputs[0][0] == 0
        assert outputs[1] == outputs[0]

    def test_positive_shape_rejected(self, run, tmp_path):
        data = tmp_path / "obs.csv"
        data.write_text("1\n")
        code, _, err = run(["irls", "--data", str(data), "--lambda", "0.5"])
        assert code == 2
        assert "lambda" in err

    def test_unreadable_data_file(self, run, tmp_path):
        code, out, err = run(["irls", "--data", str(tmp_path / "absent.csv"), "--lambda", "0"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot read ")
        assert err.count("\n") == 1

    def test_unparseable_line_reported(self, run, tmp_path):
        data = tmp_path / "obs.csv"
        data.write_text("1\nnot-a-number\n3\n")
        code, _, err = run(["irls", "--data", str(data), "--lambda", "0"])
        assert code == 1
        assert "line 2" in err

    def test_saturated_gradient_is_strict_json(self, run, tmp_path):
        # rounding noise divided by c**2 overflows the gradient to inf,
        # which strict JSON has no spelling for
        data = tmp_path / "obs.csv"
        data.write_text("1\n-1\n0.3\n5\n")
        code, out, _ = run(["irls", "--data", str(data), "--lambda", "0", "--c", "1e-170"])

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        payload = json.loads(out, parse_constant=reject)
        assert code == 0
        assert payload["grad_norm"] is None
        assert payload["converged"] is True

    def test_iteration_cap_exit_code(self, run, tmp_path):
        data = tmp_path / "obs.csv"
        data.write_text("0\n0\n10\n")
        code, out, _ = run(
            ["irls", "--data", str(data), "--lambda=-inf", "--max-iters", "1",
             "--tol", "1e-300"]
        )
        assert code == 2
        assert json.loads(out)["converged"] is False


class TestErrorPaths:
    # The exit code and the whole stderr line of each error path; {tmp}
    # holds empty.csv, inf.csv and ok.csv.
    @pytest.mark.parametrize("argv, code, line", [
        (["accuracy", "--lambdas", ","], 2, "empty --lambdas list"),
        (["accuracy", "--n", "1"], 2, "--n: n must be at least 2, got 1"),
        (["eval", "--fn", "f", "--lambda=0", "--x", "1,nan"], 2, "--x: x values must not be NaN"),
        (["eval", "--fn", "f", "--lambda=0", "--x", ","], 2, "--x: empty x samples"),
        (["eval", "--fn", "f", "--lambda=0", "--x", "1,abc"], 2,
         "--x: cannot parse x list '1,abc'"),
        (["eval", "--fn", "f", "--lambda=0", "--x", "0:1:0"], 2,
         "--x: range count must be at least 1, got 0"),
        (["eval", "--fn", "f", "--lambda=0", "--x", "0:1"], 2,
         "--x: range must be lo:hi:count, got '0:1'"),
        (["eval", "--fn", "f", "--lambda=0", "--x", "0:1:x"], 2,
         "--x: range must be lo:hi:count, got '0:1:x'"),
        (["eval", "--fn", "f", "--x", "1"], 2, "--lambda is required for --fn f"),
        (["eval", "--fn", "fpm", "--lambda=1", "--x", "1"], 2,
         "--lambda-neg is required for --fn fpm"),
        (["irls", "--data", "{tmp}/empty.csv", "--lambda=0"], 2,
         "observations must be a non-empty sequence of numbers"),
        (["irls", "--data", "{tmp}/inf.csv", "--lambda=0"], 2, "observations must all be finite"),
        (["irls", "--data", "{tmp}/ok.csv", "--lambda=abc"], 2,
         "--lambda: cannot parse lam from 'abc'"),
        # open rejects a path holding a NUL byte with a ValueError
        (["irls", "--data", "a\0b", "--lambda", "0"], 1, "cannot read a\0b: embedded null byte"),
        (["ztable", "--grid-size", "15", "--output", "{tmp}/zt.json"], 2,
         "--grid-size: grid_size must be at least 16, got 15"),
        (["ztable", "--grid-size", "16", "--output", "a\0b"], 1,
         "cannot write a\0b: embedded null byte"),
        (["eval", "--fn", "pdf", "--lambda", "0", "--x", "1", "--ztable", "a\0b"], 1,
         "cannot load ztable: embedded null byte"),
    ], ids=["empty-lambdas", "n-1", "nan-in-x", "empty-x", "x-does-not-parse", "range-count-0",
            "range-two-parts", "range-count-not-int", "missing-lambda", "missing-lambda-neg",
            "irls-empty-file", "irls-inf-in-file", "irls-lambda-abc", "irls-nul-in-path",
            "ztable-grid-size-15", "ztable-nul-in-path", "eval-ztable-nul-in-path"])
    def test_exit_code_and_line(self, run, tmp_path, argv, code, line):
        for name, text in [("empty", ""), ("inf", "1\ninf\n"), ("ok", "1\n2\n")]:
            (tmp_path / f"{name}.csv").write_text(text)
        assert run([arg.format(tmp=tmp_path) for arg in argv]) == (code, "", f"error: {line}\n")

    # One refused value for each value flag of each command: exit 2 and one
    # stderr line that names the flag and then gives the library's reason.
    # irls reads a data file that does not exist: its flags come first.
    # ztable has no --num-points: Z has one rule, so the flag is a usage error.
    @pytest.mark.parametrize("argv, flag", [
        (["eval", "--fn", "f", "--lambda=nan", "--x", "1"], "--lambda"),
        (["eval", "--fn", "fpm", "--lambda=1", "--lambda-neg=nan", "--x", "1"], "--lambda-neg"),
        (["eval", "--fn", "rho", "--lambda=1", "--c", "0", "--x", "1"], "--c"),
        (["eval", "--fn", "f", "--lambda=1", "--x", "0:1:2.5"], "--x"),
        (["accuracy", "--lambdas=nan"], "--lambdas"),
        (["accuracy", "--n", "1"], "--n"),
        (["accuracy", "--xmin", "1", "--xmax", "0.5"], None),
        (["ztable", "--grid-size", "15", "--output", "{tmp}/zt.json"], "--grid-size"),
        (["ztable", "--num-points", "15", "--output", "{tmp}/zt.json"], "--num-points"),
        (["irls", "--data", "{tmp}/absent.csv", "--lambda=nan"], "--lambda"),
        (["irls", "--data", "{tmp}/absent.csv", "--lambda=-1", "--c", "0"], "--c"),
        (["irls", "--data", "{tmp}/absent.csv", "--lambda=-1", "--tol=-1"], "--tol"),
        (["irls", "--data", "{tmp}/absent.csv", "--lambda=-1", "--max-iters", "0"], "--max-iters"),
    ], ids=["eval-lambda", "eval-lambda-neg", "eval-c", "eval-x", "accuracy-lambdas",
            "accuracy-n", "accuracy-window", "ztable-grid-size", "ztable-num-points",
            "irls-lambda", "irls-c", "irls-tol", "irls-max-iters"])
    def test_refused_flag_is_named(self, run, tmp_path, argv, flag):
        code, out, err = run([arg.format(tmp=tmp_path) for arg in argv])
        assert (code, out) == (2, ""), err
        assert err.count("\n") == 1 and err.endswith("\n"), err
        if flag is None:  # the window names both of its flags
            assert err == "error: need 0 < --xmin < --xmax < inf\n"
        elif flag == "--num-points":
            assert err == "error: rootpow: unrecognized arguments: --num-points 15\n"
        else:
            assert err.startswith(f"error: {flag}: "), err

    @pytest.mark.parametrize("exc, code, line", [
        (ValueError("bad value"), 2, "error: bad value"),
        (cli.CliError("bad data"), 1, "error: bad data"),
        (KeyError("key"), 1, "error: KeyError: 'key'"),
    ], ids=["ValueError", "CliError", "KeyError"])
    def test_exit_code_follows_the_exception_type(self, run, monkeypatch, exc, code, line):
        def command(args):
            raise exc

        monkeypatch.setattr(cli, "_cmd_eval", command)
        assert run(["eval", "--fn", "f", "--x", "1"]) == (code, "", f"{line}\n")

    def test_data_file_that_does_not_decode_is_a_read_failure(self, run, tmp_path):
        data = tmp_path / "obs.csv"
        data.write_bytes(b"1\n\xff\n")
        code, out, err = run(["irls", "--data", str(data), "--lambda", "0"])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read {data}: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rootpow.cli"],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 2  # argparse: missing subcommand

    def test_usage_error_is_one_line(self):
        # argparse's usage block is not printed; -h still prints help
        argv = [sys.executable, "-m", "rootpow.cli", "eval", "--fn", "f", "--lambda", "1"]
        proc = subprocess.run(
            [*argv, "--c", "abc", "--x", "1"], capture_output=True, text=True, env=CHILD_ENV
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: rootpow eval: argument --c: invalid float value: 'abc'\n"
        proc = subprocess.run([*argv, "-h"], capture_output=True, text=True, env=CHILD_ENV)
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: rootpow eval")
        assert proc.stderr == ""

    def test_import_loads_neither_scipy_nor_mpmath(self, tmp_path):
        # scipy and mpmath are test-only oracles (the accuracy oracle is
        # stdlib decimal), so neither belongs in any CLI start-up;
        # nor does statistics, which costs ~5 ms for a median numpy has;
        # nor numpy, which only pdf without a table, ztable and irls
        # need; nor dataclasses and the inspect it loads (~10 ms),
        # since every record is a named tuple
        path = tmp_path / "zt.json"
        build_table(16).save(path)
        evals = [["eval", "--fn", fn, *flags, "--x=-0.5:0.5:9"] for fn, flags in [
            ("f", ["--lambda=2"]), ("finv", ["--lambda=2"]), ("g", ["--lambda=2"]),
            ("rho", ["--lambda=-2", "--c=2"]), ("k", ["--lambda=-2"]),
            ("bump", ["--lambda=2"]), ("fpm", ["--lambda=1", "--lambda-neg=-1"]),
            ("softplus", []), ("sigmoid", []), ("tanh", []), ("relu", []),
            ("h", ["--lambda=2"]), ("hhat", ["--lambda=2"]),
            ("pdf", ["--lambda=0.3", f"--ztable={path}"]),
        ]]
        proc = subprocess.run(
            [sys.executable, "-c",
             "import contextlib, io, sys, rootpow.cli, rootpow.distribution\n"
             f"for argv in {evals!r}:\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             "        assert rootpow.cli.main(argv) == 0, argv\n"
             "print(sorted({'numpy', 'scipy', 'mpmath', 'statistics', 'dataclasses', 'inspect'}"
             " & set(sys.modules)))"],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
        # the numpy modules' records are named tuples too; numpy itself
        # loads inspect, but not dataclasses
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, rootpow.irls, rootpow.accuracy\n"
             "print('dataclasses' in sys.modules)"],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_json_loads_only_for_a_table(self, tmp_path):
        # an eval reads json only to load its --ztable file, so no other
        # eval pays for the import; the table eval shows the probe sees it
        path = tmp_path / "zt.json"
        build_table(16).save(path)
        plain = [["eval", "--fn", fn, *flags, "--x=-0.5:0.5:9"] for fn, flags in [
            ("f", ["--lambda=2"]), ("rho", ["--lambda=-2", "--c=2"]), ("k", ["--lambda=-2"]),
            ("h", ["--lambda=2"]), ("pdf", ["--lambda=0.3"]), ("pdf", ["--lambda=0"]),
        ]]
        table = ["eval", "--fn", "pdf", "--lambda=0.3", f"--ztable={path}", "--x=0"]
        proc = subprocess.run(
            [sys.executable, "-c",
             "import contextlib, io, sys, rootpow.cli\n"
             f"for argv in {plain!r} + [{table!r}]:\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             "        assert rootpow.cli.main(argv) == 0, argv\n"
             "    print('json' in sys.modules)"],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n" * len(plain) + "True\n"

    def test_the_density_and_its_table_load_no_numpy(self, tmp_path):
        # Z is a tanh-sinh rule on floats, so a pdf eval with no table, a
        # table build and the bench's four Z leave numpy out
        path = tmp_path / "zt.json"
        proc = subprocess.run(
            [sys.executable, "-c",
             "import contextlib, io, sys, rootpow as rp, rootpow.cli\n"
             "with contextlib.redirect_stdout(io.StringIO()), "
             "contextlib.redirect_stderr(io.StringIO()):\n"
             "    assert rootpow.cli.main(['eval', '--fn', 'pdf', '--lambda=-0.5', "
             "'--x=-1:1:9']) == 0\n"
             "    assert rootpow.cli.main(['ztable', '--grid-size', '16', "
             f"'--output', {str(path)!r}]) == 0\n"
             "for lam in (0.0, -1.0, -0.5, float('inf')):\n"
             "    rp.partition_function(lam)\n"
             "print('numpy' in sys.modules)"],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"
        assert ZTable.load(path).num_points == 205

    @pytest.mark.parametrize("block", [None, "mpmath", "numpy"],
                             ids=["mpmath-importable", "mpmath-blocked", "numpy-blocked"])
    def test_accuracy_runs_on_numpy_and_the_stdlib(self, block):
        # with mpmath or numpy made unimportable (a None entry in
        # sys.modules makes the import raise ImportError) the accuracy
        # command and error_sweep still run; where each is importable,
        # neither loads it
        proc = subprocess.run(
            [sys.executable, "-c",
             "import contextlib, io, sys\n"
             + (f"sys.modules[{block!r}] = None\n" if block else "")
             + "import rootpow.accuracy, rootpow.cli\n"
             "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
             "    assert rootpow.cli.main(['accuracy', '--lambdas=0.5,-2,inf', '--n', '8']) == 0\n"
             "assert out.getvalue().count('\\n') == 4, out.getvalue()\n"
             "rootpow.accuracy.error_sweep([0.5, -2.0, float('inf')], n=8)\n"
             "print(sys.modules.get('mpmath', 'absent'), sys.modules.get('numpy', 'absent'))"],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        want = ["None" if module == block else "absent" for module in ("mpmath", "numpy")]
        assert proc.stdout == " ".join(want) + "\n"

    def test_import_accuracy_loads_no_numpy(self):
        # the sweep's grids are plain floats and decimal, so numpy stays out
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, rootpow.accuracy; print('numpy' in sys.modules)"],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_script_roundtrip(self):
        argv = [sys.executable, "-c",
                "from rootpow.cli import entrypoint; entrypoint()",
                "eval", "--fn", "f", "--lambda", "0.5", "--x", "0:1:5"]
        a = subprocess.run(argv[:2] + argv[2:], capture_output=True, env=CHILD_ENV)
        b = subprocess.run(argv[:2] + argv[2:], capture_output=True, env=CHILD_ENV)
        assert a.returncode == 0
        assert a.stdout == b.stdout
