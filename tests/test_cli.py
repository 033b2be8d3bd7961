"""CLI contract: determinism, exit codes, lossless round trips."""

import json
import math
import os
import subprocess
import sys

import pytest

import rootpow
from rootpow.cli import main

# Child interpreters import rootpow from where this process found it, so
# the console tests also run from a checkout without an install.
_SRC = os.path.dirname(os.path.dirname(rootpow.__file__))
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])),
}


@pytest.fixture
def run(capsys):
    def invoke(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # data errors raise to carry the code
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


class TestAccuracyCommand:
    def test_stable_only_row(self, run):
        code, out, _ = run(["accuracy", "--lambdas", "0", "--n", "8"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "lambda,err_naive,err_stable"
        assert lines[1].split(",")[1] == ""

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


class TestZTableCommand:
    def test_build_and_reuse(self, run, tmp_path):
        path = tmp_path / "zt.json"
        code, out, err = run(
            ["ztable", "--grid-size", "64", "--num-points", "512", "--output", str(path)]
        )
        assert code == 0
        assert out == ""
        assert "spot-check" in err
        code, out, _ = run(
            ["eval", "--fn", "pdf", "--lambda", "0", "--ztable", str(path), "--x", "0"]
        )
        assert code == 0
        value = float(out.strip().split("\n")[1].split(",")[1])
        assert value == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-4)

    def test_rebuild_is_byte_identical(self, run, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["ztable", "--grid-size", "64", "--num-points", "256"]
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
        {"log_z": [1.0, 1.0], "num_points": 64, "precision": "binary64"},
    ], ids=["list-payload", "string-in-log-z", "string-num-points", "missing-s-grid"])
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

    def test_small_grid_rejected(self, run, tmp_path):
        code, _, err = run(["ztable", "--grid-size", "8", "--output", str(tmp_path / "x.json")])
        assert code == 2
        assert "grid-size" in err

    def test_unwritable_output(self, run, tmp_path):
        code, _, err = run(
            ["ztable", "--grid-size", "16", "--num-points", "64",
             "--output", str(tmp_path / "nope" / "x.json")]
        )
        assert code == 1
        assert "cannot write" in err


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

    def test_positive_shape_rejected(self, run, tmp_path):
        data = tmp_path / "obs.csv"
        data.write_text("1\n")
        code, _, err = run(["irls", "--data", str(data), "--lambda", "0.5"])
        assert code == 2
        assert "lambda" in err

    def test_unparseable_line_reported(self, run, tmp_path):
        data = tmp_path / "obs.csv"
        data.write_text("1\nnot-a-number\n3\n")
        code, _, err = run(["irls", "--data", str(data), "--lambda", "0"])
        assert code == 1
        assert "line 2" in err

    def test_iteration_cap_exit_code(self, run, tmp_path):
        data = tmp_path / "obs.csv"
        data.write_text("0\n0\n10\n")
        code, out, _ = run(
            ["irls", "--data", str(data), "--lambda=-inf", "--max-iters", "1",
             "--tol", "1e-300"]
        )
        assert code == 2
        assert json.loads(out)["converged"] is False


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rootpow.cli"],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 2  # argparse: missing subcommand

    def test_import_loads_neither_scipy_nor_mpmath(self):
        # scipy is a test-only oracle and mpmath is loaded by the accuracy
        # oracle when it runs, so neither belongs in every CLI start-up;
        # nor does statistics, which costs ~5 ms for a median numpy has
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, rootpow.cli; "
             "print(sorted({'scipy', 'mpmath', 'statistics'} & set(sys.modules)))"],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_script_roundtrip(self):
        argv = [sys.executable, "-c",
                "from rootpow.cli import entrypoint; entrypoint()",
                "eval", "--fn", "f", "--lambda", "0.5", "--x", "0:1:5"]
        a = subprocess.run(argv[:2] + argv[2:], capture_output=True, env=CHILD_ENV)
        b = subprocess.run(argv[:2] + argv[2:], capture_output=True, env=CHILD_ENV)
        assert a.returncode == 0
        assert a.stdout == b.stdout
