"""Acceptance gate: the ten release criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here; deviations from the literal wording are
confined to documented measurement-resolution qualifiers (see the
comments at criteria 1, 2, and 7).
"""

import math
import statistics
import sys
import time

import mpmath
import numpy as np
from scipy.integrate import quad

from rootpow.accuracy import default_lambda_grid, error_sweep, oracle_transform
from rootpow.cli import main
from rootpow.core import derivative, inverse, max_domain, transform
from rootpow.distribution import (
    build_table,
    partition_function,
    pdf,
    support_halfwidth,
)
from rootpow.families import (
    boxcox,
    boxcox_via_transform,
    bump,
    kernel,
    loss,
    relu,
    sigmoid,
    softplus,
    tanh,
    transform_via_boxcox,
)
from rootpow.irls import IrlsProblem, fit_location, irls_step, loss_objective

from conftest import closed_form_ulp_allowance, invertible_x_grid, minimize_objective
from oracles import bump_classic, kernel_reference, loss_reference

EPS = sys.float_info.epsilon


def _report(number: int, name: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} ({name}): PASS in {elapsed:.2f}s (budget {budget:.0f}s)")
    assert elapsed < budget


def test_criterion_1_stability_dominance():
    started = time.perf_counter()
    report = error_sweep(default_lambda_grid(), x_lo=0.01, x_hi=1.0, n=64)
    xs = np.geomspace(0.01, 1.0, 64)
    for row in report.rows:
        if row.err_naive is None:
            continue
        # Rows where the stable error sits below one ulp of the function's
        # scale on the window are measurement ties: both paths emit
        # correctly rounded values there and the geometric mean only
        # counts exact-hit luck.  Anything above that resolution must beat
        # the naive path at the stated slack.
        scale = max(abs(oracle_transform(float(x), row.lam)) for x in (xs[0], xs[-1]))
        resolution = EPS * max(scale, 1.0e-300)
        assert (
            row.err_stable <= row.err_naive * (1.0 + 1e-3)
            or row.err_stable <= resolution
        ), (row.lam, row.err_naive, row.err_stable)
    by_lam = {row.lam: row for row in report.rows}
    for lam in [1.0 + 1e-8, 1.0 - 1e-8, -1.0 + 1e-8, -1.0 - 1e-8]:
        row = by_lam[lam]
        assert row.err_naive / row.err_stable >= 1e3, row
    _report(1, "stability dominance", started, 10.0)


def test_criterion_2_self_inversion():
    started = time.perf_counter()
    lam_grid = [
        -math.inf, -1e6, -10.0, -2.0, -1.0 - 1e-8, -1.0 + 1e-8, -0.5,
        0.0, 0.5, 1.0 - 1e-8, 1.0 + 1e-8, 2.0, 10.0, 1e6, math.inf,
    ]
    # x capped so the image stays inside the inverse's window too; the
    # saturating members cannot round-trip beyond it in binary64 (see
    # decisions ledger).
    for lam in lam_grid:
        xs = invertible_x_grid(lam, cap=1e6, points=80)
        assert len(xs) >= 10, lam
        for x in xs:
            x = float(x)
            back = inverse(transform(x, lam), lam)
            assert abs(back - x) <= 1e-9 * (1.0 + abs(x)), (lam, x, back)
    _report(2, "self-inversion", started, 5.0)


def test_criterion_3_closed_form_equivalences():
    started = time.perf_counter()
    # Simple-fraction shapes at 4 ulp (+ edge rounding allowance).
    closed_forms = {
        -3.0: lambda x: x * (1.0 + x / 6.0) / (1.0 + x / 3.0) ** 2,
        -2.0: lambda x: 2.0 * x / (x + 2.0),
        -1.5: lambda x: 2.0 * x
        / (math.sqrt(1.0 + 2.0 * x / 3.0) * (1.0 + math.sqrt(1.0 + 2.0 * x / 3.0))),
        -0.5: lambda x: 2.0 * x / (math.sqrt(2.0 * x + 1.0) + 1.0),
        0.5: lambda x: x * (1.0 + x / 2.0),
        1.5: lambda x: x * (1.0 - x / 6.0) / (1.0 - x / 3.0) ** 2,
        2.0: lambda x: 2.0 * x / (2.0 - x),
        3.0: lambda x: 2.0 * x
        / (math.sqrt(1.0 - 2.0 * x / 3.0) * (1.0 + math.sqrt(1.0 - 2.0 * x / 3.0))),
    }
    for lam, closed in closed_forms.items():
        hi = 0.9 * min(max_domain(lam), 10.0)
        for x in np.linspace(0.0, hi, 250):
            x = float(x)
            got = transform(x, lam)
            want = closed(x)
            tol = closed_form_ulp_allowance(x, lam) * math.ulp(max(abs(want), 1e-300))
            assert abs(got - want) <= tol, (lam, x)

    named_losses = {
        "l2": 0.0, "cauchy": -1.0, "welsch": -math.inf,
        "charbonnier": -0.5, "geman_mcclure": -2.0,
    }
    for name, lam in named_losses.items():
        for c in [0.1, 1.0, 7.0]:
            for x in np.linspace(-10.0 * c, 10.0 * c, 101):
                x = float(x)
                want = loss_reference(x, name, c)
                assert abs(loss(x, lam, c) - want) <= 1e-12 * (1.0 + abs(want))

    named_kernels = {
        "gaussian": -math.inf, "inverse": -1.0, "quadratic": 0.5,
        "multiquadric": 1.0 / 3.0, "inverse_multiquadric": -0.5,
    }
    for name, lam in named_kernels.items():
        for c in [0.5, 1.0, 4.0]:
            for x in np.linspace(0.0, 10.0 * c, 101):
                x = float(x)
                want = kernel_reference(x, name, c)
                assert abs(kernel(x, lam, c) - want) <= 1e-12 * abs(want)
    for lam in [-0.7, -2.0, -5.0]:
        for x in np.linspace(0.0, 10.0, 101):
            x = float(x)
            want = kernel_reference(x, "RationalQuadratic", 1.0, lam=lam)
            assert abs(kernel(x, lam, 1.0) - want) <= 1e-12 * abs(want)
    _report(3, "closed-form equivalences", started, 5.0)


def test_criterion_4_derivative_correctness():
    started = time.perf_counter()
    lam_grid = [-math.inf, -10.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 10.0, math.inf]
    for lam in lam_grid:
        hi = 0.9 * min(max_domain(lam), 50.0)
        for x in np.linspace(0.01, hi, 50):
            x = float(x)
            h = EPS ** (1.0 / 3.0) * max(1.0, x)
            fd = (transform(x + h, lam) - transform(x - h, lam)) / (2.0 * h)
            g = derivative(x, lam)
            assert abs(g - fd) <= 1e-6 * max(1.0, g), (lam, x)

    for lam in [-math.inf, -5.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]:
        for c in [0.5, 1.0, 3.0]:
            hi = 5.0 * c
            if lam > 1.0:
                hi = min(hi, 0.9 * c * math.sqrt(2.0 * max_domain(lam)))
            for x in np.linspace(0.1 * c, hi, 40):
                x = float(x)
                h = EPS ** (1.0 / 3.0) * x
                fd = (loss(x + h, lam, c) - loss(x - h, lam, c)) / (2.0 * h)
                got = kernel(x, lam, c)
                assert abs(got - (c * c / x) * fd) <= 1e-5 * abs(got), (lam, c, x)
    _report(4, "derivative and kernel-loss consistency", started, 5.0)


def test_criterion_5_partition_constants():
    started = time.perf_counter()
    # Z(-1/2) is 2 e K1(1): the matching loss is sqrt(1 + u^2) - 1 so the
    # family density carries exp(+1) against the bare Bessel integral.
    closed = {
        0.0: math.sqrt(2.0 * math.pi),
        -1.0: math.pi * math.sqrt(2.0),
        math.inf: 4.0 * math.sqrt(2.0) / 3.0,
        -0.5: 2.0 * math.e * float(mpmath.besselk(1, 1)),
    }
    for lam, want in closed.items():
        got = partition_function(lam)
        assert abs(got - want) <= 1e-6 * want, (lam, got, want)

    for lam in [-1.0, -0.5, 0.0, 0.5, 1.0, 2.0, math.inf]:
        hw = support_halfwidth(lam)
        hi = hw if math.isfinite(hw) else math.inf
        half, _ = quad(lambda t: pdf(t, lam, 1.0), 0.0, hi, limit=200)
        assert abs(2.0 * half - 1.0) <= 1e-6, lam

    table = build_table()
    rng = np.random.default_rng(31415)
    probes = list(rng.uniform(-0.999, 8.0, 60)) + [3.7, 20.0, 123.4, -0.9995, 1e5]
    for lam in probes:
        lam = float(lam)
        direct = partition_function(lam)
        assert abs(table.lookup(lam) - direct) <= 1e-6 * direct, lam
    _report(5, "partition constants and table fidelity", started, 30.0)


def test_criterion_6_bump_identities():
    started = time.perf_counter()
    for x in np.linspace(-1.0, 1.0, 4001):
        x = float(x)
        want = (math.e * bump_classic(x)) ** 2
        assert abs(bump(x, 2.0) - want) <= 1e-12, x
    for lam in [1.0 + 1e-6, 2.0, 50.0]:
        assert bump(1.0, lam) == 0.0
        assert bump(-1.0, lam) == 0.0
        assert bump(1.0 + 1e-12, lam) == 0.0
    # positive strictly inside the support (the last few ulps before the
    # edge underflow to 0, which is the continuous limit, not a support
    # violation)
    for lam in [2.0, 50.0]:
        assert bump(0.99, lam) > 0.0
    for x in np.linspace(0.1, 0.999, 200):
        assert bump(float(x), 1.0 + 1e-6) <= 1e-6
    assert bump(0.0, 1.0 + 1e-6) == 1.0
    _report(6, "bump identities", started, 2.0)


def test_criterion_7_activation_reconstructions():
    started = time.perf_counter()
    for x in np.arange(-30.0, 30.0 + 1e-9, 0.01):
        x = float(x)
        want_sp = math.log1p(math.exp(-abs(x))) + max(x, 0.0)
        assert abs(softplus(x) - want_sp) <= 1e-9
        assert abs(sigmoid(x) - 1.0 / (1.0 + math.exp(-x))) <= 1e-9
        assert abs(tanh(x) - math.tanh(x)) <= 1e-9
    # Four distinct negative-side shapes whose domains cover x - 2 over
    # the whole window (the identity requires that; shapes with bounded
    # domain below 8 cannot represent the upper range, see ledger), plus
    # the bounded-domain shapes on the sub-ranges where they are defined.
    for lam_neg in [-3.0, 0.5, 1.0, 1.1]:
        for x in np.arange(-10.0, 10.0 + 1e-9, 0.01):
            x = float(x)
            assert abs(relu(x, lam_neg) - max(0.0, x)) <= 1e-9, (lam_neg, x)
    for lam_neg, hi in [(2.0, 3.95), (math.inf, 2.95)]:
        for x in np.arange(-10.0, hi, 0.01):
            x = float(x)
            assert abs(relu(x, lam_neg) - max(0.0, x)) <= 1e-9, (lam_neg, x)
    _report(7, "activation reconstructions", started, 5.0)


def test_criterion_8_boxcox_bijection():
    started = time.perf_counter()
    for lam in [-3.0, -1.5, -0.5, 0.5, 1.5, 3.0]:
        hi = 0.9 * min(max_domain(lam), 20.0)
        for x in np.linspace(0.0, hi, 150):
            x = float(x)
            want = transform(x, lam)
            got = transform_via_boxcox(x, lam)
            assert abs(got - want) <= 1e-10 * (1.0 + abs(want)), (lam, x)
    for lam in [-2.0, -0.5, 0.5, 1.0, 2.0, 4.0]:
        for x in np.linspace(0.0, 5.0, 150):
            x = float(x)
            want = boxcox(x, lam)
            got = boxcox_via_transform(x, lam)
            assert abs(got - want) <= 1e-10 * (1.0 + abs(want)), (lam, x)
    _report(8, "Box-Cox bijection", started, 2.0)


def test_criterion_9_irls():
    started = time.perf_counter()
    rng = np.random.default_rng(99)
    for _ in range(100):
        n = int(rng.integers(2, 51))
        obs = tuple(map(float, rng.standard_normal(n) * 3.0 + rng.uniform(-5.0, 5.0)))
        if rng.random() < 0.4:
            obs = obs + tuple(map(float, rng.uniform(15.0, 60.0, size=2)))
        lam = float(rng.choice([0.0, -0.3, -1.0, -2.0, -7.0, -math.inf]))
        problem = IrlsProblem(observations=obs, lam=lam)
        mu = statistics.median(obs)
        prev = loss_objective(mu, problem)
        for _ in range(25):
            mu = irls_step(mu, problem)
            cur = loss_objective(mu, problem)
            assert cur <= prev * (1.0 + 1e-12) + 1e-12, lam
            prev = cur

    rng = np.random.default_rng(11)
    datasets = []
    for trial in range(3):
        obs = tuple(map(float, rng.standard_normal(12) * 2.0 + 1.0))
        if trial == 2:
            obs = obs + (25.0, 30.0)
        datasets.append(obs)
    for lam in [0.0, -0.5, -1.0, -2.0, -math.inf]:
        for obs in datasets:
            problem = IrlsProblem(observations=obs, lam=lam, tol=1e-14, max_iters=500)
            result = fit_location(problem)
            mu_star = minimize_objective(obs, lam)
            assert abs(result.mu - mu_star) <= 1e-8, (lam, obs[:3])

    obs = (0.25, -1.5, 3.75, 0.5)
    result = fit_location(IrlsProblem(observations=obs, lam=0.0))
    assert result.mu == math.fsum(obs) / len(obs)
    _report(9, "IRLS descent and oracle agreement", started, 20.0)


def test_criterion_10_cli_determinism(capsys, tmp_path):
    started = time.perf_counter()

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    invocations = [
        ["eval", "--fn", "pdf", "--lambda", "0.5", "--x=-2:2:41"],
        ["eval", "--fn", "relu", "--lambda-neg", "0.5", "--x=-3:3:13"],
        ["accuracy", "--lambdas", "0.5,-2,1.00000001", "--n", "16"],
    ]
    for argv in invocations:
        first = run(argv)
        second = run(argv)
        assert first == second
        assert first[0] == 0

    code, out, _ = run(["eval", "--fn", "f", "--lambda", "0.3", "--x", "0:2:21"])
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        x_s, v_s = line.split(",")
        assert float(v_s) == transform(float(x_s), 0.3)

    data = tmp_path / "obs.csv"
    data.write_text("0\n0\n10\n")
    code, out, _ = run(["irls", "--data", str(data), "--lambda=-inf"])
    assert code == 0
    import json

    payload = json.loads(out)
    assert payload["converged"] is True

    for bad in [
        ["eval", "--fn", "bump", "--lambda", "1", "--x", "0"],
        ["eval", "--fn", "f", "--x", "1"],
        ["irls", "--data", str(data), "--lambda", "0.5"],
        ["ztable", "--grid-size", "8", "--output", str(tmp_path / "x.json")],
    ]:
        code, _, err = run(bad)
        assert code != 0
        assert err
    _report(10, "CLI determinism and contracts", started, 5.0)
