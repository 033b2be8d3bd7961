"""Accuracy harness: wide-float oracle, error sweep, CSV rendering."""

import decimal
import math
import random
import sys
from decimal import Decimal

import mpmath
import pytest

import numpy as np

import rootpow.accuracy
from rootpow.accuracy import (
    default_lambda_grid,
    error_sweep,
    oracle_transform,
    report_to_csv,
)
from rootpow.core import Branch, classify, max_domain, transform, transform_naive

from conftest import stable_ulp_budget, ulps_apart


class TestOracle:
    def test_known_constant_correctly_rounded(self):
        assert oracle_transform(1.0, -1.0) == math.log(2.0)

    def test_agrees_with_stable_path(self):
        # The stable path should be within a couple ulps of truth in the
        # benign region.
        assert ulps_apart(transform(0.5, 0.25), oracle_transform(0.5, 0.25)) <= 2.0

    def test_precision_self_consistency(self, monkeypatch):
        # x = 1e-60 at lam = -1 and inf: 1 +- x rounds to 1 at 50 digits,
        # so the log1p forms are what keep the two precisions together
        lams = [0.25, -0.75, 1.0 + 1e-8, -1.0 - 1e-8, 3.0, -1e6, -1.0, math.inf]
        cases = [(x, lam) for lam in lams for x in [1e-60, 0.01, 0.37, 1.0]]
        at_50 = [oracle_transform(x, lam) for x, lam in cases]
        monkeypatch.setattr(rootpow.accuracy, "ORACLE_DPS", 100)
        assert [oracle_transform(x, lam) for x, lam in cases] == at_50
        # the count is read per call: at 1 digit (11 with the guards) some move
        monkeypatch.setattr(rootpow.accuracy, "ORACLE_DPS", 1)
        assert [oracle_transform(x, lam) for x, lam in cases] != at_50

    def test_error_sweep_reads_the_precision_per_call(self, monkeypatch):
        # the x grid is built in ORACLE_DPS's context as it stands at the
        # call: doubling the digits moves no x and no number in the report,
        # and 1 digit (11 with the guards) moves the grid
        oracle, xs = rootpow.accuracy.oracle_transform, []
        monkeypatch.setattr(rootpow.accuracy, "oracle_transform",
                            lambda x, lam: xs.append(x) or oracle(x, lam))

        def sweep():
            xs.clear()
            return error_sweep([-math.inf, -1.0, 0.25, 3.0], x_lo=0.001, n=16), list(xs)

        report, grid = sweep()
        monkeypatch.setattr(rootpow.accuracy, "ORACLE_DPS", 100)
        assert sweep() == (report, grid)
        monkeypatch.setattr(rootpow.accuracy, "ORACLE_DPS", 1)
        assert sweep()[1] != grid

    @pytest.mark.parametrize("call", [lambda: oracle_transform(0.5, 0.5, 100),
                                      lambda: oracle_transform(0.5, 0.5, dps=100)],
                             ids=["positional", "keyword"])
    def test_the_precision_is_not_an_argument(self, call):
        # only the tests set the digits, through ORACLE_DPS
        with pytest.raises(TypeError):
            call()

    def test_rejects_nan_x(self):
        with pytest.raises(ValueError, match="x must not be NaN"):
            oracle_transform(math.nan, 0.5)

    def test_trivial_branches(self):
        assert oracle_transform(0.7, 0.0) == 0.7
        assert oracle_transform(0.5, math.inf) == -math.log1p(-0.5)
        # both are x to first order, far below where 1 + x rounds to 1
        assert oracle_transform(1e-300, -1.0) == 1e-300
        assert oracle_transform(1e-300, math.inf) == 1e-300

    def test_naive_quantization_measured(self):
        # Frozen from the oracle: the pow-based form at this near-one shape
        # is ~8e-9 off while the stable path lands on the rounded truth.
        lam = 1.0 + 1e-8
        truth = oracle_transform(0.5, lam)
        assert abs(transform_naive(0.5, lam) - truth) >= 1e-9
        assert abs(transform(0.5, lam) - truth) <= 4.0 * math.ulp(truth)

    def test_stable_path_within_rounding_model(self):
        # The central stability claim, measured directly: across every
        # branch the stable evaluator stays inside the first-order rounding
        # budget of its own chain (a few ulps away from amplification,
        # growing only with |mid * log1p| near poles and large outputs).
        lams = [
            -math.inf, -1e5, -37.0, -2.0, -1.0, -1.0 - 1e-8, -1.0 + 1e-8,
            -0.5, -1e-6, 0.0, 1e-6, 0.5, 1.0, 1.0 - 1e-8, 1.0 + 1e-8,
            2.0, 37.0, 1e5, math.inf,
        ]
        for lam in lams:
            hi = 0.9 * min(max_domain(lam), 300.0)
            # the working range keeps its 30 points; tiny x rides along
            xs = np.concatenate([np.geomspace(1e-300, 1e-4, 30, endpoint=False),
                                 np.geomspace(1e-4, hi, 30)])
            for x in xs:
                x = float(x)
                truth = oracle_transform(x, lam)
                got = transform(x, lam)
                if not math.isfinite(truth):
                    continue
                assert ulps_apart(got, truth) <= stable_ulp_budget(x, lam), (lam, x)

    @pytest.mark.xfail(strict=True, reason="pre_scale * x or mid_scale * log1p "
                       "underflows into the subnormals and loses the bits")
    @pytest.mark.parametrize("x, lam", [
        (1.64e-318, -1.00000001),  # 0.0, exact 1.64e-318
        (1.64e-318, -1e5),         # 9.6% low
        (5.4e-313, -1e5),          # 1.5e-7 relative
    ])
    def test_stable_path_within_rounding_model_at_subnormal_x(self, x, lam):
        truth = oracle_transform(x, lam)
        assert ulps_apart(transform(x, lam), truth) <= stable_ulp_budget(x, lam)

    @pytest.mark.parametrize("x, lam", [
        (-5.0, 0.5), (-1e300, 1e-300), (-math.inf, 0.25),  # POS, lam < 1
        (-3.0, -0.5), (-3.0, -2.0), (-math.inf, -1e-300),  # NEG
        (-2.0, -1.0), (-1.0 - 1e-15, -1.0), (-math.inf, -1.0),  # NEG_ONE
    ])
    def test_past_the_pole_is_a_value_error(self, x, lam):
        with pytest.raises(ValueError, match="past the pole"):
            oracle_transform(x, lam)

    def test_at_the_pole(self):
        # unbounded below at lam <= -1, bounded for -1 < lam < 1
        assert oracle_transform(-1.0, -1.0) == -math.inf
        assert oracle_transform(-2.0, -2.0) == -math.inf
        assert oracle_transform(-0.5, -0.5) == -1.0
        assert oracle_transform(-1.0, 0.5) == -0.5


def _mpmath_transform(x: float, lam: float):
    # the same branch formulas in mpmath's binary wide floats at 50 digits,
    # rounded by the caller; an x past the pole makes an mpc
    branch = classify(lam)
    x = min(x, max_domain(lam))
    if branch is Branch.ZERO:
        return x
    with mpmath.workdps(50):
        xm = mpmath.mpf(x)
        if branch is Branch.POS_INF:
            return -mpmath.log1p(-xm)
        if branch is Branch.ONE:
            return mpmath.expm1(xm)
        if branch is Branch.NEG_ONE:
            return mpmath.log1p(xm)
        if branch is Branch.NEG_INF:
            return -mpmath.expm1(-xm)
        lm = mpmath.mpf(lam)
        if branch is Branch.POS:
            return lm * mpmath.expm1(mpmath.log1p((1 - lm) / lm * xm) / (1 - lm))
        return -lm / (lm + 1) * mpmath.expm1((lm + 1) * mpmath.log1p(-xm / lm))


_EDGE_LAMS = [
    -math.inf, -1e300, -4.6e15, -1e5, -2.0, -1.0 - 1e-8, -1.0, -1.0 + 1e-8, -0.5,
    -1e-300, 0.0, 1e-300, 0.5, 1.0 - 1e-8, 1.0, 1.0 + 1e-8, 2.0, 1e5, 4.6e15, 1e300, math.inf,
]
_EDGE_XS = [
    0.0, -0.0, 5e-324, 1.64e-318, 5.4e-313, sys.float_info.min, 1e-60, 1e-8, 0.37, 1.0, 36.0,
    710.0, 1e20, 1e154, 1e300, sys.float_info.max, math.inf, -1e-300, -0.5, -1.0, -3.0,
]


def _seeded_draw(n: int = 1600):
    rng = random.Random(16)
    draw = [(x, lam) for lam in _EDGE_LAMS for x in _EDGE_XS]
    while len(draw) < n:
        sign = rng.choice([1.0, -1.0])
        lam = rng.choice([
            sign * 10.0 ** rng.uniform(-300, 300),
            sign * (1.0 + rng.choice([1.0, -1.0]) * 10.0 ** rng.uniform(-16, -1)),
            rng.uniform(-3.0, 3.0),
        ])
        x = rng.choice([10.0 ** rng.uniform(-323.5, 308.25), -(10.0 ** rng.uniform(-323, 1))])
        draw.append((x, lam))
    return draw


def test_decimal_oracle_equals_mpmath_to_the_bit():
    # decimal and mpmath are independent wide floats, one decimal and one
    # binary, so both rounding to the same double pins every branch's formula
    draw = _seeded_draw()
    assert {classify(lam) for _, lam in draw} == set(Branch)
    for x, lam in draw:
        want = _mpmath_transform(x, lam)
        if isinstance(want, mpmath.mpc):
            with pytest.raises(ValueError):
                oracle_transform(x, lam)
            continue
        got = oracle_transform(x, lam)
        assert float.hex(got) == float.hex(float(want)), (x, lam)


class TestSweep:
    def test_default_grid_contents(self):
        grid = default_lambda_grid()
        assert 1.0 + 1e-8 in grid
        assert -1.0 - 1e-8 in grid
        assert 1.0 in grid and -1.0 in grid  # decade grid includes them
        assert 1e6 in grid and -1e6 in grid
        assert grid == sorted(grid)
        # dense pass avoids the exactly singular scaffolding points
        assert 0.0 not in grid

    def test_default_grid_dense_pass_is_numpy_linspace(self):
        # the plain-float linspace gives numpy's 120 nodes bit for bit, so
        # the grid keeps every dense lam numpy gave, and its 166 entries
        from rootpow.core import _sorted_linspace

        nodes = np.linspace(-3.0, 3.0, 120).tolist()
        assert [v.hex() for v in _sorted_linspace(-3.0, 3.0, 120)] == [v.hex() for v in nodes]
        grid = default_lambda_grid()
        assert {v for v in nodes if abs(v) != 1.0 and v != 0.0} <= set(grid)
        assert len(grid) == 166

    @pytest.mark.parametrize("x_lo,x_hi,n", [
        (0.01, 1.0, 128), (1e-300, 1e300, 50), (5e-324, sys.float_info.max, 33),
        (0.5, math.nextafter(0.5, 1.0), 3), (3.0, 7.0, 2),
    ])
    def test_x_grid_is_a_wide_reference_rounded_once(self, monkeypatch, x_lo, x_hi, n):
        # each x is exp(ln x_lo + i (ln x_hi - ln x_lo)/(n - 1)): at 100
        # digits, rounded once to a double, it is the same double, and the
        # ends are x_lo and x_hi themselves
        xs = []
        monkeypatch.setattr(rootpow.accuracy, "transform", lambda x, lam: xs.append(x) or x)
        error_sweep([0.0], x_lo=x_lo, x_hi=x_hi, n=n)
        with decimal.localcontext(decimal.Context(prec=100)):
            ln_lo = Decimal(x_lo).ln()
            step = (Decimal(x_hi).ln() - ln_lo) / (n - 1)
            want = [float((ln_lo + i * step).exp()) for i in range(n)]
        assert [x.hex() for x in xs] == [x.hex() for x in want]
        assert xs[0] == x_lo and xs[-1] == x_hi

    def test_row_structure(self):
        report = error_sweep([0.5, 1.0, 0.0], n=16)
        by_lam = {row.lam: row for row in report.rows}
        assert by_lam[0.5].err_naive is not None
        assert by_lam[1.0].err_naive is None  # the scaffolding divides by zero
        assert by_lam[0.0].err_naive is None  # unsupported branch
        for row in report.rows:
            assert row.err_stable >= sys.float_info.min

    def test_nan_naive_row_is_stable_only(self):
        # 2|lam| overflows in the naive form's scale, which was inf/-inf = NaN
        # and made the row's naive error NaN
        report = error_sweep([-1e308], n=4)
        assert report.rows[0].err_naive is None

    def test_default_grid_at_two_samples(self):
        report = error_sweep(n=2)
        assert [row.lam for row in report.rows] == default_lambda_grid()
        assert len(report.rows) == 166

    def test_zero_error_floor(self):
        # Near-one shapes round to the truth at every sample, so the
        # stable column sits exactly on the floor.
        report = error_sweep([1.0 + 1e-8], n=16)
        assert report.rows[0].err_stable == pytest.approx(sys.float_info.min, rel=1e-12)

    def test_friendly_region_is_tiny(self):
        # Closed-form-friendly shape: stable path errors stay far below
        # everything of interest.
        report = error_sweep([-0.5], n=64)
        assert report.rows[0].err_stable <= 1e-15

    def test_near_singular_ratio(self):
        report = error_sweep([1.0 + 1e-8, 1.0 - 1e-8, -1.0 + 1e-8, -1.0 - 1e-8], n=32)
        for row in report.rows:
            assert row.err_naive / row.err_stable >= 1e3, row

    def test_validation(self):
        with pytest.raises(ValueError):
            error_sweep(x_lo=0.0)
        with pytest.raises(ValueError):
            error_sweep(n=1)

    @pytest.mark.parametrize("lams, want", [
        ([1, np.float64(0.5), True], [0.5, 1.0, 1.0]),
        (["0.5"], None),
        ([0.5, "0.25"], None),
    ], ids=["int-numpy-bool", "str", "float-and-str"])
    def test_each_lam_is_read_as_a_float(self, lams, want):
        # each lam is read as the shape readers read it, so the rows hold
        # floats that sort and print whatever number type came in, and a
        # str, which is not a number, is refused (want None) as it is there
        if want is None:
            with pytest.raises(ValueError, match="^shape parameter lam must be a number, got '"):
                error_sweep(lams, n=2)
            return
        report = error_sweep(lams, n=2)
        assert [row.lam for row in report.rows] == want
        assert all(type(row.lam) is float for row in report.rows)
        lines = report_to_csv(report).splitlines()[1:]
        assert [float(line.split(",")[0]) for line in lines] == want

    @pytest.mark.parametrize("x_hi", [math.inf, math.nan])
    def test_non_finite_window_rejected(self, x_hi):
        with pytest.raises(ValueError):
            error_sweep([0.5], x_hi=x_hi)

    def test_csv_round_trip(self):
        report = error_sweep([0.5, 0.0], n=16)
        text = report_to_csv(report)
        lines = text.strip().split("\n")
        assert lines[0] == "lambda,err_naive,err_stable"
        for line, row in zip(lines[1:], report.rows):
            lam_s, naive_s, stable_s = line.split(",")
            assert float(lam_s) == row.lam
            assert float(stable_s) == row.err_stable
            if row.err_naive is None:
                assert naive_s == ""
            else:
                assert float(naive_s) == row.err_naive
