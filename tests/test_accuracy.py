"""Accuracy harness: wide-float oracle, error sweep, CSV rendering."""

import math
import sys

import pytest

import numpy as np

from rootpow.accuracy import (
    default_lambda_grid,
    error_sweep,
    oracle_transform,
    report_to_csv,
)
from rootpow.core import max_domain, transform, transform_naive

from conftest import stable_ulp_budget, ulps_apart


class TestOracle:
    def test_known_constant_correctly_rounded(self):
        assert oracle_transform(1.0, -1.0) == math.log(2.0)

    def test_agrees_with_stable_path(self):
        # The stable path should be within a couple ulps of truth in the
        # benign region.
        assert ulps_apart(transform(0.5, 0.25), oracle_transform(0.5, 0.25)) <= 2.0

    def test_precision_self_consistency(self):
        # x = 1e-60 at lam = -1 and inf: 1 +- x rounds to 1 at 50 digits,
        # so the log1p forms are what keep the two precisions together
        for lam in [0.25, -0.75, 1.0 + 1e-8, -1.0 - 1e-8, 3.0, -1e6, -1.0, math.inf]:
            for x in [1e-60, 0.01, 0.37, 1.0]:
                assert oracle_transform(x, lam, dps=50) == oracle_transform(x, lam, dps=100)

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

    def test_row_structure(self):
        report = error_sweep([0.5, 1.0, 0.0], n=16)
        by_lam = {row.lam: row for row in report.rows}
        assert by_lam[0.5].err_naive is not None
        assert by_lam[1.0].err_naive is None  # ZeroDivision in scaffolding
        assert by_lam[0.0].err_naive is None  # unsupported branch
        for row in report.rows:
            assert row.err_stable >= sys.float_info.min

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
