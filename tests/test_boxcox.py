"""Box-Cox evaluators and the exact bridge in both directions."""

import math

import mpmath
import numpy as np
import pytest

from rootpow.core import UnsupportedBranchError, max_domain, transform
from rootpow.families import boxcox, boxcox_normalized, boxcox_via_transform, transform_via_boxcox


class TestBoxCox:
    def test_power_row(self):
        assert boxcox(1.0, 2.0) == pytest.approx(1.5, rel=1e-15)

    def test_log_row(self):
        assert boxcox(math.e - 1.0, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_zero_fixed_point(self):
        assert boxcox(0.0, 7.0) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            boxcox(-1.0, 0.5)
        with pytest.raises(ValueError):
            boxcox(-2.0, 2.0)
        with pytest.raises(ValueError):
            boxcox(1.0, math.inf)

    def test_monotone_in_x(self):
        for lam in [-3.0, -1.0, 0.0, 0.5, 1.0, 2.5]:
            xs = np.linspace(-0.95, 20.0, 300)
            vals = [boxcox(float(x), lam) for x in xs]
            assert all(b > a for a, b in zip(vals, vals[1:])), lam


class TestNormalized:
    def test_identity_at_one(self):
        assert boxcox_normalized(0.4, 1.0) == 0.4

    def test_log_at_zero(self):
        assert boxcox_normalized(1.0, 0.0) == math.log(2.0)

    def test_above_one_row(self):
        assert boxcox_normalized(1.0, 2.0) == pytest.approx(1.5, rel=1e-14)

    def test_slope_and_curvature_at_zero(self):
        h = 1e-5
        for lam in [-2.0, -0.5, 0.0, 0.5, 1.5, 3.0]:
            up = boxcox_normalized(h, lam)
            dn = boxcox_normalized(-h, lam)
            slope = (up - dn) / (2.0 * h)
            assert abs(slope - 1.0) <= 1e-6, lam
            second = up - 2.0 * boxcox_normalized(0.0, lam) + dn
            assert math.copysign(1.0, second) == math.copysign(1.0, lam - 1.0), lam

    def test_out_of_domain(self):
        # lam = 3 branch needs x > -(lam - 1) = -2.
        with pytest.raises(ValueError):
            boxcox_normalized(-2.5, 3.0)

    @pytest.mark.parametrize("lam", [1.0 + sign * 10.0**-k for k in (3, 5, 7, 10, 13)
                                     for sign in (-1.0, 1.0)])
    def test_within_64_ulps_next_to_one(self, lam):
        # |1 - lam| is exact next to 1, where a 1/lam - 1 scale cancels
        denom = abs(1.0 - lam)
        with mpmath.workdps(40):
            lm = mpmath.mpf(lam)
            for x in (-0.99 * denom, -0.5 * denom, 0.1, 1.0, 3.0):
                scale = abs(1 - lm)
                want = float(scale / lm * mpmath.expm1(lm * mpmath.log1p(mpmath.mpf(x) / scale)))
                got = boxcox_normalized(x, lam)
                assert abs(got - want) <= 64 * math.ulp(want), (lam, x, got, want)


class TestBridgeForward:
    def test_zero_shape_is_identity(self):
        assert transform_via_boxcox(0.7, 0.0) == 0.7

    def test_log_shape(self):
        assert transform_via_boxcox(1.0, -1.0) == pytest.approx(math.log(2.0), rel=1e-14)

    def test_spot_value(self):
        assert transform_via_boxcox(1.0, 0.5) == pytest.approx(1.5, rel=1e-12)

    def test_matches_direct_transform(self):
        for lam in [-3.0, -1.5, -0.5, 0.5, 1.5, 3.0]:
            hi = 0.9 * min(max_domain(lam), 20.0)
            for x in np.linspace(0.0, hi, 120):
                x = float(x)
                got = transform_via_boxcox(x, lam)
                want = transform(x, lam)
                assert abs(got - want) <= 1e-10 * (1.0 + abs(want)), (lam, x)

    def test_bridge_gaps(self):
        with pytest.raises(UnsupportedBranchError):
            transform_via_boxcox(0.5, 1.0)
        with pytest.raises(UnsupportedBranchError):
            transform_via_boxcox(0.5, math.inf)


class TestBridgeReverse:
    def test_identity_parameter(self):
        assert boxcox_via_transform(0.9, 1.0) == 0.9

    def test_spot_values(self):
        assert boxcox_via_transform(1.0, 2.0) == pytest.approx(1.5, rel=1e-12)
        assert boxcox_via_transform(0.5, -1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_matches_direct_boxcox(self):
        # The split between the two delegate rows is at parameter 1 (both
        # printed rows claim (0, 1); only the lam - 1 route is right there).
        for lam in [-2.0, -0.5, 0.5, 1.0, 2.0, 4.0]:
            for x in np.linspace(0.0, 5.0, 120):
                x = float(x)
                got = boxcox_via_transform(x, lam)
                want = boxcox(x, lam)
                assert abs(got - want) <= 1e-10 * (1.0 + abs(want)), (lam, x)
