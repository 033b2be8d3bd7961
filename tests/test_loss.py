"""Robust loss family against its named closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootpow.families import LOSS_REFERENCE_LAMBDAS, loss

from oracles import loss_reference


class TestValues:
    def test_quadratic(self):
        assert loss(2.0, 0.0, 1.0) == 2.0

    def test_geman_mcclure_point(self):
        assert loss(2.0, -2.0, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_charbonnier_point(self):
        assert loss(1.0, -0.5, 1.0) == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-14)

    def test_reference_spot_values(self):
        assert loss_reference(1.0, "Cauchy", 1.0) == pytest.approx(math.log(1.5), rel=1e-15)
        assert loss_reference(0.0, "Welsch", 1.0) == 0.0
        assert loss_reference(2.0, "GemanMcClure", 1.0) == 1.0

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            loss_reference(1.0, "huber")

    def test_rejects_bad_scale(self):
        for c in [0.0, -1.0, math.nan, math.inf]:
            with pytest.raises(ValueError):
                loss(1.0, 0.0, c)


class TestOracleEquivalence:
    def test_named_losses_match_family(self):
        for name, lam in LOSS_REFERENCE_LAMBDAS.items():
            for c in [0.1, 1.0, 7.0]:
                for x in np.linspace(-10.0 * c, 10.0 * c, 201):
                    x = float(x)
                    got = loss(x, lam, c)
                    want = loss_reference(x, name, c)
                    assert abs(got - want) <= 1e-12 * (1.0 + abs(want)), (name, c, x)


class TestShape:
    @given(
        st.floats(min_value=-1e8, max_value=1e8, allow_nan=False),
        st.sampled_from([-math.inf, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, math.inf]),
        st.floats(min_value=0.05, max_value=20.0),
    )
    @settings(max_examples=200)
    def test_even_and_nonnegative(self, x, lam, c):
        value = loss(x, lam, c)
        assert value >= 0.0
        assert value == loss(-x, lam, c)

    def test_zero_residual(self):
        for lam in [-math.inf, -1.0, 0.0, 1.0, math.inf]:
            assert loss(0.0, lam, 3.0) == 0.0

    def test_scale_consistency(self):
        for lam in [-math.inf, -2.0, 0.0, 0.5, 2.0]:
            for c in [0.25, 1.5, 6.0]:
                for x in [-4.2, -0.3, 0.9, 5.5]:
                    assert loss(x, lam, c) == loss(x / c, lam, 1.0)

    def test_monotone_in_shape(self):
        # Ordering is inherited from the core transform, so it holds where
        # the squared argument is inside each shape's domain; clamped
        # (saturated) members are excluded since their cap values depend on
        # where the clamp lands, not on the shape ordering.
        from rootpow.core import max_domain

        lams = [-math.inf, -1e4, -10.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 10.0, math.inf]
        for x in [0.3, 1.0, 1.35]:
            u = 0.5 * x * x
            vals = [loss(x, lam, 1.0) for lam in lams if u < max_domain(lam)]
            assert len(vals) >= 10
            assert all(b >= a for a, b in zip(vals, vals[1:])), x

    def test_saturates_instead_of_nan_above_one(self):
        # 0.5 x**2 outruns the domain for lam > 1; the clamp caps the loss
        # at the branch's near-pole value instead of producing NaN.
        for lam in [1.5, 2.0, 7.0, math.inf]:
            value = loss(100.0, lam, 1.0)
            assert not math.isnan(value)
            assert value > 30.0
            assert value >= loss(1.0, lam, 1.0)

    def test_square_past_binary64_range_saturates(self):
        # (x/c)**2 overflows near |x/c| = 1.3e154; the transform maps the
        # inf to its saturation level, lam / (lam + 1) for lam < -1
        assert loss(1e200, -2.0) == 2.0
        assert loss(-1e200, -2.0) == 2.0
        assert loss(1.0, -2.0, 1e-200) == 2.0
        assert loss(1e200, -math.inf) == 1.0
        assert loss(1e200, 0.0) == math.inf
