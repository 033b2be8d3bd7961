"""Signed transform stitching and the activation reconstructions."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootpow.core import max_domain, transform
from rootpow.families import relu, sigmoid, signed_transform, softplus, tanh

from oracles import elu_reference

SHAPES = st.sampled_from([-math.inf, -2.0, -0.5, 0.0, 0.5, 2.0, math.inf])


class TestStitching:
    def test_values(self):
        assert signed_transform(-1.0, 1.0, -1.0) == -math.log(2.0)
        assert signed_transform(0.0, 3.0, -7.0) == 0.0
        assert signed_transform(1.0, 1.0, -math.inf) == pytest.approx(math.e - 1.0, rel=1e-15)

    @given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), SHAPES, SHAPES)
    @settings(max_examples=200)
    def test_mirror_is_exact(self, x, lam_pos, lam_neg):
        assert signed_transform(-x, lam_pos, lam_neg) == -transform(x, lam_neg)
        assert signed_transform(x, lam_pos, lam_neg) == transform(x, lam_pos)

    def test_equal_shapes_reduce_to_odd_extension(self):
        for lam in [-2.0, -0.5, 0.7, 3.0]:
            for x in [-2.5, -0.1, 0.4, 1.9]:
                want = math.copysign(1.0, x) * transform(abs(x), lam)
                assert signed_transform(x, lam, lam) == want

    def test_slope_one_at_zero(self):
        h = 1e-7
        for lam_pos in [-2.0, -0.5, 0.0, 0.5, 2.0]:
            for lam_neg in [-2.0, -0.5, 0.0, 0.5, 2.0]:
                slope = (
                    signed_transform(h, lam_pos, lam_neg)
                    - signed_transform(-h, lam_pos, lam_neg)
                ) / (2.0 * h)
                assert abs(slope - 1.0) <= 1e-6, (lam_pos, lam_neg)

    def test_self_inverse_with_negated_shapes(self):
        shapes = [-2.0, -0.5, 0.0, 0.5, 2.0]
        for lam_pos in shapes:
            for lam_neg in shapes:
                # Same invertibility window as the scalar core: inputs and
                # their images must stay clear of domain poles/saturation.
                x_hi = 0.9 * min(max_domain(lam_pos), max_domain(-lam_pos), 5.0)
                x_lo = -0.9 * min(max_domain(lam_neg), max_domain(-lam_neg), 5.0)
                for x in np.linspace(x_lo, x_hi, 41):
                    x = float(x)
                    y = signed_transform(x, lam_pos, lam_neg)
                    back = signed_transform(y, -lam_pos, -lam_neg)
                    assert abs(back - x) <= 1e-9 * (1.0 + abs(x)), (lam_pos, lam_neg, x)


class TestActivations:
    XS = np.arange(-30.0, 30.0 + 1e-9, 0.01)

    def test_softplus(self):
        for x in self.XS:
            x = float(x)
            want = math.log1p(math.exp(-abs(x))) + max(x, 0.0)
            assert abs(softplus(x) - want) <= 1e-9, x

    def test_softplus_tails(self):
        assert softplus(-20.0) == pytest.approx(math.exp(-20.0), rel=1e-6)
        assert softplus(20.0) == pytest.approx(20.0, abs=1e-6)
        assert softplus(0.0) == math.log(2.0)

    def test_softplus_past_expm1_overflow(self):
        # e**x overflows past 709.78; the reconstruction must not
        for x in [709.8, 710.0, 1e300, sys.float_info.max]:
            assert softplus(x) == x
        assert softplus(-1e300) == 0.0

    def test_sigmoid(self):
        for x in self.XS:
            x = float(x)
            want = 1.0 / (1.0 + math.exp(-x))
            assert abs(sigmoid(x) - want) <= 1e-9, x

    def test_sigmoid_special_points(self):
        assert sigmoid(0.0) == 0.5
        assert sigmoid(30.0) == pytest.approx(1.0, abs=1e-9)
        # x = -ln 2 sends the inner call through the exact-zero branch.
        assert sigmoid(-math.log(2.0)) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_tanh(self):
        for x in self.XS:
            x = float(x)
            assert abs(tanh(x) - math.tanh(x)) <= 1e-9, x

    def test_tanh_odd(self):
        assert tanh(0.0) == 0.0
        assert tanh(1.0) == pytest.approx(math.tanh(1.0), abs=1e-9)
        assert tanh(-1.0) == -tanh(1.0)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


def same_bits(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


class TestPaperReconstructions:
    """The activations equal the paper's signed-transform compositions bit
    for bit, sign of zero included, over every finite double."""

    @given(FINITE)
    @settings(max_examples=500)
    def test_softplus(self, x):
        s = signed_transform
        if x <= 0.0:
            assert same_bits(softplus(x), s(s(x, 1.0, -math.inf) + 1.0, -1.0, 0.0)), x
        else:
            assert same_bits(softplus(x), x + softplus(-x)), x

    @given(FINITE)
    @settings(max_examples=500)
    def test_sigmoid(self, x):
        s = signed_transform
        want = 0.5 * s(s(x + math.log(2.0), 1.0, -math.inf) + 1.0, -2.0, 0.0)
        assert same_bits(sigmoid(x), want), x

    @given(FINITE)
    @settings(max_examples=500)
    def test_tanh(self, x):
        s = signed_transform
        assert same_bits(tanh(x), 0.5 * s(s(2.0 * x, 1.0, -math.inf), -2.0, 2.0)), x


class TestRelu:
    def test_matches_ramp_for_domain_safe_shapes(self):
        # The identity needs x - 2 below the negative-side shape's domain
        # bound, so shapes with max_domain > 8 cover all of [-10, 10].
        for lam_neg in [-3.0, 0.5, 1.0, 1.1]:
            for x in np.arange(-10.0, 10.0 + 1e-9, 0.01):
                x = float(x)
                assert abs(relu(x, lam_neg) - max(0.0, x)) <= 1e-9, (lam_neg, x)

    def test_bounded_domain_shapes_on_their_valid_range(self):
        # lam_neg = 2 holds while x < 2 + max_domain(2) = 4; +inf while
        # x < 3.  Beyond that the clamp destroys the round trip (the
        # composition is only an identity where the inner shape can invert).
        for lam_neg, hi in [(2.0, 3.95), (math.inf, 2.95)]:
            for x in np.arange(-10.0, hi, 0.01):
                x = float(x)
                assert abs(relu(x, lam_neg) - max(0.0, x)) <= 1e-9, (lam_neg, x)

    def test_spot_values(self):
        assert abs(relu(-3.0, 7.0)) <= 1e-9
        assert relu(1.0, 0.0) == pytest.approx(1.0, rel=1e-12)
        # x = 4 with shape 2 sits exactly at the inner domain edge, where
        # the clamp pair still cancels to 4 minus one rounding
        assert relu(4.0, 2.0) == pytest.approx(4.0, rel=1e-9)

    def test_negative_side_independent_of_shape(self):
        for lam_neg in [-5.0, -1.0, 0.0, 0.5, 2.0, 40.0, math.inf]:
            for x in [-10.0, -2.0, -0.01]:
                assert abs(relu(x, lam_neg)) <= 1e-9, (lam_neg, x)


@pytest.mark.parametrize("lam_neg", [0.0, -0.5, -1.0, -2.0, 0.5, 1.0])
def test_relu_of_a_nonpositive_x_is_tiny_but_not_zero(lam_neg):
    # the lam = 2 stage clamps just below its pole, 2, and does not
    # saturate at inf, so the outer 2 - ... leaves 2**-52, not 0
    xs = [-math.inf, -1e300, -10.0, -1.0, -1e-300, -5e-324, -0.0, 0.0]
    for x in xs:
        assert 0.0 < relu(x, lam_neg) <= 2.0**-50, (lam_neg, x)
    values = relu(np.array(xs), lam_neg)
    assert np.all((0.0 < values) & (values <= 2.0**-50)), (lam_neg, values)


class TestElu:
    def test_reference(self):
        assert elu_reference(1.0) == 1.0
        assert elu_reference(-1.0) == math.exp(-1.0) - 1.0

    def test_family_membership(self):
        for x in np.arange(-10.0, 10.0 + 1e-9, 0.01):
            x = float(x)
            got = signed_transform(x, 0.0, -math.inf)
            assert abs(got - elu_reference(x)) <= 1e-12, x
