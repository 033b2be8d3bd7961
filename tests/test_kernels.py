"""Kernel family: named closed forms, loss-gradient consistency, weights."""

import math

import numpy as np
import pytest

from rootpow.core import max_domain
from rootpow.kernel import (
    KERNEL_REFERENCE_LAMBDAS,
    irls_weight,
    kernel,
    kernel_reference,
)
from rootpow.loss import loss


class TestValues:
    def test_gaussian_at_unit_distance(self):
        assert kernel(1.0, -math.inf, 1.0) == pytest.approx(math.exp(-0.5), rel=1e-15)

    def test_inverse_multiquadric(self):
        assert kernel(1.0, -0.5, 1.0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)

    def test_flat_shape(self):
        assert kernel(3.0, 0.0, 0.2) == 1.0

    def test_multiquadric(self):
        assert kernel(1.0, 1.0 / 3.0, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_reference_spot_values(self):
        assert kernel_reference(1.0, "Inverse", 1.0) == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert kernel_reference(2.0, "Quadratic", 1.0) == 3.0
        assert kernel_reference(0.0, "Gaussian", 1.0) == 1.0

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            kernel_reference(1.0, "matern")
        with pytest.raises(ValueError):
            kernel_reference(1.0, "RationalQuadratic")  # missing lam


class TestOracleEquivalence:
    def test_named_kernels(self):
        for name, lam in KERNEL_REFERENCE_LAMBDAS.items():
            for c in [0.5, 1.0, 4.0]:
                for x in np.linspace(0.0, 10.0 * c, 300):
                    x = float(x)
                    got = kernel(x, lam, c)
                    want = kernel_reference(x, name, c)
                    assert abs(got - want) <= 1e-12 * abs(want), (name, c, x)

    def test_rational_quadratic_shapes(self):
        for lam in [-0.7, -2.0, -5.0]:
            for x in np.linspace(0.0, 10.0, 150):
                x = float(x)
                got = kernel(x, lam, 1.0)
                want = kernel_reference(x, "RationalQuadratic", 1.0, lam=lam)
                assert abs(got - want) <= 1e-12 * abs(want), (lam, x)


class TestShape:
    LAMS = [-math.inf, -5.0, -1.0, -0.5, 0.0, 0.5, 1.0]

    def test_unit_at_origin(self):
        for lam in self.LAMS + [2.0, math.inf]:
            assert kernel(0.0, lam, 1.0) == 1.0

    def test_positive_and_even(self):
        for lam in self.LAMS:
            for x in np.linspace(-8.0, 8.0, 81):
                x = float(x)
                value = kernel(x, lam, 2.0)
                assert value > 0.0
                assert value == kernel(-x, lam, 2.0)

    def test_ordering_toward_gaussian(self):
        # At fixed distance below c * sqrt(2), lowering the shape lowers
        # the kernel toward the Gaussian limit.
        lams = [0.0, -0.25, -1.0, -3.0, -30.0, -math.inf]
        for x in [0.3, 0.9, 1.4]:
            vals = [kernel(x, lam, 1.0) for lam in lams]
            assert all(b <= a for a, b in zip(vals, vals[1:])), x


class TestLossConsistency:
    def test_matches_scaled_loss_gradient(self):
        # kernel = (c^2 / x) * d loss / dx, via centered differences.  For
        # shapes above 1 the window stays inside the bounded support.
        for lam in [-math.inf, -5.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]:
            for c in [0.5, 1.0, 3.0]:
                hi = 5.0 * c
                if lam > 1.0:
                    hi = min(hi, 0.9 * c * math.sqrt(2.0 * max_domain(lam)))
                for x in np.linspace(0.1 * c, hi, 60):
                    x = float(x)
                    h = (2.2e-16) ** (1.0 / 3.0) * x
                    fd = (loss(x + h, lam, c) - loss(x - h, lam, c)) / (2.0 * h)
                    got = kernel(x, lam, c)
                    want = (c * c / x) * fd
                    assert abs(got - want) <= 1e-5 * abs(got), (lam, c, x, got, want)


class TestIrlsWeight:
    def test_zero_residual(self):
        assert irls_weight(0.0, -2.0, 1.0) == 1.0

    def test_flat_shape_ignores_residual(self):
        for r in [-100.0, 0.5, 42.0]:
            assert irls_weight(r, 0.0, 1.0) == 1.0

    def test_gaussian_outlier_weight(self):
        assert irls_weight(10.0, -math.inf, 1.0) == pytest.approx(math.exp(-50.0), rel=1e-13)


class TestBinary64Extremes:
    def test_square_past_binary64_range(self):
        # (x/c)**2 overflows near |x/c| = 1.3e154; the kernel decays to 0
        # for lam < 0 and stays 1 at lam = 0 instead of raising
        assert kernel(1e200, -2.0) == 0.0
        assert kernel(-1e300, -math.inf) == 0.0
        assert kernel(1.0, -1.0, 1e-200) == 0.0
        assert irls_weight(1e200, 0.0) == 1.0
