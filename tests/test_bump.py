"""Bump family: support, classic identity, limit directions."""

import math

import numpy as np
import pytest

from rootpow.families import bump

from oracles import bump_classic


def test_peak_is_one():
    for lam in [1.0 + 1e-9, 1.5, 2.0, 100.0, 1e12]:
        assert bump(0.0, lam) == 1.0


def test_zero_outside_unit_interval():
    for lam in [1.0 + 1e-6, 2.0, 50.0]:
        for x in [-5.0, -1.0, 1.0, 1.0 + 1e-16, 3.0]:
            assert bump(x, lam) == 0.0


def test_closed_form_point():
    # exp(lam * (1 - (1 - x^2)^(1/(1-lam)))) at lam=2, x=0.5 is exp(-2/3).
    assert bump(0.5, 2.0) == pytest.approx(math.exp(-2.0 / 3.0), rel=1e-14)


def test_rejects_out_of_range_shape():
    for lam in [1.0, 0.5, -2.0, math.inf, 1.0 - 1e-12]:
        with pytest.raises(ValueError):
            bump(0.3, lam)


def test_classic_values():
    assert bump_classic(0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert bump_classic(1.0) == 0.0
    assert bump_classic(-2.0) == 0.0


def test_classic_identity():
    # The squared, e-scaled classic bump is the lam = 2 member.
    for x in np.linspace(-1.0, 1.0, 2001):
        x = float(x)
        want = (math.e * bump_classic(x)) ** 2
        assert abs(bump(x, 2.0) - want) <= 1e-12


def test_range_and_symmetry():
    for lam in [1.001, 2.0, 7.0, 300.0]:
        for x in np.linspace(-1.2, 1.2, 241):
            x = float(x)
            value = bump(x, lam)
            assert 0.0 <= value <= 1.0
            assert value == bump(-x, lam)
            if x != 0.0:
                assert value < 1.0


def test_near_dirac_direction():
    lam = 1.0 + 1e-6
    assert bump(0.0, lam) == 1.0
    for x in np.linspace(0.1, 0.999, 50):
        assert bump(float(x), lam) <= 1e-6


def test_wide_shape_trend_is_monotone():
    # Toward the flat-support limit the profile rises pointwise; direction
    # pinned by evaluating the closed form at increasing decade shapes.
    for x in [0.3, 0.6, 0.9]:
        seq = [bump(x, 10.0**k) for k in range(1, 7)]
        assert all(b >= a for a, b in zip(seq, seq[1:])), (x, seq)
        assert seq[-1] == pytest.approx(1.0 - x * x, rel=1e-4)
