"""Core transform: branches, domains, stable/naive/inverse/derivative."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootpow.core import (
    Branch,
    UnsupportedBranchError,
    branch_plan,
    classify,
    derivative,
    inverse,
    max_domain,
    parse_lambda,
    render_lambda,
    transform,
    transform_naive,
)
from rootpow.kernel import irls_weight, kernel
from rootpow.loss import loss

from conftest import (
    closed_form_ulp_allowance,
    invertible_x_grid,
    stable_ulp_budget,
    ulps_apart,
)

EPS = sys.float_info.epsilon
TINY = sys.float_info.min

# Closed forms for the simple-fraction shapes, algebraically rearranged so
# no "pow minus one" cancellation pollutes the oracle at small x; they
# share nothing with the expm1/log1p evaluation path.
CLOSED_FORMS = {
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

LAMBDA_GRID = [
    -math.inf, -1e6, -10.0, -2.0, -1.0 - 1e-8, -1.0 + 1e-8, -0.5,
    0.0, 0.5, 1.0 - 1e-8, 1.0 + 1e-8, 2.0, 10.0, 1e6, math.inf,
]


class TestLambdaParsing:
    def test_round_trip_inf(self):
        for text in ["inf", "-inf"]:
            assert render_lambda(parse_lambda(text)) == text

    def test_round_trip_decimals(self):
        for value in [0.0, 1.0, -2.5, 0.3333333333333333, 1e300]:
            assert parse_lambda(render_lambda(value)) == value

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            parse_lambda("nan")
        with pytest.raises(ValueError):
            transform(0.5, math.nan)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_lambda("zero")


class TestClassify:
    def test_window_examples(self):
        assert classify(0.0) is Branch.ZERO
        assert classify(1.0) is Branch.ONE
        assert classify(-2.0) is Branch.NEG

    def test_window_edges(self):
        assert classify(1.0 + EPS) is Branch.POS
        assert classify(1.0 - EPS) is Branch.POS
        assert classify(-1.0 - EPS) is Branch.NEG
        assert classify(1.0 / EPS) is Branch.POS
        assert classify(math.nextafter(1.0 / EPS, math.inf)) is Branch.POS_INF
        assert classify(TINY) is Branch.POS
        assert classify(math.inf) is Branch.POS_INF
        assert classify(-math.inf) is Branch.NEG_INF

    @given(st.floats(allow_nan=False, allow_infinity=True))
    @settings(max_examples=300)
    def test_total_and_exclusive(self, lam):
        branch = classify(lam)
        memberships = [
            lam > 1.0 / EPS,
            abs(lam - 1.0) < EPS,
            abs(lam) < TINY,
            abs(lam + 1.0) < EPS,
            lam < -1.0 / EPS,
        ]
        assert sum(memberships) <= 1
        expected = {
            0: Branch.POS_INF,
            1: Branch.ONE,
            2: Branch.ZERO,
            3: Branch.NEG_ONE,
            4: Branch.NEG_INF,
        }
        if any(memberships):
            assert branch is expected[memberships.index(True)]
        else:
            assert branch is (Branch.POS if lam > 0 else Branch.NEG)


class TestBranchPlan:
    def test_plans_reproduce_case_table(self):
        # post * expm1?(mid * log1p?(pre * x)) must equal the closed row.
        rows = {
            math.inf: lambda x: -math.log1p(-x),
            1.0: lambda x: math.expm1(x),
            0.25: lambda x: 0.25 * ((1.0 + 3.0 * x) ** (1.0 / 0.75) - 1.0),
            0.0: lambda x: x,
            -0.25: lambda x: (1.0 / 3.0) * ((1.0 + 4.0 * x) ** 0.75 - 1.0),
            -1.0: lambda x: math.log1p(x),
            -math.inf: lambda x: -math.expm1(-x),
        }
        for lam, row in rows.items():
            plan = branch_plan(lam)
            for x in [0.0, 0.125, 0.5, 0.9]:
                t = plan.pre_scale * x
                if not plan.skip_log:
                    t = math.log1p(t)
                t = plan.mid_scale * t
                if not plan.skip_exp:
                    t = math.expm1(t)
                assert plan.post_scale * t == pytest.approx(row(x), rel=1e-14)


class TestMaxDomain:
    def test_unbounded_at_or_below_one(self):
        for lam in [-math.inf, -3.0, 0.0, 0.5, 1.0]:
            assert max_domain(lam) == math.inf

    def test_pole_for_finite_above_one(self):
        assert max_domain(2.0) == math.nextafter(2.0, -math.inf)
        assert max_domain(1.5) < 3.0
        assert max_domain(1.5) > 3.0 - 1e-14

    def test_infinite_shape(self):
        assert max_domain(math.inf) == math.nextafter(1.0, -math.inf)


class TestStableValues:
    def test_identity(self):
        assert transform(0.5, 0.0) == 0.5

    def test_log_branch(self):
        assert transform(1.0, -1.0) == math.log(2.0)

    def test_padded_sqrt(self):
        assert transform(4.0, -0.5) == pytest.approx(2.0, abs=1e-15)

    def test_rational_pair(self):
        assert transform(1.0, 2.0) == pytest.approx(2.0, rel=1e-15)
        assert transform(1.0, -2.0) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_zero_maps_to_zero_everywhere(self):
        for lam in LAMBDA_GRID:
            assert transform(0.0, lam) == 0.0

    def test_rejects_nan_x(self):
        with pytest.raises(ValueError):
            transform(math.nan, 1.0)

    def test_closed_forms_within_four_ulps(self):
        # The window is capped at 10 for unbounded shapes and the 4-ulp
        # budget carries the shared argument-rounding allowance, which only
        # matters within ~10% of a domain edge (see conftest).
        for lam, closed in CLOSED_FORMS.items():
            hi = 0.9 * min(max_domain(lam), 10.0)
            for x in np.linspace(0.0, hi, 400):
                x = float(x)
                got = transform(x, lam)
                want = closed(x)
                budget = closed_form_ulp_allowance(x, lam)
                assert ulps_apart(got, want) <= budget, (lam, x, got, want)


class TestNaive:
    def test_matches_log_row_loosely(self):
        # Just off -1 the closed form collapses toward log1p.  The value
        # itself sits ~5e-8 from ln 2 because the function moves with the
        # shape; the naive evaluation error on top is ~1e-10 here.
        assert transform_naive(1.0, -1.0 - 1e-6) == pytest.approx(math.log(2.0), abs=1e-7)

    def test_zero_input(self):
        assert transform_naive(0.0, 0.3) == 0.0

    def test_rejects_unsupported(self):
        for lam in [0.0, math.inf, -math.inf, TINY / 2.0]:
            with pytest.raises(UnsupportedBranchError):
                transform_naive(0.5, lam)

    def test_singular_scaffolding_at_unit_shapes(self):
        with pytest.raises(ZeroDivisionError):
            transform_naive(0.5, -1.0)
        with pytest.raises(ZeroDivisionError):
            transform_naive(0.5, 1.0)

    def test_quantization_near_one(self):
        # Near 1 the pow base 1 + (1-lam)/lam * x quantizes at ulp(1) and
        # the huge exponent amplifies that to ~1e-8; the stable path stays
        # correctly rounded (oracle-checked in test_accuracy).  At shapes
        # whose offset from 1 is an exact power of two the products can
        # land on representable doubles and hide the effect, so probe a
        # decimal offset.
        lam = 1.0 + 1e-8
        naive = transform_naive(0.5, lam)
        stable = transform(0.5, lam)
        assert abs(naive - stable) > 1e-9
        assert abs(stable - math.expm1(0.5)) < 1e-7


class TestInverse:
    def test_log_exp_pair(self):
        assert inverse(math.log(2.0), -1.0) == pytest.approx(1.0, rel=1e-15)

    def test_zero_fixed_point(self):
        for lam in LAMBDA_GRID:
            assert inverse(0.0, lam) == 0.0

    def test_round_trip_spot(self):
        assert inverse(transform(0.37, 5.5), 5.5) == pytest.approx(0.37, abs=1e-12)

    def test_round_trip_grid(self):
        for lam in LAMBDA_GRID:
            for x in invertible_x_grid(lam):
                x = float(x)
                back = inverse(transform(x, lam), lam)
                assert abs(back - x) <= 1e-9 * (1.0 + abs(x)), (lam, x, back)

    @given(
        st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=300)
    def test_round_trip_random(self, lam, frac):
        xs = invertible_x_grid(lam, cap=1e4, points=2)
        x = frac * float(xs[-1])
        back = inverse(transform(x, lam), lam)
        assert abs(back - x) <= 1e-9 * (1.0 + abs(x))


class TestMonotonicity:
    def test_in_x(self):
        for lam in LAMBDA_GRID:
            hi = 0.9 * min(max_domain(lam), 1e6)
            xs = np.linspace(0.0, hi, 500)
            vals = [transform(float(x), lam) for x in xs]
            assert all(b >= a for a, b in zip(vals, vals[1:])), lam

    def test_in_lambda(self):
        lams = [-1e6, -10.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 10.0, 1e6]
        for x in [0.01, 0.5, 0.9, 1.4]:
            vals = [transform(x, lam) for lam in lams if x < max_domain(lam)]
            assert all(b >= a for a, b in zip(vals, vals[1:])), x


class TestDerivative:
    def test_unit_slope_at_zero(self):
        for lam in LAMBDA_GRID:
            assert derivative(0.0, lam) == 1.0

    def test_known_values(self):
        assert derivative(1.0, -1.0) == 0.5
        assert derivative(123.0, 0.0) == 1.0
        assert derivative(0.5, 1.0) == math.exp(0.5)

    def test_strictly_positive(self):
        for lam in LAMBDA_GRID:
            hi = 0.9 * min(max_domain(lam), 100.0)
            for x in np.linspace(0.0, hi, 50):
                assert derivative(float(x), lam) > 0.0

    def test_matches_centered_difference(self):
        for lam in LAMBDA_GRID:
            hi = 0.9 * min(max_domain(lam), 50.0)
            for x in np.linspace(0.01, hi, 40):
                x = float(x)
                h = EPS ** (1.0 / 3.0) * max(1.0, x)
                fd = (transform(x + h, lam) - transform(x - h, lam)) / (2.0 * h)
                g = derivative(x, lam)
                assert abs(g - fd) <= 1e-6 * max(1.0, g), (lam, x, g, fd)


class TestCurvature:
    def test_sign_matches_shape_sign(self):
        h = 1e-4
        for lam in [-math.inf, -5.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 5.0, math.inf]:
            second = transform(h, lam) - 2.0 * transform(0.0, lam) + transform(-h, lam)
            assert math.copysign(1.0, second) == math.copysign(1.0, lam), lam

    def test_flat_at_zero_shape(self):
        h = 1e-4
        assert transform(h, 0.0) - 2.0 * transform(0.0, 0.0) + transform(-h, 0.0) == 0.0


class TestTotality:
    @given(
        st.floats(min_value=0.0, allow_nan=False, allow_infinity=True),
        st.floats(allow_nan=False, allow_infinity=True),
    )
    @settings(max_examples=400)
    def test_never_nan_on_half_line(self, x, lam):
        assert not math.isnan(transform(x, lam))

    def test_edge_inputs(self):
        assert transform(math.inf, -2.0) == 2.0
        assert transform(math.inf, -math.inf) == 1.0
        assert transform(800.0, 1.0) == math.inf
        assert transform(max_domain(1.5), 1.5) < math.inf

    def test_clamp_edge_never_raises(self):
        # pre_scale * max_domain can round onto exactly -1; the guard must
        # absorb it for every shape above 1.
        rng = np.random.default_rng(123)
        for lam in 1.0 + 10.0 ** rng.uniform(-9, 9, 500):
            lam = float(lam)
            value = transform(max_domain(lam), lam)
            assert not math.isnan(value)

    def test_subnormal_adjacent_shapes(self):
        # Shapes between tiny and ~eps/2 classify POS/NEG but their
        # exponent rounds to zero; huge inputs must not leak 0 * inf.
        for lam in [TINY, 1e-300, 1e-17, -TINY, -1e-300, -1e-17]:
            for x in [100.0, 1e15, 1e300, math.inf]:
                assert derivative(x, lam) == 1.0
                assert not math.isnan(transform(x, lam))


class TestConcurrency:
    def test_parallel_calls_are_deterministic(self):
        # Pure functions plus thread-safe memoization: hammering the same
        # inputs from many threads must reproduce the serial answers.
        from concurrent.futures import ThreadPoolExecutor

        cases = [
            (x, lam)
            for lam in [-math.inf, -2.0, -0.5, 0.0, 1.0, 2.5, math.inf]
            for x in [0.0, 0.3, 0.9, 7.0]
        ]
        serial = [(transform(x, lam), derivative(x, lam)) for x, lam in cases]
        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(20):
                parallel = list(
                    pool.map(lambda c: (transform(c[0], c[1]), derivative(c[0], c[1])), cases)
                )
                assert parallel == serial


class TestVectorPath:
    """The public evaluators on an ndarray run numpy's ufuncs instead of
    libm, so they may differ from the float path by ulps, never more."""

    @staticmethod
    def _core_grid(lam):
        return np.linspace(0.0, 0.9 * min(max_domain(lam), 50.0), 333)

    @staticmethod
    def _residual_grid(lam, c):
        # residuals whose half square 0.5 * (x/c)**2 spans the core grid
        half = math.sqrt(2.0 * 0.9 * min(max_domain(lam), 50.0))
        return np.linspace(-half * c, half * c, 333)

    @staticmethod
    def _exp_budget(value):
        # exp(E) carries |E| times the relative error of E plus its own
        # rounding on each path: 4 + 2.5 |E| ulps, with E = log(value).
        return (4.0 + 2.5 * abs(math.log(value))) * math.ulp(value) + 5e-324

    def test_matches_scalar_within_rounding(self):
        for lam in LAMBDA_GRID:
            xs = self._core_grid(lam)
            batch = transform(xs, lam)
            for x, v in zip(xs, batch):
                x = float(x)
                want = transform(x, lam)
                budget = (stable_ulp_budget(x, lam) + 4.0) * math.ulp(abs(want)) + 5e-324
                assert abs(v - want) <= budget, (lam, x)

    def test_derivative_matches_scalar(self):
        for lam in LAMBDA_GRID:
            xs = self._core_grid(lam)
            for x, v in zip(xs, derivative(xs, lam)):
                want = derivative(float(x), lam)
                assert abs(v - want) <= self._exp_budget(want), (lam, x)

    def test_loss_matches_scalar(self):
        # same budget as the transform, taken at the half square u
        for lam in LAMBDA_GRID:
            for c in (0.5, 2.0):
                xs = self._residual_grid(lam, c)
                for x, v in zip(xs, loss(xs, lam, c)):
                    x = float(x)
                    want = loss(x, lam, c)
                    u = 0.5 * (x / c) * (x / c)
                    budget = (stable_ulp_budget(u, lam) + 4.0) * math.ulp(abs(want)) + 5e-324
                    assert abs(v - want) <= budget, (lam, c, x)

    def test_kernel_matches_scalar(self):
        for lam in LAMBDA_GRID:
            for c in (0.5, 2.0):
                xs = self._residual_grid(lam, c)
                for x, v in zip(xs, kernel(xs, lam, c)):
                    want = kernel(float(x), lam, c)
                    assert abs(v - want) <= self._exp_budget(want), (lam, c, x)

    def test_float_in_float_out(self):
        for fn in (transform, inverse, derivative, loss, kernel, irls_weight):
            for x in (0.25, 1, np.float64(0.25)):
                assert type(fn(x, -2.0)) is float, (fn.__name__, x)

    def test_array_in_same_shape_out(self):
        for fn in (transform, inverse, derivative, loss, kernel, irls_weight):
            for xs in (np.linspace(0.0, 0.9, 12).reshape(3, 4), np.array(0.5), np.arange(3)):
                out = fn(xs, -2.0)
                assert isinstance(out, np.ndarray), fn.__name__
                assert out.shape == xs.shape and out.dtype == np.float64, fn.__name__
                want = [fn(float(x), -2.0) for x in xs.ravel()]
                np.testing.assert_allclose(out.ravel(), want, rtol=1e-14)

    def test_nan_in_array_raises(self):
        xs = np.array([0.1, math.nan, 0.3])
        for fn in (transform, inverse, derivative, loss, kernel, irls_weight):
            with pytest.raises(ValueError):
                fn(xs, -2.0)

    def test_saturation_is_silent(self):
        # overflow to inf inside the composition is the saturation path,
        # not a condition to warn about
        xs = np.array([0.0, 1e200, -1e300, 1.7e308, math.inf, -math.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lam in LAMBDA_GRID:
                for fn in (transform, derivative):
                    assert not np.isnan(fn(np.abs(xs), lam)).any(), (fn.__name__, lam)
                for fn in (loss, kernel):
                    assert not np.isnan(fn(xs, lam)).any(), (fn.__name__, lam)
