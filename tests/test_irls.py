"""IRLS location fitting: descent, stationarity, oracle agreement."""

import math
import statistics
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootpow.irls import (
    IrlsProblem,
    fit_location,
    irls_step,
    loss_objective,
    objective_gradient,
)
from rootpow.kernel import irls_weight

from conftest import minimize_objective


class TestValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            IrlsProblem(observations=(), lam=0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            IrlsProblem(observations=(1.0, math.inf), lam=0.0)

    def test_rejects_positive_shape(self):
        with pytest.raises(ValueError):
            IrlsProblem(observations=(1.0,), lam=0.5)

    def test_rejects_span_past_largest_double(self):
        # max - min must be a double, so that no residual of a location
        # inside the data overflows
        big = sys.float_info.max
        with pytest.raises(ValueError):
            IrlsProblem(observations=(big, -big, 1e308), lam=-1.0)
        IrlsProblem(observations=(big, 0.0), lam=-1.0)

    def test_rejects_nested_observations(self):
        with pytest.raises(ValueError):
            IrlsProblem(observations=((1.0, 2.0), (3.0, 4.0)), lam=0.0)

    def test_observations_become_floats(self):
        problem = IrlsProblem(observations=[1, 2.5, np.float32(0.5)], lam=0.0)
        assert problem.observations == (1.0, 2.5, 0.5)
        assert all(type(v) is float for v in problem.observations)

    def test_rejects_bad_controls(self):
        with pytest.raises(ValueError):
            IrlsProblem(observations=(1.0,), lam=0.0, c=0.0)
        with pytest.raises(ValueError):
            IrlsProblem(observations=(1.0,), lam=0.0, max_iters=0)
        with pytest.raises(ValueError):
            IrlsProblem(observations=(1.0,), lam=0.0, tol=0.0)


class TestExamples:
    def test_flat_shape_gives_exact_mean_in_one_sweep(self):
        problem = IrlsProblem(observations=(1.0, 2.0, 3.0), lam=0.0)
        result = fit_location(problem)
        assert result.mu == 2.0
        assert result.iterations == 1
        assert result.converged

    def test_flat_shape_is_exact_mean(self):
        obs = (0.31, -2.25, 7.5, 1.125, 0.9)
        result = fit_location(IrlsProblem(observations=obs, lam=0.0))
        assert result.mu == math.fsum(obs) / len(obs)

    def test_gaussian_shape_ignores_far_outlier(self):
        problem = IrlsProblem(observations=(0.0, 0.0, 10.0), lam=-math.inf, tol=1e-12)
        result = fit_location(problem)
        assert abs(result.mu) <= 1e-8
        assert result.converged

    def test_symmetric_fixed_point(self):
        for lam in [0.0, -0.5, -2.0, -math.inf]:
            result = fit_location(IrlsProblem(observations=(-1.0, 1.0), lam=lam))
            assert result.mu == 0.0

    def test_objective_values(self):
        assert loss_objective(0.0, IrlsProblem(observations=(0.0,), lam=-2.0)) == 0.0
        assert loss_objective(0.0, IrlsProblem(observations=(2.0,), lam=-2.0)) == pytest.approx(1.0, rel=1e-15)

    def test_outlier_fit_beats_plain_mean(self):
        problem = IrlsProblem(observations=(0.0, 0.0, 10.0), lam=-math.inf)
        result = fit_location(problem)
        assert loss_objective(result.mu, problem) <= loss_objective(10.0 / 3.0, problem)

    def test_observation_past_binary64_square(self):
        # the 1e300 residual squares to inf, gets weight 0, and the fit
        # settles on the bulk
        obs = (-0.5, 0.25, 0.0, 0.5, -0.25, 1e300)
        result = fit_location(IrlsProblem(observations=obs, lam=-1.0))
        assert result.converged
        assert math.isfinite(result.mu) and abs(result.mu) <= 0.5
        assert result.grad_norm <= 1e-8 * (1.0 + 1e300)


class TestDescent:
    def test_objective_never_increases(self):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            n = int(rng.integers(2, 51))
            obs = tuple(map(float, rng.standard_normal(n) * 3.0 + rng.uniform(-5, 5)))
            if rng.random() < 0.4:
                obs = obs + tuple(map(float, rng.uniform(15.0, 60.0, size=2)))
            lam = float(rng.choice([0.0, -0.3, -1.0, -2.0, -7.0, -math.inf]))
            problem = IrlsProblem(observations=obs, lam=lam)
            mu = statistics.median(obs)
            prev = loss_objective(mu, problem)
            for _ in range(30):
                mu = irls_step(mu, problem)
                cur = loss_objective(mu, problem)
                assert cur <= prev * (1.0 + 1e-12) + 1e-12, (lam, obs[:3])
                prev = cur

    def test_step_outside_data_moves_in(self):
        # a start past the data is moved to its nearest end first, which
        # cannot raise the objective, so the step is still a descent step
        problem = IrlsProblem(observations=(1.0, 2.0, 4.0), lam=-2.0)
        for start in (-1e308, -5.0, 50.0, sys.float_info.max):
            mu = irls_step(start, problem)
            assert 1.0 <= mu <= 4.0
            assert loss_objective(mu, problem) <= loss_objective(start, problem)


class TestConvergence:
    def test_stationarity(self):
        rng = np.random.default_rng(7)
        for lam in [0.0, -0.5, -1.0, -2.0, -math.inf]:
            obs = tuple(map(float, rng.standard_normal(25) * 2.0))
            problem = IrlsProblem(observations=obs, lam=lam, tol=1e-14, max_iters=500)
            result = fit_location(problem)
            assert result.converged
            scale = 1.0 + math.fsum(map(abs, obs))
            assert result.grad_norm <= 1e-8 * scale

    def test_matches_independent_minimizer(self):
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

    def test_iteration_cap_reported(self):
        problem = IrlsProblem(
            observations=(0.0, 0.0, 10.0), lam=-math.inf, max_iters=1, tol=1e-300
        )
        result = fit_location(problem)
        assert result.iterations == 1
        assert not result.converged

    def test_gradient_sign_convention(self):
        problem = IrlsProblem(observations=(5.0,), lam=-1.0)
        # objective decreases toward the data point, so gradient at 0 < 0
        assert objective_gradient(0.0, problem) < 0.0


BIG = sys.float_info.max


def _fit_without_warnings(obs, lam, c=1.0):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fit_location(IrlsProblem(observations=obs, lam=lam, c=c))


class TestBinary64Extremes:
    """Fits at the ends of the double range give a finite mu inside the
    data and a gradient norm that may saturate to inf but is never NaN;
    data whose span max - min overflows is rejected up front."""

    @pytest.mark.parametrize("obs, lam, c", [
        ((BIG, BIG, BIG), 0.0, 1.0),          # fsum(w * x) overflows
        ((1e308, 1.5e308), -2.0, 1.0),        # a + b of the median overflows
        ((1.0, -1.0, 0.5), -1.0, 1e-300),     # c * c underflows to 0
        ((-BIG, -BIG, 0.0), 0.0, 1e-300),     # the gradient saturates to inf
        ((BIG,) * 4 + (0.0,) * 4, 0.0, 1.0),  # residual sums pass BIG
        ((BIG, 0.0), -math.inf, 1e-300),     # one weight 1, one 0
    ])
    def test_fit_is_finite(self, obs, lam, c):
        result = _fit_without_warnings(obs, lam, c)
        assert math.isfinite(result.mu)
        assert min(obs) <= result.mu <= max(obs)
        assert not math.isnan(result.grad_norm)
        assert result.converged

    def test_flat_shape_at_largest_double(self):
        assert _fit_without_warnings((BIG, BIG, BIG), 0.0).mu == BIG
        assert _fit_without_warnings((BIG, BIG, 0.0, 0.0), 0.0).mu == BIG / 2.0

    def test_even_median_start_does_not_overflow(self):
        # both residuals square past the double range, so both weights are
        # 0 and the fit stays at the start: the midpoint of the two
        assert _fit_without_warnings((1e308, 1.5e308), -2.0).mu == 1.25e308

    @pytest.mark.parametrize("lam", [0.0, -1.0, -math.inf])
    def test_objective_and_gradient_far_outside_the_data(self, lam):
        # residuals of a mu far outside the data pass the largest double
        problem = IrlsProblem(observations=(-1e308, 0.0, 1.0), lam=lam)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mu in (BIG, -BIG):
                assert not math.isnan(objective_gradient(mu, problem))
                assert loss_objective(mu, problem) >= loss_objective(0.0, problem)
        if lam == 0.0:
            assert objective_gradient(BIG, problem) == math.inf
            assert loss_objective(BIG, problem) == math.inf

    def test_gradient_with_an_overflowing_residual_beside_weighted_ones(self):
        # at mu just below 0 the residual of BIG passes the largest double
        # while the one of 0 keeps a weight near 1
        problem = IrlsProblem(observations=(0.0, BIG), lam=-1.0, c=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(objective_gradient(-1e293, problem))
            assert math.isfinite(loss_objective(-1e293, problem))

    @given(
        obs=st.lists(
            st.floats(min_value=-BIG, max_value=BIG, allow_nan=False, allow_infinity=False),
            min_size=1, max_size=12,
        ),
        lam=st.sampled_from([0.0, -0.5, -1.0, -2.0, -math.inf]),
        c=st.sampled_from([1.0, 1e-300, 1e300, 5e-324]),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_finite_data(self, obs, lam, c):
        if math.isinf(max(obs) - min(obs)):
            with pytest.raises(ValueError):
                IrlsProblem(observations=obs, lam=lam, c=c)
            return
        result = _fit_without_warnings(obs, lam, c)
        assert min(obs) <= result.mu <= max(obs)
        assert not math.isnan(result.grad_norm)


def _fsum_fit(obs, lam, max_iters=100, tol=1e-12):
    """IRLS with every sweep summed by math.fsum from a statistics.median
    start: the fitter as it was before its sweeps moved to numpy sums."""
    values = np.array(obs, dtype=float)
    mu = float(statistics.median(obs))
    converged = False
    for iterations in range(1, max_iters + 1):
        weights = irls_weight(values - mu, lam)
        total = math.fsum(weights.tolist())
        new_mu = math.fsum((weights * values).tolist()) / total if total > 0.0 else mu
        step_ok = abs(new_mu - mu) <= tol * (1.0 + abs(new_mu))
        mu = new_mu
        if step_ok:
            converged = True
            break
    return mu, iterations, converged


class TestExactness:
    def test_flat_shape_is_fsum_mean_on_random_data(self):
        # only the final exactly rounded sweep makes this hold: pairwise
        # sums alone miss the fsum mean on about 30% of these
        rng = np.random.default_rng(99)
        for _ in range(200):
            n = int(rng.integers(2, 3001))
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            obs = tuple((rng.standard_normal(n) * scale + rng.uniform(-100.0, 100.0)).tolist())
            result = fit_location(IrlsProblem(observations=obs, lam=0.0))
            assert result.mu == math.fsum(obs) / n, n

    @pytest.mark.parametrize("lam", [-math.inf, -2.0, -1.0, -0.5, 0.0])
    def test_matches_fsum_sweeps(self, lam):
        rng = np.random.default_rng(31)
        for _ in range(4):
            obs = rng.standard_normal(2000)
            far = rng.random(2000) < 0.1
            obs[far] = np.where(rng.random(far.sum()) < 0.5, -1.0, 1.0) * rng.uniform(10.0, 50.0, far.sum())
            obs = tuple(obs.tolist())
            result = fit_location(IrlsProblem(observations=obs, lam=lam))
            mu, iterations, converged = _fsum_fit(obs, lam)
            assert result.iterations == iterations
            assert result.converged == converged
            assert abs(result.mu - mu) <= 1e-10
