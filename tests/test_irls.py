"""IRLS location fitting: descent, stationarity, oracle agreement."""

import math
import statistics

import numpy as np
import pytest

from rootpow.irls import (
    IrlsProblem,
    fit_location,
    irls_step,
    loss_objective,
    objective_gradient,
)

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
