"""Grid quadrature references and finite-difference machinery."""

import math

import numpy as np
import pytest
from scipy.special import logsumexp

from looadapt import Dataset, DomainError, GaussianPrior, LogisticModel
from looadapt.engine import self_normalized_se
from looadapt.models import bernoulli_log_likelihood, sigmoid

from conftest import make_grid_instance_1, make_grid_instance_2
from oracle import (
    build_grid_posterior,
    exact_loo_expectation,
    finite_difference_jacobian,
    loo_probabilities,
    sample_grid_posterior,
)


class TestBuildGridPosterior:
    def test_normalization_invariant(self):
        _, _, _, grid = make_grid_instance_1()
        total = np.exp(grid.log_unnorm + grid.log_cell_volume - grid.log_norm_const).sum()
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_flat_likelihood_recovers_prior(self):
        dataset = Dataset(features=np.zeros((3, 1)), labels=np.array([1, 0, 1]), feature_names=("x",))
        model = LogisticModel(p=1)
        prior = GaussianPrior.isotropic(1, 1.0)
        grid = build_grid_posterior(model, dataset, prior, bounds=[(-6.0, 6.0)], nodes_per_dim=241)
        mean = float(grid.probabilities @ grid.nodes[:, 0])
        assert abs(mean) < 1e-10  # symmetric prior, flat likelihood
        sd = math.sqrt(float(grid.probabilities @ grid.nodes[:, 0] ** 2))
        assert sd == pytest.approx(1.0, abs=1e-3)

    def test_dimension_guard(self):
        dataset = Dataset(features=np.zeros((2, 4)), labels=np.array([0, 1]), feature_names=("a", "b", "c", "d"))
        model = LogisticModel(p=4)
        prior = GaussianPrior.isotropic(4, 1.0)
        with pytest.raises(DomainError):
            build_grid_posterior(model, dataset, prior, bounds=[(-6, 6)] * 4, nodes_per_dim=41)

    def test_resolution_and_coverage_guards(self):
        dataset = Dataset(features=np.zeros((2, 1)), labels=np.array([0, 1]), feature_names=("x",))
        model = LogisticModel(p=1)
        prior = GaussianPrior.isotropic(1, 1.0)
        with pytest.raises(DomainError):
            build_grid_posterior(model, dataset, prior, bounds=[(-6, 6)], nodes_per_dim=21)
        with pytest.raises(DomainError):
            build_grid_posterior(model, dataset, prior, bounds=[(-2, 2)], nodes_per_dim=41)

    def test_posterior_mean_cross_checked_by_wide_is(self):
        model, dataset, prior, grid = make_grid_instance_2()
        rng = np.random.default_rng(5150)
        proposal_sd = 4.0
        samples = proposal_sd * rng.standard_normal((1_000_000, 2))
        mu = model.mu_batch(samples, dataset.features)
        log_lik = bernoulli_log_likelihood(mu, dataset.labels[None, :]).sum(axis=1)
        log_w = (
            prior.log_density_batch(samples)
            + log_lik
            + 0.5 * np.sum((samples / proposal_sd) ** 2, axis=1)
        )
        w = np.exp(log_w - logsumexp(log_w))
        grid_mean = grid.probabilities @ grid.nodes
        for alpha in range(2):
            estimate = float(w @ samples[:, alpha])
            se = self_normalized_se(w, samples[:, alpha])
            assert abs(estimate - grid_mean[alpha]) <= 3.0 * se


class TestExactLooExpectation:
    def test_constant_function_is_one(self):
        model, dataset, prior, grid = make_grid_instance_1()
        value = exact_loo_expectation(grid, model, dataset, 0, lambda nodes: np.ones(len(nodes)))
        assert value == pytest.approx(1.0, abs=1e-14)

    def test_zero_feature_equals_full_posterior_expectation(self):
        dataset = Dataset(
            features=np.array([[0.0], [1.0], [-0.5]]), labels=np.array([1, 0, 1]), feature_names=("x",)
        )
        model = LogisticModel(p=1)
        prior = GaussianPrior.isotropic(1, 1.5)
        grid = build_grid_posterior(model, dataset, prior, bounds=[(-9, 9)], nodes_per_dim=301)
        f = lambda nodes: np.tanh(nodes[:, 0])
        loo_value = exact_loo_expectation(grid, model, dataset, 0, f)
        full_value = float(grid.probabilities @ f(grid.nodes))
        assert loo_value == pytest.approx(full_value, abs=1e-12)

    def test_bayes_update_round_trip(self):
        model, dataset, prior, grid = make_grid_instance_2()
        for i in range(dataset.n):
            loo_mass = loo_probabilities(grid, model, dataset, i)
            mu_i = model.mu_batch(grid.nodes, dataset.features[i][None, :])[:, 0]
            log_back = np.log(loo_mass) + bernoulli_log_likelihood(mu_i, dataset.labels[i])
            back = np.exp(log_back - logsumexp(log_back))
            np.testing.assert_allclose(back, grid.probabilities, atol=1e-10)

    def test_refinement_convergence(self):
        model, dataset, prior, grid = make_grid_instance_2(nodes_per_dim=81)
        _, _, _, fine = make_grid_instance_2(nodes_per_dim=162)
        i = 3

        def f(nodes):
            return sigmoid(model.mu_batch(nodes, dataset.features[i][None, :])[:, 0])

        coarse_value = exact_loo_expectation(grid, model, dataset, i, f)
        fine_value = exact_loo_expectation(fine, model, dataset, i, f)
        assert abs(coarse_value - fine_value) < 1e-4


class TestSampling:
    def test_sample_matches_grid_mean(self):
        model, dataset, prior, grid = make_grid_instance_2()
        rng = np.random.default_rng(31337)
        values = sample_grid_posterior(grid, 200_000, rng)
        grid_mean = grid.probabilities @ grid.nodes
        np.testing.assert_allclose(values.mean(axis=0), grid_mean, atol=0.02)


class TestFiniteDifferenceJacobian:
    def test_identity_map(self):
        jac = finite_difference_jacobian(lambda t: t, np.array([1.0, -2.0]), 1e-6)
        np.testing.assert_allclose(jac, np.eye(2), atol=1e-10)

    def test_linear_map(self, rng):
        a = rng.normal(size=(3, 3))
        jac = finite_difference_jacobian(lambda t: a @ t, np.zeros(3), 1e-6)
        np.testing.assert_allclose(jac, a, atol=1e-10)

    def test_quadratic_map(self):
        jac = finite_difference_jacobian(lambda t: np.array([t[0] ** 2, t[0] * t[1]]), np.array([2.0, 3.0]), 1e-6)
        np.testing.assert_allclose(jac, [[4.0, 0.0], [3.0, 2.0]], atol=1e-8)
