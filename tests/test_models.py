"""Model evaluators: likelihoods, gradients, Hessian spectra, posteriors."""

import math

import numpy as np
import pytest

from looadapt import Dataset, GaussianPrior, LogisticModel, ReluOneModel, grad_log_posterior
from looadapt.models import LINE_BLOCK_DRAWS, bernoulli_log_likelihood, evaluate_posterior, sigmoid, sigmoid_slope

from conftest import (
    dense_hessian,
    grad_log_lik,
    hessian_factors,
    log_post,
    make_logistic_toy,
    make_relu_toy,
    pairwise_resolvent,
)
from oracle import finite_difference_gradient, finite_difference_hessian


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(0.0) == 0.5

    def test_upper_asymptote(self):
        assert sigmoid(40.0) == pytest.approx(1.0 - math.exp(-40.0), abs=1e-18)

    def test_lower_tail_no_underflow(self):
        assert sigmoid(-40.0) == pytest.approx(math.exp(-40.0), rel=1e-12)
        assert bernoulli_log_likelihood(-40.0, 1) == pytest.approx(-40.0, rel=1e-12)

    def test_complement_symmetry(self, rng):
        mu = rng.uniform(-700, 700, size=200)
        np.testing.assert_allclose(sigmoid(-mu), 1.0 - sigmoid(mu), atol=1e-15)

    def test_slope_positive_within_range(self):
        mu = np.linspace(-30, 30, 301)
        assert np.all(sigmoid_slope(mu) > 0)


class TestLogLikelihood:
    def test_mu_zero(self):
        model = LogisticModel(p=1)
        assert bernoulli_log_likelihood(model.mu([0.0], [1.0]), 1) == pytest.approx(math.log(0.5))
        assert bernoulli_log_likelihood(model.mu([0.0], [1.0]), 0) == pytest.approx(math.log(0.5))

    def test_hand_evaluated(self):
        model = LogisticModel(p=2)
        # beta = [1, -1], x = [2, 1] -> mu = 1, log sigma(1) = -log(1 + e^-1)
        value = bernoulli_log_likelihood(model.mu([1.0, -1.0], [2.0, 1.0]), 1)
        assert value == pytest.approx(-math.log1p(math.exp(-1.0)))
        assert value == pytest.approx(-0.313262, abs=1e-6)


class TestGradLogLikelihood:
    def test_logistic_at_mu_zero(self):
        model = LogisticModel(p=2)
        np.testing.assert_allclose(
            grad_log_lik(model, [0.0, 0.0], [1.0, 2.0], 1), [0.5, 1.0]
        )
        np.testing.assert_allclose(
            grad_log_lik(model, [0.0, 0.0], [1.0, 2.0], 0), [-0.5, -1.0]
        )

    def test_relu_inactive_units_kill_first_layer(self):
        model = ReluOneModel(d=2, p=2)
        # W1 = [[-1, -1], [-2, -2]], W2 = [1, 1], b2 = 0.5
        theta = np.concatenate([[-1.0, -1.0, -2.0, -2.0], [1.0, 1.0], [0.5]])
        grad = grad_log_lik(model, theta, [1.0, 1.0], 1)
        np.testing.assert_array_equal(grad[: model.d * model.p], 0.0)

    def test_matches_finite_differences(self, rng):
        model, dataset, prior, draws = make_logistic_toy(seed=5)
        for k in range(10):
            theta = draws.values[k]
            i = int(rng.integers(dataset.n))
            x, y = dataset.features[i], dataset.labels[i]
            grad = grad_log_lik(model, theta, x, y)
            fd = finite_difference_gradient(lambda t: bernoulli_log_likelihood(model.mu(t, x), y), theta)
            np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-8)


class TestReluForward:
    def test_zero_first_layer(self):
        model = ReluOneModel(d=2, p=2)
        theta = np.concatenate([np.zeros(4), [1.0, -1.0], [3.0]])
        mu, z1, mask = model.relu_forward(theta, [1.0, 2.0])
        assert mu == 3.0
        np.testing.assert_array_equal(mask, 0.0)

    def test_single_active_unit(self):
        model = ReluOneModel(d=1, p=1)
        mu, z1, mask = model.relu_forward([2.0, 1.0, 0.0], [1.0])
        assert (mu, z1[0], mask[0]) == (2.0, 2.0, 1.0)

    def test_kink_counts_as_inactive(self):
        model = ReluOneModel(d=1, p=1)
        mu, z1, mask = model.relu_forward([0.0, 5.0, 1.0], [1.0])
        assert z1[0] == 0.0 and mask[0] == 0.0 and mu == 1.0


class TestReluGradMu:
    def test_all_inactive_leaves_only_bias(self):
        model = ReluOneModel(d=2, p=2)
        theta = np.concatenate([[-1.0, -1.0, -2.0, -2.0], [1.0, 1.0], [0.0]])
        grad = model.grad_mu(theta, [1.0, 1.0])
        expected = np.zeros(model.param_dim)
        expected[-1] = 1.0
        np.testing.assert_array_equal(grad, expected)

    def test_hand_evaluated(self):
        model = ReluOneModel(d=1, p=1)
        # W1 = [[1]], x = [2], W2 = [3]: z1 = 2 active
        grad = model.grad_mu([1.0, 3.0, 0.0], [2.0])
        np.testing.assert_allclose(grad, [3.0 * 2.0, 2.0, 1.0])

    def test_zero_input_leaves_only_bias(self):
        model = ReluOneModel(d=2, p=2)
        theta = np.arange(1.0, 8.0)
        grad = model.grad_mu(theta, [0.0, 0.0])
        assert grad[-1] == 1.0
        np.testing.assert_array_equal(grad[:-1], 0.0)

    def test_matches_finite_differences_away_from_kinks(self):
        model, dataset, prior, draws = make_relu_toy(seed=6)
        for k in range(10):
            theta = draws.values[k]
            x = dataset.features[k % dataset.n]
            grad = model.grad_mu(theta, x)
            fd = finite_difference_gradient(lambda t: model.mu(t, x), theta)
            np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-8)


class TestReluHessianSpectrum:
    """The batched eigen-factors of the Hessian of mu (``hessian_eigenbasis``)."""

    def test_inactive_means_empty(self):
        model = ReluOneModel(d=2, p=2)
        theta = np.concatenate([[-1.0, -1.0, -2.0, -2.0], [1.0, 1.0], [0.0]])
        lam, plus, minus = hessian_factors(model, theta, [1.0, 1.0])
        np.testing.assert_array_equal(lam, 0.0)
        np.testing.assert_array_equal(plus, 0.0)
        np.testing.assert_array_equal(minus, 0.0)
        np.testing.assert_array_equal(dense_hessian(model, theta, [1.0, 1.0]), 0.0)

    def test_zero_input_means_empty(self):
        model = ReluOneModel(d=2, p=2)
        theta = np.arange(1.0, 8.0)
        lam, _, _ = hessian_factors(model, theta, [0.0, 0.0])
        np.testing.assert_array_equal(lam, 0.0)
        np.testing.assert_array_equal(dense_hessian(model, theta, [0.0, 0.0]), 0.0)

    def test_active_unit_eigenvalues_are_feature_norm(self):
        model = ReluOneModel(d=1, p=2)
        theta = np.array([1.0, 1.0, 2.0, 0.0])  # z1 = 3 + 4 = 7 > 0
        lam, _, _ = hessian_factors(model, theta, [3.0, 4.0])
        np.testing.assert_array_equal(lam, 5.0)  # the pair +-5
        np.testing.assert_allclose(np.linalg.eigvalsh(dense_hessian(model, theta, [3.0, 4.0])),
                                   [-5.0, 0.0, 0.0, 5.0], atol=1e-12)

    def test_orthonormal_eigenvectors(self):
        model, dataset, prior, draws = make_relu_toy(seed=8)
        theta, x = draws.values[0], dataset.features[0]
        p = model.param_dim
        lam, plus, minus = hessian_factors(model, theta, x)
        active = lam[0] > 0
        assert active.any()
        # |e_k+-|^2 = sum_a (e_k+- . e_a)^2 = 1 on every active unit
        diagonal = np.arange(p) * (p + 1)
        np.testing.assert_allclose(plus[diagonal].sum(axis=0), active, atol=1e-12)
        np.testing.assert_allclose(minus[diagonal].sum(axis=0), active, atol=1e-12)
        # an orthonormal eigenbasis inverts I + alpha H pair by pair
        rng = np.random.default_rng(0)
        u, v = rng.normal(size=(2, p))
        alpha = 0.1
        dense = u @ np.linalg.solve(np.eye(p) + alpha * dense_hessian(model, theta, x), v)
        assert pairwise_resolvent(model, theta, x, u, v, alpha) == pytest.approx(dense, rel=1e-12)

    def test_reconstruction_matches_fd_hessian(self):
        model, dataset, prior, draws = make_relu_toy(seed=9, d=2, p=2, n=4)
        theta = draws.values[3]
        x = dataset.features[1]
        fd = finite_difference_hessian(lambda t: model.mu(t, x), theta, step=1e-4)
        np.testing.assert_allclose(dense_hessian(model, theta, x), fd, atol=1e-4)

    def test_logistic_spectrum_always_empty(self, rng):
        model = LogisticModel(p=4)
        for _ in range(5):
            assert hessian_factors(model, rng.normal(size=4), rng.normal(size=4)) is None
            np.testing.assert_array_equal(dense_hessian(model, rng.normal(size=4), rng.normal(size=4)), 0.0)


class TestLogPosterior:
    def test_flat_prior_ratio_equals_likelihood_ratio(self):
        rng = np.random.default_rng(2)
        features = rng.normal(size=(1, 2))
        dataset = Dataset(features=features, labels=np.array([1]), feature_names=("a", "b"))
        model = LogisticModel(p=2)
        prior = GaussianPrior.isotropic(2, 1e6)
        t1, t2 = rng.normal(size=2), rng.normal(size=2)
        lhs = log_post(model, t1, dataset, prior) - log_post(model, t2, dataset, prior)
        rhs = bernoulli_log_likelihood(model.mu(t1, features[0]), 1) - bernoulli_log_likelihood(
            model.mu(t2, features[0]), 1
        )
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_purity(self):
        model, dataset, prior, draws = make_logistic_toy(seed=10)
        theta = draws.values[0]
        a = log_post(model, theta, dataset, prior)
        b = log_post(model, theta, dataset, prior)
        assert a == b

    def test_gradient_zero_feature_reduces_to_prior(self):
        dataset = Dataset(features=np.zeros((1, 1)), labels=np.array([1]), feature_names=("x",))
        model = LogisticModel(p=1)
        prior = GaussianPrior.isotropic(1, 1.0)
        np.testing.assert_allclose(grad_log_posterior(model, [2.0], dataset, prior), [-2.0])

    def test_gradient_matches_finite_differences(self):
        model, dataset, prior, draws = make_logistic_toy(seed=11, n=5, p=3)
        for k in range(5):
            theta = draws.values[k]
            grad = grad_log_posterior(model, theta, dataset, prior)
            fd = finite_difference_gradient(lambda t: log_post(model, t, dataset, prior), theta)
            np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-8)

    def test_relu_gradient_matches_finite_differences(self):
        model, dataset, prior, draws = make_relu_toy(seed=12)
        for k in range(5):
            theta = draws.values[k]
            grad = grad_log_posterior(model, theta, dataset, prior)
            fd = finite_difference_gradient(lambda t: log_post(model, t, dataset, prior), theta)
            np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-7)


class TestBatchConsistency:
    def test_mu_batch_matches_scalar(self, rng):
        for model_maker in (make_logistic_toy, make_relu_toy):
            model, dataset, prior, draws = model_maker()
            mu = model.mu_batch(draws.values, dataset.features)
            for k in (0, 3):
                for i in range(dataset.n):
                    assert mu[k, i] == pytest.approx(
                        model.mu(draws.values[k], dataset.features[i]), abs=1e-12
                    )

    def test_grad_mu_batch_matches_scalar(self):
        for model_maker in (make_logistic_toy, make_relu_toy):
            model, dataset, prior, draws = model_maker()
            grad = model.grad_mu_batch(draws.values, dataset.features[0])
            for k in (0, 5):
                np.testing.assert_allclose(
                    grad[k], model.grad_mu(draws.values[k], dataset.features[0]), atol=1e-12
                )


    @pytest.mark.parametrize("model_maker", [make_logistic_toy, make_relu_toy])
    def test_evaluate_posterior_gradient_matches_looped(self, model_maker):
        # one contraction over the observations against the per-draw loop
        model, dataset, prior, draws = model_maker()
        grad = evaluate_posterior(model, draws.values, dataset, prior).grad_log_post
        for k in range(draws.num_draws):
            np.testing.assert_allclose(
                grad[k], grad_log_posterior(model, draws.values[k], dataset, prior), rtol=1e-12, atol=1e-12
            )


class TestMuLine:
    """mu along theta + hbar * D from the model's line matches mu_batch at the moved draws."""

    @pytest.mark.parametrize("model_maker", [make_logistic_toy, make_relu_toy])
    def test_dense_and_shared_steps(self, model_maker, rng):
        model, dataset, prior, draws = model_maker()
        values = draws.values
        origin = model.mu_line(values, dataset.features, model.mu_batch(values, dataset.features))
        for step in (rng.normal(size=values.shape), rng.normal(size=values.shape[1])):
            line = origin.along(step)
            for hbar in (1.0, 0.25, 4.0**-5):
                np.testing.assert_allclose(
                    line.at(hbar), model.mu_batch(values + hbar * step, dataset.features), rtol=1e-12, atol=1e-12
                )

    @pytest.mark.parametrize("model_maker", [make_logistic_toy, make_relu_toy])
    def test_gradient_step(self, model_maker, rng):
        model, dataset, prior, draws = model_maker()
        values = draws.values
        x = dataset.features[1]
        coef = 0.1 * rng.normal(size=draws.num_draws)
        grad = model.grad_mu_batch(values, x)
        step = coef[:, None] * grad
        origin = model.mu_line(values, dataset.features, model.mu_batch(values, dataset.features))
        line = origin.along_gradient(grad, x, coef)
        for hbar in (1.0, 0.25, 4.0**-5):
            np.testing.assert_allclose(
                line.at(hbar), model.mu_batch(values + hbar * step, dataset.features), rtol=1e-12, atol=1e-12
            )

    @pytest.mark.parametrize("num_draws", [1, LINE_BLOCK_DRAWS, LINE_BLOCK_DRAWS + 1])
    def test_relu1_line_across_block_boundaries(self, num_draws, rng):
        # ReluMuLine.at walks the draws in blocks: one draw, exactly one full
        # block, and a full block plus one
        model, dataset, prior, draws = make_relu_toy(n=7, d=3, num_draws=LINE_BLOCK_DRAWS + 1)
        values, features = draws.values[:num_draws], dataset.features
        origin = model.mu_line(values, features, model.mu_batch(values, features))
        x = features[2]
        coef = 0.1 * rng.normal(size=num_draws)
        grad = model.grad_mu_batch(values, x)
        dense, shared = rng.normal(size=values.shape), rng.normal(size=values.shape[1])
        lines = [
            (origin.along(dense), dense),
            (origin.along(shared), shared),
            (origin.along_gradient(grad, x, coef), coef[:, None] * grad),
        ]
        for line, step in lines:
            for hbar in (1.0, 0.25, 4.0**-5):
                np.testing.assert_allclose(
                    line.at(hbar), model.mu_batch(values + hbar * step, features), rtol=1e-12, atol=1e-12
                )


class TestGaussianPrior:
    def test_line_coefficients_give_the_quadratic(self, rng):
        prior = GaussianPrior(sd=np.array([0.5, 1.0, 2.0]))
        values = rng.normal(size=(7, 3))
        for step in (rng.normal(size=(7, 3)), rng.normal(size=3)):
            slope, curvature = prior.line_coefficients(values, step)
            for hbar in (1.0, 0.25, 4.0**-5):
                np.testing.assert_allclose(
                    prior.log_density_batch(values) - hbar * slope - 0.5 * hbar**2 * curvature,
                    prior.log_density_batch(values + hbar * step),
                    rtol=1e-13,
                )

    def test_log_density_matches_formula(self):
        prior = GaussianPrior(sd=np.array([1.0, 2.0]))
        theta = np.array([0.5, -1.0])
        expected = sum(
            -0.5 * math.log(2 * math.pi) - math.log(s) - 0.5 * (t / s) ** 2
            for t, s in zip(theta, prior.sd)
        )
        assert prior.log_density(theta) == pytest.approx(expected, rel=1e-12)

    def test_grad_is_negative_precision_scaled(self):
        prior = GaussianPrior(sd=np.array([1.0, 2.0]))
        np.testing.assert_allclose(prior.grad_batch(np.array([[1.0, 2.0]])), [[-1.0, -0.5]])
