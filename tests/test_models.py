"""Model evaluators: likelihoods, gradients, Hessian spectra, posteriors."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import expit

from looadapt import (
    Dataset,
    DimensionError,
    DomainError,
    GaussianPrior,
    LogisticModel,
    ReluOneModel,
    RunConfig,
    grad_log_posterior,
)
from looadapt.engine import LooProblem
from looadapt.gpd import pareto_smooth
from looadapt.models import (
    LINE_BLOCK_DRAWS,
    bernoulli_log_likelihood,
    evaluate_posterior,
    log_posterior,
    logistic,
    sigmoid,
    sigmoid_slope,
)

from conftest import (
    attempt,
    dense_hessian,
    grad_log_lik,
    hessian_factors,
    line_step,
    log_post,
    make_logistic_toy,
    make_relu_toy,
    pairwise_resolvent,
    raw_weights,
)
from oracle import finite_difference_gradient, finite_difference_hessian


class TestSigmoid:
    """Each check runs on the run's numpy :func:`logistic` and on the generator's
    reference :func:`sigmoid`; a loop, not a parametrization, keeps the test ids."""

    SIGMOIDS = (logistic, sigmoid)

    def test_midpoint(self):
        for f in self.SIGMOIDS:
            assert f(0.0) == 0.5

    def test_upper_asymptote(self):
        for f in self.SIGMOIDS:
            assert f(40.0) == pytest.approx(1.0 - math.exp(-40.0), abs=1e-18)

    def test_lower_tail_no_underflow(self):
        for f in self.SIGMOIDS:
            assert f(-40.0) == pytest.approx(math.exp(-40.0), rel=1e-12)
        assert bernoulli_log_likelihood(-40.0, 1) == pytest.approx(-40.0, rel=1e-12)

    def test_complement_symmetry(self, rng):
        mu = rng.uniform(-700, 700, size=200)
        for f in self.SIGMOIDS:
            np.testing.assert_allclose(f(-mu), 1.0 - f(mu), atol=1e-15)

    def test_slope_positive_within_range(self):
        mu = np.linspace(-700, 700, 14001)
        assert np.all(sigmoid_slope(mu) > 0)

    def test_logistic_matches_expit(self, rng):
        """Within 4 eps relative of scipy's expit over the float range; where
        the output is subnormal, within 4 of its fixed spacing."""
        mu = np.concatenate([
            rng.normal(scale=5.0, size=200_000),
            rng.uniform(-760, 760, size=200_000),
            rng.choice([-1.0, 1.0], size=200_000) * 10.0 ** rng.uniform(-320, 308, size=200_000),
            np.linspace(-745, -700, 20_001),
            [0.0, -0.0, 5e-324, 1e308, -1e308, np.inf, -np.inf],
        ])
        tiny = np.finfo(float).smallest_subnormal
        np.testing.assert_allclose(logistic(mu), expit(mu), rtol=4 * np.finfo(float).eps, atol=4 * tiny)

    def test_logistic_extremes(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(logistic(np.array([800.0, np.inf, 1e308])), 1.0)
            np.testing.assert_array_equal(logistic(np.array([-800.0, -np.inf, -1e308])), 0.0)
            assert math.isnan(logistic(np.nan))

    def test_sigmoid_is_expit_bit_for_bit(self, rng):
        """The generator builds the benchmark instances, and so their pinned
        fingerprints, with :func:`sigmoid`: it must stay scipy's expit."""
        mu = np.concatenate([rng.normal(scale=20.0, size=10_000), [0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, np.nan]])
        assert sigmoid(mu).tobytes() == expit(mu).tobytes()


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

    #: Signed zeros, tiny, unit and exp-tail mu, exp's underflow edge, the
    #: ends of the float range, infinities, NaN, and a dense stretch where
    #: both terms of log sigma matter.
    GRID = np.concatenate([
        [0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 37.0, -37.0, 745.0, -745.0, 1e308, -1e308, np.inf, -np.inf, np.nan],
        np.linspace(-50.0, 50.0, 1001),
    ])

    def _grid(self):
        """Every GRID value under label 0 (first column) and label 1 (second)."""
        return np.repeat(self.GRID[:, None], 2, axis=1), np.array([0, 1])

    def test_reference_is_the_libm_formula(self):
        """perfbench/generate.py builds the benchmark instances with this
        function; a last-bit change to it changes every generated draw."""
        mu, labels = self._grid()
        sign = 2.0 * labels - 1.0
        with np.errstate(invalid="ignore"):  # logaddexp flags a NaN argument
            expected = -np.logaddexp(0.0, -(sign * mu))
            got = bernoulli_log_likelihood(mu, labels[None, :])
        assert np.array_equal(got, expected, equal_nan=True)

    def test_log_posterior_matches_the_reference(self):
        """The run's kernel agrees with the reference to 2e-15 relative, puts
        infinities and NaNs in the same places and raises no invalid, divide or overflow flag."""
        mu, labels = self._grid()
        with np.errstate(invalid="ignore"):
            expected = bernoulli_log_likelihood(mu, labels[None, :])
        with np.errstate(invalid="raise", divide="raise", over="raise"):
            got = log_posterior(mu, labels, np.zeros(mu.shape[0]))[0]
        np.testing.assert_array_equal(np.isnan(got), np.isnan(expected))
        infinite = np.isinf(expected)
        np.testing.assert_array_equal(got[infinite], expected[infinite])
        finite = np.isfinite(expected)
        assert np.all(np.isfinite(got[finite]))
        assert np.all(np.abs(got[finite] - expected[finite]) <= 2e-15 * np.abs(expected[finite]))


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

    def test_logistic_model_needs_a_feature(self):
        with pytest.raises(DomainError, match="^logistic model needs at least one feature$"):
            LogisticModel(p=0)


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

    def test_parameter_vector_of_the_wrong_length(self):
        with pytest.raises(DimensionError, match="^expected parameter vector of length 3$"):
            ReluOneModel(d=1, p=1).relu_forward([1.0, 2.0], [1.0])


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
    """The Hessian of mu between two vector sets: the origin line's
    ``hessian_projection`` of every pair of unit vectors."""

    def test_inactive_means_empty(self):
        model = ReluOneModel(d=2, p=2)
        theta = np.concatenate([[-1.0, -1.0, -2.0, -2.0], [1.0, 1.0], [0.0]])
        lam, count, plus, minus = hessian_factors(model, theta, [1.0, 1.0])
        np.testing.assert_array_equal(lam, 0.0)
        np.testing.assert_array_equal(count, 0)
        np.testing.assert_array_equal(plus, 0.0)
        np.testing.assert_array_equal(minus, 0.0)
        np.testing.assert_array_equal(dense_hessian(model, theta, [1.0, 1.0]), 0.0)

    def test_zero_input_means_empty(self):
        model = ReluOneModel(d=2, p=2)
        theta = np.arange(1.0, 8.0)
        lam, count, _, _ = hessian_factors(model, theta, [0.0, 0.0])
        np.testing.assert_array_equal(lam, 0.0)
        np.testing.assert_array_equal(count, 0)
        np.testing.assert_array_equal(dense_hessian(model, theta, [0.0, 0.0]), 0.0)

    def test_active_unit_eigenvalues_are_feature_norm(self):
        model = ReluOneModel(d=1, p=2)
        theta = np.array([1.0, 1.0, 2.0, 0.0])  # z1 = 3 + 4 = 7 > 0
        lam, count, _, _ = hessian_factors(model, theta, [3.0, 4.0])
        np.testing.assert_array_equal(lam, 5.0)  # the pair +-5
        np.testing.assert_array_equal(count, 1)
        np.testing.assert_allclose(np.linalg.eigvalsh(dense_hessian(model, theta, [3.0, 4.0])),
                                   [-5.0, 0.0, 0.0, 5.0], atol=1e-12)

    def test_orthonormal_eigenvectors(self):
        model, dataset, prior, draws = make_relu_toy(seed=8)
        theta, x = draws.values[0], dataset.features[0]
        p = model.param_dim
        lam, count, plus, minus = hessian_factors(model, theta, x)
        assert count[0] > 0
        # P+ and P- are orthogonal projectors of rank count: trace count, P^2 = P, P+ P- = 0
        diagonal = np.arange(p) * (p + 1)
        np.testing.assert_allclose(plus[diagonal].sum(), count[0], atol=1e-12)
        np.testing.assert_allclose(minus[diagonal].sum(), count[0], atol=1e-12)
        p_plus, p_minus = plus.reshape(p, p), minus.reshape(p, p)
        np.testing.assert_allclose(p_plus @ p_plus, p_plus, atol=1e-12)
        np.testing.assert_allclose(p_minus @ p_minus, p_minus, atol=1e-12)
        np.testing.assert_allclose(p_plus @ p_minus, 0.0, atol=1e-12)
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
            assert hessian_factors(model, rng.normal(size=4), rng.normal(size=4)) == (0.0, 0, 0.0, 0.0)
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

    @pytest.mark.parametrize("num_draws", [1, 65])
    @pytest.mark.parametrize("width", [1, 2, 8])
    @pytest.mark.parametrize("family", ["logistic", "relu1"])
    def test_origin_grad_mu_matches_scalar(self, family, width, num_draws, rng):
        """The origin line's grad_mu(i), which relu1 reads from the run's stored
        pre-activations, is the single-draw grad_mu at every draw and observation:
        bit for bit, except relu1's relu(z1) block, which the origin's einsum and
        the single-draw matvec round apart by at most a few ulps of sum |W1| |x|.
        ``width`` is relu1's hidden units d and logistic regression's features p.
        x_1 is a zero row; at x_0, draw 0's unit 0 sits exactly at its kink,
        z = 0, where the derivative is taken as 0."""
        model = ReluOneModel(d=width, p=3) if family == "relu1" else LogisticModel(p=width)
        features = rng.normal(size=(4, model.num_features))
        features[1] = 0.0
        values = rng.normal(size=(num_draws, model.param_dim))
        if family == "relu1":
            features[0] = [1.0, 1.0, 0.0]
            values[0, :3] = [0.5, -0.5, 0.3]  # W1 row 0 . x_0 = 0 exactly
        origin = model.mu_line(values, features)
        for i, x in enumerate(features):
            grad = origin.grad_mu(i)
            assert grad.shape == values.shape
            for s, theta in enumerate(values):
                want = model.grad_mu(theta, x)
                if family == "logistic":
                    assert np.array_equal(grad[s], want)
                    continue
                (g1, g2, gb), (w1, w2, b2) = model._split_batch(grad[s]), model._split_batch(want)
                assert np.array_equal(g1, w1) and gb == b2 == 1.0
                rounding = 4 * np.finfo(float).eps * (np.abs(model._split_batch(theta)[0]) @ np.abs(x))
                assert np.all(np.abs(g2 - w2) <= rounding)
        np.testing.assert_array_equal(origin.grad_mu(1)[:, :-1], 0.0)
        if family == "relu1":
            assert origin.z1[0, 0, 0] == 0.0
            w1, w2, b2 = model._split_batch(origin.grad_mu(0)[0])
            np.testing.assert_array_equal(w1[0], 0.0)
            assert w2[0] == 0.0 and b2 == 1.0

    def test_logistic_gradient_is_a_read_only_view_of_x(self):
        model, dataset, _, draws = make_logistic_toy()
        grad = model.mu_line(draws.values, dataset.features).grad_mu(2)
        assert np.array_equal(grad, np.tile(dataset.features[2], (draws.num_draws, 1)))
        assert grad.strides[0] == 0
        with pytest.raises(ValueError):
            grad[0, 0] = 1.0

    @pytest.mark.parametrize("model_maker", [make_logistic_toy, make_relu_toy])
    def test_evaluate_posterior_gradient_matches_looped(self, model_maker):
        # one contraction over the observations against the per-draw loop
        model, dataset, prior, draws = model_maker()
        grad = evaluate_posterior(model, draws.values, dataset, prior).grad_log_post
        for k in range(draws.num_draws):
            np.testing.assert_allclose(
                grad[k], grad_log_posterior(model, draws.values[k], dataset, prior), rtol=1e-12, atol=1e-12
            )



def _unblocked_relu1(model, values, features, weights):
    """relu1's mu and weighted grad_mu as one einsum over all draws at once, n-major."""
    w1, w2, b2 = model._split_batch(values)
    z1 = np.einsum("sdp,np->snd", w1, features)
    mu = np.einsum("snd,sd->sn", np.maximum(z1, 0.0), w2) + b2[:, None]
    active = weights[:, :, None] * (z1 > 0)
    grad = np.empty((values.shape[0], model.param_dim))
    g1, g2, gb = model._split_batch(grad)
    g2[:] = np.einsum("snd,snd->sd", active, z1)
    active *= w2[:, None, :]
    g1[:] = np.einsum("snd,np->sdp", active, features)
    gb[:] = np.sum(weights, axis=1)
    return mu, grad


class TestBlockedRelu:
    """relu1's origin line reads mu and the weighted gradient from its stored
    pre-activations in blocks of ``LINE_BLOCK_DRAWS``; every block gives the
    bits of one n-major pass over all draws."""

    @staticmethod
    def _instance(num_draws, rng, d=8, p=20, n=30):
        model = ReluOneModel(d=d, p=p)
        dataset = Dataset(
            features=rng.normal(size=(n, p)), labels=rng.integers(0, 2, size=n),
            feature_names=tuple(f"x{j}" for j in range(p)),
        )
        return model, dataset, GaussianPrior.isotropic(model.param_dim, 0.7), rng.normal(size=(num_draws, model.param_dim))

    @pytest.mark.parametrize("num_draws", [1, LINE_BLOCK_DRAWS, LINE_BLOCK_DRAWS + 1, 2 * LINE_BLOCK_DRAWS + 1])
    def test_equal_to_one_pass(self, num_draws, rng):
        model, dataset, prior, values = self._instance(num_draws, rng)
        weights = rng.normal(size=(num_draws, dataset.n))
        mu, grad = _unblocked_relu1(model, values, dataset.features, weights)
        origin = model.mu_line(values, dataset.features)
        assert np.array_equal(origin.mu, mu)
        assert np.array_equal(origin.weighted_grad_mu(weights), grad)
        assert np.array_equal(model.mu_batch(values, dataset.features), mu)

        got = evaluate_posterior(model, values, dataset, prior)
        resid = dataset.labels[None, :] - logistic(mu)
        log_prior = prior.log_density_batch(values)
        want = dict(zip(("log_lik", "log_post"), log_posterior(mu, dataset.labels, log_prior)), log_prior=log_prior)
        want["grad_log_post"] = prior.grad_batch(values) + _unblocked_relu1(model, values, dataset.features, resid)[1]
        assert np.array_equal(got.origin.mu, mu)
        assert np.array_equal(got.origin.z1, origin.z1)
        for name, value in want.items():
            assert np.array_equal(getattr(got, name), value), name

    def test_evaluation_forms_no_full_size_temporary(self, rng):
        """At S = 1000, d = 8, p = 20 and n = 100, one (S, n, d) array is
        S d n 8 bytes = 6.4 MB. Evaluating the posterior in one pass over all
        draws held four of them at once (17 MB traced). The call forms the
        origin's stored pre-activations z1, the one such array its result
        holds by design; reading z1 in blocks, the outputs and one block's
        temporaries stay under 1.5 such arrays besides it."""
        num_draws, d, n = 1000, 8, 100
        model, dataset, prior, values = self._instance(num_draws, rng, d=d, n=n)
        evaluate_posterior(model, values, dataset, prior)  # first-call allocations outside the trace
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            evaluation = evaluate_posterior(model, values, dataset, prior)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert evaluation.grad_log_post.shape == values.shape
        peak -= evaluation.origin.z1.nbytes
        assert peak < 1.5 * num_draws * d * n * 8, f"{peak / 1e6:.1f} MB traced besides z1"


class TestStoredPreActivations:
    """The origin line keeps the run's one W1 x, which every evaluation and
    line reads and none writes. At d = 1 a (draws, n, d) view of a block of
    z1 is already contiguous, so an in-place relu on anything but a fresh
    copy would rectify the stored pre-activations."""

    @pytest.mark.parametrize("d", [1, 2, 8])
    @pytest.mark.parametrize("num_draws", [1, LINE_BLOCK_DRAWS + 1])
    def test_no_pass_writes_into_z1(self, d, num_draws, rng):
        model, dataset, prior, values = TestBlockedRelu._instance(num_draws, rng, d=d, p=3, n=10)
        features = dataset.features
        origin = evaluate_posterior(model, values, dataset, prior).origin
        origin.weighted_grad_mu(rng.normal(size=(num_draws, dataset.n)))
        origin.hessian_projection(0, origin.grad_mu(0), origin.grad_mu(0))
        coef = 0.5 * rng.normal(size=num_draws)
        fan = origin.gradient_fan(0, coef)
        for line in (origin.along(rng.normal(size=values.shape)), origin.along(rng.normal(size=model.param_dim)),
                     fan.line(coef), fan.line(0.5 * coef)):
            for hbar in (1.0, 0.25):
                line.at(hbar)
        assert np.array_equal(origin.z1, np.einsum("sdp,np->sdn", model._split_batch(values)[0], features))
        assert (origin.z1 < 0).any()
        with pytest.raises(ValueError):
            origin.z1[0, 0, 0] = 1.0


def _edge_case_relu(num_draws, rng):
    """A relu1 instance (d = 2, p = 3, n = 4) whose first draws pin the edge
    cases of a line, with per-draw gradient coefficients and a dense step.

    x0 is the observation the gradient lines step at; x2 is orthogonal to it
    (g = 0). Draw 0: z1 = -0.25 exactly for unit 0 at x1, which coef W2 = 1
    (and the dense step's dz = 1) brings to exactly 0 at hbar = 1/4, and
    W2 = 0 for unit 1. Draws 1 and 2: z1 = 0 exactly for unit 0 at x1,
    moving up on draw 1 and down on draw 2. Draw 3 has coef = 0. The other
    draws, steps and coefficients are random.
    """
    model = ReluOneModel(d=2, p=3)
    features = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, -1.0, 0.0]])
    pinned = np.array([
        [0.5, -0.75, 0.3, 1.0, -1.0, 0.5, 2.0, 0.0, 0.1],
        [1.0, -1.0, 0.2, -0.5, 0.25, 1.0, 1.5, -1.0, -0.2],
        [1.0, -1.0, 0.2, -0.5, 0.25, 1.0, 1.5, -1.0, -0.2],
        [0.7, 0.2, -0.4, 0.3, 0.9, -0.6, 1.1, 0.8, 0.0],
    ])
    values = rng.normal(size=(num_draws, model.param_dim))
    values[: min(4, num_draws)] = pinned[:num_draws]
    coef = 0.3 * rng.normal(size=num_draws)
    coef[: min(4, num_draws)] = [0.5, 0.3, -0.3, 0.0][:num_draws]
    dense = rng.normal(size=values.shape)
    dense[: min(4, num_draws), :3] = [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.2, 0.1, 0.0]][:num_draws]
    return model, features, values, coef, dense


class TestMuLine:
    """mu along theta + hbar * D from the model's line matches mu_batch at the moved draws."""

    HBARS = (1.0, 0.25, 4.0**-5)

    def _check(self, model, line, values, step, features):
        for hbar in self.HBARS:
            np.testing.assert_allclose(
                line.at(hbar), model.mu_batch(values + hbar * step, features), rtol=1e-12, atol=1e-12
            )

    @pytest.mark.parametrize("model_maker", [make_logistic_toy, make_relu_toy])
    def test_dense_and_shared_steps(self, model_maker, rng):
        model, dataset, prior, draws = model_maker()
        values = draws.values
        origin = model.mu_line(values, dataset.features)
        for step in (rng.normal(size=values.shape), rng.normal(size=values.shape[1])):
            self._check(model, origin.along(step), values, step, dataset.features)

    @pytest.mark.parametrize("model_maker", [make_logistic_toy, make_relu_toy])
    def test_gradient_step(self, model_maker, rng):
        model, dataset, prior, draws = model_maker()
        values = draws.values
        coef = 0.1 * rng.normal(size=draws.num_draws)
        origin = model.mu_line(values, dataset.features)
        line = origin.gradient_fan(1, coef).line(coef)
        self._check(model, line, values, coef[:, None] * origin.grad_mu(1), dataset.features)

    @pytest.mark.parametrize("kind", ["PMM1", "PMM2", "KL", "Var", "LL"])
    def test_every_kind_on_the_relu_toy(self, kind):
        """The scan's own lines, gradient lines read from one shared fan,
        with some pre-activations changing sign."""
        model, dataset, prior, draws = make_relu_toy(seed=11, n=8, num_draws=120)
        problem = LooProblem.build(model, draws, dataset, prior, RunConfig())
        flipped = 0
        for i in range(dataset.n):
            nu, _ = pareto_smooth(raw_weights(problem, i))
            line = attempt(problem, kind, i, 1.0, nu)[0]
            self._check(model, line.mu, draws.values, line_step(line, problem, nu, model), dataset.features)
            flipped += line.mu.flips.cell.size
        assert flipped > 0

    @pytest.mark.parametrize("num_draws", [1, LINE_BLOCK_DRAWS, LINE_BLOCK_DRAWS + 1, 2 * LINE_BLOCK_DRAWS + 3])
    def test_relu1_line_across_block_boundaries(self, num_draws, rng):
        """The fan's pass walks the draws in blocks: one draw, exactly one
        block, a block plus one, and a draw count no block size divides, over
        the edge cases of :func:`_edge_case_relu`."""
        model, features, values, coef, dense = _edge_case_relu(num_draws, rng)
        origin = model.mu_line(values, features)
        grad = origin.grad_mu(0)
        shared = rng.normal(size=values.shape[1])
        lines = [
            (origin.along(dense), dense),
            (origin.along(shared), shared),
            (origin.gradient_fan(0, coef).line(coef), coef[:, None] * grad),
        ]
        for line, step in lines:
            self._check(model, line, values, step, features)
        if num_draws > 1:
            # draw 0, unit 0 at x1 reaches exactly 0 at hbar = 1/4 and turns on by hbar = 1
            for line, _ in (lines[0], lines[2]):
                assert 1 in line.flips.cell

    def test_coefficients_outside_the_fan(self, rng):
        """A line whose coefficients lie between 0 and the fan's bound, up to
        the bound itself, matches mu_batch; a coef past the bound, or of the
        other sign, is a DomainError."""
        model, features, values, coef, _ = _edge_case_relu(2 * LINE_BLOCK_DRAWS + 3, rng)
        origin = model.mu_line(values, features)
        grad = origin.grad_mu(0)
        bound = coef.copy()
        bound[::3] *= 2.0
        fan = origin.gradient_fan(0, bound)
        for inside in (coef, 0.5 * coef, bound, np.zeros_like(coef)):
            self._check(model, fan.line(inside), values, inside[:, None] * grad, features)
        # draw 0 has bound 1.0, draw 1 bound 0.3 and draw 3 bound 0
        for draw, outside in ((0, 1.5), (0, -0.5), (1, np.nextafter(0.3, 1.0)), (1, -0.3), (3, 5e-324)):
            moved = coef.copy()
            moved[draw] = outside
            with pytest.raises(DomainError, match="between 0 and the fan's bound"):
                fan.line(moved)

    def test_step_scale_outside_the_unit_interval(self, rng):
        model, dataset, prior, draws = make_relu_toy()
        origin = model.mu_line(draws.values, dataset.features)
        line = origin.along(rng.normal(size=draws.values.shape))
        with pytest.raises(DomainError, match="step scales in"):
            line.at(2.0)


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

    def test_sd_must_be_a_vector(self):
        with pytest.raises(DimensionError, match="^prior sd must be a 1-d vector$"):
            GaussianPrior(sd=[[1.0]])

    def test_grad_is_negative_precision_scaled(self):
        prior = GaussianPrior(sd=np.array([1.0, 2.0]))
        np.testing.assert_allclose(prior.grad_batch(np.array([[1.0, 2.0]])), [[-1.0, -0.5]])
