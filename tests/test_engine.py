"""Importance weights, the adaptation loop, and LOO summaries."""

import math

import numpy as np
import pytest

from looadapt import (
    Dataset,
    DimensionError,
    DomainError,
    GaussianPrior,
    LogisticModel,
    PosteriorDraws,
    ReluOneModel,
    RunConfig,
    run_loo,
)
from looadapt.engine import (
    LooProblem,
    ObservationResult,
    _loo_quantities,
    adapt_observation,
    eta_weights,
    loo_ic,
    self_normalized_se,
)
from looadapt.gpd import WeightVector
from looadapt.models import evaluate_posterior, sigmoid

from conftest import attempt, log_post, make_grid_instance_2, make_logistic_toy, make_relu_toy
from oracle import exact_loo_expectation, sample_grid_posterior


def _raw(problem, i):
    return eta_weights(problem.evaluation, problem.log_proposal, i)


class TestNuWeights:
    def test_known_likelihood_ratio(self):
        # two draws with lik 0.5 and 0.25: inverse weights 2 and 4 -> 1/3, 2/3
        dataset = Dataset(features=np.array([[1.0]]), labels=np.array([1]), feature_names=("x",))
        model = LogisticModel(p=1)
        mu1 = 0.0  # sigma = 0.5
        mu2 = math.log(1.0 / 3.0)  # sigma = 0.25
        draws = PosteriorDraws(values=np.array([[mu1], [mu2]]), param_names=("b",))
        problem = LooProblem.build(model, draws, dataset, GaussianPrior.isotropic(1, 1.0), RunConfig())
        weights = _raw(problem, 0)
        np.testing.assert_allclose(weights.normalized, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)

    def test_equal_likelihoods_uniform(self):
        dataset = Dataset(features=np.array([[0.0]]), labels=np.array([1]), feature_names=("x",))
        model = LogisticModel(p=1)
        draws = PosteriorDraws(values=np.array([[1.0], [2.0], [-3.0]]), param_names=("b",))
        problem = LooProblem.build(model, draws, dataset, GaussianPrior.isotropic(1, 1.0), RunConfig())
        weights = _raw(problem, 0)
        np.testing.assert_allclose(weights.normalized, 1.0 / 3.0, atol=1e-15)

    def test_single_weight_normalizes_to_one(self):
        assert WeightVector.from_log_weights([2.3]).normalized[0] == 1.0


class TestEtaWeights:
    def test_identity_transform_reduces_to_nu(self):
        model, dataset, prior, draws = make_logistic_toy(seed=51)
        problem = LooProblem.build(model, draws, dataset, prior, RunConfig())
        nu = _raw(problem, 2)
        zero_jacobian = np.zeros(draws.num_draws)
        eta = eta_weights(problem.evaluation, problem.log_proposal, 2, zero_jacobian)
        np.testing.assert_allclose(eta.normalized, nu.normalized, atol=1e-12)

    def test_constant_posterior_shift_cancels(self):
        model, dataset, prior, draws = make_logistic_toy(seed=52)
        problem = LooProblem.build(model, draws, dataset, prior, RunConfig())
        _, td = attempt(problem, "KL", 1, 0.25)
        base = eta_weights(td.evaluation, problem.log_proposal, 1, td.log_jac_det)
        # shifting every log weight by a constant is a no-op after
        # normalization; emulate by rescaling the jacobian column
        again = eta_weights(td.evaluation, problem.log_proposal, 1, td.log_jac_det + 5.0)
        np.testing.assert_allclose(again.normalized, base.normalized, atol=1e-12)

    def test_grid_oracle_expectation_within_three_se(self):
        model, dataset, prior, grid = make_grid_instance_2()
        rng = np.random.default_rng(77)
        values = sample_grid_posterior(grid, 4000, rng)
        draws = PosteriorDraws(values=values, param_names=("b0", "b1"))
        problem = LooProblem.build(model, draws, dataset, prior, RunConfig())
        i = 4
        _, td = attempt(problem, "KL", i, 0.25)
        eta = eta_weights(td.evaluation, problem.log_proposal, i, td.log_jac_det)

        def f(nodes):
            return sigmoid(model.mu_batch(nodes, dataset.features[i][None, :])[:, 0])

        exact = exact_loo_expectation(grid, model, dataset, i, f)
        values_at_phi = sigmoid(td.evaluation.mu[:, i])
        estimate = float(eta.normalized @ values_at_phi)
        se = self_normalized_se(eta.normalized, values_at_phi)
        assert abs(estimate - exact) <= 3.0 * se


def _variational_problem(model, draws, dataset, prior, log_density, **config):
    return LooProblem.build(model, draws, dataset, prior, RunConfig(**config), variational_log_density=log_density)


class TestChiWeights:
    """Weights of draws from a variational proposal q."""

    def test_true_posterior_telescopes_to_nu(self):
        model, dataset, prior, draws = make_logistic_toy(seed=54)
        nu = _raw(LooProblem.build(model, draws, dataset, prior, RunConfig()), 3)

        def variational(theta):
            return log_post(model, theta, dataset, prior)

        problem = _variational_problem(model, draws, dataset, prior, variational)
        chi = eta_weights(problem.evaluation, problem.log_proposal, 3, np.zeros(draws.num_draws))
        np.testing.assert_allclose(chi.normalized, nu.normalized, atol=1e-12)
        np.testing.assert_allclose(_raw(problem, 3).normalized, nu.normalized, atol=1e-12)

    def test_constant_factor_invariance(self):
        model, dataset, prior, draws = make_logistic_toy(seed=55)

        def variational(theta):
            return log_post(model, theta, dataset, prior)

        def variational_scaled(theta):
            return variational(theta) + 11.5

        pa = _variational_problem(model, draws, dataset, prior, variational)
        pb = _variational_problem(model, draws, dataset, prior, variational_scaled)
        a = _raw(pa, 0)
        b = _raw(pb, 0)
        np.testing.assert_allclose(a.normalized, b.normalized, atol=1e-12)

    def test_crude_gaussian_proposal_within_three_se(self):
        model, dataset, prior, grid = make_grid_instance_2()
        rng = np.random.default_rng(88)
        # draws from a deliberately inflated Gaussian, corrected through q
        proposal_sd = 2.5
        values = proposal_sd * rng.standard_normal((4000, 2))
        draws = PosteriorDraws(values=values, param_names=("b0", "b1"))

        def variational(theta):
            return float(-0.5 * np.sum((np.asarray(theta) / proposal_sd) ** 2))

        i = 2
        problem = _variational_problem(model, draws, dataset, prior, variational)
        chi = _raw(problem, i)

        def f(nodes):
            return sigmoid(model.mu_batch(nodes, dataset.features[i][None, :])[:, 0])

        exact = exact_loo_expectation(grid, model, dataset, i, f)
        fvals = f(draws.values)
        estimate = float(chi.normalized @ fvals)
        se = self_normalized_se(chi.normalized, fvals)
        assert abs(estimate - exact) <= 3.0 * se

    def test_non_finite_density_names_first_bad_draw(self):
        model, dataset, prior, draws = make_logistic_toy(seed=65)

        def variational(theta):
            return math.nan if theta[0] > 0 else 0.0

        first_bad = int(np.flatnonzero(draws.values[:, 0] > 0)[0])
        with pytest.raises(DomainError, match=f"at draw {first_bad};"):
            _variational_problem(model, draws, dataset, prior, variational)

        def infinite(theta):
            return -math.inf

        with pytest.raises(DomainError, match="at draw 0;"):
            _variational_problem(model, draws, dataset, prior, infinite)


class TestAdaptObservation:
    def test_low_khat_short_circuits(self):
        model, dataset, prior, grid = make_grid_instance_2()
        rng = np.random.default_rng(99)
        draws = PosteriorDraws(values=sample_grid_posterior(grid, 2000, rng), param_names=("a", "b"))
        result = adapt_observation(0, LooProblem.build(model, draws, dataset, prior, RunConfig()))
        assert result.raw_khat <= 0.7
        assert result.adapted and result.winning_transform is None
        assert result.attempts == ()
        assert 0.0 <= result.loo_predictive_prob <= 1.0

    def test_infinite_threshold_trivially_adapts(self):
        model, dataset, prior, draws = make_logistic_toy(seed=56, draw_scale=8.0)
        config = RunConfig(khat_threshold=math.inf)
        result = adapt_observation(1, LooProblem.build(model, draws, dataset, prior, config))
        assert result.adapted
        assert result.attempts == ()

    @pytest.mark.parametrize("toy", ["logistic", "relu1"])
    def test_winner_is_one_of_the_attempts(self, toy):
        if toy == "logistic":
            model, dataset, prior, draws = make_logistic_toy(seed=66, num_draws=80, draw_scale=3.0)
        else:
            model, dataset, prior, draws = make_relu_toy(seed=67, num_draws=60)
        report = run_loo(model, draws, dataset, prior, RunConfig(hbar_exponents=(0, 1, 2)))
        winners = [r for r in report.per_observation if r.winning_transform is not None]
        assert winners
        for r in winners:
            assert any(a is r.winning_transform for a in r.attempts)
            assert r.final_khat == r.winning_transform.khat

    def test_final_khat_is_minimal_on_failure(self):
        # a wildly mismatched draw cloud that no transform can fix
        model, dataset, prior, draws = make_logistic_toy(seed=57, p=4, num_draws=300, draw_scale=12.0)
        config = RunConfig(hbar_exponents=(0, 2, 4))
        problem = LooProblem.build(model, draws, dataset, prior, config)
        for i in range(dataset.n):
            result = adapt_observation(i, problem)
            attempted = [a.khat for a in result.attempts]
            if not result.adapted and attempted:
                assert result.final_khat <= min(attempted) + 1e-12
                assert result.final_khat <= result.raw_khat + 1e-12

    def test_density_turns_the_correction_on(self):
        # passing q alone corrects for the proposal: LOO-IC 9.74 with q,
        # against 11.42 when the draws are taken for posterior draws
        tau = 0.8
        model, dataset, prior, draws = make_logistic_toy(seed=64, p=2, num_draws=400, draw_scale=tau)

        def proposal_log_density(theta):
            return float(-0.5 * np.sum((np.asarray(theta) / tau) ** 2))

        corrected = run_loo(model, draws, dataset, prior, RunConfig(), variational_log_density=proposal_log_density)
        assert corrected.loo_ic == pytest.approx(9.74, abs=0.01)
        assert run_loo(model, draws, dataset, prior, RunConfig()).loo_ic == pytest.approx(11.42, abs=0.01)

    def test_variational_correction_drives_attempts(self):
        # draws from a Gaussian narrower than the posterior (the usual
        # under-dispersion of a variational fit); the variational density is
        # that proposal itself, so raw and transformed weights correct for it
        tau = 0.8
        model, dataset, prior, draws = make_logistic_toy(
            seed=64, p=2, num_draws=400, draw_scale=tau
        )

        def proposal_log_density(theta):
            return float(-0.5 * np.sum((np.asarray(theta) / tau) ** 2))

        problem = _variational_problem(
            model, draws, dataset, prior, proposal_log_density, hbar_exponents=(0, 1, 2)
        )
        flagged = adapted = 0
        for i in range(dataset.n):
            result = adapt_observation(i, problem)
            if result.raw_khat > problem.config.khat_threshold:
                flagged += 1
                assert result.attempts  # q-corrected attempts were made
                adapted += int(result.adapted)
        assert flagged > 0
        assert adapted > 0


class TestLooIc:
    def _result_with_lpd(self, lpd):
        return ObservationResult(
            index=0, raw_khat=0.1, adapted=True, winning_transform=None, final_khat=0.1,
            final_weights=WeightVector.from_log_weights(np.zeros(2)),
            loo_predictive_prob=0.5, loo_log_predictive_density=lpd,
            loo_predictive_prob_se=0.0, loo_log_predictive_density_se=0.0, attempts=(),
        )

    def test_single_observation(self):
        assert loo_ic([self._result_with_lpd(math.log(0.5))]) == pytest.approx(1.386294, abs=1e-6)

    def test_additivity(self):
        results = [self._result_with_lpd(math.log(0.5))] * 2
        assert loo_ic(results) == pytest.approx(2.772589, abs=1e-6)

    def test_uniform_weight_half_likelihood(self):
        # mu = 0 for every draw: lik = 1/2, lpd = log 1/2
        weights = WeightVector.from_log_weights(np.zeros(4))
        prob, prob_se, lpd, lpd_se = _loo_quantities(weights, np.zeros(4), 1)
        assert prob == pytest.approx(0.5)
        assert lpd == pytest.approx(math.log(0.5))
        assert prob_se == pytest.approx(0.0, abs=1e-15)

    def test_grid_oracle_loo_ic_within_three_se(self):
        model, dataset, prior, grid = make_grid_instance_2()
        rng = np.random.default_rng(111)
        draws = PosteriorDraws(values=sample_grid_posterior(grid, 4000, rng), param_names=("a", "b"))
        report = run_loo(model, draws, dataset, prior, RunConfig())
        exact_ic = 0.0
        for i in range(dataset.n):
            def lik(nodes, i=i):
                mu = model.mu_batch(nodes, dataset.features[i][None, :])[:, 0]
                s = sigmoid(mu)
                return s if dataset.labels[i] == 1 else 1.0 - s

            exact_ic += -2.0 * math.log(exact_loo_expectation(grid, model, dataset, i, lik))
        assert abs(report.loo_ic - exact_ic) <= 3.0 * max(report.loo_ic_se, 1e-6)


class TestRunLoo:
    def test_deterministic_replay(self):
        model, dataset, prior, draws = make_logistic_toy(seed=59, num_draws=80)
        config = RunConfig()
        a = run_loo(model, draws, dataset, prior, config)
        b = run_loo(model, draws, dataset, prior, config)
        assert a.loo_ic == b.loo_ic
        for ra, rb in zip(a.per_observation, b.per_observation):
            assert ra.loo_predictive_prob == rb.loo_predictive_prob
            assert ra.final_khat == rb.final_khat or (
                math.isinf(ra.final_khat) and math.isinf(rb.final_khat)
            )

    def test_parallel_matches_serial(self):
        model, dataset, prior, draws = make_logistic_toy(seed=60, num_draws=80)
        config = RunConfig()
        serial = run_loo(model, draws, dataset, prior, config, workers=1)
        threaded = run_loo(model, draws, dataset, prior, config, workers=4)
        assert serial.loo_ic == threaded.loo_ic
        assert [r.index for r in threaded.per_observation] == list(range(dataset.n))
        for ra, rb in zip(serial.per_observation, threaded.per_observation):
            assert ra.loo_predictive_prob == rb.loo_predictive_prob

    def test_report_counts_failures(self):
        model, dataset, prior, draws = make_logistic_toy(seed=61, num_draws=200, draw_scale=12.0)
        config = RunConfig(hbar_exponents=(0, 4))
        report = run_loo(model, draws, dataset, prior, config)
        assert report.n_failed == sum(1 for r in report.per_observation if not r.adapted)
        assert math.isfinite(report.loo_ic)

    def test_scaling_invariance_of_weights(self):
        # scaling all unnormalized weights is invisible downstream
        model, dataset, prior, draws = make_logistic_toy(seed=62)
        nu = _raw(LooProblem.build(model, draws, dataset, prior, RunConfig()), 0)
        scaled = WeightVector.from_log_weights(nu.log_weights + 123.4)
        np.testing.assert_allclose(scaled.normalized, nu.normalized, atol=1e-12)

    def test_overflowing_step_size_is_reported_as_inf(self):
        # draws a thousand times wider than the data support: the step is
        # bounded by the posterior sd, but h = exp(log h) exceeds the float range
        model, dataset, prior, draws = make_logistic_toy(seed=2, n=20, p=3, num_draws=400, draw_scale=1e3)
        report = run_loo(model, draws, dataset, prior, RunConfig())
        overflowed = [a for r in report.per_observation for a in r.attempts if a.h_used == math.inf]
        assert overflowed
        assert all(a.max_step_sd <= a.hbar + 1e-9 for a in overflowed)

    def test_zero_weight_draws_keep_the_se_finite(self):
        # wide draws leave many final weights at exactly 0, where the
        # draw's likelihood ratio to the LOO density can overflow
        model, dataset, prior, draws = make_logistic_toy(seed=0, n=20, p=3, num_draws=400, draw_scale=1e3)
        report = run_loo(model, draws, dataset, prior, RunConfig())
        assert any(np.any(r.final_weights.normalized == 0.0) for r in report.per_observation)
        assert all(math.isfinite(r.loo_log_predictive_density_se) for r in report.per_observation)
        assert math.isfinite(report.loo_ic_se)

    def test_predictive_probs_in_unit_interval(self):
        model, dataset, prior, draws = make_logistic_toy(seed=63, num_draws=120, draw_scale=5.0)
        report = run_loo(model, draws, dataset, prior, RunConfig(hbar_exponents=(0, 2)))
        for r in report.per_observation:
            assert 0.0 <= r.loo_predictive_prob <= 1.0


class TestDimensionChecks:
    """Inputs that do not fit the model are a DimensionError before any arithmetic."""

    def test_draws_wider_than_relu1_parameters(self):
        # P = 9: ten draw columns would be read as W1 / W2 / b2 from the wrong places
        model, dataset, prior, draws = make_relu_toy(d=2, p=3)
        wide = PosteriorDraws(values=np.hstack([draws.values, draws.values[:, :1]]),
                              param_names=tuple(f"w{j}" for j in range(10)))
        config = RunConfig(transform_order=("PMM1", "PMM2"))
        with pytest.raises(DimensionError, match="10 parameter columns in the draws, but the model expects 9"):
            run_loo(model, wide, dataset, GaussianPrior.isotropic(10, 1.5), config)

    def test_logistic_model_wider_than_the_data(self):
        _, dataset, prior, draws = make_logistic_toy(p=3)
        with pytest.raises(DimensionError, match="3 parameter columns in the draws, but the model expects 7"):
            run_loo(LogisticModel(p=7), draws, dataset, prior, RunConfig())

    def test_prior_of_the_wrong_length(self):
        model, dataset, _, draws = make_logistic_toy(p=3)
        with pytest.raises(DimensionError, match="1 prior sds, but the model expects 3"):
            run_loo(model, draws, dataset, GaussianPrior(sd=np.array([1.0])), RunConfig())

    def test_dataset_features_of_the_wrong_width(self):
        # draws and prior fit the model, the features do not
        model = ReluOneModel(d=2, p=4)
        _, dataset, _, _ = make_relu_toy(d=2, p=3)
        draws = PosteriorDraws(values=np.random.default_rng(0).normal(size=(20, model.param_dim)),
                               param_names=tuple(f"w{j}" for j in range(model.param_dim)))
        prior = GaussianPrior.isotropic(model.param_dim, 1.0)
        with pytest.raises(DimensionError, match="3 dataset features, but the model expects 4"):
            LooProblem.build(model, draws, dataset, prior, RunConfig())


class TestVariationalRun:
    def test_grid_oracle_within_three_se(self):
        # Gaussian proposal at the grid posterior's mean with 1.5x its
        # covariance: every raw weight needs the q correction to be right
        model, dataset, prior, grid = make_grid_instance_2()
        w = grid.probabilities
        mean = w @ grid.nodes
        centered = grid.nodes - mean
        cov = 1.5 * (centered.T @ (centered * w[:, None]))
        rng = np.random.default_rng(7)
        values = mean + rng.standard_normal((4000, 2)) @ np.linalg.cholesky(cov).T
        draws = PosteriorDraws(values=values, param_names=("b0", "b1"))
        precision = np.linalg.inv(cov)

        def q(theta):
            d = np.asarray(theta) - mean
            return float(-0.5 * d @ precision @ d)

        report = run_loo(model, draws, dataset, prior, RunConfig(), variational_log_density=q)
        for r in report.per_observation:
            x = dataset.features[r.index][None, :]
            exact = exact_loo_expectation(
                grid, model, dataset, r.index, lambda nodes: sigmoid(model.mu_batch(nodes, x)[:, 0])
            )
            assert abs(r.loo_predictive_prob - exact) <= 3.0 * r.loo_predictive_prob_se, r.index


def _winner(result):
    win = result.winning_transform
    return None if win is None else (win.kind, win.hbar)


def _assert_same_results(a, b, prob=lambda p: p):
    for ra, rb in zip(a, b):
        assert ra.adapted == rb.adapted
        assert _winner(ra) == _winner(rb)
        assert len(ra.attempts) == len(rb.attempts)
        assert abs(ra.loo_predictive_prob - prob(rb.loo_predictive_prob)) <= 1e-12
        assert abs(ra.loo_log_predictive_density - rb.loo_log_predictive_density) <= 1e-12


class TestMetamorphic:
    """Symmetries of the LOO problem that every estimate must respect."""

    @pytest.mark.parametrize("toy", ["logistic", "relu1"])
    def test_draw_permutation_invariance(self, toy):
        if toy == "logistic":
            model, dataset, prior, draws = make_logistic_toy(seed=66, num_draws=80, draw_scale=3.0)
        else:
            model, dataset, prior, draws = make_relu_toy(seed=67, num_draws=60)
        perm = np.random.default_rng(1).permutation(draws.num_draws)
        shuffled = PosteriorDraws(values=draws.values[perm], param_names=draws.param_names)
        config = RunConfig(hbar_exponents=(0, 1, 2))
        a = run_loo(model, draws, dataset, prior, config)
        b = run_loo(model, shuffled, dataset, prior, config)
        assert any(r.attempts for r in a.per_observation)
        _assert_same_results(a.per_observation, b.per_observation)

    def test_logistic_label_and_sign_flip(self):
        # y -> 1 - y and theta -> -theta leave every likelihood unchanged,
        # so the LOO probability of class 1 becomes one minus itself
        model, dataset, prior, draws = make_logistic_toy(seed=68, num_draws=80, draw_scale=3.0)
        flipped_data = Dataset(features=dataset.features, labels=1 - dataset.labels,
                               feature_names=dataset.feature_names)
        flipped_draws = PosteriorDraws(values=-draws.values, param_names=draws.param_names)
        config = RunConfig(hbar_exponents=(0, 1, 2))
        a = run_loo(model, draws, dataset, prior, config)
        b = run_loo(model, flipped_draws, flipped_data, prior, config)
        assert any(r.attempts for r in a.per_observation)
        _assert_same_results(a.per_observation, b.per_observation, prob=lambda p: 1.0 - p)

    def test_observation_permutation_equivariance(self):
        model, dataset, prior, draws = make_logistic_toy(seed=69, n=8, num_draws=80, draw_scale=3.0)
        perm = np.random.default_rng(2).permutation(dataset.n)
        shuffled = Dataset(features=dataset.features[perm], labels=dataset.labels[perm],
                           feature_names=dataset.feature_names)
        config = RunConfig(hbar_exponents=(0, 1, 2))
        a = run_loo(model, draws, dataset, prior, config)
        b = run_loo(model, draws, shuffled, prior, config)
        assert any(r.attempts for r in a.per_observation)
        reordered = [a.per_observation[j] for j in perm]
        for ra, rb in zip(reordered, b.per_observation):
            assert ra.adapted == rb.adapted
            assert len(ra.attempts) == len(rb.attempts)
            assert _winner(ra) == _winner(rb)
            assert abs(ra.loo_predictive_prob - rb.loo_predictive_prob) <= 1e-12
            assert abs(ra.loo_log_predictive_density - rb.loo_log_predictive_density) <= 1e-12


class TestRunCost:
    """One posterior evaluation per run; weighted moments at most once per flagged observation;
    one forward pass at the observation per gradient line."""

    def _toy(self, toy):
        if toy == "logistic":
            return make_logistic_toy(seed=66, num_draws=80, draw_scale=3.0)
        return make_relu_toy(seed=67, num_draws=60)

    @pytest.mark.parametrize("toy", ["logistic", "relu1"])
    def test_one_evaluation_per_run(self, toy, monkeypatch):
        from looadapt import engine, transforms

        model, dataset, prior, draws = self._toy(toy)
        calls = {"evaluate_posterior": 0, "weighted_moments": 0}

        def counted_evaluate(*args, **kwargs):
            calls["evaluate_posterior"] += 1
            return evaluate_posterior(*args, **kwargs)

        def counted_moments(module):
            original = module.marginal_stats

            def wrapper(draws, weights=None):
                calls["weighted_moments"] += weights is not None
                return original(draws, weights)

            return wrapper

        monkeypatch.setattr(engine, "evaluate_posterior", counted_evaluate)
        for module in (engine, transforms):
            monkeypatch.setattr(module, "marginal_stats", counted_moments(module))
        report = run_loo(model, draws, dataset, prior, RunConfig(hbar_exponents=(0, 1, 2)))
        flagged = sum(1 for r in report.per_observation if r.attempts)
        assert flagged > 0
        assert calls["evaluate_posterior"] == 1
        assert 0 < calls["weighted_moments"] <= flagged

    @pytest.mark.parametrize("toy", ["logistic", "relu1"])
    def test_one_grad_mu_batch_per_gradient_line(self, toy, monkeypatch):
        from looadapt import transforms

        model, dataset, prior, draws = self._toy(toy)
        calls = {"grad_mu_batch": 0, "lines": 0}
        grad_mu_batch = type(model).grad_mu_batch
        apply_gradient_transform = transforms.apply_gradient_transform

        def counted_grad(self, values, x):
            calls["grad_mu_batch"] += 1
            return grad_mu_batch(self, values, x)

        def counted_line(*args, **kwargs):
            calls["lines"] += 1
            return apply_gradient_transform(*args, **kwargs)

        monkeypatch.setattr(type(model), "grad_mu_batch", counted_grad)
        monkeypatch.setattr(transforms, "apply_gradient_transform", counted_line)
        run_loo(model, draws, dataset, prior, RunConfig(hbar_exponents=(0, 1, 2), transform_order=("KL", "Var", "LL")))
        assert calls["lines"] > 0
        assert calls["grad_mu_batch"] == calls["lines"]
