"""Importance weights, the adaptation loop, and LOO summaries."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from looadapt import (
    Dataset,
    DimensionError,
    DomainError,
    GaussianPrior,
    LogisticModel,
    LooAdaptError,
    PosteriorDraws,
    ReluOneModel,
    RunConfig,
    run_loo,
)
from looadapt import engine
from looadapt.engine import (
    LooProblem,
    ObservationResult,
    _loo_quantities,
    adapt_observation,
    eta_weights,
    loo_ic,
    self_normalized_se,
)
from looadapt.gpd import WeightVector, pareto_smooth
from looadapt.models import bernoulli_log_likelihood, evaluate_posterior, log_posterior, sigmoid
from looadapt.transforms import apply_gradient_transform, apply_transform

from conftest import (
    attempt,
    attempt_weights,
    gaussian_proposal,
    line_step,
    log_post,
    make_grid_instance_2,
    make_logistic_toy,
    make_relu_grid_instance,
    make_relu_toy,
    observation,
    raw_weights,
)
from oracle import exact_loo_expectation, sample_grid_posterior


class TestNuWeights:
    def test_known_likelihood_ratio(self):
        # two draws with lik 0.5 and 0.25: inverse weights 2 and 4 -> 1/3, 2/3
        dataset = Dataset(features=np.array([[1.0]]), labels=np.array([1]), feature_names=("x",))
        model = LogisticModel(p=1)
        mu1 = 0.0  # sigma = 0.5
        mu2 = math.log(1.0 / 3.0)  # sigma = 0.25
        draws = PosteriorDraws(values=np.array([[mu1], [mu2]]), param_names=("b",))
        problem = LooProblem.build(model, draws, dataset, GaussianPrior.isotropic(1, 1.0), RunConfig())
        weights = raw_weights(problem, 0)
        np.testing.assert_allclose(weights.normalized, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)

    def test_equal_likelihoods_uniform(self):
        dataset = Dataset(features=np.array([[0.0]]), labels=np.array([1]), feature_names=("x",))
        model = LogisticModel(p=1)
        draws = PosteriorDraws(values=np.array([[1.0], [2.0], [-3.0]]), param_names=("b",))
        problem = LooProblem.build(model, draws, dataset, GaussianPrior.isotropic(1, 1.0), RunConfig())
        weights = raw_weights(problem, 0)
        np.testing.assert_allclose(weights.normalized, 1.0 / 3.0, atol=1e-15)

    def test_single_weight_normalizes_to_one(self):
        assert WeightVector.from_log_weights([2.3]).normalized[0] == 1.0


class TestEtaWeights:
    def test_identity_transform_reduces_to_nu(self):
        model, dataset, prior, draws = make_logistic_toy(seed=51)
        problem = LooProblem.build(model, draws, dataset, prior, RunConfig())
        nu = raw_weights(problem, 2)
        zero_jacobian = np.zeros(draws.num_draws)
        eta = raw_weights(problem, 2, zero_jacobian)
        np.testing.assert_allclose(eta.normalized, nu.normalized, atol=1e-12)

    def test_constant_posterior_shift_cancels(self):
        model, dataset, prior, draws = make_logistic_toy(seed=52)
        problem = LooProblem.build(model, draws, dataset, prior, RunConfig())
        _, td = attempt(problem, "KL", 1, 0.25)
        base = attempt_weights(problem, td)
        # shifting every log weight by a constant is a no-op after
        # normalization; emulate by rescaling the jacobian column
        again = eta_weights(td.log_lik_i, td.log_post, problem.log_proposal, td.log_jac_det + 5.0)
        np.testing.assert_allclose(again.normalized, base.normalized, atol=1e-12)

    def test_non_finite_mu_is_a_zero_weight(self):
        """A NaN mu, or one where the label has probability 0, gives its draw
        weight zero, never NaN; one where the label is certain keeps it."""
        model, dataset, prior, draws = make_logistic_toy(seed=53)
        problem = LooProblem.build(model, draws, dataset, prior, RunConfig())
        mu = problem.evaluation.origin.mu.copy()
        sign = 2.0 * dataset.labels - 1.0
        mu[3, 0] = np.nan
        mu[5, 1] = -np.inf * sign[1]
        mu[7, 2] = np.inf * sign[2]
        log_lik, log_post = log_posterior(mu, dataset.labels, problem.evaluation.log_prior)
        for i in (0, 1, 2):
            w = eta_weights(log_lik[:, i], log_post, problem.log_proposal).normalized
            assert np.all(np.isfinite(w))
            assert w[3] == 0.0 and w[5] == 0.0 and w[7] > 0.0

    def test_grid_oracle_expectation_within_three_se(self):
        model, dataset, prior, grid = make_grid_instance_2()
        rng = np.random.default_rng(77)
        values = sample_grid_posterior(grid, 4000, rng)
        draws = PosteriorDraws(values=values, param_names=("b0", "b1"))
        problem = LooProblem.build(model, draws, dataset, prior, RunConfig())
        i = 4
        _, td = attempt(problem, "KL", i, 0.25)
        eta = attempt_weights(problem, td)

        def f(nodes):
            return sigmoid(model.mu_batch(nodes, dataset.features[i][None, :])[:, 0])

        exact = exact_loo_expectation(grid, model, dataset, i, f)
        values_at_phi = sigmoid(td.mu_i)
        estimate = float(eta.normalized @ values_at_phi)
        se = self_normalized_se(eta.normalized, values_at_phi)
        assert abs(estimate - exact) <= 3.0 * se


def _variational_problem(model, draws, dataset, prior, log_density, **config):
    return LooProblem.build(model, draws, dataset, prior, RunConfig(**config), variational_log_density=log_density)


class TestChiWeights:
    """Weights of draws from a variational proposal q."""

    def test_true_posterior_telescopes_to_nu(self):
        model, dataset, prior, draws = make_logistic_toy(seed=54)
        nu = raw_weights(LooProblem.build(model, draws, dataset, prior, RunConfig()), 3)

        def variational(theta):
            return log_post(model, theta, dataset, prior)

        problem = _variational_problem(model, draws, dataset, prior, variational)
        chi = raw_weights(problem, 3, np.zeros(draws.num_draws))
        np.testing.assert_allclose(chi.normalized, nu.normalized, atol=1e-12)
        np.testing.assert_allclose(raw_weights(problem, 3).normalized, nu.normalized, atol=1e-12)

    def test_constant_factor_invariance(self):
        model, dataset, prior, draws = make_logistic_toy(seed=55)

        def variational(theta):
            return log_post(model, theta, dataset, prior)

        def variational_scaled(theta):
            return variational(theta) + 11.5

        pa = _variational_problem(model, draws, dataset, prior, variational)
        pb = _variational_problem(model, draws, dataset, prior, variational_scaled)
        a = raw_weights(pa, 0)
        b = raw_weights(pb, 0)
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
        chi = raw_weights(problem, i)

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

    def test_threshold_above_the_raw_khat_trivially_adapts(self):
        model, dataset, prior, draws = make_logistic_toy(seed=56, draw_scale=8.0)
        config = RunConfig(khat_threshold=1e300)
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

    def test_step_scales_run_largest_first_in_any_order(self):
        # the scan keeps its first success, so a grid listed smallest first
        # must still try hbar = 1 before 4**-1 and 4**-3
        model, dataset, prior, draws = make_logistic_toy(seed=66, num_draws=80, draw_scale=3.0)
        a = run_loo(model, draws, dataset, prior, RunConfig(hbar_exponents=(3, 0, 1)))
        b = run_loo(model, draws, dataset, prior, RunConfig(hbar_exponents=(0, 1, 3)))
        assert any(r.adapted and r.attempts for r in a.per_observation)
        for ra, rb in zip(a.per_observation, b.per_observation):
            assert ra.attempts == rb.attempts
            assert (ra.loo_predictive_prob, ra.loo_log_predictive_density) == (
                rb.loo_predictive_prob, rb.loo_log_predictive_density)
            for kind in RunConfig().transform_order:
                hbars = [at.hbar for at in ra.attempts if at.kind == kind]
                assert hbars == [1.0, 0.25, 4.0**-3][:len(hbars)]

    def test_all_zero_weights_are_a_degenerate_attempt(self, monkeypatch):
        # a map whose Jacobian is singular at every draw leaves no weight:
        # the attempt is recorded and passed over, and the scan goes on
        model, dataset, prior, draws = make_logistic_toy(seed=66, num_draws=80, draw_scale=3.0)
        problem = LooProblem.build(model, draws, dataset, prior, RunConfig())
        i = next(i for i in range(dataset.n) if pareto_smooth(raw_weights(problem, i))[1].khat > 0.7)
        calls = []

        def singular_first(line, hbar, problem):
            out = apply_transform(line, hbar, problem)
            calls.append(hbar)
            if len(calls) == 1:
                out = replace(out, log_jac_det=np.full(problem.draws.num_draws, -np.inf))
            return out

        monkeypatch.setattr(engine, "apply_transform", singular_first)
        result = adapt_observation(i, problem)
        first = result.attempts[0]
        assert (first.kind, first.hbar) == ("PMM1", 1.0)
        assert first.degenerate and not first.fittable
        assert first.flags == ("all-weights-zero",)
        assert first.khat == math.inf
        assert result.winning_transform is not first
        assert (result.attempts[1].kind, result.attempts[1].hbar) == ("PMM1", 0.25)


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
        prob, prob_se, lpd, lpd_se = _loo_quantities(weights, np.zeros(4), np.full(4, math.log(0.5)))
        assert prob == pytest.approx(0.5)
        assert lpd == pytest.approx(math.log(0.5))
        assert prob_se == pytest.approx(0.0, abs=1e-15)

    def test_a_zero_weight_draw_is_not_read(self):
        """A draw of log weight -inf, as eta_weights gives a draw with a NaN mu,
        leaves all four numbers as they are without it, also when its mu and
        log likelihood are NaN."""
        rng = np.random.default_rng(8)
        log_w, mu = rng.normal(size=50), rng.normal(size=50)
        log_lik = bernoulli_log_likelihood(mu, 1)
        want = _loo_quantities(WeightVector.from_log_weights(log_w), mu, log_lik)
        got = _loo_quantities(
            WeightVector.from_log_weights(np.append(log_w, -np.inf)), np.append(mu, np.nan), np.append(log_lik, np.nan)
        )
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
        assert np.all(np.isfinite(got))

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
        nu = raw_weights(LooProblem.build(model, draws, dataset, prior, RunConfig()), 0)
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
        # draw's likelihood ratio to the LOO density can overflow; the SE
        # stays finite wherever at least two draws carry weight
        model, dataset, prior, draws = make_logistic_toy(seed=0, n=20, p=3, num_draws=400, draw_scale=1e3)
        report = run_loo(model, draws, dataset, prior, RunConfig())
        nonzero = [np.count_nonzero(r.final_weights.normalized) for r in report.per_observation]
        assert any(2 <= k < draws.num_draws for k in nonzero)
        for r, k in zip(report.per_observation, nonzero):
            assert math.isfinite(r.loo_log_predictive_density_se) == (k >= 2)
            assert math.isfinite(r.loo_predictive_prob_se) == (k >= 2)

    @pytest.mark.parametrize("seed, draw_scale", [(0, 1e6), (2, 1e5)])
    def test_weights_on_one_draw_have_an_infinite_se(self, seed, draw_scale):
        # at huge draw scales the final weights collapse onto one draw; the MC
        # error cannot be estimated from one draw, and 0 would claim an exact answer
        model, dataset, prior, draws = make_logistic_toy(seed=seed, n=20, p=3, num_draws=400, draw_scale=draw_scale)
        report = run_loo(model, draws, dataset, prior, RunConfig())
        single = [np.count_nonzero(r.final_weights.normalized) < 2 for r in report.per_observation]
        assert any(single)
        for r, one in zip(report.per_observation, single):
            assert math.isinf(r.loo_predictive_prob_se) == one
            assert math.isinf(r.loo_log_predictive_density_se) == one
            assert math.isfinite(r.loo_log_predictive_density)
        assert report.loo_ic_se == math.inf

    def test_too_few_draws_for_a_pareto_tail_skip_the_scan(self):
        # S = 8 gives a PSIS tail of 2 draws, below MIN_TAIL_SIZE: no attempt
        # could be fitted, so none is made and the raw weights are reported
        model, dataset, prior, draws = make_logistic_toy(seed=42, n=20, p=3, num_draws=8)
        report = run_loo(model, draws, dataset, prior, RunConfig())
        problem = LooProblem.build(model, draws, dataset, prior, RunConfig())
        ev = problem.evaluation
        for i, r in enumerate(report.per_observation):
            assert r.attempts == ()
            assert r.winning_transform is None and not r.adapted
            raw, fit = pareto_smooth(raw_weights(problem, i))
            assert not fit.fittable and r.raw_khat == r.final_khat == math.inf
            np.testing.assert_array_equal(r.final_weights.normalized, raw.normalized)
            assert (r.loo_predictive_prob, r.loo_predictive_prob_se, r.loo_log_predictive_density,
                    r.loo_log_predictive_density_se) == _loo_quantities(raw, ev.origin.mu[:, i], ev.log_lik[:, i])

    def test_fewer_than_one_worker_is_a_domain_error(self):
        model, dataset, prior, draws = make_logistic_toy(seed=60, num_draws=80)
        with pytest.raises(DomainError, match="workers must be at least 1, got 0"):
            run_loo(model, draws, dataset, prior, RunConfig(), workers=0)

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

    @pytest.mark.parametrize("wrong, message", [
        ("draws", "8 parameter columns in the draws, but the model expects 9"),
        ("prior", "10 prior sds, but the model expects 9"),
        ("features", "4 dataset features, but the model expects 3"),
    ])
    def test_checked_before_the_origin_line(self, wrong, message, monkeypatch):
        """evaluate_posterior raises each DimensionError before it builds the origin line."""
        model, dataset, prior, draws = make_relu_toy(d=2, p=3)
        calls = []
        mu_line = ReluOneModel.mu_line

        def counted(*args):
            calls.append(args)
            return mu_line(*args)

        monkeypatch.setattr(ReluOneModel, "mu_line", counted)
        evaluate_posterior(model, draws.values, dataset, prior)
        assert len(calls) == 1
        values = draws.values[:, :-1] if wrong == "draws" else draws.values
        if wrong == "prior":
            prior = GaussianPrior.isotropic(model.param_dim + 1, 1.0)
        if wrong == "features":
            dataset = Dataset(features=np.hstack([dataset.features, dataset.features[:, :1]]), labels=dataset.labels,
                              feature_names=("x0", "x1", "x2", "x3"))
        with pytest.raises(DimensionError, match=message):
            evaluate_posterior(model, values, dataset, prior)
        assert len(calls) == 1


class TestVariationalRun:
    def test_grid_oracle_within_three_se(self):
        # Gaussian proposal at the grid posterior's mean with 1.5x its
        # covariance: every raw weight needs the q correction to be right
        model, dataset, prior, grid = make_grid_instance_2()
        values, q = gaussian_proposal(grid, 1.5, 4000, np.random.default_rng(7))
        draws = PosteriorDraws(values=values, param_names=("b0", "b1"))
        report = run_loo(model, draws, dataset, prior, RunConfig(), variational_log_density=q)
        for r in report.per_observation:
            x = dataset.features[r.index][None, :]
            exact = exact_loo_expectation(
                grid, model, dataset, r.index, lambda nodes: sigmoid(model.mu_batch(nodes, x)[:, 0])
            )
            assert abs(r.loo_predictive_prob - exact) <= 3.0 * r.loo_predictive_prob_se, r.index


def _grid_loo_answers(model, dataset, grid):
    """The exact LOO predictive probability and log predictive density of
    every observation, from the grid posterior."""
    answers = []
    for i in range(dataset.n):
        mu_i = lambda nodes: model.mu_batch(nodes, dataset.features[i][None, :])[:, 0]
        prob = exact_loo_expectation(grid, model, dataset, i, lambda nodes: sigmoid(mu_i(nodes)))
        lik = exact_loo_expectation(
            grid, model, dataset, i, lambda nodes: np.exp(bernoulli_log_likelihood(mu_i(nodes), dataset.labels[i]))
        )
        answers.append((prob, math.log(lik)))
    return answers


def _assert_within_three_se(result, exact):
    prob, lpd = exact[result.index]
    assert abs(result.loo_predictive_prob - prob) <= 3.0 * result.loo_predictive_prob_se, result.index
    assert abs(result.loo_log_predictive_density - lpd) <= 3.0 * result.loo_log_predictive_density_se, result.index


@pytest.fixture(scope="module")
def relu_grid_run():
    """The relu1 grid instance with 3000 draws from a Gaussian q at 0.6x the
    posterior covariance. q is narrower than the posterior, so the weights
    p / q have heavy tails and the raw k-hat exceeds 0.7 on 10 of the 12
    observations: every kind gets flagged observations to adapt."""
    model, dataset, prior, grid = make_relu_grid_instance()
    values, q = gaussian_proposal(grid, 0.6, 3000, np.random.default_rng(1))
    draws = PosteriorDraws(values=values, param_names=("w1", "w2", "b2"))
    return model, dataset, prior, draws, q, _grid_loo_answers(model, dataset, grid)


class TestReluGridOracle:
    @pytest.mark.parametrize("kind", ["PMM1", "PMM2", "KL", "Var", "LL"])
    def test_adapted_estimates_within_three_se(self, kind, relu_grid_run):
        # one kind per run, so each kind's adapted answers are checked on their own
        model, dataset, prior, draws, q, exact = relu_grid_run
        report = run_loo(model, draws, dataset, prior, RunConfig(transform_order=(kind,)), variational_log_density=q)
        assert sum(1 for r in report.per_observation if r.adapted and r.winning_transform is not None) >= 1
        for r in report.per_observation:
            if r.adapted:
                _assert_within_three_se(r, exact)


@pytest.fixture(scope="module")
def logistic_grid_run():
    """The 2-parameter logistic grid instance with 3000 draws from a Gaussian
    q at 0.6x the posterior covariance: as on the relu1 instance, q is
    narrower than the posterior, so p / q has heavy tails. The raw k-hat
    exceeds 0.7 on 2 of the 8 observations."""
    model, dataset, prior, grid = make_grid_instance_2()
    values, q = gaussian_proposal(grid, 0.6, 3000, np.random.default_rng(1))
    draws = PosteriorDraws(values=values, param_names=("b0", "b1"))
    return model, dataset, prior, draws, q, _grid_loo_answers(model, dataset, grid)


class TestLogisticGridOracle:
    @pytest.mark.parametrize("kind", ["PMM1", "PMM2", "KL", "Var", "LL"])
    def test_adapted_estimates_within_three_se(self, kind, logistic_grid_run):
        model, dataset, prior, draws, q, exact = logistic_grid_run
        report = run_loo(model, draws, dataset, prior, RunConfig(transform_order=(kind,)), variational_log_density=q)
        results = report.per_observation
        assert sum(1 for r in results if r.attempts) == 2
        assert sum(1 for r in results if r.adapted and r.winning_transform is not None) >= 1
        # KL and Var each leave one flagged observation unadapted
        assert sum(1 for r in results if not r.adapted) == (1 if kind in ("KL", "Var") else 0)
        for r in results:
            if r.adapted:
                _assert_within_three_se(r, exact)
                continue
            # the fallback: the lowest k-hat of the raw weights and the attempts,
            # the raw weights winning a tie and the earliest attempt otherwise
            final_khat = min([r.raw_khat] + [a.khat for a in r.attempts])
            assert r.final_khat == final_khat
            winner = None if r.raw_khat == final_khat else next(a for a in r.attempts if a.khat == final_khat)
            assert r.winning_transform is winner


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

    @pytest.mark.parametrize("order", [RunConfig().transform_order, ("KL", "Var", "LL")])
    def test_relu_hidden_unit_permutation_invariance(self, order):
        # permuting the hidden units (rows of W1 with their W2 entries, b2
        # fixed) leaves mu and an isotropic prior unchanged; sums over units
        # change order, so numbers agree to rounding
        model, dataset, prior, draws = make_relu_toy(seed=3, n=10, d=3, p=3, num_draws=300)
        d, p = model.d, model.p
        perm = np.array([2, 0, 1])
        columns = np.concatenate([(perm[:, None] * p + np.arange(p)).ravel(), d * p + perm, [d * p + d]])
        permuted = PosteriorDraws(values=draws.values[:, columns], param_names=draws.param_names)
        config = RunConfig(transform_order=order)
        a = run_loo(model, draws, dataset, prior, config)
        b = run_loo(model, permuted, dataset, prior, config)
        assert any(r.attempts for r in a.per_observation)
        _assert_same_results(a.per_observation, b.per_observation)


class TestRunCost:
    """One posterior evaluation per run; weighted moments at most once per flagged observation;
    one W1 x pass per relu1 run, which every derivative at an observation reads."""

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

            def wrapper(draws, weights=None, plain=None):
                calls["weighted_moments"] += weights is not None
                return original(draws, weights, plain)

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
    def test_one_grad_mu_per_observation(self, toy, monkeypatch):
        """KL, Var and LL at one observation share one grad_mu call on the run's origin line."""
        from looadapt import models, transforms

        model, dataset, prior, draws = self._toy(toy)
        calls = {"grad_mu": 0, "lines": 0}
        observations = set()
        line_type = models.LinearMuLine if toy == "logistic" else models.ReluMuLine
        grad_mu = line_type.grad_mu
        apply_gradient_transform = transforms.apply_gradient_transform

        def counted_grad(self, i):
            calls["grad_mu"] += 1
            return grad_mu(self, i)

        def counted_line(kind, obs):
            calls["lines"] += 1
            observations.add(obs.i)
            return apply_gradient_transform(kind, obs)

        monkeypatch.setattr(line_type, "grad_mu", counted_grad)
        monkeypatch.setattr(transforms, "apply_gradient_transform", counted_line)
        run_loo(model, draws, dataset, prior, RunConfig(hbar_exponents=(0, 1, 2), transform_order=("KL", "Var", "LL")))
        assert calls["lines"] > len(observations) > 0
        assert calls["grad_mu"] == len(observations)

    def test_one_pre_activation_pass_per_relu1_run(self, monkeypatch):
        """A whole relu1 run with KL, Var and LL forms W1 x once, in the origin
        line. mu and the posterior gradient read it, and so do grad_mu, the
        Hessian and the fan at each flagged observation: mu_batch is never called."""
        model, dataset, prior, draws = self._toy("relu1")
        lines, mu_batches = [], []
        mu_line, mu_batch = ReluOneModel.mu_line, ReluOneModel.mu_batch

        def counted_line(self, values, features):
            lines.append(features)
            return mu_line(self, values, features)

        def counted_mu(self, values, features):
            mu_batches.append(features)
            return mu_batch(self, values, features)

        monkeypatch.setattr(ReluOneModel, "mu_line", counted_line)
        monkeypatch.setattr(ReluOneModel, "mu_batch", counted_mu)
        report = run_loo(model, draws, dataset, prior,
                         RunConfig(hbar_exponents=(0, 1, 2), transform_order=("KL", "Var", "LL")))
        assert sum(1 for r in report.per_observation if r.attempts) > 1
        assert len(lines) == 1 and lines[0] is dataset.features
        assert mu_batches == []

    @pytest.mark.parametrize(
        "toy, order",
        [(toy, order) for order in [("KL", "Var", "LL"), ("LL",)] for toy in ["logistic", "relu1"]],
        ids=["logistic", "relu1", "logistic-LL", "relu1-LL"],
    )
    def test_line_quantities_once_per_observation(self, toy, order, monkeypatch):
        """KL, Var and LL at one observation share its row maxima r, the
        prior's row dots and the mu fan. Each configured kind's step is made
        once there, when the first line is built, even where the scan stops
        before its line. The steps share two Hessian projections, of grad_mu
        and of the posterior gradient; LL alone reads only the first, and its
        run has no posterior gradient."""
        from looadapt import models, transforms

        model, dataset, prior, draws = self._toy(toy)
        calls = {"lines": 0, "r": 0, "dots": 0, "fan": 0, "projection": 0, "steps": 0}
        observations = set()
        without_posterior_gradient = set()
        line_type = models.LinearMuLine if toy == "logistic" else models.ReluMuLine
        originals = {
            "r": (transforms, "row_max_in_sd_units"), "dots": (GaussianPrior, "line_coefficients"),
            "fan": (line_type, "gradient_fan"), "projection": (line_type, "hessian_projection"),
            "lines": (transforms, "apply_gradient_transform"), "steps": (transforms, "gradient_step"),
        }

        def counted(name, owner, attr):
            original = getattr(owner, attr)

            def wrapper(*args):
                calls[name] += 1
                if name == "lines":
                    observations.add(args[1].i)
                    without_posterior_gradient.add(args[1].problem.evaluation.grad_log_post is None)
                return original(*args)

            monkeypatch.setattr(owner, attr, wrapper)

        for name, (owner, attr) in originals.items():
            counted(name, owner, attr)
        run_loo(model, draws, dataset, prior, RunConfig(hbar_exponents=(0, 1, 2), transform_order=order))
        if order == ("LL",):
            assert calls["lines"] == len(observations) > 0
            assert without_posterior_gradient == {True}
            assert calls["projection"] == len(observations)
        else:
            assert calls["lines"] > len(observations) > 0
            assert without_posterior_gradient == {False}
            assert calls["projection"] == 2 * len(observations)
        assert calls["r"] == calls["dots"] == calls["fan"] == len(observations)
        assert calls["steps"] == len(order) * len(observations)


def _reported_floats(report):
    """Every float of a report: the summaries, the curves and, per observation,
    its estimates, final weights and attempts."""
    numbers = [report.loo_ic, report.loo_ic_se]
    numbers += [v for v in (report.auroc, report.auprc) if v is not None]
    numbers += [v for pt in report.roc_points + report.prc_points for v in (pt.x, pt.y, pt.threshold)]
    for r in report.per_observation:
        numbers += [r.raw_khat, r.final_khat, r.loo_predictive_prob, r.loo_log_predictive_density,
                    r.loo_predictive_prob_se, r.loo_log_predictive_density_se, *r.final_weights.normalized]
        numbers += [v for a in r.attempts for v in (a.khat, a.h_used, a.max_step_sd)]
    return numbers


def _degenerate_instance(model_name, degeneracy, log10_scale, seed):
    """A small instance (n = 6, p = 2, S = 40) with one degeneracy of the
    inputs and draws of sd 10 ** log10_scale."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(6, 2))
    labels = rng.integers(0, 2, size=6)
    labels[0] = 1 - labels[1]
    if degeneracy == "separable":
        features[:, 0] = (2 * labels - 1) * (1.0 + np.abs(features[:, 0]))
    elif degeneracy == "constant-feature":
        features[:, 1] = 1.0
    elif degeneracy == "single-class":
        labels[:] = 1
    dataset = Dataset(features=features, labels=labels, feature_names=("x0", "x1"))
    model = LogisticModel(p=2) if model_name == "logistic" else ReluOneModel(d=2, p=2)
    values = 10.0**log10_scale * rng.normal(size=(40, model.param_dim))
    if degeneracy == "constant-draw-column":
        values[:, 0] = values[0, 0]
    draws = PosteriorDraws(values=values, param_names=tuple(f"t{j}" for j in range(model.param_dim)))
    return model, dataset, GaussianPrior.isotropic(model.param_dim, 1.0), draws


class TestDegenerateInputs:
    """Degenerate inputs come back as a report or a LooAdaptError, never as
    another exception or a NaN; an infinite k-hat is always flagged."""

    @given(
        model_name=st.sampled_from(["logistic", "relu1"]),
        degeneracy=st.sampled_from(["none", "separable", "constant-feature", "constant-draw-column", "single-class"]),
        log10_scale=st.floats(-6.0, 6.0),
        seed=st.integers(0, 2**16),
    )
    @settings(deadline=None)  # examples and derandomization from the profile (conftest.py)
    def test_report_or_package_error(self, model_name, degeneracy, log10_scale, seed):
        model, dataset, prior, draws = _degenerate_instance(model_name, degeneracy, log10_scale, seed)
        try:
            report = run_loo(model, draws, dataset, prior, RunConfig())
        except LooAdaptError as exc:
            # a line outside its relu1 fan is the program's fault, not the input's
            assert "fan's bound" not in str(exc)
            return
        for r in report.per_observation:
            if math.isinf(r.final_khat):
                assert not r.adapted
        assert not np.isnan(_reported_floats(report)).any()

    @pytest.mark.parametrize("scale", [1e110, 1e150])
    def test_overflowing_relu1_line_is_a_degenerate_attempt(self, scale):
        """Features near 1e150 overflow a relu1 gradient fan's c2, which is per
        unit coef, although mu along every line is finite: at a resting draw
        (coef 0) t^2 c2 is 0 * inf. Every such attempt is degenerate with the
        ``nan-log-posterior`` flag, so the raw weights are kept, no reported
        float is NaN, and no RuntimeWarning is raised."""
        rng = np.random.default_rng(1)
        dataset = Dataset(features=rng.normal(size=(8, 3)) * scale, labels=[0, 1] * 4, feature_names=("x0", "x1", "x2"))
        draws = PosteriorDraws(values=rng.normal(size=(200, 9)), param_names=tuple(f"t{j}" for j in range(9)))
        report = run_loo(ReluOneModel(d=2, p=3), draws, dataset, GaussianPrior.isotropic(9, 1.0), RunConfig())
        assert not np.isnan(_reported_floats(report)).any()
        assert report.n_failed == dataset.n
        for r in report.per_observation:
            assert r.winning_transform is None
            for a in r.attempts:
                overflowing = a.kind in ("KL", "Var", "LL")
                assert ("nan-log-posterior" in a.flags) == overflowing
                assert a.degenerate == overflowing

    def test_cancelling_coefficients_stay_in_their_fan(self):
        """Draws of sd 1e6 put the log posterior near 1e12, where log h + scale
        cancels: a gradient coef rounds past 1 / r_s, the step-size rule's
        bound, on 5 lines here. Each relu1 fan reaches its lines' own largest
        coefficients, so the run returns a report and every KL/Var/LL line
        matches mu_batch at the moved draws. The worst gap, 2.7e-10
        relative, is mu_batch's own rounding of means near 1e12 from draws
        near 1e6; rtol 1e-9 leaves a factor of almost 4 over it."""
        model, dataset, prior, draws = _degenerate_instance("relu1", "none", 6.0, 0)
        assert len(run_loo(model, draws, dataset, prior, RunConfig()).per_observation) == dataset.n
        problem = LooProblem.build(model, draws, dataset, prior, RunConfig())
        overshooting = 0
        for i in range(dataset.n):
            obs = observation(problem, i)
            for kind in ("KL", "Var", "LL"):
                line = apply_gradient_transform(kind, obs)
                assert line.mu is not None
                overshooting += bool(np.any(np.abs(line.jacobian.coef) * obs.r > 1.0 + 1e-9))
                step = line_step(line, problem, model=model)
                for hbar in (1.0, 0.25, 4.0**-5):
                    np.testing.assert_allclose(
                        line.mu.at(hbar), model.mu_batch(draws.values + hbar * step, dataset.features), rtol=1e-9, atol=0
                    )
        assert overshooting > 0
