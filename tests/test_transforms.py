"""Transformations, step sizes and Jacobian determinants."""

import dataclasses
import math

import numpy as np
import pytest

from looadapt import DomainError, PosteriorDraws, RunConfig, SigmoidalModel, run_loo
from looadapt.data import Dataset, marginal_stats
from looadapt.engine import LooProblem
from looadapt.gpd import WeightVector, pareto_smooth
from looadapt.models import (
    GaussianPrior,
    LogisticModel,
    ReluOneModel,
    evaluate_posterior,
    grad_log_posterior,
    sigmoid,
    sigmoid_slope,
)
from looadapt.transforms import (
    Observation,
    apply_gradient_transform,
    apply_pmm,
    apply_transform,
    gradient_step,
    log_step_size,
    row_max_in_sd_units,
)

from conftest import (
    attempt,
    attempt_weights,
    dense_hessian,
    fd_divergence,
    line_step,
    log_post,
    logdet_at,
    make_logistic_toy,
    make_relu_toy,
    observation,
    one_draw_observation,
    q_at,
    raw_weights,
)
from oracle import finite_difference_jacobian


def _toy_for_direction(x, y):
    """One-observation logistic instance with a near-flat prior.

    With log_ref anchored at theta itself the density factor is exactly 1,
    so Q equals its displayed closed form.
    """
    dataset = Dataset(
        features=np.asarray(x, dtype=float)[None, :],
        labels=np.array([y]),
        feature_names=tuple(f"x{j}" for j in range(len(x))),
    )
    model = LogisticModel(p=len(x))
    prior = GaussianPrior.isotropic(len(x), 1e6)
    return model, dataset, prior


class TestDirections:
    def test_kl_sign_and_magnitude_at_mu_zero(self):
        model, dataset, prior = _toy_for_direction([1.0, 1.0], 1)
        theta = np.zeros(2)
        np.testing.assert_allclose(q_at("KL", model, theta, dataset, prior, 0), [-1.0, -1.0])

    def test_kl_sign_flip_for_negative_label(self):
        model, dataset, prior = _toy_for_direction([1.0, 1.0], 0)
        np.testing.assert_allclose(q_at("KL", model, np.zeros(2), dataset, prior, 0), [1.0, 1.0])

    def test_kl_zero_feature_vector(self):
        model, dataset, prior = _toy_for_direction([0.0, 0.0], 1)
        np.testing.assert_allclose(q_at("KL", model, np.ones(2), dataset, prior, 0), [0.0, 0.0])

    def test_var_matches_kl_at_mu_zero(self):
        model, dataset, prior = _toy_for_direction([1.0, 1.0], 1)
        np.testing.assert_allclose(q_at("Var", model, np.zeros(2), dataset, prior, 0), [-1.0, -1.0])

    def test_var_doubles_exponent(self):
        # y = 0, mu = ln 2, x = [1, 0]: Q = e^{2 ln 2} x = [4, 0]
        model, dataset, prior = _toy_for_direction([1.0, 0.0], 0)
        theta = np.array([math.log(2.0), 0.0])
        np.testing.assert_allclose(
            q_at("Var", model, theta, dataset, prior, 0), [4.0, 0.0], rtol=1e-12
        )

    def test_ll_is_negative_likelihood_gradient(self):
        model, dataset, prior = _toy_for_direction([1.0, 2.0], 1)
        np.testing.assert_allclose(q_at("LL", model, np.zeros(2), dataset, prior, 0), [-0.5, -1.0])
        model0, dataset0, prior0 = _toy_for_direction([1.0, 2.0], 0)
        np.testing.assert_allclose(q_at("LL", model0, np.zeros(2), dataset0, prior0, 0), [0.5, 1.0])

    def test_ll_relu_inactive_only_bias_moves(self):
        model, dataset, prior, draws = make_relu_toy(seed=21, d=2, p=2, n=3)
        theta = np.concatenate([[-1.0, -1.0, -2.0, -2.0], [1.0, 1.0], [0.3]])
        x = np.abs(dataset.features[0])  # positive features, negative W1: inactive
        ds = Dataset(features=x[None, :], labels=np.array([1]), feature_names=("a", "b"))
        q = q_at("LL", model, theta, ds, prior, 0)
        assert q[-1] != 0.0
        np.testing.assert_array_equal(q[:-1], 0.0)

    def test_label_flip_sign_covariance(self):
        model, dataset, prior = _toy_for_direction([0.7, -0.4], 1)
        model0, dataset0, prior0 = _toy_for_direction([0.7, -0.4], 0)
        theta = np.zeros(2)  # mu = 0 keeps the exponential factor equal
        for kind in ("KL", "Var"):
            plus = q_at(kind, model, theta, dataset, prior, 0)
            minus = q_at(kind, model0, theta, dataset0, prior0, 0)
            np.testing.assert_allclose(plus, -minus, atol=1e-12)


class TestStepSize:
    def _stats(self, sd):
        values = np.vstack([np.zeros_like(sd), 2.0 * np.asarray(sd, dtype=float)])
        draws = PosteriorDraws(values=values, param_names=tuple(f"p{j}" for j in range(len(sd))))
        return marginal_stats(draws)

    def _h(self, q, stats, hbar):
        q = np.asarray(q, dtype=float)
        rows = q.shape[0]
        return hbar * math.exp(log_step_size(np.zeros(rows), np.ones(rows), row_max_in_sd_units(q, stats.sd)))

    def test_direct_evaluation(self):
        stats = self._stats([1.0, 1.0])
        assert self._h([[2.0, 1.0]], stats, 0.5) == pytest.approx(0.25)

    def test_all_zero_q_returns_zero(self):
        stats = self._stats([1.0, 1.0])
        assert self._h(np.zeros((3, 2)), stats, 1.0) == 0.0

    def test_zero_sd_with_moving_component(self):
        stats = self._stats([1.0, 0.0])
        assert self._h([[1.0, 1.0]], stats, 1.0) == 0.0

    def test_zero_components_excluded(self):
        stats = self._stats([1.0, 1.0])
        h = self._h([[0.0, 2.0]], stats, 1.0)
        assert h == pytest.approx(0.5)

    def test_row_max_excludes_resting_components(self):
        sd = np.array([0.5, 0.0, 2.0])
        grad = np.array([[1.0, 0.0, -4.0], [0.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
        # a component with zero sd counts only where it moves, and then is infinite
        np.testing.assert_array_equal(row_max_in_sd_units(grad, sd), [2.0, 0.0, np.inf])

    @pytest.mark.parametrize("row", [[1.0, 0.0, -4.0], [0.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
    @pytest.mark.parametrize("num_draws", [1, 2, 5])
    def test_row_max_of_one_shared_row(self, row, num_draws):
        """Every draw sharing one row, as logistic regression's grad_mu does: a
        broadcast view gives what its dense copy gives, as an owned (S,) vector."""
        sd = np.array([0.5, 0.0, 2.0])
        shared = np.broadcast_to(np.array(row), (num_draws, 3))
        r = row_max_in_sd_units(shared, sd)
        np.testing.assert_array_equal(r, row_max_in_sd_units(np.array(shared), sd))
        assert r.shape == (num_draws,) and r.flags.owndata

    @pytest.mark.parametrize(
        "scale, factor, r, expected",
        [
            ([0.0, 0.0], [0.0, 1.0], [np.inf, 2.0], -math.log(2.0)),  # factor 0 beside r = inf: excluded
            ([-np.inf, 0.0], [1.0, 1.0], [np.inf, 2.0], -math.log(2.0)),  # scale -inf beside r = inf: excluded
            ([-np.inf, 1.0], [1.0, -0.5], [3.0, 4.0], -(1.0 + math.log(2.0))),
            ([0.0, 0.0], [1.0, 1.0], [0.0, 0.0], -np.inf),  # all-zero Q
            ([0.0, -np.inf], [0.0, 1.0], [1.0, 1.0], -np.inf),  # every row excluded
            ([0.0, 0.0], [1.0, 0.5], [np.inf, 1.0], -np.inf),  # zero sd in a moving component
            ([np.inf, 0.0], [1.0, 1.0], [1.0, 1.0], -np.inf),
        ],
    )
    def test_edge_rows_give_finite_or_minus_inf(self, scale, factor, r, expected):
        # RuntimeWarnings are errors in this suite, so none is raised either
        log_h = log_step_size(np.array(scale), np.array(factor), np.array(r))
        assert not math.isnan(log_h)
        assert log_h == pytest.approx(expected, rel=1e-15)


class TestApplyGradientTransform:
    def test_zero_direction_yields_identity(self):
        # single-observation dataset with x = 0: Q vanishes for KL/Var/LL
        dataset = Dataset(features=np.zeros((1, 2)), labels=np.array([1]), feature_names=("a", "b"))
        model = LogisticModel(p=2)
        prior = GaussianPrior.isotropic(2, 1.0)
        rng = np.random.default_rng(0)
        draws = PosteriorDraws(values=rng.normal(size=(20, 2)), param_names=("a", "b"))
        problem = LooProblem.build(model, draws, dataset, prior, RunConfig())
        line, out = attempt(problem, "KL", 0, 0.5)
        assert line.mu is None
        assert out.degenerate
        assert out.flags == ("zero-step",)
        assert out.h_used == 0.0
        assert out.candidate_log_post is out.mu_i is out.log_lik_i is out.log_jac_det is None  # phi = theta, nothing to weigh

    def test_gradient_only_for_kl_and_var(self):
        model, dataset, prior, draws = make_logistic_toy(seed=30)
        problem = LooProblem.build(model, draws, dataset, prior, RunConfig(transform_order=("PMM1", "LL")))
        assert problem.evaluation.grad_log_post is None
        assert not attempt(problem, "LL", 0, 0.5)[1].degenerate
        obs = observation(problem, 0)
        with pytest.raises(DomainError, match="needs the posterior gradient"):
            gradient_step("KL", obs)
        with pytest.raises(DomainError, match="not a gradient kind of this run"):
            apply_gradient_transform("KL", obs)

    def test_step_bound_holds(self):
        model, dataset, prior, draws = make_logistic_toy(seed=31)
        problem = LooProblem.build(model, draws, dataset, prior, RunConfig())
        stats = problem.stats
        for kind in ("KL", "Var", "LL"):
            for hbar in (1.0, 0.25):
                line, out = attempt(problem, kind, 1, hbar)
                if out.degenerate:
                    continue
                moving = stats.sd > 0
                disp = np.abs(hbar * line_step(line, problem, model=model))[:, moving] / stats.sd[moving]
                assert disp.max() <= hbar + 1e-9
                assert out.max_step_sd <= hbar + 1e-9

    @pytest.mark.parametrize("kind", ["KL", "Var", "LL"])
    def test_logistic_determinant_matches_fd(self, kind):
        model, dataset, prior, draws = make_logistic_toy(seed=32, n=6, p=2)
        problem = LooProblem.build(model, draws, dataset, prior, RunConfig())
        stats = problem.stats
        _, out = attempt(problem, kind, 2, 0.25)
        assert not out.degenerate
        ref = problem.evaluation.log_ref

        def map_fn(theta):
            return theta + out.h_used * q_at(kind, model, theta, dataset, prior, 2, log_ref=ref)

        for k in (0, 7, 19):
            jac = finite_difference_jacobian(map_fn, draws.values[k], 1e-6 * stats.sd)
            fd_logdet = math.log(abs(np.linalg.det(jac)))
            if abs(fd_logdet) < 1e-4:
                continue
            assert out.log_jac_det[k] == pytest.approx(fd_logdet, rel=1e-4)

    @pytest.mark.parametrize("kind", ["KL", "Var", "LL"])
    def test_relu_determinant_matches_fd(self, kind):
        model, dataset, prior, draws = make_relu_toy(seed=33, d=2, p=2, n=5)
        problem = LooProblem.build(model, draws, dataset, prior, RunConfig())
        stats = problem.stats
        _, out = attempt(problem, kind, 1, 0.25)
        assert not out.degenerate
        ref = problem.evaluation.log_ref

        def map_fn(theta):
            return theta + out.h_used * q_at(kind, model, theta, dataset, prior, 1, log_ref=ref)

        checked = 0
        for k in range(draws.num_draws):
            margin = min(abs(model.relu_forward(draws.values[k], x)[1]).min() for x in dataset.features)
            if margin < 1e-3:
                continue
            jac = finite_difference_jacobian(map_fn, draws.values[k], 1e-7 * stats.sd)
            fd_logdet = math.log(abs(np.linalg.det(jac)))
            if abs(fd_logdet) < 1e-4:
                continue
            assert out.log_jac_det[k] == pytest.approx(fd_logdet, rel=2e-4)
            checked += 1
            if checked >= 5:
                break
        assert checked >= 3


class _OtherModel(SigmoidalModel):
    """A sigmoidal model outside the two built-in families: it wraps another
    model and forwards only the three members of the contract, with no
    single-draw mu or grad_mu and no mu_batch."""

    def __init__(self, inner):
        self.inner = inner

    param_dim = property(lambda self: self.inner.param_dim)
    num_features = property(lambda self: self.inner.num_features)

    def mu_line(self, values, features):
        return self.inner.mu_line(values, features)


def _report_fields(report):
    """Everything a report holds, as plain values that compare with ==."""
    per_observation = [
        (r.index, r.raw_khat, r.adapted, r.winning_transform, r.final_khat, r.final_weights.log_weights.tolist(),
         r.loo_predictive_prob, r.loo_log_predictive_density, r.loo_predictive_prob_se,
         r.loo_log_predictive_density_se, r.attempts)
        for r in report.per_observation
    ]
    return per_observation, report.loo_ic, report.loo_ic_se, report.n_failed, report.auroc, report.auprc


class TestModelContract:
    @pytest.mark.parametrize("toy", ["logistic", "relu1"])
    def test_a_model_of_the_contract_members_runs(self, toy):
        """run_loo on a model that implements only the contract's three members
        gives the wrapped model's report, value for value, over every kind."""
        if toy == "logistic":
            inner, dataset, prior, draws = make_logistic_toy(seed=66, num_draws=80, draw_scale=3.0)
        else:
            inner, dataset, prior, draws = make_relu_toy(seed=67, num_draws=60)
        config = RunConfig(hbar_exponents=(0, 1, 2))
        theirs = run_loo(inner, draws, dataset, prior, config)
        ours = run_loo(_OtherModel(inner), draws, dataset, prior, config)
        assert any(r.attempts for r in theirs.per_observation)
        assert _report_fields(ours) == _report_fields(theirs)


class TestExactLogdetOps:
    def test_zero_step_is_identity(self):
        model, dataset, prior, draws = make_logistic_toy(seed=34)
        assert logdet_at("KL", model, draws.values[0], dataset, prior, 0, 0.0) == 0.0
        rmodel, rdataset, rprior, rdraws = make_relu_toy(seed=35)
        assert logdet_at("Var", rmodel, rdraws.values[0], rdataset, rprior, 0, 0.0) == 0.0

    def test_zero_feature_vector_gives_zero_logdet(self):
        dataset = Dataset(features=np.zeros((1, 3)), labels=np.array([1]), feature_names=("a", "b", "c"))
        model = LogisticModel(p=3)
        prior = GaussianPrior.isotropic(3, 1.0)
        assert logdet_at("KL", model, np.ones(3), dataset, prior, 0, 0.3) == 0.0

    def test_logistic_matches_fd_random_instance(self):
        model, dataset, prior, draws = make_logistic_toy(seed=36, p=3)
        theta = draws.values[4]
        i = 2
        ref = log_post(model, theta, dataset, prior)
        h = 0.05
        exact = logdet_at("KL", model, theta, dataset, prior, i, h, log_ref=ref)
        map_fn = lambda t: t + h * q_at("KL", model, t, dataset, prior, i, log_ref=ref)
        jac = finite_difference_jacobian(map_fn, theta, 1e-6 * np.ones(3))
        assert exact == pytest.approx(math.log(abs(np.linalg.det(jac))), rel=1e-4)

    def test_relu_inactive_reduces_to_rank_one(self):
        model, dataset, prior, draws = make_relu_toy(seed=37, d=2, p=2, n=3)
        theta = np.concatenate([[-1.0, -1.0, -2.0, -2.0], [0.5, 0.5], [0.2]])
        x = np.abs(dataset.features[0]) + 0.1
        ds = Dataset(features=x[None, :], labels=np.array([0]), feature_names=("a", "b"))
        h = 0.1
        # only the bias moves: grad_mu = e_last, so det = 1 + h sigma'(mu)
        mu = model.mu(theta, x)
        from looadapt.models import sigmoid_slope

        expected = math.log(1.0 + h * float(sigmoid_slope(mu)))
        got = logdet_at("LL", model, theta, ds, prior, 0, h)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_model_kind_guards(self):
        """A PMM kind, and KL without the posterior gradient, are rejected.
        The model family is not guarded: any model steps through its origin
        line's grad_mu and hessian_projection."""
        model, dataset, prior, draws = make_logistic_toy(seed=38, p=3)
        theta = draws.values[0]
        with pytest.raises(DomainError, match="defined for"):
            gradient_step("PMM1", one_draw_observation(model, theta, dataset, prior, 0))
        without_grad = one_draw_observation(model, theta, dataset, prior, 0, RunConfig(transform_order=("LL",)))
        with pytest.raises(DomainError, match="needs the posterior gradient"):
            gradient_step("KL", without_grad)
        for toy in (make_logistic_toy(seed=38, p=3), make_relu_toy(seed=38)):
            inner, toy_data, toy_prior, toy_draws = toy
            toy_draws = PosteriorDraws(values=toy_draws.values[:5], param_names=toy_draws.param_names)
            nu = WeightVector.from_log_weights(np.zeros(5))
            ours, theirs = (
                LooProblem.build(m, toy_draws, toy_data, toy_prior, RunConfig()) for m in (_OtherModel(inner), inner)
            )
            for kind in ("KL", "Var", "LL"):
                np.testing.assert_array_equal(gradient_step(kind, Observation(0, ours, nu)).logdet(-1.0)[0],
                                              gradient_step(kind, Observation(0, theirs, nu)).logdet(-1.0)[0])


class TestFirstOrderLogdet:
    """The first-order determinant |1 + h div Q| against the exact one."""

    def test_zero_step(self):
        # h = 0 is the identity map for every kind and both model families
        model, dataset, prior, draws = make_logistic_toy(seed=39, p=2)
        rmodel, rdataset, rprior, rdraws = make_relu_toy(seed=39)
        for kind in ("KL", "Var", "LL"):
            assert logdet_at(kind, model, draws.values[0], dataset, prior, 0, 0.0) == 0.0
            assert logdet_at(kind, rmodel, rdraws.values[0], rdataset, rprior, 0, 0.0) == 0.0

    def test_forced_singularity(self):
        # logistic KL with y = 0 and x = [1]: det = 1 + c (grad log post + 1).
        # At theta = 64, sigma(mu) rounds to 1 and the prior sd 8 gives
        # grad log post = -1 - 64 / 64 = -2; the step size h = exp(-64)
        # cancels the density factor exp(mu), so c = 1 and the map is exactly singular
        dataset = Dataset(features=np.ones((1, 1)), labels=np.array([0]), feature_names=("a",))
        obs = one_draw_observation(LogisticModel(p=1), [64.0], dataset, GaussianPrior.isotropic(1, 8.0), 0)
        np.testing.assert_array_equal(obs.problem.evaluation.grad_log_post, -2.0)
        logdet, flags = gradient_step("KL", obs).logdet(-64.0)
        assert logdet[0] == -math.inf
        assert flags == ("singular-jacobian",)

    def test_small_h_remainder_is_quadratic(self):
        """The O(h) truncation of the log-determinant has an h^2 remainder.

        For a linear mean function the Jacobian of Q is rank one, so
        |1 + h div Q| IS the exact determinant; the quadratic remainder
        appears between the truncated log-determinant h * div Q and the
        exact log.
        """
        model, dataset, prior, draws = make_logistic_toy(seed=39, p=2)
        theta = draws.values[1]
        i = 0
        ref = log_post(model, theta, dataset, prior)
        div = fd_divergence("KL", model, theta, dataset, prior, i, log_ref=ref)
        assert abs(div) > 1e-3
        hs = np.array([1e-2, 1e-3, 1e-4])
        exact = np.array([logdet_at("KL", model, theta, dataset, prior, i, h, log_ref=ref) for h in hs])
        # The determinant form of the first order equals the exact one for
        # rank-one Jacobians, up to the finite-difference error in div.
        np.testing.assert_allclose(np.log(np.abs(1.0 + hs * div)), exact, rtol=1e-6, atol=1e-12)
        # log-space truncation: remainder scales as h^2
        remainder = np.abs(hs * div - exact)
        slope = np.polyfit(np.log(hs), np.log(remainder), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.2)


class TestApplyPmm:
    """The PMM maps as lines: phi = theta + hbar * D, D formed by :func:`line_step`."""

    def _problem(self, draws):
        p = draws.values.shape[1]
        dataset = Dataset(features=np.ones((1, p)), labels=np.array([1]), feature_names=draws.param_names)
        model = LogisticModel(p=p)
        return LooProblem.build(model, draws, dataset, GaussianPrior.isotropic(p, 1.0), RunConfig())

    def _setup(self, seed=40, num_draws=60, p=2):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(num_draws, p))
        draws = PosteriorDraws(values=values, param_names=tuple(f"b{j}" for j in range(p)))
        raw = rng.uniform(0.5, 2.0, size=num_draws)
        weights = WeightVector.from_log_weights(np.log(raw))
        return self._problem(draws), weights

    def test_identity_when_weighted_mean_matches(self):
        problem, _ = self._setup()
        uniform = WeightVector.from_log_weights(np.zeros(problem.draws.num_draws))
        line, out = attempt(problem, "PMM1", 0, 1.0, uniform)
        np.testing.assert_allclose(line_step(line, problem, uniform), 0.0, atol=1e-12)
        assert line.max_step_sd < 1e-12
        np.testing.assert_allclose(attempt_weights(problem, out).log_weights, raw_weights(problem, 0).log_weights, atol=1e-12)
        np.testing.assert_array_equal(out.log_jac_det, 0.0)

    def test_pmm1_shifts_every_draw_and_recenters(self):
        problem, weights = self._setup()
        draws = problem.draws
        line, out = attempt(problem, "PMM1", 0, 1.0, weights)
        phi = draws.values + line_step(line, problem, weights)
        np.testing.assert_allclose(line.mu.at(1.0), phi @ problem.dataset.features.T, atol=1e-12)
        np.testing.assert_array_equal(out.mu_i, line.mu.at(1.0)[:, 0])
        shift = phi - draws.values
        assert np.ptp(shift, axis=0).max() < 1e-12  # same shift for every draw
        wstats = marginal_stats(draws, weights.normalized)
        np.testing.assert_allclose(phi.mean(axis=0), wstats.weighted_mean, atol=1e-12)
        np.testing.assert_array_equal(out.log_jac_det, 0.0)

    def test_pmm2_quadrupled_weighted_variance(self):
        # eight symmetric draws with mass on the extremes: v = a^2 / 4 while
        # v_w = a^2, so the sd ratio is exactly 2 in both components
        column = np.array([-1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
        values = np.stack([column, column], axis=1)
        problem = self._problem(PosteriorDraws(values=values, param_names=("a", "b")))
        log_w = np.full(8, -np.inf)
        log_w[0] = log_w[-1] = math.log(0.5)
        weights = WeightVector.from_log_weights(log_w)
        line, out = attempt(problem, "PMM2", 0, 1.0, weights)
        # log det = P log 2 with P = 2
        np.testing.assert_allclose(out.log_jac_det, 2.0 * math.log(2.0), atol=1e-12)
        # each centered coordinate doubled, recentered at the weighted mean (0)
        np.testing.assert_allclose(values + line_step(line, problem, weights), 2.0 * values, atol=1e-12)
        mu_at_phi = 2.0 * values @ problem.dataset.features.T
        np.testing.assert_allclose(line.mu.at(1.0), mu_at_phi, atol=1e-12)
        np.testing.assert_allclose(out.mu_i, mu_at_phi[:, 0], atol=1e-12)

    def test_pmm2_unavailable_with_constant_column(self):
        values = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        problem = self._problem(PosteriorDraws(values=values, param_names=("a", "b")))
        weights = WeightVector.from_log_weights(np.zeros(3))
        _, out = attempt(problem, "PMM2", 0, 0.5, weights)
        assert out.degenerate
        assert "pmm2-unavailable" in out.flags

    def test_pmm2_unavailable_with_an_overflowing_variance(self):
        """Draws near 1e306 overflow a plain and a weighted variance to inf: the
        sd ratio would be inf / inf, so the rescaling is unavailable, as for a
        constant column, and the line reports no NaN shift."""
        problem, weights = self._setup()
        inf_first = np.array([np.inf, 1.0])
        plain = dataclasses.replace(problem.stats, variance=inf_first)
        obs = observation(dataclasses.replace(problem, stats=plain), 0, weights)
        obs.weighted = dataclasses.replace(plain, weighted_variance=inf_first)
        line = apply_pmm("PMM2", obs)
        assert line.mu is None
        assert line.flags == ("pmm2-unavailable",) and line.max_step_sd == 0.0
        out = apply_transform(line, 1.0, obs.problem)
        assert out.degenerate and out.flags == ("pmm2-unavailable",) and out.max_step_sd == 0.0

    def test_pmm2_singular_when_a_column_collapses(self):
        # column 0 is 0, +-1 ... +-24, 0: its plain mean is exactly 0, and all
        # weight on a draw at 0 gives it weighted variance 0, so at hbar = 1
        # PMM2 maps the whole column to 0; a smaller step keeps it invertible
        column = np.concatenate([[0.0], np.arange(1.0, 25.0).repeat(2) * np.tile([1.0, -1.0], 24), [0.0]])
        values = np.stack([column, np.random.default_rng(41).normal(size=column.size)], axis=1)
        problem = self._problem(PosteriorDraws(values=values, param_names=("a", "b")))
        assert problem.stats.mean[0] == 0.0
        log_w = np.full(column.size, -np.inf)
        log_w[0] = 0.0
        weights = WeightVector.from_log_weights(log_w)
        _, out = attempt(problem, "PMM2", 0, 1.0, weights)
        assert out.degenerate
        assert out.flags == ("pmm2-singular",)
        _, out = attempt(problem, "PMM2", 0, 0.25, weights)
        assert not out.degenerate and out.flags == ()
        assert np.all(np.isfinite(out.log_jac_det))

    def test_kind_guard(self):
        problem, weights = self._setup()
        with pytest.raises(DomainError):
            apply_pmm("KL", observation(problem, 0, weights))


class TestQDivergence:
    """The divergence the exact logistic determinant encodes matches the
    finite-difference trace of the Jacobian of Q (rank one: det = 1 + h div Q)."""

    def test_matches_fd_divergence(self):
        model, dataset, prior, draws = make_logistic_toy(seed=41, p=3)
        theta = draws.values[2]
        i = 1
        ref = log_post(model, theta, dataset, prior)
        h = 1e-3
        for kind in ("KL", "Var"):
            div = math.expm1(logdet_at(kind, model, theta, dataset, prior, i, h, log_ref=ref)) / h
            assert div == pytest.approx(fd_divergence(kind, model, theta, dataset, prior, i, log_ref=ref), rel=1e-5)

    def test_ll_divergence(self):
        model, dataset, prior, draws = make_logistic_toy(seed=42, p=2)
        theta = draws.values[0]
        h = 1e-3
        div = math.expm1(logdet_at("LL", model, theta, dataset, prior, 0, h)) / h
        assert div == pytest.approx(fd_divergence("LL", model, theta, dataset, prior, 0), rel=1e-5)


def _jacobian_of_q(kind, model, theta, dataset, prior, i, log_ref):
    """Q(theta) and its dense Jacobian, from the single-draw closed forms.

    KL/Var: Q = (-1)^y exp(log post - log_ref + c mu (1 - 2y)) grad_mu, so
    dQ = Q_scale [hess_mu + grad_mu (grad log post + c (1 - 2y) grad_mu)^T];
    LL: Q = (sigma - y) grad_mu, dQ = (sigma - y) hess_mu + sigma' grad_mu grad_mu^T.
    """
    x, y = dataset.features[i], int(dataset.labels[i])
    mu = model.mu(theta, x)
    grad = model.grad_mu(theta, x)
    hess = dense_hessian(model, theta, x)
    if kind == "LL":
        factor = float(sigmoid(mu)) - y
        return factor * grad, factor * hess + float(sigmoid_slope(mu)) * np.outer(grad, grad)
    c = 1.0 if kind == "KL" else 2.0
    factor = (-1.0) ** y * math.exp(log_post(model, theta, dataset, prior) - log_ref + c * mu * (1 - 2 * y))
    glp = grad_log_posterior(model, theta, dataset, prior)
    return factor * grad, factor * (hess + np.outer(grad, glp + c * (1 - 2 * y) * grad))


class TestStepLines:
    """Every attempt of a step line against a from-scratch evaluation at
    phi = theta + hbar * D: weights, log-determinant, step size and shift."""

    HBARS = (1.0, 0.25, 4.0**-5)

    def _problem(self, toy):
        if toy == "logistic":
            model, dataset, prior, draws = make_logistic_toy(seed=70, n=6, p=3, num_draws=60, draw_scale=2.0)
        else:
            model, dataset, prior, draws = make_relu_toy(seed=71, n=6, d=2, p=3, num_draws=40)
        return model, LooProblem.build(model, draws, dataset, prior, RunConfig())

    def _reference_gradient_step(self, model, problem, kind, i, hbar):
        """h, max |step| / sd and per-draw log |det J| from dense single-draw Jacobians."""
        dataset, prior, values = problem.dataset, problem.prior, problem.draws.values
        sd = problem.stats.sd
        pieces = [_jacobian_of_q(kind, model, t, dataset, prior, i, problem.evaluation.log_ref) for t in values]
        q = np.array([p[0] for p in pieces])
        moving = q != 0
        h = hbar * float(np.min(np.broadcast_to(sd, q.shape)[moving] / np.abs(q[moving])))
        logdet = np.array([np.linalg.slogdet(np.eye(len(t)) + h * p[1])[1] for t, p in zip(values, pieces)])
        return h, float(np.max(np.abs(h * q) / sd)), logdet

    def _reference_pmm_logdet(self, problem, kind, hbar, nu):
        if kind == "PMM1":
            return 0.0
        stats = problem.stats
        ratio = np.sqrt(marginal_stats(problem.draws, nu.normalized).weighted_variance / stats.variance)
        return float(np.log(np.abs(1.0 + hbar * (ratio - 1.0))).sum())

    @pytest.mark.parametrize("toy", ["logistic", "relu1"])
    @pytest.mark.parametrize("kind", ["PMM1", "PMM2", "KL", "Var", "LL"])
    def test_line_matches_evaluation_at_phi(self, toy, kind):
        model, problem = self._problem(toy)
        dataset, prior, values = problem.dataset, problem.prior, problem.draws.values
        i = 2
        nu, _ = pareto_smooth(raw_weights(problem, i))
        for hbar in self.HBARS:
            line, out = attempt(problem, kind, i, hbar, nu)
            assert not out.degenerate
            step = line_step(line, problem, nu, model)
            if kind in ("PMM1", "PMM2"):
                h_ref, logdet_ref = hbar, self._reference_pmm_logdet(problem, kind, hbar, nu)
                shift_ref = float(np.max(np.abs(hbar * np.broadcast_to(step, values.shape)) / problem.stats.sd))
                np.testing.assert_array_equal(out.log_jac_det, logdet_ref)
            else:
                h_ref, shift_ref, logdet_ref = self._reference_gradient_step(model, problem, kind, i, hbar)
                np.testing.assert_allclose(out.log_jac_det, logdet_ref, rtol=1e-10, atol=1e-13)
            assert out.h_used == pytest.approx(h_ref, rel=1e-12)
            assert out.max_step_sd == pytest.approx(shift_ref, rel=1e-12)

            phi = values + hbar * step
            phi_eval = evaluate_posterior(model, phi, dataset, prior, with_grad=False)
            np.testing.assert_allclose(line.mu.at(hbar), phi_eval.origin.mu, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(out.mu_i, phi_eval.origin.mu[:, i], rtol=1e-12, atol=1e-12)
            for vector, dense in ((out.log_lik_i, phi_eval.log_lik[:, i]), (out.complete_log_post(), phi_eval.log_post)):
                np.testing.assert_allclose(vector, dense, rtol=1e-12, atol=1e-12 * np.abs(dense).max())
            reference = out.log_jac_det - phi_eval.log_lik[:, i] + (phi_eval.log_post - problem.log_proposal)
            # a log weight sums O(1-10) terms and can cancel to near 0, so the
            # error is also measured against the largest log weight
            weights = attempt_weights(problem, out)
            np.testing.assert_allclose(weights.log_weights, reference, rtol=1e-12, atol=1e-12 * np.abs(reference).max())

    @pytest.mark.parametrize("toy", ["logistic", "relu1"])
    @pytest.mark.parametrize("kind", ["PMM1", "PMM2", "KL", "Var", "LL"])
    def test_attempt_holds_only_owned_per_draw_vectors(self, toy, kind):
        """An attempt keeps (S,) arrays that own their data: a column view would
        keep its whole (S, n) evaluation alive for as long as the attempt. Its
        whole log posterior, made on first read, is one too, and the weights
        that make it drop the completion that holds the line."""
        _, problem = self._problem(toy)
        for hbar in self.HBARS:
            _, out = attempt(problem, kind, 2, hbar)
            assert not out.degenerate
            arrays = {f.name: getattr(out, f.name) for f in dataclasses.fields(out)}
            arrays = {name: value for name, value in arrays.items() if isinstance(value, np.ndarray)}
            assert set(arrays) == {"candidate_log_post", "mu_i", "log_lik_i", "log_jac_det"}
            weights = attempt_weights(problem, out)
            arrays["log_weights"] = weights.log_weights
            assert weights._make_log_weights is None
            for name, value in arrays.items():
                assert value.shape == (problem.draws.num_draws,) and value.flags.owndata, name


def _dense_log_step_size(scale, direction, sd):
    """min over draws and moving components of log sd_p - scale_s - log |direction_sp|, from
    the (S, P) candidate matrix; -inf (h = 0) when nothing moves."""
    absd = np.abs(direction)
    with np.errstate(divide="ignore"):
        cand = np.log(sd)[None, :] - scale[:, None] - np.log(np.where(absd > 0, absd, 1.0))
    cand[absd == 0] = np.inf
    smallest = float(cand.min())
    return -np.inf if smallest == np.inf else smallest


def _assert_close(actual, desired, floor=0.0, rtol=1e-12):
    """|actual - desired| <= rtol * (|desired| + floor), elementwise; ``floor`` is the
    size of the terms a sum cancels, so a near-zero sum is held to their rounding."""
    actual, desired = np.asarray(actual, dtype=float), np.asarray(desired, dtype=float)
    assert np.all(np.abs(actual - desired) <= rtol * (np.abs(desired) + floor)), (actual, desired)


class TestLineQuantities:
    """Each line's step size, largest shift in sd units and prior coefficients, built
    from per-run precomputes and per-draw row reductions, against dense (S, P) references;
    and the members every mu-line gives, against its whole evaluation."""

    def _problem(self, toy):
        if toy == "logistic":
            model, dataset, prior, draws = make_logistic_toy(seed=72, n=6, p=4, num_draws=80, draw_scale=2.0)
            prior = GaussianPrior(sd=np.array([0.5, 1.0, 2.0, 3.0]))
        else:
            model, dataset, prior, draws = make_relu_toy(seed=73, n=6, d=3, p=3, num_draws=60)
        return model, LooProblem.build(model, draws, dataset, prior, RunConfig())

    @staticmethod
    def _check_line_contract(line, i, evaluation):
        """At each step scale: the held-out column and any rows are those of the whole
        evaluation bit for bit, and the move bound holds the move dmu = mu(phi) - mu:
        its tangent is sum_n resid dmu, its curvature at least sum_n dmu^2 and its size
        at least sum_n |dmu|, up to the rounding of mu(phi) and of the subtraction, within
        4 eps (|mu| + |mu(phi)|) per element, with mu and resid read from the run's
        ``evaluation``. Returns (flips in column i, rows without flips) seen."""
        flipped_column, clean_rows = 0, 0
        origin, resid = evaluation.origin.mu, evaluation.resid
        for hbar in (1.0, 0.25, 4.0**-10):
            whole = line.mu.at(hbar)
            assert np.array_equal(line.mu.column(hbar, i), whole[:, i])
            num_draws, n = whole.shape
            flips = getattr(line.mu, "flips", None)
            with_flips = np.unique(flips.cell // n) if flips is not None else np.array([], dtype=int)
            flipped_column += flips is not None and np.any(flips.cell % n == i)
            without = np.setdiff1d(np.arange(num_draws), with_flips)
            clean_rows += without.size
            for rows in (np.arange(0, num_draws, 3), with_flips, without, np.array([num_draws - 1])):
                assert np.array_equal(line.mu.at(hbar, rows), whole[rows])
            move = whole - origin
            rounding = 4.0 * np.finfo(float).eps * (np.abs(origin) + np.abs(whole))
            bound = line.mu.move_bound(hbar)
            _assert_close(bound.tangent, np.einsum("sn,sn->s", resid, move),
                          floor=(np.abs(move) + np.abs(origin)).sum(axis=1), rtol=1e-10)
            norm = np.sqrt(np.einsum("sn,sn->s", move, move))
            assert np.all(norm <= np.sqrt(bound.curvature) * (1.0 + 1e-12) + np.linalg.norm(rounding, axis=1))
            assert np.all(np.abs(move).sum(axis=1) <= bound.size * (1.0 + 1e-12) + rounding.sum(axis=1))
        return flipped_column, clean_rows

    @pytest.mark.parametrize("toy", ["logistic", "relu1"])
    @pytest.mark.parametrize("kind", ["PMM1", "PMM2", "KL", "Var", "LL"])
    def test_against_dense_references(self, toy, kind):
        model, problem = self._problem(toy)
        values, sd, prior_sd = problem.draws.values, problem.stats.sd, problem.prior.sd
        flipped_column, clean_rows = 0, 0
        for i in range(problem.dataset.n):
            nu, _ = pareto_smooth(raw_weights(problem, i))
            line, _ = attempt(problem, kind, i, 1.0, nu)
            assert line.mu is not None
            seen = self._check_line_contract(line, i, problem.evaluation)
            flipped_column, clean_rows = flipped_column + seen[0], clean_rows + seen[1]
            step = line_step(line, problem, nu, model)
            terms = values * (step / prior_sd**2)
            _assert_close(line.prior_slope, terms.sum(axis=1), floor=np.abs(terms).sum(axis=1))
            _assert_close(line.prior_curvature, np.sum((step / prior_sd) ** 2, axis=-1))
            step = np.broadcast_to(step, values.shape)
            _assert_close(line.max_step_sd, np.max(np.abs(step) / sd))
            if kind in ("KL", "Var", "LL"):
                gs = line.jacobian
                grad = model.mu_line(values, problem.dataset.features[i][None, :]).grad_mu(0)
                dense = _dense_log_step_size(gs.scale, gs.factor[:, None] * grad, sd)
                _assert_close(gs.log_h, dense, floor=1.0)
                assert line.max_step_sd == pytest.approx(1.0, rel=1e-14)
        assert clean_rows > 0
        assert flipped_column > 0 or toy == "logistic"

    def test_saturated_ll_row_rests(self):
        """A draw whose held-out probability rounds to 1 has LL factor exactly 0: it
        does not move and does not limit the step size of the others."""
        model, dataset, prior, draws = make_logistic_toy(seed=74, n=4, p=2, num_draws=30)
        i = int(np.flatnonzero(dataset.labels == 1)[0])
        values = draws.values.copy()
        values[0] = 80.0 * dataset.features[i] / (dataset.features[i] @ dataset.features[i])
        draws = PosteriorDraws(values=values, param_names=draws.param_names)
        problem = LooProblem.build(model, draws, dataset, prior, RunConfig())
        obs = observation(problem, i)
        line = apply_gradient_transform("LL", obs)
        assert line.jacobian.factor[0] == 0.0
        np.testing.assert_array_equal(line_step(line, problem, model=model)[0], 0.0)
        gs = line.jacobian
        dense = _dense_log_step_size(gs.scale, gs.factor[:, None] * obs.grad, problem.stats.sd)
        assert math.isfinite(gs.log_h)
        _assert_close(gs.log_h, dense, floor=1.0)

    def test_saturated_row_beside_a_constant_moving_component(self):
        """relu1, W1[0, 0] constant over the draws: it moves (r = inf) only where unit 0
        is active, and there the held-out probability rounds to 1 (LL factor 0). Those
        draws rest, and the others set a finite step and a largest shift of one sd."""
        model = ReluOneModel(d=2, p=2)
        dataset = Dataset(features=np.array([[1.0, 1.0]]), labels=np.array([1]), feature_names=("a", "b"))
        rng = np.random.default_rng(76)
        values = rng.normal(size=(40, model.param_dim))
        active = np.arange(40) % 2 == 0
        values[:, 0] = 0.5  # W1[0, 0]
        values[:, 1] = np.where(active, 2.0, -2.0)  # W1[0, 1]: z_0 = 2.5 or -1.5
        values[:, 4] = np.where(active, 20.0, values[:, 4])  # W2[0]: mu >= 50 where active
        draws = PosteriorDraws(values=values, param_names=tuple(f"w{j}" for j in range(model.param_dim)))
        problem = LooProblem.build(model, draws, dataset, GaussianPrior.isotropic(model.param_dim, 1.0), RunConfig())
        obs = observation(problem, 0)
        assert problem.stats.sd[0] == 0.0
        np.testing.assert_array_equal(row_max_in_sd_units(obs.grad, problem.stats.sd)[active], np.inf)
        line = apply_gradient_transform("LL", obs)
        np.testing.assert_array_equal(line.jacobian.factor[active], 0.0)
        assert math.isfinite(line.jacobian.log_h)
        assert line.max_step_sd == pytest.approx(1.0, rel=1e-14)
        np.testing.assert_array_equal(line_step(line, problem, model=model)[active], 0.0)

    def test_constant_draw_column(self):
        """A zero-sd component stops every gradient line that moves it and is ignored
        by one that does not; PMM2 is unavailable."""
        model, dataset, prior, draws = make_logistic_toy(seed=75, n=4, p=3, num_draws=30)
        values = draws.values.copy()
        values[:, 1] = 0.75  # exact in binary, so the sd is exactly 0
        draws = PosteriorDraws(values=values, param_names=draws.param_names)
        features = dataset.features.copy()
        features[0, 1] = 0.0  # observation 0 does not move the constant component
        dataset = Dataset(features=features, labels=dataset.labels, feature_names=dataset.feature_names)
        problem = LooProblem.build(model, draws, dataset, prior, RunConfig())
        for kind in ("KL", "Var", "LL"):
            assert apply_gradient_transform(kind, observation(problem, 1)).flags == ("zero-step",)
            line = apply_gradient_transform(kind, observation(problem, 0))
            assert math.isfinite(line.jacobian.log_h)
            assert line.max_step_sd == pytest.approx(1.0, rel=1e-14)
        nu, _ = pareto_smooth(raw_weights(problem, 0))
        assert attempt(problem, "PMM2", 0, 1.0, nu)[0].flags == ("pmm2-unavailable",)
        line = attempt(problem, "PMM1", 0, 1.0, nu)[0]
        moving = problem.stats.sd > 0
        step = line_step(line, problem, nu)
        _assert_close(line.max_step_sd, np.max(np.abs(step[moving]) / problem.stats.sd[moving]))
