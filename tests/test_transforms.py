"""Transformations, step sizes and Jacobian determinants."""

import math
from dataclasses import replace

import numpy as np
import pytest

from looadapt import DomainError, PosteriorDraws, RunConfig, SigmoidalModel
from looadapt.data import Dataset, marginal_stats
from looadapt.engine import LooProblem, eta_weights
from looadapt.gpd import WeightVector, pareto_smooth
from looadapt.models import (
    GaussianPrior,
    LogisticModel,
    PosteriorEvaluation,
    evaluate_posterior,
    grad_log_posterior,
    sigmoid,
    sigmoid_slope,
)
from looadapt.transforms import apply_gradient_transform, apply_pmm, gradient_step, log_step_size

from conftest import (
    attempt,
    dense_hessian,
    fd_divergence,
    log_post,
    logdet_at,
    make_logistic_toy,
    make_relu_toy,
    q_at,
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
        return hbar * math.exp(log_step_size(np.zeros(q.shape[0]), q, stats.sd))

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
        assert line.step is None
        assert out.degenerate
        assert out.flags == ("zero-step",)
        assert out.h_used == 0.0
        assert out.evaluation is None and out.log_jac_det is None  # phi = theta, nothing to weigh

    def test_gradient_only_for_kl_and_var(self):
        model, dataset, prior, draws = make_logistic_toy(seed=30)
        problem = LooProblem.build(model, draws, dataset, prior, RunConfig(transform_order=("PMM1", "LL")))
        assert problem.evaluation.grad_log_post is None
        assert not attempt(problem, "LL", 0, 0.5)[1].degenerate
        with pytest.raises(DomainError, match="needs the posterior gradient"):
            apply_gradient_transform("KL", 0, problem)

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
                disp = np.abs(hbar * line.step)[:, moving] / stats.sd[moving]
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
    model and forwards only what a gradient step uses."""

    mu = grad_mu = mu_batch = weighted_grad_mu = mu_line = None

    def __init__(self, inner):
        self.inner = inner

    param_dim = property(lambda self: self.inner.param_dim)
    num_features = property(lambda self: self.inner.num_features)

    def grad_mu_batch(self, values, x):
        return self.inner.grad_mu_batch(values, x)

    def hessian_eigenbasis(self, grad, x, u, v):
        return self.inner.hessian_eigenbasis(grad, x, u, v)


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
        The model family is not guarded: any model steps through its own
        grad_mu_batch and hessian_eigenbasis."""
        model, dataset, prior, draws = make_logistic_toy(seed=38, p=3)
        values = draws.values[:5]
        ev = evaluate_posterior(model, values, dataset, prior)
        with pytest.raises(DomainError, match="defined for"):
            gradient_step("PMM1", model, values, dataset, 0, ev, ev.log_ref)
        with pytest.raises(DomainError, match="needs the posterior gradient"):
            gradient_step("KL", model, values, dataset, 0, replace(ev, grad_log_post=None), ev.log_ref)
        for toy in (make_logistic_toy(seed=38, p=3), make_relu_toy(seed=38)):
            inner, toy_data, toy_prior, toy_draws = toy
            toy_values = toy_draws.values[:5]
            toy_ev = evaluate_posterior(inner, toy_values, toy_data, toy_prior)
            for kind in ("KL", "Var", "LL"):
                ours = gradient_step(kind, _OtherModel(inner), toy_values, toy_data, 0, toy_ev, toy_ev.log_ref)
                theirs = gradient_step(kind, inner, toy_values, toy_data, 0, toy_ev, toy_ev.log_ref)
                np.testing.assert_array_equal(ours.logdet(-1.0)[0], theirs.logdet(-1.0)[0])


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
        # logistic KL with y = 0 and x = [1]: det = 1 + c (grad log post + 1);
        # c = 1 and grad log post = -2 make the map exactly singular
        dataset = Dataset(features=np.ones((1, 1)), labels=np.array([0]), feature_names=("a",))
        model = LogisticModel(p=1)
        ev = PosteriorEvaluation(mu=np.zeros((1, 1)), log_lik=np.zeros((1, 1)), log_post=np.zeros(1),
                                 grad_log_post=np.array([[-2.0]]))
        logdet, flags = gradient_step("KL", model, np.zeros((1, 1)), dataset, 0, ev, 0.0).logdet(0.0)
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
    """The PMM maps as lines: phi = theta + hbar * line.step."""

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
        np.testing.assert_allclose(line.step, 0.0, atol=1e-12)
        np.testing.assert_allclose(out.evaluation.log_post, problem.evaluation.log_post, atol=1e-12)
        np.testing.assert_array_equal(out.log_jac_det, 0.0)

    def test_pmm1_shifts_every_draw_and_recenters(self):
        problem, weights = self._setup()
        draws = problem.draws
        line, out = attempt(problem, "PMM1", 0, 1.0, weights)
        phi = draws.values + line.step
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
        np.testing.assert_allclose(values + line.step, 2.0 * values, atol=1e-12)

    def test_pmm2_unavailable_with_constant_column(self):
        values = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        problem = self._problem(PosteriorDraws(values=values, param_names=("a", "b")))
        weights = WeightVector.from_log_weights(np.zeros(3))
        _, out = attempt(problem, "PMM2", 0, 0.5, weights)
        assert out.degenerate
        assert "pmm2-unavailable" in out.flags

    def test_kind_guard(self):
        problem, weights = self._setup()
        with pytest.raises(DomainError):
            apply_pmm("KL", 0, problem, marginal_stats(problem.draws, weights.normalized))


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
        return LooProblem.build(model, draws, dataset, prior, RunConfig())

    def _reference_gradient_step(self, problem, kind, i, hbar):
        """h, max |step| / sd and per-draw log |det J| from dense single-draw Jacobians."""
        model, dataset, prior, values = problem.model, problem.dataset, problem.prior, problem.draws.values
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
        problem = self._problem(toy)
        model, dataset, prior, values = problem.model, problem.dataset, problem.prior, problem.draws.values
        i = 2
        nu, _ = pareto_smooth(eta_weights(problem.evaluation, problem.log_proposal, i))
        for hbar in self.HBARS:
            line, out = attempt(problem, kind, i, hbar, nu)
            assert not out.degenerate
            if kind in ("PMM1", "PMM2"):
                h_ref, logdet_ref = hbar, self._reference_pmm_logdet(problem, kind, hbar, nu)
                shift_ref = float(np.max(np.abs(hbar * np.broadcast_to(line.step, values.shape)) / problem.stats.sd))
                np.testing.assert_array_equal(out.log_jac_det, logdet_ref)
            else:
                h_ref, shift_ref, logdet_ref = self._reference_gradient_step(problem, kind, i, hbar)
                np.testing.assert_allclose(out.log_jac_det, logdet_ref, rtol=1e-10, atol=1e-13)
            assert out.h_used == pytest.approx(h_ref, rel=1e-12)
            assert out.max_step_sd == pytest.approx(shift_ref, rel=1e-12)

            phi_eval = evaluate_posterior(model, values + hbar * line.step, dataset, prior, with_grad=False)
            np.testing.assert_allclose(out.evaluation.mu, phi_eval.mu, rtol=1e-12, atol=1e-12)
            reference = out.log_jac_det - phi_eval.log_lik[:, i] + (phi_eval.log_post - problem.log_proposal)
            # a log weight sums O(1-10) terms and can cancel to near 0, so the
            # error is also measured against the largest log weight
            weights = eta_weights(out.evaluation, problem.log_proposal, i, out.log_jac_det)
            np.testing.assert_allclose(weights.log_weights, reference, rtol=1e-12, atol=1e-12 * np.abs(reference).max())
