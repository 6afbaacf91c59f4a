"""Every gradient step's log |det J| against ``np.linalg.slogdet`` of its dense Jacobian.

A KL, Var or LL step maps theta to theta + h Q(theta), whose Jacobian at a
draw is J = I + alpha H + uvec grad_mu^T (see ``looadapt.transforms``), with
alpha = e * factor, e = exp(log h + scale) and uvec = e * u. The reference
builds J entry by entry: H from the closed-form second derivatives of mu,
d^2 mu / dW1[k, j] dW2[k] = 1[z1_k > 0] x_j for relu1 and 0 for logistic
regression, never from ``hessian_projection``; u from grad_mu and the
posterior gradient of the run. ``GradientStep.logdet`` must match
``slogdet`` to 1e-10 relative (absolute where |log |det J|| < 1, so that
|det J| itself agrees to 1e-10 relative) wherever slogdet's own rounding
error, at most P eps cond(J), is ten times smaller; it may be -inf only
where J is singular to rounding, cond(J) >= 1 / (P eps), and must be -inf
where slogdet meets an exactly zero pivot. Draws of cond(J) in between are
too ill-conditioned for slogdet to check: at draw sd 1e3, cond(J) reaches
1e8, where slogdet is off by 1e-10 while the closed form is within 1e-15
of the exact determinant (checked once at 400-bit precision).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from looadapt import Dataset, GaussianPrior, LogisticModel, PosteriorDraws, ReluOneModel, RunConfig
from looadapt.data import DEFAULT_HBAR_EXPONENTS
from looadapt.engine import LooProblem
from looadapt.gpd import WeightVector
from looadapt.models import sigmoid
from looadapt.transforms import Observation, gradient_step

REL_TOL = 1e-10


def closed_form_hessian(model, theta, x):
    """The Hessian of mu at (theta, x), entry by entry: d^2 mu / dW1[k, j] dW2[k] =
    1[z1_k > 0] x_j for relu1, every other entry 0, and 0 for logistic regression."""
    hess = np.zeros((model.param_dim, model.param_dim))
    if isinstance(model, ReluOneModel):
        d, p = model.d, model.p
        active = model.relu_forward(theta, x)[2]
        for k in range(d):
            hess[k * p:(k + 1) * p, d * p + k] = hess[d * p + k, k * p:(k + 1) * p] = active[k] * x
    return hess


def dense_jacobian(model, obs, kind, step, s, log_h):
    """J = I + alpha H + uvec grad_mu^T of ``step`` at draw s and step size exp(log_h)."""
    problem = obs.problem
    evaluation = problem.evaluation
    grad = obs.grad[s]
    e = math.exp(log_h + step.scale[s])
    if kind == "LL":
        mu = evaluation.origin.mu[s, obs.i]
        u = float(sigmoid(mu) * sigmoid(-mu)) * grad
    else:
        u = (1.0 if kind == "KL" else 2.0) * grad + obs.sign * evaluation.grad_log_post[s]
    hess = closed_form_hessian(model, problem.draws.values[s], problem.dataset.features[obs.i])
    return np.eye(grad.size) + (e * step.factor[s]) * hess + np.outer(e * u, grad)


def reference_log_det(jacobian):
    """(log |det J| by slogdet, the bound P eps cond(J) on its rounding error, whether the LU met
    an exactly zero pivot). A bound of 1 or more means that J is singular to rounding."""
    sign, log_abs = np.linalg.slogdet(jacobian)
    sv = np.linalg.svd(jacobian, compute_uv=False)
    cond = sv[0] / sv[-1] if sv[-1] > 0 else np.inf
    return log_abs, jacobian.shape[0] * np.finfo(float).eps * cond, sign == 0


def observation(model, values, features, labels, prior_sd=1.0):
    """The :class:`Observation` at x_0 of a run of ``model`` on these draws and data."""
    p = features.shape[1]
    dataset = Dataset(features=features, labels=labels, feature_names=tuple(f"x{j}" for j in range(p)))
    draws = PosteriorDraws(values=values, param_names=tuple(f"t{j}" for j in range(values.shape[1])))
    prior = GaussianPrior.isotropic(model.param_dim, prior_sd)
    problem = LooProblem.build(model, draws, dataset, prior, RunConfig())
    return Observation(0, problem, WeightVector.from_log_weights(np.zeros(len(values))))


def check_log_det(model, obs, kind, step, log_h):
    """``step.logdet(log_h)`` against the dense reference at every draw: -inf only where J is
    singular to rounding and wherever slogdet met a zero pivot, and within REL_TOL of slogdet
    wherever slogdet's own error bound is below REL_TOL / 10. Returns it and the number of draws
    that are neither, too ill-conditioned for slogdet to check."""
    ours, flags = step.logdet(log_h)
    unchecked = 0
    for s in range(len(ours)):
        ref, error, zero_pivot = reference_log_det(dense_jacobian(model, obs, kind, step, s, log_h))
        where = f"{kind} draw {s} log h {log_h}: {ours[s]} against slogdet {ref} within {error:.2g}"
        if ours[s] == -np.inf or zero_pivot:
            assert ours[s] == -np.inf and error >= 1.0, where
        elif error <= 0.1 * REL_TOL:
            assert abs(ours[s] - ref) <= REL_TOL * max(1.0, abs(ref)), where
        else:
            unchecked += 1
    assert flags == (("singular-jacobian",) if np.any(ours == -np.inf) else ())
    return ours, unchecked


def _instance(d, p, n, num_draws, log10_scale, seed, inactive, zero_row):
    """Model, draws, features and labels; with ``inactive`` the first half of the draws (and one
    more) have no active unit at x_0, and with ``zero_row`` x_0 = 0."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, p))
    if zero_row:
        features[0] = 0.0
    labels = rng.integers(0, 2, size=n)
    model = LogisticModel(p=p) if d is None else ReluOneModel(d=d, p=p)
    values = 10.0**log10_scale * rng.normal(size=(num_draws, model.param_dim))
    if d is not None and inactive:
        w1 = model._split_batch(values)[0]
        for s in range(num_draws // 2 + 1):
            w1[s][w1[s] @ features[0] > 0] *= -1.0
    return model, values, features, labels


class TestDenseDeterminant:
    @given(
        d=st.sampled_from([None, 1, 2, 8]), p=st.integers(1, 3), n=st.integers(1, 5), num_draws=st.integers(2, 6),
        log10_scale=st.floats(-3.0, 3.0), seed=st.integers(0, 2**32 - 1), inactive=st.booleans(),
        zero_row=st.booleans(),
    )
    @example(d=None, p=2, n=3, num_draws=4, log10_scale=0.0, seed=0, inactive=False, zero_row=False)
    @example(d=1, p=1, n=3, num_draws=4, log10_scale=0.0, seed=1, inactive=True, zero_row=False)
    @example(d=2, p=3, n=4, num_draws=6, log10_scale=0.0, seed=2, inactive=True, zero_row=False)
    @example(d=8, p=3, n=4, num_draws=6, log10_scale=0.5, seed=3, inactive=True, zero_row=False)
    @example(d=2, p=3, n=4, num_draws=6, log10_scale=0.0, seed=4, inactive=False, zero_row=True)
    @settings(deadline=None)  # examples and derandomization from the profile (conftest.py)
    def test_log_det_matches_slogdet(self, d, p, n, num_draws, log10_scale, seed, inactive, zero_row):
        """Every gradient kind at every step scale of the default grid and every draw: logistic,
        and relu1 at d = 1, 2 and 8, with draws that have no active unit at x_i, or with x_i = 0."""
        model, values, features, labels = _instance(d, p, n, num_draws, log10_scale, seed, inactive, zero_row)
        obs = observation(model, values, features, labels)
        count = np.broadcast_to(obs.grad_products[1][1], num_draws)
        if d is not None:
            expected = [model.relu_forward(theta, features[0])[2].sum() for theta in values]
            np.testing.assert_array_equal(count, expected)
            if inactive or zero_row:
                assert not count[: num_draws // 2 + 1].any()
        unchecked = 0
        for kind in ("KL", "Var", "LL"):
            step = gradient_step(kind, obs)
            if step.coef is not None:
                for k in DEFAULT_HBAR_EXPONENTS:
                    unchecked += check_log_det(model, obs, kind, step, step.log_h - k * math.log(4.0))[1]
        if d is None:
            event("logistic")
        else:
            units = "x_i = 0" if zero_row else "some draws without" if not count.all() else "every draw with"
            event(f"relu1, d = {d}: {units}{'' if zero_row else ' an active unit'}")
        event(f"{'some' if unchecked else 'no'} draws too ill-conditioned for slogdet")


class TestSingularDraws:
    """log |det J| is -inf, flagged singular-jacobian, exactly where J is singular."""

    def test_rank_one_factor(self):
        # logistic KL with y = 0 and x = [1] at theta = 64: sigma(mu) rounds to 1 and the prior sd 8
        # gives grad log post = -2; at h = exp(-64) the rank-one factor is exactly 0
        model = LogisticModel(p=1)
        obs = observation(model, np.full((2, 1), 64.0), np.ones((1, 1)), np.array([0]), prior_sd=8.0)
        ours, _ = check_log_det(model, obs, "KL", gradient_step("KL", obs), -64.0)
        np.testing.assert_array_equal(ours, -np.inf)

    def test_pair_factor(self):
        # relu1 with d = 1, p = 2 and x = [1, 0], so lam = 1 on an active draw. Both draws have mu = 0
        # and the same log posterior, so KL (y = 0) has alpha = exp(log h) on both. Draw 0,
        # W1 = (1, 0), W2 = 1, b2 = -1, is active, and grad_mu = (1, 0, 1, 1) is orthogonal to the
        # eigenvector (1, 0, -1, 0) / sqrt(2) of -1: at alpha = 1 its pair factor 1 - alpha^2 is 0 and
        # J is singular. Draw 1, W1 = (-1, 1), W2 = 1, b2 = 0, has no active unit, so lam = 0 and its
        # J = I + uvec grad_mu^T stays regular there.
        model = ReluOneModel(d=1, p=2)
        values = np.array([[1.0, 0.0, 1.0, -1.0], [-1.0, 1.0, 1.0, 0.0]])
        obs = observation(model, values, np.array([[1.0, 0.0]]), np.array([0]))
        np.testing.assert_array_equal(obs.grad_products[1][:2], ([1.0, 0.0], [1, 0]))
        step = gradient_step("KL", obs)
        np.testing.assert_array_equal(step.scale, 0.0)
        for log_h in (0.0, -1.0, -8.0):
            ours, unchecked = check_log_det(model, obs, "KL", step, log_h)
            assert unchecked == 0
            assert (ours[0] == -np.inf) == (log_h == 0.0) and np.isfinite(ours[1])

    @pytest.mark.parametrize("model", [LogisticModel(p=2), ReluOneModel(d=2, p=2)], ids=["logistic", "relu1"])
    def test_nan_determinant(self, model):
        """|x_0| ~ 1e300: the products of a step overflow, and log |det J| is NaN at every draw of
        logistic regression and at each active relu1 draw. Each is -inf and singular-jacobian,
        raised without a RuntimeWarning (tier-1 turns one into an error)."""
        values = np.random.default_rng(0).normal(size=(4, model.param_dim))
        obs = observation(model, values, np.array([[1e300, -1e300], [1.0, 1.0]]), np.array([0, 1]))
        active = np.broadcast_to(obs.grad_products[1][1], 4) > 0
        for kind in ("KL", "Var", "LL"):
            step = gradient_step(kind, obs)
            ours, flags = step.logdet(step.log_h)
            assert not np.isnan(ours).any()
            np.testing.assert_array_equal(ours == -np.inf, active if isinstance(model, ReluOneModel) else True)
            assert flags == ("singular-jacobian",)
