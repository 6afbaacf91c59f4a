"""Shared toy instances and reference helpers for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from looadapt import Dataset, GaussianPrior, LogisticModel, PosteriorDraws, ReluOneModel, grad_log_posterior
from looadapt.data import PMM_KINDS, marginal_stats
from looadapt.models import evaluate_posterior
from looadapt.transforms import apply_gradient_transform, apply_pmm, apply_transform, gradient_step

from oracle import build_grid_posterior, finite_difference_jacobian


def make_logistic_toy(seed=42, n=6, p=3, prior_sd=2.0, num_draws=50, draw_scale=1.0):
    """Small logistic instance with seeded draws for derivative checks."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, p))
    beta = rng.normal(size=p)
    probs = 1.0 / (1.0 + np.exp(-(features @ beta)))
    labels = (rng.uniform(size=n) < probs).astype(int)
    if labels.min() == labels.max():  # force both classes for metric tests
        labels[0] = 1 - labels[0]
    dataset = Dataset(features=features, labels=labels, feature_names=tuple(f"x{j}" for j in range(p)))
    model = LogisticModel(p=p)
    prior = GaussianPrior.isotropic(p, prior_sd)
    draws = PosteriorDraws(
        values=draw_scale * rng.normal(size=(num_draws, p)),
        param_names=tuple(f"b{j}" for j in range(p)),
    )
    return model, dataset, prior, draws


def make_relu_toy(seed=3, n=6, d=2, p=3, prior_sd=1.5, num_draws=40, kink_margin=1e-3):
    """Small one-hidden-layer instance; draws are resampled away from kinks."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, p))
    labels = rng.integers(0, 2, size=n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    dataset = Dataset(features=features, labels=labels, feature_names=tuple(f"x{j}" for j in range(p)))
    model = ReluOneModel(d=d, p=p)
    prior = GaussianPrior.isotropic(model.param_dim, prior_sd)
    values = np.empty((num_draws, model.param_dim))
    count = 0
    while count < num_draws:
        theta = rng.normal(size=model.param_dim)
        margins = [abs(model.relu_forward(theta, x)[1]).min() for x in features]
        if min(margins) > kink_margin:
            values[count] = theta
            count += 1
    draws = PosteriorDraws(values=values, param_names=tuple(f"w{j}" for j in range(model.param_dim)))
    return model, dataset, prior, draws


def make_grid_instance_1(seed=101):
    """Fixed 1-parameter logistic grid instance (n = 4)."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(4, 1))
    labels = np.array([1, 0, 1, 0])
    dataset = Dataset(features=features, labels=labels, feature_names=("x0",))
    model = LogisticModel(p=1)
    prior = GaussianPrior.isotropic(1, 2.0)
    grid = build_grid_posterior(model, dataset, prior, bounds=[(-12.0, 12.0)], nodes_per_dim=201)
    return model, dataset, prior, grid


def make_grid_instance_2(seed=202, nodes_per_dim=81):
    """Fixed 2-parameter logistic grid instance (n = 8)."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(8, 2))
    beta = np.array([1.0, -1.5])
    probs = 1.0 / (1.0 + np.exp(-(features @ beta)))
    labels = (rng.uniform(size=8) < probs).astype(int)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    dataset = Dataset(features=features, labels=labels, feature_names=("x0", "x1"))
    model = LogisticModel(p=2)
    prior = GaussianPrior.isotropic(2, 1.5)
    grid = build_grid_posterior(model, dataset, prior, bounds=[(-9.0, 9.0), (-9.0, 9.0)], nodes_per_dim=nodes_per_dim)
    return model, dataset, prior, grid


def log_post(model, theta, dataset, prior):
    """The unnormalized log posterior at one parameter vector, as a batch of one draw."""
    values = np.asarray(theta, dtype=float)[None, :]
    return float(evaluate_posterior(model, values, dataset, prior, with_grad=False).log_post[0])


def grad_log_lik(model, theta, x, y):
    """The gradient of one observation's log likelihood at one parameter vector:
    grad_log_posterior on a one-row dataset minus the prior's gradient."""
    theta, x = np.asarray(theta, dtype=float), np.asarray(x, dtype=float)
    one = Dataset(features=x[None, :], labels=[y], feature_names=tuple(f"x{j}" for j in range(x.size)))
    prior = GaussianPrior.isotropic(model.param_dim, 1.0)
    return grad_log_posterior(model, theta, one, prior) - prior.grad_batch(theta)


def _one_draw(kind, model, theta, dataset, prior, i, log_ref):
    values = np.asarray(theta, dtype=float)[None, :]
    ev = evaluate_posterior(model, values, dataset, prior, with_grad=kind != "LL")
    return gradient_step(kind, model, values, dataset, i, ev, ev.log_ref if log_ref is None else log_ref)


def q_at(kind, model, theta, dataset, prior, i, log_ref=None):
    """Q(theta) through the batched gradient step on a batch of one draw.

    ``log_ref`` anchors the posterior-density factor (pass the maximum log
    posterior over the draw set); omitting it anchors at theta itself,
    making the density factor exactly 1.
    """
    step = _one_draw(kind, model, theta, dataset, prior, i, log_ref)
    return np.exp(step.scale[0]) * (step.factor[0] * step.grad[0])


def logdet_at(kind, model, theta, dataset, prior, i, h, log_ref=None):
    """Exact log |det J| of theta -> theta + h Q(theta) on a batch of one draw."""
    log_h = math.log(h) if h > 0 else -math.inf
    logdet, _ = _one_draw(kind, model, theta, dataset, prior, i, log_ref).logdet(log_h)
    return float(logdet[0])


def hessian_factors(model, theta, x):
    """The batched eigen-factors of the Hessian of mu at one (theta, x), seen
    through every pair of unit vectors: row a * P + b holds (e_a, e_b).

    Returns ``(lam, plus, minus)`` with P * P rows, or None where the
    Hessian vanishes identically.
    """
    p = len(theta)
    values = np.tile(np.asarray(theta, dtype=float), (p * p, 1))
    eye = np.eye(p)
    grad = model.grad_mu_batch(values, x)
    return model.hessian_eigenbasis(grad, x, np.repeat(eye, p, axis=0), np.tile(eye, (p, 1)))


def dense_hessian(model, theta, x):
    """The Hessian of mu at (theta, x) rebuilt from its eigen-factors:
    H[a, b] = e_a^T H e_b = sum_k lam_k (plus_k - minus_k)."""
    p = len(theta)
    factors = hessian_factors(model, theta, x)
    if factors is None:
        return np.zeros((p, p))
    lam, plus, minus = factors
    return np.sum(lam * (plus - minus), axis=1).reshape(p, p)


def pairwise_resolvent(model, theta, x, u, v, alpha):
    """u^T (I + alpha H)^-1 v at one (theta, x), through the eigenbasis: each
    eigenpair +-lam shifts u.v by (1 / (1 +- alpha lam) - 1) times its product."""
    grad = model.grad_mu_batch(np.asarray(theta, dtype=float)[None, :], x)
    lam, plus, minus = model.hessian_eigenbasis(grad, x, u[None, :], v[None, :])
    return float(u @ v) + np.sum((1.0 / (1.0 + alpha * lam) - 1.0) * plus
                                 + (1.0 / (1.0 - alpha * lam) - 1.0) * minus)


def fd_divergence(kind, model, theta, dataset, prior, i, log_ref=None, step=1e-6):
    """div Q at theta: the trace of the finite-difference Jacobian of Q."""
    jac = finite_difference_jacobian(
        lambda t: q_at(kind, model, t, dataset, prior, i, log_ref), theta, step * np.ones(len(theta))
    )
    return float(np.trace(jac))


def attempt(problem, kind, i, hbar, nu_weights=None):
    """(line, transformed draws) of one scan attempt at step scale ``hbar``.

    PMM kinds move toward the moments of ``nu_weights``.
    """
    if kind in PMM_KINDS:
        line = apply_pmm(kind, i, problem, marginal_stats(problem.draws, nu_weights.normalized))
    else:
        line = apply_gradient_transform(kind, i, problem)
    return line, apply_transform(line, hbar, problem)


def gpd_inverse_cdf_sample(rng, k, sigma, size):
    """Reference GPD sampler: x = sigma * ((1 - u)^(-k) - 1) / k."""
    u = rng.uniform(size=size)
    if k == 0.0:
        return -sigma * np.log1p(-u)
    return sigma * ((1.0 - u) ** (-k) - 1.0) / k


def pair_count_auroc(scores, labels):
    """Exhaustive pair-counting AUROC with ties worth one half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (pos.size * neg.size)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
