"""Seeded input generators for the benchmark workloads.

Every workload is built with public looadapt calls plus numpy/scipy and
written as the CSV/JSON files the command line reads, so the program under
test receives only generated inputs. The base instance of ``logit-scan`` is
the n=50 / p=200 adaptation study of the acceptance suite.

Generation is never timed. ``perfbench/run.py`` runs this file in its own
process when a workload's input directory is missing; each seed only
reorders the workload's base instance:

    python3 perfbench/generate.py WORKLOAD SEED DIR
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import zlib

import numpy as np
from scipy.optimize import minimize

from looadapt import Dataset, GaussianPrior, ReluOneModel, grad_log_posterior
from looadapt.models import bernoulli_log_likelihood, sigmoid
from workloads import WORKLOADS


def _write_csv(path: str, header: list[str], rows: np.ndarray) -> None:
    """Write with 17 significant digits, so every float reads back exactly."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        np.savetxt(fh, rows, fmt="%.17g", delimiter=",")


def _logistic_laplace(features, labels, prior_sd, inflation, num_draws, rng):
    """Draws from a full-covariance Laplace approximation inflated by ``inflation``."""
    p = features.shape[1]
    sign = 2.0 * labels - 1.0

    def neg_log_post(beta):
        mu = features @ beta
        value = -bernoulli_log_likelihood(mu, labels).sum() + 0.5 * np.sum((beta / prior_sd) ** 2)
        grad = -features.T @ (sign * sigmoid(-sign * mu)) + beta / prior_sd**2
        return value, grad

    opt = minimize(neg_log_post, np.zeros(p), jac=True, method="L-BFGS-B", options={"maxiter": 1000})
    mu_map = features @ opt.x
    curvature = sigmoid(mu_map) * sigmoid(-mu_map)
    hessian = (features.T * curvature) @ features + np.eye(p) / prior_sd**2
    chol = np.linalg.cholesky(np.linalg.inv(hessian))
    return opt.x + inflation * (rng.standard_normal((num_draws, p)) @ chol.T)


def _logistic_data(rng, n, p, beta_head):
    features = rng.normal(size=(n, p))
    beta_true = np.zeros(p)
    beta_true[: len(beta_head)] = beta_head
    labels = (rng.uniform(size=n) < sigmoid(features @ beta_true)).astype(int)
    return features, labels


def _relu_laplace(model, dataset, prior, num_draws, rng):
    """Laplace x1.0 around an L-BFGS MAP; the finite-difference Hessian of the
    negative log posterior has its eigenvalues floored at the prior precision."""

    def neg(theta):
        mu = model.mu_batch(theta[None, :], dataset.features)[0]
        value = -bernoulli_log_likelihood(mu, dataset.labels).sum() - prior.log_density(theta)
        return value, -grad_log_posterior(model, theta, dataset, prior)

    start = 0.1 * rng.standard_normal(model.param_dim)
    theta_map = minimize(neg, start, jac=True, method="L-BFGS-B", options={"maxiter": 2000}).x
    eps = 1e-5
    cols = []
    for j in range(model.param_dim):
        step = np.zeros(model.param_dim)
        step[j] = eps
        cols.append((neg(theta_map + step)[1] - neg(theta_map - step)[1]) / (2 * eps))
    hessian = np.array(cols)
    hessian = 0.5 * (hessian + hessian.T)
    evals, evecs = np.linalg.eigh(hessian)
    evals = np.maximum(evals, 1.0 / prior.sd**2)
    root_cov = evecs / np.sqrt(evals)  # root_cov @ root_cov.T = hessian^-1
    return theta_map + rng.standard_normal((num_draws, model.param_dim)) @ root_cov.T


def _base_instance(name: str):
    """The workload's one problem instance: features, labels and draws."""
    w = WORKLOADS[name]
    if name == "logit-scan":
        rng = np.random.default_rng(20250809)
        features, labels = _logistic_data(rng, 50, 200, [2.0, -2.0, 1.5, -1.5, 1.0])
        draws = _logistic_laplace(features, labels, w.prior_sd, 1.25, 2000, np.random.default_rng(7))
    elif name == "relu-grad":
        rng = np.random.default_rng(2)
        d, p, n = w.hidden, 20, 100
        features = np.hstack([0.5 * rng.normal(size=(n, p - 1)), np.ones((n, 1))])
        model = ReluOneModel(d=d, p=p)
        prior = GaussianPrior.isotropic(model.param_dim, w.prior_sd)
        theta_true = rng.normal(scale=1.5, size=model.param_dim)
        mu_true = model.mu_batch(theta_true[None, :], features)[0]
        labels = (rng.uniform(size=n) < sigmoid(mu_true)).astype(int)
        dataset = Dataset(features=features, labels=labels, feature_names=tuple(f"x{j}" for j in range(p)))
        draws = _relu_laplace(model, dataset, prior, 1000, rng)
    else:
        raise KeyError(name)
    return features, labels, draws


def generate(name: str, seed: int, out_dir: str) -> None:
    """Write data.csv, draws.csv, obs_order.json and (when used) config.json.

    Seed 0 is the base instance. Any other seed shuffles the order of the
    observations and of the draws: the LOO answers are equivariant under
    both, so every seed does the same work and its answers can be checked
    against the pinned fingerprint of seed 0. ``obs_order.json`` maps each
    data row to its base observation index.
    """
    w = WORKLOADS[name]
    features, labels, draws = _base_instance(name)
    obs_order = np.arange(len(labels))
    if seed != 0:
        rng = np.random.default_rng(np.random.SeedSequence([zlib.crc32(name.encode()), seed]))
        obs_order = rng.permutation(len(labels))
        features, labels = features[obs_order], labels[obs_order]
        draws = draws[rng.permutation(len(draws))]

    p = features.shape[1]
    data_rows = np.hstack([features, labels[:, None]])
    _write_csv(os.path.join(out_dir, "data.csv"), [f"x{j}" for j in range(p)] + ["y"], data_rows)
    _write_csv(
        os.path.join(out_dir, "draws.csv"), [f"t{j}" for j in range(draws.shape[1])], draws
    )
    with open(os.path.join(out_dir, "obs_order.json"), "w", encoding="utf-8") as fh:
        json.dump(obs_order.tolist(), fh)
    if w.config is not None:
        with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8") as fh:
            json.dump(w.config, fh)


def main(argv) -> int:
    name, seed, final = argv[0], int(argv[1]), argv[2]
    tmp = final + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    generate(name, seed, tmp)
    for entry in os.scandir(tmp):  # on disk before any timing starts
        with open(entry.path, "rb") as fh:
            os.fsync(fh.fileno())
    os.rename(tmp, final)  # only a finished directory appears under its final name
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
