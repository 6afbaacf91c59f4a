"""Write the golden instances that ``test_golden.py`` checks, once.

    PYTHONPATH=src python tests/make_golden.py

Each instance directory under ``tests/golden/`` holds the inputs of one
``looadapt run`` (data.csv, draws.csv, config.json and the remaining flags in
args.json) and expected.json, the report it wrote outside ``timings`` and
``tool_version``. The inputs are stored, not regenerated, so the test reads
the same bytes whatever later happens to this script, the test helpers or the
model code. Run it again only for a change that moves an answer on purpose,
and say so where the change is recorded. It rewrites the inputs too, and
they come out the same bytes only while this script, scipy's optimizer and
the model code it calls do not change.

Both instances run all five kinds on the default step-scale grid, n = 30
observations with a constant-1 feature, S = 200 draws from a Laplace
approximation around the MAP, rounded to 8 significant digits to keep the
files small:

- logistic (p = 4; Laplace covariance inflated 3x, the labels of the two
  surest observations flipped): 15 observations are flagged. Winners come
  from PMM1, PMM2 and LL, and one observation walks all 55 attempts of the
  grid without reaching the threshold.
- relu1 (d = 2 hidden units, p = 3, so P = 9; Laplace covariance as is):
  the gradient kinds' determinants have the Hessian's eigenpairs here. 5
  observations are flagged. Winners come from PMM1, PMM2 and Var, so KL's
  whole line is scanned before Var wins, and one observation walks the
  whole grid without reaching the threshold.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
from scipy.optimize import minimize

from looadapt import Dataset, GaussianPrior, LogisticModel, ReluOneModel, RunConfig
from looadapt.cli import main as cli_main
from looadapt.models import evaluate_posterior, sigmoid
from test_golden import GOLDEN_DIR, golden_args


def _laplace_draws(model, dataset, prior, inflation, num_draws, rng):
    """MAP by L-BFGS, then draws from N(MAP, inflation^2 H^-1), H the
    finite-difference Hessian of the negative log posterior with its
    eigenvalues floored at the smallest prior precision."""

    def neg(theta):
        evaluation = evaluate_posterior(model, theta[None, :], dataset, prior)
        return -evaluation.log_post[0], -evaluation.grad_log_post[0]

    theta_map = minimize(neg, 0.1 * rng.standard_normal(model.param_dim), jac=True, method="L-BFGS-B").x
    eye = 1e-5 * np.eye(model.param_dim)
    hessian = np.array([(neg(theta_map + e)[1] - neg(theta_map - e)[1]) / 2e-5 for e in eye])
    evals, evecs = np.linalg.eigh(0.5 * (hessian + hessian.T))
    root_cov = evecs / np.sqrt(np.maximum(evals, np.min(prior.sd) ** -2.0))
    return theta_map + inflation * rng.standard_normal((num_draws, model.param_dim)) @ root_cov.T


def _instance(name, seed, inflation, outliers):
    rng = np.random.default_rng(seed)
    n, p = 30, (4 if name == "logistic" else 3)
    features = np.hstack([rng.normal(size=(n, p - 1)), np.ones((n, 1))])
    model = LogisticModel(p=p) if name == "logistic" else ReluOneModel(d=2, p=p)
    prior = GaussianPrior.isotropic(model.param_dim, 1.0)
    theta_true = rng.normal(scale=1.5, size=model.param_dim)
    mu_true = model.mu_batch(theta_true[None, :], features)[0]
    labels = (rng.uniform(size=n) < sigmoid(mu_true)).astype(int)
    flip = np.argsort(-np.abs(mu_true))[:outliers]  # the surest labels, mislabelled
    labels[flip] = 1 - labels[flip]
    dataset = Dataset(features=features, labels=labels, feature_names=tuple(f"x{j}" for j in range(p)))
    draws = _laplace_draws(model, dataset, prior, inflation, 200, rng)
    args = ["--model", name, "--prior-sd", "1.0"] + (["--hidden", "2"] if name == "relu1" else [])
    return features, labels, draws, args


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        np.savetxt(fh, rows, fmt="%.8g", delimiter=",")


def write_instance(name, seed, inflation, outliers):
    directory = os.path.join(GOLDEN_DIR, name)
    os.makedirs(directory, exist_ok=True)
    features, labels, draws, args = _instance(name, seed, inflation, outliers)
    _write_csv(os.path.join(directory, "data.csv"), [f"x{j}" for j in range(features.shape[1])] + ["y"],
               np.hstack([features, labels[:, None]]))
    _write_csv(os.path.join(directory, "draws.csv"), [f"t{j}" for j in range(draws.shape[1])], draws)
    config = RunConfig()
    with open(os.path.join(directory, "config.json"), "w", encoding="utf-8") as fh:
        json.dump({"hbar_exponents": list(config.hbar_exponents), "transform_order": list(config.transform_order)}, fh)
        fh.write("\n")
    with open(os.path.join(directory, "args.json"), "w", encoding="utf-8") as fh:
        json.dump(args, fh)
        fh.write("\n")
    report_path = os.path.join(directory, "report.json")
    cli_main(["run", *golden_args(directory), "--out", report_path])
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    os.remove(report_path)
    expected = {key: value for key, value in report.items() if key not in ("timings", "tool_version")}
    with open(os.path.join(directory, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return expected["report"]


def describe(report) -> str:
    """Flagged, unadapted and full-grid observations, and the winners' kinds."""
    results = report["per_observation"]
    winners = [r["winning_transform"]["kind"] for r in results if r["winning_transform"]]
    return (f"flagged {sum(bool(r['attempts']) for r in results)}, "
            f"unadapted {sum(not r['adapted'] for r in results)}, "
            f"whole grid {sum(len(r['attempts']) == 55 for r in results)}, "
            f"winners {sorted((k, winners.count(k)) for k in set(winners))}")


if __name__ == "__main__":
    for name, seed, inflation, outliers in (("logistic", 6, 3.0, 2), ("relu1", 37, 1.0, 0)):
        print(name, describe(write_instance(name, seed, inflation, outliers)), file=sys.stderr)
