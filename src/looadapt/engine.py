"""Per-observation adaptation loop and leave-one-out summaries.

For each observation the engine builds leave-one-out importance weights,
smooths their tail and reads off the shape diagnostic k-hat. When
the diagnostic exceeds the configured threshold it walks the configured
(transform kind x step scale) grid, recomputing transformed weights until
one attempt brings k-hat under the threshold or the grid is exhausted, in
which case the best attempt is kept and the observation is flagged as
unreliable. Raw and transformed weights come from one formula,
:func:`eta_weights`; the raw weights are its identity case. The
per-observation loops are independent and can run on a thread pool;
results are always assembled in observation order.

The posterior is evaluated once per run, at the draws. Each (observation,
kind) family of attempts lies on one line theta + hbar * D, built once
(:func:`~looadapt.transforms.step_lines`); a step scale then costs O(S n)
for the logistic model and O(S n d) for relu1.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data import Dataset, MarginalStats, PosteriorDraws, RunConfig, marginal_stats
from .errors import DomainError
from .gpd import WeightVector, log_sum_exp, pareto_smooth
from .metrics import auprc, auroc, pr_curve, roc_curve
from .models import (
    GaussianPrior,
    LinearMuLine,
    PosteriorEvaluation,
    ReluMuLine,
    SigmoidalModel,
    bernoulli_log_likelihood,
    evaluate_posterior,
    sigmoid,
)
from .transforms import apply_transform, step_lines


@dataclass(frozen=True)
class AttemptRecord:
    """Diagnostics for one (transform kind, step scale) attempt."""

    kind: str
    hbar: float
    khat: float
    fittable: bool
    degenerate: bool
    flags: tuple[str, ...]
    h_used: float
    max_step_sd: float


@dataclass(frozen=True)
class ObservationResult:
    """Adaptation outcome and LOO quantities for a single observation.

    ``adapted`` is true exactly when ``final_khat`` is at or under the
    threshold; otherwise the reported quantities come from the best attempt
    (or the raw weights if those were best) and should be treated as
    unreliable. ``winning_transform`` is the attempt that supplied them, or
    None when the raw weights did.
    """

    index: int
    raw_khat: float
    adapted: bool
    winning_transform: AttemptRecord | None
    final_khat: float
    final_weights: WeightVector
    loo_predictive_prob: float
    loo_log_predictive_density: float
    loo_predictive_prob_se: float
    loo_log_predictive_density_se: float
    attempts: tuple[AttemptRecord, ...]


@dataclass(frozen=True)
class LooReport:
    """Aggregate report: per-observation records plus ranking summaries."""

    per_observation: tuple[ObservationResult, ...]
    loo_ic: float
    loo_ic_se: float
    n_failed: int
    roc_points: tuple
    prc_points: tuple
    auroc: float | None
    auprc: float | None


@dataclass(frozen=True)
class LooProblem:
    """Read-only inputs and per-run precomputes shared by every observation.

    ``evaluation`` holds mu, log likelihood and log posterior at the draws
    (with the gradient only when KL or Var is in the transform order).
    ``log_proposal`` is the per-draw log density the draws came from, up to
    a constant: the unnormalized log posterior for posterior draws, the
    variational log density q for variational ones. ``log_prior`` and
    ``mu_origin`` (mu at the draws, with the relu1 pre-activations) are where
    every step line starts.
    """

    model: SigmoidalModel
    dataset: Dataset
    prior: GaussianPrior
    draws: PosteriorDraws
    config: RunConfig
    evaluation: PosteriorEvaluation
    stats: MarginalStats
    log_proposal: np.ndarray
    log_prior: np.ndarray
    mu_origin: LinearMuLine | ReluMuLine

    @classmethod
    def build(
        cls,
        model: SigmoidalModel,
        draws: PosteriorDraws,
        dataset: Dataset,
        prior: GaussianPrior,
        config: RunConfig,
        variational_log_density: Callable[[np.ndarray], float] | None = None,
    ) -> "LooProblem":
        """Evaluate the posterior and, when ``variational_log_density`` (q) is
        given, q once per run.

        Passing q turns the variational correction on: the draws are taken
        to come from q, which must be finite at every draw.
        """
        with_grad = any(kind in ("KL", "Var") for kind in config.transform_order)
        evaluation = evaluate_posterior(model, draws.values, dataset, prior, with_grad=with_grad)
        if variational_log_density is None:
            log_proposal = evaluation.log_post
        else:
            log_proposal = np.array([float(variational_log_density(theta)) for theta in draws.values])
            bad = np.flatnonzero(~np.isfinite(log_proposal))
            if bad.size:
                raise DomainError(
                    f"variational log density is {log_proposal[bad[0]]} at draw {bad[0]}; it must be finite"
                )
        return cls(
            model=model, dataset=dataset, prior=prior, draws=draws, config=config,
            evaluation=evaluation, stats=marginal_stats(draws), log_proposal=log_proposal,
            log_prior=prior.log_density_batch(draws.values),
            mu_origin=model.mu_line(draws.values, dataset.features, evaluation.mu),
        )


def eta_weights(
    evaluation: PosteriorEvaluation, log_proposal: np.ndarray, i: int, log_jac_det: np.ndarray | float = 0.0
) -> WeightVector:
    """Leave-one-out weights of the draws phi_k = T(theta_k).

    log eta_k = log |det J_k| - log lik(phi_k | d_i)
                + [log post(phi_k) - log_proposal(theta_k)],
    read from ``evaluation``, the posterior at phi. The raw weights are the
    identity map: the evaluation at the draws and log |det J| = 0, where the
    bracket is exactly 0 for posterior draws. Any constant offset in the
    proposal density cancels under self-normalization. Draws with a
    non-finite contribution get weight zero.
    """
    log_eta = log_jac_det - evaluation.log_lik[:, i] + (evaluation.log_post - log_proposal)
    log_eta = np.where(np.isnan(log_eta), -np.inf, log_eta)
    return WeightVector.from_log_weights(log_eta)


def self_normalized_se(normalized_weights: np.ndarray, values: np.ndarray) -> float:
    """Delta-method standard error of a self-normalized IS estimate."""
    w = np.asarray(normalized_weights, dtype=float)
    f = np.asarray(values, dtype=float)
    estimate = float(w @ f)
    return float(math.sqrt(np.sum((w * (f - estimate)) ** 2)))


def _loo_quantities(weights: WeightVector, mu_at_phi: np.ndarray, y: int):
    """Predictive probability, log predictive density, and their MC errors."""
    w = weights.normalized
    probs = sigmoid(mu_at_phi)
    prob = float(w @ probs)
    prob_se = self_normalized_se(w, probs)
    log_lik = bernoulli_log_likelihood(mu_at_phi, y)
    # log sum_k w_k lik_k, computed in log space to dodge underflow.
    with np.errstate(divide="ignore"):
        log_w = np.where(w > 0, np.log(np.where(w > 0, w, 1.0)), -np.inf)
    log_terms = log_w + log_lik
    lpd = log_sum_exp(log_terms)
    # Delta method on the ratio scale: se(log E) = se(E) / E, with each draw's
    # share w_k lik_k / E <= 1 formed in log space so that w_k = 0 gives 0.
    lpd_se = float(math.sqrt(np.sum((np.exp(log_terms - lpd) - w) ** 2)))
    return prob, prob_se, lpd, lpd_se


def adapt_observation(i: int, problem: LooProblem) -> ObservationResult:
    """Run the adaptation loop for one observation.

    Raw weights are smoothed first; a sub-threshold k-hat short-circuits the
    grid entirely. Otherwise transforms are tried in configuration order,
    each over the step-scale grid from largest to smallest, stopping at the
    first success. On exhaustion the lowest-k-hat candidate (including the
    raw weights) supplies the reported LOO quantities.
    """
    config = problem.config
    evaluation = problem.evaluation
    threshold = config.khat_threshold
    raw_smoothed, raw_fit = pareto_smooth(eta_weights(evaluation, problem.log_proposal, i))
    raw_khat = raw_fit.khat

    attempts: list[AttemptRecord] = []
    # Candidates for "best attempt" always include the raw weights; when they
    # are under the threshold already, the scan has no attempts.
    best = (raw_khat, None, evaluation, raw_smoothed)  # (khat, attempt, evaluation at phi, weights)
    for line in () if raw_khat <= threshold else step_lines(i, problem, raw_smoothed):
        for hbar in config.hbar_values:
            transformed = apply_transform(line, hbar, problem)
            flags, fit = transformed.flags, None
            if not transformed.degenerate:
                try:
                    weights = eta_weights(transformed.evaluation, problem.log_proposal, i, transformed.log_jac_det)
                except DomainError:
                    flags += ("all-weights-zero",)
                else:
                    smoothed, fit = pareto_smooth(weights)
            # without a fit (degenerate map or all-zero weights) the attempt is
            # recorded with khat = inf and skipped, even under an infinite threshold
            khat = math.inf if fit is None else fit.khat
            record = AttemptRecord(
                kind=line.kind, hbar=hbar, khat=khat, fittable=fit is not None and fit.fittable,
                degenerate=fit is None, flags=flags, h_used=transformed.h_used, max_step_sd=transformed.max_step_sd,
            )
            attempts.append(record)
            if fit is None:
                continue
            # an attempt under the threshold wins even over a NaN raw k-hat
            if khat < best[0] or khat <= threshold:
                best = (khat, record, transformed.evaluation, smoothed)
            if khat <= threshold:
                break
        if best[0] <= threshold:
            break

    final_khat, winner, final_evaluation, final_weights = best
    y = int(problem.dataset.labels[i])
    prob, prob_se, lpd, lpd_se = _loo_quantities(final_weights, final_evaluation.mu[:, i], y)
    return ObservationResult(
        index=i,
        raw_khat=raw_khat,
        adapted=final_khat <= threshold,
        winning_transform=winner,
        final_khat=final_khat,
        final_weights=final_weights,
        loo_predictive_prob=prob,
        loo_log_predictive_density=lpd,
        loo_predictive_prob_se=prob_se,
        loo_log_predictive_density_se=lpd_se,
        attempts=tuple(attempts),
    )


def loo_ic(results: Sequence[ObservationResult]) -> float:
    """-2 times the summed log LOO predictive densities."""
    return -2.0 * sum(r.loo_log_predictive_density for r in results)


def loo_ic_se(results: Sequence[ObservationResult]) -> float:
    """MC standard error of the information criterion (independent folds)."""
    return 2.0 * math.sqrt(sum(r.loo_log_predictive_density_se**2 for r in results))


def run_loo(
    model: SigmoidalModel,
    draws: PosteriorDraws,
    dataset: Dataset,
    prior: GaussianPrior,
    config: RunConfig,
    workers: int = 1,
    variational_log_density: Callable[[np.ndarray], float] | None = None,
) -> LooReport:
    """Adapt every observation and assemble the aggregate report.

    Observations are independent; with ``workers > 1`` they are mapped over
    a thread pool against the shared read-only :class:`LooProblem`. Results
    are ordered by observation index regardless of completion order, so the
    report is deterministic for fixed inputs. Draws from a variational
    approximation are corrected by passing their log density as
    ``variational_log_density``.
    """
    problem = LooProblem.build(model, draws, dataset, prior, config, variational_log_density)

    def _one(i: int) -> ObservationResult:
        return adapt_observation(i, problem)

    indices = range(dataset.n)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = tuple(pool.map(_one, indices))
    else:
        results = tuple(_one(i) for i in indices)

    scores = np.array([r.loo_predictive_prob for r in results])
    labels = dataset.labels
    roc_pts: tuple = ()
    prc_pts: tuple = ()
    roc_area = None
    pr_area = None
    if len(np.unique(labels)) == 2:
        roc_pts = tuple(roc_curve(scores, labels))
        prc_pts = tuple(pr_curve(scores, labels))
        roc_area = auroc(roc_pts)
        pr_area = auprc(prc_pts)

    return LooReport(
        per_observation=results,
        loo_ic=loo_ic(results),
        loo_ic_se=loo_ic_se(results),
        n_failed=sum(1 for r in results if not r.adapted),
        roc_points=roc_pts,
        prc_points=prc_pts,
        auroc=roc_area,
        auprc=pr_area,
    )
