"""Per-observation adaptation loop and leave-one-out summaries.

For each observation the engine builds leave-one-out importance weights,
smooths their tail and reads off the shape diagnostic k-hat. When
the diagnostic exceeds the configured threshold it walks the configured
(transform kind x step scale) grid, recomputing transformed weights until
one attempt brings k-hat under the threshold or the grid is exhausted, in
which case the best attempt is kept and the observation is flagged as
unreliable. Raw and transformed weights come from one formula,
:func:`eta_weights`; the raw weights are its identity case. With too few
draws for a Pareto tail no attempt can be fitted, and the scan is skipped.
The per-observation loops are independent and can run on a thread pool;
results are always assembled in observation order.

The posterior is evaluated once per run, by one call that checks the inputs
and holds the model's origin line at the draws, which also gives every
derivative of mu at an observation; relu1 reads them all from its one W1 x
pass. Each (observation, kind) family of attempts lies on one line
theta + hbar * D, built once by
:func:`~looadapt.transforms.step_lines`. The lines of a flagged observation
share one :class:`~looadapt.transforms.Observation`, which computes the PMM
kinds' target moments, and grad_mu with what KL, Var and LL derive from it,
once. A step scale then costs O(S), for bounds on every draw's log weight
from the line's bound on the move of mu, plus O(n) per candidate row, a
draw whose log weight can reach the Pareto tail, for both models alike;
relu1 adds O(flips), where flips counts the pre-activations that change
sign on the line. A flagged relu1
observation pays one O(S d n) pass for its gradient kinds, shared by KL, Var
and LL, and a PMM line one of its own. Only the winner of an observation has
its weights completed to every draw, when they are first read; k-hat reads
the candidates alone and is the same bit for bit.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data import POSTERIOR_GRADIENT_KINDS, Dataset, MarginalStats, PosteriorDraws, RunConfig, marginal_stats
from .errors import DomainError
from .gpd import MIN_TAIL_SIZE, WeightVector, log_sum_exp, pareto_smooth, tail_size
from .metrics import auprc, auroc, pr_curve, roc_curve
from .models import GaussianPrior, PosteriorEvaluation, SigmoidalModel, evaluate_posterior, logistic
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

    ``evaluation`` holds the origin line (mu at the draws, read from the
    run's one copy of relu1's pre-activations), log likelihood, log prior and
    log posterior at the draws (with the gradient only when KL or Var is in
    the transform order); its origin and log prior are where every line
    starts. ``log_proposal`` is the per-draw log density the draws came
    from, up to a constant: the unnormalized log posterior for posterior
    draws, the variational log density q for variational ones. ``stats``
    holds the plain moments and the centred draws that every weighted-moment
    call and PMM2 step reads.
    """

    dataset: Dataset
    prior: GaussianPrior
    draws: PosteriorDraws
    config: RunConfig
    evaluation: PosteriorEvaluation
    stats: MarginalStats
    log_proposal: np.ndarray

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
        """Evaluate the posterior, which checks the dimensions and builds the origin line, and,
        when ``variational_log_density`` (q) is given, q once per run.

        Passing q turns the variational correction on: the draws are taken
        to come from q, which must be finite at every draw.
        """
        with_grad = any(kind in POSTERIOR_GRADIENT_KINDS for kind in config.transform_order)
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
            dataset=dataset, prior=prior, draws=draws, config=config,
            evaluation=evaluation, stats=marginal_stats(draws), log_proposal=log_proposal,
        )


def eta_weights(
    log_lik_i: np.ndarray, log_post: np.ndarray, log_proposal: np.ndarray, log_jac_det: np.ndarray | float = 0.0,
    complete_log_post: Callable[[], np.ndarray] | None = None,
) -> WeightVector:
    """Leave-one-out weights of the draws phi_k = T(theta_k), from three per-draw
    vectors at phi: the held-out log likelihood, the log posterior and log |det J|.

    log eta_k = log |det J_k| - log lik(phi_k | d_i) + [log post(phi_k) - log_proposal(theta_k)].
    The raw weights are the identity map: the run's columns at the draws and
    log |det J| = 0, where the bracket is exactly 0 for posterior draws. Any
    constant offset in the proposal density cancels under self-normalization.
    Draws with a non-finite contribution get weight zero.

    A scan attempt may give ``log_post`` only on its candidate rows, the draws
    whose log weight can reach the Pareto tail, and -inf elsewhere (see
    :func:`~looadapt.transforms.apply_transform`), with ``complete_log_post``
    to make it at every draw. Its weights are then these candidate log weights,
    all :func:`pareto_smooth` reads, and the whole log weights, made from
    ``complete_log_post`` on first read.
    """
    def log_eta(log_post):
        with np.errstate(invalid="ignore"):  # inf - inf where the held-out label has probability 0
            log_eta = log_jac_det - log_lik_i + (log_post - log_proposal)
        return np.where(np.isnan(log_eta), -np.inf, log_eta)

    weights = WeightVector.from_log_weights(log_eta(log_post))
    if complete_log_post is None:
        return weights
    return WeightVector(lambda: log_eta(complete_log_post()), weights.log_weights)


def self_normalized_se(normalized_weights: np.ndarray, values: np.ndarray) -> float:
    """Delta-method standard error of a self-normalized IS estimate."""
    w = np.asarray(normalized_weights, dtype=float)
    f = np.asarray(values, dtype=float)
    estimate = float(w @ f)
    return float(math.sqrt(np.sum((w * (f - estimate)) ** 2)))


def _loo_quantities(weights: WeightVector, mu: np.ndarray, log_lik: np.ndarray):
    """Predictive probability, log predictive density, and their MC errors,
    from mu and the held-out log likelihood at the weighted draws. Only the
    draws of nonzero log weight are read: a draw of weight zero may carry a
    NaN mu. The MC errors are inf when fewer than two draws carry weight: one
    draw cannot estimate them."""
    w = weights.normalized
    live = weights.log_weights > -np.inf
    probs = logistic(np.where(live, mu, 0.0))
    prob = float(w @ probs)
    # log sum_k w_k lik_k, computed in log space to dodge underflow.
    log_terms = np.where(live, (weights.log_weights - weights.log_total) + log_lik, -np.inf)
    lpd = log_sum_exp(log_terms)
    if np.count_nonzero(w) < 2:
        return prob, math.inf, lpd, math.inf
    prob_se = self_normalized_se(w, probs)
    # Delta method on the ratio scale: se(log E) = se(E) / E, with each draw's
    # share w_k lik_k / E <= 1 formed in log space so that w_k = 0 gives 0.
    lpd_se = float(math.sqrt(np.sum((np.exp(log_terms - lpd) - w) ** 2)))
    return prob, prob_se, lpd, lpd_se


def adapt_observation(i: int, problem: LooProblem) -> ObservationResult:
    """Run the adaptation loop for one observation.

    Raw weights are smoothed first; a sub-threshold k-hat, or too few draws
    for the Pareto tail rule to reach ``MIN_TAIL_SIZE``, short-circuits the
    grid entirely. Otherwise transforms are tried in configuration order,
    each over the step-scale grid from largest to smallest, stopping at the
    first success. On exhaustion the lowest-k-hat candidate (including the
    raw weights) supplies the reported LOO quantities.
    """
    config = problem.config
    evaluation = problem.evaluation
    threshold = config.khat_threshold
    mu_i, log_lik_i = evaluation.origin.mu[:, i], evaluation.log_lik[:, i]
    raw_smoothed, raw_fit = pareto_smooth(eta_weights(log_lik_i, evaluation.log_post, problem.log_proposal))
    raw_khat = raw_fit.khat

    attempts: list[AttemptRecord] = []
    # Candidates for "best attempt" always include the raw weights; when they
    # are under the threshold already, or no attempt could be fitted, the
    # scan has no attempts.
    scan = raw_khat > threshold and tail_size(problem.draws.num_draws) >= MIN_TAIL_SIZE
    # (khat, attempt, held-out mu and log likelihood at phi, weights)
    best = (raw_khat, None, mu_i, log_lik_i, raw_smoothed)
    # (line, hbar) in scan order; each kind's line is built when the scan reaches it
    grid = ((line, hbar) for line in step_lines(i, problem, raw_smoothed) for hbar in config.hbar_values)
    for line, hbar in grid if scan else ():
        transformed = apply_transform(line, hbar, problem)
        flags, fit = transformed.flags, None
        if not transformed.degenerate:
            try:
                weights = eta_weights(
                    transformed.log_lik_i, transformed.candidate_log_post, problem.log_proposal,
                    transformed.log_jac_det, complete_log_post=transformed.complete_log_post,
                )
            except DomainError:
                flags += ("all-weights-zero",)
            else:
                smoothed, fit = pareto_smooth(weights)
        # without a fit (degenerate map or all-zero weights) the attempt is
        # recorded with khat = inf and skipped
        khat = math.inf if fit is None else fit.khat
        record = AttemptRecord(
            kind=line.kind, hbar=hbar, khat=khat, fittable=fit is not None and fit.fittable,
            degenerate=fit is None, flags=flags, h_used=transformed.h_used, max_step_sd=transformed.max_step_sd,
        )
        attempts.append(record)
        if fit is not None and khat < best[0]:
            best = (khat, record, transformed.mu_i, transformed.log_lik_i, smoothed)
        if fit is not None and khat <= threshold:
            break

    final_khat, winner, mu_i, log_lik_i, final_weights = best
    prob, prob_se, lpd, lpd_se = _loo_quantities(final_weights, mu_i, log_lik_i)
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
    a thread pool against the shared read-only :class:`LooProblem`, and with
    1 they run in the calling thread; fewer than 1 is a DomainError. Results
    are ordered by observation index regardless of completion order, so the
    report is deterministic for fixed inputs. Draws from a variational
    approximation are corrected by passing their log density as
    ``variational_log_density``.
    """
    if workers < 1:
        raise DomainError(f"workers must be at least 1, got {workers}")
    problem = LooProblem.build(model, draws, dataset, prior, config, variational_log_density)
    indices = range(dataset.n)
    if workers == 1:
        # A pool thread allocates from a fresh glibc malloc arena instead of
        # reusing what loading the inputs freed: one pool thread raised the
        # logit-scan benchmark's peak RSS from 58.7-59.4 to 62.7-63.9 MB
        # (seeds 61 and 62; Linux, 2 vCPUs).
        results = tuple(adapt_observation(i, problem) for i in indices)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = tuple(pool.map(lambda i: adapt_observation(i, problem), indices))

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
