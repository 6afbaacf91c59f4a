"""Draw transformations T(theta) = theta + h Q(theta) and their Jacobians.

Five transformation families are provided. PMM1/PMM2 are damped affine maps
toward the importance-weighted mean (and variance) of the draws. KL and Var
take one explicit-Euler step along the descent direction of, respectively,
the cross-entropy against the leave-one-out target and the variance of the
importance-sampling estimator; LL steps down the single-observation
log-likelihood. For sigmoidal models the gradient-step directions share the
form

    Q(theta) = (-1)^y * post(theta) * exp(c * mu * (1 - 2y)) * grad_mu,

with c = 1 (KL), c = 2 (Var), where ``post`` is the unnormalized posterior
density rescaled by its maximum over the draw set. The rescaling is
harmless: the step-size rule below makes the chosen step invariant to any
constant rescaling of Q.

Internally every Q row is factored as sign * exp(scale) * direction so that
the posterior-density factor never overflows; the same h and scale feed the
determinant formulas, ensuring step and Jacobian describe the same map.

For one observation and kind every step scale moves the draws along one
line, phi = theta + hbar * D. A :class:`StepLine` holds D and everything
else that does not depend on hbar; :func:`apply_transform` evaluates one
step scale of it without forming phi.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .data import (
    Dataset,
    GRADIENT_KINDS,
    MarginalStats,
    PMM_KINDS,
    marginal_stats,
)
from .errors import DomainError
from .gpd import WeightVector
from .models import (
    LinearMuLine,
    PosteriorEvaluation,
    ReluMuLine,
    SigmoidalModel,
    bernoulli_log_likelihood,
    sigmoid,
    sigmoid_slope,
)

if TYPE_CHECKING:
    from .engine import LooProblem

#: A determinant factor smaller than this in magnitude is treated as an
#: exact zero: the map is flagged non-invertible for that draw.
SINGULAR_EPS = 1e-300

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class TransformedDraws:
    """One attempt: the posterior at the transformed draws and per-draw log |det J|.

    ``evaluation`` holds mu, log likelihood and log posterior at the
    transformed draws phi (without the gradient); phi itself is never formed.
    ``log_jac_det`` entries are finite except for draws where the map is
    numerically singular, which carry -inf (their transformed weight is
    zero). A transform that collapsed to the identity (zero step or
    unavailable scaling) is a failed attempt: its ``evaluation`` and
    ``log_jac_det`` are None and its ``flags`` say why.
    """

    evaluation: PosteriorEvaluation | None
    log_jac_det: np.ndarray | None
    h_used: float
    flags: tuple[str, ...] = ()
    max_step_sd: float = 0.0

    @property
    def degenerate(self) -> bool:
        return self.evaluation is None


@dataclass(frozen=True)
class StepLine:
    """Every attempt of one (observation, kind) family: phi = theta + hbar * step.

    For one observation and kind the map's direction is fixed, so each
    attempt on the step-scale grid is a point on one line. The line is built
    once, by :func:`apply_pmm` or :func:`apply_gradient_transform`, with
    everything that does not depend on hbar; :func:`apply_transform` then
    evaluates one step scale. ``step`` is D, the hbar = 1 step, shaped (P,)
    or (S, P); it is None for a family that is the identity at every step
    scale, whose ``flags`` say why. ``mu`` is the model's image of the line
    and the log prior along it is log_prior - hbar * (``prior_slope`` +
    hbar / 2 * ``prior_curvature``). ``jacobian`` is the diagonal of
    dD/dtheta for PMM kinds and the :class:`GradientStep` for gradient kinds,
    whose step size at hbar = 1 is exp(``log_h``).
    """

    kind: str
    observation_index: int
    step: np.ndarray | None
    mu: LinearMuLine | ReluMuLine | None = None
    prior_slope: np.ndarray | float = 0.0
    prior_curvature: np.ndarray | float = 0.0
    jacobian: np.ndarray | GradientStep | None = None
    log_h: float = 0.0
    max_step_sd: float = 0.0
    flags: tuple[str, ...] = ()


def log_step_size(scale: np.ndarray, direction: np.ndarray, sd: np.ndarray) -> float:
    """log h for h = min over draws and components of |sd_alpha / Q_alpha|.

    Works on the factored Q = exp(scale) * direction, so huge density
    factors never overflow. Components with Q = 0 are excluded; an all-zero
    Q, or a zero posterior sd in a moving component, gives -inf (h = 0).
    """
    absd = np.abs(direction)
    with np.errstate(divide="ignore"):
        log_sd = np.log(sd)
        log_absd = np.log(absd, out=np.zeros_like(absd), where=absd > 0)
    cand = log_sd[None, :] - scale[:, None] - log_absd
    cand[absd == 0] = np.inf
    smallest = float(cand.min())
    return -np.inf if smallest == np.inf else smallest


# ---------------------------------------------------------------------------
# Gradient steps and their exact log-determinants
# ---------------------------------------------------------------------------
#
# For every gradient kind the transformation Jacobian has the shape
#     J = I + alpha * hessian(mu) + uvec * grad_mu^T
# with per-draw scalars alpha and vectors uvec:
#     KL/Var: alpha = c,  uvec = c * (grad log posterior + g * grad_mu),
#             c = (-1)^y h post exp((1+1_Var) mu (1-2y)),  g = (1+1_Var)(1-2y)
#     LL:     alpha = h (sigma - y),  uvec = h sigma(1-sigma) grad_mu
# so |det J| = prod_j (1 + alpha lambda_j) * (1 + grad_mu^T A^{-1} uvec)
# with A = I + alpha * hessian(mu), diagonal in the Hessian eigenbasis.
# Writing e = exp(log h + scale), alpha = e * factor (the factor of Q) and
# uvec = e * uvec_factor * v with v free of h, every projection of grad_mu
# and v is computed once per (observation, kind); a step scale then costs
# O(S) scalars (no Hessian) or O(S K) (K eigenvalue pairs).


@dataclass(frozen=True)
class GradientStep:
    """Q = exp(scale) * factor * grad per draw, and the h-independent factors
    of the exact log |det J| of theta + h Q.

    ``grad`` is grad_mu at the observation; the sign of Q lives in
    ``factor``. ``base`` is grad_mu . v per draw and ``eigen`` is the
    model's :meth:`~looadapt.models.SigmoidalModel.hessian_eigenbasis` seen
    through grad_mu and v, or None where the Hessian of mu vanishes.
    """

    scale: np.ndarray
    factor: np.ndarray
    grad: np.ndarray
    uvec_factor: np.ndarray | float
    base: np.ndarray
    eigen: tuple[np.ndarray, np.ndarray, np.ndarray] | None

    def logdet(self, log_h: float):
        """Per-draw log |det J| at step size exp(log_h), and its flags."""
        e = np.exp(log_h + self.scale)
        c = e * self.uvec_factor
        rank_one = 1.0 + c * self.base
        if self.eigen is None:
            singular = np.abs(rank_one) < SINGULAR_EPS
            logdet = np.log(np.maximum(np.abs(rank_one), SINGULAR_EPS))
        else:
            lam, plus, minus = self.eigen
            alpha = (e * self.factor)[:, None]
            fplus = 1.0 + alpha * lam
            fminus = 1.0 - alpha * lam
            # grad_mu^T A^{-1} uvec; components outside the eigenbasis pass through.
            with np.errstate(divide="ignore", invalid="ignore"):
                corr = (1.0 / fplus - 1.0) * plus + (1.0 / fminus - 1.0) * minus
            rank_one = rank_one + c * corr.sum(axis=1)
            eig_factors = np.abs(fplus * fminus)  # per pair |1 - alpha^2 lam^2|
            singular = (eig_factors < SINGULAR_EPS).any(axis=1) | (np.abs(rank_one) < SINGULAR_EPS)
            logdet = np.log(np.maximum(eig_factors, SINGULAR_EPS)).sum(axis=1) + np.log(
                np.maximum(np.abs(rank_one), SINGULAR_EPS)
            )
        logdet = np.where(singular, -np.inf, logdet)
        return logdet, ("singular-jacobian",) if singular.any() else ()


def gradient_step(
    kind: str,
    model: SigmoidalModel,
    values: np.ndarray,
    dataset: Dataset,
    i: int,
    evaluation: PosteriorEvaluation,
    log_ref,
) -> GradientStep:
    """The Q rows of a batch of draws for observation i and their determinant factors.

    ``evaluation`` is the posterior at ``values``: mu and, for KL/Var, the
    log posterior and its gradient. ``log_ref`` anchors the posterior-density
    factor of KL/Var (the largest log posterior over the draw set in the
    engine); LL ignores it. The step size h is left to
    :func:`log_step_size` and :meth:`GradientStep.logdet`.
    """
    if kind not in GRADIENT_KINDS:
        raise DomainError(f"gradient steps are defined for {GRADIENT_KINDS}, got {kind!r}")
    if kind != "LL" and evaluation.grad_log_post is None:
        raise DomainError(f"{kind} needs the posterior gradient, which this problem was built without")
    x = dataset.features[i]
    y = int(dataset.labels[i])
    mu_col = evaluation.mu[:, i]
    grad = model.grad_mu_batch(values, x)
    if kind == "LL":
        scale = np.zeros(values.shape[0])
        factor = sigmoid(mu_col) - y
        uvec_factor = 1.0
        v = sigmoid_slope(mu_col)[:, None] * grad
    else:
        expo = 1.0 if kind == "KL" else 2.0
        scale = (evaluation.log_post - log_ref) + expo * mu_col * (1.0 - 2.0 * y)
        factor = uvec_factor = np.full(values.shape[0], (-1.0) ** y)
        v = evaluation.grad_log_post + expo * (1.0 - 2.0 * y) * grad
    base = np.einsum("sp,sp->s", grad, v)
    return GradientStep(scale, factor, grad, uvec_factor, base, model.hessian_eigenbasis(grad, x, grad, v))


# ---------------------------------------------------------------------------
# Step lines: one per (observation, kind), evaluated per step scale
# ---------------------------------------------------------------------------

def _shift_in_sd_units(step: np.ndarray, sd: np.ndarray) -> float:
    with np.errstate(invalid="ignore", divide="ignore"):
        scaled = np.abs(step) / np.where(sd > 0, sd, np.inf)
    return float(scaled.max()) if scaled.size else 0.0


def _line(kind, i, problem: LooProblem, step, mu_line, jacobian, log_h=0.0) -> StepLine:
    slope, curvature = problem.prior.line_coefficients(problem.draws.values, step)
    return StepLine(
        kind=kind, observation_index=i, step=step, mu=mu_line, prior_slope=slope, prior_curvature=curvature,
        jacobian=jacobian, log_h=log_h, max_step_sd=_shift_in_sd_units(step, problem.stats.sd),
    )


def apply_gradient_transform(kind: str, i: int, problem: LooProblem) -> StepLine:
    """The line of KL/Var/LL steps for observation i under the step-size rule.

    D is the hbar = 1 step; hbar scales the step size h, so every attempt
    is theta + hbar * D with an exact per-draw log-determinant. A zero step
    (all-zero Q or a zero posterior sd in a moving component) makes every
    attempt the identity with the ``zero-step`` flag.
    """
    evaluation = problem.evaluation
    grad_step = gradient_step(
        kind, problem.model, problem.draws.values, problem.dataset, i, evaluation, evaluation.log_ref
    )
    log_h = log_step_size(grad_step.scale, grad_step.factor[:, None] * grad_step.grad, problem.stats.sd)
    if log_h == -np.inf:
        return StepLine(kind=kind, observation_index=i, step=None, flags=("zero-step",))
    coef = np.exp(log_h + grad_step.scale) * grad_step.factor
    mu_line = problem.mu_origin.along_gradient(grad_step.grad, problem.dataset.features[i], coef)
    return _line(kind, i, problem, coef[:, None] * grad_step.grad, mu_line, grad_step, log_h)


def apply_pmm(kind: str, i: int, problem: LooProblem, weighted: MarginalStats) -> StepLine:
    """The line of damped moment-matching maps toward ``weighted``'s moments.

    PMM1 translates by hbar times the gap between weighted and plain means
    (log-determinant exactly 0). PMM2 additionally rescales each centered
    component by the weighted/plain sd ratio; a zero plain variance in any
    component makes the rescaling unavailable and every attempt the
    identity with the ``pmm2-unavailable`` flag.
    """
    if kind not in PMM_KINDS:
        raise DomainError(f"apply_pmm handles {PMM_KINDS}, got {kind!r}")
    values = problem.draws.values
    stats = problem.stats
    if kind == "PMM1":
        step = weighted.weighted_mean - stats.mean
        diagonal = np.zeros(values.shape[1])
    else:
        if np.any(stats.variance == 0):
            return StepLine(kind=kind, observation_index=i, step=None, flags=("pmm2-unavailable",))
        ratio = np.sqrt(weighted.weighted_variance / stats.variance)
        step = ratio * (values - stats.mean) + weighted.weighted_mean - values
        diagonal = ratio - 1.0
    return _line(kind, i, problem, step, problem.mu_origin.along(step), diagonal)


def step_lines(i: int, problem: LooProblem, nu_weights: WeightVector):
    """Yield the line of each configured kind for observation i, in order.

    PMM kinds move toward the moments of the smoothed raw weights
    ``nu_weights``, computed once, when the first PMM line is needed.
    """
    weighted = None
    for kind in problem.config.transform_order:
        if kind in PMM_KINDS:
            if weighted is None:
                weighted = marginal_stats(problem.draws, nu_weights.normalized)
            yield apply_pmm(kind, i, problem, weighted)
        else:
            yield apply_gradient_transform(kind, i, problem)


def apply_transform(line: StepLine, hbar: float, problem: LooProblem) -> TransformedDraws:
    """Evaluate step scale ``hbar`` of ``line``: phi = theta + hbar * D.

    Costs O(S n) for the logistic model and O(S n d) for relu1, plus O(P)
    (PMM) or O(S) / O(S d) (gradient kinds) for the determinant.
    """
    if line.step is None:
        return TransformedDraws(evaluation=None, log_jac_det=None, h_used=0.0, flags=line.flags)
    if line.kind in PMM_KINDS:
        coef = 1.0 + hbar * line.jacobian
        if np.any(np.abs(coef) < SINGULAR_EPS):
            return TransformedDraws(evaluation=None, log_jac_det=None, h_used=0.0, flags=("pmm2-singular",))
        h_used, flags = hbar, ()
        log_jac_det = np.full(problem.draws.num_draws, float(np.log(np.abs(coef)).sum()))
    else:
        log_h = math.log(hbar) + line.log_h
        # the step is bounded by the posterior sd; only its size can overflow
        h_used = math.exp(log_h) if log_h <= _LOG_FLOAT_MAX else math.inf
        log_jac_det, flags = line.jacobian.logdet(log_h)
    mu = line.mu.at(hbar)
    log_lik = bernoulli_log_likelihood(mu, problem.dataset.labels[None, :])
    log_prior = problem.log_prior - hbar * (line.prior_slope + 0.5 * hbar * line.prior_curvature)
    return TransformedDraws(
        evaluation=PosteriorEvaluation(
            mu=mu, log_lik=log_lik, log_post=log_prior + log_lik.sum(axis=1), grad_log_post=None
        ),
        log_jac_det=log_jac_det,
        h_used=h_used,
        flags=flags,
        max_step_sd=hbar * line.max_step_sd,
    )
