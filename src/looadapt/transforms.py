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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .data import (
    Dataset,
    GRADIENT_KINDS,
    MarginalStats,
    PMM_KINDS,
    PosteriorDraws,
    TRANSFORM_KINDS,
    marginal_stats,
)
from .errors import DomainError
from .gpd import WeightVector
from .models import LogisticModel, ReluOneModel, SigmoidalModel, sigmoid, sigmoid_slope

if TYPE_CHECKING:
    from .engine import LooProblem

#: A determinant factor smaller than this in magnitude is treated as an
#: exact zero: the map is flagged non-invertible for that draw.
SINGULAR_EPS = 1e-300


@dataclass(frozen=True)
class TransformSpec:
    """One (kind, step scale, observation) cell of the adaptation grid."""

    kind: str
    hbar: float
    observation_index: int

    def __post_init__(self):
        if self.kind not in TRANSFORM_KINDS:
            raise DomainError(f"unknown transform kind {self.kind!r}")
        if not self.hbar > 0:
            raise DomainError("hbar must be positive")
        if self.observation_index < 0:
            raise DomainError("observation index must be non-negative")


@dataclass(frozen=True)
class TransformedDraws:
    """Transformed draw matrix with per-draw log |Jacobian determinant|.

    ``log_jac_det`` entries are finite except for draws where the map is
    numerically singular, which carry -inf (their transformed weight is
    zero). ``degenerate`` marks a transform that collapsed to the identity
    (zero step or unavailable scaling); callers should treat it as a failed
    attempt.
    """

    phi: np.ndarray
    log_jac_det: np.ndarray
    h_used: float
    degenerate: bool = False
    flags: tuple[str, ...] = ()
    max_step_sd: float = 0.0


def _identity_transform(values: np.ndarray, flags: tuple[str, ...]) -> TransformedDraws:
    return TransformedDraws(
        phi=values.copy(),
        log_jac_det=np.zeros(values.shape[0]),
        h_used=0.0,
        degenerate=True,
        flags=flags,
    )


# ---------------------------------------------------------------------------
# Gradient-step directions
# ---------------------------------------------------------------------------

def gradient_direction(
    kind: str,
    model: SigmoidalModel,
    values: np.ndarray,
    dataset: Dataset,
    i: int,
    mu_col: np.ndarray,
    log_post: np.ndarray,
    log_ref,
):
    """Factor the Q rows of a batch of draws as exp(scale_k) * direction_k.

    ``mu_col`` and ``log_post`` are mu at observation i and the unnormalized
    log posterior per draw; ``log_ref`` anchors the posterior-density factor
    (the largest log posterior over the draw set in the engine). The sign of
    Q lives in the direction. LL ignores ``log_post`` and ``log_ref``.
    """
    x = dataset.features[i]
    y = int(dataset.labels[i])
    grad = model.grad_mu_batch(values, x)
    if kind == "LL":
        scale = np.zeros(values.shape[0])
        direction = (sigmoid(mu_col) - y)[:, None] * grad
    else:
        expo = 1.0 if kind == "KL" else 2.0
        scale = (log_post - log_ref) + expo * mu_col * (1.0 - 2.0 * y)
        direction = ((-1.0) ** y) * grad
    return scale, direction


def log_step_size(scale: np.ndarray, direction: np.ndarray, sd: np.ndarray, hbar: float) -> float:
    """log h for h = hbar * min over draws and components of |sd_alpha / Q_alpha|.

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
    if smallest == np.inf:
        return -np.inf
    return math.log(hbar) + smallest


# ---------------------------------------------------------------------------
# Exact log-determinants
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


def _alpha_uvec(kind, model, values, dataset, i, mu_col, log_h, scale, grad_log_post):
    x = dataset.features[i]
    y = int(dataset.labels[i])
    grad = model.grad_mu_batch(values, x)
    if kind == "LL":
        h = math.exp(log_h)
        alpha = h * (sigmoid(mu_col) - y)
        uvec = h * sigmoid_slope(mu_col)[:, None] * grad
    else:
        expo = 1.0 if kind == "KL" else 2.0
        g = expo * (1.0 - 2.0 * y)
        c = ((-1.0) ** y) * np.exp(log_h + scale)
        alpha = c
        uvec = c[:, None] * (grad_log_post + g * grad)
    return alpha, uvec, grad


def _logdet_logistic_batch(alpha, uvec, grad):
    # hessian(mu) = 0: pure rank-one update.
    det = 1.0 + np.einsum("sp,sp->s", grad, uvec)
    flags = []
    logdet = np.where(np.abs(det) < SINGULAR_EPS, -np.inf, np.log(np.maximum(np.abs(det), SINGULAR_EPS)))
    if np.any(np.abs(det) < SINGULAR_EPS):
        flags.append("singular-jacobian")
    return logdet, tuple(flags)


def _logdet_relu1_batch(model: ReluOneModel, values, x, alpha, uvec, grad):
    """Rank-one determinant update in the Hessian eigenbasis.

    Works entirely with per-unit projections: no P x P matrix is formed.
    Inactive units carry eigenvalue 0 and drop out of every correction term.
    """
    d, p = model.d, model.p
    s = values.shape[0]
    w1 = values[:, : d * p].reshape(s, d, p)
    z1 = np.einsum("sdp,p->sd", w1, x)
    mask = (z1 > 0).astype(float)
    xnorm = float(np.linalg.norm(x))
    unorm = mask * xnorm  # |u_k| per (draw, unit)

    def _proj(w):
        # v_{k,+-}^T w = (u_k . w1-block_k) / (sqrt(2) |u_k|) +- w2_k / sqrt(2)
        w1blk = w[:, : d * p].reshape(s, d, p)
        wk = w[:, d * p : d * p + d]
        dot = np.einsum("sdp,p->sd", w1blk, x) * mask
        denom = np.where(unorm > 0, unorm, 1.0)
        a = np.where(unorm > 0, dot / (math.sqrt(2.0) * denom), 0.0)
        b = wk / math.sqrt(2.0)
        return a + b, a - b

    fplus = 1.0 + alpha[:, None] * unorm
    fminus = 1.0 - alpha[:, None] * unorm

    gp, gm = _proj(grad)
    up, um = _proj(uvec)
    # grad_mu^T A^{-1} uvec; components outside the eigenbasis pass through.
    with np.errstate(divide="ignore"):
        corr = ((1.0 / fplus - 1.0) * gp * up + (1.0 / fminus - 1.0) * gm * um) * mask
    base = np.einsum("sp,sp->s", grad, uvec)
    rank_one = 1.0 + base + corr.sum(axis=1)

    eig_factors = np.abs(fplus * fminus)  # per unit |1 - alpha^2 |u|^2|
    singular = (eig_factors < SINGULAR_EPS).any(axis=1) | (np.abs(rank_one) < SINGULAR_EPS)
    with np.errstate(divide="ignore"):
        logdet = np.log(np.maximum(eig_factors, SINGULAR_EPS)).sum(axis=1) + np.log(
            np.maximum(np.abs(rank_one), SINGULAR_EPS)
        )
    logdet = np.where(singular, -np.inf, logdet)
    flags = ("singular-jacobian",) if singular.any() else ()
    return logdet, flags


def gradient_logdet(kind, model, values, dataset, i, mu_col, log_h, scale, grad_log_post):
    """Exact per-draw log |det J| of the step theta + exp(log_h + scale) * direction.

    ``scale`` comes from :func:`gradient_direction` and ``log_h`` from
    :func:`log_step_size`, so step and determinant describe the same map;
    ``grad_log_post`` (KL/Var only) is the per-draw gradient of the log
    posterior. Closed forms exist for the two built-in model families only:
    any other model is a ``DomainError``. Returns ``(logdet, flags)``.
    """
    if kind not in GRADIENT_KINDS:
        raise DomainError(f"exact determinants are defined for {GRADIENT_KINDS}, got {kind!r}")
    if not isinstance(model, (LogisticModel, ReluOneModel)):
        raise DomainError(f"no exact Jacobian determinant for {type(model).__name__}")
    alpha, uvec, grad = _alpha_uvec(kind, model, values, dataset, i, mu_col, log_h, scale, grad_log_post)
    if isinstance(model, ReluOneModel):
        return _logdet_relu1_batch(model, values, dataset.features[i], alpha, uvec, grad)
    return _logdet_logistic_batch(alpha, uvec, grad)


# ---------------------------------------------------------------------------
# Whole-draw-set application
# ---------------------------------------------------------------------------

def apply_gradient_transform(spec: TransformSpec, problem: LooProblem) -> TransformedDraws:
    """Apply one KL/Var/LL step to every draw with its step-size rule.

    The per-draw log-determinant is exact. A zero step (all-zero Q or a zero
    posterior sd in a moving component) returns the identity with
    ``degenerate=True``.
    """
    if spec.kind not in GRADIENT_KINDS:
        raise DomainError(f"apply_gradient_transform handles {GRADIENT_KINDS}, got {spec.kind!r}")
    model, dataset, evaluation = problem.model, problem.dataset, problem.evaluation
    if spec.kind != "LL" and evaluation.grad_log_post is None:
        raise DomainError(f"{spec.kind} needs the posterior gradient, which this problem was built without")
    values = problem.draws.values
    stats = problem.stats
    i = spec.observation_index
    mu_col = evaluation.mu[:, i]
    scale, direction = gradient_direction(
        spec.kind, model, values, dataset, i, mu_col, evaluation.log_post, evaluation.log_ref
    )
    log_h = log_step_size(scale, direction, stats.sd, spec.hbar)
    if log_h == -np.inf:
        return _identity_transform(values, flags=("zero-step",))

    step = np.exp(log_h + scale)[:, None] * direction
    logdet, flags = gradient_logdet(
        spec.kind, model, values, dataset, i, mu_col, log_h, scale, evaluation.grad_log_post
    )
    return TransformedDraws(
        phi=values + step,
        log_jac_det=logdet,
        h_used=float(np.exp(log_h)),
        degenerate=False,
        flags=flags,
        max_step_sd=_shift_in_sd_units(step, stats.sd),
    )


def apply_pmm(
    spec: TransformSpec,
    draws: PosteriorDraws,
    nu_weights: WeightVector,
    stats: MarginalStats,
) -> TransformedDraws:
    """Apply a damped moment-matching map to every draw.

    PMM1 translates by hbar times the gap between weighted and plain means
    (log-determinant exactly 0). PMM2 additionally rescales each centered
    component by the weighted/plain sd ratio; a zero plain variance in any
    component makes the rescaling unavailable and the transform is skipped.
    """
    if spec.kind not in PMM_KINDS:
        raise DomainError(f"apply_pmm handles {PMM_KINDS}, got {spec.kind!r}")
    values = draws.values
    hbar = spec.hbar
    wstats = marginal_stats(draws, nu_weights.normalized)
    s = draws.num_draws

    if spec.kind == "PMM1":
        shift = hbar * (wstats.weighted_mean - stats.mean)
        return TransformedDraws(
            phi=values + shift,
            log_jac_det=np.zeros(s),
            h_used=hbar,
            degenerate=False,
            flags=(),
            max_step_sd=_shift_in_sd_units(shift, stats.sd),
        )

    if np.any(stats.variance == 0):
        return _identity_transform(values, flags=("pmm2-unavailable",))
    ratio = np.sqrt(wstats.weighted_variance / stats.variance)
    coef = 1.0 + hbar * (ratio - 1.0)
    if np.any(np.abs(coef) < SINGULAR_EPS):
        return _identity_transform(values, flags=("pmm2-singular",))
    step = hbar * (ratio * (values - stats.mean) + wstats.weighted_mean - values)
    phi = values + step
    logdet = float(np.log(np.abs(coef)).sum())
    return TransformedDraws(
        phi=phi,
        log_jac_det=np.full(s, logdet),
        h_used=hbar,
        degenerate=False,
        flags=(),
        max_step_sd=_shift_in_sd_units(step, stats.sd),
    )


def _shift_in_sd_units(step: np.ndarray, sd: np.ndarray) -> float:
    with np.errstate(invalid="ignore", divide="ignore"):
        scaled = np.abs(step) / np.where(sd > 0, sd, np.inf)
    return float(scaled.max()) if scaled.size else 0.0


def apply_transform(spec: TransformSpec, problem: LooProblem, nu_weights: WeightVector) -> TransformedDraws:
    """Dispatch on the transform kind; PMM kinds move toward the moments of
    the smoothed raw weights ``nu_weights``."""
    if spec.kind in PMM_KINDS:
        return apply_pmm(spec, problem.draws, nu_weights, problem.stats)
    return apply_gradient_transform(spec, problem)
