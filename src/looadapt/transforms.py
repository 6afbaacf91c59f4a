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
:func:`gradient_step` builds that factorisation for one kind from the
:class:`Observation` its lines share, applies the step-size rule and holds
the step size h with the map: a :class:`GradientStep` is T at hbar = 1.

For one observation and kind every step scale moves the draws along one
line, phi = theta + hbar * D. A :class:`StepLine` holds the model's image of
D and everything else that does not depend on hbar; :func:`apply_transform`
evaluates one step scale of it without forming phi. The lines of one
observation share an :class:`Observation`, which computes what they have in
common once.

A step scale bounds every draw's log weight in O(S) from the bound its
line gives on the move of mu (:func:`log_weight_bounds`), for every model
alike, and evaluates the log posterior at phi only on the
:func:`candidate_rows`, the draws that can be among the M + 1 largest, all
that k-hat reads. The whole log posterior is made when it is first read.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from .data import GRADIENT_KINDS, MarginalStats, PMM_KINDS, POSTERIOR_GRADIENT_KINDS, marginal_stats
from .errors import DomainError
from .gpd import WeightVector, computed_once, tail_size
from .models import log_likelihood, log_posterior, logistic, sigmoid_slope

if TYPE_CHECKING:
    from .engine import LooProblem
    from .models import LinearMuLine, ReluLine

#: A determinant factor smaller than this in magnitude is treated as an
#: exact zero: the map is flagged non-invertible for that draw.
SINGULAR_EPS = 1e-300

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass
class TransformedDraws:
    """One attempt: what its weights read at the transformed draws phi.

    ``candidate_log_post`` is the log posterior at phi on the attempt's
    candidate rows, the draws whose log weight can be among the M + 1 largest
    (see :func:`log_weight_bounds`), and -inf elsewhere; ``mu_i`` and
    ``log_lik_i`` are mu and the log likelihood of the line's held-out
    observation there, and ``log_jac_det`` is log |det J|, at every draw. Each
    is an (S,) array that owns its data, so no (S, n) array evaluated at phi
    outlives :func:`apply_transform`. ``complete_log_post`` makes the log
    posterior at every draw, which the attempt's weights call on first read
    (see :func:`~looadapt.engine.eta_weights`).
    ``log_jac_det`` entries are finite except for draws where the map is
    numerically singular, which carry -inf (their transformed weight is
    zero). A transform that collapsed to the identity (zero step or
    unavailable scaling), or whose log posterior at phi is NaN at some draw
    (an overflowing line), is a failed attempt: its vectors are None and its
    ``flags`` say why.
    """

    candidate_log_post: np.ndarray | None = None
    mu_i: np.ndarray | None = None
    log_lik_i: np.ndarray | None = None
    log_jac_det: np.ndarray | None = None
    h_used: float = 0.0
    flags: tuple[str, ...] = ()
    max_step_sd: float = 0.0
    complete_log_post: Callable[[], np.ndarray] | None = field(default=None, repr=False)

    @property
    def degenerate(self) -> bool:
        return self.candidate_log_post is None


@dataclass(frozen=True)
class StepLine:
    """Every attempt of one (observation, kind) family: phi = theta + hbar * step.

    For one observation and kind the map's direction is fixed, so each
    attempt on the step-scale grid is a point on one line. The line is built
    once, by :func:`apply_pmm` or :func:`apply_gradient_transform`, with
    everything that does not depend on hbar; :func:`apply_transform` then
    evaluates one step scale. ``mu`` is the model's image of the line, which
    gives mu at phi on any rows, the held-out column, and the bound on its
    move that :func:`log_weight_bounds` reads; it is None for a family that is
    the identity at every step scale, whose ``flags`` say why. The log prior
    along the line is log_prior - hbar * (``prior_slope`` + hbar / 2 *
    ``prior_curvature``). ``jacobian`` is the diagonal of dD/dtheta for PMM
    kinds and the :class:`GradientStep` for gradient kinds, which holds the
    step size at hbar = 1.
    """

    kind: str
    observation_index: int
    mu: LinearMuLine | ReluLine | None = None
    prior_slope: np.ndarray | float = 0.0
    prior_curvature: np.ndarray | float = 0.0
    jacobian: np.ndarray | GradientStep | None = None
    max_step_sd: float = 0.0
    flags: tuple[str, ...] = ()


def row_max_in_sd_units(grad: np.ndarray, sd: np.ndarray) -> np.ndarray:
    """r_s = max over components of |grad_sp| / sd_p, per draw.

    Components where grad is 0 are excluded, also where sd is 0; a moving
    component with zero sd gives r_s = inf. When every draw shares one row
    of ``grad`` (a broadcast view, row stride 0), r is computed from it once.
    """
    shared = grad.strides[0] == 0
    with np.errstate(divide="ignore"):
        inv_sd = 1.0 / sd
    scaled = np.abs(grad[:1] if shared else grad)
    with np.errstate(invalid="ignore"):  # 0 * inf: a resting component with zero sd
        scaled *= inv_sd
    r = np.fmax.reduce(scaled, axis=1, initial=0.0)  # fmax skips those NaNs
    return np.repeat(r, len(grad)) if shared else r


def log_step_size(scale: np.ndarray, factor: np.ndarray, r: np.ndarray) -> float:
    """log h for h = min over draws and components of |sd_p / Q_sp|.

    Works on the factored Q_s = exp(scale_s) * factor_s * grad_s, with
    ``r`` = :func:`row_max_in_sd_units` of grad, so huge density factors
    never overflow: log h = -max_s [scale_s + log|factor_s| + log r_s].
    Draws with Q = 0 (factor 0, scale -inf or r 0) are excluded; an all-zero
    Q, or a zero posterior sd in a moving component (r = inf), gives -inf
    (h = 0).
    """
    moving = (factor != 0) & (scale > -np.inf) & (r > 0)
    if not moving.any():
        return -np.inf
    largest = float(np.max(scale[moving] + np.log(np.abs(factor[moving])) + np.log(r[moving])))
    return -largest


# ---------------------------------------------------------------------------
# Gradient steps and their exact log-determinants
# ---------------------------------------------------------------------------
#
# For every gradient kind the transformation Jacobian has the shape
#     J = I + alpha * hessian(mu) + uvec * grad_mu^T
# with per-draw alpha = e * factor (the factor of Q), e = exp(log h + scale),
# and uvec = e * u, where u = expo * grad_mu + sign * grad log posterior for
# KL/Var (expo = 1 + 1_Var, sign = (-1)^y) and u = sigma (1 - sigma) grad_mu
# for LL. So |det J| = det A * (1 + grad_mu^T A^{-1} uvec), A = I + alpha * hessian(mu).
# Per draw the Hessian's nonzero eigenvalues are +-lam, each count times, so with P+-
# the projectors onto their eigenspaces det A = (1 - alpha^2 lam^2)^count and
# A^{-1} = I + (1 / (1 + alpha lam) - 1) P+ + (1 / (1 - alpha lam) - 1) P-.
# Each kind's factors follow from two products an observation shares, grad_mu . w and
# grad_mu^T P+- w for w = grad_mu and (KL and Var only) grad log posterior: O(S).


@dataclass(frozen=True)
class GradientStep:
    """theta + h Q with Q = exp(scale) * factor * grad_mu per draw: the step size
    h, the step h Q, and the h-independent factors of its exact log |det J|.

    grad_mu is the :class:`Observation`'s ``grad``; the sign of Q lives in
    ``factor``. ``log_h`` is the step-size rule's log h and ``coef`` the
    per-draw coefficient with h Q = coef * grad_mu; a zero step has log h =
    -inf and coef None. Per draw (S,), or one number for all: ``base`` =
    grad_mu . u, uvec = e * u (see above), the Hessian's eigenvalues +-``lam``,
    each ``count`` times, and ``plus``, ``minus`` = grad_mu^T P+- u.
    """

    scale: np.ndarray
    factor: np.ndarray
    base: np.ndarray
    lam: np.ndarray | float
    count: np.ndarray | int
    plus: np.ndarray | float
    minus: np.ndarray | float
    log_h: float
    coef: np.ndarray | None

    def logdet(self, log_h: float):
        """Per-draw log |det J| at step size exp(log_h), and its flags: singular-jacobian, -inf, where the pair
        factor 1 - alpha^2 lam^2 (1 where count = lam = 0) or the rank-one factor is below ``SINGULAR_EPS`` in
        magnitude, or where an overflowing factor makes log |det J| NaN."""
        e = np.exp(log_h + self.scale)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            alpha_lam = (e * self.factor) * self.lam
            fplus, fminus = 1.0 + alpha_lam, 1.0 - alpha_lam
            pair = np.abs(fplus * fminus)  # |1 - alpha^2 lam^2|
            # grad_mu^T A^{-1} u; components outside the eigenspaces pass through.
            rank_one = 1.0 + e * (self.base + (1.0 / fplus - 1.0) * self.plus + (1.0 / fminus - 1.0) * self.minus)
            logdet = self.count * np.log(np.maximum(pair, SINGULAR_EPS))
            logdet += np.log(np.maximum(np.abs(rank_one), SINGULAR_EPS))
        singular = (pair < SINGULAR_EPS) | (np.abs(rank_one) < SINGULAR_EPS) | np.isnan(logdet)
        return np.where(singular, -np.inf, logdet), ("singular-jacobian",) if singular.any() else ()


def gradient_step(kind: str, obs: Observation) -> GradientStep:
    """The Q rows of every draw for ``obs`` under ``kind``, their step size and determinant factors.

    Everything is read from ``obs``: the run's posterior evaluation (mu and,
    for KL/Var, the log posterior), the label, its two shared products
    (KL/Var read both, LL only grad_mu's) and ``r``. The posterior-density
    factor of KL/Var is anchored at the evaluation's ``log_ref``, the largest
    log posterior over the draws. h is :func:`log_step_size`'s rule.
    """
    if kind not in GRADIENT_KINDS:
        raise DomainError(f"gradient steps are defined for {GRADIENT_KINDS}, got {kind!r}")
    evaluation = obs.problem.evaluation
    if kind in POSTERIOR_GRADIENT_KINDS and evaluation.grad_log_post is None:
        raise DomainError(f"{kind} needs the posterior gradient, which this problem was built without")
    mu_col = evaluation.origin.mu[:, obs.i]
    square, (lam, count, g_plus, g_minus) = obs.grad_products
    if kind == "LL":
        scale = np.zeros(mu_col.size)
        factor = logistic(mu_col) - obs.y
        slope = sigmoid_slope(mu_col)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is carried into logdet, which flags a NaN
            base, plus, minus = slope * square, slope * g_plus, slope * g_minus
    else:
        expo = 1.0 if kind == "KL" else 2.0
        scale = (evaluation.log_post - evaluation.log_ref) + expo * obs.sign * mu_col
        factor = np.full(mu_col.size, obs.sign)
        dot, (_, _, p_plus, p_minus) = obs.log_post_products
        with np.errstate(over="ignore", invalid="ignore"):
            base = expo * square + obs.sign * dot
            plus, minus = expo * g_plus + obs.sign * p_plus, expo * g_minus + obs.sign * p_minus
    log_h = log_step_size(scale, factor, obs.r)
    coef = None if log_h == -np.inf else np.exp(log_h + scale) * factor
    return GradientStep(scale, factor, base, lam, count, plus, minus, log_h, coef)


# ---------------------------------------------------------------------------
# Step lines: one per (observation, kind), evaluated per step scale
# ---------------------------------------------------------------------------

class Observation:
    """Observation i of a run, and what its step lines share.

    The PMM kinds move toward the moments of ``nu_weights``, the smoothed
    raw weights at i. KL, Var and LL step along D_s = coef_s * grad_s, grad
    = grad_mu at i, and differ only in coef (see :func:`gradient_step`); every
    nonzero coef_s has the label sign ``sign`` = (-1)^y. Each attribute below
    the constructor is computed once, on first read, inside the first line
    that needs it.
    """

    def __init__(self, i: int, problem: LooProblem, nu_weights: WeightVector):
        self.i = i
        self.problem = problem
        self.nu_weights = nu_weights
        self.y = int(problem.dataset.labels[i])
        self.sign = -1.0 if self.y else 1.0  # (-1)^y

    @computed_once
    def weighted(self) -> MarginalStats:
        """The plain moments with the ``nu_weights``-weighted ones, the PMM kinds' target."""
        return marginal_stats(self.problem.draws, self.nu_weights.normalized, self.problem.stats)

    @computed_once
    def grad(self) -> np.ndarray:
        return self.problem.evaluation.origin.grad_mu(self.i)

    @computed_once
    def r(self) -> np.ndarray:
        """:func:`row_max_in_sd_units` of grad."""
        return row_max_in_sd_units(self.grad, self.problem.stats.sd)

    @computed_once
    def prior_dots(self):
        """(theta . grad / sd^2, |grad / sd|^2) per draw: coef times the first and
        coef^2 times the second are the prior's slope and curvature on a line."""
        return self.problem.prior.line_coefficients(self.problem.draws.values, self.grad)

    def _products(self, w):
        """(grad . w per draw, the Hessian projection between grad and w at i)."""
        origin = self.problem.evaluation.origin
        return np.einsum("sp,sp->s", self.grad, w), origin.hessian_projection(self.i, self.grad, w)

    @computed_once
    def grad_products(self):
        """:meth:`_products` of grad: |grad|^2 and grad's projection with itself."""
        return self._products(self.grad)

    @computed_once
    def log_post_products(self):
        """:meth:`_products` of the posterior gradient; only KL and Var read it."""
        return self._products(self.problem.evaluation.grad_log_post)

    @computed_once
    def gradient_steps(self) -> dict:
        """Each configured gradient kind's :class:`GradientStep`, made together
        when the first gradient line is built."""
        kinds = self.problem.config.transform_order
        return {kind: gradient_step(kind, self) for kind in kinds if kind in GRADIENT_KINDS}

    @computed_once
    def mu_fan(self):
        """mu along every gradient line of this observation, read once some kind
        has a nonzero step. Every nonzero coef_s has the sign ``sign``, so the
        fan's bound, sign times the largest |coef_s| over the kinds, holds each line."""
        reach = np.max([np.abs(step.coef) for step in self.gradient_steps.values() if step.coef is not None], axis=0)
        evaluation = self.problem.evaluation
        return evaluation.origin.gradient_fan(self.i, self.sign * reach, evaluation.resid)


def apply_gradient_transform(kind: str, obs: Observation) -> StepLine:
    """The line of KL/Var/LL steps for ``obs`` along ``obs.grad`` = grad_mu there, under the step-size rule.

    D is the hbar = 1 step; hbar scales the step size h, so every attempt
    is theta + hbar * D with an exact per-draw log-determinant. A zero step
    (all-zero Q or a zero posterior sd in a moving component) makes every
    attempt the identity with the ``zero-step`` flag. The largest shift,
    max_s |coef_s| r_s, is 1 up to rounding by the step-size rule. ``kind``
    must be one of the run's configured gradient kinds.
    """
    if kind not in obs.gradient_steps:
        raise DomainError(f"{kind!r} is not a gradient kind of this run's transform_order")
    step = obs.gradient_steps[kind]
    if step.coef is None:
        return StepLine(kind=kind, observation_index=obs.i, flags=("zero-step",))
    coef, r = step.coef, obs.r
    moving = coef != 0  # a resting draw may sit next to r = inf
    max_step_sd = float(np.max(np.abs(coef[moving]) * r[moving], initial=0.0))
    dot, square = obs.prior_dots
    return StepLine(
        kind=kind, observation_index=obs.i, mu=obs.mu_fan.line(coef), prior_slope=coef * dot,
        prior_curvature=coef * coef * square, jacobian=step, max_step_sd=max_step_sd,
    )


def apply_pmm(kind: str, obs: Observation) -> StepLine:
    """The line of damped moment-matching maps for ``obs`` toward ``obs.weighted``'s moments.

    PMM1 translates by hbar times the gap delta between weighted and plain
    means (log-determinant exactly 0). PMM2 additionally rescales each
    centered component by the weighted/plain sd ratio: D = (ratio - 1) *
    centered + delta, from the per-run centred draws. A plain variance that
    is zero or not finite (overflowed) in any component makes the rescaling
    unavailable and every attempt the identity with the ``pmm2-unavailable`` flag.
    """
    if kind not in PMM_KINDS:
        raise DomainError(f"apply_pmm handles {PMM_KINDS}, got {kind!r}")
    problem, i, weighted = obs.problem, obs.i, obs.weighted
    stats = problem.stats
    delta = weighted.weighted_mean - stats.mean
    if kind == "PMM1":
        step, diagonal, extent = delta, np.zeros(delta.size), np.abs(delta)
    else:
        if not np.all(np.isfinite(stats.variance) & (stats.variance > 0)):
            return StepLine(kind=kind, observation_index=i, flags=("pmm2-unavailable",))
        diagonal = np.sqrt(weighted.weighted_variance / stats.variance) - 1.0
        step = stats.centered * diagonal
        step += delta
        extent = np.maximum(step.max(axis=0), -step.min(axis=0))  # max_s |D_sp|, no |D| temporary
    max_step_sd = float(np.max(extent / np.where(stats.sd > 0, stats.sd, np.inf)))
    slope, curvature = problem.prior.line_coefficients(problem.draws.values, step)
    return StepLine(
        kind=kind, observation_index=i, mu=problem.evaluation.origin.along(step, problem.evaluation.resid),
        prior_slope=slope, prior_curvature=curvature, jacobian=diagonal, max_step_sd=max_step_sd,
    )


def step_lines(i: int, problem: LooProblem, nu_weights: WeightVector):
    """Yield the line of each configured kind for observation i, in order,
    all sharing one :class:`Observation` with the smoothed raw weights ``nu_weights``."""
    obs = Observation(i, problem, nu_weights)
    for kind in problem.config.transform_order:
        yield (apply_pmm if kind in PMM_KINDS else apply_gradient_transform)(kind, obs)


def log_weight_bounds(line: StepLine, hbar: float, problem: LooProblem, exact: np.ndarray, log_prior: np.ndarray):
    """(lower, upper), per draw, bounds on the log weight of step scale ``hbar`` of ``line``, in O(S).

    ``exact`` is log |det J| - log lik_i at phi, and ``log_prior`` the log prior at phi. With
    m = (2y - 1) mu the margins at the draws and dmu the line's move of mu at phi, l = log sigma is
    concave with -1/4 <= l'' < 0 and resid = (2y - 1) l'(m), so

        U - 1/8 sum_n dmu^2  <=  sum_n l(m + (2y - 1) dmu)  <=  U = sum_n l(m) + sum_n resid dmu,

    from the run's ``log_lik_sum`` and the tangent and curvature of the line's
    :class:`~looadapt.models.MoveBound`. Each bound is then added into a log weight as
    :func:`~looadapt.engine.eta_weights` adds the log posterior, in the same order, from the same
    log |det J| - log lik_i. Rounding is monotone, so these final additions keep the order of the
    sums they start from and need no allowance.

    The sum at phi is evaluated in floating point; the bounds widen by an allowance, 4 eps (n + 16)
    times a size per draw,

        |sum_n l(m)| + sum_n |mu| + size + |tangent| + curvature / 8 + n,

    with the move's size >= sum_n |dmu|. With u = eps / 2, and numpy's exp and log1p within 4 ulp,
    it covers, by a factor of at least 4:
      - the rounding of mu at phi and of the move's tangent and curvature, which the line's size
        covers, times |l'| <= 1;
      - the exp and log1p kernels and the subtraction in log sigma, u |l| + 12 u per element, at
        phi and at the draws;
      - the pairwise row sums at phi and at the draws, n u times the sum of |l|;
      - resid's absolute error, about 11 u, also where sigma is near 1 and resid is 1 - sigma,
        times sum_n |dmu|;
      - the additions that form U and the bounds.

    A draw whose size is not finite, or whose ``upper`` is NaN or +inf, is unbounded: it gets
    (-inf, +inf), so it is always a candidate. A finite (n + 16) * size for draw s needs every mu
    on row s and, through the move's size, every term of the line's evaluation there finite, and
    it keeps sum_n |mu at phi| below the largest float over n, so neither mu at phi on row s nor
    its row sum of log sigma overflows. The log posterior at phi is then NaN on row s only where
    the log prior along the line is NaN or +inf, which makes ``upper`` NaN or +inf too. So a NaN
    log posterior at phi can only occur at an unbounded draw, which is a candidate, and
    ``nan-log-posterior`` is decided exactly as when every row is evaluated. A bounded draw whose
    ``exact`` part is -inf, a singular Jacobian, has both bounds -inf: its weight is known to be zero.
    """
    evaluation, n = problem.evaluation, problem.dataset.n
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow or NaN leaves its draw unbounded
        move = line.mu.move_bound(hbar)
        bend = move.curvature / 8.0
        size = np.abs(evaluation.log_lik_sum) + evaluation.mu_size + move.size + np.abs(move.tangent)
        size = (n + 16.0) * (size + bend + n)
        allowance = 4.0 * np.finfo(float).eps * size
        tangent = evaluation.log_lik_sum + move.tangent
        upper = exact + ((log_prior + (tangent + allowance)) - problem.log_proposal)
        lower = exact + ((log_prior + (tangent - bend - allowance)) - problem.log_proposal)
    unbounded = ~(np.isfinite(size) & (upper < np.inf))  # NaN or +inf
    lower[unbounded], upper[unbounded] = -np.inf, np.inf
    return lower, upper


def candidate_rows(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """The draws, in index order, whose upper bound reaches the (M + 1)-th largest lower bound,
    M = :func:`~looadapt.gpd.tail_size`. There are at least M + 1 of them, among them every draw
    without finite bounds, and every other draw's log weight is below M + 1 others: the candidates
    hold the M + 1 largest log weights."""
    s = lower.size
    kth = max(s - tail_size(s) - 1, 0)
    return np.flatnonzero(upper >= np.partition(lower, kth)[kth])


def apply_transform(line: StepLine, hbar: float, problem: LooProblem) -> TransformedDraws:
    """Evaluate step scale ``hbar`` of ``line``, phi = theta + hbar * D, and
    return the per-draw vectors its weights read there.

    mu and the log likelihood of the held-out observation come first, as one
    column at every draw, and with them :func:`log_weight_bounds` bounds each
    draw's log weight in O(S) from the line's bound on its move. mu and the
    log posterior at phi are then evaluated on the :func:`candidate_rows`
    only, those that the Pareto tail can read, in O(n) each; the whole log
    posterior is made when it is first read, which the scan does only for the
    winner of an observation. A draw without finite bounds is a candidate.
    relu1 adds O(flips), where flips counts the pre-activations that change
    sign on the line (see :class:`~looadapt.models.ReluFan`), and the
    determinant O(P) (PMM) or O(S) (gradient kinds).
    """
    if line.mu is None:
        return TransformedDraws(flags=line.flags)
    if line.kind in PMM_KINDS:
        coef = 1.0 + hbar * line.jacobian
        if np.any(np.abs(coef) < SINGULAR_EPS):
            return TransformedDraws(flags=("pmm2-singular",))
        h_used, flags = hbar, ()
        log_jac_det = np.full(problem.draws.num_draws, float(np.log(np.abs(coef)).sum()))
    else:
        log_h = math.log(hbar) + line.jacobian.log_h
        # the step is bounded by the posterior sd; only its size can overflow
        h_used = math.exp(log_h) if log_h <= _LOG_FLOAT_MAX else math.inf
        log_jac_det, flags = line.jacobian.logdet(log_h)
    log_prior = problem.evaluation.log_prior - hbar * (line.prior_slope + 0.5 * hbar * line.prior_curvature)
    max_step_sd = hbar * line.max_step_sd
    i, labels = line.observation_index, problem.dataset.labels
    # a line that overflows gives NaN on a draw without finite bounds, a candidate, caught below
    with np.errstate(over="ignore", invalid="ignore"):
        mu_i = line.mu.column(hbar, i)
        log_lik_i = log_likelihood(mu_i, labels[i])
        rows = candidate_rows(*log_weight_bounds(line, hbar, problem, log_jac_det - log_lik_i, log_prior))
        log_post = log_posterior(line.mu.at(hbar, rows), labels, log_prior[rows])[1]
    if np.isnan(log_post).any():
        return TransformedDraws(h_used=h_used, flags=flags + ("nan-log-posterior",), max_step_sd=max_step_sd)
    candidate_log_post = np.full(problem.draws.num_draws, -np.inf)
    candidate_log_post[rows] = log_post

    def complete_log_post():  # the rows left out have finite bounds: nothing there overflows (see log_weight_bounds)
        return log_posterior(line.mu.at(hbar), labels, log_prior)[1]

    return TransformedDraws(
        candidate_log_post=candidate_log_post, mu_i=mu_i, log_lik_i=log_lik_i, log_jac_det=log_jac_det,
        h_used=h_used, flags=flags, max_step_sd=max_step_sd, complete_log_post=complete_log_post,
    )
