"""Generalized-Pareto tail diagnostics and importance-weight stabilization.

The tail of a vector of importance weights is fitted with a generalized
Pareto distribution (GPD); its shape estimate k-hat is the reliability
diagnostic, and the fitted quantiles replace the raw tail weights
("Pareto smoothing"). All weight arithmetic is carried out on the log
scale: raw 1/likelihood weights overflow in linear space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

#: Minimum number of tail samples for which a GPD fit is attempted.
MIN_TAIL_SIZE = 5

#: Number of quadrature nodes over the transformed shape parameter in the
#: profile-posterior point estimate.
QUADRATURE_NODES = 30


@dataclass(frozen=True)
class GpdFit:
    """Fitted tail: shape ``khat``, scale ``sigma``, and the tail size used.

    A tail that cannot be fitted (too short, or zero spread) is reported
    with ``fittable=False`` and ``khat=inf`` so that threshold checks treat
    it as a failed adaptation.
    """

    khat: float
    sigma: float
    tail_size: int
    fittable: bool

    @classmethod
    def unfittable(cls, tail_size: int) -> "GpdFit":
        return cls(khat=math.inf, sigma=math.nan, tail_size=tail_size, fittable=False)


def log_sum_exp(values) -> float:
    """log(sum(exp(values))) of a 1-d vector, shifted by its largest entry so
    that nothing overflows; -inf when every entry is -inf."""
    top = float(np.max(values))
    if top == -math.inf:
        return top
    return top + math.log(np.sum(np.exp(values - top)))


class computed_once:
    """An attribute computed on first read and then stored on the instance.

    functools.cached_property before Python 3.12 holds one lock per attribute
    across all instances while it computes, which would make the engine's
    worker threads wait on each other. Used here and by
    :class:`~looadapt.transforms.Observation`.
    """

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


class WeightVector:
    """Un-normalized log weights and, computed on first read, their log sum
    and the normalized weights exp(log_weights - log_total).

    :meth:`from_log_weights` builds one from an array. :func:`pareto_smooth`
    builds its result, and a scan attempt its weights, from a function that
    makes the log weights on first read; the function is dropped once it has
    run. ``candidate_log_weights`` are all :func:`pareto_smooth` reads: they
    equal the log weights at every draw that can be among the M + 1 largest
    (M = :func:`tail_size`), and are -inf at every other draw, whose log
    weight is below all of those. Without them given they are the log weights.
    """

    def __init__(self, make_log_weights: Callable[[], np.ndarray], candidate_log_weights: np.ndarray | None = None):
        self._make_log_weights = make_log_weights
        self._candidates = candidate_log_weights

    @classmethod
    def from_log_weights(cls, log_weights) -> "WeightVector":
        lw = np.array(log_weights, dtype=float)
        if lw.ndim != 1 or lw.size < 1:
            raise DomainError("log weights must be a non-empty 1-d vector")
        if np.any(np.isnan(lw)) or np.any(lw == np.inf):
            raise DomainError("log weights must be < +inf and not NaN")
        if lw.max() == -np.inf:
            raise DomainError("all weights are zero")
        lw.flags.writeable = False
        return cls(lambda: lw, lw)

    @property
    def candidate_log_weights(self) -> np.ndarray:
        return self.log_weights if self._candidates is None else self._candidates

    @computed_once
    def log_weights(self) -> np.ndarray:
        make, self._make_log_weights = self._make_log_weights, None
        return make()

    @computed_once
    def log_total(self) -> float:
        return log_sum_exp(self.log_weights)

    @computed_once
    def normalized(self) -> np.ndarray:
        # Most weight vectors only reach pareto_smooth, which reads log_weights.
        normalized = np.exp(self.log_weights - self.log_total)
        normalized.flags.writeable = False
        return normalized


def fit_gpd_tail(sorted_tail_excesses) -> GpdFit:
    """Profile-posterior point estimate of the GPD shape and scale.

    Expects excesses over the tail cutoff, sorted ascending and strictly
    positive. Fewer than ``MIN_TAIL_SIZE`` values, a tail with no spread, or
    one whose spread overflows the quadrature nodes yields an unfittable
    result instead of an estimate.
    """
    x = np.asarray(sorted_tail_excesses, dtype=float)
    if x.ndim != 1:
        raise DomainError("tail excesses must be a 1-d vector")
    n = x.size
    if n >= 1 and (np.any(x <= 0) or not np.all(np.isfinite(x))):
        raise DomainError("tail excesses must be finite and > 0")
    if n >= 2 and np.any(np.diff(x) < 0):
        raise DomainError("tail excesses must be sorted ascending")
    if n < MIN_TAIL_SIZE or x[-1] <= x[0]:
        return GpdFit.unfittable(n)

    m = QUADRATURE_NODES
    quartile = x[int(n / 4 + 0.5) - 1]
    with np.errstate(over="ignore"):
        theta = 1.0 / x[-1] + (1.0 - np.sqrt(m / (np.arange(1.0, m + 1) - 0.5))) / (3.0 * quartile)
    if not np.all(np.isfinite(theta)):  # a quartile near the smallest float overflows the nodes
        return GpdFit.unfittable(n)
    # Degenerate quadrature nodes at exactly zero would hit a 0/0 below.
    theta[theta == 0.0] = 1e-12 / x[-1]

    # Per-node shape estimate and profile log-likelihood.
    k_node = np.mean(np.log1p(-theta[:, None] * x[None, :]), axis=1)
    log_lik = n * (np.log(-theta / k_node) - k_node - 1.0)

    # Posterior-mean node weighting, then the final shape/scale pair.
    weights = np.exp(log_lik - log_lik.max())
    weights /= weights.sum()
    theta_hat = float(weights @ theta)
    khat = float(np.mean(np.log1p(-theta_hat * x)))
    sigma = -khat / theta_hat if theta_hat != 0.0 else float(np.mean(x))
    return GpdFit(khat=khat, sigma=float(sigma), tail_size=n, fittable=True)


def gpd_quantile(p, khat: float, sigma: float):
    """Inverse CDF of the GPD: sigma * expm1(-k * log1p(-p)) / k."""
    p = np.asarray(p, dtype=float)
    if abs(khat) < 10 * np.finfo(float).eps:
        return -sigma * np.log1p(-p)
    # a large k-hat overflows to inf here; pareto_smooth caps it at the raw maximum
    with np.errstate(over="ignore"):
        return sigma * np.expm1(-khat * np.log1p(-p)) / khat


def tail_size(num_weights: int) -> int:
    """Number of weights treated as the tail (the PSIS rule): ceil(min(S/5, 3*sqrt(S)))."""
    return int(math.ceil(min(0.2 * num_weights, 3.0 * math.sqrt(num_weights))))


def pareto_smooth(weights: WeightVector) -> tuple[WeightVector, GpdFit]:
    """Replace the largest weights with fitted GPD order statistics.

    The M largest weights (strictly above the cutoff order statistic) are
    replaced by GPD inverse-CDF values at rank midpoints (m - 0.5) / M,
    shifted by the cutoff and capped at the raw maximum. The fit needs only
    the tail: the cutoff comes from a partial sort, and the smoothed weights
    are made on first read, from the whole log weights. The cutoff, the tail
    and the fit read only the candidate log weights (see :class:`WeightVector`),
    which hold the M + 1 largest log weights, so they are those of the whole
    vector bit for bit. Weights whose tail cannot be fitted come back
    unchanged with ``fittable=False``.
    """
    top = weights.candidate_log_weights.max()
    lw = weights.candidate_log_weights - top
    s = lw.size
    m_rule = tail_size(s)
    if m_rule < MIN_TAIL_SIZE or m_rule >= s:
        return weights, GpdFit.unfittable(m_rule)

    log_cutoff = np.partition(lw, s - m_rule - 1)[s - m_rule - 1]
    tail = np.flatnonzero(lw > log_cutoff)  # all among the M largest; ties with the cutoff stay out
    if tail.size < MIN_TAIL_SIZE:
        return weights, GpdFit.unfittable(tail.size)

    cutoff = math.exp(log_cutoff)
    excesses = np.sort(np.exp(lw[tail]) - cutoff)
    if excesses[0] <= 0:  # tail weights underflow to the cutoff: no spread to fit
        return weights, GpdFit.unfittable(tail.size)
    fit = fit_gpd_tail(excesses)
    if not fit.fittable:
        return weights, fit

    def smoothed_log_weights() -> np.ndarray:
        ranks = (np.arange(tail.size) + 0.5) / tail.size
        smoothed = np.log(gpd_quantile(ranks, fit.khat, fit.sigma) + cutoff)
        new_lw = weights.log_weights - top  # the candidates' maximum and tail are the whole vector's
        # ascending by weight, ties in index order
        new_lw[tail[np.argsort(lw[tail], kind="stable")]] = np.minimum(smoothed, 0.0)  # never above the raw maximum
        return WeightVector.from_log_weights(new_lw).log_weights

    return WeightVector(smoothed_log_weights), fit
