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


@dataclass(frozen=True)
class WeightVector:
    """Un-normalized log weights together with their normalized counterpart."""

    log_weights: np.ndarray
    normalized: np.ndarray

    @classmethod
    def from_log_weights(cls, log_weights) -> "WeightVector":
        lw = np.array(log_weights, dtype=float)
        if lw.ndim != 1 or lw.size < 1:
            raise DomainError("log weights must be a non-empty 1-d vector")
        if np.any(np.isnan(lw)) or np.any(lw == np.inf):
            raise DomainError("log weights must be < +inf and not NaN")
        total = log_sum_exp(lw)
        if total == -np.inf:
            raise DomainError("all weights are zero")
        lw.flags.writeable = False
        normalized = np.exp(lw - total)
        normalized.flags.writeable = False
        return cls(log_weights=lw, normalized=normalized)


def fit_gpd_tail(sorted_tail_excesses) -> GpdFit:
    """Profile-posterior point estimate of the GPD shape and scale.

    Expects excesses over the tail cutoff, sorted ascending and strictly
    positive. Fewer than ``MIN_TAIL_SIZE`` values, or a tail with no
    spread, yields an unfittable result instead of an estimate.
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
    theta = 1.0 / x[-1] + (1.0 - np.sqrt(m / (np.arange(1.0, m + 1) - 0.5))) / (3.0 * quartile)
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
    shifted by the cutoff and capped at the raw maximum. Weights whose tail
    cannot be fitted come back unchanged with ``fittable=False``.
    """
    lw = weights.log_weights - weights.log_weights.max()
    s = lw.size
    m_rule = tail_size(s)
    if m_rule < MIN_TAIL_SIZE or m_rule >= s:
        return weights, GpdFit.unfittable(m_rule)

    order = np.argsort(lw, kind="stable")
    log_cutoff = lw[order[s - m_rule - 1]]
    tail_idx = np.flatnonzero(lw > log_cutoff)
    if tail_idx.size < MIN_TAIL_SIZE:
        return weights, GpdFit.unfittable(tail_idx.size)

    cutoff = math.exp(log_cutoff)
    tail_lw = lw[tail_idx]
    excesses = np.sort(np.exp(tail_lw) - cutoff)
    if excesses[0] <= 0:  # tail weights underflow to the cutoff: no spread to fit
        return weights, GpdFit.unfittable(tail_idx.size)
    fit = fit_gpd_tail(excesses)
    if not fit.fittable:
        return weights, fit

    m_t = tail_idx.size
    ranks = (np.arange(m_t) + 0.5) / m_t
    smoothed = np.log(gpd_quantile(ranks, fit.khat, fit.sigma) + cutoff)
    smoothed = np.minimum(smoothed, 0.0)  # never exceed the raw maximum

    new_lw = lw.copy()
    new_lw[tail_idx[np.argsort(tail_lw, kind="stable")]] = smoothed
    return WeightVector.from_log_weights(new_lw), fit
