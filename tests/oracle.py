"""Exact reference machinery for desk-scale verification.

Tiny models (at most three parameters) admit tensor-product grid
quadrature: the posterior is tabulated on a uniform grid, leave-one-out
expectations are computed by reweighting the grid by the inverse
likelihood, and derivative formulas are validated against central finite
differences. Transparent and reproducible by construction; never used in
the production path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import logsumexp

from looadapt.data import Dataset
from looadapt.errors import DimensionError, DomainError
from looadapt.models import GaussianPrior, SigmoidalModel, bernoulli_log_likelihood

MAX_GRID_DIM = 3
MIN_NODES_PER_DIM = 41


@dataclass(frozen=True)
class GridPosterior:
    """Unnormalized log posterior tabulated on a uniform tensor grid."""

    nodes: np.ndarray           # (N, P) grid points
    log_unnorm: np.ndarray      # (N,) log prior + log likelihood at each node
    log_cell_volume: float
    log_norm_const: float       # logsumexp(log_unnorm) + log cell volume

    @property
    def probabilities(self) -> np.ndarray:
        """Normalized node masses (they sum to one)."""
        return np.exp(self.log_unnorm - logsumexp(self.log_unnorm))


def build_grid_posterior(
    model: SigmoidalModel,
    dataset: Dataset,
    prior: GaussianPrior,
    bounds: Sequence[tuple[float, float]],
    nodes_per_dim: int,
) -> GridPosterior:
    """Tabulate the posterior on a uniform tensor-product grid.

    Refused for more than three parameters (cost guard) or fewer than 41
    nodes per dimension; bounds must span at least six prior sds per
    component so the discretization captures essentially all mass.
    """
    p = model.param_dim
    if p > MAX_GRID_DIM:
        raise DomainError(f"grid oracle supports at most {MAX_GRID_DIM} parameters, got {p}")
    if len(bounds) != p:
        raise DimensionError(f"expected {p} bound pairs, got {len(bounds)}")
    if nodes_per_dim < MIN_NODES_PER_DIM:
        raise DomainError(f"need at least {MIN_NODES_PER_DIM} nodes per dimension")
    axes = []
    log_vol = 0.0
    for alpha, (lo, hi) in enumerate(bounds):
        if not hi > lo:
            raise DomainError(f"bounds for component {alpha} are empty")
        if hi - lo < 6.0 * prior.sd[alpha]:
            raise DomainError(f"bounds for component {alpha} must cover at least 6 prior sds")
        axis = np.linspace(lo, hi, nodes_per_dim)
        axes.append(axis)
        log_vol += math.log(axis[1] - axis[0])
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=1)

    mu = model.mu_batch(nodes, dataset.features)
    log_lik = bernoulli_log_likelihood(mu, dataset.labels[None, :]).sum(axis=1)
    log_unnorm = prior.log_density_batch(nodes) + log_lik
    log_norm = float(logsumexp(log_unnorm) + log_vol)
    return GridPosterior(
        nodes=nodes, log_unnorm=log_unnorm, log_cell_volume=log_vol, log_norm_const=log_norm
    )


def loo_probabilities(grid: GridPosterior, model: SigmoidalModel, dataset: Dataset, i: int) -> np.ndarray:
    """Node masses of the leave-one-out posterior: full posterior / lik_i."""
    mu_i = model.mu_batch(grid.nodes, dataset.features[i][None, :])[:, 0]
    log_w = grid.log_unnorm - bernoulli_log_likelihood(mu_i, dataset.labels[i])
    return np.exp(log_w - logsumexp(log_w))


def exact_loo_expectation(
    grid: GridPosterior,
    model: SigmoidalModel,
    dataset: Dataset,
    i: int,
    f: Callable[[np.ndarray], np.ndarray],
) -> float:
    """Expectation of f(theta) under the grid leave-one-out posterior.

    ``f`` receives the full (N, P) node matrix and must return N values.
    """
    w = loo_probabilities(grid, model, dataset, i)
    return float(w @ np.asarray(f(grid.nodes), dtype=float))


def sample_grid_posterior(grid: GridPosterior, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw node-atom samples from the discrete grid posterior."""
    idx = rng.choice(grid.nodes.shape[0], size=size, p=grid.probabilities)
    return grid.nodes[idx]


def finite_difference_gradient(f: Callable[[np.ndarray], float], theta, step=1e-5) -> np.ndarray:
    """Central-difference gradient with a per-component step."""
    theta = np.asarray(theta, dtype=float)
    steps = np.broadcast_to(np.asarray(step, dtype=float), theta.shape)
    grad = np.zeros_like(theta)
    for alpha in range(theta.size):
        up = theta.copy()
        dn = theta.copy()
        up[alpha] += steps[alpha]
        dn[alpha] -= steps[alpha]
        grad[alpha] = (f(up) - f(dn)) / (2.0 * steps[alpha])
    return grad


def finite_difference_hessian(f: Callable[[np.ndarray], float], theta, step=1e-4) -> np.ndarray:
    """Central-difference Hessian from the gradient of central differences."""
    theta = np.asarray(theta, dtype=float)
    steps = np.broadcast_to(np.asarray(step, dtype=float), theta.shape)
    p = theta.size
    hess = np.zeros((p, p))
    for alpha in range(p):
        up = theta.copy()
        dn = theta.copy()
        up[alpha] += steps[alpha]
        dn[alpha] -= steps[alpha]
        grad_up = finite_difference_gradient(f, up, steps)
        grad_dn = finite_difference_gradient(f, dn, steps)
        hess[alpha] = (grad_up - grad_dn) / (2.0 * steps[alpha])
    return 0.5 * (hess + hess.T)


def finite_difference_jacobian(
    map_fn: Callable[[np.ndarray], np.ndarray], theta, step_per_component
) -> np.ndarray:
    """Central-difference Jacobian matrix of a vector map, one column per
    perturbed component. The map must be smooth within the stencil."""
    theta = np.asarray(theta, dtype=float)
    steps = np.broadcast_to(np.asarray(step_per_component, dtype=float), theta.shape)
    p = theta.size
    jac = np.zeros((p, p))
    for alpha in range(p):
        up = theta.copy()
        dn = theta.copy()
        up[alpha] += steps[alpha]
        dn[alpha] -= steps[alpha]
        jac[:, alpha] = (np.asarray(map_fn(up)) - np.asarray(map_fn(dn))) / (2.0 * steps[alpha])
    return jac
