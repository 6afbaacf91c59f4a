"""Adaptive importance sampling for Bayesian leave-one-out cross-validation.

Given pre-computed posterior draws for a sigmoidal binary classifier, the
package estimates leave-one-out predictive quantities by importance
sampling, diagnoses unreliable observations through the generalized-Pareto
tail shape of their weights, and rescues them with a family of perturbative
draw transformations (partial moment matching and single gradient-flow
steps) whose Jacobian determinants are evaluated exactly for logistic
regression and one-hidden-layer ReLU networks.

The package root exports the documented API; everything else is imported
from its submodule.
"""

__version__ = "0.1.0"

from .data import Dataset, PosteriorDraws, RunConfig, load_dataset_csv, load_draws_csv
from .engine import LooReport, ObservationResult, run_loo
from .errors import DimensionError, DomainError, LooAdaptError, ValidationError
from .models import GaussianPrior, LogisticModel, ReluOneModel, SigmoidalModel, grad_log_posterior

__all__ = [
    # inputs
    "Dataset",
    "PosteriorDraws",
    "RunConfig",
    "load_dataset_csv",
    "load_draws_csv",
    "GaussianPrior",
    # models
    "SigmoidalModel",
    "LogisticModel",
    "ReluOneModel",
    # the run and its report
    "run_loo",
    "LooReport",
    "ObservationResult",
    # errors
    "LooAdaptError",
    "ValidationError",
    "DimensionError",
    "DomainError",
    # the benchmark's input generator builds an instance with it; calling it imports scipy
    "grad_log_posterior",
]
