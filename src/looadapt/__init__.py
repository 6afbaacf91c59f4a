"""Adaptive importance sampling for Bayesian leave-one-out cross-validation.

Given pre-computed posterior draws for a sigmoidal binary classifier, the
package estimates leave-one-out predictive quantities by importance
sampling, diagnoses unreliable observations through the generalized-Pareto
tail shape of their weights, and rescues them with a family of perturbative
draw transformations (partial moment matching and single gradient-flow
steps) whose Jacobian determinants are evaluated exactly for logistic
regression and one-hidden-layer ReLU networks.
"""

__version__ = "0.1.0"

from .data import (
    Dataset,
    MarginalStats,
    PosteriorDraws,
    RunConfig,
    TRANSFORM_KINDS,
    load_dataset_csv,
    load_draws_csv,
    marginal_stats,
    validate_dataset,
)
from .engine import (
    AttemptRecord,
    LooProblem,
    LooReport,
    ObservationResult,
    adapt_observation,
    eta_weights,
    loo_ic,
    raw_weights,
    run_loo,
)
from .errors import (
    CurveUndefinedError,
    DimensionError,
    DomainError,
    LooAdaptError,
    ValidationError,
)
from .gpd import GpdFit, WeightVector, fit_gpd_tail, pareto_smooth
from .metrics import CurvePoint, auprc, auroc, pr_curve, roc_curve
from .models import (
    GaussianPrior,
    LogisticModel,
    ReluOneModel,
    SigmoidalModel,
    grad_log_likelihood,
    grad_log_posterior,
    log_likelihood,
    log_posterior_unnorm,
    sigmoid,
)
from .oracle import (
    GridPosterior,
    build_grid_posterior,
    exact_loo_expectation,
    finite_difference_jacobian,
    sample_grid_posterior,
)
from .transforms import (
    TransformSpec,
    TransformedDraws,
    apply_gradient_transform,
    apply_pmm,
    gradient_step,
)

__all__ = [
    "AttemptRecord",
    "CurvePoint",
    "CurveUndefinedError",
    "Dataset",
    "DimensionError",
    "DomainError",
    "GaussianPrior",
    "GpdFit",
    "GridPosterior",
    "LogisticModel",
    "LooAdaptError",
    "LooProblem",
    "LooReport",
    "MarginalStats",
    "ObservationResult",
    "PosteriorDraws",
    "ReluOneModel",
    "RunConfig",
    "SigmoidalModel",
    "TRANSFORM_KINDS",
    "TransformSpec",
    "TransformedDraws",
    "ValidationError",
    "WeightVector",
    "adapt_observation",
    "apply_gradient_transform",
    "apply_pmm",
    "build_grid_posterior",
    "eta_weights",
    "exact_loo_expectation",
    "finite_difference_jacobian",
    "fit_gpd_tail",
    "gradient_step",
    "grad_log_likelihood",
    "grad_log_posterior",
    "load_dataset_csv",
    "load_draws_csv",
    "log_likelihood",
    "log_posterior_unnorm",
    "loo_ic",
    "marginal_stats",
    "pareto_smooth",
    "pr_curve",
    "raw_weights",
    "roc_curve",
    "run_loo",
    "sample_grid_posterior",
    "sigmoid",
    "auroc",
    "auprc",
    "validate_dataset",
]
