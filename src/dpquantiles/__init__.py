"""Differentially private estimation of many statistical quantiles.

Exponential-mechanism quantile estimators (single, independently composed,
and recursive), a private histogram with a generalized quantile function,
executable utility bounds, and a seeded Monte-Carlo benchmark harness.
"""

from .bench import (
    ExperimentConfig,
    ExperimentResult,
    centered_grid,
    release,
    run_experiment,
    run_trial,
)
from .distributions import DensityEnvelope, DistributionOracle
from .errors import BoundPreconditionError, DegenerateDensityError, InvalidArgumentError
from .histogram import (
    generalized_quantiles,
    private_histogram,
    quantile_from_histogram,
)
from .mechanisms import (
    NeighboringRelation,
    PrivacyBudget,
    RandomSource,
    WeightedIntervalDensity,
    interval_mass,
    laplace_draw,
    log_density_at,
    sample_piecewise,
)
from .quantiles import (
    QuantileQuery,
    RankTarget,
    ReleaseRecord,
    SortedSample,
    empirical_error,
    indexp,
    qexp,
    qexp_density,
    qexp_draws,
    recexp,
    recexp_depth,
    target_rank,
)

__version__ = "0.1.0"

__all__ = [
    "BoundPreconditionError",
    "DegenerateDensityError",
    "DensityEnvelope",
    "DistributionOracle",
    "ExperimentConfig",
    "ExperimentResult",
    "InvalidArgumentError",
    "NeighboringRelation",
    "PrivacyBudget",
    "QuantileQuery",
    "RandomSource",
    "RankTarget",
    "ReleaseRecord",
    "SortedSample",
    "WeightedIntervalDensity",
    "empirical_error",
    "generalized_quantiles",
    "indexp",
    "interval_mass",
    "laplace_draw",
    "log_density_at",
    "centered_grid",
    "private_histogram",
    "qexp",
    "qexp_density",
    "qexp_draws",
    "quantile_from_histogram",
    "recexp",
    "recexp_depth",
    "release",
    "run_experiment",
    "run_trial",
    "sample_piecewise",
    "target_rank",
]
