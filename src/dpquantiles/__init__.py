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
    laplace_draw,
)
from .quantiles import (
    QuantileQuery,
    ReleaseRecord,
    SortedSample,
    indexp,
    qexp,
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
    "ReleaseRecord",
    "SortedSample",
    "generalized_quantiles",
    "indexp",
    "laplace_draw",
    "centered_grid",
    "private_histogram",
    "qexp",
    "qexp_draws",
    "quantile_from_histogram",
    "recexp",
    "recexp_depth",
    "release",
    "run_experiment",
    "run_trial",
    "target_rank",
]
