"""Pattern models for fully ranked data.

Complete rankings are converted to paired-comparison patterns and modeled
with item worths that may depend on respondent covariates; unobserved
heterogeneity enters through discrete mass-point random effects, which
makes the model a covariate latent class model fitted by multi-start EM.
"""

from .data import (
    AggregatedData,
    CovariateDecl,
    CovariateSet,
    DataError,
    aggregate,
    read_ranking_csv,
)
from .fitting import (
    FitConfig,
    FitError,
    FitResult,
    fit,
    init_start,
    search_classes,
)
from .model import (
    Design,
    ModelSpec,
    Parameters,
    bic,
    count_parameters,
    mixture_loglik,
    mixture_score,
    pairwise_win_prob,
    worths,
)
from .rankings import (
    CapacityError,
    PatternSpace,
    RankingValidationError,
    enumerate_transitive_patterns,
    is_transitive,
    order_to_ranks,
    pair_index,
    ranks_to_order,
    ranks_to_pattern,
)

__version__ = "0.1.0"

__all__ = [
    "AggregatedData",
    "CapacityError",
    "CovariateDecl",
    "CovariateSet",
    "DataError",
    "Design",
    "FitConfig",
    "FitError",
    "FitResult",
    "ModelSpec",
    "Parameters",
    "PatternSpace",
    "RankingValidationError",
    "aggregate",
    "bic",
    "count_parameters",
    "enumerate_transitive_patterns",
    "fit",
    "init_start",
    "is_transitive",
    "mixture_loglik",
    "mixture_score",
    "order_to_ranks",
    "pair_index",
    "pairwise_win_prob",
    "ranks_to_order",
    "ranks_to_pattern",
    "read_ranking_csv",
    "search_classes",
    "worths",
]
