"""Imputation of missing per-modality item features over co-interaction graphs.

The package builds the item-item co-interaction graph from a bipartite
user-item interaction matrix, sparsifies it, and fills missing feature
vectors either with classic baselines (zeros, random, global mean) or by
diffusing observed features over the graph (neighborhood mean, multi-hop
propagation, personalized-PageRank diffusion). A mask-and-recover
harness scores the strategies against held-out rows.
"""

from .errors import (
    DataError,
    DivergentDiffusion,
    EmptyDataset,
    FormatError,
    GraphTooLarge,
    InconsistentData,
    InvalidParameter,
    MmImputeError,
    NoObservedFeatures,
    NumericalError,
    ParseError,
    SingularDiffusion,
    UnknownItem,
    UnknownModality,
    UsageError,
)
from .evaluate import (
    DatasetStats,
    EvalReport,
    HiddenRows,
    ModalityMetrics,
    dataset_stats,
    drop_missing,
    mask_features,
    reconstruction_metrics,
    run_sweep,
    synth_generate,
)
from .features import (
    FALLBACKS,
    FeatureSet,
    GRAPH_METHODS,
    ImputeConfig,
    METHODS,
    ValidationReport,
    validate,
)
from .graph import (
    InteractionMatrix,
    ItemGraph,
    NormalizedOperator,
    build_interaction_matrix,
    cooccurrence,
    ppr_exact,
    ppr_iterative,
    sym_norm_adjacency,
    topk_sparsify,
)
from .imputers import (
    impute,
    impute_global_mean,
    impute_multihop,
    impute_neigh_mean,
    impute_pers_pagerank,
    impute_random,
    impute_zeros,
)

__version__ = "0.1.0"

__all__ = [
    "DataError",
    "DatasetStats",
    "DivergentDiffusion",
    "EmptyDataset",
    "EvalReport",
    "FALLBACKS",
    "FeatureSet",
    "FormatError",
    "GRAPH_METHODS",
    "GraphTooLarge",
    "HiddenRows",
    "ImputeConfig",
    "InconsistentData",
    "InteractionMatrix",
    "InvalidParameter",
    "ItemGraph",
    "METHODS",
    "MmImputeError",
    "ModalityMetrics",
    "NoObservedFeatures",
    "NormalizedOperator",
    "NumericalError",
    "ParseError",
    "SingularDiffusion",
    "UnknownItem",
    "UnknownModality",
    "UsageError",
    "ValidationReport",
    "build_interaction_matrix",
    "cooccurrence",
    "dataset_stats",
    "drop_missing",
    "impute",
    "impute_global_mean",
    "impute_multihop",
    "impute_neigh_mean",
    "impute_pers_pagerank",
    "impute_random",
    "impute_zeros",
    "mask_features",
    "ppr_exact",
    "ppr_iterative",
    "reconstruction_metrics",
    "run_sweep",
    "sym_norm_adjacency",
    "synth_generate",
    "topk_sparsify",
    "validate",
]
