"""Unsupervised domain adaptation by class-regularized hyper-graph matching."""

from .data import (
    LabeledDataset,
    NonFiniteError,
    class_index_sets,
    load_dataset,
    load_features,
    load_labels,
    write_features,
)
from .exemplars import ExemplarSet, select_exemplars
from .graphs import SparseTensor3, adjacency_matrix, build_sparse_tensor, sigma_heuristic
from .objective import ObjectiveContext, ObjectiveWeights, total_objective
from .pipeline import AdaptationConfig, AdaptResult, LinearMap, adapt, fit_ridge_mapping
from .solver import admm_lp, cg_solve
from .evaluation import (
    ExperimentSpec,
    ResultRecord,
    accuracy,
    knn_predict,
    run_benchmark,
    run_task,
)
from .synthetic import rotated_gaussian_task

__version__ = "0.1.0"

__all__ = [
    "AdaptResult",
    "AdaptationConfig",
    "ExemplarSet",
    "ExperimentSpec",
    "LabeledDataset",
    "LinearMap",
    "NonFiniteError",
    "ObjectiveContext",
    "ObjectiveWeights",
    "ResultRecord",
    "SparseTensor3",
    "accuracy",
    "adapt",
    "adjacency_matrix",
    "admm_lp",
    "build_sparse_tensor",
    "cg_solve",
    "class_index_sets",
    "fit_ridge_mapping",
    "knn_predict",
    "load_dataset",
    "load_features",
    "load_labels",
    "rotated_gaussian_task",
    "run_benchmark",
    "run_task",
    "select_exemplars",
    "sigma_heuristic",
    "total_objective",
    "write_features",
]
