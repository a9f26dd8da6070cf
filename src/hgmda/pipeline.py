"""End-to-end adaptation: alternate exemplar selection, hyper-graph
matching, and ridge-regression mapping of the source toward the matched
target for a fixed number of outer rounds.

Each round matches source exemplars to target exemplars, regresses a linear
map from the source exemplars onto their matched target combinations
C* Xt', and applies that map to the FULL current source matrix, so the
final classifier can train on every labelled source point even when
eta < 1. Labels never change; only features move.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .data import LabeledDataset, NonFiniteError, class_index_sets
from .exemplars import APConfig, select_exemplars
from .graphs import adjacency_matrix, build_sparse_tensor, sigma_heuristic
from .objective import ObjectiveContext, ObjectiveWeights
from .solver import cg_solve


@dataclass(frozen=True)
class AdaptationConfig:
    eta: float = 1.0
    lam2: float = 0.01
    lam3: float = 0.0
    lam_g: float = 0.01
    n_outer: int = 1
    cg_iters: int = 20
    admm_iters: int = 300
    t_per_node: int = 50
    knn: int = 300
    pool_factor: int = 20
    ridge_mu: float = 1e-3
    seed: int = 0
    warm_start: bool = True
    ap: APConfig = field(default_factory=APConfig)

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")
        if self.n_outer < 1:
            raise ValueError("n_outer must be >= 1")
        if self.ridge_mu <= 0.0:
            raise ValueError("ridge_mu must be positive")
        if min(self.lam2, self.lam3, self.lam_g) < 0.0:
            raise ValueError("weights must be non-negative")


@dataclass(frozen=True)
class LinearMap:
    W: np.ndarray
    bias: np.ndarray

    def apply(self, X):
        return X @ self.W + self.bias


def fit_ridge_mapping(inputs, targets, mu):
    """Least squares with an l2 penalty on W, solved by centered normal
    equations; the bias absorbs the means."""
    X = np.asarray(inputs, dtype=float)
    Y = np.asarray(targets, dtype=float)
    if X.shape[0] < 1 or X.shape[0] != Y.shape[0]:
        raise ValueError("inputs and targets must have matching row counts")
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    x_mean = X.mean(axis=0)
    y_mean = Y.mean(axis=0)
    Xc = X - x_mean
    Yc = Y - y_mean
    d = X.shape[1]
    W = np.linalg.solve(Xc.T @ Xc + mu * np.eye(d), Xc.T @ Yc)
    bias = y_mean - x_mean @ W
    return LinearMap(W=W, bias=bias)


@dataclass
class AdaptResult:
    adapted: np.ndarray
    matching: np.ndarray
    source_exemplars: np.ndarray  # indices from the last round
    target_exemplars: np.ndarray
    rounds: list


def _round_seed(seed, round_index):
    return int(np.random.SeedSequence([seed, round_index]).generate_state(1)[0])


def adapt(source: LabeledDataset, target, cfg: AdaptationConfig):
    """Run the full adaptation loop; returns an AdaptResult.

    Raises NonFiniteError if any round produces non-finite features and
    ValueError when a domain yields fewer than 3 exemplars (triangles need
    three distinct points).
    """
    target = np.asarray(target, dtype=float)
    if target.shape[1] != source.d:
        raise ValueError("source and target feature dimensions differ")
    current = source.features.astype(float).copy()
    weights = ObjectiveWeights(lam2=cfg.lam2, lam3=cfg.lam3, lam_g=cfg.lam_g)

    # the target never moves, so its exemplars and bandwidth are fixed
    tgt_ex = select_exemplars(target, cfg.eta, cfg.ap)
    sigma_t = sigma_heuristic(tgt_ex.features)
    Dt = adjacency_matrix(tgt_ex.features, sigma_t)
    rounds = []
    C_star = None
    for round_index in range(1, cfg.n_outer + 1):
        t0 = time.perf_counter()
        src_ex = select_exemplars(current, cfg.eta, cfg.ap, labels=source.labels)
        if src_ex.count < 3 or tgt_ex.count < 3:
            raise ValueError(
                f"round {round_index}: need at least 3 exemplars per domain, "
                f"got {src_ex.count} source / {tgt_ex.count} target"
            )

        sigma_s = sigma_heuristic(src_ex.features)
        Ds = adjacency_matrix(src_ex.features, sigma_s)
        tensor = None
        if cfg.lam3 > 0.0:
            tensor = build_sparse_tensor(
                src_ex.features,
                tgt_ex.features,
                t_per_node=cfg.t_per_node,
                knn=cfg.knn,
                pool_factor=cfg.pool_factor,
                seed=_round_seed(cfg.seed, round_index),
            )
        groups = None
        if cfg.lam_g > 0.0:
            groups = class_index_sets(src_ex.labels, source.num_classes)

        ctx = ObjectiveContext(
            Xs=src_ex.features,
            Xt=tgt_ex.features,
            Ds=Ds,
            Dt=Dt,
            tensor=tensor,
            class_groups=groups,
        )
        C_star, diag = cg_solve(
            ctx,
            weights,
            cg_iters=cfg.cg_iters,
            admm_iters=cfg.admm_iters,
            warm_start=cfg.warm_start,
        )
        matched = C_star @ tgt_ex.features
        mapping = fit_ridge_mapping(src_ex.features, matched, cfg.ridge_mu)
        current = mapping.apply(current)
        if not np.all(np.isfinite(current)):
            raise NonFiniteError(f"round {round_index}: adapted features non-finite")
        rounds.append(
            {
                "round": round_index,
                "n_source_exemplars": int(src_ex.count),
                "n_target_exemplars": int(tgt_ex.count),
                "sigma_s": float(sigma_s),
                "sigma_t": float(sigma_t),
                "tensor_entries": 0 if tensor is None else int(tensor.m),
                "objective": diag.objective_trace[-1],
                "fw_gap": diag.final_gap,
                "solver": diag.as_dict(),
                "wall_time": time.perf_counter() - t0,
            }
        )
    return AdaptResult(
        adapted=current,
        matching=C_star,
        source_exemplars=src_ex.indices,
        target_exemplars=tgt_ex.indices,
        rounds=rounds,
    )
