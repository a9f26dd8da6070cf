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

import contextlib
import contextvars
import copy
import time
import warnings
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from .data import LabeledDataset, NonFiniteError, class_index_sets
from .exemplars import select_exemplars
from .graphs import SparseTensor3, adjacency_matrix, build_sparse_tensor, sigma_heuristic
from .objective import ObjectiveContext, ObjectiveWeights
from .solver import cg_solve

# criterion 3's bound on the row and column residuals of a returned matching;
# a round whose matching exceeds it is recorded as infeasible and warned about
FEASIBILITY_TOL = 1e-3

# the l2 penalty of each round's ridge fit
RIDGE_MU = 1e-3


def _require_integers(obj, names):
    """Raises a ValueError naming the first of obj's fields names that
    holds no integer. A bool is not one; a numpy integer is."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class AdaptationConfig:
    eta: float = 1.0
    lam2: float = 0.01
    lam3: float = 0.0
    lam_g: float = 0.01
    n_outer: int = 1
    cg_iters: int = 20
    admm_iters: int = 300
    seed: int = 0

    def __post_init__(self):
        _require_integers(self, ("n_outer", "cg_iters", "admm_iters", "seed"))
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")
        if self.n_outer < 1:
            raise ValueError("n_outer must be >= 1")
        if self.cg_iters < 1 or self.admm_iters < 1:
            raise ValueError("cg_iters and admm_iters must be >= 1")
        ObjectiveWeights(self.lam2, self.lam3, self.lam_g)  # raises on a bad weight
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


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


# the stages a round record times, in seconds
STAGES = ("exemplars", "graphs", "tensor", "solver", "ridge")


@dataclass
class _Trial:
    """What the adapt runs on one source and one target compute.

    graphs, the target's and the round-1 source's (exemplars, bandwidth,
    adjacency), and tensor, the round-1 tensor, depend on none of lam2,
    lam3 and n_outer, so every run whose config differs from cfg only in
    those shares them. rounds[k] is the AdaptResult that a run with
    n_outer = k + 1 and the weights (lam2, lam3) returns. It reproduces the
    first k + 1 rounds of any longer run with those weights exactly, so a
    longer run continues from the kept rounds.
    """

    source: LabeledDataset
    target: np.ndarray
    cfg: Optional[AdaptationConfig] = None
    graphs: Optional[tuple] = None
    tensor: Optional[SparseTensor3] = None
    weights: Optional[tuple] = None
    rounds: list = field(default_factory=list)


# the _Trial of the innermost open _reuse_rounds
_TRIAL = contextvars.ContextVar("hgmda_trial", default=None)


@contextlib.contextmanager
def _reuse_rounds(source, target):
    """Within this scope the adapt calls on these very source and target
    objects share one _Trial, as long as their configs differ from the
    first one's only in lam2, lam3 and n_outer. Every other call computes
    alone, and nothing is kept once the scope closes."""
    token = _TRIAL.set(_Trial(source, target))
    try:
        yield
    finally:
        _TRIAL.reset(token)


@contextlib.contextmanager
def _timed(times, stage):
    start = time.perf_counter()
    try:
        yield
    finally:
        times[stage] += time.perf_counter() - start


@contextlib.contextmanager
def _failing_as(where, note=""):
    """Prefix the message of a ValueError raised inside with where it arose,
    and append note."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}{note}") from exc


def _spread(X):
    """RMS distance of the rows of X to their mean."""
    return float(np.sqrt(((X - X.mean(axis=0)) ** 2).sum(axis=1).mean()))


def _outer_round(trial, cfg):
    """The round after trial.rounds: match the current source exemplars to
    the target exemplars and map the whole current source through the
    ridge fit. Round 1 takes its graphs and tensor from the trial: the
    trial's first round 1 builds both graphs there, and its first with
    lam3 > 0 builds the tensor. Returns the AdaptResult of a run ending here."""
    t0 = time.perf_counter()
    source = trial.source
    times = dict.fromkeys(STAGES, 0.0)
    earlier = trial.rounds[-1] if trial.rounds else None
    round_index = len(trial.rounds) + 1
    current = source.features.astype(float) if earlier is None else earlier.adapted

    def graph(X, labels, role):
        # a domain's exemplars, their bandwidth and their adjacency
        where = f"round {round_index}: {role} exemplars"
        with _timed(times, "exemplars"), _failing_as(where):
            ex = select_exemplars(X, cfg.eta, labels=labels)
        note = ""
        if role == "source" and earlier is not None:
            note = (f"; round {round_index - 1}'s map contracted the source "
                    f"(source_spread {earlier.rounds[-1]['source_spread']:.3g})")
        with _timed(times, "graphs"), _failing_as(where, note):
            if ex.count < 3:
                raise ValueError(f"need at least 3 exemplars per domain, got {ex.count}")
            sigma = sigma_heuristic(ex.features)
            return ex, sigma, adjacency_matrix(ex.features, sigma)

    if trial.graphs is None:
        # a new trial: the graphs that no weight changes, kept only if both build
        trial.graphs = graph(trial.target, None, "target"), graph(current, source.labels, "source")
    (tgt_ex, sigma_t, Dt), (src_ex, sigma_s, Ds) = trial.graphs
    if round_index > 1:
        src_ex, sigma_s, Ds = graph(current, source.labels, "source")

    tensor = None
    if cfg.lam3 > 0.0:
        with _timed(times, "tensor"), _failing_as(f"round {round_index}"):
            tensor = trial.tensor if round_index == 1 else None
            if tensor is None:
                tensor = build_sparse_tensor(
                    src_ex.features, tgt_ex.features, seed=_round_seed(cfg.seed, round_index)
                )
                if round_index == 1:
                    trial.tensor = tensor
    groups = class_index_sets(src_ex.labels, source.num_classes) if cfg.lam_g > 0.0 else None
    ctx = ObjectiveContext(Xs=src_ex.features, Xt=tgt_ex.features, Ds=Ds, Dt=Dt,
                           tensor=tensor, class_groups=groups)
    with _timed(times, "solver"):
        C_star, diag = cg_solve(
            ctx,
            ObjectiveWeights(lam2=cfg.lam2, lam3=cfg.lam3, lam_g=cfg.lam_g),
            cg_iters=cfg.cg_iters,
            admm_iters=cfg.admm_iters,
        )
    with _timed(times, "ridge"):
        matched = C_star @ tgt_ex.features
        mapping = fit_ridge_mapping(src_ex.features, matched, RIDGE_MU)
        current = mapping.apply(current)
    if not np.all(np.isfinite(current)):
        raise NonFiniteError(f"round {round_index}: adapted features non-finite")
    record = {
        "round": round_index,
        "n_source_exemplars": int(src_ex.count),
        "n_target_exemplars": int(tgt_ex.count),
        "source_ap_converged": bool(src_ex.converged),
        "target_ap_converged": bool(tgt_ex.converged),
        "source_ap_runs": src_ex.ap_runs,
        "target_ap_runs": tgt_ex.ap_runs,
        "source_ap_capped": src_ex.ap_capped,
        "target_ap_capped": tgt_ex.ap_capped,
        "source_preference": src_ex.preference,
        "target_preference": tgt_ex.preference,
        "source_ap_target": src_ex.target,
        "target_ap_target": tgt_ex.target,
        "sigma_s": float(sigma_s),
        "sigma_t": float(sigma_t),
        "source_spread": _spread(current) / _spread(source.features),
        "tensor_entries": 0 if tensor is None else int(tensor.m),
        # the last recorded iterate residuals are those of the returned C_star
        "feasible": max(diag.row_residuals[-1], diag.col_residuals[-1]) <= FEASIBILITY_TOL,
        "solver": asdict(diag),
        "stage_times": times,
        "wall_time": time.perf_counter() - t0,
    }
    return AdaptResult(
        adapted=current,
        matching=C_star,
        source_exemplars=src_ex.indices,
        target_exemplars=tgt_ex.indices,
        rounds=([] if earlier is None else earlier.rounds) + [record],
    )


def adapt(source: LabeledDataset, target, cfg: AdaptationConfig):
    """Run the full adaptation loop; returns an AdaptResult.

    Raises NonFiniteError if any round produces non-finite features.
    Raises ValueError when the target is not 2-D with the source's column
    count (naming both shapes), and when a domain yields fewer than 3
    exemplars (triangles need three distinct points), its exemplars all
    coincide or they yield no valid triangle (naming the round, and the
    domain for the first two).
    Emits a RuntimeWarning for each round whose matching breaks
    FEASIBILITY_TOL. Work is shared only among the calls that run_task
    makes within one trial, on its sampled source and target half (see
    _reuse_rounds); a direct call always computes all of its rounds.
    """
    target = source.matching_features(target, "target", "source")

    shared = replace(cfg, lam2=0.0, lam3=0.0, n_outer=1)
    trial = _TRIAL.get()
    if trial is None or trial.source is not source or trial.target is not target:
        trial = _Trial(source, target, shared)
    elif trial.cfg is None:
        trial.cfg = shared  # the first call in the scope
    if trial.cfg != shared:
        trial = _Trial(source, target, shared)
    if trial.weights != (cfg.lam2, cfg.lam3):
        trial.weights = (cfg.lam2, cfg.lam3)
        trial.rounds = []
    while len(trial.rounds) < cfg.n_outer:
        trial.rounds.append(_outer_round(trial, cfg))

    result = trial.rounds[cfg.n_outer - 1]
    for record in result.rounds:
        if not record["feasible"]:
            solver = record["solver"]
            warnings.warn(
                f"round {record['round']}: matching breaks the {FEASIBILITY_TOL:g} "
                f"feasibility bound (row residual {solver['row_residuals'][-1]:.2e}, "
                f"column residual {solver['col_residuals'][-1]:.2e})",
                RuntimeWarning,
                stacklevel=2,
            )
    # the kept rounds may be replayed to a later call: hand out a copy only
    return copy.deepcopy(result)
