"""1-NN evaluation, multi-trial experiment protocol, and benchmark tables.

A task samples a per-class quota from the source, adapts it against one half
of the target, and scores 1-NN accuracy of the adapted source on that same
half (transductive headline number) as well as on the untouched held-out
half. The no-adaptation (NA) baseline uses the identical sampled source and
splits, so the comparison isolates the effect of adaptation. Hyperparameter
grids are searched per task and the best mean is reported.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .data import LabeledDataset, load_dataset, load_features, load_labels, pairwise_sq_dists
from .pipeline import AdaptationConfig, _reuse_rounds, adapt

log = logging.getLogger(__name__)


def knn_predict(train: LabeledDataset, test_X):
    """Nearest-neighbor labels; distance ties go to the lowest train index."""
    if train.n < 1:
        raise ValueError("empty training set")
    test_X = np.atleast_2d(np.asarray(test_X, dtype=float))
    d2 = pairwise_sq_dists(test_X, train.features)
    return train.labels[np.argmin(d2, axis=1)]


def accuracy(predicted, truth):
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape:
        raise ValueError("prediction and truth lengths differ")
    return float((predicted == truth).mean())


@dataclass(frozen=True)
class ExperimentSpec:
    """Paths and protocol settings for one adaptation task."""

    name: str
    source_features: str
    source_labels: str
    target_features: str
    target_labels: Optional[str] = None
    per_class: int = 20
    target_fraction: float = 0.5
    trials: int = 10
    config: AdaptationConfig = field(default_factory=AdaptationConfig)
    lam2_grid: Optional[tuple] = None
    lam3_grid: Optional[tuple] = None
    n_outer_grid: Optional[tuple] = None

    def __post_init__(self):
        if self.per_class < 1:
            raise ValueError("per_class must be >= 1")
        if not 0.0 < self.target_fraction < 1.0:
            raise ValueError("target_fraction must lie in (0, 1)")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        for name in ("lam2", "lam3", "n_outer"):
            grid = getattr(self, f"{name}_grid")
            if grid is not None and len(grid) == 0:
                raise ValueError(f"{name}_grid is empty; leave it out to run a single {name}")


@dataclass
class ResultRecord:
    name: str
    per_trial: list
    mean: float
    held_per_trial: list
    held_mean: float
    na_per_trial: list
    na_mean: float
    na_held_per_trial: list
    na_held_mean: float
    best_lam2: float
    best_lam3: float
    best_n_outer: int
    config: AdaptationConfig


def _sample_source(source: LabeledDataset, quota, rng):
    rows = []
    for c in range(1, source.num_classes + 1):
        members = np.flatnonzero(source.labels == c)
        if len(members) < quota:
            warnings.warn(
                f"class {c} has only {len(members)} samples for a quota of {quota}; "
                "using all of them"
            )
            take = members
        else:
            take = rng.choice(members, size=quota, replace=False)
        rows.append(np.sort(take))
    rows = np.concatenate(rows)
    return LabeledDataset(
        features=source.features[rows].copy(),
        labels=source.labels[rows].copy(),
        num_classes=source.num_classes,
    )


def _grid(spec: ExperimentSpec):
    lam2s = spec.lam2_grid if spec.lam2_grid else (spec.config.lam2,)
    lam3s = spec.lam3_grid if spec.lam3_grid else (spec.config.lam3,)
    outers = spec.n_outer_grid if spec.n_outer_grid else (spec.config.n_outer,)
    return [(l2, l3, no) for l2 in lam2s for l3 in lam3s for no in outers]


def run_task(spec: ExperimentSpec, seed=0):
    """Execute the full multi-trial protocol for one task."""
    source = load_dataset(spec.source_features, spec.source_labels)
    target_X = load_features(spec.target_features)
    if spec.target_labels is None:
        raise ValueError(f"{spec.name}: target labels are required for scoring")
    target_y, _ = load_labels(spec.target_labels, target_X.shape[0])

    combos = _grid(spec)
    acc = np.zeros((len(combos), spec.trials))
    held = np.zeros((len(combos), spec.trials))
    na = np.zeros(spec.trials)
    na_held = np.zeros(spec.trials)

    for trial in range(spec.trials):
        started = time.perf_counter()
        ss = np.random.SeedSequence([seed, trial])
        child_sample, child_adapt = ss.spawn(2)
        rng = np.random.default_rng(child_sample)
        adapt_seed = int(child_adapt.generate_state(1)[0])

        sampled = _sample_source(source, spec.per_class, rng)
        order = rng.permutation(target_X.shape[0])
        n_adapt = int(round(spec.target_fraction * target_X.shape[0]))
        n_adapt = min(max(n_adapt, 1), target_X.shape[0] - 1)
        adapt_idx, held_idx = order[:n_adapt], order[n_adapt:]
        Xa, ya = target_X[adapt_idx], target_y[adapt_idx]
        Xh, yh = target_X[held_idx], target_y[held_idx]

        na[trial] = accuracy(knn_predict(sampled, Xa), ya)
        na_held[trial] = accuracy(knn_predict(sampled, Xh), yh)

        # the trial's combos share what no weight changes (see _reuse_rounds)
        with _reuse_rounds():
            for ci, (lam2, lam3, n_outer) in enumerate(combos):
                cfg = replace(
                    spec.config, lam2=lam2, lam3=lam3, n_outer=n_outer, seed=adapt_seed
                )
                result = adapt(sampled, Xa, cfg)
                adapted = LabeledDataset(
                    features=result.adapted,
                    labels=sampled.labels,
                    num_classes=sampled.num_classes,
                )
                acc[ci, trial] = accuracy(knn_predict(adapted, Xa), ya)
                held[ci, trial] = accuracy(knn_predict(adapted, Xh), yh)
        log.info(
            "%s: trial %d/%d done in %.1f s",
            spec.name, trial + 1, spec.trials, time.perf_counter() - started,
        )

    best = int(np.argmax(acc.mean(axis=1)))
    lam2, lam3, n_outer = combos[best]
    return ResultRecord(
        name=spec.name,
        per_trial=acc[best].tolist(),
        mean=float(acc[best].mean()),
        held_per_trial=held[best].tolist(),
        held_mean=float(held[best].mean()),
        na_per_trial=na.tolist(),
        na_mean=float(na.mean()),
        na_held_per_trial=na_held.tolist(),
        na_held_mean=float(na_held.mean()),
        best_lam2=lam2,
        best_lam3=lam3,
        best_n_outer=n_outer,
        config=spec.config,
    )


def run_benchmark(specs, seed=0):
    """Run every task, isolating failures so one bad task cannot sink the
    rest. Returns a list of (spec name, ResultRecord or error string)."""
    if not specs:
        raise ValueError("benchmark needs at least one task")
    rows = []
    for spec in specs:
        try:
            rows.append((spec.name, run_task(spec, seed=seed)))
        except Exception as exc:  # noqa: BLE001 - isolation contract
            log.exception("task %s failed", spec.name)
            rows.append((spec.name, f"error: {exc}"))
    return rows


def benchmark_table(rows):
    """Render benchmark rows as (csv_text, pretty_text).

    The CSV stores fractions; the pretty table shows percentages.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([
        "task", "na_mean", "adapted_mean", "na_held_mean", "adapted_held_mean",
        "best_lam2", "best_lam3", "best_n_outer", "error",
    ])
    pretty = [f"{'task':<12} {'NA %':>7} {'Ours %':>7} {'held %':>7}  best (lam2, lam3, N_T)"]
    for name, rec in rows:
        if isinstance(rec, str):
            writer.writerow([name, "", "", "", "", "", "", "", rec])
            pretty.append(f"{name:<12} {rec}")
            continue
        writer.writerow([
            name, f"{rec.na_mean:.6f}", f"{rec.mean:.6f}", f"{rec.na_held_mean:.6f}",
            f"{rec.held_mean:.6f}", f"{rec.best_lam2:g}", f"{rec.best_lam3:g}",
            rec.best_n_outer, "",
        ])
        pretty.append(
            f"{name:<12} {100 * rec.na_mean:>7.2f} {100 * rec.mean:>7.2f} "
            f"{100 * rec.held_mean:>7.2f}  ({rec.best_lam2:g}, {rec.best_lam3:g}, "
            f"{rec.best_n_outer})"
        )
    return buffer.getvalue(), "\n".join(pretty) + "\n"


_SPEC_KEYS = (
    "seed", "trials", "target_fraction", "per_class", "eta", "lambda_g",
    "lambda2_grid", "lambda3_grid", "n_outer_grid", "config", "tasks",
)
# the integer settings a spec gives in its config; the other AdaptationConfig
# fields have top-level keys, and each trial derives its own seed
_CONFIG_KEYS = ("cg_iters", "admm_iters")
_TASK_PATH_KEYS = ("name", "source_features", "source_labels", "target_features", "target_labels")


def load_benchmark_file(path):
    """Parse a JSON benchmark description into (specs, seed).

    Top-level keys: seed, trials, target_fraction, per_class, eta, lambda_g,
    lambda2_grid, lambda3_grid, n_outer_grid (the only spellings of lam2,
    lam3 and n_outer; a one-value grid sets a single value), config (only
    cg_iters and admm_iters) and tasks (a list). Each task needs name and the
    four dataset paths and may set its own per_class. A key the file leaves
    out keeps the ExperimentSpec or AdaptationConfig default. An unknown key
    (at the top level, in config or in a task), a value of the wrong JSON
    type (a task's name and paths must be strings) and a value that
    ExperimentSpec or AdaptationConfig rejects (an empty grid among them)
    raise a ValueError naming the file and the key as the file spells it,
    such as config.cg_iters or tasks[0].per_class, before any task runs.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not doc.get("tasks"):
        raise ValueError(f"{path}: benchmark file lists no tasks")
    unknown = sorted(set(doc) - set(_SPEC_KEYS))
    if unknown:
        raise ValueError(f"{path}: unknown keys {unknown}")

    nouns = {
        int: "an integer", float: "a number", str: "a string", list: "a list", dict: "an object"
    }

    def need(key, value, kind):
        # a float setting also takes a JSON integer; true and false are no number
        if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
            raise ValueError(f"{path}: {key!r} needs {nouns[kind]}, got {value!r}")
        return value

    def check(key, base, name, value, kind):
        # base with its field name set to value (a grid as a tuple); the
        # dataclasses check each field on its own, so a setting that passes
        # here passes in every combo and every task
        need(key, value, kind)
        try:
            return replace(base, **{name: tuple(value) if kind is list else value})
        except ValueError as exc:
            raise ValueError(f"{path}: bad value in {key!r}: {exc}") from None

    config = need("config", doc.get("config", {}), dict)
    unknown = sorted(set(config) - set(_CONFIG_KEYS))
    if unknown:
        raise ValueError(
            f"{path}: unknown config keys {unknown}; config takes {list(_CONFIG_KEYS)}"
        )
    cfg = AdaptationConfig()
    for name, value in config.items():
        cfg = check(f"config.{name}", cfg, name, value, int)
    for key, name in (("eta", "eta"), ("lambda_g", "lam_g")):
        if key in doc:
            cfg = check(key, cfg, name, doc[key], float)
    seed = need("seed", doc.get("seed", 0), int)

    template = ExperimentSpec("", "", "", "", config=cfg)  # each task's spec, paths aside
    for key, kind in (("trials", int), ("target_fraction", float), ("per_class", int)):
        if key in doc:
            template = check(key, template, key, doc[key], kind)
    grids = (("lambda2_grid", "lam2", float), ("lambda3_grid", "lam3", float),
             ("n_outer_grid", "n_outer", int))
    for key, name, kind in grids:
        if key in doc:
            template = check(key, template, f"{name}_grid", doc[key], list)
            for value in doc[key]:
                check(key, cfg, name, value, kind)

    specs = []
    for index, task in enumerate(need("tasks", doc["tasks"], list)):
        if not isinstance(task, dict):
            raise ValueError(f"{path}: each task needs an object, got {task!r}")
        missing = [key for key in _TASK_PATH_KEYS if key not in task]
        if missing:
            raise ValueError(f"{path}: task missing keys {missing}")
        unknown = sorted(set(task) - {*_TASK_PATH_KEYS, "per_class"})
        if unknown:
            raise ValueError(f"{path}: tasks[{index}]: unknown keys {unknown}")
        paths = {key: need(f"tasks[{index}].{key}", task[key], str) for key in _TASK_PATH_KEYS}
        spec = replace(template, **paths)
        if "per_class" in task:
            spec = check(f"tasks[{index}].per_class", spec, "per_class", task["per_class"], int)
        specs.append(spec)
    return specs, seed
