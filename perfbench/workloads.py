"""The three workloads: their inputs, the timed operation, and its checks.

Inputs come from the workload seed alone. Each operation is one call into
the program's public API; its outcome is checked outside the timed region.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os

import numpy as np

import hgmda.cli
import hgmda.evaluation
import hgmda.pipeline
from hgmda import AdaptationConfig, LabeledDataset

import checks

# two elongated blobs whose target copy is rotated by 30 degrees, the
# geometry of the acceptance suite's synthetic task
ROTATED_CENTERS = np.array([[0.0, 1.0], [0.0, -1.0]])
ROTATED_SPREADS = np.array([[3.0, 0.3], [3.0, 0.3]])
ROTATED_DEGREES = 30.0

# ten classes in three dimensions; the layout is fixed (drawn once from a
# constant) so that the seed only draws the samples
RECT_CENTERS = np.random.default_rng(20180523).uniform(-3.0, 3.0, size=(10, 3))
RECT_SPREAD = 0.35
RECT_DEGREES = 40.0
RECT_SOURCE_PER_CLASS = 4
RECT_TARGET_PER_CLASS = 10

TENSOR_SOURCE_PER_CLASS = 20
TENSOR_TARGET_PER_CLASS = 40

# a target three times the sampled source: at eta = 0.5 the LPs are about
# 20 x 60. At that shape most seeds run every LP to its cap; at 20 x 20 the
# residual stop fires on some seeds and not on others, and run_s swings by
# more than half
GRID_SOURCE_PER_CLASS = 40
GRID_SAMPLE_PER_CLASS = 20
GRID_TARGET_PER_CLASS = 120
GRID_LAM2 = (0.01, 0.1)
GRID_LAM3 = (0.01,)
GRID_N_OUTER = (1, 2)


def rotation(dim, degrees):
    """Rotation by the given angle in the plane of the first two axes."""
    t = np.deg2rad(degrees)
    R = np.eye(dim)
    R[:2, :2] = [[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]
    return R


def gaussian_domain(rng, centers, spreads, per_class):
    """per_class draws around each center; labels 1..C in class order."""
    X = np.vstack([c + rng.normal(size=(per_class, len(c))) * s for c, s in zip(centers, spreads)])
    y = np.repeat(np.arange(1, len(centers) + 1), per_class)
    return X, y


def shifted_task(seed, centers, spreads, degrees, n_source, n_target):
    rng = np.random.default_rng(seed)
    Xs, ys = gaussian_domain(rng, centers, spreads, n_source)
    Xt, yt = gaussian_domain(rng, centers, spreads, n_target)
    Xt = Xt @ rotation(centers.shape[1], degrees).T
    return LabeledDataset(Xs, ys, len(centers)), Xt, yt


class AdaptWorkload:
    """One adapt call on arrays the benchmark holds, labels included."""

    def __init__(self, task, config):
        self._task = task
        self._config = config

    def setup(self, seed, workdir):
        source, Xt, yt = self._task(seed)
        return {"source": source, "target": Xt, "labels": yt,
                "config": AdaptationConfig(seed=seed, **self._config)}

    def operate(self, inputs):
        # looked up at call time so that the tracer's wrapper is the one called
        return hgmda.pipeline.adapt(inputs["source"], inputs["target"], inputs["config"])

    def check(self, inputs, result):
        """Returns (failures, adapted accuracy)."""
        source, Xt, yt = inputs["source"], inputs["target"], inputs["labels"]
        acc = checks.accuracy(result.adapted, source.labels, Xt, yt)
        na = checks.accuracy(source.features, source.labels, Xt, yt)
        failures = (
            checks.polytope_failures(result.matching)
            + checks.affine_failures(source.features, result.adapted)
            + checks.gain_failures(acc, na)
        )
        return failures, acc


def _write_csv(path, array, fmt):
    np.savetxt(path, array, fmt=fmt, delimiter=",")


class ProtocolWorkload:
    """``hgmda benchmark`` in process on CSV files of the rotated task.

    The CLI returns no arrays, so while it runs the benchmark keeps what
    ``run_task`` passes to and gets back from ``adapt``, and the record
    ``run_benchmark`` gets back from ``run_task``, by wrapping the two at
    their lookup sites in ``hgmda.evaluation``.
    """

    def setup(self, seed, workdir):
        source, Xt, yt = shifted_task(
            seed, ROTATED_CENTERS, ROTATED_SPREADS, ROTATED_DEGREES,
            GRID_SOURCE_PER_CLASS, GRID_TARGET_PER_CLASS,
        )
        paths = {key: os.path.join(workdir, f"{key}.csv")
                 for key in ("source_features", "source_labels", "target_features", "target_labels")}
        _write_csv(paths["source_features"], source.features, "%.17g")
        _write_csv(paths["source_labels"], source.labels, "%d")
        _write_csv(paths["target_features"], Xt, "%.17g")
        _write_csv(paths["target_labels"], yt, "%d")
        spec = {
            "seed": seed,
            "trials": 1,
            "target_fraction": 0.5,
            "per_class": GRID_SAMPLE_PER_CLASS,
            "eta": 0.5,
            "lambda_g": 0.01,
            "lambda2_grid": list(GRID_LAM2),
            "lambda3_grid": list(GRID_LAM3),
            "n_outer_grid": list(GRID_N_OUTER),
            "config": {"cg_iters": 5, "admm_iters": 16000},
            "tasks": [{"name": "rotated", **paths}],
        }
        spec_path = os.path.join(workdir, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        labels = {row.tobytes(): label for row, label in zip(Xt, yt)}
        return {"spec": spec_path, "out": os.path.join(workdir, "table.csv"), "labels": labels}

    def operate(self, inputs):
        adapts, records = [], []
        adapt, run_task = hgmda.evaluation.adapt, hgmda.evaluation.run_task

        def keep_adapt(source, target, cfg):
            result = adapt(source, target, cfg)
            adapts.append((source, target, cfg, result))
            return result

        def keep_record(spec, seed=0):
            record = run_task(spec, seed=seed)
            records.append(record)
            return record

        hgmda.evaluation.adapt, hgmda.evaluation.run_task = keep_adapt, keep_record
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = hgmda.cli.main(["benchmark", "--spec", inputs["spec"], "--out", inputs["out"]])
        finally:
            hgmda.evaluation.adapt, hgmda.evaluation.run_task = adapt, run_task
        if code != 0 or len(records) != 1:
            raise RuntimeError(f"hgmda benchmark exited {code} with {len(records)} records")
        return adapts, records[0]

    def check(self, inputs, outcome):
        """Returns (failures, adapted accuracy of the best combo)."""
        adapts, record = outcome
        if not adapts:
            return ["hgmda benchmark ran no adaptation"], 0.0
        grid = [(l2, l3, n) for l2 in GRID_LAM2 for l3 in GRID_LAM3 for n in GRID_N_OUTER]
        failures = []
        own_accs = {}
        own_na = None
        for source, target, cfg, result in adapts:
            try:
                truth = np.array([inputs["labels"][row.tobytes()] for row in target])
            except KeyError:
                return ["adapt was given a target row the task does not hold"], 0.0
            failures += checks.polytope_failures(result.matching)
            failures += checks.affine_failures(source.features, result.adapted)
            own_accs[(cfg.lam2, cfg.lam3, cfg.n_outer)] = checks.accuracy(
                result.adapted, source.labels, target, truth
            )
            own_na = checks.accuracy(source.features, source.labels, target, truth)
        failures += checks.record_failures(record, grid, own_accs, own_na, len(adapts[0][1]))
        best = (record.best_lam2, record.best_lam3, record.best_n_outer)
        acc = own_accs.get(best, 0.0)
        failures += checks.gain_failures(acc, own_na)
        with open(inputs["out"], newline="", encoding="utf-8") as fh:
            row = next(csv.DictReader(fh))
        if row["error"] or abs(float(row["adapted_mean"]) - record.mean) > 1e-6:
            failures.append("the table written by hgmda benchmark disagrees with the record")
        return failures, acc


WORKLOADS = {
    "rect-lp": AdaptWorkload(
        lambda seed: shifted_task(
            seed, RECT_CENTERS, np.full_like(RECT_CENTERS, RECT_SPREAD), RECT_DEGREES,
            RECT_SOURCE_PER_CLASS, RECT_TARGET_PER_CLASS,
        ),
        dict(eta=1.0, lam2=0.01, lam3=0.0, lam_g=0.01, cg_iters=20, admm_iters=8000),
    ),
    "tensor-hg": AdaptWorkload(
        lambda seed: shifted_task(
            seed, ROTATED_CENTERS, ROTATED_SPREADS, ROTATED_DEGREES,
            TENSOR_SOURCE_PER_CLASS, TENSOR_TARGET_PER_CLASS,
        ),
        dict(eta=1.0, lam2=0.01, lam3=0.01, lam_g=0.01, cg_iters=20, admm_iters=8000),
    ),
    "protocol-grid": ProtocolWorkload(),
}
