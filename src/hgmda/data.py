"""Dataset types, CSV ingestion, and class-index bookkeeping.

Feature files are headerless CSV, one sample per row. Label files hold one
integer per line with class ids contiguous from 1. Both loaders skip a
leading UTF-8 byte-order mark, as spreadsheet exports write, and report
problems with the offending line number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NonFiniteError(RuntimeError):
    """Raised when a computation produces NaN or Inf."""


def _check_finite(X, role):
    """Raises a ValueError naming role and the first row of X that holds a
    NaN or an infinity."""
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if len(bad):
        raise ValueError(f"{role} features hold a non-finite value in row {bad[0]}")


def load_features(path):
    """Parse a headerless CSV of real numbers into an (n, d) float array."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = fh.read().splitlines()
    rows = []
    width = None
    for lineno, line in enumerate(lines, start=1):
        tokens = line.strip().split(",")
        row = []
        for tok in tokens:
            try:
                row.append(float(tok))
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric token {tok!r} at line {lineno}"
                ) from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError(f"{path}: ragged row at line {lineno}")
        if not all(np.isfinite(row)):
            raise ValueError(f"{path}: non-finite value at line {lineno}")
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: empty file")
    return np.asarray(rows, dtype=float)


def write_features(path, X):
    """Write a feature matrix as CSV with enough digits to round-trip
    float64 exactly."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    np.savetxt(path, X, fmt="%.17g", delimiter=",")


def load_labels(path, num_rows):
    """Parse one integer label per line; labels must cover 1..C densely.

    Returns (labels, num_classes).
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = fh.read().splitlines()
    labels = []
    for lineno, line in enumerate(lines, start=1):
        tok = line.strip()
        try:
            val = int(tok)
        except ValueError:
            raise ValueError(
                f"{path}: non-integer label {tok!r} at line {lineno}"
            ) from None
        if val <= 0:
            raise ValueError(f"{path}: label {val} <= 0 at line {lineno}")
        labels.append(val)
    if len(labels) != num_rows:
        raise ValueError(
            f"{path}: count mismatch, expected {num_rows} labels, got {len(labels)}"
        )
    labels = np.asarray(labels, dtype=int)
    num_classes = int(labels.max())
    present = set(labels.tolist())
    for c in range(1, num_classes + 1):
        if c not in present:
            raise ValueError(f"{path}: class {c} absent")
    return labels, num_classes


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix with one integer label in {1..C} per row."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ValueError(
                f"features need 2 dimensions (rows, columns), got shape {self.features.shape}"
            )
        _check_finite(self.features, "dataset")
        if self.labels.ndim != 1:
            raise ValueError(f"labels need 1 dimension, got shape {self.labels.shape}")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"label count {self.labels.shape[0]} does not match "
                f"{self.features.shape[0]} feature rows"
            )
        if self.labels.min(initial=1) <= 0 or self.labels.max(initial=1) > self.num_classes:
            raise ValueError("labels must lie in {1..num_classes}")
        present = set(np.unique(self.labels).tolist())
        missing = [c for c in range(1, self.num_classes + 1) if c not in present]
        if missing:
            raise ValueError(f"class {missing[0]} absent")

    @property
    def d(self):
        return self.features.shape[1]

    def matching_features(self, X, role, own_role):
        """X as a float array, if it is 2-D with this dataset's column count
        and finite; otherwise a ValueError naming both shapes, or the first
        non-finite row, with role and own_role naming X and this dataset."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.d:
            raise ValueError(
                f"{own_role} and {role} feature dimensions differ: {own_role} shape "
                f"{self.features.shape}, {role} shape {X.shape}; the {role} features "
                f"need 2 dimensions (rows, columns) and {self.d} columns"
            )
        _check_finite(X, role)
        return X


def load_dataset(features_path, labels_path):
    X = load_features(features_path)
    y, num_classes = load_labels(labels_path, X.shape[0])
    return LabeledDataset(features=X, labels=y, num_classes=num_classes)


def class_index_sets(labels, num_classes):
    """Row indices per class, as a list of arrays ordered by class id 1..C.

    Row indices are 0-based. The returned lists partition range(n).
    """
    labels = np.asarray(labels)
    return [np.flatnonzero(labels == c) for c in range(1, num_classes + 1)]


def pairwise_sq_dists(X, Y=None):
    """Squared Euclidean distances between rows of X and rows of Y (or X)."""
    X = np.asarray(X, dtype=float)
    Y = X if Y is None else np.asarray(Y, dtype=float)
    x2 = (X**2).sum(axis=1)
    y2 = (Y**2).sum(axis=1)
    d2 = x2[:, None] + y2[None, :] - 2.0 * (X @ Y.T)
    return np.maximum(d2, 0.0)
