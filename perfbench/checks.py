"""Output checks, computed apart from the program or from properties the
method must have. Each check returns a list of failure messages; an empty
list means it passed."""

from __future__ import annotations

import numpy as np

# criterion 3 of the acceptance suite: marginal residuals and lowest entry
SUM_TOL = 1e-3
NEG_TOL = 1e-4
# relative least-squares residual of the adapted source against an affine
# image of the input source; float64 round-off sits near 1e-14
AFFINE_TOL = 1e-8


def nn_labels(train_X, train_y, test_X):
    """Brute-force 1-NN by explicit differences; ties go to the lowest
    train index."""
    train_X = np.asarray(train_X, dtype=float)
    out = np.empty(len(test_X), dtype=np.asarray(train_y).dtype)
    for i, x in enumerate(np.asarray(test_X, dtype=float)):
        out[i] = train_y[int(np.argmin(((train_X - x) ** 2).sum(axis=1)))]
    return out


def accuracy(train_X, train_y, test_X, test_y):
    return float(np.mean(nn_labels(train_X, train_y, test_X) == np.asarray(test_y)))


def polytope_failures(M):
    """The matching must satisfy C 1 = 1, C^T 1 = ns/nt and C >= 0 within
    criterion 3's bounds; the sums are taken here, not read from the
    solver's diagnostics."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or not np.all(np.isfinite(M)):
        return ["matching is not a finite matrix"]
    ns, nt = M.shape
    rows = float(np.abs(M.sum(axis=1) - 1.0).max())
    cols = float(np.abs(M.sum(axis=0) - ns / nt).max())
    low = float(M.min())
    out = []
    if rows > SUM_TOL:
        out.append(f"matching row residual {rows:.2e} > {SUM_TOL:g}")
    if cols > SUM_TOL:
        out.append(f"matching column residual {cols:.2e} > {SUM_TOL:g}")
    if low < -NEG_TOL:
        out.append(f"matching entry {low:.2e} < -{NEG_TOL:g}")
    return out


def affine_failures(source_X, adapted_X):
    """Every outer round applies an affine map to the whole source, so the
    adapted source must be finite and an affine image of the input."""
    X = np.asarray(source_X, dtype=float)
    Y = np.asarray(adapted_X, dtype=float)
    if Y.shape != X.shape:
        return [f"adapted shape {Y.shape} differs from source shape {X.shape}"]
    if not np.all(np.isfinite(Y)):
        return ["adapted source is not finite"]
    A = np.hstack([X, np.ones((X.shape[0], 1))])
    B, *_ = np.linalg.lstsq(A, Y, rcond=None)
    resid = float(np.linalg.norm(A @ B - Y) / max(np.linalg.norm(Y), 1e-300))
    if resid > AFFINE_TOL:
        return [f"adapted source is not an affine image of the input (residual {resid:.2e})"]
    return []


def gain_failures(adapted_acc, baseline_acc):
    """Each task is built with a shift the method exists to undo."""
    if not adapted_acc > baseline_acc:
        return [f"adapted accuracy {adapted_acc:.4f} does not beat the baseline {baseline_acc:.4f}"]
    return []


def record_failures(record, grid, own_accs, own_na, n_test):
    """Consistency of a protocol ResultRecord.

    grid lists the (lam2, lam3, n_outer) combos the spec asked for; own_accs
    maps each combo to the benchmark's own 1-NN accuracy of that combo's
    adapted source (one trial), own_na is the benchmark's own no-adaptation
    accuracy. The program scores with its own distance formula, so the two
    may disagree on a near-tie: they must agree within one test point.
    """
    out = []
    slack = 1.0 / n_test + 1e-12
    if abs(record.mean - float(np.mean(record.per_trial))) > 1e-12:
        out.append("record mean differs from the mean of its per-trial values")
    if abs(record.na_mean - float(np.mean(record.na_per_trial))) > 1e-12:
        out.append("record baseline mean differs from the mean of its per-trial values")
    best = (record.best_lam2, record.best_lam3, record.best_n_outer)
    if best not in grid:
        out.append(f"best combo {best} is not in the grid")
        return out
    if set(own_accs) != set(grid):
        out.append("the adapted combos differ from the grid")
        return out
    if abs(own_accs[best] - record.mean) > slack:
        out.append(f"record mean {record.mean:.4f} differs from the benchmark's "
                   f"1-NN accuracy {own_accs[best]:.4f} of the best combo")
    if max(own_accs.values()) - record.mean > slack:
        out.append("the best combo is not the most accurate one")
    if abs(own_na - record.na_mean) > slack:
        out.append(f"record baseline {record.na_mean:.4f} differs from the "
                   f"benchmark's 1-NN baseline {own_na:.4f}")
    return out
