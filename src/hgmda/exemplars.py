"""Exemplar selection by affinity propagation with bisection on the
preference value.

The preference p (the shared diagonal of the similarity matrix) controls how
many exemplars emerge: low p gives few exemplars, p near 0 makes every
distinct point its own exemplar. select_exemplars bisects p until the
exemplar count is close to a requested fraction eta of the data. Message
passing is fully deterministic; there is no random jitter, and ties are
resolved toward lower indices.

The settings are fixed: messages are damped by DAMPING = 0.5, a run stops
once its exemplar set has held for STABLE_WINDOW = 50 iterations or after
MAX_ITERS = 500, the bisection takes at most BISECT_STEPS = 20 steps, and a
count within max(1, round(0.02 n)) of round(eta * n) is close enough.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import pairwise_sq_dists

DAMPING = 0.5
MAX_ITERS = 500
STABLE_WINDOW = 50
BISECT_STEPS = 20


@dataclass(frozen=True)
class ExemplarSet:
    """Indices of the selected rows plus copies of their features/labels.

    preference is the AP preference that chose them and ap_runs the number
    of AP runs the bisection made; eta = 1 runs none (preference None).
    """

    indices: np.ndarray
    features: np.ndarray
    labels: Optional[np.ndarray]
    converged: bool
    preference: Optional[float] = None
    ap_runs: int = 0

    @property
    def count(self):
        return len(self.indices)


def similarity_matrix(X, p):
    """Negated squared Euclidean distances off the diagonal, preference p on
    the diagonal."""
    S = -pairwise_sq_dists(X)
    np.fill_diagonal(S, p)
    return S


def affinity_propagation(S):
    """Responsibility/availability message passing.

    Returns (exemplar_indices, converged). Exemplars are the points k with
    positive evidence r(k,k) + a(k,k); if none emerges, falls back to the
    single point with the largest summed similarity so the result is never
    empty.
    """
    n = S.shape[0]
    if S.shape != (n, n):
        raise ValueError("similarity matrix must be square")
    if n == 1:
        return np.array([0]), True

    # the messages are updated in place: AS holds A + S, R_new and A_new the
    # undamped messages (A_new first holds the clipped responsibilities)
    R = np.zeros((n, n))
    A = np.zeros((n, n))
    AS, R_new, A_new = np.empty((n, n)), np.empty((n, n)), np.empty((n, n))
    R_diag, A_diag, A_new_diag = (M.reshape(-1)[:: n + 1] for M in (R, A, A_new))
    idx = np.arange(n)
    current = None
    stable = 0
    converged = False
    for _ in range(MAX_ITERS):
        # responsibilities: r(i,k) = s(i,k) - max_{k' != k} (a(i,k') + s(i,k'))
        np.add(A, S, out=AS)
        top = AS.argmax(axis=1)
        first = AS[idx, top]
        AS[idx, top] = -np.inf
        second = AS.max(axis=1)
        np.subtract(S, first[:, None], out=R_new)
        R_new[idx, top] = S[idx, top] - second
        R *= DAMPING
        R_new *= 1.0 - DAMPING
        R += R_new

        # availabilities from positive responsibilities
        np.maximum(R, 0.0, out=A_new)
        A_new_diag[:] = R_diag
        np.subtract(A_new.sum(axis=0), A_new, out=A_new)
        self_availability = A_new_diag.copy()
        np.minimum(A_new, 0.0, out=A_new)
        A_new_diag[:] = self_availability
        A *= DAMPING
        A_new *= 1.0 - DAMPING
        A += A_new

        exemplars = np.flatnonzero(R_diag + A_diag > 0.0)
        key = exemplars.tobytes()
        if key == current:
            stable += 1
            if stable >= STABLE_WINDOW:
                converged = True
                break
        else:
            current = key
            stable = 1

    if len(exemplars) == 0:
        off = S - np.diag(np.diag(S))
        exemplars = np.array([int(off.sum(axis=0).argmax())])
    return exemplars, converged


def _make_set(X, labels, indices, converged, preference, ap_runs):
    indices = np.sort(np.asarray(indices, dtype=int))
    return ExemplarSet(
        indices=indices,
        features=X[indices].copy(),
        labels=None if labels is None else np.asarray(labels)[indices].copy(),
        converged=converged,
        preference=preference,
        ap_runs=ap_runs,
    )


def select_exemplars(X, eta, labels=None):
    """Pick roughly eta * n rows as exemplars.

    eta = 1 bypasses message passing and returns every row. Otherwise the
    preference is bisected over [2 * min offdiagonal similarity, 0] until the
    exemplar count lands within tolerance of round(eta * n); if the budget
    runs out, the evaluated preference whose count came closest wins. When
    the ends of that bracket already miss the count on the same side, the
    closer end wins without bisecting.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    if eta == 1.0:
        return _make_set(X, labels, np.arange(n), True, None, 0)

    target = int(round(eta * n))
    target = max(target, 1)
    tol = max(1, round(0.02 * n))

    S0 = similarity_matrix(X, 0.0)
    off_min = (S0 - np.diag(np.diag(S0))).min()
    p_lo = 2.0 * off_min
    p_hi = 0.0

    def run(p):
        S = S0.copy()
        np.fill_diagonal(S, p)
        return affinity_propagation(S)

    evaluated = []
    for p in (p_lo, p_hi):
        ex, conv = run(p)
        evaluated.append((abs(len(ex) - target), p, ex, conv))
        if abs(len(ex) - target) <= tol:
            return _make_set(X, labels, ex, conv, float(p), len(evaluated))

    # AP counts rise with the preference, so when p_lo already gives too many
    # exemplars or p_hi too few, no preference between them comes closer
    reachable = (len(evaluated[0][2]) <= target + tol
                 and len(evaluated[1][2]) >= target - tol)
    lo, hi = p_lo, p_hi
    for _ in range(BISECT_STEPS if reachable else 0):
        mid = 0.5 * (lo + hi)
        ex, conv = run(mid)
        evaluated.append((abs(len(ex) - target), mid, ex, conv))
        if abs(len(ex) - target) <= tol:
            return _make_set(X, labels, ex, conv, float(mid), len(evaluated))
        if len(ex) > target:
            hi = mid
        else:
            lo = mid

    _, p, ex, conv = min(evaluated, key=lambda item: item[0])
    return _make_set(X, labels, ex, conv, float(p), len(evaluated))
