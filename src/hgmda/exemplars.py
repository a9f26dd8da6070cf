"""Exemplar selection by affinity propagation with bisection on the
preference value.

The preference p (the shared diagonal of the similarity matrix) controls how
many exemplars emerge: low p gives few exemplars, p near 0 makes every
distinct point its own exemplar. select_exemplars bisects p until the
exemplar count is close to a requested fraction eta of the data. Message
passing is fully deterministic; there is no random jitter, and ties are
resolved toward lower indices.

The settings are fixed: messages are damped by DAMPING = 0.5, a run stops
once its exemplar set has held for STABLE_WINDOW = 20 iterations or after
MAX_ITERS = 500, the bisection takes at most BISECT_STEPS = 20 steps, and a
count within max(1, round(0.02 n)) of round(eta * n) is close enough.
20 is the smallest window whose selections were all equal (indices,
convergence, preference, run counts and target) to those of a 50-iteration
window on every select_exemplars input recorded from the tests, the
protocol-grid benchmark and the example script; at 15 one of them changed.
A run that converges does 30 fewer iterations than at 50, which cut the AP
iterations of the recorded protocol-grid selections by a quarter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import _check_finite, pairwise_sq_dists

# affinity_propagation damps as (old + new) * DAMPING, which needs 0.5
DAMPING = 0.5
MAX_ITERS = 500
STABLE_WINDOW = 20
BISECT_STEPS = 20


@dataclass(frozen=True)
class ExemplarSet:
    """Indices of the selected rows plus copies of their features/labels.

    preference is the AP preference that chose them, ap_runs the number of
    AP runs the bisection made, ap_capped how many of those stopped at
    MAX_ITERS instead of converging, and target the count it aimed at,
    max(1, round(eta * n)); eta = 1 runs none (preference and target None).
    """

    indices: np.ndarray
    features: np.ndarray
    labels: Optional[np.ndarray]
    converged: bool
    preference: Optional[float] = None
    ap_runs: int = 0
    ap_capped: int = 0
    target: Optional[int] = None

    @property
    def count(self):
        return len(self.indices)


def similarity_matrix(X, p):
    """Negated squared Euclidean distances off the diagonal, preference p on
    the diagonal."""
    S = -pairwise_sq_dists(X)
    np.fill_diagonal(S, p)
    return S


def _aligned_zeros(n):
    """An (n, n) float array of zeros whose data starts on a 64-byte
    boundary. numpy's elementwise loops store whole SIMD vectors, and stores
    that straddle cache lines made each op writing a (120, 120) array about
    twice as slow on an AVX-512 machine; numpy itself aligns to 16 bytes."""
    buf = np.zeros(n * n + 7)
    start = (-buf.ctypes.data % 64) // 8
    return buf[start : start + n * n].reshape(n, n)


def affinity_propagation(S):
    """Responsibility/availability message passing.

    Returns (exemplar_indices, converged). Exemplars are the points k with
    positive evidence r(k,k) + a(k,k); if none emerges, falls back to the
    single point with the largest summed similarity so the result is never
    empty. S must be square with at least one row, else a ValueError names
    its shape.

    An iteration makes 22 numpy calls, 13 of them over (n, n) arrays, and
    allocates nothing: every array it writes is preallocated, the (n, n)
    ones on 64-byte boundaries. Each step gives the bits of the plain form
    (reference_affinity_propagation in tests/oracles.py):

    - The largest and second-largest a(i,k') + s(i,k') of each row are read
      at its argmax by a flat take, before and after the largest is set to
      -inf. A row's value at its argmax is its max, NaN included, and a
      second argmax plus a take costs less than half of max(axis=1).
    - The entries at each row's argmax are read and written by flat
      take/put at argmax + row offset, the same entries as [rows, argmax].
    - The new responsibilities are s less a matrix that holds each row's
      largest a + s, and its second largest at the largest's column: the
      same subtractions as s less the largest with the argmax entries
      redone, in one plain subtraction instead of a slower broadcast one.
    - Damping is (old + new) * DAMPING, in place, which is
      DAMPING * old + (1 - DAMPING) * new because DAMPING = 0.5. It is so
      to the bit because halving is exact and commutes with rounding a
      sum, unless a message is nonzero and below 2**-1021 in magnitude,
      where halving rounds, or old + new overflows.
    - The responsibilities are clipped below, and the availabilities
      above, at zero by an elementwise max and min with a matrix that is
      zero off the diagonal and -inf or +inf on it, which leaves r(k,k)
      and a(k,k) as they are instead of writing them back.
    - A run is stable while its evidence mask, the bytes of
      r(k,k) + a(k,k) > 0, repeats: the same mask is the same exemplar set,
      whose indices are taken once, after the loop.
    """
    if S.ndim != 2 or S.shape[0] != S.shape[1] or S.shape[0] == 0:
        raise ValueError(
            f"similarity matrix needs to be square with at least one row, got shape {S.shape}"
        )
    n = S.shape[0]
    if n == 1:
        return np.array([0]), True

    # AS holds A + S and then the undamped responsibilities, A_new the
    # clipped responsibilities and then the undamped availabilities; top and
    # runner_up the flat positions of each row's largest and second-largest
    # A + S
    R, A, AS, A_new, low, high = (_aligned_zeros(n) for _ in range(6))
    AS_flat = AS.reshape(-1)
    R_diag, A_diag, low_diag, high_diag = (M.reshape(-1)[:: n + 1] for M in (R, A, low, high))
    # bounds that clip r(i,k) below and a(i,k) above at zero off the
    # diagonal and leave r(k,k) and a(k,k) as they are
    low_diag[:], high_diag[:] = -np.inf, np.inf
    offsets = np.arange(0, n * n, n)
    top, runner_up = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
    first, second, col_sums, evidence = (np.empty(n) for _ in range(4))
    first_col = first[:, None]
    mask = np.empty(n, dtype=bool)
    current = None
    stable = 0
    converged = False
    for _ in range(MAX_ITERS):
        # responsibilities: r(i,k) = s(i,k) - max_{k' != k} (a(i,k') + s(i,k'))
        np.add(A, S, out=AS)
        AS.argmax(axis=1, out=top)
        top += offsets
        # the positions are in range: mode="wrap" skips the bounds check
        AS_flat.take(top, out=first, mode="wrap")
        AS_flat.put(top, -np.inf)
        AS.argmax(axis=1, out=runner_up)
        runner_up += offsets
        AS_flat.take(runner_up, out=second, mode="wrap")
        # what each row subtracts from s: its largest a + s, and the second
        # largest at the largest's own column
        np.copyto(AS, first_col)
        AS_flat.put(top, second)
        np.subtract(S, AS, out=AS)
        R += AS
        R *= DAMPING

        # availabilities from positive responsibilities
        np.maximum(R, low, out=A_new)
        A_new.sum(axis=0, out=col_sums)
        np.subtract(col_sums, A_new, out=A_new)
        np.minimum(A_new, high, out=A_new)
        A += A_new
        A *= DAMPING

        np.add(R_diag, A_diag, out=evidence)
        np.greater(evidence, 0.0, out=mask)
        key = mask.tobytes()
        if key == current:
            stable += 1
            if stable >= STABLE_WINDOW:
                converged = True
                break
        else:
            current = key
            stable = 1

    exemplars = np.flatnonzero(mask)
    if len(exemplars) == 0:
        off = S - np.diag(np.diag(S))
        exemplars = np.array([int(off.sum(axis=0).argmax())])
    return exemplars, converged


def _make_set(X, labels, indices, converged, preference, evaluated, target):
    """The set of the given indices; evaluated lists the (miss, preference,
    exemplars, converged) of every AP run the bisection made."""
    indices = np.sort(np.asarray(indices, dtype=int))
    return ExemplarSet(
        indices=indices,
        features=X[indices],
        labels=None if labels is None else labels[indices],
        converged=converged,
        preference=preference,
        ap_runs=len(evaluated),
        ap_capped=sum(not conv for *_, conv in evaluated),
        target=target,
    )


def select_exemplars(X, eta, labels=None):
    """Pick roughly eta * n rows as exemplars.

    eta = 1 bypasses message passing and returns every row. Otherwise the
    preference is bisected over [2 * min offdiagonal similarity, 0] until the
    exemplar count lands within tolerance of round(eta * n); if the budget
    runs out, the evaluated preference whose count came closest wins. When
    the ends of that bracket already miss the count on the same side, the
    closer end wins without bisecting.

    X must be 2-D with at least one row and finite, and labels, if given,
    1-D with one entry per row; otherwise a ValueError names the shape, the
    first non-finite row or both lengths.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError(
            f"features need 2 dimensions (rows, columns) and at least one row, got shape {X.shape}"
        )
    _check_finite(X, "exemplar candidate")
    n = X.shape[0]
    if labels is not None:
        labels = np.asarray(labels)
        if labels.ndim != 1:
            raise ValueError(f"labels need 1 dimension, got shape {labels.shape}")
        if len(labels) != n:
            raise ValueError(f"label count {len(labels)} does not match {n} feature rows")
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    if eta == 1.0:
        return _make_set(X, labels, np.arange(n), True, None, [], None)

    target = int(round(eta * n))
    target = max(target, 1)
    tol = max(1, round(0.02 * n))

    # the diagonal of S0 is 0, so its minimum is the least off-diagonal one
    S0 = similarity_matrix(X, 0.0)
    p_lo = 2.0 * S0.min()
    p_hi = 0.0

    def run(p):
        # affinity_propagation only reads S, so each run resets the diagonal
        np.fill_diagonal(S0, p)
        return affinity_propagation(S0)

    evaluated = []
    for p in (p_lo, p_hi):
        ex, conv = run(p)
        evaluated.append((abs(len(ex) - target), p, ex, conv))
        if abs(len(ex) - target) <= tol:
            return _make_set(X, labels, ex, conv, float(p), evaluated, target)

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
            return _make_set(X, labels, ex, conv, float(mid), evaluated, target)
        if len(ex) > target:
            hi = mid
        else:
            lo = mid

    _, p, ex, conv = min(evaluated, key=lambda item: item[0])
    return _make_set(X, labels, ex, conv, float(p), evaluated, target)
