"""Second-order adjacency matrices and the sparse third-order similarity
tensor.

Third-order structure compares triangles across domains through the sines of
their interior angles, which are invariant to translation, rotation, and
uniform scaling. Building the full tensor is O((n_s n_t)^3), so only a
sampled subset of source triangles is matched against a sampled pool of
target triangles and the k nearest pairs (by feature distance) are kept.

The tensor is symmetric under the 6 simultaneous permutations of its three
(source, target) slots, and the three pair indices of an entry always
differ (a source triangle has three distinct vertices). So each unordered
triangle pair is stored once, with its pair indices in ascending order, and
the contraction in objective.f3_and_grad scales by 6 for the other five
permutations.

The sample sizes are fixed parts of the method, module constants that
build_sparse_tensor reads when it is called and takes no argument for:
T_PER_NODE source triangles through each source node, a pool of
POOL_FACTOR * n_t target triangles, and the KNN nearest pool triangles kept
per source triangle. They were chosen by measurement (the grid is in
CHANGES.md). T_PER_NODE = 10 is the smallest count whose accuracy matches
that of 50 within one test point per seed on the rotated task and the
benchmark's tensor-hg and protocol-grid workloads, and within 0.01 on a
synthetic Office-shape task, with a fifth of the entries: a fifth of the
work in the build and in every f3 call. T_PER_NODE = 5 loses two test
points on some seeds, and so do KNN = 150 and POOL_FACTOR = 10; KNN = 150
also scores 0.800 against 0.838 on one Office-shape seed. f3 is a sum over
the stored entries, so its weight at a given lambda3 scales with their
number.

Each generator (one per source node, one for the pool) draws all of its
triangles in one call, and they are the triangles that one rng.choice call
per triangle gave, so the tensor does not depend on how they are drawn.
Their features are then computed in one vectorised pass over all sampled
triangles, in blocks of FEATURE_BLOCK gathered floats, and each source
node's run of at most T_PER_NODE triangles is scored against the pool at
once. Merged runs would hold larger distance matrices, and would change the
last bits of a node that keeps one triangle: numpy scores a single row as a
matrix-vector product, which rounds differently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import pairwise_sq_dists

T_PER_NODE = 10
KNN = 300
POOL_FACTOR = 20
# floats gathered per triangle vertex in one block of the feature pass
FEATURE_BLOCK = 1 << 16


def sigma_heuristic(X):
    """Mean Euclidean distance over unordered row pairs."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if n < 2:
        raise ValueError("bandwidth heuristic needs at least 2 points")
    d = np.sqrt(pairwise_sq_dists(X))
    sigma = d[np.triu_indices(n, k=1)].mean()
    if sigma == 0.0:
        raise ValueError("degenerate: zero bandwidth (all points coincide)")
    return float(sigma)


def adjacency_matrix(X, sigma):
    """Gaussian-kernel weights exp(-||x_i - x_j||^2 / sigma^2), zero
    diagonal."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    D = np.exp(-pairwise_sq_dists(X) / sigma**2)
    np.fill_diagonal(D, 0.0)
    return D


def _triangle_sines(A, B, C):
    """Sines of the interior angles of the triangles (A[r], B[r], C[r]), one
    row of points per triangle, and the mask of triangles whose three points
    are distinct. Only the masked triangles get a row of sines.

    Uses sin(angle) = 2 * area / (product of adjacent sides), with the
    squared area from the Gram determinant so points may live in any
    dimension. For collinear points the determinant cancels to rounding
    noise of order 1e-16 * lab * lac, which the square root lifts to sines
    of order 1e-8: they are (0, 0, 0) only when it cancels exactly, as on
    integer coordinates, and sines below about 1e-7 carry no reliable digits.
    """
    ab = B - A
    ac = C - A
    bc = C - B
    lab = np.einsum("ij,ij->i", ab, ab)
    lac = np.einsum("ij,ij->i", ac, ac)
    lbc = np.einsum("ij,ij->i", bc, bc)
    dot = np.einsum("ij,ij->i", ab, ac)
    keep = (lab > 0.0) & (lac > 0.0) & (lbc > 0.0)
    lab, lac, lbc, dot = lab[keep], lac[keep], lbc[keep], dot[keep]
    twice_area = np.sqrt(np.maximum(lab * lac - dot * dot, 0.0))
    sines = twice_area[:, None] / np.sqrt(np.column_stack((lab * lac, lab * lbc, lac * lbc)))
    return np.minimum(sines, 1.0, out=sines), keep


@dataclass(frozen=True)
class SparseTensor3:
    """Sparse symmetric third-order tensor over source-target pair indices.

    Modes are indexed by p = i_s * n_t + i_t. Each unordered triangle pair
    is one entry, stored once with p1 < p2 < p3 and sorted by that triple;
    it carries the value exp(-gamma * ||f_source - f_target||^2) in (0, 1].
    The full symmetric tensor holds the same value at all 6 permutations of
    (p1, p2, p3), which the stored entries stand for. A pair index outside
    [0, ns * nt) is rejected here, so the contraction need not check them.
    """

    p1: np.ndarray
    p2: np.ndarray
    p3: np.ndarray
    values: np.ndarray
    gamma: float
    ns: int
    nt: int

    def __post_init__(self):
        n = self.ns * self.nt
        for name in ("p1", "p2", "p3"):
            p = getattr(self, name)
            if len(p) and (p.min() < 0 or p.max() >= n):
                raise ValueError(f"{name} holds a pair index outside [0, ns * nt)")

    @property
    def m(self):
        return len(self.values)

    @cached_property
    def p1_runs(self):
        """(starts, ids): where each run of equal p1 begins in the stored
        order, and that run's p1. Computed once per tensor."""
        starts = np.flatnonzero(np.concatenate(([True], self.p1[1:] != self.p1[:-1])))
        return starts, self.p1[starts]


def _sample_triples(rng, n, count, anchor=None):
    """count index triples of distinct vertices out of n, each uniform over
    the ordered triples (over those starting at anchor, if given), drawn in
    one rng.integers call.

    The triples are the ones count calls of rng.choice(n, 3, replace=False)
    would give, one per row (of rng.choice(n - 1, 2, replace=False), picks
    from anchor up shifted by one, when anchored), and rng ends in the same
    state. For so few picks choice runs Floyd's algorithm (Bentley & Floyd,
    "A sample of brilliance", CACM 1987): pick s of size is a draw below
    m - size + 1 + s, replaced by m - size + s when it repeats an earlier
    pick, and a Fisher-Yates shuffle then swaps pick i with a draw below
    i + 1, for i = size - 1 down to 1. How many draws a row takes never
    depends on their values, so all rows' draws come from one call and the
    clash rule and the swaps run on whole columns.
    """
    size = 3 if anchor is None else 2
    m = n if anchor is None else n - 1
    highs = np.concatenate((np.arange(m - size + 1, m + 1), np.arange(size, 1, -1)))
    draws = rng.integers(0, np.tile(highs, count)).reshape(count, len(highs))
    picks = draws[:, :size]
    for s in range(1, size):
        clash = (picks[:, :s] == picks[:, s : s + 1]).any(axis=1)
        picks[clash, s] = m - size + s
    rows = np.arange(count)
    for i, swap in zip(range(size - 1, 0, -1), draws[:, size:].T):
        held = picks[rows, swap]
        picks[rows, swap] = picks[:, i]
        picks[:, i] = held
    if anchor is None:
        return np.ascontiguousarray(picks)
    triples = np.empty((count, 3), dtype=draws.dtype)
    triples[:, 0] = anchor
    triples[:, 1:] = picks + (picks >= anchor)
    return triples


def _features_for(X, triples):
    """Triangle features for each triple; coincident-point triples are
    dropped.

    The triples are taken in blocks of about FEATURE_BLOCK gathered floats
    per vertex, so the gathered points stay small at any dimension.
    """
    rows = max(1, FEATURE_BLOCK // X.shape[1])
    feats = np.empty((len(triples), 3))
    keep = np.empty(len(triples), dtype=bool)
    kept = 0
    for start in range(0, len(triples), rows):
        block = triples[start : start + rows]
        sines, keep[start : start + len(block)] = _triangle_sines(*(X[block[:, s]] for s in range(3)))
        feats[kept : kept + len(sines)] = sines
        kept += len(sines)
    return triples[keep], feats[:kept]


def _nearest_columns(d2, k):
    """Columns of the k smallest entries of each row of d2, nearest first,
    ties to the lower column: the first k columns of a stable argsort; and
    those entries, in the same order.

    Partitioning at the k-th smallest value finds the kept set without
    sorting whole rows. Only the k kept entries are then sorted, by the
    faster unstable sort. In the rows where two of them tie, the sorted
    positions are sorted again on run * k + position, run numbering the
    runs of equal sorted distances: that puts each run's positions in
    ascending order, as a stable sort does, with one sort of distinct keys.
    Needs 1 <= k <= the number of columns.
    """
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
    take = d2 <= kth
    over = np.flatnonzero(take.sum(axis=1) > k)
    if len(over):
        # more than one entry ties at the k-th value: the lowest columns
        # among them fill the row
        ties = d2[over] == kth[over]
        room = k - (d2[over] < kth[over]).sum(axis=1, keepdims=True)
        take[over] &= ~ties | (np.cumsum(ties, axis=1) <= room)
    # each row keeps exactly k columns, in ascending order: its flat
    # positions less its offset
    cols = np.flatnonzero(take).reshape(len(d2), k)
    cols -= np.arange(0, d2.size, d2.shape[1])[:, None]
    near = np.take_along_axis(d2, cols, axis=1)
    order = np.argsort(near, axis=1)
    dists = np.take_along_axis(near, order, axis=1)
    steps = dists[:, 1:] != dists[:, :-1]
    tied = np.flatnonzero(~steps.all(axis=1))
    if len(tied):
        keys = np.zeros((len(tied), k), dtype=np.int64)
        np.cumsum(steps[tied], axis=1, out=keys[:, 1:])
        keys *= k
        keys += order[tied]
        keys.sort(axis=1)
        order[tied] = keys % k
    return np.take_along_axis(cols, order, axis=1), dists


def build_sparse_tensor(Xs, Xt, seed=0):
    """Sample triangle correspondences and store their similarity values.

    For every source node, T_PER_NODE random source triangles through that
    node are matched to their KNN nearest triangles (by feature distance)
    from a shared pool of POOL_FACTOR * n_t random target triangles. gamma
    comes from the mean squared feature distance over all candidate pairs.
    The RNG is split per source node, so results do not depend on evaluation
    order. Each node's triangles are scored against the pool in one block.
    """
    Xs = np.asarray(Xs, dtype=float)
    Xt = np.asarray(Xt, dtype=float)
    ns, nt = Xs.shape[0], Xt.shape[0]
    if ns < 3 or nt < 3:
        raise ValueError("third-order term needs at least 3 points per domain")
    N = ns * nt
    if N**3 >= 2**63:
        raise ValueError("pair-index space too large for 64-bit dedup keys")

    children = np.random.SeedSequence(seed).spawn(ns + 1)
    pool = _sample_triples(np.random.default_rng(children[ns]), nt, POOL_FACTOR * nt)
    pool, pool_feats = _features_for(Xt, pool)
    if len(pool) == 0:
        raise ValueError("degenerate target domain: no valid triangles")
    source = np.concatenate([
        _sample_triples(np.random.default_rng(children[i]), ns, T_PER_NODE, anchor=i)
        for i in range(ns)
    ])
    source, source_feats = _features_for(Xs, source)
    if len(source) == 0:
        raise ValueError("degenerate source domain: no valid triangles")
    k = min(KNN, len(pool))

    # each candidate is kept only as its distance and the int64 key of its
    # ascending pair indices, in its node's slice of the candidate arrays
    cand_d2 = np.empty(k * len(source))
    keys = np.empty(k * len(source), dtype=np.int64)
    pool_cols = pool.T.copy()
    bounds = np.flatnonzero(np.diff(source[:, 0])) + 1  # where the node changes
    for start, stop in zip([0, *bounds], [*bounds, len(source)]):
        tri = source[start:stop]
        # nearest pool triangles first, ties to the one sampled earlier
        cols, near = _nearest_columns(pairwise_sq_dists(source_feats[start:stop], pool_feats), k)
        block = slice(k * start, k * stop)
        cand_d2[block] = near.ravel()
        # cols is in range: mode="wrap" skips the bounds check
        a, b, c = (pool_cols[s].take(cols, mode="wrap") + tri[:, s, None] * nt for s in range(3))
        # a min/max network sorts each candidate's pair indices: a <= b <= c
        a, b = np.minimum(a, b), np.maximum(a, b)
        b, c = np.minimum(b, c), np.maximum(b, c)
        a, b = np.minimum(a, b), np.maximum(a, b)
        keys[block] = ((a * N + b) * N + c).ravel()

    mean_sq = float(cand_d2.mean())
    gamma = 1.0 if mean_sq == 0.0 else 1.0 / mean_sq

    # one entry per unordered triangle pair, sorted by key. The first
    # sampled copy wins (re-sampled pairs can differ in the last float
    # bits): the lowest candidate index in each run of equal sorted keys.
    # Each index array is dropped or overwritten once used, so the peak
    # holds five candidate-sized arrays
    order = np.argsort(keys)
    keys = keys[order]
    first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    keep = np.minimum.reduceat(order, first)
    del order
    unique_keys = keys[first]
    del keys, first
    values = cand_d2[keep]
    del cand_d2, keep
    values *= -gamma
    p12, p3 = np.divmod(unique_keys, N, out=(unique_keys, None))
    p1, p2 = np.divmod(p12, N, out=(None, p12))
    return SparseTensor3(
        p1=p1,
        p2=p2,
        p3=p3,
        values=np.exp(values, out=values),
        gamma=gamma,
        ns=ns,
        nt=nt,
    )
