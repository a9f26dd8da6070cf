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

The sample sizes are fixed parts of the method: T_PER_NODE source triangles
through each source node, a pool of POOL_FACTOR * n_t target triangles, and
the KNN nearest pool triangles kept per source triangle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .data import pairwise_sq_dists

T_PER_NODE = 50
KNN = 300
POOL_FACTOR = 20


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


def triangle_feature(a, b, c):
    """Sines of the interior angles at vertices a, b, c.

    Collinear triples give (0, 0, 0); coincident points are rejected. Uses
    sin(angle) = 2 * area / (product of adjacent sides), with the squared
    area from the Gram determinant so points may live in any dimension.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    ab = b - a
    ac = c - a
    bc = c - b
    lab = ab @ ab
    lac = ac @ ac
    lbc = bc @ bc
    if lab == 0.0 or lac == 0.0 or lbc == 0.0:
        raise ValueError("coincident points have no triangle feature")
    area2 = lab * lac - (ab @ ac) ** 2
    if area2 <= 0.0:
        return np.zeros(3)
    twice_area = np.sqrt(area2)
    sines = twice_area / np.sqrt([lab * lac, lab * lbc, lac * lbc])
    return np.minimum(sines, 1.0)


@dataclass(frozen=True)
class SparseTensor3:
    """Sparse symmetric third-order tensor over source-target pair indices.

    Modes are indexed by p = i_s * n_t + i_t. Each unordered triangle pair
    is one entry, stored once with p1 < p2 < p3 and sorted by that triple;
    it carries the value exp(-gamma * ||f_source - f_target||^2) in (0, 1].
    The full symmetric tensor holds the same value at all 6 permutations of
    (p1, p2, p3), which the stored entries stand for.
    """

    p1: np.ndarray
    p2: np.ndarray
    p3: np.ndarray
    values: np.ndarray
    gamma: float
    ns: int
    nt: int

    @property
    def m(self):
        return len(self.values)


def _sample_triples(rng, n, count, anchor=None):
    """Sample index triples (anchored at a fixed first vertex if given)."""
    triples = np.empty((count, 3), dtype=int)
    for row in range(count):
        if anchor is None:
            triples[row] = rng.choice(n, size=3, replace=False)
        else:
            others = rng.choice(n - 1, size=2, replace=False)
            others = np.where(others >= anchor, others + 1, others)
            triples[row] = (anchor, others[0], others[1])
    return triples


def _features_for(X, triples):
    """Triangle features for each triple; coincident-point triples are
    dropped."""
    feats = np.empty((len(triples), 3))
    keep = np.ones(len(triples), dtype=bool)
    for row, (i, j, k) in enumerate(triples):
        try:
            feats[row] = triangle_feature(X[i], X[j], X[k])
        except ValueError:
            keep[row] = False
    return triples[keep], feats[keep]


def _nearest_columns(d2, k):
    """Columns of the k smallest entries of each row of d2, nearest first,
    ties to the lower column: the first k columns of a stable argsort.

    Partitioning at the k-th smallest value finds the kept set without
    sorting whole rows; only the k kept columns are then sorted. Needs
    1 <= k <= the number of columns.
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
    cols = np.nonzero(take)[1].reshape(len(d2), k)
    order = np.argsort(np.take_along_axis(d2, cols, axis=1), axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1)


def build_sparse_tensor(
    Xs, Xt, t_per_node=T_PER_NODE, knn=KNN, pool_factor=POOL_FACTOR, seed=0, exhaustive=False
):
    """Sample triangle correspondences and store their similarity values.

    For every source node, t_per_node random source triangles through that
    node are matched to their knn nearest triangles (by feature distance)
    from a shared pool of pool_factor * n_t random target triangles. gamma
    comes from the mean squared feature distance over all candidate pairs.
    The RNG is split per source node, so results do not depend on evaluation
    order. exhaustive=True enumerates every source triangle and every target
    vertex ordering instead (only sensible for tiny inputs).
    """
    Xs = np.asarray(Xs, dtype=float)
    Xt = np.asarray(Xt, dtype=float)
    ns, nt = Xs.shape[0], Xt.shape[0]
    if ns < 3 or nt < 3:
        raise ValueError("third-order term needs at least 3 points per domain")
    N = ns * nt
    if N**3 >= 2**63:
        raise ValueError("pair-index space too large for 64-bit dedup keys")
    if not exhaustive and knn < 1:
        raise ValueError("knn must be >= 1")

    if exhaustive:
        pool = np.array(list(permutations(range(nt), 3)), dtype=int)
    else:
        root = np.random.SeedSequence(seed)
        children = root.spawn(ns + 1)
        pool_rng = np.random.default_rng(children[ns])
        pool = _sample_triples(pool_rng, nt, pool_factor * nt)
    pool, pool_feats = _features_for(Xt, pool)
    if len(pool) == 0:
        raise ValueError("degenerate target domain: no valid triangles")

    if exhaustive:
        tri = np.array(list(combinations(range(ns), 3)), dtype=int)
        chunks = [_features_for(Xs, tri)]
        k = len(pool)
    else:
        chunks = [
            _features_for(
                Xs, _sample_triples(np.random.default_rng(children[i]), ns, t_per_node, anchor=i)
            )
            for i in range(ns)
        ]
        k = min(knn, len(pool))
    chunks = [(tri, feats) for tri, feats in chunks if len(tri)]
    if not chunks:
        raise ValueError("degenerate source domain: no valid triangles")

    # per-node chunks keep the knn distance matrices small; each candidate
    # is kept only as the int64 key of its ascending pair indices
    key_parts = []
    d2_parts = []
    for tri, feats in chunks:
        d2 = pairwise_sq_dists(feats, pool_feats)
        # nearest pool triangles first, ties to the one sampled earlier
        order = _nearest_columns(d2, k)
        d2_parts.append(np.take_along_axis(d2, order, axis=1).ravel())
        pairs = (tri[:, None, :] * nt + pool[order]).reshape(-1, 3)
        pairs.sort(axis=1)
        key_parts.append((pairs[:, 0] * N + pairs[:, 1]) * N + pairs[:, 2])
    cand_d2 = np.concatenate(d2_parts)
    keys = np.concatenate(key_parts)
    del d2_parts, key_parts

    mean_sq = float(cand_d2.mean())
    gamma = 1.0 if mean_sq == 0.0 else 1.0 / mean_sq

    # one entry per unordered triangle pair; the first sampled copy wins
    # (re-sampled pairs can differ in the last float bits), and np.unique
    # leaves the entries sorted by their key
    unique_keys, keep = np.unique(keys, return_index=True)
    p12, p3 = np.divmod(unique_keys, N)
    p1, p2 = np.divmod(p12, N)
    return SparseTensor3(
        p1=p1,
        p2=p2,
        p3=p3,
        values=np.exp(-gamma * cand_d2[keep]),
        gamma=gamma,
        ns=ns,
        nt=nt,
    )
