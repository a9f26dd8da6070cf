"""The four cost terms of the matching problem and their exact gradients.

Total cost over the matching matrix C:

    f(C) = f1 + lam2 * f2 - lam3 * f3 + lam_g * fg

with the feature alignment term f1 = ||C Xt - Xs||^2_F / (ns d), the
graph alignment term f2 = ||C Dt - r Ds C||^2_F (r = nt / ns corrects the
different domain sizes), the third-order reward f3 contracted from the
sparse triangle-similarity tensor (note the minus sign: structural matches
are encouraged), and the class-wise group lasso fg that pushes each target
column to commit to a single source class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graphs import SparseTensor3

# stored tensor entries contracted per block by f3_and_grad: the block's four
# work arrays (1 MB) stay in a core's L2 cache
F3_BLOCK = 1 << 15


@dataclass(frozen=True)
class ObjectiveWeights:
    lam2: float = 0.0
    lam3: float = 0.0
    lam_g: float = 0.0

    def __post_init__(self):
        if self.lam2 < 0 or self.lam3 < 0 or self.lam_g < 0:
            raise ValueError("weights must be non-negative")


@dataclass(frozen=True)
class ObjectiveContext:
    """Everything the cost terms need besides C itself.

    class_groups holds 0-based exemplar row indices per class (may be None
    when the group term is unused); tensor may be None when the third-order
    term is unused.
    """

    Xs: np.ndarray
    Xt: np.ndarray
    Ds: np.ndarray
    Dt: np.ndarray
    tensor: Optional[SparseTensor3] = None
    class_groups: Optional[list] = None

    def __post_init__(self):
        if self.Xs.shape[1] != self.Xt.shape[1]:
            raise ValueError("source and target feature dimensions differ")
        if self.Ds.shape != (self.ns, self.ns) or self.Dt.shape != (self.nt, self.nt):
            raise ValueError("adjacency shapes inconsistent with features")

    @property
    def ns(self):
        return self.Xs.shape[0]

    @property
    def nt(self):
        return self.Xt.shape[0]

    @property
    def d(self):
        return self.Xs.shape[1]

    @property
    def r(self):
        return self.nt / self.ns


def uniform_matching(ns, nt):
    """The maximum-entropy feasible point: every entry 1/nt."""
    return np.full((ns, nt), 1.0 / nt)


def marginals(ns, nt):
    """Row and column sum targets (a, b) of the matching polytope."""
    return np.ones(ns), np.full(nt, ns / nt)


def f1_and_grad(C, ctx):
    nsd = ctx.ns * ctx.d
    E = C @ ctx.Xt - ctx.Xs
    value = float(np.vdot(E, E)) / nsd
    grad = 2.0 * (E @ ctx.Xt.T) / nsd
    return value, grad


def f2_and_grad(C, ctx):
    r = ctx.r
    E = C @ ctx.Dt - r * (ctx.Ds @ C)
    value = float(np.vdot(E, E))
    grad = 2.0 * (E @ ctx.Dt.T - r * (ctx.Ds.T @ E))
    return value, grad


def f3_and_grad(C, ctx):
    """Triple contraction of the symmetric tensor with c = vec(C), and its
    gradient assembled from the three partial contractions.

    Each stored entry stands for the 6 permutations of its distinct pair
    indices, so in the gradient each index collects 2 permutations from each
    of 3 slots: grad = 6 g, with g the sum of the three partial contractions
    over the stored entries. Each entry adds 3 v w1 w2 w3 to c.g, so the
    value, 6 times the contraction over the stored entries, is 2 c.g.

    The entries are taken F3_BLOCK at a time into four reused work arrays,
    so no tensor-sized temporary is allocated.
    """
    H = ctx.tensor
    if H is None:
        raise ValueError("third-order term requires a triangle tensor (ctx.tensor is None)")
    if H.m == 0:
        return 0.0, np.zeros_like(C)
    c = C.ravel()
    n = c.size
    starts, ids = H.p1_runs
    g = np.zeros(n)
    work = np.empty((4, min(F3_BLOCK, H.m)))
    for b0 in range(0, H.m, F3_BLOCK):
        block = slice(b0, b0 + F3_BLOCK)
        p1, p2, p3, v = H.p1[block], H.p2[block], H.p3[block], H.values[block]
        w1, w2, w3, w12 = work[:, : len(v)]
        # SparseTensor3 holds its indices in range, so the gathers need no
        # bounds check (mode="raise" would also copy each work array)
        c.take(p1, out=w1, mode="wrap")
        c.take(p2, out=w2, mode="wrap")
        c.take(p3, out=w3, mode="wrap")
        w1 *= v  # v w1
        g += np.bincount(p3, weights=np.multiply(w1, w2, out=w12), minlength=n)
        w1 *= w3  # v w1 w3
        g += np.bincount(p2, weights=w1, minlength=n)
        w2 *= w3
        w2 *= v  # v w2 w3
        # entries are sorted by p1, so its partial contraction is a sum over
        # the runs that meet this block, the first one cut at the block start
        lo = np.searchsorted(starts, b0, side="right") - 1
        hi = np.searchsorted(starts, b0 + len(v))
        cuts = starts[lo:hi] - b0
        cuts[0] = 0
        np.add.at(g, ids[lo:hi], np.add.reduceat(w2, cuts))
    value = 2.0 * float(c @ g)
    g *= 6.0
    return value, g.reshape(C.shape)


def fg_and_grad(C, ctx):
    """Group lasso over (class, target column) blocks of C.

    Zero-norm groups get subgradient 0, the standard convention. C's rows
    are gathered once in class order, so each class's column norms come
    from a contiguous slice; the value adds the per-class sums in class
    order, since merging them into one reduction changes the last bit.
    """
    if ctx.class_groups is None:
        raise ValueError("group term requires class index sets")
    groups = [rows for rows in ctx.class_groups if len(rows)]
    grad = np.zeros_like(C)
    if not groups:
        return 0.0, grad
    rows = np.concatenate(groups)
    counts = [len(group) for group in groups]
    B = C[rows]
    norms = np.empty((len(groups), C.shape[1]))
    value = 0.0
    lo = 0
    for norm, count in zip(norms, counts):
        np.sqrt((B[lo : lo + count] ** 2).sum(axis=0), out=norm)
        value += float(norm.sum())
        lo += count
    norms = np.repeat(norms, counts, axis=0)
    grad[rows] = np.divide(B, norms, out=np.zeros_like(B), where=norms > 0.0)
    return value, grad


def total_objective(C, ctx, weights):
    """Weighted total cost and its gradient G.

    Terms with zero weight are skipped entirely, so a context may omit the
    tensor or the class groups when the corresponding weight is 0.
    """
    value, grad = f1_and_grad(C, ctx)
    if weights.lam2 > 0.0:
        v2, g2 = f2_and_grad(C, ctx)
        value += weights.lam2 * v2
        grad += weights.lam2 * g2
    if weights.lam3 > 0.0:
        v3, g3 = f3_and_grad(C, ctx)
        value -= weights.lam3 * v3
        grad -= weights.lam3 * g3
    if weights.lam_g > 0.0:
        vg, gg = fg_and_grad(C, ctx)
        value += weights.lam_g * vg
        grad += weights.lam_g * gg
    return value, grad
