"""Reference implementations used only by the test suite.

Everything here is written independently of the package internals and favors
brute force over speed: exhaustive enumeration, dense tensors, generic
projection methods. Tests compare package output against these. There are
exceptions. reference_admm_lp takes the package's working gradient
magnitude and stopping constants so that the two can be compared sweep for
sweep. reference_build_sparse_tensor, an unblocked build that scores every
source triangle in one distance matrix and keeps each one's nearest pool
triangles by a full sort, shares the package's triangle features and
tensor container so that the two can be compared bit for bit. The
package's earlier triangle sampling, one rng.choice call per triangle
(reference_sample_triples), per-triangle features
(reference_triangle_feature, reference_features_for) and three-bincount
f3 contraction (reference_f3_and_grad) are kept verbatim as references
for the vectorised forms that replaced them. So are the Sinkhorn oracle's earlier
loop, which range-tested the scalings at every iteration
(reference_sinkhorn_lmo, built from the package's kernel, rounding and
bound helpers and its oracle constants), and the earlier affinity
propagation with freshly allocated messages
(reference_affinity_propagation, on the package's AP settings), and the
group lasso that gathered and scattered each class's rows in its own
loop step (reference_fg_and_grad).
"""

import itertools
from itertools import combinations, permutations
from types import SimpleNamespace

import numpy as np

from hgmda.exemplars import DAMPING, MAX_ITERS, STABLE_WINDOW
from hgmda.graphs import SparseTensor3, _features_for
from hgmda.solver import (
    GRADIENT_SCALE,
    LMO_CHECK_EVERY,
    LMO_EPS_FACTOR,
    LMO_TOL_FACTOR,
    RESIDUAL_CHECK_EVERY,
    RESIDUAL_TOL,
    SCALING_BOUND,
    _c_transform_bound,
    _log_potentials,
    _round_to_polytope,
)


def central_difference_grad(fn, C, step=1e-5):
    """Central finite differences of a scalar function of a matrix."""
    g = np.zeros_like(C)
    for i in range(C.shape[0]):
        for j in range(C.shape[1]):
            up = C.copy()
            up[i, j] += step
            dn = C.copy()
            dn[i, j] -= step
            g[i, j] = (fn(up) - fn(dn)) / (2.0 * step)
    return g


def permutation_minimum(G):
    """Exact min of Tr(G^T P) over permutation matrices (square G)."""
    n = G.shape[0]
    assert G.shape == (n, n)
    best = np.inf
    for perm in itertools.permutations(range(n)):
        cost = sum(G[i, perm[i]] for i in range(n))
        best = min(best, cost)
    return best


def triangle_sines(a, b, c):
    """Sines of interior angles via the law of cosines, clipped for collinear
    triples."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    la = np.linalg.norm(b - c)
    lb = np.linalg.norm(a - c)
    lc = np.linalg.norm(a - b)
    if la == 0.0 or lb == 0.0 or lc == 0.0:
        raise ValueError("coincident points")
    cos_a = (lb**2 + lc**2 - la**2) / (2 * lb * lc)
    cos_b = (la**2 + lc**2 - lb**2) / (2 * la * lc)
    cos_c = (la**2 + lb**2 - lc**2) / (2 * la * lb)
    cosines = np.clip([cos_a, cos_b, cos_c], -1.0, 1.0)
    return np.sin(np.arccos(cosines))


def dense_tensor(entries, ns, nt):
    """Materialize canonical sparse third-order entries as a dense symmetric
    (N, N, N) array, writing each value at every distinct permutation of its
    index triple. An index triple written twice means the sparse tensor
    holds a duplicate entry, and fails here rather than being overwritten."""
    N = ns * nt
    H = np.zeros((N, N, N))
    written = np.zeros((N, N, N), dtype=bool)
    for p, q, r, v in entries:
        for idx in set(itertools.permutations((int(p), int(q), int(r)))):
            assert not written[idx], f"index triple {idx} stored twice"
            written[idx] = True
            H[idx] = v
    return H


def dense_contraction(H, c):
    """Value and gradient of H x1 c x2 c x3 c by explicit einsum."""
    val = float(np.einsum("pqr,p,q,r->", H, c, c, c))
    grad = (
        np.einsum("pqr,q,r->p", H, c, c)
        + np.einsum("pqr,p,r->q", H, c, c)
        + np.einsum("pqr,p,q->r", H, c, c)
    )
    return val, grad


def kmedoid_exhaustive(X, k):
    """Best k medoids by exhaustive search, minimizing total Euclidean
    distance of each point to its nearest medoid."""
    n = X.shape[0]
    D = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2)
    best_cost = np.inf
    best = None
    for combo in itertools.combinations(range(n), k):
        cost = D[:, list(combo)].min(axis=1).sum()
        if cost < best_cost:
            best_cost = cost
            best = combo
    return set(best)


def _project_rows(C, a):
    return C - ((C.sum(axis=1) - a) / C.shape[1])[:, None]


def _project_cols(C, b):
    return C - ((C.sum(axis=0) - b) / C.shape[0])[None, :]


def dykstra_project(C, a, b, sweeps=200):
    """Dykstra's alternating projection onto
    {C >= 0, C 1 = a, C^T 1 = b}."""
    P = np.zeros_like(C)
    Q = np.zeros_like(C)
    R = np.zeros_like(C)
    X = C.copy()
    for _ in range(sweeps):
        Y = _project_rows(X + P, a)
        P = X + P - Y
        Z = _project_cols(Y + Q, b)
        Q = Y + Q - Z
        X = np.maximum(Z + R, 0.0)
        R = Z + R - X
    return X


def projected_gradient(grad_fn, C0, a, b, steps=10000, lr=0.05):
    """Projected gradient descent over the scaled transportation polytope.

    Slow but reliable reference minimizer for smooth convex objectives.
    """
    C = C0.copy()
    for _ in range(steps):
        C = dykstra_project(C - lr * grad_fn(C), a, b, sweeps=60)
    return C


def reference_admm_lp(G, a, b, iters=300):
    """Three-block consensus ADMM for min Tr(G^T C) over
    {C >= 0, C 1 = a, C^T 1 = b}, in the scaled global-consensus form of
    Boyd et al. 2011, section 7.1, on the raw gradient.

    The blocks are f1 = <G/2, C> + [C 1 = a], f2 = <G/2, C> + [C^T 1 = b]
    and f3 = [C >= 0]. A sweep sets Xi = prox_{fi/rho}(Z - Ui), then
    Z = mean(Xi + Ui), then Ui += Xi - Z. The penalty is
    rho = max|G| / GRADIENT_SCALE: scaling rho and G together leaves the
    scaled iterates unchanged, so this is the package's rho = 1 on G
    normalized to GRADIENT_SCALE. The start is the package's documented one:
    uniform Z, U1 = U2 = -G/(2 rho), U3 = G/rho.

    Runs at most iters (>= 0) sweeps and stops on the package's residual
    test (max |Xi - Z| and max |Z - Z_prev| both below RESIDUAL_TOL, checked
    every RESIDUAL_CHECK_EVERY sweeps). Returns (C, state): C is Z clamped
    at zero, state holds Z, the scaled duals U and the sweeps run.
    """
    ns, nt = G.shape
    rho = np.abs(G).max() / GRADIENT_SCALE or 1.0
    Z = np.full((ns, nt), 1.0) * (np.asarray(a, dtype=float) / nt)[:, None]
    U = [-G / (2.0 * rho), -G / (2.0 * rho), G / rho]
    proxes = [
        lambda V: _project_rows(V - G / (2.0 * rho), a),
        lambda V: _project_cols(V - G / (2.0 * rho), b),
        lambda V: np.maximum(V, 0.0),
    ]
    sweeps = 0
    while sweeps < iters:
        sweeps += 1
        X = [prox(Z - Ui) for prox, Ui in zip(proxes, U)]
        Z_prev, Z = Z, sum(Xi + Ui for Xi, Ui in zip(X, U)) / 3.0
        U = [Ui + Xi - Z for Xi, Ui in zip(X, U)]
        if sweeps % RESIDUAL_CHECK_EVERY == 0:
            primal = max(np.abs(Xi - Z).max() for Xi in X)
            if primal < RESIDUAL_TOL and np.abs(Z - Z_prev).max() < RESIDUAL_TOL:
                break
    return np.maximum(Z, 0.0), SimpleNamespace(Z=Z, U=U, iterations=sweeps)


def reference_sinkhorn_lmo(G, a, b, gamma, g, max_iters):
    """The package's earlier _sinkhorn_lmo, which tested the scalings
    against [1/SCALING_BOUND, SCALING_BOUND] at every iteration. Returns
    (C_d, g, bound, iterations, marginal_error)."""
    ns, nt = G.shape
    if g is None:
        g = np.zeros(nt)
    scale = np.abs(G).max()
    if scale == 0.0:
        return np.outer(a, b) / b.sum(), g, 0.0, 0, 0.0
    eps = LMO_EPS_FACTOR * gamma * scale / np.log(max(ns * nt, 2))
    tol = LMO_TOL_FACTOR * gamma * ns
    low, high = 1.0 / SCALING_BOUND, SCALING_BOUND
    f, g, K = _log_potentials(G, g, a, b, eps)
    u, v = np.ones(ns), np.ones(nt)
    Kv = K.sum(axis=1)
    iterations = 0
    while iterations < max_iters:
        iterations += 1
        u_next = a / Kv
        v_next = b / (u_next @ K)
        if not (low <= u_next.min() and u_next.max() <= high
                and low <= v_next.min() and v_next.max() <= high):
            # fold the last accepted column scaling into g and restart from
            # exact updates, which recompute f (and so absorb u) from g
            f, g, K = _log_potentials(G, g + eps * np.log(v), a, b, eps)
            u, v = np.ones(ns), np.ones(nt)
            Kv = K.sum(axis=1)
            continue
        u, v = u_next, v_next
        Kv = K @ v
        if iterations % LMO_CHECK_EVERY == 0 and np.abs(u * Kv - a).sum() <= tol:
            break
    P = u[:, None] * K * v
    marginal_error = float(np.abs(P.sum(axis=1) - a).sum() + np.abs(P.sum(axis=0) - b).sum())
    bound = _c_transform_bound(G, f + eps * np.log(u), a, b)
    return _round_to_polytope(P, a, b), g + eps * np.log(v), bound, iterations, marginal_error


def reference_affinity_propagation(S):
    """The package's earlier affinity_propagation, which allocated fresh
    message matrices at every iteration. Returns (exemplar_indices,
    converged)."""
    n = S.shape[0]
    if S.shape != (n, n):
        raise ValueError("similarity matrix must be square")
    if n == 1:
        return np.array([0]), True

    R = np.zeros((n, n))
    A = np.zeros((n, n))
    idx = np.arange(n)
    current = None
    stable = 0
    converged = False
    for _ in range(MAX_ITERS):
        # responsibilities: r(i,k) = s(i,k) - max_{k' != k} (a(i,k') + s(i,k'))
        AS = A + S
        top = AS.argmax(axis=1)
        first = AS[idx, top]
        AS[idx, top] = -np.inf
        second = AS.max(axis=1)
        Rnew = S - first[:, None]
        Rnew[idx, top] = S[idx, top] - second
        R = DAMPING * R + (1.0 - DAMPING) * Rnew

        # availabilities from positive responsibilities
        Rp = np.maximum(R, 0.0)
        Rp[idx, idx] = R[idx, idx]
        Anew = Rp.sum(axis=0)[None, :] - Rp
        diag = Anew[idx, idx].copy()
        Anew = np.minimum(Anew, 0.0)
        Anew[idx, idx] = diag
        A = DAMPING * A + (1.0 - DAMPING) * Anew

        exemplars = np.flatnonzero(R[idx, idx] + A[idx, idx] > 0.0)
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


def reference_sample_triples(rng, n, count, anchor=None):
    """The package's earlier _sample_triples, one rng.choice call per row.

    Sample index triples (anchored at a fixed first vertex if given).
    """
    triples = np.empty((count, 3), dtype=int)
    for row in range(count):
        if anchor is None:
            triples[row] = rng.choice(n, size=3, replace=False)
        else:
            others = rng.choice(n - 1, size=2, replace=False)
            others = np.where(others >= anchor, others + 1, others)
            triples[row] = (anchor, others[0], others[1])
    return triples


def reference_build_sparse_tensor(Xs, Xt, *, t_per_node, knn, pool_factor, seed=0):
    """build_sparse_tensor without its blocks and its partial selection:
    every source triangle is scored in one distance matrix, each row is
    ordered by a full stable argsort, and the candidate pair indices are
    kept as an (m, 3) array. The package's build must return the same
    entries, values and gamma bit for bit, however it blocks the source
    triangles. It samples the triangles with reference_sample_triples and
    computes their features with the package's own _features_for, so the
    bit-for-bit comparison checks the sampling, the nearest-triangle
    selection and the dedup; the features themselves are checked against
    reference_features_for. The three sample sizes have no defaults: the
    package's constants in hgmda.graphs are their only owner.

    Sample triangle correspondences and store their similarity values.

    For every source node, t_per_node random source triangles through that
    node are matched to their knn nearest triangles (by feature distance)
    from a shared pool of pool_factor * n_t random target triangles. gamma
    comes from the mean squared feature distance over all candidate pairs.
    The RNG is split per source node, so results do not depend on evaluation
    order.
    """
    ns, nt = len(Xs), len(Xt)
    children = np.random.SeedSequence(seed).spawn(ns + 1)
    pool = reference_sample_triples(np.random.default_rng(children[ns]), nt, pool_factor * nt)
    source = np.concatenate([
        reference_sample_triples(np.random.default_rng(children[i]), ns, t_per_node, anchor=i)
        for i in range(ns)
    ])
    return _reference_tensor(Xs, Xt, pool, source, knn)


def reference_exhaustive_tensor(Xs, Xt):
    """The tensor of reference_build_sparse_tensor over every source
    triangle and every target vertex ordering, all of them kept (only
    sensible for tiny inputs)."""
    pool = np.array(list(permutations(range(len(Xt)), 3)), dtype=int)
    source = np.array(list(combinations(range(len(Xs)), 3)), dtype=int)
    return _reference_tensor(Xs, Xt, pool, source, len(pool))


def _reference_tensor(Xs, Xt, pool, source, knn):
    """The tensor of the given target pool and source triangles, each
    source triangle matched to its knn nearest pool triangles."""
    Xs = np.asarray(Xs, dtype=float)
    Xt = np.asarray(Xt, dtype=float)
    ns, nt = Xs.shape[0], Xt.shape[0]
    if ns < 3 or nt < 3:
        raise ValueError("third-order term needs at least 3 points per domain")
    N = ns * nt
    if N**3 >= 2**63:
        raise ValueError("pair-index space too large for 64-bit dedup keys")
    pool, pool_feats = _features_for(Xt, pool)
    if len(pool) == 0:
        raise ValueError("degenerate target domain: no valid triangles")
    source, feats = _features_for(Xs, source)
    if len(source) == 0:
        raise ValueError("degenerate source domain: no valid triangles")
    k = min(knn, len(pool))

    # squared feature distances of all source triangles in one matrix,
    # summed over the three sines in order
    d2 = sum((f[:, None] - p) ** 2 for f, p in zip(feats.T, pool_feats.T))
    # a stable ordering, so nearest-triangle ties resolve by sampling order;
    # each row's kept columns then go back to ascending order
    order = np.sort(np.argsort(d2, axis=1, kind="stable")[:, :k], axis=1)
    cand_d2 = np.take_along_axis(d2, order, axis=1).ravel()
    pairs = np.repeat(source, k, axis=0) * nt + pool[order.ravel()]  # (num candidates, 3)

    mean_sq = float(cand_d2.mean())
    gamma = 1.0 if mean_sq == 0.0 else 1.0 / mean_sq
    vals = np.exp(-gamma * cand_d2)

    # one entry per unordered triangle pair, slots in ascending order; the
    # first sampled copy wins (re-sampled pairs can differ in the last float
    # bits), and np.unique leaves the entries sorted by their key
    canon = np.sort(pairs, axis=1)
    keys = (canon[:, 0] * N + canon[:, 1]) * N + canon[:, 2]
    _, keep = np.unique(keys, return_index=True)
    canon = canon[keep]

    return SparseTensor3(
        p1=canon[:, 0],
        p2=canon[:, 1],
        p3=canon[:, 2],
        values=vals[keep],
        gamma=gamma,
        ns=ns,
        nt=nt,
    )


def reference_triangle_feature(a, b, c):
    """The package's earlier triangle_feature, one triangle at a time.

    Sines of the interior angles at vertices a, b, c.

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


def reference_features_for(X, triples):
    """The package's earlier _features_for, a Python loop over triangles.

    Triangle features for each triple; coincident-point triples are
    dropped.
    """
    feats = np.empty((len(triples), 3))
    keep = np.ones(len(triples), dtype=bool)
    for row, (i, j, k) in enumerate(triples):
        try:
            feats[row] = reference_triangle_feature(X[i], X[j], X[k])
        except ValueError:
            keep[row] = False
    return triples[keep], feats[keep]


def reference_f3_and_grad(C, ctx):
    """The package's earlier f3_and_grad: three gathers and one bincount
    per slot.

    Triple contraction of the symmetric tensor with c = vec(C), and its
    gradient assembled from the three partial contractions.

    Each stored entry stands for the 6 permutations of its distinct pair
    indices, so the contraction over the stored entries is scaled by 6; in
    the gradient each index collects 2 permutations from each of 3 slots.
    """
    H = ctx.tensor
    if H is None or H.m == 0:
        return 0.0, np.zeros_like(C)
    c = C.ravel()
    n = c.size
    w1 = c[H.p1]
    w2 = c[H.p2]
    w3 = c[H.p3]
    value = 6.0 * float(np.dot(H.values, w1 * w2 * w3))
    grad = 6.0 * (
        np.bincount(H.p1, weights=H.values * w2 * w3, minlength=n)
        + np.bincount(H.p2, weights=H.values * w1 * w3, minlength=n)
        + np.bincount(H.p3, weights=H.values * w1 * w2, minlength=n)
    )
    return value, grad.reshape(C.shape)


def reference_fg_and_grad(C, ctx):
    """The package's earlier fg_and_grad: one gather and one np.ix_ scatter
    per class.

    Group lasso over (class, target column) blocks of C.

    Zero-norm groups get subgradient 0, the standard convention.
    """
    if ctx.class_groups is None:
        raise ValueError("group term requires class index sets")
    value = 0.0
    grad = np.zeros_like(C)
    for rows in ctx.class_groups:
        if len(rows) == 0:
            continue
        block = C[rows, :]
        norms = np.sqrt((block**2).sum(axis=0))
        value += float(norms.sum())
        nz = norms > 0.0
        grad[np.ix_(rows, nz)] = block[:, nz] / norms[nz]
    return value, grad
