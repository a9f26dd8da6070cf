import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgmda import graphs
from hgmda.graphs import (
    KNN,
    POOL_FACTOR,
    T_PER_NODE,
    _features_for,
    _nearest_columns,
    _sample_triples,
    _triangle_sines,
    adjacency_matrix,
    build_sparse_tensor,
    sigma_heuristic,
)

from oracles import (
    reference_build_sparse_tensor,
    reference_exhaustive_tensor,
    reference_features_for,
    reference_sample_triples,
    triangle_sines,
)


def sampled_tensor(Xs, Xt, t_per_node=T_PER_NODE, knn=KNN, pool_factor=POOL_FACTOR, seed=0):
    """build_sparse_tensor with its sample-size constants patched for this
    call only; takes the keyword arguments of reference_build_sparse_tensor."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "T_PER_NODE", t_per_node)
        mp.setattr(graphs, "KNN", knn)
        mp.setattr(graphs, "POOL_FACTOR", pool_factor)
        return build_sparse_tensor(Xs, Xt, seed=seed)


def sines_of_one(a, b, c):
    """_triangle_sines of one triangle: its row of sines, or None when two
    of its points coincide."""
    sines, keep = _triangle_sines(*(np.asarray(p, dtype=float)[None] for p in (a, b, c)))
    return sines[0] if keep[0] else None


class TestSigmaHeuristic:
    def test_one_pair(self):
        assert sigma_heuristic(np.array([[0.0], [2.0]])) == pytest.approx(2.0)

    def test_three_points(self):
        assert sigma_heuristic(np.array([[0.0], [1.0], [2.0]])) == pytest.approx(4.0 / 3.0)

    def test_coincident_rejected(self):
        with pytest.raises(ValueError, match="zero bandwidth"):
            sigma_heuristic(np.array([[0.0], [0.0]]))

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            sigma_heuristic(np.array([[1.0, 2.0]]))


class TestAdjacencyMatrix:
    def test_distance_equal_to_sigma(self):
        D = adjacency_matrix(np.array([[0.0], [2.0]]), 2.0)
        assert D[0, 1] == pytest.approx(np.exp(-1.0))

    def test_coincident_entry_one(self):
        D = adjacency_matrix(np.array([[1.0, 1.0], [1.0, 1.0], [5.0, 5.0]]), 1.0)
        assert D[0, 1] == pytest.approx(1.0)

    def test_zero_diagonal(self):
        X = np.random.default_rng(0).normal(size=(6, 3))
        D = adjacency_matrix(X, 1.5)
        assert np.all(np.diag(D) == 0.0)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            adjacency_matrix(np.zeros((2, 2)), 0.0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_symmetry_and_range(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(rng.integers(2, 8), rng.integers(1, 4)))
        D = adjacency_matrix(X, float(rng.uniform(0.1, 5.0)))
        assert np.allclose(D, D.T)
        assert D.min() >= 0.0 and D.max() <= 1.0


class TestTriangleFeature:
    def test_equilateral(self):
        f = sines_of_one([0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2])
        assert np.allclose(f, np.sqrt(3) / 2, atol=1e-12)

    def test_right_isoceles(self):
        f = sines_of_one([0.0, 0.0], [1.0, 0.0], [0.0, 1.0])
        assert np.allclose(f, [1.0, np.sqrt(2) / 2, np.sqrt(2) / 2], atol=1e-12)

    def test_collinear_gives_zeros(self):
        f = sines_of_one([0.0, 0.0], [1.0, 0.0], [2.0, 0.0])
        assert np.array_equal(f, np.zeros(3))

    def test_collinear_off_grid_gives_rounding_level_sines(self):
        # coordinates that are not exact in binary leave the squared area at
        # rounding noise, which the square root lifts to about 1e-8
        assert sines_of_one([0.0, 0.0], [0.1, 0.1], [0.3, 0.3]).max() < 1e-7
        rng = np.random.default_rng(0)
        a, t = rng.normal(size=(2, 800))
        assert sines_of_one(a, a + 0.1 * t, a + 0.3 * t).max() < 1e-7

    def test_coincident_rejected(self):
        assert sines_of_one([1.0, 1.0], [1.0, 1.0], [0.0, 0.0]) is None

    def test_matches_law_of_cosines_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            pts = rng.normal(size=(3, 3))
            assert np.allclose(
                sines_of_one(*pts), triangle_sines(*pts), atol=1e-9
            )

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_similarity_invariance(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(3, 2))
        base = sines_of_one(*pts)
        theta = rng.uniform(0, 2 * np.pi)
        R = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        scale = float(rng.uniform(0.1, 10.0))
        shift = rng.normal(size=2)
        moved = scale * (pts @ R.T) + shift
        assert np.allclose(sines_of_one(*moved), base, atol=1e-9)


class TestGammaHeuristic:
    """gamma as build_sparse_tensor sets it: 1 / the mean squared distance
    between paired triangle features over all candidate pairs, or 1.0 when
    that mean is zero."""

    def test_mean_over_candidate_pairs(self):
        # one source triangle against the 6 vertex orderings of the target
        rng = np.random.default_rng(11)
        Xs = rng.normal(size=(3, 2))
        Xt = rng.normal(size=(3, 2))
        tensor = reference_exhaustive_tensor(Xs, Xt)
        fs = triangle_sines(*Xs)
        d2 = [
            ((fs - triangle_sines(*Xt[list(order)])) ** 2).sum()
            for order in itertools.permutations(range(3))
        ]
        assert tensor.m == 6
        assert tensor.gamma == pytest.approx(1.0 / np.mean(d2), rel=1e-9)

    def test_identical_pairs_fall_back(self):
        # the corners of the unit simplex and a scaled, shifted copy give
        # bit-identical sines in every vertex order: zero mean distance
        Xs = np.eye(3)
        Xt = 2.0 * np.eye(3) + 5.0
        tensor = build_sparse_tensor(Xs, Xt)
        assert tensor.gamma == 1.0
        assert np.all(tensor.values == 1.0)

    def test_empty_rejected(self):
        # coincident target points leave no triangle to pair with
        with pytest.raises(ValueError, match="no valid triangles"):
            build_sparse_tensor(np.eye(3), np.zeros((4, 3)))


def decode(tensor):
    """Stored entries as ((is,it),(js,jt),(ks,kt),value) tuples."""
    nt = tensor.nt
    out = []
    for p1, p2, p3, v in zip(tensor.p1, tensor.p2, tensor.p3, tensor.values):
        out.append(
            (
                (p1 // nt, p1 % nt),
                (p2 // nt, p2 % nt),
                (p3 // nt, p3 % nt),
                v,
            )
        )
    return out


class TestBuildSparseTensor:
    def test_matching_triple_has_value_one(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.9]])
        tensor = sampled_tensor(pts, pts, t_per_node=1, knn=1, seed=0)
        entries = {(a, b, c): v for a, b, c, v in decode(tensor)}
        key = ((0, 0), (1, 1), (2, 2))
        assert key in entries
        assert entries[key] == pytest.approx(1.0)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(7)
        tensor = sampled_tensor(
            rng.normal(size=(4, 2)), rng.normal(size=(4, 2)), t_per_node=5, knn=10, seed=1
        )
        assert tensor.m > 0
        assert np.all(tensor.values > 0.0)
        assert np.all(tensor.values <= 1.0)

    def test_canonical_layout(self):
        # 4 source points give only 4 triangles, so the per-node samples
        # re-draw the same unordered pairs many times over
        rng = np.random.default_rng(9)
        tensor = sampled_tensor(
            rng.normal(size=(4, 2)), rng.normal(size=(5, 2)), t_per_node=3, knn=4, seed=2
        )
        assert tensor.m > 0
        assert np.all(tensor.p1 < tensor.p2)
        assert np.all(tensor.p2 < tensor.p3)
        triples = list(zip(tensor.p1.tolist(), tensor.p2.tolist(), tensor.p3.tolist()))
        assert triples == sorted(set(triples))

    def test_sparse_matches_dense_oracle(self):
        rng = np.random.default_rng(21)
        Xs = rng.normal(size=(5, 2))
        Xt = rng.normal(size=(4, 2))
        tensor = build_sparse_tensor(Xs, Xt)
        for (i_s, i_t), (j_s, j_t), (k_s, k_t), v in decode(tensor):
            fs = triangle_sines(Xs[i_s], Xs[j_s], Xs[k_s])
            ft = triangle_sines(Xt[i_t], Xt[j_t], Xt[k_t])
            expected = np.exp(-tensor.gamma * ((fs - ft) ** 2).sum())
            assert v == pytest.approx(expected, rel=1e-9)

    def test_similarity_transform_leaves_values_unchanged(self):
        rng = np.random.default_rng(31)
        Xs = rng.normal(size=(4, 2))
        Xt = rng.normal(size=(4, 2))
        base = build_sparse_tensor(Xs, Xt)
        theta = 1.1
        R = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        moved = 3.0 * (Xt @ R.T) + np.array([5.0, -2.0])
        again = build_sparse_tensor(Xs, moved)
        assert np.array_equal(base.p1, again.p1)
        assert np.allclose(base.values, again.values, atol=1e-9)
        assert again.gamma == pytest.approx(base.gamma, rel=1e-9)

    def test_determinism_under_seed(self):
        rng = np.random.default_rng(13)
        Xs = rng.normal(size=(6, 2))
        Xt = rng.normal(size=(6, 2))
        t1 = sampled_tensor(Xs, Xt, t_per_node=4, knn=6, seed=77)
        t2 = sampled_tensor(Xs, Xt, t_per_node=4, knn=6, seed=77)
        assert np.array_equal(t1.p1, t2.p1)
        assert np.array_equal(t1.values, t2.values)

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least 3"):
            build_sparse_tensor(np.zeros((2, 2)), np.zeros((5, 2)))


def lattice(n, side):
    """The first n points of a side x side integer grid: many congruent
    triangles, so many equal feature distances."""
    return np.array([[i // side, i % side] for i in range(n)], dtype=float)


def normals(seed, ns, nt, d):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(ns, d)), rng.normal(size=(nt, d))


def coincident_source():
    """Twelve source points, five of them coincident, and nine target
    points: the coincident nodes lose some of their sampled triangles."""
    rng = np.random.default_rng(8)
    return np.vstack([np.zeros((5, 2)), rng.normal(size=(7, 2))]), rng.normal(size=(9, 2))


# (Xs, Xt, keyword arguments of reference_build_sparse_tensor and sampled_tensor)
REFERENCE_CASES = {
    "lattice-ties": (
        lattice(10, 4), lattice(12, 4) + 3.0,
        dict(t_per_node=20, knn=25, pool_factor=6, seed=3),
    ),
    "lattice-square": (
        lattice(16, 4), lattice(16, 4), dict(t_per_node=30, knn=100, pool_factor=20, seed=5),
    ),
    # a pool of 3 * 5 target triangles, all of them kept
    "k-is-pool": (*normals(1, 6, 5, 2), dict(t_per_node=4, knn=15, pool_factor=3, seed=1)),
    # five times the package's source triangles per node: the bit-identity
    # check keeps covering a full-size sample
    "2-d": (*normals(3, 30, 60, 2), dict(t_per_node=50, knn=300, pool_factor=20, seed=7)),
    "800-d": (*normals(4, 12, 15, 800), dict(t_per_node=10, knn=30, pool_factor=5, seed=2)),
    # nodes among the coincident points keep fewer triangles: at seed 1 one
    # keeps none, at seed 4 one keeps a single triangle, which the build
    # must score alone as the per-node reference does
    "coincident-empty-node": (*coincident_source(), dict(t_per_node=7, knn=20, pool_factor=5, seed=1)),
    "coincident-one-triangle": (*coincident_source(), dict(t_per_node=7, knn=20, pool_factor=5, seed=4)),
}


class TestMatchesFullSortReference:
    """The partial-selection build returns the full-sort build's tensor bit
    for bit: same entries in the same order, same dtypes, same gamma."""

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_bit_identical(self, case):
        Xs, Xt, kwargs = REFERENCE_CASES[case]
        got = sampled_tensor(Xs, Xt, **kwargs)
        want = reference_build_sparse_tensor(Xs, Xt, **kwargs)
        assert got.m > 0
        for name in ("p1", "p2", "p3", "values"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
        assert got.gamma == want.gamma
        assert (got.ns, got.nt) == (want.ns, want.nt)

    @pytest.mark.parametrize(
        "case, fewest", [("coincident-empty-node", 0), ("coincident-one-triangle", 1)]
    )
    def test_coincident_cases_lose_triangles(self, case, fewest):
        # the fewest source triangles a node of the case keeps
        Xs, _, kwargs = REFERENCE_CASES[case]
        ns, count = len(Xs), kwargs["t_per_node"]
        children = np.random.SeedSequence(kwargs["seed"]).spawn(ns + 1)
        kept = [
            len(_features_for(Xs, _sample_triples(np.random.default_rng(c), ns, count, anchor=i))[0])
            for i, c in enumerate(children[:ns])
        ]
        assert min(kept) == fewest

    @pytest.mark.parametrize("k", [1, 2, 5, 9, 10])
    @pytest.mark.parametrize("seed", range(4))
    def test_nearest_columns_are_a_stable_argsort_prefix(self, k, seed):
        # values from {0, 1, 2}: every row ties at its k-th value
        d2 = np.random.default_rng(seed).integers(0, 3, size=(30, 10)).astype(float)
        want = np.argsort(d2, axis=1, kind="stable")[:, :k]
        cols, dists = _nearest_columns(d2, k)
        assert np.array_equal(cols, want)
        assert np.array_equal(dists, np.take_along_axis(d2, want, axis=1))

    @pytest.mark.parametrize("seed", range(2))
    def test_nearest_columns_at_the_build_width(self, seed):
        # the build keeps 300 of 1,600 pool triangles, and a pool that drew
        # a triangle twice has two equal columns: most rows tie somewhere
        # among the kept distances, many times over
        rng = np.random.default_rng(seed)
        d2 = rng.random((40, 1200))
        d2 = np.hstack([d2, d2[:, rng.integers(0, 1200, size=400)]])[:, rng.permutation(1600)]
        want = np.argsort(d2, axis=1, kind="stable")[:, :300]
        cols, dists = _nearest_columns(d2, 300)
        assert np.array_equal(cols, want)
        assert np.array_equal(dists, np.take_along_axis(d2, want, axis=1))

    @pytest.mark.parametrize("seed", range(4))
    def test_nearest_columns_without_ties(self, seed):
        # distinct values: no row takes the stable re-sort
        d2 = np.random.default_rng(seed).permutation(400).reshape(20, 20) / 7.0
        want = np.argsort(d2, axis=1, kind="stable")[:, :8]
        cols, dists = _nearest_columns(d2, 8)
        assert np.array_equal(cols, want)
        assert np.array_equal(dists, np.take_along_axis(d2, want, axis=1))


class TestSampleTriples:
    """One rng.integers call gives the triples that one rng.choice call per
    row gave, and leaves the generator in the same state."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=3, max_value=2000),
        count=st.integers(min_value=1, max_value=200),
        anchored=st.booleans(),
        data=st.data(),
    )
    def test_matches_one_choice_call_per_row(self, seed, n, count, anchored, data):
        anchor = data.draw(st.integers(min_value=0, max_value=n - 1)) if anchored else None
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _sample_triples(got_rng, n, count, anchor=anchor)
        want = reference_sample_triples(want_rng, n, count, anchor=anchor)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("anchor", [None, 0, 1, 2])
    @pytest.mark.parametrize("seed", range(5))
    def test_smallest_population(self, seed, anchor):
        # n = 3: anchored, the first draw's range is 0..0 and takes no bits
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _sample_triples(got_rng, 3, 7, anchor=anchor)
        want = reference_sample_triples(want_rng, 3, 7, anchor=anchor)
        assert np.array_equal(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert np.array_equal(np.sort(got, axis=1), np.tile([0, 1, 2], (7, 1)))


def feature_case(case):
    """Points and index triples for the feature pass. Besides Gaussian
    points there are integer points, whose coincident and collinear triples
    are exact, and repeated indices."""
    if case == "lattice":
        X = lattice(16, 4)
        triples = np.array(list(itertools.permutations(range(16), 3)) + [(0, 0, 1)])
        return X, triples
    d = int(case.removesuffix("-d"))
    rng = np.random.default_rng(d)
    corner = rng.integers(-2, 3, size=d)
    step = 1 + np.arange(d) % 2
    X = np.vstack([
        rng.normal(size=(30, d)),
        rng.integers(-2, 3, size=(30, d)),
        [corner, corner + step, corner + 3 * step, corner],
    ]).astype(float)
    triples = np.vstack([rng.integers(0, len(X), size=(2000, 3)), [[60, 61, 62], [60, 63, 5], [7, 7, 8]]])
    return X, triples


class TestFeaturePass:
    """The vectorised feature pass against the earlier per-triangle loop:
    the same triples kept, and the same sines to 1e-12 (its dot products
    round differently)."""

    @pytest.mark.parametrize("case", ["2-d", "3-d", "800-d", "lattice"])
    def test_matches_per_triangle_loop(self, case):
        X, triples = feature_case(case)
        got_triples, got = _features_for(X, triples)
        want_triples, want = reference_features_for(X, triples)
        assert np.array_equal(got_triples, want_triples)
        assert len(want_triples) < len(triples)  # coincident triples dropped
        collinear = (want == 0.0).all(axis=1)
        assert collinear.any()
        assert np.array_equal(got[collinear], want[collinear])
        assert np.abs(got - want).max() <= 1e-12

    def test_no_triples(self):
        triples, feats = _features_for(np.eye(3), np.empty((0, 3), dtype=int))
        assert triples.shape == (0, 3) and feats.shape == (0, 3)


class TestBuildMemory:
    def test_peak_is_bounded_by_the_tensor(self):
        # the tensor-hg benchmark shape, 40 x 80 points in 2-d, at the default
        # sample sizes. The dedup needs five candidate-sized arrays at once
        # against the tensor's four; one more array kept alive needlessly
        # (such as the unsorted keys) breaks the bound
        Xs, Xt = normals(6, 40, 80, 2)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            tensor = build_sparse_tensor(Xs, Xt, seed=1)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        returned = sum(a.nbytes for a in (tensor.p1, tensor.p2, tensor.p3, tensor.values))
        assert peak <= 1.5 * returned
