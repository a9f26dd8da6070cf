from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hgmda import objective
from hgmda.data import class_index_sets
from hgmda.graphs import SparseTensor3
from hgmda.objective import (
    ObjectiveContext,
    ObjectiveWeights,
    f1_and_grad,
    f2_and_grad,
    f3_and_grad,
    fg_and_grad,
    marginals,
    total_objective,
    uniform_matching,
)

from oracles import (
    central_difference_grad,
    dense_contraction,
    dense_tensor,
    reference_build_sparse_tensor,
    reference_exhaustive_tensor,
    reference_f3_and_grad,
    reference_fg_and_grad,
)
from test_graphs import REFERENCE_CASES, normals


def random_context(rng, ns=None, nt=None, d=None, with_tensor=False, with_groups=False):
    ns = ns or int(rng.integers(3, 7))
    nt = nt or int(rng.integers(3, 7))
    d = d or int(rng.integers(2, 5))
    Xs = rng.normal(size=(ns, d))
    Xt = rng.normal(size=(nt, d))

    def adjacency(n):
        A = rng.uniform(0.0, 1.0, size=(n, n))
        A = (A + A.T) / 2.0
        np.fill_diagonal(A, 0.0)
        return A

    tensor = reference_exhaustive_tensor(Xs, Xt) if with_tensor else None
    groups = None
    if with_groups:
        labels = rng.integers(1, 3, size=ns)
        labels[0] = 1
        labels[1] = 2
        groups = class_index_sets(labels, 2)
    return ObjectiveContext(
        Xs=Xs, Xt=Xt, Ds=adjacency(ns), Dt=adjacency(nt), tensor=tensor, class_groups=groups
    )


def interior_matrix(rng, ns, nt):
    return rng.uniform(0.2, 1.0, size=(ns, nt))


def rel_err(got, want):
    return np.abs(got - want).max() / max(np.abs(want).max(), 1e-12)


class TestF1:
    def test_exact_match_is_zero(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(4, 3))
        ctx = ObjectiveContext(X, X, np.zeros((4, 4)), np.zeros((4, 4)))
        v, g = f1_and_grad(np.eye(4), ctx)
        assert v == 0.0
        assert np.array_equal(g, np.zeros((4, 4)))

    def test_scalar_case(self):
        ctx = ObjectiveContext(
            np.array([[0.0]]), np.array([[2.0]]), np.zeros((1, 1)), np.zeros((1, 1))
        )
        v, g = f1_and_grad(np.array([[1.0]]), ctx)
        assert v == pytest.approx(4.0)
        assert g[0, 0] == pytest.approx(8.0)

    def test_finite_differences(self):
        rng = np.random.default_rng(1)
        ctx = random_context(rng)
        C = interior_matrix(rng, ctx.ns, ctx.nt)
        _, g = f1_and_grad(C, ctx)
        fd = central_difference_grad(lambda M: f1_and_grad(M, ctx)[0], C)
        assert rel_err(g, fd) < 1e-6


class TestF2:
    def test_identity_with_shared_graph(self):
        rng = np.random.default_rng(2)
        A = rng.uniform(size=(4, 4))
        A = (A + A.T) / 2.0
        np.fill_diagonal(A, 0.0)
        X = rng.normal(size=(4, 2))
        ctx = ObjectiveContext(X, X, A, A)
        v, g = f2_and_grad(np.eye(4), ctx)
        assert v == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(g, 0.0, atol=1e-15)

    def test_zero_matching(self):
        rng = np.random.default_rng(3)
        ctx = random_context(rng)
        v, g = f2_and_grad(np.zeros((ctx.ns, ctx.nt)), ctx)
        assert v == 0.0
        assert np.array_equal(g, np.zeros((ctx.ns, ctx.nt)))

    def test_finite_differences(self):
        rng = np.random.default_rng(4)
        ctx = random_context(rng)
        C = interior_matrix(rng, ctx.ns, ctx.nt)
        _, g = f2_and_grad(C, ctx)
        fd = central_difference_grad(lambda M: f2_and_grad(M, ctx)[0], C)
        assert rel_err(g, fd) < 1e-6


def single_orbit_tensor(h, slots, ns, nt):
    """One canonical entry, standing for the 6 permutations of slots."""
    p1, p2, p3 = sorted(slots)
    return SparseTensor3(
        p1=np.array([p1]),
        p2=np.array([p2]),
        p3=np.array([p3]),
        values=np.array([h]),
        gamma=1.0,
        ns=ns,
        nt=nt,
    )


class TestF3:
    def test_empty_tensor_is_zero(self):
        rng = np.random.default_rng(5)
        ctx = random_context(rng)
        empty = np.array([], dtype=np.int64)
        ctx = replace(ctx, tensor=SparseTensor3(empty, empty, empty, np.ones(0), 1.0,
                                                ctx.ns, ctx.nt))
        v, g = f3_and_grad(uniform_matching(ctx.ns, ctx.nt), ctx)
        assert v == 0.0
        assert np.array_equal(g, np.zeros((ctx.ns, ctx.nt)))

    def test_missing_tensor_raises(self):
        # at lam3 > 0 the total needs the term, so a context without a tensor
        # is an error, as a missing class grouping is for the group term
        rng = np.random.default_rng(5)
        ctx = random_context(rng)
        C = uniform_matching(ctx.ns, ctx.nt)
        with pytest.raises(ValueError, match="triangle tensor"):
            f3_and_grad(C, ctx)
        with pytest.raises(ValueError, match="triangle tensor"):
            total_objective(C, ctx, ObjectiveWeights(lam3=0.1))

    def test_single_orbit_entry(self):
        h = 0.7
        tensor = single_orbit_tensor(h, (0, 4, 8), ns=3, nt=3)
        rng = np.random.default_rng(6)
        X = rng.normal(size=(3, 2))
        ctx = ObjectiveContext(X, X, np.zeros((3, 3)), np.zeros((3, 3)), tensor=tensor)
        v, g = f3_and_grad(np.eye(3), ctx)
        assert v == pytest.approx(6.0 * h)
        # each diagonal slot collects the full orbit: 3 slots x 2 permutations
        assert np.allclose(np.diag(g), 6.0 * h)
        off = g[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 0.0)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        ctx = random_context(rng, ns=4, nt=4, with_tensor=True)
        C = interior_matrix(rng, 4, 4)
        v, g = f3_and_grad(C, ctx)
        t = ctx.tensor
        H = dense_tensor(zip(t.p1, t.p2, t.p3, t.values), 4, 4)
        ov, og = dense_contraction(H, C.ravel())
        assert v == pytest.approx(ov, rel=1e-12)
        assert np.allclose(g.ravel(), og, rtol=1e-12, atol=1e-15)

    def test_finite_differences(self):
        rng = np.random.default_rng(8)
        ctx = random_context(rng, ns=4, nt=5, with_tensor=True)
        C = interior_matrix(rng, 4, 5)
        _, g = f3_and_grad(C, ctx)
        fd = central_difference_grad(lambda M: f3_and_grad(M, ctx)[0], C)
        assert rel_err(g, fd) < 1e-6

    def test_non_negative_on_non_negative_inputs(self):
        rng = np.random.default_rng(9)
        ctx = random_context(rng, ns=4, nt=4, with_tensor=True)
        C = rng.uniform(0.0, 1.0, size=(4, 4))
        v, _ = f3_and_grad(C, ctx)
        assert v >= 0.0


def assert_matches_bincount_reference(C, ctx):
    value, grad = f3_and_grad(C, ctx)
    want_value, want_grad = reference_f3_and_grad(C, ctx)
    assert abs(value - want_value) <= 1e-12 * abs(want_value)
    assert np.abs(grad - want_grad).max() <= 1e-12 * np.abs(want_grad).max()
    return value, grad


class TestF3MatchesBincountReference:
    """The blocked contraction against the earlier three-bincount form, to
    1e-12 relative: it sums the same products in another order."""

    # the sampled tensors are the package's bit for bit (test_graphs); the
    # exhaustive one holds every triangle pair
    CASES = {**REFERENCE_CASES, "exhaustive": (*normals(2, 5, 4, 2), None)}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_reference_case_tensors(self, case):
        Xs, Xt, kwargs = self.CASES[case]
        if kwargs is None:
            tensor = reference_exhaustive_tensor(Xs, Xt)
        else:
            tensor = reference_build_sparse_tensor(Xs, Xt, **kwargs)
        ns, nt = len(Xs), len(Xt)
        ctx = ObjectiveContext(Xs, Xt, np.zeros((ns, ns)), np.zeros((nt, nt)), tensor=tensor)
        C = interior_matrix(np.random.default_rng(len(case)), ns, nt)
        assert_matches_bincount_reference(C, ctx)

    @pytest.mark.parametrize("block", [1, 2, 4, objective.F3_BLOCK])
    def test_short_runs_and_empty_bins(self, monkeypatch, block):
        # p1 runs of length 1 (0, 5, 7) and 3 (2); pair indices 1, 3, 4, 6
        # and 8-11 start no entry. Small blocks cut the run of p1 = 2 and
        # leave a short last block
        monkeypatch.setattr(objective, "F3_BLOCK", block)
        tensor = SparseTensor3(
            p1=np.array([0, 2, 2, 2, 5, 7]),
            p2=np.array([1, 3, 3, 6, 9, 8]),
            p3=np.array([4, 4, 11, 10, 10, 11]),
            values=np.random.default_rng(12).uniform(0.1, 1.0, size=6),
            gamma=1.0,
            ns=3,
            nt=4,
        )
        X = np.zeros((3, 2))
        ctx = ObjectiveContext(X, np.zeros((4, 2)), np.zeros((3, 3)), np.zeros((4, 4)), tensor=tensor)
        C = interior_matrix(np.random.default_rng(13), 3, 4)
        first = assert_matches_bincount_reference(C, ctx)
        # the run index is computed on the first call and reused after it
        assert "p1_runs" in vars(tensor)
        again = assert_matches_bincount_reference(C, ctx)
        assert first[0] == again[0] and np.array_equal(first[1], again[1])


class TestTensorIndexRange:
    """A 3 x 4 tensor takes pair indices 0..11 only. A negative index used
    to pass: the f3 gathers and np.add.at wrap it to the last pair."""

    @pytest.mark.parametrize("bad", [-1, 12])
    @pytest.mark.parametrize("slot", ["p1", "p2", "p3"])
    def test_rejected_at_construction(self, slot, bad):
        indices = dict(p1=np.array([0, 2]), p2=np.array([1, 5]), p3=np.array([4, 11]))
        indices[slot] = indices[slot].copy()
        indices[slot][1] = bad
        with pytest.raises(ValueError, match=f"{slot} holds a pair index outside"):
            SparseTensor3(**indices, values=np.ones(2), gamma=1.0, ns=3, nt=4)

    def test_bounds_and_empty_accepted(self):
        tensor = SparseTensor3(
            p1=np.array([0]), p2=np.array([1]), p3=np.array([11]),
            values=np.ones(1), gamma=1.0, ns=3, nt=4,
        )
        assert tensor.m == 1
        empty = np.array([], dtype=np.int64)
        assert SparseTensor3(empty, empty, empty, np.ones(0), 1.0, 3, 4).m == 0


class TestFg:
    def test_identity_unit_groups(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(2, 2))
        ctx = ObjectiveContext(
            X,
            X,
            np.zeros((2, 2)),
            np.zeros((2, 2)),
            class_groups=class_index_sets(np.array([1, 2]), 2),
        )
        v, g = fg_and_grad(np.eye(2), ctx)
        assert v == pytest.approx(2.0)
        assert np.allclose(g, np.eye(2))

    def test_zero_matrix_subgradient(self):
        rng = np.random.default_rng(11)
        ctx = random_context(rng, with_groups=True)
        v, g = fg_and_grad(np.zeros((ctx.ns, ctx.nt)), ctx)
        assert v == 0.0
        assert np.array_equal(g, np.zeros((ctx.ns, ctx.nt)))

    def test_finite_differences_strictly_positive(self):
        rng = np.random.default_rng(12)
        ctx = random_context(rng, with_groups=True)
        C = interior_matrix(rng, ctx.ns, ctx.nt)
        _, g = fg_and_grad(C, ctx)
        fd = central_difference_grad(lambda M: fg_and_grad(M, ctx)[0], C)
        assert rel_err(g, fd) < 1e-6

    def test_requires_groups(self):
        rng = np.random.default_rng(13)
        ctx = random_context(rng)
        with pytest.raises(ValueError, match="class index sets"):
            fg_and_grad(uniform_matching(ctx.ns, ctx.nt), ctx)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_within_class_row_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        ns, nt = 6, 4
        labels = np.array([1, 1, 1, 2, 2, 2])
        groups = class_index_sets(labels, 2)
        X = rng.normal(size=(ns, 3))
        ctx = ObjectiveContext(
            X, rng.normal(size=(nt, 3)), np.zeros((ns, ns)), np.zeros((nt, nt)),
            class_groups=groups,
        )
        C = rng.uniform(0.0, 1.0, size=(ns, nt))
        v, _ = fg_and_grad(C, ctx)
        perm = np.r_[rng.permutation(3), 3 + rng.permutation(3)]
        Cp = C[perm, :]
        vp, _ = fg_and_grad(Cp, ctx)
        assert vp == pytest.approx(v, rel=1e-12)


class TestFgMatchesLoopReference:
    """The gathered group lasso against the earlier per-class loop, bit for
    bit: each class's column norms and the value's per-class sums are taken
    in the same order, so value and gradient must be ==."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=120),
        st.integers(min_value=1, max_value=12),
        st.sampled_from(["dense", "zero-blocks", "all-zero", "underflow"]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    # every row its own class, more classes than rows (empty classes), one
    # row and one column, and an all-zero C
    @example(ns=12, nt=30, classes=12, mode="dense", seed=0)
    @example(ns=5, nt=7, classes=12, mode="zero-blocks", seed=1)
    @example(ns=1, nt=1, classes=1, mode="dense", seed=2)
    @example(ns=40, nt=100, classes=10, mode="all-zero", seed=3)
    def test_matches_per_class_loop(self, ns, nt, classes, mode, seed):
        rng = np.random.default_rng(seed)
        # label 0 is no class, so some rows lie in no group
        labels = rng.integers(0, classes + 1, size=ns)
        groups = class_index_sets(labels, classes)
        C = rng.uniform(0.0, 1.0, size=(ns, nt))
        if mode == "zero-blocks":
            # columns that are zero within a class, and some whole rows
            for rows in groups:
                C[np.ix_(rows, rng.random(nt) < 0.4)] = 0.0
            C[rng.random(ns) < 0.2] = 0.0
        elif mode == "all-zero":
            C[:] = 0.0
        elif mode == "underflow":
            # squares that underflow to 0 give zero norms over non-zero entries
            C *= 10.0 ** rng.uniform(-170.0, 0.0, size=(ns, nt))
        ctx = ObjectiveContext(
            np.zeros((ns, 1)), np.zeros((nt, 1)), np.zeros((ns, ns)), np.zeros((nt, nt)),
            class_groups=groups,
        )
        value, grad = fg_and_grad(C, ctx)
        want_value, want_grad = reference_fg_and_grad(C, ctx)
        assert value == want_value
        assert np.array_equal(grad, want_grad)


class TestTotal:
    def test_zero_weights_reduce_to_first_term(self):
        rng = np.random.default_rng(14)
        ctx = random_context(rng)
        C = interior_matrix(rng, ctx.ns, ctx.nt)
        v, g = total_objective(C, ctx, ObjectiveWeights())
        v1, g1 = f1_and_grad(C, ctx)
        assert v == v1
        assert np.array_equal(g, g1)

    def test_tensor_term_lowers_total_on_aligned_support(self):
        h = 0.9
        tensor = single_orbit_tensor(h, (0, 4, 8), ns=3, nt=3)
        rng = np.random.default_rng(15)
        X = rng.normal(size=(3, 2))
        ctx = ObjectiveContext(X, X, np.zeros((3, 3)), np.zeros((3, 3)), tensor=tensor)
        C = np.eye(3)
        with_tensor, _ = total_objective(C, ctx, ObjectiveWeights(lam3=0.5))
        without, _ = total_objective(C, ctx, ObjectiveWeights())
        assert with_tensor < without

    def test_finite_differences_all_terms(self):
        rng = np.random.default_rng(16)
        ctx = random_context(rng, ns=4, nt=5, with_tensor=True, with_groups=True)
        w = ObjectiveWeights(lam2=0.3, lam3=0.2, lam_g=0.1)
        C = interior_matrix(rng, 4, 5)
        _, g = total_objective(C, ctx, w)
        fd = central_difference_grad(lambda M: total_objective(M, ctx, w)[0], C)
        assert rel_err(g, fd) < 1e-6

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            ObjectiveWeights(lam2=-0.1)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_smooth_terms_non_negative(self, seed):
        rng = np.random.default_rng(seed)
        ctx = random_context(rng)
        C = rng.normal(size=(ctx.ns, ctx.nt))
        assert f1_and_grad(C, ctx)[0] >= 0.0
        assert f2_and_grad(C, ctx)[0] >= 0.0


class TestHelpers:
    def test_uniform_matching_is_feasible(self):
        C = uniform_matching(3, 5)
        a, b = marginals(3, 5)
        assert np.allclose(C.sum(axis=1), a)
        assert np.allclose(C.sum(axis=0), b)

    def test_marginals_example(self):
        a, b = marginals(4, 2)
        assert np.array_equal(a, np.ones(4))
        assert np.array_equal(b, np.full(2, 2.0))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ObjectiveContext(
                np.zeros((3, 2)), np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 3))
            )

    @pytest.mark.parametrize("Ds, Dt", [((2, 2), (4, 4)), ((3, 3), (3, 3)), ((3, 4), (4, 4))])
    def test_adjacency_shape_mismatch_rejected(self, Ds, Dt):
        # 3 source and 4 target rows need a 3 x 3 and a 4 x 4 adjacency
        with pytest.raises(ValueError, match="adjacency shapes inconsistent"):
            ObjectiveContext(np.zeros((3, 2)), np.zeros((4, 2)), np.zeros(Ds), np.zeros(Dt))
