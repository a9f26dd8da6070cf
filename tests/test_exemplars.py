import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgmda import exemplars
from hgmda.data import pairwise_sq_dists
from hgmda.exemplars import (
    BISECT_STEPS,
    affinity_propagation,
    select_exemplars,
    similarity_matrix,
)
from hgmda.synthetic import rotated_gaussian_task

from oracles import kmedoid_exhaustive, reference_affinity_propagation


def cluster_data(seed=2, spread=0.1):
    """Three well-separated clusters of 10 points (centers 10 apart)."""
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    return np.vstack([c + spread * rng.normal(size=(10, 2)) for c in centers])


# frozen from the exhaustive 3-medoid oracle on cluster_data(seed=2)
CLUSTER_MEDOIDS = {4, 17, 27}


def test_frozen_medoids_still_match_oracle():
    assert kmedoid_exhaustive(cluster_data(), 3) == CLUSTER_MEDOIDS


class TestSimilarityMatrix:
    def test_unit_distance(self):
        S = similarity_matrix(np.array([[0.0], [1.0]]), -1.0)
        assert np.array_equal(S, [[-1.0, -1.0], [-1.0, -1.0]])

    def test_coincident(self):
        S = similarity_matrix(np.array([[0.0], [0.0]]), 0.0)
        assert np.array_equal(S, np.zeros((2, 2)))

    def test_three_four_five(self):
        S = similarity_matrix(np.array([[0.0, 0.0], [3.0, 4.0]]), -2.0)
        assert S[0, 1] == pytest.approx(-25.0)
        assert S[1, 0] == pytest.approx(-25.0)
        assert S[0, 0] == S[1, 1] == -2.0


class TestAffinityPropagation:
    def test_single_point(self):
        ex, converged = affinity_propagation(np.array([[-3.0]]))
        assert ex.tolist() == [0]
        assert converged

    def test_three_clusters_find_medoids(self):
        X = cluster_data()
        S = similarity_matrix(X, float(np.median(-pairwise_sq_dists(X))))
        ex, converged = affinity_propagation(S)
        assert converged
        assert set(ex.tolist()) == CLUSTER_MEDOIDS

    def test_high_preference_all_exemplars(self):
        X = cluster_data()
        ex, _ = affinity_propagation(similarity_matrix(X, 0.0))
        assert len(ex) == len(X)

    def test_never_empty(self):
        # coincident points give an all-zero similarity landscape
        S = np.zeros((4, 4))
        ex, _ = affinity_propagation(S)
        assert len(ex) >= 1

    def test_determinism(self):
        X = np.random.default_rng(5).normal(size=(25, 3))
        S = similarity_matrix(X, -4.0)
        a, _ = affinity_propagation(S)
        b, _ = affinity_propagation(S)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", range(10))
    def test_count_monotone_in_preference(self, seed):
        X = np.random.default_rng(300 + seed).normal(size=(15, 2))
        p_lo = 2.0 * (-pairwise_sq_dists(X)).min()
        counts = []
        for p in np.linspace(p_lo, 0.0, 5):
            ex, converged = affinity_propagation(similarity_matrix(X, p))
            if converged:
                counts.append(len(ex))
        assert counts == sorted(counts)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_fresh_message_reference(self, seed):
        # the in-place message updates give the earlier loop's exemplars
        # and convergence exactly, on data with and without tied distances
        # and at preferences across the bisection bracket
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(1, 131)), int(rng.integers(1, 5))
        X = rng.normal(size=(n, d))
        if rng.random() < 0.3:
            X = np.round(X, 1)
        S = similarity_matrix(X, 0.0)
        np.fill_diagonal(S, rng.uniform(0.0, 2.0) * S.min())
        S_before = S.copy()
        ex, converged = affinity_propagation(S)
        ref_ex, ref_converged = reference_affinity_propagation(S)
        assert np.array_equal(ex, ref_ex) and ex.dtype == ref_ex.dtype
        assert converged == ref_converged
        assert np.array_equal(S, S_before)

    @staticmethod
    def no_convergence_case():
        # a preference the bisection tries on the 120-point rotated target:
        # the exemplar set is still changing at MAX_ITERS
        _, X, _ = rotated_gaussian_task(n_per_class=60, seed=4)
        S = similarity_matrix(X, 0.0)
        np.fill_diagonal(S, 3.0 / 8192.0 * S.min())
        return S

    @staticmethod
    def zero_preference_case():
        # distinct points at preference 0: every point is its own exemplar
        return similarity_matrix(np.random.default_rng(7).normal(size=(50, 3)), 0.0)

    @staticmethod
    def tied_rows_case():
        # each point three times: every row's largest a + s ties between
        # the point's other two copies, ties that argmax settles
        X = np.repeat(np.random.default_rng(8).normal(size=(20, 2)), 3, axis=0)
        S = similarity_matrix(X, 0.0)
        np.fill_diagonal(S, 0.5 * S.min())
        assert np.all((S == S.max(axis=1, keepdims=True)).sum(axis=1) == 2)
        return S

    @pytest.mark.parametrize("case, converges, count", [
        ("no_convergence_case", False, None),
        ("zero_preference_case", True, 50),
        ("tied_rows_case", True, None),
    ])
    def test_matches_fresh_message_reference_on_fixed_cases(self, case, converges, count):
        S = getattr(self, case)()
        ex, converged = affinity_propagation(S)
        ref_ex, ref_converged = reference_affinity_propagation(S)
        assert np.array_equal(ex, ref_ex) and ex.dtype == ref_ex.dtype
        assert converged == ref_converged == converges
        assert count is None or len(ex) == count

    @pytest.mark.parametrize("n, eta", [(40, 0.5), (120, 0.5), (30, 0.1)])
    def test_selection_matches_fresh_message_reference(self, monkeypatch, n, eta):
        X = np.random.default_rng(n).normal(size=(n, 10))
        got = select_exemplars(X, eta)
        monkeypatch.setattr(exemplars, "affinity_propagation", reference_affinity_propagation)
        want = select_exemplars(X, eta)
        assert np.array_equal(got.indices, want.indices)
        assert (got.converged, got.preference, got.ap_runs) == (
            want.converged, want.preference, want.ap_runs)


class TestSelectExemplars:
    def test_eta_one_bypasses(self):
        X = np.random.default_rng(0).normal(size=(8, 2))
        got = select_exemplars(X, 1.0)
        assert got.indices.tolist() == list(range(8))
        assert np.array_equal(got.features, X)
        assert got.converged

    def test_eta_point_one_finds_medoids(self):
        got = select_exemplars(cluster_data(), 0.1)
        assert set(got.indices.tolist()) == CLUSTER_MEDOIDS

    @pytest.mark.parametrize("seed", range(5))
    def test_half_of_twenty_normals(self, seed):
        X = np.random.default_rng(100 + seed).normal(size=(20, 2))
        got = select_exemplars(X, 0.5)
        assert 8 <= got.count <= 12

    def test_features_are_exact_rows(self):
        X = np.random.default_rng(1).normal(size=(30, 4))
        got = select_exemplars(X, 0.3)
        assert np.array_equal(got.features, X[got.indices])
        assert np.all(np.diff(got.indices) > 0)

    def test_labels_follow_indices(self):
        X = cluster_data()
        labels = np.repeat([1, 2, 3], 10)
        got = select_exemplars(X, 0.1, labels=labels)
        assert np.array_equal(got.labels, labels[got.indices])

    def test_records_the_preference_that_chose_them(self):
        X = np.random.default_rng(1).normal(size=(30, 4))
        got = select_exemplars(X, 0.3)
        # two bracket runs, then bisection steps up to the budget
        assert 1 <= got.ap_runs <= 2 + BISECT_STEPS
        ex, converged = affinity_propagation(similarity_matrix(X, got.preference))
        assert np.array_equal(np.sort(ex), got.indices)
        assert converged == got.converged

    def test_bracket_hit_takes_one_run(self):
        # the lowest preference, 2 * min similarity, already leaves one
        # exemplar per cluster, the 3 that eta asks for
        X = cluster_data()
        got = select_exemplars(X, 0.1)
        assert got.count == 3
        assert got.ap_runs == 1
        assert got.preference == 2.0 * (-pairwise_sq_dists(X)).min()

    def test_exhausted_budget_counts_every_run(self, monkeypatch):
        # no preference leaves fewer than one exemplar per cluster, so the
        # count is missed and the closest run wins; the bracket's low end
        # already gives too many, so no bisection step runs
        calls = []

        def counted(S):
            calls.append(1)
            return affinity_propagation(S)

        monkeypatch.setattr(exemplars, "affinity_propagation", counted)
        got = select_exemplars(cluster_data(), 1.0 / 30.0)
        assert got.count == 3
        assert got.ap_runs == len(calls) == 2

    def test_eta_one_runs_no_ap(self):
        got = select_exemplars(np.zeros((3, 1)), 1.0)
        assert got.ap_runs == 0
        assert got.preference is None
        assert got.target is None

    @pytest.mark.parametrize("n, eta, target", [(40, 0.5, 20), (30, 0.01, 1), (30, 1 / 30, 1)])
    def test_records_the_count_target(self, n, eta, target):
        # max(1, round(eta * n)), whether or not the count met it
        got = select_exemplars(np.random.default_rng(n).normal(size=(n, 3)), eta)
        assert got.target == target

    def test_eta_out_of_range(self):
        with pytest.raises(ValueError):
            select_exemplars(np.zeros((3, 1)), 0.0)
        with pytest.raises(ValueError):
            select_exemplars(np.zeros((3, 1)), 1.5)

