import numpy as np
import pytest

from hgmda import exemplars
from hgmda.data import pairwise_sq_dists
from hgmda.exemplars import (
    BISECT_STEPS,
    affinity_propagation,
    select_exemplars,
    similarity_matrix,
)

from oracles import kmedoid_exhaustive


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

    def test_eta_out_of_range(self):
        with pytest.raises(ValueError):
            select_exemplars(np.zeros((3, 1)), 0.0)
        with pytest.raises(ValueError):
            select_exemplars(np.zeros((3, 1)), 1.5)

