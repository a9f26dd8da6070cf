import json
import re
import warnings

import numpy as np
import pytest

from hgmda import exemplars, pipeline, solver
from hgmda.data import LabeledDataset, NonFiniteError
from hgmda.evaluation import accuracy, knn_predict
from hgmda.objective import marginals
from hgmda.pipeline import (
    FEASIBILITY_TOL,
    AdaptationConfig,
    LinearMap,
    adapt,
    fit_ridge_mapping,
)
from hgmda.synthetic import rotated_gaussian_task

from oracles import reference_affinity_propagation, reference_sinkhorn_lmo


def small_source(seed=3, n_per_class=5, d=3, scale=2.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(2 * n_per_class, d)) * scale
    labels = np.repeat([1, 2], n_per_class)
    return LabeledDataset(features=X, labels=labels, num_classes=2)


def blob_pair(seed=11, n_per_class=6, noise=0.05):
    """Two separated blobs; target is a jittered permutation of the source."""
    rng = np.random.default_rng(seed)
    Xs = np.vstack([
        rng.normal(size=(n_per_class, 2)) + (0.0, 3.0),
        rng.normal(size=(n_per_class, 2)) - (0.0, 3.0),
    ])
    ys = np.repeat([1, 2], n_per_class)
    Xt = Xs[rng.permutation(2 * n_per_class)] + noise * rng.normal(size=Xs.shape)
    return LabeledDataset(features=Xs, labels=ys, num_classes=2), Xt


class TestRidgeMapping:
    def test_identity_when_targets_equal_inputs(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 4))
        mapping = fit_ridge_mapping(X, X, mu=1e-12)
        assert np.allclose(mapping.W, np.eye(4), atol=1e-6)
        assert np.allclose(mapping.bias, 0.0, atol=1e-6)

    def test_recovers_planted_affine_map(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(200, 3))
        A = rng.normal(size=(3, 3))
        t = rng.normal(size=3)
        mapping = fit_ridge_mapping(X, X @ A + t, mu=1e-9)
        assert np.allclose(mapping.W, A, atol=1e-4)
        assert np.allclose(mapping.bias, t, atol=1e-4)

    def test_identical_rows_collapse_to_mean(self):
        # centered design is all zeros, so the penalty zeroes W and the bias
        # carries the whole prediction
        X = np.tile([1.5, -2.0], (6, 1))
        rng = np.random.default_rng(2)
        Y = rng.normal(size=(6, 2))
        mapping = fit_ridge_mapping(X, Y, mu=1e-3)
        assert np.allclose(mapping.W, 0.0)
        assert np.allclose(mapping.bias, Y.mean(axis=0))

    def test_heavier_penalty_shrinks_weights(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 3))
        Y = rng.normal(size=(30, 3))
        light = fit_ridge_mapping(X, Y, mu=1e-2)
        heavy = fit_ridge_mapping(X, Y, mu=1e2)
        assert np.linalg.norm(heavy.W) < np.linalg.norm(light.W)

    def test_apply_matches_affine_formula(self):
        W = np.array([[2.0, 0.0], [0.0, -1.0]])
        bias = np.array([1.0, 1.0])
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = LinearMap(W=W, bias=bias).apply(X)
        assert np.array_equal(out, X @ W + bias)

    def test_row_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            fit_ridge_mapping(np.zeros((3, 2)), np.zeros((4, 2)), mu=1e-3)

    def test_mu_must_be_positive(self):
        X = np.zeros((3, 2))
        with pytest.raises(ValueError):
            fit_ridge_mapping(X, X, mu=0.0)


class TestConfigValidation:
    def test_eta_bounds(self):
        with pytest.raises(ValueError):
            AdaptationConfig(eta=0.0)
        with pytest.raises(ValueError):
            AdaptationConfig(eta=1.5)

    def test_outer_rounds_positive(self):
        with pytest.raises(ValueError):
            AdaptationConfig(n_outer=0)

    @pytest.mark.parametrize("field", ["cg_iters", "admm_iters"])
    def test_iteration_counts_positive(self, field):
        with pytest.raises(ValueError, match="must be >= 1"):
            AdaptationConfig(**{field: 0})
        assert getattr(AdaptationConfig(**{field: 1}), field) == 1

    def test_weights_non_negative(self):
        with pytest.raises(ValueError):
            AdaptationConfig(lam2=-0.1)

    @pytest.mark.parametrize("field, value", [
        ("n_outer", 1.5), ("n_outer", True), ("cg_iters", 2.5), ("admm_iters", 300.5),
        ("seed", 1.5), ("seed", 1.0),
    ])
    def test_counts_and_seed_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
            AdaptationConfig(**{field: value})

    @pytest.mark.parametrize("field", ["n_outer", "cg_iters", "admm_iters", "seed"])
    def test_numpy_integers_accepted(self, field):
        assert getattr(AdaptationConfig(**{field: np.int64(2)}), field) == 2


class TestAdaptLoop:
    def test_self_adaptation_is_near_identity(self):
        # target equals source: the matcher should find the identity
        # coupling and the ridge round should barely move the features
        src = small_source()
        cfg = AdaptationConfig(
            eta=1.0, lam2=0.0, lam3=0.0, lam_g=0.0, cg_iters=30, admm_iters=1000
        )
        res = adapt(src, src.features.copy(), cfg)
        rms = float(np.sqrt(np.mean((res.adapted - src.features) ** 2)))
        assert rms < 1e-2
        assert np.abs(res.matching - np.eye(len(src.labels))).max() < 5e-3

    def test_adapted_features_are_ridge_image_of_source(self):
        src, Xt = blob_pair()
        cfg = AdaptationConfig(eta=1.0, lam2=0.01, lam_g=0.01, cg_iters=10, admm_iters=800)
        res = adapt(src, Xt, cfg)
        matched = res.matching @ Xt[res.target_exemplars]
        mapping = fit_ridge_mapping(
            src.features[res.source_exemplars], matched, pipeline.RIDGE_MU
        )
        assert np.allclose(res.adapted, mapping.apply(src.features), atol=1e-10)

    def test_round_records(self):
        src, Xt = blob_pair()
        cfg = AdaptationConfig(
            eta=1.0, lam2=0.01, lam_g=0.01, n_outer=3, cg_iters=5, admm_iters=400
        )
        res = adapt(src, Xt, cfg)
        assert [r["round"] for r in res.rounds] == [1, 2, 3]
        for r in res.rounds:
            assert r["wall_time"] > 0.0
            assert r["n_source_exemplars"] == len(src.labels)
            assert r["tensor_entries"] == 0
            # one oracle call per Frank-Wolfe step, plus the final gap call
            assert len(r["solver"]["lp_iterations"]) == cfg.cg_iters + 1

    def test_stage_times_and_exemplar_records(self):
        src, Xt = blob_pair()
        cfg = AdaptationConfig(
            eta=0.5, lam2=0.01, lam3=0.1, lam_g=0.01, n_outer=2, cg_iters=5, seed=5,
        )
        res = adapt(src, Xt, cfg)
        for r in res.rounds:
            times = r["stage_times"]
            assert tuple(times) == pipeline.STAGES
            assert all(t > 0.0 for t in times.values())
            assert sum(times.values()) <= r["wall_time"]
            for side in ("source", "target"):
                assert r[f"{side}_ap_runs"] >= 1
                assert r[f"{side}_preference"] <= 0.0
            assert r["source_ap_target"] == round(0.5 * len(src.labels))
            assert r["target_ap_target"] == round(0.5 * len(Xt))
        # the target's exemplars are selected once, in round 1
        assert res.rounds[0]["target_preference"] == res.rounds[1]["target_preference"]
        json.dumps(res.rounds)

    def test_records_the_ap_runs_stopped_at_the_cap(self, monkeypatch):
        # below the stable window every AP run stops at the cap
        src, Xt = blob_pair()
        monkeypatch.setattr(exemplars, "MAX_ITERS", exemplars.STABLE_WINDOW - 1)
        (r,) = adapt(src, Xt, AdaptationConfig(eta=0.5, cg_iters=2)).rounds
        for side in ("source", "target"):
            assert r[f"{side}_ap_capped"] == r[f"{side}_ap_runs"] >= 1
        (r,) = adapt(src, Xt, AdaptationConfig(eta=1.0, cg_iters=2)).rounds
        assert r["source_ap_capped"] == r["target_ap_capped"] == 0

    def test_stage_times_without_tensor_or_ap(self):
        src, Xt = blob_pair()
        res = adapt(src, Xt, AdaptationConfig(eta=1.0, cg_iters=5))
        (r,) = res.rounds
        assert r["stage_times"]["tensor"] == 0.0
        assert r["source_ap_runs"] == r["target_ap_runs"] == 0
        assert r["source_preference"] is None and r["target_preference"] is None
        assert r["source_ap_target"] is None and r["target_ap_target"] is None

    def test_default_config_is_feasible_and_silent(self):
        source, target = rotated_gaussian_task(n_per_class=20, seed=0)[:2]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = adapt(source, target, AdaptationConfig())
        (record,) = res.rounds
        assert record["feasible"] is True
        solver = record["solver"]
        assert max(solver["row_residuals"][-1], solver["col_residuals"][-1]) <= 1e-12

    def test_sampled_tensor_still_carries_the_third_order_term(self):
        # the rotated task gains from triangle matching at the package's
        # sample sizes: 0.950 against 0.863 without it (0.938 with 50
        # source triangles per node)
        source, Xt, yt = rotated_gaussian_task(n_per_class=40, seed=0)

        def score(lam3):
            cfg = AdaptationConfig(lam2=0.01, lam3=lam3, lam_g=0.01, cg_iters=20, admm_iters=8000)
            mapped = LabeledDataset(adapt(source, Xt, cfg).adapted, source.labels, source.num_classes)
            return accuracy(knn_predict(mapped, Xt), yt)

        assert score(0.1) >= score(0.0) + 0.05

    def test_infeasible_matching_is_flagged_once(self, monkeypatch):
        # the solver's output is always feasible, so the warning path is
        # driven by a solver that returns a matching 1 % off its row sums
        solve = pipeline.cg_solve

        def off_polytope(ctx, weights, **kwargs):
            C, diag = solve(ctx, weights, **kwargs)
            C = C * 1.01
            diag.record_feasibility(C, *marginals(ctx.ns, ctx.nt))
            return C, diag

        monkeypatch.setattr(pipeline, "cg_solve", off_polytope)
        source, target = rotated_gaussian_task(n_per_class=20, seed=0)[:2]
        with pytest.warns(RuntimeWarning, match="round 1") as caught:
            res = adapt(source, target, AdaptationConfig(cg_iters=5))
        assert len(caught) == 1
        (record,) = res.rounds
        assert record["feasible"] is False
        row, col = record["solver"]["row_residuals"][-1], record["solver"]["col_residuals"][-1]
        assert max(row, col) > FEASIBILITY_TOL
        assert f"row residual {row:.2e}, column residual {col:.2e}" in str(caught[0].message)

    def test_target_permutation_permutes_matching_columns(self):
        # at eta = 1 every target row is an exemplar, in row order, and no
        # term but the random tensor (off at lam3 = 0) sees the row order
        source, target = rotated_gaussian_task(n_per_class=20, seed=0)[:2]
        perm = np.random.default_rng(1).permutation(len(target))
        cfg = AdaptationConfig(eta=1.0, lam3=0.0)
        base = adapt(source, target, cfg)
        moved = adapt(source, target[perm], cfg)
        assert np.abs(moved.matching - base.matching[:, perm]).max() <= 1e-9
        assert np.abs(moved.adapted - base.adapted).max() <= 1e-9

    def test_budget_meeting_the_bound_is_feasible_and_silent(self):
        source, target = rotated_gaussian_task(n_per_class=20, seed=0)[:2]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = adapt(source, target, AdaptationConfig(cg_iters=5, admm_iters=2000))
        (record,) = res.rounds
        assert record["feasible"] is True
        solver = record["solver"]
        assert max(solver["row_residuals"][-1], solver["col_residuals"][-1]) <= FEASIBILITY_TOL
        assert record["source_ap_converged"] is True
        assert record["target_ap_converged"] is True
        json.dumps(res.rounds)

    def test_deterministic_given_config(self):
        src, Xt = blob_pair()
        cfg = AdaptationConfig(eta=1.0, lam2=0.05, lam_g=0.01, cg_iters=8, admm_iters=400)
        first = adapt(src, Xt, cfg)
        second = adapt(src, Xt, cfg)
        assert np.array_equal(first.adapted, second.adapted)
        assert np.array_equal(first.matching, second.matching)

    def test_source_array_not_mutated(self):
        src, Xt = blob_pair()
        before = src.features.copy()
        cfg = AdaptationConfig(eta=1.0, lam2=0.01, lam_g=0.01, cg_iters=5, admm_iters=300)
        res = adapt(src, Xt, cfg)
        assert np.array_equal(src.features, before)
        assert res.adapted.shape == src.features.shape

    def test_matching_shape_follows_exemplar_counts(self):
        src, Xt = blob_pair()
        cfg = AdaptationConfig(eta=0.5, lam2=0.01, lam_g=0.01, cg_iters=8, admm_iters=800)
        res = adapt(src, Xt, cfg)
        assert res.matching.shape == (len(res.source_exemplars), len(res.target_exemplars))
        assert res.matching.shape[0] < len(src.labels)

    def test_third_order_term_builds_tensor(self):
        src, Xt = blob_pair()
        cfg = AdaptationConfig(
            eta=1.0, lam2=0.01, lam3=0.1, lam_g=0.01, cg_iters=10, admm_iters=800, seed=5,
        )
        res = adapt(src, Xt, cfg)
        assert res.rounds[0]["tensor_entries"] > 0
        assert np.all(np.isfinite(res.adapted))

    def test_matches_the_reference_message_loops(self, monkeypatch):
        # with AP exemplars, the tensor term and a second round, adapt gives
        # the same bits when AP and the Sinkhorn oracle run the plain loops
        # they replaced
        src, Xt, _ = rotated_gaussian_task(n_per_class=20, seed=2)
        cfg = AdaptationConfig(
            eta=0.5, lam2=0.01, lam3=0.01, lam_g=0.01, n_outer=2, cg_iters=5, seed=3,
        )
        got = adapt(src, Xt, cfg)
        monkeypatch.setattr(exemplars, "affinity_propagation", reference_affinity_propagation)
        monkeypatch.setattr(
            solver, "_sinkhorn_lmo", lambda *args: (*reference_sinkhorn_lmo(*args), 0)
        )
        want = adapt(src, Xt, cfg)
        assert got.rounds[0]["tensor_entries"] > 0
        assert len(got.source_exemplars) < len(src.labels) and len(got.target_exemplars) < len(Xt)
        for name in ("adapted", "matching", "source_exemplars", "target_exemplars"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_requires_three_exemplars(self):
        src = LabeledDataset(
            features=np.array([[0.0, 0.0], [1.0, 0.0]]),
            labels=np.array([1, 2]),
            num_classes=2,
        )
        target = np.random.default_rng(0).normal(size=(5, 2))
        with pytest.raises(ValueError, match="at least 3 exemplars"):
            adapt(src, target, AdaptationConfig())

    @staticmethod
    def collapse(inputs, targets, mu):
        # a map that sends every source point to the origin
        d = np.shape(inputs)[1]
        return LinearMap(W=np.zeros((d, d)), bias=np.zeros(d))

    def test_collapsed_source_names_the_round(self, monkeypatch):
        # a round-1 map that collapses the source leaves round 2 no bandwidth
        # to build the source graph with; the error blames that map
        monkeypatch.setattr(pipeline, "fit_ridge_mapping", self.collapse)
        src, Xt = blob_pair()
        message = (r"round 2: source exemplars: degenerate: zero bandwidth \(all points "
                   r"coincide\); round 1's map contracted the source \(source_spread 0\)$")
        with pytest.raises(ValueError, match=message):
            adapt(src, Xt, AdaptationConfig(eta=1.0, n_outer=2, cg_iters=2))

    def test_collapsed_source_fails_the_count_check(self, monkeypatch):
        # at eta < 1 AP leaves the collapsed source one exemplar
        monkeypatch.setattr(pipeline, "fit_ridge_mapping", self.collapse)
        src, Xt = blob_pair()
        message = (r"round 2: source exemplars: need at least 3 exemplars per domain, got 1; "
                   r"round 1's map contracted the source \(source_spread 0\)$")
        with pytest.raises(ValueError, match=message):
            adapt(src, Xt, AdaptationConfig(eta=0.5, n_outer=2, cg_iters=2))

    def test_non_finite_map_names_the_round(self, monkeypatch):
        # round 1 fits as usual; round 2's map has NaN weights
        fit, fits = pipeline.fit_ridge_mapping, []

        def nan_from_round_2(inputs, targets, mu):
            mapping = fit(inputs, targets, mu)
            fits.append(mapping)
            if len(fits) == 1:
                return mapping
            return LinearMap(W=np.full_like(mapping.W, np.nan), bias=mapping.bias)

        monkeypatch.setattr(pipeline, "fit_ridge_mapping", nan_from_round_2)
        src, Xt = blob_pair()
        with pytest.raises(NonFiniteError, match=r"^round 2: adapted features non-finite$"):
            adapt(src, Xt, AdaptationConfig(eta=1.0, n_outer=2, cg_iters=2))
        assert len(fits) == 2

    def test_source_spread_falls_each_round(self):
        # the ridge maps onto the blurred C* Xt, so the source contracts
        # round after round
        source, target = rotated_gaussian_task(n_per_class=40, seed=0)[:2]
        res = adapt(source, target, AdaptationConfig(lam2=0.1, n_outer=3))
        spreads = [r["source_spread"] for r in res.rounds]
        assert spreads == pytest.approx([0.372, 0.162, 0.071], abs=5e-4)
        # the ratio of the adapted source's RMS spread to the input's
        centred = res.adapted - res.adapted.mean(axis=0)
        centred_input = source.features - source.features.mean(axis=0)
        assert spreads[-1] == pytest.approx(
            np.sqrt((centred**2).sum(axis=1).mean() / (centred_input**2).sum(axis=1).mean()),
            rel=1e-12)

    def test_coincident_target_names_the_round(self):
        src, _ = blob_pair()
        with pytest.raises(ValueError, match="round 1: target exemplars: degenerate: zero bandwidth"):
            adapt(src, np.ones((8, 2)), AdaptationConfig(eta=1.0, cg_iters=2))

    def test_triangle_free_target_names_the_round(self):
        # one point off seven coincident ones gives a bandwidth but no
        # triangle of three distinct points
        src, _ = blob_pair()
        Xt = np.vstack([np.ones((7, 2)), [[2.0, 0.0]]])
        with pytest.raises(ValueError, match="round 1: degenerate target domain: no valid triangles"):
            adapt(src, Xt, AdaptationConfig(eta=1.0, lam3=0.01, cg_iters=2))

    @pytest.mark.parametrize("eta", [0.5, 1.0])
    def test_non_finite_target_names_the_target(self, eta):
        src, Xt = blob_pair()
        Xt[3, 1] = np.nan
        with pytest.raises(ValueError, match="target features hold a non-finite value in row 3"):
            adapt(src, Xt, AdaptationConfig(eta=eta))

    def test_feature_dimension_mismatch(self):
        src, _ = blob_pair()
        with pytest.raises(ValueError, match="dimensions differ"):
            adapt(src, np.zeros((8, 3)), AdaptationConfig())

    @pytest.mark.parametrize("shape", [(8,), (8, 2, 2)], ids=["1-d", "3-d"])
    def test_target_must_be_two_dimensional(self, shape):
        src, _ = blob_pair()
        message = rf"source shape \(12, 2\), target shape {re.escape(str(shape))}; .* 2 dimensions"
        with pytest.raises(ValueError, match=message):
            adapt(src, np.zeros(shape), AdaptationConfig())


class TestRotationRecovery:
    def test_separated_classes_stay_separable_after_adaptation(self):
        # well separated blobs rotated by 30 degrees: the adapted source must
        # classify the rotated target nearly perfectly on every draw
        accs = []
        worst = 0.0
        for seed in range(10):
            source, tgt_X, tgt_y = rotated_gaussian_task(
                n_per_class=40,
                rotation_deg=30.0,
                seed=seed,
                centers=((-2.0, 0.0), (2.0, 0.0)),
                spreads=((0.3, 0.3), (0.3, 0.3)),
            )
            cfg = AdaptationConfig(
                eta=1.0, lam2=0.01, lam_g=0.01, cg_iters=10, admm_iters=6000,
                seed=seed,
            )
            res = adapt(source, tgt_X, cfg)
            adapted = LabeledDataset(res.adapted, source.labels, num_classes=2)
            accs.append(accuracy(knn_predict(adapted, tgt_X), tgt_y))
            for r in res.rounds:
                worst = max(
                    worst,
                    max(r["solver"]["row_residuals"]),
                    max(r["solver"]["col_residuals"]),
                )
        assert float(np.mean(accs)) >= 0.9
        assert worst <= 1e-3
