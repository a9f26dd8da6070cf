import copy
import csv
import json
import logging
from dataclasses import replace

import numpy as np
import pytest

import hgmda.evaluation
import hgmda.pipeline
from hgmda.data import LabeledDataset, write_features
from hgmda.evaluation import (
    ExperimentSpec,
    accuracy,
    benchmark_table,
    knn_predict,
    load_benchmark_file,
    run_benchmark,
    run_task,
)
from hgmda.pipeline import AdaptationConfig, adapt
from hgmda.synthetic import rotated_gaussian_task


def write_task_files(tmp_path, n_per_class=10, seed=0):
    source, tgt_X, tgt_y = rotated_gaussian_task(n_per_class=n_per_class, seed=seed)
    paths = {
        "source_features": str(tmp_path / "src_X.csv"),
        "source_labels": str(tmp_path / "src_y.csv"),
        "target_features": str(tmp_path / "tgt_X.csv"),
        "target_labels": str(tmp_path / "tgt_y.csv"),
    }
    write_features(paths["source_features"], source.features)
    np.savetxt(paths["source_labels"], source.labels, fmt="%d")
    write_features(paths["target_features"], tgt_X)
    np.savetxt(paths["target_labels"], tgt_y, fmt="%d")
    return paths


def small_spec(paths, **overrides):
    base = dict(
        name="toy", per_class=5, target_fraction=0.5, trials=3, eta=1.0, lam_g=0.01,
        cg_iters=8, admm_iters=800, lam2_grid=(0.01,), **paths
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestKnnPredict:
    def test_exact_training_point_keeps_its_label(self):
        train = LabeledDataset(
            features=np.array([[0.0, 0.0], [5.0, 5.0]]),
            labels=np.array([1, 2]),
            num_classes=2,
        )
        assert knn_predict(train, [[5.0, 5.0]])[0] == 2

    def test_nearest_by_inspection(self):
        train = LabeledDataset(
            features=np.array([[0.0], [10.0], [20.0]]),
            labels=np.array([1, 2, 3]),
            num_classes=3,
        )
        got = knn_predict(train, [[2.0], [19.0], [11.0]])
        assert got.tolist() == [1, 3, 2]

    def test_distance_tie_takes_lowest_index(self):
        train = LabeledDataset(
            features=np.array([[-1.0], [1.0]]),
            labels=np.array([2, 1]),
            num_classes=2,
        )
        assert knn_predict(train, [[0.0]])[0] == 2

    def test_column_count_mismatch_names_both_shapes(self):
        train = LabeledDataset(
            features=np.array([[0.0, 0.0], [5.0, 5.0]]),
            labels=np.array([1, 2]),
            num_classes=2,
        )
        with pytest.raises(ValueError, match=r"training shape \(2, 2\), test shape \(1, 3\)"):
            knn_predict(train, [[1.0, 2.0, 3.0]])

    def test_empty_training_set_rejected_at_construction(self):
        with pytest.raises(ValueError):
            LabeledDataset(
                features=np.zeros((0, 2)), labels=np.zeros(0, dtype=int), num_classes=2
            )


class TestAccuracy:
    def test_perfect(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_none_right(self):
        assert accuracy([1, 1], [2, 2]) == 0.0

    def test_two_thirds(self):
        assert accuracy([1, 2, 2], [1, 2, 3]) == pytest.approx(2.0 / 3.0)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            accuracy([1, 2], [1, 2, 3])


class TestRunTask:
    def test_adaptation_tracks_baseline_on_easy_task(self, tmp_path):
        rec = run_task(small_spec(write_task_files(tmp_path)), seed=0)
        assert len(rec.per_trial) == 3
        assert rec.mean >= rec.na_mean - 0.02
        assert 0.0 <= rec.held_mean <= 1.0

    def test_deterministic_across_runs(self, tmp_path):
        spec = small_spec(write_task_files(tmp_path))
        first = run_task(spec, seed=7)
        second = run_task(spec, seed=7)
        assert first.per_trial == second.per_trial
        assert first.na_per_trial == second.na_per_trial
        assert first.held_per_trial == second.held_per_trial

    def test_na_baseline_ignores_hyperparameters(self, tmp_path):
        paths = write_task_files(tmp_path)
        narrow = run_task(small_spec(paths), seed=3)
        wide = run_task(small_spec(paths, lam2_grid=(0.001, 0.1)), seed=3)
        assert narrow.na_per_trial == wide.na_per_trial
        assert wide.best_lam2 in (0.001, 0.1)

    def test_grid_reports_best_combo(self, tmp_path):
        spec = small_spec(
            write_task_files(tmp_path), trials=2, lam2_grid=(0.01,), n_outer_grid=(1, 2)
        )
        rec = run_task(spec, seed=0)
        assert rec.best_n_outer in (1, 2)
        assert rec.best_lam2 == 0.01

    def test_missing_target_labels_rejected(self, tmp_path):
        # at construction, before any file is read
        paths = write_task_files(tmp_path)
        paths["target_labels"] = None
        with pytest.raises(ValueError, match="toy: target labels are required"):
            small_spec(paths)

    def test_undersized_class_warns_and_uses_all(self, tmp_path):
        paths = write_task_files(tmp_path, n_per_class=4)
        spec = small_spec(paths, per_class=6, trials=1)
        with pytest.warns(UserWarning, match="quota"):
            rec = run_task(spec, seed=0)
        assert len(rec.per_trial) == 1


def without_wall_times(rounds):
    """A deep copy of round records minus their round and stage timings."""
    rounds = copy.deepcopy(rounds)
    for r in rounds:
        del r["wall_time"], r["stage_times"]
    return rounds


class TestRoundReuse:
    """Within one trial run_task computes the lambda-independent inputs
    (target exemplars, round-1 source exemplars, round-1 tensor) once, and
    lets combos that differ only in N_T share their leading rounds; every
    combo must still get what a fresh adapt would return."""

    LAM2, LAM3 = (0.01, 0.1), (0.0, 0.01)

    def grid_spec(self, tmp_path, n_outer_grid, trials=1):
        return small_spec(
            write_task_files(tmp_path), trials=trials, eta=0.5, lam2_grid=self.LAM2,
            lam3_grid=self.LAM3, n_outer_grid=n_outer_grid,
        )

    def capture_adapts(self, monkeypatch, mutate_previous=False):
        """Wrap run_task's adapt; keeps (cfg, copies of the result's arrays
        and rounds). With mutate_previous, every earlier result is scribbled
        over in place before the next combo runs."""
        seen, returned = [], []

        def keep(source, target, cfg):
            if mutate_previous:
                for res in returned:
                    res.adapted += 100.0
                    res.matching[:] = -1.0
                    res.source_exemplars[:] = 0
                    res.target_exemplars[:] = 0
                    res.rounds[0]["source_spread"] = np.nan
                    res.rounds[0]["solver"]["objective_trace"].clear()
            res = adapt(source, target, cfg)
            seen.append((source, target, cfg, res.adapted.copy(), res.matching.copy(),
                         res.source_exemplars.copy(), res.target_exemplars.copy(),
                         without_wall_times(res.rounds)))
            returned.append(res)
            return res

        monkeypatch.setattr(hgmda.evaluation, "adapt", keep)
        return seen

    def assert_match_fresh(self, seen):
        for source, target, cfg, adapted, matching, src_ex, tgt_ex, rounds in seen:
            fresh = adapt(source, target, cfg)
            assert np.array_equal(adapted, fresh.adapted)
            assert np.array_equal(matching, fresh.matching)
            assert np.array_equal(src_ex, fresh.source_exemplars)
            assert np.array_equal(tgt_ex, fresh.target_exemplars)
            assert rounds == without_wall_times(fresh.rounds)

    @pytest.mark.parametrize("n_outer_grid", [(1, 2), (2, 1)])
    def test_every_combo_matches_a_fresh_adapt(self, tmp_path, monkeypatch, n_outer_grid):
        seen = self.capture_adapts(monkeypatch)
        run_task(self.grid_spec(tmp_path, n_outer_grid), seed=0)
        assert [(c.lam2, c.lam3, c.n_outer) for _, _, c, *_ in seen] == [
            (l2, l3, n) for l2 in self.LAM2 for l3 in self.LAM3 for n in n_outer_grid
        ]
        self.assert_match_fresh(seen)

    def test_each_round_is_solved_once_per_trial(self, tmp_path, monkeypatch):
        """Counts the work of 2 trials of 2 lam2 x 2 lam3 x N_T (1, 2)."""
        solves, selections, tensors, adjacencies = [], [], [], []

        def counting(name, fn, log, key):
            def wrapper(*args, **kwargs):
                log.append(key(*args, **kwargs))
                return fn(*args, **kwargs)
            monkeypatch.setattr(hgmda.pipeline, name, wrapper)

        counting("cg_solve", hgmda.pipeline.cg_solve, solves, lambda *a, **k: None)
        # an exemplar selection or tensor build made twice on the same
        # inputs shows up as a repeated key
        counting("select_exemplars", hgmda.pipeline.select_exemplars, selections,
                 lambda X, *a, labels=None: (labels is None, np.asarray(X).tobytes()))
        counting("build_sparse_tensor", hgmda.pipeline.build_sparse_tensor, tensors,
                 lambda Xs, Xt, **k: (Xs.tobytes(), Xt.tobytes(), k["seed"]))
        counting("adjacency_matrix", hgmda.pipeline.adjacency_matrix, adjacencies,
                 lambda *a, **k: None)
        run_task(self.grid_spec(tmp_path, (1, 2), trials=2), seed=0)
        # 4 (lam2, lam3) x max N_T = 2 rounds per trial, not 4 x (1 + 2)
        assert len(solves) == 2 * 8
        # per trial: 1 target, 1 round-1 source and 4 round-2 source
        # selections, not 4 x (1 + 2); 1 round-1 and 2 round-2 tensors
        # (lam3 > 0 only), not 2 x 2
        assert len(selections) == 2 * 6 and len(set(selections)) == len(selections)
        assert sum(is_target for is_target, _ in selections) == 2
        assert len(tensors) == 2 * 3 and len(set(tensors)) == len(tensors)
        # per trial: 1 target, 1 round-1 source and 4 round-2 source
        # adjacencies, not 1 + 4 x 2
        assert len(adjacencies) == 2 * 6
        assert hgmda.pipeline._TRIAL_SLOT.get() is None

    def test_other_inputs_replace_the_kept_trial(self, monkeypatch):
        """Within one scope, a call on other target rows or another eta is
        solved, not replayed, and the trial it leaves is the one kept."""
        solves = []
        solve = hgmda.pipeline.cg_solve

        def counting(*args, **kwargs):
            solves.append(None)
            return solve(*args, **kwargs)

        monkeypatch.setattr(hgmda.pipeline, "cg_solve", counting)
        source, target = rotated_gaussian_task(n_per_class=10, seed=0)[:2]
        cfg = AdaptationConfig(eta=0.5, lam2=0.01, lam_g=0.01, cg_iters=8, admm_iters=800)
        # (A), (B) with other target rows, (A) with another eta, (A) again, and
        # (A) once more, which alone finds its trial kept
        a, b = (target, cfg), (target[1:], cfg)
        calls = [a, b, (target, replace(cfg, eta=0.8)), a, a]
        seen, solved = [], []
        with hgmda.pipeline._reuse_rounds():
            for tgt, c in calls:
                before = len(solves)
                res = adapt(source, tgt, c)
                solved.append(len(solves) - before)
                seen.append((source, tgt, c, res.adapted, res.matching, res.source_exemplars,
                             res.target_exemplars, without_wall_times(res.rounds)))
        assert solved == [1, 1, 1, 1, 0]
        self.assert_match_fresh(seen)

    # (2, 2): a repeated N_T is handed the same kept round twice
    @pytest.mark.parametrize("n_outer_grid", [(1, 2), (2, 1), (2, 2)])
    def test_mutating_a_result_leaves_later_combos_intact(
        self, tmp_path, monkeypatch, n_outer_grid
    ):
        seen = self.capture_adapts(monkeypatch, mutate_previous=True)
        run_task(self.grid_spec(tmp_path, n_outer_grid), seed=0)
        self.assert_match_fresh(seen)


class TestSpecValidation:
    def test_bad_grid_value_rejected_at_construction(self, tmp_path):
        paths = write_task_files(tmp_path)
        with pytest.raises(ValueError, match="weights must be non-negative"):
            small_spec(paths, lam2_grid=(0.01, -0.1))
        with pytest.raises(ValueError, match="n_outer must be >= 1"):
            small_spec(paths, n_outer_grid=(1, 0))

    def test_configs_run_lam2_outermost_and_n_outer_innermost(self, tmp_path):
        spec = small_spec(
            write_task_files(tmp_path), eta=0.5, lam2_grid=(0.1, 0.2), lam3_grid=(0.0, 0.3),
            n_outer_grid=(2, 1),
        )
        configs = spec.configs(seed=5)
        assert [(c.lam2, c.lam3, c.n_outer) for c in configs] == [
            (l2, l3, n) for l2 in (0.1, 0.2) for l3 in (0.0, 0.3) for n in (2, 1)
        ]
        assert {(c.eta, c.lam_g, c.cg_iters, c.admm_iters, c.seed) for c in configs} == {
            (0.5, 0.01, 8, 800, 5)
        }

    def test_defaults_are_the_adaptation_defaults(self, tmp_path):
        (config,) = ExperimentSpec("toy", *write_task_files(tmp_path).values()).configs()
        assert config == AdaptationConfig()

    def test_per_class_positive(self, tmp_path):
        paths = write_task_files(tmp_path)
        with pytest.raises(ValueError):
            small_spec(paths, per_class=0)

    def test_target_fraction_open_interval(self, tmp_path):
        paths = write_task_files(tmp_path)
        with pytest.raises(ValueError):
            small_spec(paths, target_fraction=1.0)

    def test_trials_positive(self, tmp_path):
        paths = write_task_files(tmp_path)
        with pytest.raises(ValueError):
            small_spec(paths, trials=0)


class TestRunBenchmark:
    def test_bad_task_is_isolated(self, tmp_path, caplog):
        good = small_spec(write_task_files(tmp_path), trials=1)
        bad = small_spec(
            dict(
                source_features=str(tmp_path / "missing.csv"),
                source_labels=str(tmp_path / "missing.csv"),
                target_features=str(tmp_path / "missing.csv"),
                target_labels=str(tmp_path / "missing.csv"),
            ),
            name="broken",
            trials=1,
        )
        with caplog.at_level(logging.INFO, logger="hgmda.evaluation"):
            rows = run_benchmark([bad, good], seed=0)
        assert rows[0][0] == "broken"
        assert isinstance(rows[0][1], str) and rows[0][1].startswith("error:")
        assert "\n" not in rows[0][1]
        assert rows[1][1].mean >= 0.0
        (failure,) = [r for r in caplog.records if r.levelno == logging.ERROR]
        assert "broken" in failure.getMessage()
        assert failure.exc_info is not None
        assert "Traceback (most recent call last)" in caplog.text
        assert "missing.csv" in caplog.text
        assert any("toy: trial 1/1" in r.getMessage() for r in caplog.records
                   if r.levelno == logging.INFO)

    def test_empty_benchmark_rejected(self):
        with pytest.raises(ValueError):
            run_benchmark([])

    def test_table_renders_results_and_errors(self, tmp_path):
        good = small_spec(write_task_files(tmp_path), trials=1)
        rows = run_benchmark([good], seed=0)
        rows.append(("broken", "error: no such file"))
        comma_error = (
            "error: round 1: need at least 3 exemplars per domain, got 2 source / 9 target"
        )
        rows.append(("tiny", comma_error))
        csv_text, pretty = benchmark_table(rows)
        lines = csv_text.strip().split("\n")
        assert lines[0].startswith("task,na_mean,adapted_mean")
        assert lines[1].startswith("toy,")
        assert "error: no such file" in lines[2]
        assert "toy" in pretty and "broken" in pretty
        parsed = list(csv.reader(lines))
        assert [len(row) for row in parsed] == [9] * 4
        assert parsed[3][0] == "tiny"
        assert parsed[3][-1] == comma_error
        assert dict(zip(parsed[0], parsed[1]))["best_lam2"] == "0.01"


class TestLoadBenchmarkFile:
    def write_doc(self, tmp_path, doc):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def task_entry(self, name, feature_stem="amazon"):
        return {
            "name": name,
            "source_features": f"{feature_stem}_X.csv",
            "source_labels": f"{feature_stem}_y.csv",
            "target_features": "webcam_X.csv",
            "target_labels": "webcam_y.csv",
        }

    def test_parses_tasks_and_seed(self, tmp_path):
        doc = {
            "seed": 11,
            "trials": 4,
            "eta": 0.5,
            "lambda_g": 0.05,
            "lambda2_grid": [0.001, 0.01],
            "tasks": [self.task_entry("a_w")],
        }
        specs, seed = load_benchmark_file(self.write_doc(tmp_path, doc))
        assert seed == 11
        spec = specs[0]
        assert spec.trials == 4
        assert spec.eta == 0.5
        assert spec.lam_g == 0.05
        assert spec.lam2_grid == (0.001, 0.01)
        assert spec.per_class == 20

    def test_source_path_leaves_the_quota_alone(self, tmp_path):
        # the path decides nothing: a dslr source keeps the top-level
        # per_class unless its task sets its own
        small = self.task_entry("d_a", feature_stem="dslr/dslr")
        small["per_class"] = 8
        doc = {"per_class": 12, "tasks": [self.task_entry("d_w", feature_stem="dslr/dslr"), small]}
        specs, _ = load_benchmark_file(self.write_doc(tmp_path, doc))
        assert [spec.per_class for spec in specs] == [12, 8]

    def test_task_per_class_beats_top_level(self, tmp_path):
        # a task's own per_class beats the top-level one, whatever its path
        entry = self.task_entry("a_w")
        entry["per_class"] = 15
        doc = {"per_class": 12, "tasks": [entry, self.task_entry("w_a", feature_stem="webcam")]}
        specs, _ = load_benchmark_file(self.write_doc(tmp_path, doc))
        assert [spec.per_class for spec in specs] == [15, 12]

    def test_no_tasks_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no tasks"):
            load_benchmark_file(self.write_doc(tmp_path, {"tasks": []}))

    def test_unknown_config_keys_rejected(self, tmp_path):
        doc = {
            "config": {"cg_iters": 3, "cg_iterz": 3, "warm_start": True},
            "tasks": [self.task_entry("a_w")],
        }
        with pytest.raises(ValueError, match=r"unknown config keys \['cg_iterz', 'warm_start'\]"):
            load_benchmark_file(self.write_doc(tmp_path, doc))

    def test_unknown_top_level_keys_rejected(self, tmp_path):
        # misspelt settings would otherwise fall back to their defaults
        doc = {"trails": 3, "lambda2grid": [0.1], "tasks": [self.task_entry("a_w")]}
        with pytest.raises(ValueError, match=r"unknown keys \['lambda2grid', 'trails'\]"):
            load_benchmark_file(self.write_doc(tmp_path, doc))

    def test_unknown_task_keys_name_the_task(self, tmp_path):
        entry = self.task_entry("a_w")
        entry["per_clas"] = 3
        doc = {"tasks": [self.task_entry("d_w"), entry]}
        with pytest.raises(ValueError, match=r"tasks\[1\]: unknown keys \['per_clas'\]"):
            load_benchmark_file(self.write_doc(tmp_path, doc))

    def test_missing_task_keys_rejected(self, tmp_path):
        doc = {"tasks": [{"name": "broken"}]}
        with pytest.raises(ValueError, match="missing keys"):
            load_benchmark_file(self.write_doc(tmp_path, doc))
