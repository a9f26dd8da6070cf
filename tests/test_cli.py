import json
import logging
import re

import numpy as np
import pytest

import hgmda.cli
from hgmda.cli import _permutation_minimum, main
from hgmda.data import NonFiniteError, load_features, write_features
from hgmda.synthetic import rotated_gaussian_task

from oracles import permutation_minimum as oracle_perm_min


@pytest.fixture(autouse=True)
def package_logger():
    """main() attaches a stderr handler bound to the stream of the test that
    calls it first; drop it afterwards so each test sees its own capture."""
    logger = logging.getLogger("hgmda")
    handlers, level = list(logger.handlers), logger.level
    yield logger
    logger.handlers[:] = handlers
    logger.setLevel(level)


@pytest.fixture
def task_files(tmp_path):
    source, tgt_X, tgt_y = rotated_gaussian_task(n_per_class=10, seed=0)
    paths = {
        "source_features": tmp_path / "src_X.csv",
        "source_labels": tmp_path / "src_y.csv",
        "target_features": tmp_path / "tgt_X.csv",
        "target_labels": tmp_path / "tgt_y.csv",
    }
    write_features(paths["source_features"], source.features)
    np.savetxt(paths["source_labels"], source.labels, fmt="%d")
    write_features(paths["target_features"], tgt_X)
    np.savetxt(paths["target_labels"], tgt_y, fmt="%d")
    return {k: str(v) for k, v in paths.items()}


class TestAdaptCommand:
    def test_writes_all_artifacts(self, task_files, tmp_path, capsys):
        out = tmp_path / "run"
        code = main([
            "adapt",
            "--source-features", task_files["source_features"],
            "--source-labels", task_files["source_labels"],
            "--target-features", task_files["target_features"],
            "--cg-iters", "8",
            "--admm-iters", "400",
            "--out", str(out),
        ])
        assert code == 0
        adapted = load_features(str(out / "adapted.csv"))
        assert adapted.shape == (20, 2)
        matching = load_features(str(out / "matching.csv"))
        report = json.loads((out / "report.json").read_text())
        assert len(report["rounds"]) == 1
        assert matching.shape == (
            report["rounds"][0]["n_source_exemplars"],
            report["rounds"][0]["n_target_exemplars"],
        )
        assert report["config"]["admm_iters"] == 400
        assert "wrote" in capsys.readouterr().out

    def test_third_order_term(self, task_files, tmp_path, capsys):
        out = tmp_path / "run"
        code = main([
            "adapt",
            "--source-features", task_files["source_features"],
            "--source-labels", task_files["source_labels"],
            "--target-features", task_files["target_features"],
            "--lambda3", "0.01",
            "--cg-iters", "5",
            "--admm-iters", "400",
            "--out", str(out),
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["lam3"] == 0.01
        (record,) = report["rounds"]
        assert record["tensor_entries"] > 0
        assert record["feasible"] is True
        capsys.readouterr()

    def test_missing_input_is_exit_one(self, task_files, tmp_path, capsys):
        code = main([
            "adapt",
            "--source-features", str(tmp_path / "absent.csv"),
            "--source-labels", task_files["source_labels"],
            "--target-features", task_files["target_features"],
            "--out", str(tmp_path / "run"),
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_eta_is_exit_one(self, task_files, tmp_path, capsys):
        code = main([
            "adapt",
            "--source-features", task_files["source_features"],
            "--source-labels", task_files["source_labels"],
            "--target-features", task_files["target_features"],
            "--eta", "2.0",
            "--out", str(tmp_path / "run"),
        ])
        assert code == 1
        capsys.readouterr()

    def test_numerical_failure_is_exit_two(self, task_files, tmp_path, capsys, monkeypatch):
        def failing(*args):
            raise NonFiniteError("round 1: adapted features non-finite")

        monkeypatch.setattr(hgmda.cli, "adapt", failing)
        code = main([
            "adapt",
            "--source-features", task_files["source_features"],
            "--source-labels", task_files["source_labels"],
            "--target-features", task_files["target_features"],
            "--out", str(tmp_path / "run"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "numerical failure: round 1: adapted features non-finite\n"
        assert not (tmp_path / "run").exists()


class TestEvaluateCommand:
    def test_predictions_to_file_with_accuracy(self, task_files, tmp_path, capsys):
        out = tmp_path / "preds.csv"
        code = main([
            "evaluate",
            "--train-features", task_files["source_features"],
            "--train-labels", task_files["source_labels"],
            "--test-features", task_files["target_features"],
            "--test-labels", task_files["target_labels"],
            "--out", str(out),
        ])
        assert code == 0
        preds = [int(line) for line in out.read_text().strip().split("\n")]
        assert len(preds) == 20
        assert set(preds) <= {1, 2}
        assert "accuracy" in capsys.readouterr().out

    def test_column_count_mismatch_is_exit_one(self, task_files, tmp_path, capsys):
        wide = tmp_path / "wide_X.csv"
        write_features(wide, np.zeros((4, 3)))
        code = main([
            "evaluate",
            "--train-features", task_files["source_features"],
            "--train-labels", task_files["source_labels"],
            "--test-features", str(wide),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: training and test feature dimensions differ" in err
        assert "training shape (20, 2), test shape (4, 3)" in err

    def test_predictions_to_stdout(self, task_files, capsys):
        code = main([
            "evaluate",
            "--train-features", task_files["source_features"],
            "--train-labels", task_files["source_labels"],
            "--test-features", task_files["target_features"],
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 20


class TestBenchmarkCommand:
    def test_runs_spec_file(self, task_files, tmp_path, capsys):
        doc = {
            "seed": 0,
            "trials": 1,
            "per_class": 5,
            "config": {"cg_iters": 6, "admm_iters": 400},
            "tasks": [dict(name="toy", **task_files)],
        }
        spec_path = tmp_path / "bench.json"
        spec_path.write_text(json.dumps(doc))
        out = tmp_path / "results.csv"
        code = main(["benchmark", "--spec", str(spec_path), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("task,")
        assert lines[1].startswith("toy,")
        assert "toy" in capsys.readouterr().out

    def test_logs_each_trial_once_per_run(self, task_files, tmp_path, capsys, package_logger):
        # the benchmark harness calls main() repeatedly in one process; each
        # call must print one progress line per trial, not one per handler
        doc = {
            "seed": 0,
            "trials": 2,
            "per_class": 5,
            "config": {"cg_iters": 2, "admm_iters": 50},
            "tasks": [dict(name="toy", **task_files)],
        }
        spec_path = tmp_path / "bench.json"
        spec_path.write_text(json.dumps(doc))
        for _ in range(2):
            code = main(["benchmark", "--spec", str(spec_path), "--out", str(tmp_path / "r.csv")])
            assert code == 0
            err = capsys.readouterr().err
            assert re.findall(r"toy: trial (\d+)/2 done", err) == ["1", "2"]
        assert len(package_logger.handlers) == 1

    @pytest.mark.parametrize("extra, message", [
        ({"config": {"cg_iterz": 3}}, "unknown config keys ['cg_iterz']"),
        ({"config": {"admm_iters": 0}},
         "bench.json: bad value in 'config.admm_iters': cg_iters and admm_iters must be >= 1"),
        ({"config": {"cg_iters": 0}},
         "bench.json: bad value in 'config.cg_iters': cg_iters and admm_iters must be >= 1"),
        ({"eta": 1.5}, "bench.json: bad value in 'eta': eta must lie in (0, 1]"),
        ({"lambda_g": -1}, "bench.json: bad value in 'lambda_g': weights must be non-negative"),
        ({"eta": 0.5, "config": {"ap": {"damping": 0.9}}}, "unknown config keys ['ap']"),
        ({"eta": "0.5"}, "'eta'"),
        ({"trials": None}, "'trials'"),
        ({"lambda2_grid": 5}, "'lambda2_grid'"),
        ({"config": {"cg_iters": "5"}}, "bench.json: 'config.cg_iters' needs an integer"),
        ({"config": {"admm_iters": 2.5}}, "bench.json: 'config.admm_iters' needs an integer"),
        ({"lambda_g": True}, "bench.json: 'lambda_g' needs a number"),
        ({"config": {"t_per_node": 5}}, "unknown config keys ['t_per_node']"),
        ({"config": {"knn": 5}}, "unknown config keys ['knn']"),
        ({"config": {"pool_factor": 5}}, "unknown config keys ['pool_factor']"),
        ({"config": {"ridge_mu": 0.1}}, "unknown config keys ['ridge_mu']"),
        ({"trials": 2.9}, "'trials'"),
        ({"per_class": 7.9}, "'per_class'"),
        ({"seed": 1.5}, "'seed'"),
        ({"trials": "3"}, "'trials'"),
        ({"lambda2_grid": ["a"]}, "'lambda2_grid'"),
        ({"n_outer_grid": [2.5]}, "'n_outer_grid'"),
        ({"lambda3_grid": [-1]}, "'lambda3_grid'"),
        ({"task_per_class": [1]}, "per_class"),
        ({"trails": 3}, "unknown keys ['trails']"),
        ({"task_per_clas": 3}, "tasks[0]: unknown keys ['per_clas']"),
        # eta, lam_g, lam2, lam3, n_outer and seed have no spelling in config
        ({"eta": 0.5, "config": {"eta": 1.0}},
         "bench.json: unknown config keys ['eta']; config takes ['cg_iters', 'admm_iters']"),
        ({"lambda_g": 0.2, "config": {"lam_g": 0.0}}, "bench.json: unknown config keys ['lam_g']"),
        # an int path would be opened as a file descriptor: 0 reads stdin
        ({"task_source_features": 0}, "'tasks[0].source_features' needs a string"),
        ({"task_target_labels": None}, "'tasks[0].target_labels' needs a string"),
        ({"task_name": 3}, "'tasks[0].name' needs a string"),
        ({"lambda2_grid": []}, "bench.json: bad value in 'lambda2_grid': lam2_grid is empty"),
        ({"config": {"seed": 3}}, "bench.json: unknown config keys ['seed']"),
        ({"lambda3_grid": [0.1], "config": {"lam3": 0.0}},
         "bench.json: unknown config keys ['lam3']"),
        ({"config": {"lam2": 0.1}}, "bench.json: unknown config keys ['lam2']"),
        ({"config": {"n_outer": 2}}, "bench.json: unknown config keys ['n_outer']"),
        ({"per_class": 0}, "bench.json: bad value in 'per_class': per_class must be >= 1"),
        ({"task_per_class": 0},
         "bench.json: bad value in 'tasks[0].per_class': per_class must be >= 1"),
        ({"trials": 0}, "bench.json: bad value in 'trials': trials must be >= 1"),
        ({"target_fraction": 1},
         "bench.json: bad value in 'target_fraction': target_fraction must lie in (0, 1)"),
        ({"tasks": ["toy"]}, "bench.json: each task needs an object, got 'toy'"),
    ], ids=["unknown-key", "zero-admm-iters", "zero-cg-iters", "eta-above-one",
            "negative-lambda-g", "ap", "str-eta", "null-trials", "scalar-grid",
            "str-int", "float-int", "bool-float", "t-per-node", "knn", "pool-factor",
            "ridge-mu", "float-trials", "float-per-class", "float-seed", "str-trials",
            "str-grid", "float-grid", "negative-grid", "list-task-per-class",
            "unknown-top-level-key", "unknown-task-key", "eta-twice", "lambda-g-twice",
            "int-path", "null-target-labels", "int-name", "empty-grid", "config-seed",
            "grid-and-config", "config-lam2", "config-n-outer", "zero-per-class",
            "zero-task-per-class", "zero-trials", "whole-target-fraction", "string-task"])
    def test_bad_config_is_exit_one(self, task_files, tmp_path, capsys, extra, message):
        # rejected while the spec is read, before any task runs, as an input
        # error that names the key rather than a traceback
        task = dict(name="toy", **task_files)
        for key in [key for key in extra if key.startswith("task_")]:
            task[key.removeprefix("task_")] = extra.pop(key)
        doc = {"trials": 1, "tasks": [task], **extra}
        spec_path = tmp_path / "bench.json"
        spec_path.write_text(json.dumps(doc))
        out = tmp_path / "results.csv"
        code = main(["benchmark", "--spec", str(spec_path), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_missing_spec_is_exit_one(self, tmp_path, capsys):
        code = main(["benchmark", "--spec", str(tmp_path / "absent.json")])
        assert code == 1
        capsys.readouterr()

    def test_malformed_spec_is_exit_one(self, tmp_path, capsys):
        # json's decode error is a ValueError, so it is an input error too
        spec_path = tmp_path / "bench.json"
        spec_path.write_text('{"tasks": [')
        code = main(["benchmark", "--spec", str(spec_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: Expecting value")


class TestLpCheckCommand:
    def test_prints_max_deviation(self, capsys):
        code = main(["lp-check", "--n", "3", "--trials", "5", "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "max |Tr(G^T C) - exact LP minimum|" in out
        worst = float(out.strip().split()[-1])
        assert worst < 0.05

    def test_reports_runs_stopped_at_the_sweep_cap(self, capsys):
        # one sweep never meets the residual stop
        code = main(["lp-check", "--n", "3", "--trials", "4", "--seed", "0", "--admm-iters", "1"])
        assert code == 0
        capped, _ = capsys.readouterr().out.splitlines()
        assert capped.startswith("admm_lp stopped at --admm-iters 1 in 4 of 4 trials;")
        assert float(capped.split("largest exit residual ")[1].split()[0]) > 1e-6

    def test_default_cap_meets_the_stop_at_n_8(self, capsys):
        # at the default --admm-iters every trial ends on its residuals, so
        # the deviation is the solver's, not the sweep budget's
        code = main(["lp-check", "--n", "8", "--trials", "5", "--seed", "0"])
        assert code == 0
        capped, deviation = capsys.readouterr().out.splitlines()
        assert capped.startswith("admm_lp stopped at --admm-iters 3000 in 0 of 5 trials;")
        assert float(deviation.split()[-1]) <= 1e-3

    def test_oversized_n_is_exit_one(self, capsys):
        code = main(["lp-check", "--n", "9"])
        assert code == 1
        capsys.readouterr()

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_no_trials_is_exit_one(self, capsys, trials):
        # a check over no trials has nothing to report
        code = main(["lp-check", "--n", "3", "--trials", trials])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "--trials" in captured.err
        assert captured.out == ""

    def test_zero_admm_iters_is_exit_one(self, capsys):
        code = main(["lp-check", "--n", "3", "--trials", "1", "--admm-iters", "0"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_permutation_minimum_matches_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            G = rng.normal(size=(4, 4))
            assert _permutation_minimum(G) == pytest.approx(oracle_perm_min(G))


class TestArgumentHandling:
    def test_no_command_is_exit_one(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_help_is_exit_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()
