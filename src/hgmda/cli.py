"""Command-line interface.

Subcommands: adapt (run the adaptation pipeline on CSV datasets), evaluate
(1-NN predictions and accuracy), benchmark (multi-task protocol from a JSON
spec file), lp-check (ADMM LP vs exact enumeration, a reproducibility
utility). Exit codes: 0 success, 1 input error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import logging
import os
import sys

import numpy as np

from .data import NonFiniteError, load_dataset, load_features, load_labels, write_features
from .evaluation import (
    accuracy,
    benchmark_table,
    knn_predict,
    load_benchmark_file,
    run_benchmark,
)
from .pipeline import AdaptationConfig, adapt
from .solver import RESIDUAL_TOL, admm_lp


# each adapt flag sets the AdaptationConfig field it names and defaults to
# that field's default
_ADAPT_FLAGS = {
    "--eta": "eta",
    "--lambda2": "lam2",
    "--lambda3": "lam3",
    "--lambdag": "lam_g",
    "--nt-outer": "n_outer",
    "--cg-iters": "cg_iters",
    "--admm-iters": "admm_iters",
    "--seed": "seed",
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hgmda",
        description="Domain adaptation by hyper-graph matching over CSV feature files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_adapt = sub.add_parser("adapt", help="adapt a labelled source toward a target")
    p_adapt.add_argument("--source-features", required=True)
    p_adapt.add_argument("--source-labels", required=True)
    p_adapt.add_argument("--target-features", required=True)
    defaults = AdaptationConfig()
    for flag, name in _ADAPT_FLAGS.items():
        default = getattr(defaults, name)
        p_adapt.add_argument(flag, dest=name, type=type(default), default=default,
                             help=f"AdaptationConfig.{name} (default: %(default)s)")
    p_adapt.add_argument("--out", required=True, help="output directory")

    p_eval = sub.add_parser("evaluate", help="1-NN predictions and accuracy")
    p_eval.add_argument("--train-features", required=True)
    p_eval.add_argument("--train-labels", required=True)
    p_eval.add_argument("--test-features", required=True)
    p_eval.add_argument("--test-labels")
    p_eval.add_argument("--out", help="predictions file (default: stdout)")

    p_bench = sub.add_parser("benchmark", help="run a multi-task benchmark spec")
    p_bench.add_argument("--spec", required=True)
    p_bench.add_argument("--out", default="benchmark_results.csv")

    p_lp = sub.add_parser("lp-check", help="ADMM LP vs exact enumeration")
    p_lp.add_argument("--n", type=int, default=4)
    p_lp.add_argument("--trials", type=int, default=50)
    p_lp.add_argument("--seed", type=int, default=0)
    p_lp.add_argument("--admm-iters", type=int, default=3000)
    return parser


def _check_out_dir(path):
    """Fails before any work when the directory path could not be made or
    written to, without making it: a failed run leaves no --out behind. Its
    nearest existing ancestor, path itself included, must be a writable
    directory."""
    existing = os.path.abspath(path)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise NotADirectoryError(f"--out {path}: {existing} is not a directory")
    if not os.access(existing, os.W_OK | os.X_OK):
        raise PermissionError(f"--out {path}: {existing} is not writable")


def _cmd_adapt(args):
    cfg = AdaptationConfig(**{name: getattr(args, name) for name in _ADAPT_FLAGS.values()})
    _check_out_dir(args.out)
    source = load_dataset(args.source_features, args.source_labels)
    target = load_features(args.target_features)
    result = adapt(source, target, cfg)
    os.makedirs(args.out, exist_ok=True)
    write_features(os.path.join(args.out, "adapted.csv"), result.adapted)
    write_features(os.path.join(args.out, "matching.csv"), result.matching)
    report = {
        "config": dataclasses.asdict(cfg),
        "rounds": result.rounds,
        "source_exemplars": result.source_exemplars.tolist(),
        "target_exemplars": result.target_exemplars.tolist(),
    }
    with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    print(f"wrote adapted.csv, matching.csv, report.json to {args.out}")
    return 0


def _cmd_evaluate(args):
    train = load_dataset(args.train_features, args.train_labels)
    test_X = load_features(args.test_features)
    # a bad truth file fails before any prediction is written; it may lack
    # classes the training labels have
    truth = load_labels(args.test_labels, test_X.shape[0])[0] if args.test_labels else None
    predictions = knn_predict(train, test_X)
    lines = "\n".join(str(int(p)) for p in predictions) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(lines)
    else:
        sys.stdout.write(lines)
    if truth is not None:
        print(f"accuracy {accuracy(predictions, truth):.6f}")
    return 0


def _cmd_benchmark(args):
    specs, seed = load_benchmark_file(args.spec)
    # a path that cannot be written fails before the first task; appending
    # leaves an existing file as it is until the table replaces it
    open(args.out, "a", encoding="utf-8").close()
    rows = run_benchmark(specs, seed=seed)
    csv_text, pretty = benchmark_table(rows)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(csv_text)
    print(pretty, end="")
    print(f"wrote {args.out}")
    return 0


def _permutation_minimum(G):
    """Exact LP minimum of Tr(G^T P) over the permutation matrices of a
    square G, by enumeration (n! cost)."""
    rows = np.arange(G.shape[0])
    return min(float(G[rows, perm].sum()) for perm in itertools.permutations(rows))


def _cmd_lp_check(args):
    if args.n < 2 or args.n > 8:
        raise ValueError("lp-check supports n in [2, 8] (enumeration cost)")
    if args.trials < 1:
        raise ValueError("lp-check needs --trials >= 1")
    rng = np.random.default_rng(args.seed)
    a = np.ones(args.n)
    b = np.ones(args.n)
    worst, exit_residuals = 0.0, []
    for _ in range(args.trials):
        G = rng.standard_normal((args.n, args.n))
        C, state = admm_lp(G, a, b, iters=args.admm_iters)
        exit_residuals.append(max(state.primal_residual, state.dual_residual))
        deviation = float(np.vdot(G, C)) - _permutation_minimum(G)
        worst = max(worst, abs(deviation))
    capped = sum(residual >= RESIDUAL_TOL for residual in exit_residuals)
    print(f"admm_lp stopped at --admm-iters {args.admm_iters} in {capped} of {args.trials} "
          f"trials; largest exit residual {max(exit_residuals):.1e} (stop: {RESIDUAL_TOL:g})")
    print(f"max |Tr(G^T C) - exact LP minimum| over {args.trials} trials: {worst:.3e}")
    return 0


_COMMANDS = {
    "adapt": _cmd_adapt,
    "evaluate": _cmd_evaluate,
    "benchmark": _cmd_benchmark,
    "lp-check": _cmd_lp_check,
}


def _log_to_stderr():
    """Shows the package's INFO lines, such as run_task's per-trial progress,
    on stderr. Repeated in-process calls keep the handler the first one
    attached rather than stacking another."""
    logger = logging.getLogger("hgmda")
    if not logger.handlers:
        handler = logging.StreamHandler()
        handler.setLevel(logging.INFO)
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)


def main(argv=None):
    _log_to_stderr()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return _COMMANDS[args.command](args)
    except (NonFiniteError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
