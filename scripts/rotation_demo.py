#!/usr/bin/env python3
"""Run the rotated-Gaussian sanity task end to end and print the outcome.

Two Gaussian classes are rotated to form the target domain, the matcher
aligns the sampled source against half of the target, and 1-NN accuracy is
compared with and without adaptation. Useful as a quick smoke check that the
whole stack (exemplar selection, matching, mapping, scoring) behaves.
"""

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hgmda.data import write_features
from hgmda.evaluation import ExperimentSpec, run_task
from hgmda.pipeline import AdaptationConfig
from hgmda.synthetic import rotated_gaussian_task


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rotation", type=float, default=30.0, help="degrees")
    parser.add_argument("--per-class", type=int, default=40)
    parser.add_argument("--eta", type=float, default=1.0)
    parser.add_argument("--lambda2", type=float, default=0.01)
    parser.add_argument("--trials", type=int, default=10)
    parser.add_argument("--cg-iters", type=int, default=20)
    parser.add_argument("--admm-iters", type=int, default=8000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    source, target_X, target_y = rotated_gaussian_task(
        n_per_class=args.per_class, rotation_deg=args.rotation, seed=args.seed
    )

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_features(tmp / "source_X.csv", source.features)
        write_features(tmp / "target_X.csv", target_X)
        np.savetxt(tmp / "source_y.csv", source.labels, fmt="%d")
        np.savetxt(tmp / "target_y.csv", target_y, fmt="%d")

        spec = ExperimentSpec(
            name=f"rot{args.rotation:g}",
            source_features=str(tmp / "source_X.csv"),
            source_labels=str(tmp / "source_y.csv"),
            target_features=str(tmp / "target_X.csv"),
            target_labels=str(tmp / "target_y.csv"),
            per_class=min(args.per_class, 20),
            target_fraction=0.5,
            trials=args.trials,
            config=AdaptationConfig(
                eta=args.eta,
                lam2=args.lambda2,
                cg_iters=args.cg_iters,
                admm_iters=args.admm_iters,
            ),
        )
        rec = run_task(spec, seed=args.seed)

    print(f"task {rec.name}: {args.trials} trials, eta={args.eta:g}")
    print(f"  no adaptation : {100 * rec.na_mean:6.2f}%  (held out {100 * rec.na_held_mean:6.2f}%)")
    print(f"  adapted       : {100 * rec.mean:6.2f}%  (held out {100 * rec.held_mean:6.2f}%)")
    print(f"  improvement   : {100 * (rec.mean - rec.na_mean):+6.2f} points")


if __name__ == "__main__":
    main()
