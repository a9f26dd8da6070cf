#!/usr/bin/env python3
"""Sweep the exemplar fraction eta on the rotated-Gaussian task and emit a
CSV of accuracies.

Two Gaussian classes are rotated to form the target domain, the matcher
aligns the sampled source against half of the target, and 1-NN accuracy is
compared with and without adaptation, on that half and on the held-out
half. Smaller eta keeps fewer affinity-propagation exemplars per class,
shrinking the matching problem; this quantifies the accuracy cost. Output
columns: eta, adapted, na, adapted_held, na_held (fractions, means over
trials); stderr gets the same numbers as percentages with the gain.
`--etas 1` is the quick end-to-end sanity run of the whole stack.
"""

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hgmda.data import write_features
from hgmda.evaluation import ExperimentSpec, run_task
from hgmda.synthetic import rotated_gaussian_task


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--etas", type=float, nargs="+", default=[1.0, 0.75, 0.5, 0.25])
    parser.add_argument("--rotation", type=float, default=30.0)
    parser.add_argument("--per-class", type=int, default=40)
    parser.add_argument("--trials", type=int, default=10)
    parser.add_argument("--cg-iters", type=int, default=20)
    parser.add_argument(
        "--admm-iters",
        type=int,
        default=16000,
        help="Sinkhorn iteration cap of each Frank-Wolfe oracle call; the "
        "oracle rounds its plan onto the polytope, so the marginals are exact "
        "at any cap",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="-", help="CSV path, - for stdout")
    args = parser.parse_args(argv)

    source, target_X, target_y = rotated_gaussian_task(
        n_per_class=args.per_class, rotation_deg=args.rotation, seed=args.seed
    )

    lines = ["eta,adapted,na,adapted_held,na_held"]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_features(tmp / "source_X.csv", source.features)
        write_features(tmp / "target_X.csv", target_X)
        np.savetxt(tmp / "source_y.csv", source.labels, fmt="%d")
        np.savetxt(tmp / "target_y.csv", target_y, fmt="%d")

        for eta in args.etas:
            spec = ExperimentSpec(
                name=f"eta{eta:g}",
                source_features=str(tmp / "source_X.csv"),
                source_labels=str(tmp / "source_y.csv"),
                target_features=str(tmp / "target_X.csv"),
                target_labels=str(tmp / "target_y.csv"),
                per_class=min(args.per_class, 20),
                target_fraction=0.5,
                trials=args.trials,
                eta=eta,
                cg_iters=args.cg_iters,
                admm_iters=args.admm_iters,
            )
            rec = run_task(spec, seed=args.seed)
            lines.append(
                f"{eta:g},{rec.mean:.6f},{rec.na_mean:.6f},"
                f"{rec.held_mean:.6f},{rec.na_held_mean:.6f}"
            )
            print(
                f"eta={eta:g}: adapted {100 * rec.mean:.2f}% vs NA "
                f"{100 * rec.na_mean:.2f}% (held out {100 * rec.held_mean:.2f}% vs "
                f"{100 * rec.na_held_mean:.2f}%), "
                f"gain {100 * (rec.mean - rec.na_mean):+.2f} points",
                file=sys.stderr,
            )

    text = "\n".join(lines) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
