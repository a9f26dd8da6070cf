#!/usr/bin/env python3
"""Convert the public Office-Caltech SURF .mat files into the CSV layout the
benchmark consumes.

The distributed archives hold one .mat per domain (amazon, webcam, dslr,
caltech) with an (n, 800) feature matrix and an (n,) label vector under
variable names that vary between mirrors (fts/labels being the most common).
This script locates each domain's file by name, extracts both arrays, and
writes <domain>_X.csv and <domain>_y.csv into the output directory, which is
what HGMDA_OFFICE_CALTECH_DIR and the benchmark task files expect.

Needs scipy for .mat reading; scipy is intentionally not a package
dependency, so install it separately before running this.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hgmda.data import write_features

DOMAINS = ("amazon", "webcam", "dslr", "caltech")
FEATURE_KEYS = ("fts", "features", "feas", "X", "Xs", "Xt")
LABEL_KEYS = ("labels", "label", "y", "Ys", "Yt")


def find_domain_file(root, domain):
    hits = [p for p in sorted(root.glob("*.mat")) if domain in p.name.lower()]
    if not hits:
        raise FileNotFoundError(f"no .mat file matching {domain!r} under {root}")
    if len(hits) > 1:
        raise FileNotFoundError(
            f"ambiguous .mat files for {domain!r}: {[p.name for p in hits]}"
        )
    return hits[0]


def extract_arrays(mat, path):
    X = next((mat[k] for k in FEATURE_KEYS if k in mat), None)
    y = next((mat[k] for k in LABEL_KEYS if k in mat), None)
    if X is None or y is None:
        offered = [k for k in mat if not k.startswith("__")]
        raise KeyError(f"{path.name}: expected feature/label variables, found {offered}")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y).ravel().astype(int)
    if X.ndim == 2 and X.shape[0] != y.shape[0] and X.shape[1] == y.shape[0]:
        X = X.T
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError(f"{path.name}: feature shape {X.shape} vs {y.shape[0]} labels")
    return X, y


def zscore(X):
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd[sd == 0.0] = 1.0
    return (X - mu) / sd


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mat_dir", help="directory holding the per-domain .mat files")
    parser.add_argument("out_dir", help="directory to write <domain>_X.csv / <domain>_y.csv")
    parser.add_argument(
        "--zscore",
        action="store_true",
        help="standardize each feature dimension per domain before writing",
    )
    args = parser.parse_args(argv)

    try:
        from scipy.io import loadmat
    except ImportError:
        parser.error("scipy is required to read .mat files (pip install scipy)")

    root = Path(args.mat_dir)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    for domain in DOMAINS:
        path = find_domain_file(root, domain)
        X, y = extract_arrays(loadmat(path), path)
        if y.min() == 0:
            y = y + 1
        if args.zscore:
            X = zscore(X)
        write_features(out / f"{domain}_X.csv", X)
        np.savetxt(out / f"{domain}_y.csv", y, fmt="%d")
        print(f"{domain}: {X.shape[0]} samples x {X.shape[1]} features from {path.name}")

    print(f"done; point HGMDA_OFFICE_CALTECH_DIR at {out.resolve()}")


if __name__ == "__main__":
    main()
