"""End-to-end acceptance checks.

Each test prints one summary line and enforces the advertised tolerance, so
`pytest -v tests/test_acceptance.py` reads as a pass/fail report. The
benchmark reproduction test needs the public Office-Caltech feature CSVs and
skips when the HGMDA_OFFICE_CALTECH_DIR environment variable is unset.
"""

import os
import time
from dataclasses import asdict

import numpy as np
import pytest

from hgmda.data import LabeledDataset, class_index_sets, write_features
from hgmda.evaluation import ExperimentSpec, run_benchmark, run_task
from hgmda.graphs import _triangle_sines, adjacency_matrix, sigma_heuristic
from hgmda.objective import (
    ObjectiveContext,
    ObjectiveWeights,
    f1_and_grad,
    f2_and_grad,
    f3_and_grad,
    fg_and_grad,
    total_objective,
    uniform_matching,
)
from hgmda.pipeline import AdaptationConfig, adapt
from hgmda.solver import admm_lp, cg_solve
from hgmda.synthetic import rotated_gaussian_task

from oracles import (
    central_difference_grad,
    dense_contraction,
    dense_tensor,
    permutation_minimum,
    triangle_sines,
)
from test_graphs import sampled_tensor


def random_context(rng, with_tensor=False, with_groups=False):
    ns = int(rng.integers(3, 7))
    nt = int(rng.integers(3, 7))
    d = int(rng.integers(2, 5))
    Xs = rng.normal(size=(ns, d))
    Xt = rng.normal(size=(nt, d))
    tensor = None
    if with_tensor:
        tensor = sampled_tensor(
            Xs, Xt, t_per_node=8, knn=nt, pool_factor=4, seed=int(rng.integers(1 << 31))
        )
    groups = None
    if with_groups:
        labels = 1 + (np.arange(ns) % 2)
        groups = class_index_sets(labels, 2)
    return ObjectiveContext(
        Xs=Xs,
        Xt=Xt,
        Ds=adjacency_matrix(Xs, sigma_heuristic(Xs)),
        Dt=adjacency_matrix(Xt, sigma_heuristic(Xt)),
        tensor=tensor,
        class_groups=groups,
    )


def interior_point(rng, ns, nt):
    C = uniform_matching(ns, nt) + 0.01 * rng.uniform(size=(ns, nt))
    return C


def rel_err(got, want):
    denom = max(float(np.linalg.norm(want)), 1e-12)
    return float(np.linalg.norm(got - want)) / denom


def planted_instance(rng):
    n = int(rng.integers(3, 7))
    d = int(rng.integers(2, 5))
    Xs = rng.normal(size=(n, d))
    Xt = Xs[rng.permutation(n)] + 0.01 * rng.normal(size=(n, d))
    lam2 = float(10.0 ** rng.uniform(-3, 0))
    ctx = ObjectiveContext(
        Xs=Xs,
        Xt=Xt,
        Ds=adjacency_matrix(Xs, sigma_heuristic(Xs)),
        Dt=adjacency_matrix(Xt, sigma_heuristic(Xt)),
    )
    return ctx, lam2


def write_synthetic_task(tmpdir):
    source, tgt_X, tgt_y = rotated_gaussian_task(n_per_class=40, seed=0)
    paths = {
        "source_features": os.path.join(tmpdir, "src_X.csv"),
        "source_labels": os.path.join(tmpdir, "src_y.csv"),
        "target_features": os.path.join(tmpdir, "tgt_X.csv"),
        "target_labels": os.path.join(tmpdir, "tgt_y.csv"),
    }
    write_features(paths["source_features"], source.features)
    np.savetxt(paths["source_labels"], source.labels, fmt="%d")
    write_features(paths["target_features"], tgt_X)
    np.savetxt(paths["target_labels"], tgt_y, fmt="%d")
    return paths


def synthetic_protocol_spec(paths, eta, admm_iters):
    cfg = AdaptationConfig(
        eta=eta, lam2=0.01, lam3=0.0, lam_g=0.01, n_outer=1,
        cg_iters=20, admm_iters=admm_iters,
    )
    return ExperimentSpec(
        name=f"synthetic-eta-{eta}", per_class=20, target_fraction=0.5,
        trials=10, config=cfg, **paths,
    )


@pytest.fixture(scope="module")
def synthetic_records(tmp_path_factory):
    """Run the synthetic protocol once per eta; criteria 6 and 8 share it."""
    tmpdir = str(tmp_path_factory.mktemp("synthetic"))
    paths = write_synthetic_task(tmpdir)
    records = {}
    t0 = time.perf_counter()
    records[1.0] = run_task(synthetic_protocol_spec(paths, 1.0, 8000), seed=0)
    records["runtime_eta1"] = time.perf_counter() - t0
    records[0.5] = run_task(synthetic_protocol_spec(paths, 0.5, 16000), seed=0)
    return records


def test_criterion_1_gradient_suite():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        ctx = random_context(rng, with_tensor=True, with_groups=True)
        C = interior_point(rng, ctx.ns, ctx.nt)
        w = ObjectiveWeights(lam2=0.3, lam3=0.2, lam_g=0.1)
        parts = {
            "f1": lambda M: f1_and_grad(M, ctx),
            "f2": lambda M: f2_and_grad(M, ctx),
            "f3": lambda M: f3_and_grad(M, ctx),
            "fg": lambda M: fg_and_grad(M, ctx),
            "total": lambda M: total_objective(M, ctx, w),
        }
        for name, fn in parts.items():
            _, grad = fn(C)
            fd = central_difference_grad(lambda M: fn(M)[0], C, step=1e-5)
            worst = max(worst, rel_err(grad, fd))
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: worst gradient relative error {worst:.2e} in {elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed < 10.0


def test_criterion_2_lp_oracle_equivalence():
    rng = np.random.default_rng(4)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 5))
        G = rng.normal(size=(n, n))
        C, _ = admm_lp(G, np.ones(n), np.ones(n), iters=300)
        worst = max(worst, abs(float(np.vdot(G, C)) - permutation_minimum(G)))
    elapsed = time.perf_counter() - t0
    print(f"criterion 2: worst LP deviation {worst:.2e} in {elapsed:.1f}s")
    assert worst <= 1e-3
    assert elapsed < 30.0


def test_criterion_3_iterate_feasibility():
    # representative battery spanning every instance family the suite runs:
    # small generic/planted problems, and full pipeline rounds at both
    # exemplar fractions with their production budgets
    worst_row = worst_col = 0.0
    lowest = 0.0

    def absorb(diag_dict):
        nonlocal worst_row, worst_col, lowest
        worst_row = max(worst_row, max(diag_dict["row_residuals"]))
        worst_col = max(worst_col, max(diag_dict["col_residuals"]))
        lowest = min(lowest, min(diag_dict["min_entries"]))

    rng = np.random.default_rng(0)
    for _ in range(8):
        ctx, lam2 = planted_instance(rng)
        _, diag = cg_solve(ctx, ObjectiveWeights(lam2=lam2), cg_iters=25, admm_iters=1000)
        absorb(asdict(diag))

    source, tgt_X, _ = rotated_gaussian_task(n_per_class=40, seed=0)
    ss = np.random.SeedSequence([0, 0])
    child_sample, child_adapt = ss.spawn(2)
    srng = np.random.default_rng(child_sample)
    rows = np.concatenate([
        np.sort(srng.choice(np.flatnonzero(source.labels == c), size=20, replace=False))
        for c in (1, 2)
    ])
    sampled = LabeledDataset(source.features[rows], source.labels[rows], 2)
    Xa = tgt_X[srng.permutation(80)[:40]]
    for eta, admm in ((1.0, 8000), (0.5, 16000)):
        cfg = AdaptationConfig(
            eta=eta, lam2=0.01, lam_g=0.01, cg_iters=20, admm_iters=admm,
            seed=int(child_adapt.generate_state(1)[0]),
        )
        res = adapt(sampled, Xa, cfg)
        for r in res.rounds:
            absorb(r["solver"])

    print(
        f"criterion 3: worst row residual {worst_row:.2e}, worst relative "
        f"column residual {worst_col:.2e}, lowest entry {lowest:.2e}"
    )
    assert worst_row <= 1e-3
    assert worst_col <= 1e-3
    assert lowest >= -1e-4


def test_criterion_4_sparse_tensor_correctness():
    rng = np.random.default_rng(2)
    worst = 0.0
    for ns in (3, 4, 5):
        for nt in (3, 4, 5):
            Xs = rng.normal(size=(ns, 3))
            Xt = rng.normal(size=(nt, 3))
            tensor = sampled_tensor(
                Xs, Xt, t_per_node=6, knn=nt, pool_factor=3, seed=int(rng.integers(1 << 31))
            )
            ctx = ObjectiveContext(
                Xs=Xs, Xt=Xt,
                Ds=adjacency_matrix(Xs, sigma_heuristic(Xs)),
                Dt=adjacency_matrix(Xt, sigma_heuristic(Xt)),
                tensor=tensor,
            )
            H = dense_tensor(zip(tensor.p1, tensor.p2, tensor.p3, tensor.values), ns, nt)
            C = interior_point(rng, ns, nt)
            value, grad = f3_and_grad(C, ctx)
            want_value, want_grad = dense_contraction(H, C.ravel())
            worst = max(worst, abs(value - want_value) / max(abs(want_value), 1e-12))
            worst = max(worst, rel_err(grad.ravel(), want_grad))

    worst_inv = 0.0
    for _ in range(50):
        P = rng.normal(size=(3, 2))
        base = _triangle_sines(*P[:, None])[0][0]
        theta = rng.uniform(0.0, 2.0 * np.pi)
        R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        s = float(rng.uniform(0.2, 5.0))
        t = rng.normal(size=2)
        Q = s * (P @ R.T) + t
        moved = _triangle_sines(*Q[:, None])[0][0]
        worst_inv = max(worst_inv, float(np.abs(moved - base).max()))

    print(
        f"criterion 4: worst sparse-vs-dense relative error {worst:.2e}, "
        f"worst similarity drift {worst_inv:.2e}"
    )
    assert worst <= 1e-9
    assert worst_inv <= 1e-9


def test_criterion_5_convex_convergence():
    rng = np.random.default_rng(5)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10):
        ctx, lam2 = planted_instance(rng)
        _, diag = cg_solve(ctx, ObjectiveWeights(lam2=lam2), cg_iters=200, admm_iters=2000)
        f = diag.objective_trace[-1]
        worst = max(worst, diag.final_gap / (1.0 + abs(f)))
    elapsed = time.perf_counter() - t0
    print(f"criterion 5: worst relative FW gap {worst:.2e} in {elapsed:.1f}s")
    assert worst <= 1e-3
    assert elapsed < 60.0


def test_criterion_6_synthetic_adaptation(synthetic_records):
    rec = synthetic_records[1.0]
    elapsed = synthetic_records["runtime_eta1"]
    improvement = rec.mean - rec.na_mean
    print(
        f"criterion 6: adapted {100 * rec.mean:.1f}%, baseline "
        f"{100 * rec.na_mean:.1f}%, improvement {100 * improvement:.1f} points "
        f"in {elapsed:.0f}s"
    )
    assert improvement >= 0.10
    assert elapsed < 120.0


OFFICE_CALTECH_TARGETS = {
    ("caltech", "amazon"): 42.30,
    ("caltech", "webcam"): 38.41,
    ("caltech", "dslr"): 37.06,
    ("amazon", "caltech"): 33.10,
    ("amazon", "webcam"): 42.01,
    ("amazon", "dslr"): 43.35,
    ("webcam", "caltech"): 35.14,
    ("webcam", "amazon"): 40.71,
    ("webcam", "dslr"): 83.14,
    ("dslr", "caltech"): 32.23,
    ("dslr", "amazon"): 38.91,
    ("dslr", "webcam"): 82.22,
}


def test_criterion_7_office_caltech_reproduction():
    root = os.environ.get("HGMDA_OFFICE_CALTECH_DIR")
    if not root:
        pytest.skip("HGMDA_OFFICE_CALTECH_DIR not set; feature CSVs unavailable")
    grid = (1e-3, 1e-2, 1e-1, 1.0)
    specs = []
    for (src, tgt), _ in OFFICE_CALTECH_TARGETS.items():
        cfg = AdaptationConfig(eta=1.0, lam_g=0.01, cg_iters=20, admm_iters=8000)
        specs.append(
            ExperimentSpec(
                name=f"{src}->{tgt}",
                source_features=os.path.join(root, f"{src}_X.csv"),
                source_labels=os.path.join(root, f"{src}_y.csv"),
                target_features=os.path.join(root, f"{tgt}_X.csv"),
                target_labels=os.path.join(root, f"{tgt}_y.csv"),
                per_class=8 if src == "dslr" else 20,
                target_fraction=0.5,
                trials=10,
                config=cfg,
                lam2_grid=grid,
                lam3_grid=grid,
                n_outer_grid=(1, 2, 3, 4, 5),
            )
        )
    rows = run_benchmark(specs, seed=0)
    hits = 0
    lines = []
    for (pair, target), (name, rec) in zip(OFFICE_CALTECH_TARGETS.items(), rows):
        if isinstance(rec, str):
            lines.append(f"{name}: {rec}")
            continue
        got = 100.0 * rec.mean
        ok = abs(got - target) <= 3.0
        hits += int(ok)
        lines.append(f"{name}: {got:.2f} vs {target:.2f} {'ok' if ok else 'off'}")
    print("criterion 7: " + "; ".join(lines))
    assert hits >= 9


def test_criterion_8_eta_degradation(synthetic_records):
    full = synthetic_records[1.0].mean
    half = synthetic_records[0.5].mean
    print(
        f"criterion 8: eta=1 {100 * full:.1f}%, eta=0.5 {100 * half:.1f}%, "
        f"difference {100 * abs(full - half):.1f} points"
    )
    assert abs(full - half) <= 0.10
