import importlib.util
from pathlib import Path

import numpy as np
import pytest

import hgmda

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
PERFBENCH = SCRIPTS.parent / "perfbench"


def load_script(name, folder=SCRIPTS):
    spec = importlib.util.spec_from_file_location(name, folder / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_office_caltech_to_csv_writes_csvs_the_package_loads(tmp_path):
    """One tiny .mat file per domain, in the layouts the mirrors use: varying
    variable names, 0-based labels, features stored (d, n), and labels as a
    row or a column."""
    savemat = pytest.importorskip("scipy.io").savemat
    rng = np.random.default_rng(0)
    layouts = {
        "amazon": ("fts", "labels", False, 1),
        "webcam": ("X", "y", False, 0),
        "dslr": ("feas", "label", True, 1),
        "caltech": ("features", "Yt", False, 1),
    }
    domains = {}
    for index, (domain, (x_key, y_key, transposed, first_label)) in enumerate(layouts.items()):
        X = rng.normal(loc=3.0, size=(6 + index, 4))
        y = np.arange(len(X)) % 3 + first_label
        stored_y = y[:, None] if domain == "caltech" else y
        stored_X = X.T if transposed else X
        savemat(tmp_path / f"{domain}_SURF_L10.mat", {x_key: stored_X, y_key: stored_y})
        domains[domain] = (X, y + 1 - first_label)

    script = load_script("office_caltech_to_csv")
    for zscore in (False, True):
        out = tmp_path / f"csv-{zscore}"
        script.main([str(tmp_path), str(out)] + ["--zscore"] * zscore)
        for domain, (X, y) in domains.items():
            data = hgmda.load_dataset(str(out / f"{domain}_X.csv"), str(out / f"{domain}_y.csv"))
            assert np.array_equal(data.labels, y) and data.num_classes == 3
            if zscore:
                assert np.abs(data.features.mean(axis=0)).max() < 1e-12
                assert np.allclose(data.features.std(axis=0), 1.0)
            else:
                assert np.array_equal(data.features, X)


def test_office_caltech_to_csv_rejects_one_dimensional_features():
    script = load_script("office_caltech_to_csv")
    mat = {"fts": np.zeros(6), "labels": np.arange(6) % 3 + 1}
    with pytest.raises(ValueError, match=r"amazon_SURF_L10\.mat: feature shape \(6,\) vs 6 labels"):
        script.extract_arrays(mat, Path("mats") / "amazon_SURF_L10.mat")


def test_eta_sweep_prints_csv_and_held_out_accuracy(capsys):
    load_script("eta_sweep").main(["--etas", "1", "0.5", "--trials", "1", "--per-class", "10"])
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        "eta,adapted,na,adapted_held,na_held",
        "1,0.800000,0.500000,0.900000,0.800000",
        "0.5,0.800000,0.500000,0.700000,0.800000",
    ]
    # run_task may also log its per-trial progress to stderr
    assert [line for line in err.splitlines() if line.startswith("eta=")] == [
        "eta=1: adapted 80.00% vs NA 50.00% (held out 90.00% vs 80.00%), gain +30.00 points",
        "eta=0.5: adapted 80.00% vs NA 50.00% (held out 70.00% vs 80.00%), gain +30.00 points",
    ]


def test_every_perfbench_wrap_site_resolves():
    # the benchmark times each layer by replacing these module globals; a
    # renamed or moved function would otherwise show only in a traced run
    spans = load_script("spans", PERFBENCH)
    for module, attribute, _ in spans.WRAP_SITES:
        assert callable(getattr(importlib.import_module(module), attribute, None)), (
            f"{module}.{attribute}"
        )
