import importlib.util
from pathlib import Path

import numpy as np
import pytest

import hgmda

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "office_caltech_to_csv.py"


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

    spec = importlib.util.spec_from_file_location("office_caltech_to_csv", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
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
