import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgmda.data import (
    LabeledDataset,
    class_index_sets,
    load_dataset,
    load_features,
    load_labels,
    pairwise_sq_dists,
    write_features,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadFeatures:
    def test_two_by_two(self, tmp_path):
        X = load_features(write(tmp_path, "f.csv", "1.0,2.0\n3.0,4.0"))
        assert np.array_equal(X, [[1.0, 2.0], [3.0, 4.0]])

    def test_single_value(self, tmp_path):
        X = load_features(write(tmp_path, "f.csv", "0.0"))
        assert X.shape == (1, 1)
        assert X[0, 0] == 0.0

    def test_ragged_row_reports_line(self, tmp_path):
        with pytest.raises(ValueError, match="ragged row at line 2"):
            load_features(write(tmp_path, "f.csv", "1,2\n3"))

    def test_non_numeric_reports_line(self, tmp_path):
        with pytest.raises(ValueError, match="line 2"):
            load_features(write(tmp_path, "f.csv", "1,2\nx,4"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            load_features(write(tmp_path, "f.csv", ""))

    def test_rejects_non_finite(self, tmp_path):
        with pytest.raises(ValueError, match="line 1"):
            load_features(write(tmp_path, "f.csv", "1,nan"))

    def test_crlf_line_endings(self, tmp_path):
        X = load_features(write(tmp_path, "f.csv", "1.0,2.0\r\n3.0,4.0\r\n"))
        assert np.array_equal(X, [[1.0, 2.0], [3.0, 4.0]])

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_features(str(tmp_path / "nope.csv"))

    def test_byte_order_mark(self, tmp_path):
        X = load_features(write(tmp_path, "f.csv", "\ufeff1.0,2.0\n3.0,4.0\n"))
        assert np.array_equal(X, [[1.0, 2.0], [3.0, 4.0]])


class TestLoadLabels:
    def test_basic(self, tmp_path):
        labels, C = load_labels(write(tmp_path, "l.csv", "1\n2\n1"), 3)
        assert np.array_equal(labels, [1, 2, 1])
        assert C == 2

    def test_byte_order_mark(self, tmp_path):
        labels, C = load_labels(write(tmp_path, "l.csv", "\ufeff1\n2\n1\n"), 3)
        assert np.array_equal(labels, [1, 2, 1])
        assert C == 2

    def test_skipped_class_accepted(self, tmp_path):
        # test or target labels need not cover every class
        labels, C = load_labels(write(tmp_path, "l.csv", "1\n3"), 2)
        assert np.array_equal(labels, [1, 3])
        assert C == 3

    def test_count_mismatch(self, tmp_path):
        with pytest.raises(ValueError, match="count mismatch"):
            load_labels(write(tmp_path, "l.csv", "1\n2"), 3)

    def test_nonpositive_label(self, tmp_path):
        with pytest.raises(ValueError, match="line 2"):
            load_labels(write(tmp_path, "l.csv", "1\n0"), 2)

    def test_non_integer_label_reports_line(self, tmp_path):
        with pytest.raises(ValueError, match=r"non-integer label '1\.5' at line 2"):
            load_labels(write(tmp_path, "l.csv", "1\n1.5\n2"), 3)


class TestClassIndexSets:
    def test_two_classes(self):
        groups = class_index_sets(np.array([1, 2, 1]), 2)
        assert [g.tolist() for g in groups] == [[0, 2], [1]]

    def test_single(self):
        groups = class_index_sets(np.array([1]), 1)
        assert [g.tolist() for g in groups] == [[0]]

    def test_reversed(self):
        groups = class_index_sets(np.array([2, 1]), 2)
        assert [g.tolist() for g in groups] == [[1], [0]]

    @given(
        st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=40)
    )
    def test_partition_property(self, raw):
        # rank-encode so class ids are contiguous from 1
        _, labels = np.unique(np.asarray(raw), return_inverse=True)
        labels = labels + 1
        C = int(labels.max())
        groups = class_index_sets(labels, C)
        merged = np.concatenate([g for g in groups])
        assert sorted(merged.tolist()) == list(range(len(labels)))
        for c, rows in enumerate(groups, start=1):
            assert np.all(labels[rows] == c)


class TestRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=6),
        d=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_write_then_load_exact(self, n, d, seed, tmp_path_factory):
        X = np.random.default_rng(seed).normal(scale=10.0, size=(n, d))
        path = tmp_path_factory.mktemp("rt") / "m.csv"
        write_features(str(path), X)
        assert np.array_equal(load_features(str(path)), X)


class TestLabeledDataset:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((3, 2)), np.array([1, 2]), 2)

    def test_one_dimensional_features_rejected(self):
        with pytest.raises(ValueError, match=r"features need 2 dimensions .* shape \(3,\)"):
            LabeledDataset(np.zeros(3), np.array([1, 2, 1]), 2)

    def test_column_of_labels_rejected(self):
        # (n, 1) labels would give (m, 1) 1-NN predictions that no 1-D
        # truth matches
        with pytest.raises(ValueError, match=r"labels need 1 dimension, got shape \(3, 1\)"):
            LabeledDataset(np.zeros((3, 2)), np.array([[1], [2], [1]]), 2)

    @pytest.mark.parametrize("labels", [[0, 1], [1, 3]], ids=["zero", "above-num-classes"])
    def test_label_outside_the_classes(self, labels):
        with pytest.raises(ValueError, match=r"labels must lie in \{1\.\.num_classes\}"):
            LabeledDataset(np.zeros((2, 2)), np.array(labels), 2)

    def test_missing_class(self):
        with pytest.raises(ValueError, match="absent"):
            LabeledDataset(np.zeros((2, 2)), np.array([1, 3]), 3)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_features_rejected(self, value):
        X = np.zeros((3, 2))
        X[1, 0] = value
        with pytest.raises(ValueError, match="dataset features hold a non-finite value in row 1"):
            LabeledDataset(X, np.array([1, 2, 1]), 2)

    def test_load_dataset(self, tmp_path):
        f = write(tmp_path, "f.csv", "0,1\n2,3\n4,5")
        l = write(tmp_path, "l.csv", "2\n1\n2")
        ds = load_dataset(f, l)
        assert ds.features.shape == (3, 2) and ds.d == 2 and ds.num_classes == 2

    def test_load_dataset_absent_class(self, tmp_path):
        f = write(tmp_path, "f.csv", "0,1\n2,3")
        l = write(tmp_path, "l.csv", "1\n3")
        with pytest.raises(ValueError, match=r"l\.csv: class 2 absent$"):
            load_dataset(f, l)


def test_pairwise_sq_dists_matches_direct():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(7, 3))
    Y = rng.normal(size=(4, 3))
    direct = ((X[:, None, :] - Y[None, :, :]) ** 2).sum(axis=2)
    assert np.allclose(pairwise_sq_dists(X, Y), direct, atol=1e-12)
    assert pairwise_sq_dists(X).min() >= 0.0
