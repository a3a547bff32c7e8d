import json
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergcn.cli import main
from hypergcn.dataio import (
    DataError,
    DatasetBundle,
    LabeledSplit,
    balanced_split_labels,
    gen_noisy_ssl,
    load_bundle,
    save_bundle,
)
from hypergcn.hypergraph import Hypergraph
from test_expansion import edges, hypergraph_and_signal


def write_dataset(tmp_path, hyperedges, features, labels, manifest=None):
    (tmp_path / "hyperedges.txt").write_text(hyperedges)
    (tmp_path / "features.csv").write_text(features)
    (tmp_path / "labels.txt").write_text(labels)
    if manifest is not None:
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))


class TestLoadBundle:
    def test_toy_directory(self, tmp_path):
        write_dataset(
            tmp_path,
            "0 1\n1 2\n",
            "1.0,2.0\n3.0,4.0\n5.0,6.0\n",
            "0\n1\n0\n",
        )
        bundle = load_bundle(tmp_path)
        assert bundle.hypergraph.n == 3
        assert edges(bundle.hypergraph) == ((0, 1), (1, 2))
        assert bundle.num_classes == 2
        np.testing.assert_array_equal(bundle.labels, [0, 1, 0])

    def test_singleton_dropped_with_warning(self, tmp_path):
        write_dataset(
            tmp_path,
            "0 1\n2\n1 2\n",
            "1,0\n0,1\n1,1\n",
            "0\n1\n0\n",
        )
        with pytest.warns(UserWarning, match="fewer than 2"):
            bundle = load_bundle(tmp_path)
        assert edges(bundle.hypergraph) == ((0, 1), (1, 2))

    def test_label_out_of_range_names_line(self, tmp_path):
        write_dataset(
            tmp_path,
            "0 1\n",
            "1,0\n0,1\n",
            "0\n2\n",
            manifest={"q": 2},
        )
        with pytest.raises(DataError, match=r"labels\.txt line 2"):
            load_bundle(tmp_path)

    def test_bad_feature_value_names_line(self, tmp_path):
        write_dataset(tmp_path, "0 1\n", "1,0\n0,oops\n", "0\n1\n")
        with pytest.raises(DataError, match=r"features\.csv line 2"):
            load_bundle(tmp_path)

    @pytest.mark.parametrize("features, line", [("1,0\n0\n1,1\n", 2), ("1,0\n\n0\n", 3)],
                             ids=["short-row", "after-blank-line"])
    def test_ragged_feature_rows_name_line(self, tmp_path, capsys, features, line):
        # failed with "inconsistent row lengths" and no line; a blank line,
        # which loadtxt skips, was named as a bad value
        write_dataset(tmp_path, "0 1\n", features, "0\n1\n0\n")
        message = f"features.csv line {line}: 1 values, expected 2"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            load_bundle(tmp_path)
        assert main(["validate", "--data", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 1 and "config" in json.loads(out)  # the echo only
        assert message in err

    def test_vertex_out_of_range_names_line(self, tmp_path):
        write_dataset(tmp_path, "0 1\n0 7\n", "1,0\n0,1\n", "0\n1\n")
        with pytest.raises(DataError, match=r"hyperedges\.txt line 2"):
            load_bundle(tmp_path)

    def test_label_count_mismatch(self, tmp_path):
        write_dataset(tmp_path, "0 1\n", "1,0\n0,1\n", "0\n")
        with pytest.raises(DataError, match="1 labels for 2 vertices"):
            load_bundle(tmp_path)

    def test_empty_class_rejected(self, tmp_path):
        write_dataset(tmp_path, "0 1\n", "1,0\n0,1\n", "0\n2\n")
        with pytest.raises(DataError, match="class 1 has no members"):
            load_bundle(tmp_path)

    def test_manifest_mismatch(self, tmp_path):
        write_dataset(
            tmp_path, "0 1\n", "1,0\n0,1\n", "0\n1\n", manifest={"n": 5}
        )
        with pytest.raises(DataError, match="manifest"):
            load_bundle(tmp_path)

    @pytest.mark.parametrize("text, message", [
        ("{not json", "not valid JSON"),  # used to raise JSONDecodeError
        ("[1, 2]", "expected an object, got list"),  # AttributeError
        ('{"q": "x"}', "q='x' is not an integer"),  # TypeError
        ('{"n": true}', "n=True is not an integer"),
    ])
    def test_malformed_manifest_is_data_error(self, tmp_path, text, message):
        write_dataset(tmp_path, "0 1\n", "1,0\n0,1\n", "0\n1\n")
        (tmp_path / "manifest.json").write_text(text)
        with pytest.raises(DataError, match=re.escape(f"manifest.json: {message}")):
            load_bundle(tmp_path)

    def test_manifest_not_utf8_is_data_error(self, tmp_path):
        write_dataset(tmp_path, "0 1\n", "1,0\n0,1\n", "0\n1\n")
        (tmp_path / "manifest.json").write_bytes(b"\xff{}")
        with pytest.raises(DataError, match="manifest.json: not valid JSON"):
            load_bundle(tmp_path)

    def test_roundtrip_identity(self, tmp_path):
        rng = np.random.default_rng(42)
        n = 12
        rows = [rng.choice(n, size=int(rng.integers(2, 5)), replace=False) for _ in range(7)]
        labels = rng.integers(0, 3, size=n)
        labels[:3] = [0, 1, 2]
        bundle = DatasetBundle(
            name="roundtrip",
            hypergraph=Hypergraph.from_edges(n, rows),
            features=rng.normal(size=(n, 4)),
            labels=labels,
            num_classes=3,
        )
        save_bundle(bundle, tmp_path / "out")
        loaded = load_bundle(tmp_path / "out")
        assert loaded.name == bundle.name
        assert edges(loaded.hypergraph) == edges(bundle.hypergraph)
        assert loaded.num_classes == bundle.num_classes
        np.testing.assert_array_equal(loaded.labels, bundle.labels)
        np.testing.assert_array_equal(loaded.features, bundle.features)

    @settings(max_examples=60, deadline=None)
    @given(hypergraph_and_signal(), st.integers(1, 3), st.integers(0, 2**31))
    def test_roundtrip_is_exact(self, hs, q, seed):
        # duplicate hyperedges, all-zero and rounded (signed zero)
        # features: edges, feature bits and labels all come back
        h, features = hs
        q = min(q, h.n)
        labels = np.random.default_rng(seed).permutation(np.arange(h.n) % q)
        bundle = DatasetBundle(name="prop", hypergraph=h, features=features,
                               labels=labels, num_classes=q)
        with tempfile.TemporaryDirectory() as d:
            save_bundle(bundle, d)
            loaded = load_bundle(d)
        assert edges(loaded.hypergraph) == edges(h)
        assert loaded.features.shape == features.shape
        assert loaded.features.tobytes() == features.tobytes()
        assert loaded.labels.tolist() == labels.tolist()
        assert loaded.num_classes == q


class TestLabeledSplit:
    @pytest.mark.parametrize("labels, train_idx, eval_idx, problem", [
        ([0, 1, -1], [0], [1], "labels are not 1-D non-negative whole numbers"),
        ([0, 1, 0.5], [0], [1], "labels are not 1-D non-negative whole numbers"),
        ([[0, 1, 0]], [0], [1], "labels are not 1-D non-negative whole numbers"),
        ([0, 1, np.nan], [0], [1], "labels are not 1-D non-negative whole numbers"),
        ([], [0], [1], "empty labels"),
        ([0, 1, 0], [], [1], "empty labelled set"),
        ([0, 1, 0], [0], [], "empty evaluation set"),
        ([0, 1, 0], [0, 3], [1], re.escape("train_idx has entries outside [0, 3)")),
        ([0, 1, 0], [0], [-1], re.escape("eval_idx has entries outside [0, 3)")),
        ([0, 1, 0], [0, 1.5], [2], "train_idx are not 1-D whole numbers"),
    ], ids=["negative-label", "fractional-label", "2d-labels", "nan-label", "empty-labels",
            "empty-train", "empty-eval", "index-outside", "negative-index", "fractional-index"])
    def test_rule_broken_rejected(self, labels, train_idx, eval_idx, problem):
        # the split took each of these; train_ssl or evaluate, or nothing, rejected it later
        with pytest.raises(DataError, match=problem):
            LabeledSplit(np.array(labels), np.array(train_idx), np.array(eval_idx))

    def test_arrays_are_read_only_int64_copies(self):
        labels, train_idx = np.array([0.0, 1.0, 1.0]), [0, 2]
        split = LabeledSplit(labels, np.array(train_idx, dtype=np.int32), np.array([1]))
        for arr in (split.labels, split.train_idx, split.eval_idx):
            assert arr.dtype == np.int64 and not arr.flags.writeable
        assert split.labels.tolist() == [0, 1, 1] and split.train_idx.tolist() == train_idx
        labels[0] = 5.0
        assert split.labels[0] == 0
        with pytest.raises(ValueError, match="read-only"):
            split.eval_idx[0] = 2


class TestBalancedSplit:
    def test_exact_per_class_counts(self):
        rng = np.random.default_rng(0)
        labels = np.repeat([0, 1], 50)
        split = balanced_split_labels(labels, 4, rng)
        assert split.train_idx.size == 4
        for c in (0, 1):
            assert (labels[split.train_idx] == c).sum() == 2

    def test_indivisible_budget_rejected(self):
        with pytest.raises(DataError, match="not divisible"):
            balanced_split_labels(np.array([0, 1] * 10), 5, np.random.default_rng(0))

    @pytest.mark.parametrize("budget", [0, -2])
    def test_budget_below_one_rejected(self, budget):
        # -2 failed inside numpy; 0 gave an empty labelled set
        with pytest.raises(DataError, match="budget"):
            balanced_split_labels(np.array([0, 1] * 10), budget, np.random.default_rng(0))

    @pytest.mark.parametrize("labels, problem", [
        ([0.5, 0.7, 1.2, 1.9, 0.1, 1.0], "labels are not 1-D non-negative whole numbers"),
        ([], "empty labels"),
    ], ids=["fractional", "empty"])
    def test_labels_breaking_the_split_rule_rejected(self, labels, problem):
        # fractional labels were truncated to [0, 0, 1, 1, 0, 1] and drawn
        # from; empty ones failed inside numpy's maximum
        rng = np.random.default_rng(0)
        with pytest.raises(DataError, match=problem):
            balanced_split_labels(np.array(labels), 2, rng)
        assert rng.random() == np.random.default_rng(0).random()  # no draw was made

    def test_insufficient_class_rejected(self):
        labels = np.array([0] * 10 + [1])
        with pytest.raises(DataError, match="class 1 has 1 members"):
            balanced_split_labels(labels, 4, np.random.default_rng(0))

    def test_budget_leaving_no_evaluation_set_rejected(self):
        # every vertex labelled: training used to run to the end and then
        # fail in evaluation
        labels = np.array([0, 1] * 6)
        with pytest.raises(DataError, match="empty evaluation set"):
            balanced_split_labels(labels, 12, np.random.default_rng(0))
        assert balanced_split_labels(labels, 10, np.random.default_rng(0)).eval_idx.size == 2

    def test_disjoint_and_exhaustive(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 4, size=100)
        for c in range(4):
            labels[c * 10 : c * 10 + 10] = c  # guarantee enough members
        split = balanced_split_labels(labels, 8, rng)
        assert np.intersect1d(split.train_idx, split.eval_idx).size == 0
        assert split.train_idx.size + split.eval_idx.size == 100

    def test_label_rate_seven_class_example(self):
        # budget 140 over 7 classes is 20 per class; on 2708 vertices the
        # label rate is about 0.052
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 7, size=2708)
        for c in range(7):
            labels[c * 30 : (c + 1) * 30] = c
        split = balanced_split_labels(labels, 140, rng)
        for c in range(7):
            assert (labels[split.train_idx] == c).sum() == 20
        assert split.train_idx.size / labels.size == pytest.approx(0.052, abs=0.001)

    def test_uniform_sampling_over_members(self):
        # every member of a class should be picked with equal frequency
        labels = np.array([0] * 8 + [1] * 8)
        counts = np.zeros(16)
        reps = 4000
        rng = np.random.default_rng(4)
        for _ in range(reps):
            split = balanced_split_labels(labels, 2, rng)
            counts[split.train_idx] += 1
        expected = reps / 8
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert chi2 < 37.7  # 99.9% quantile of chi2(15)


class TestGenNoisySsl:
    def test_structure_counts(self):
        bundle = gen_noisy_ssl(eta=0.5, rng=np.random.default_rng(0))
        h = bundle.hypergraph
        assert h.n == 1000
        assert h.m == 500
        sizes = sorted(len(e) for e in edges(h))
        assert sizes[:100] == [5] * 100
        assert sizes[100:] == [20] * 400
        assert bundle.features.shape == (1000, 256)
        assert (bundle.labels == 0).sum() == 500

    def test_pure_edges_single_class(self):
        bundle = gen_noisy_ssl(eta=0.75, rng=np.random.default_rng(1))
        for e in edges(bundle.hypergraph):
            if len(e) == 5:
                assert len(set(bundle.labels[list(e)])) == 1

    @pytest.mark.parametrize(
        "eta,minority", [(1.0, 10), (0.75, 9), (0.5, 7)]
    )
    def test_noisy_edge_class_ratio(self, eta, minority):
        bundle = gen_noisy_ssl(eta=eta, rng=np.random.default_rng(2))
        for e in edges(bundle.hypergraph):
            if len(e) == 20:
                ones = int(bundle.labels[list(e)].sum())
                assert {ones, 20 - ones} == {minority, 20 - minority}

    def test_invalid_eta(self):
        with pytest.raises(DataError, match="eta"):
            gen_noisy_ssl(eta=0.0, rng=np.random.default_rng(0))
        with pytest.raises(DataError, match="eta"):
            gen_noisy_ssl(eta=1.2, rng=np.random.default_rng(0))

    def test_small_configuration(self):
        bundle = gen_noisy_ssl(
            eta=1.0, rng=np.random.default_rng(3), n=40, pure=3, noisy=4,
            pure_size=3, noisy_size=6, feat_dim=5,
        )
        assert bundle.hypergraph.m == 7
        assert bundle.features.shape == (40, 5)

