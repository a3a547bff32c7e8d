import json

import numpy as np
import pytest

from hypergcn.dataio import (
    DataError,
    DatasetBundle,
    balanced_split,
    balanced_split_labels,
    gen_noisy_ssl,
    load_bundle,
    save_bundle,
)
from hypergcn.hypergraph import Hypergraph


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
        assert bundle.hypergraph.edges == ((0, 1), (1, 2))
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
        assert bundle.hypergraph.edges == ((0, 1), (1, 2))

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

    def test_roundtrip_identity(self, tmp_path):
        rng = np.random.default_rng(42)
        n = 12
        edges = [rng.choice(n, size=int(rng.integers(2, 5)), replace=False) for _ in range(7)]
        labels = rng.integers(0, 3, size=n)
        labels[:3] = [0, 1, 2]
        bundle = DatasetBundle(
            name="roundtrip",
            hypergraph=Hypergraph.from_edges(n, edges),
            features=rng.normal(size=(n, 4)),
            labels=labels,
            num_classes=3,
        )
        save_bundle(bundle, tmp_path / "out")
        loaded = load_bundle(tmp_path / "out")
        assert loaded.name == bundle.name
        assert loaded.hypergraph.edges == bundle.hypergraph.edges
        assert loaded.num_classes == bundle.num_classes
        np.testing.assert_array_equal(loaded.labels, bundle.labels)
        np.testing.assert_array_equal(loaded.features, bundle.features)


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

    def test_insufficient_class_rejected(self):
        labels = np.array([0] * 10 + [1])
        with pytest.raises(DataError, match="class 1 has 1 members"):
            balanced_split_labels(labels, 4, np.random.default_rng(0))

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

    def test_bundle_wrapper(self):
        rng = np.random.default_rng(3)
        labels = np.repeat([0, 1], 8)
        bundle = DatasetBundle(
            name="t",
            hypergraph=Hypergraph.from_edges(16, [(0, 1)]),
            features=np.zeros((16, 2)),
            labels=labels,
            num_classes=2,
        )
        split = balanced_split(bundle, 4, rng)
        assert split.train_idx.size == 4

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
        sizes = sorted(len(e) for e in h.edges)
        assert sizes[:100] == [5] * 100
        assert sizes[100:] == [20] * 400
        assert bundle.features.shape == (1000, 256)
        assert (bundle.labels == 0).sum() == 500

    def test_pure_edges_single_class(self):
        bundle = gen_noisy_ssl(eta=0.75, rng=np.random.default_rng(1))
        for e in bundle.hypergraph.edges:
            if len(e) == 5:
                assert len(set(bundle.labels[list(e)])) == 1

    @pytest.mark.parametrize(
        "eta,minority", [(1.0, 10), (0.75, 9), (0.5, 7)]
    )
    def test_noisy_edge_class_ratio(self, eta, minority):
        bundle = gen_noisy_ssl(eta=eta, rng=np.random.default_rng(2))
        for e in bundle.hypergraph.edges:
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

