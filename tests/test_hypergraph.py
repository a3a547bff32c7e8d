import pickle
import re

import numpy as np
import pytest

from hypergcn import dataio, densek, hypergraph
from hypergcn.hypergraph import Hypergraph, degrees, size_counts
from test_expansion import edges


# (n, edges, weights, the message naming the offending hyperedge)
BAD_INPUTS = {
    "id-out-of-range": (4, [(0, 1), (2, 5)], None, "hyperedge 1: vertex 5 out of range [0, 4)"),
    "negative-id": (4, [(0, 1), (-1, 2)], None, "hyperedge 1: vertex -1 out of range [0, 4)"),
    "size-1": (4, [(0, 1), (3,)], None, "hyperedge 1: size 1 < 2"),
    "negative-weight": (4, [(0, 1), (2, 3)], [1.0, -1.0],
                        "hyperedge 1: weight -1.0 not finite and > 0"),
    "one-weight-two-edges": (4, [(0, 1), (2, 3)], [1.0],
                             "1 weights for 2 hyperedges (hyperedge 1 has none)"),
}


def violations(n, edges, weights=None):
    """The messages of the ValueError that building the hypergraph raises."""
    with pytest.raises(ValueError) as info:
        Hypergraph.from_edges(n, edges, weights)
    return str(info.value).split("; ")


def check_size_groups(h):
    """Check `h.size_groups` against the CSR arrays: disjoint bands of
    consecutive sizes, in increasing size, that cover every hyperedge once;
    rows in edge-id order, padded past their size with their first member;
    row sizes, None for a band of one size; and at most `_BAND_PADDING`
    pairs added by padding per band. Returns the (smallest, largest) size
    of each band."""
    sizes = h.edge_sizes()
    spans, seen = [], []
    for width, idxs, members, own in h.size_groups:
        band = sizes[idxs]
        assert band.max() == width and np.all(np.diff(idxs) > 0)
        assert members.shape == (idxs.size, width)
        for row, idx in zip(members.tolist(), idxs.tolist()):
            e = edges(h)[idx]
            assert row == list(e) + [e[0]] * (width - len(e))
        if band.min() == width:
            assert own is None
        else:
            np.testing.assert_array_equal(own, band)
        padding = (width * (width - 1) - band * (band - 1)) // 2
        assert padding.sum() <= hypergraph._BAND_PADDING
        spans.append((int(band.min()), width))
        seen += idxs.tolist()
    assert sorted(seen) == list(range(h.m))
    assert all(a[1] < b[0] for a, b in zip(spans, spans[1:]))
    return spans


class TestValidate:
    def test_valid_hypergraph(self):
        h = Hypergraph.from_edges(3, [(0, 1, 2)])
        assert (h.n, h.m) == (3, 1)

    def test_vertex_out_of_range(self):
        problems = violations(3, [(0, 3)])
        assert len(problems) == 1
        assert "vertex 3 out of range" in problems[0]
        assert "hyperedge 0" in problems[0]

    def test_singleton_hyperedge(self):
        problems = violations(2, [(1,)])
        assert any("size 1 < 2" in p for p in problems)

    def test_reports_every_violation(self):
        problems = violations(2, [(0,), (0, 5)], weights=[1.0, -2.0])
        assert len(problems) == 3  # size, range, weight

    def test_nonpositive_and_nonfinite_weights(self):
        assert len(violations(3, [(0, 1), (1, 2)], weights=[0.0, np.inf])) == 2

    def test_duplicate_hyperedges_allowed(self):
        h = Hypergraph.from_edges(2, [(0, 1), (0, 1)])
        assert edges(h) == ((0, 1), (0, 1))

    def test_from_edges_dedupes_within_edge(self):
        h = Hypergraph.from_edges(3, [(2, 0, 2, 1)])
        assert edges(h) == ((0, 1, 2),)

    @pytest.mark.parametrize("case", BAD_INPUTS)
    def test_bad_input_names_hyperedge(self, case):
        n, es, weights, message = BAD_INPUTS[case]
        with pytest.raises(ValueError, match=re.escape(message)):
            Hypergraph.from_edges(n, es, weights)

    def test_messages_in_hyperedge_order(self):
        problems = violations(3, [(0, 1), (1, 1), (0, 2, 7, 9), ()], weights=[1, 1, -1, 1])
        assert problems == [
            "hyperedge 1: size 1 < 2",
            "hyperedge 2: vertex 7 out of range [0, 3)",
            "hyperedge 2: vertex 9 out of range [0, 3)",
            "hyperedge 3: size 0 < 2",
            "hyperedge 2: weight -1.0 not finite and > 0",
        ]

    def test_constructor_checks_row_order(self):
        # from_edges sorts rows; the CSR constructor takes them as given
        with pytest.raises(ValueError, match=r"^hyperedge 1: ids not sorted and distinct$"):
            Hypergraph(4, [0, 2, 4], [0, 1, 3, 2], [1.0, 1.0])
        with pytest.raises(ValueError, match=r"^hyperedge 0: ids not sorted and distinct$"):
            Hypergraph(4, [0, 3], [0, 2, 2], [1.0])

    def test_counts_and_layout(self):
        with pytest.raises(ValueError, match="vertex count -1 is negative"):
            Hypergraph(-1, [0], [], [])
        with pytest.raises(ValueError, match="3 weights for 1 hyperedges"):
            Hypergraph(3, [0, 2], [0, 1], [1.0, 1.0, 1.0])
        for indptr in ([], [1, 2], [0, 3], [0, 2, 1, 2]):
            with pytest.raises(ValueError, match="indptr"):
                Hypergraph(3, indptr, [0, 1], np.ones(max(len(indptr) - 1, 0)))

    def test_arrays_are_read_only_copies(self):
        indices = np.array([0, 1, 1, 2])
        weights = np.array([1.0, 2.0])
        h = Hypergraph(3, [0, 2, 4], indices, weights)
        indices[0], weights[0] = 5, -1.0  # the caller's arrays stay theirs
        assert edges(h) == ((0, 1), (1, 2)) and h.weights[0] == 1.0
        ht, hm = h.incidence
        for arr in (h.indptr, h.indices, h.weights, *h.size_groups[0][1:3],
                    ht.data, hm.data, hm.indices, hm.indptr):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        assert (h.indptr.dtype, h.indices.dtype, h.weights.dtype) == (
            np.int64, np.int64, np.float64)

    def test_incidence_is_the_membership_matrix(self):
        h = Hypergraph.from_edges(5, [(0, 1, 2), (2, 3), (1, 3, 4), (2, 3)])
        ht, hm = h.incidence
        member = np.zeros((h.m, h.n))
        for idx, e in enumerate(edges(h)):
            member[idx, list(e)] = 1.0
        assert ht.format == hm.format == "csr"
        np.testing.assert_array_equal(ht.toarray(), member)
        np.testing.assert_array_equal(hm.toarray(), member.T)
        assert h.incidence is h.incidence

    def test_pickle_rebuilds_through_constructor(self):
        # run_trials sends the hypergraph to worker processes
        h = Hypergraph.from_edges(3, [(0, 1), (1, 2)], weights=[2.0, 3.0])
        h.size_groups
        copy = pickle.loads(pickle.dumps(h))
        assert edges(copy) == edges(h) and copy.weights.tolist() == [2.0, 3.0]
        assert not copy.indices.flags.writeable
        assert not copy.size_groups[0][2].flags.writeable

    def test_from_edges_matches_tuple_canonicalization(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            rows = [rng.integers(0, n, size=int(rng.integers(2, 8))) for _ in range(12)]
            rows = [r for r in rows if np.unique(r).size >= 2]
            h = Hypergraph.from_edges(n, rows)
            assert edges(h) == tuple(tuple(sorted(set(r.tolist()))) for r in rows)
            check_size_groups(h)

    def test_fractional_ids_rejected(self):
        # a cast to int64 would truncate them to the hyperedge (0, 2)
        assert violations(4, [(0, 1), (0.5, 2.7)]) == [
            "hyperedge 1: vertex 0.5 not an integer",
            "hyperedge 1: vertex 2.7 not an integer",
        ]
        with pytest.raises(ValueError, match=r"^hyperedge 0: vertex 0.9 not an integer; "
                                             r"hyperedge 0: vertex 3.2 not an integer$"):
            Hypergraph(4, [0, 2], [0.9, 3.2], [1.0])
        assert violations(4, [(1, np.nan), (0, 1)]) == ["hyperedge 0: vertex nan not an integer"]

    def test_whole_float_ids_accepted(self):
        assert edges(Hypergraph(4, [0, 2], [0.0, 3.0], [1.0])) == ((0, 3),)
        assert edges(Hypergraph.from_edges(4, [(2.0, 1.0)])) == ((1, 2),)

    def test_no_hyperedges(self):
        h = Hypergraph.from_edges(4, [])
        assert (h.m, h.size_groups, h.indptr.tolist()) == (0, (), [0])
        assert h.edge_sizes().dtype == np.int64


class TestSizeGroups:
    def test_noisy_benchmark_sizes_stay_two_groups(self):
        # 100 hyperedges of size 5 padded to 20 would add 18,000 pairs
        h = dataio.gen_noisy_ssl(0.5, np.random.default_rng(7)).hypergraph
        assert check_size_groups(h) == [(5, 5), (20, 20)]
        assert [own for *_, own in h.size_groups] == [None, None]

    def test_dksh_sizes_share_padded_bands(self):
        # sizes 2..10, a dozen hyperedges of each: fewer, padded groups
        rng = np.random.default_rng(3)
        for n in (100, 200, 300):
            h, _ = densek.gen_sample(n, 3 * n // 4, 0.75, rng)
            spans = check_size_groups(h)
            assert spans[0][0] == 2 and spans[-1][1] == 10 and len(spans) < 9
            assert any(lo < hi for lo, hi in spans)

    def test_bands_over_random_sizes(self):
        rng = np.random.default_rng(21)
        padded = 0
        for _ in range(100):
            n = int(rng.integers(12, 40))
            rows = [rng.choice(n, size=int(rng.integers(2, 13)), replace=False)
                    for _ in range(int(rng.integers(1, 30)))]
            spans = check_size_groups(Hypergraph.from_edges(n, rows))
            padded += sum(lo < hi for lo, hi in spans)
        assert padded > 100

    def test_padded_band_is_read_only(self):
        h = Hypergraph.from_edges(4, [(0, 1), (1, 2, 3)])
        ((width, idxs, members, own),) = h.size_groups
        assert (width, members.tolist(), own.tolist()) == (3, [[0, 1, 0], [1, 2, 3]], [2, 3])
        for arr in (idxs, members, own):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0


class TestDegrees:
    def test_unit_weights(self):
        h = Hypergraph.from_edges(3, [(0, 1), (0, 2)])
        np.testing.assert_array_equal(degrees(h), [2.0, 1.0, 1.0])

    def test_weighted(self):
        h = Hypergraph.from_edges(3, [(0, 1, 2)], weights=[0.5])
        np.testing.assert_array_equal(degrees(h), [0.5, 0.5, 0.5])

    def test_no_edges(self):
        h = Hypergraph.from_edges(4, [])
        np.testing.assert_array_equal(degrees(h), np.zeros(4))

    def test_degree_sum_identity(self):
        # sum of degrees equals sum of |e| * w(e)
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(3, 20))
            m = int(rng.integers(1, 15))
            rows = [
                rng.choice(n, size=int(rng.integers(2, min(n, 6) + 1)), replace=False)
                for _ in range(m)
            ]
            w = rng.uniform(0.1, 3.0, size=m)
            h = Hypergraph.from_edges(n, rows, w)
            expected = sum(len(e) * we for e, we in zip(edges(h), h.weights))
            assert degrees(h).sum() == pytest.approx(expected)

    def test_linear_in_weights(self):
        rng = np.random.default_rng(7)
        edges = [(0, 1, 2), (1, 3), (0, 3, 4)]
        w = rng.uniform(0.5, 2.0, size=3)
        h1 = Hypergraph.from_edges(5, edges, w)
        h2 = Hypergraph.from_edges(5, edges, 3.0 * w)
        np.testing.assert_allclose(degrees(h2), 3.0 * degrees(h1), rtol=1e-15)


class TestSizeCounts:
    @pytest.mark.parametrize(
        "sizes,expected",
        [
            ([5], (5, 7, 10)),
            ([3], (3, 3, 3)),
            ([2, 4], (6, 6, 7)),
        ],
    )
    def test_examples(self, sizes, expected):
        edges = []
        start = 0
        for s in sizes:
            edges.append(tuple(range(start, start + s)))
            start += s
        h = Hypergraph.from_edges(start, edges)
        assert size_counts(h) == expected

    def test_mediator_budget_never_exceeds_clique(self):
        # equality holds exactly when every size is 2 or 3
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = 30
            sizes = rng.integers(2, 9, size=rng.integers(1, 8))
            edges = [rng.choice(n, size=s, replace=False) for s in sizes]
            h = Hypergraph.from_edges(n, edges)
            _, n_med, n_clq = size_counts(h)
            assert n_med <= n_clq
            if all(s in (2, 3) for s in sizes):
                assert n_med == n_clq
            if any(s > 3 for s in sizes):
                assert n_med < n_clq


class TestEquality:
    def test_separately_built_equal(self):
        a = Hypergraph.from_edges(3, [(0, 1), (1, 2)])
        b = Hypergraph.from_edges(3, [(1, 0), (2, 1)])
        assert a == b and not a != b

    def test_pickled_copy_equal(self):
        h = Hypergraph.from_edges(3, [(0, 1), (1, 2)], weights=[2.0, 3.0])
        assert pickle.loads(pickle.dumps(h)) == h

    def test_different_weights_unequal(self):
        a = Hypergraph.from_edges(3, [(0, 1), (1, 2)], weights=[1.0, 2.0])
        b = Hypergraph.from_edges(3, [(0, 1), (1, 2)], weights=[1.0, 3.0])
        assert a != b and not a == b
