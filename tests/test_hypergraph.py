import itertools
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings

from hypergcn import dataio, densek, expansion, nn
from hypergcn.hypergraph import Hypergraph, size_counts
from test_expansion import edges, extreme_pair, hypergraph_and_signal


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


def check_clique_pairs(h):
    """Check `h.clique_pairs` against the CSR arrays: `ptr` is the
    cumulative s(s-1)/2 over the hyperedge sizes, hyperedge e's pairs are
    `itertools.combinations(e, 2)` in order, and the arrays are read-only
    int64 and cached. Returns the sorted distinct hyperedge sizes."""
    sizes = h.edge_sizes()
    ptr, a, b = h.clique_pairs
    assert ptr.tolist() == [0, *np.cumsum(sizes * (sizes - 1) // 2).tolist()]
    assert list(zip(a.tolist(), b.tolist())) == [
        pair for e in edges(h) for pair in itertools.combinations(e, 2)]
    assert all(arr.dtype == np.int64 and not arr.flags.writeable for arr in (ptr, a, b))
    assert h.clique_pairs is h.clique_pairs
    return sorted(set(sizes.tolist()))


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

    @pytest.mark.parametrize("n", [2.5, 3.0, np.float64(3.0), True],
                             ids=["2.5", "3.0", "float64-3.0", "True"])
    @pytest.mark.parametrize("build", [
        lambda n: Hypergraph(n, [0, 3], [0, 1, 2], [1.0]),
        lambda n: Hypergraph.from_edges(n, [(0, 1, 2)])], ids=["csr", "from_edges"])
    def test_non_integer_vertex_count_rejected(self, build, n):
        # a float count built, then failed in the expansions with a
        # TypeError; from_edges truncated 2.5 to 2
        with pytest.raises(ValueError, match="not an integer"):
            build(n)

    def test_numpy_integer_vertex_count_stored_as_int(self):
        h = Hypergraph(np.int32(3), [0, 3], [0, 1, 2], [1.0])
        assert type(h.n) is int and h == Hypergraph.from_edges(3, [(0, 1, 2)])

    def test_arrays_are_read_only_copies(self):
        indices = np.array([0, 1, 1, 2])
        weights = np.array([1.0, 2.0])
        h = Hypergraph(3, [0, 2, 4], indices, weights)
        indices[0], weights[0] = 5, -1.0  # the caller's arrays stay theirs
        assert edges(h) == ((0, 1), (1, 2)) and h.weights[0] == 1.0
        ht, hm = h.incidence
        for arr in (h.indptr, h.indices, h.weights, *h.clique_pairs,
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
        # unpickling re-runs the constructor's validation and freezes the arrays again
        h = Hypergraph.from_edges(3, [(0, 1), (1, 2)], weights=[2.0, 3.0])
        h.clique_pairs
        copy = pickle.loads(pickle.dumps(h))
        assert edges(copy) == edges(h) and copy.weights.tolist() == [2.0, 3.0]
        assert not copy.indices.flags.writeable
        assert not copy.clique_pairs[1].flags.writeable

    def test_from_edges_matches_tuple_canonicalization(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            rows = [rng.integers(0, n, size=int(rng.integers(2, 8))) for _ in range(12)]
            rows = [r for r in rows if np.unique(r).size >= 2]
            h = Hypergraph.from_edges(n, rows)
            assert edges(h) == tuple(tuple(sorted(set(r.tolist()))) for r in rows)

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
        assert (h.m, h.indptr.tolist()) == (0, [0])
        assert [arr.tolist() for arr in h.clique_pairs] == [[0], [], []]
        assert h.edge_sizes().dtype == np.int64


class TestCliquePairs:
    @settings(max_examples=200, deadline=None)
    @given(hypergraph_and_signal())
    def test_each_hyperedges_combinations_in_order(self, hs):
        h, _ = hs
        h.clique_pairs
        copy = pickle.loads(pickle.dumps(h))
        assert "clique_pairs" not in vars(copy)  # pickling drops the cache
        assert check_clique_pairs(h) == check_clique_pairs(copy)
        assert edges(copy) == edges(h)


class TestCliquePairsOverMixedSizes:
    """The pair list over the size mixes that the padded size bands, which
    it replaced, were tested on."""

    def test_noisy_benchmark_sizes_stay_two_groups(self):
        # 100 hyperedges of size 5 and 100 of size 20: 10 and 190 pairs each
        h = dataio.gen_noisy_ssl(0.5, np.random.default_rng(7)).hypergraph
        assert check_clique_pairs(h) == [5, 20]
        assert set(np.diff(h.clique_pairs[0]).tolist()) == {10, 190}

    def test_dksh_sizes_share_padded_bands(self):
        # sizes 2..10, a dozen hyperedges of each, searched on the degree
        # features, where most hyperedges tie, as sequential calls pick
        rng = np.random.default_rng(3)
        for n in (100, 200, 300):
            h, _ = densek.gen_sample(n, 3 * n // 4, 0.75, rng)
            sizes = check_clique_pairs(h)
            assert sizes[0] == 2 and sizes[-1] == 10
            x = densek.vertex_features(h)
            seed = int(rng.integers(2**31))
            scalar_rng = np.random.default_rng(seed)
            want = [extreme_pair(h, idx, x, scalar_rng) for idx in range(h.m)]
            got = expansion.extreme_pairs(h, x, np.random.default_rng(seed))
            assert [tuple(p) for p in got.tolist()] == want

    def test_bands_over_random_sizes(self):
        rng = np.random.default_rng(21)
        mixed = 0
        for _ in range(100):
            n = int(rng.integers(12, 40))
            rows = [rng.choice(n, size=int(rng.integers(2, 13)), replace=False)
                    for _ in range(int(rng.integers(1, 30)))]
            mixed += len(check_clique_pairs(Hypergraph.from_edges(n, rows))) > 1
        assert mixed > 90

    def test_padded_band_is_read_only(self):
        h = Hypergraph.from_edges(4, [(0, 1), (1, 2, 3)])
        ptr, a, b = h.clique_pairs
        assert [ptr.tolist(), a.tolist(), b.tolist()] == [[0, 1, 4], [0, 1, 1, 2], [1, 2, 3, 3]]
        for arr in (ptr, a, b):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0


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

    @pytest.mark.parametrize("build", [
        lambda: expansion.WeightedGraph(3, np.array([0, 1]), np.array([1, 2]), np.ones(2)),
        lambda: dataio.LabeledSplit(np.array([0, 1, 0]), np.array([0, 1]), np.array([2])),
        lambda: dataio.DatasetBundle("toy", Hypergraph.from_edges(3, [(0, 1, 2)]),
                                     np.ones((3, 2)), np.array([0, 1, 0]), 2),
        lambda: densek.ProbabilityMaps(np.full((3, 2), 0.5)),
        lambda: densek.DenseKModel(np.ones((2, 3)), np.ones((3, 2)), "hypergcn"),
        lambda: nn.AdamState(0.01, 0.0, np.zeros(3), np.zeros(3)),
        lambda: nn.Params.of(np.ones((2, 3)), np.ones((3, 2))),
    ], ids=["WeightedGraph", "LabeledSplit", "DatasetBundle", "ProbabilityMaps",
            "DenseKModel", "AdamState", "Params"])
    def test_array_holders_compare_by_identity(self, build):
        # the generated __eq__ compared arrays and raised, and no
        # instance could be hashed
        a, rebuilt = build(), build()
        assert a == a
        assert (a == rebuilt) is False
        assert len({a, rebuilt}) == 2

    def test_equal_hypergraphs_hash_alike(self):
        # Hypergraph defined __eq__ without __hash__, so neither it nor a
        # DenseKInstance holding it could be hashed
        a = Hypergraph.from_edges(4, [(0, 1, 2), (2, 3)], weights=[1.5, 2.0])
        b = Hypergraph.from_edges(4, [(3, 2), (2, 1, 0)][::-1], weights=[1.5, 2.0])
        assert a == b and a is not b and hash(a) == hash(b)
        assert hash(pickle.loads(pickle.dumps(a))) == hash(a)
        assert len({densek.DenseKInstance(a, 2), densek.DenseKInstance(b, 2)}) == 1
        assert len({a, Hypergraph.from_edges(4, [(0, 1, 2), (2, 3)], weights=[1.5, 3.0])}) == 2
