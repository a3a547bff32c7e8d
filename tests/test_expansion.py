import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergcn import expansion
from hypergcn.expansion import (
    NormalizedAdjacency,
    WeightedGraph,
    as_signal,
    clique_adjacency,
    expand_clique,
    expand_mediators,
    expand_one_edge,
    extreme_pairs,
    mediator_adjacency,
    normalize,
)
from hypergcn.hypergraph import Hypergraph
from hypergcn.nn import spmm

NO_IDS = np.empty(0, dtype=np.int64)


def edges(h):
    """Each hyperedge's vertex ids as a tuple, in hyperedge order."""
    ptr, ids = h.indptr.tolist(), h.indices.tolist()
    return tuple(tuple(ids[a:b]) for a, b in zip(ptr, ptr[1:]))


def pair_dict(g):
    """{(u, v): weight} of a WeightedGraph, in pair order."""
    return dict(zip(zip(g.u.tolist(), g.v.tolist()), g.w.tolist()))


def random_hypergraph(rng, n_max=20, m_max=10, size_range=(2, 6)):
    n = int(rng.integers(3, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    lo, hi = size_range
    edges = [
        rng.choice(n, size=int(rng.integers(lo, min(n, hi) + 1)), replace=False)
        for _ in range(m)
    ]
    return Hypergraph.from_edges(n, edges)


def extreme_pair(h, edge_index, signal, rng):
    """Sequential oracle for `extreme_pairs`: the extreme pair of one
    hyperedge from its full distance matrix, consuming one draw."""
    e = edges(h)[edge_index]
    s = as_signal(signal, h.n)
    pts = s[list(e)]
    diff = pts[:, None, :] - pts[None, :, :]
    d2 = np.einsum("abk,abk->ab", diff, diff)
    iu, ju = np.triu_indices(len(e), k=1)
    vals = d2[iu, ju]
    tied = np.flatnonzero(vals == vals.max())
    # one uniform draw selects among tied candidates; clip guards draw == 1.0
    pick = tied[min(int(rng.random() * tied.size), tied.size - 1)]
    return e[iu[pick]], e[ju[pick]]


def traced_peak(h, signal, search=extreme_pairs) -> int:
    """Peak traced memory, in bytes, of one `search(h, signal, rng)` call."""
    tracemalloc.start()
    try:
        search(h, signal, np.random.default_rng(0))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def pairs_close(a: dict, b: dict, tol=1e-12) -> bool:
    if set(a) != set(b):
        return False
    return all(abs(a[k] - b[k]) <= tol for k in a)


class TestExtremePair:
    def test_clear_maximum(self):
        h = Hypergraph.from_edges(3, [(0, 1, 2)])
        s = np.array([[0.0], [1.0], [5.0]])
        assert extreme_pair(h, 0, s, np.random.default_rng(0)) == (0, 2)

    def test_size_two_edge(self):
        h = Hypergraph.from_edges(2, [(0, 1)])
        s = np.zeros((2, 3))
        assert extreme_pair(h, 0, s, np.random.default_rng(0)) == (0, 1)

    def test_returns_ordered_pair(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            h = random_hypergraph(rng)
            s = rng.normal(size=(h.n, 2))
            for idx in range(h.m):
                i, j = extreme_pair(h, idx, s, rng)
                assert i < j
                assert i in edges(h)[idx] and j in edges(h)[idx]

    def test_tie_breaking_uniform(self):
        # all-equal signal: every pair of the triangle ties; the chosen
        # pair must be uniform over seeds (chi-squared, 99.9% quantile of
        # chi2(2) is 13.82)
        h = Hypergraph.from_edges(3, [(0, 1, 2)])
        s = np.ones((3, 2))
        counts = {(0, 1): 0, (0, 2): 0, (1, 2): 0}
        draws = 10000
        rng = np.random.default_rng(2024)
        for _ in range(draws):
            counts[extreme_pair(h, 0, s, rng)] += 1
        expected = draws / 3
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 13.82, f"tie breaking not uniform: {counts}"

    def test_batch_matches_scalar_calls(self):
        # same seed, same draws: the vectorized path must reproduce the
        # one-call-per-hyperedge path exactly
        rng = np.random.default_rng(13)
        for _ in range(20):
            h = random_hypergraph(rng)
            s = rng.normal(size=(h.n, 3))
            seed = int(rng.integers(0, 2**31))
            # rounded and all-zero signals make ties, so the draws decide
            for sig in (s, np.round(s), np.zeros_like(s)):
                batch = extreme_pairs(h, sig, np.random.default_rng(seed))
                scalar_rng = np.random.default_rng(seed)
                for idx in range(h.m):
                    assert tuple(batch[idx]) == extreme_pair(h, idx, sig, scalar_rng)

    def test_working_set_bounded(self):
        # 400 hyperedges of size 20 over a 256-dim signal: an unsliced
        # difference tensor alone would take 328 MB
        rng = np.random.default_rng(4)
        h = Hypergraph.from_edges(
            1000, [rng.choice(1000, size=20, replace=False) for _ in range(400)]
        )
        s = rng.normal(size=(1000, 256))
        assert traced_peak(h, s) < 100 * 2**20

    def test_large_hyperedge_working_set_bounded(self):
        # one hyperedge of size 600 over a 64-dim signal: its full
        # difference tensor alone would take 176 MB
        rng = np.random.default_rng(5)
        h = Hypergraph.from_edges(700, [rng.choice(700, size=600, replace=False)])
        s = rng.normal(size=(700, 64))
        assert traced_peak(h, s) < 100 * 2**20

    def test_size_2000_hyperedge_working_set_bounded(self):
        # one hyperedge of size 2000 over a 256-dim signal: 1,999,000
        # pairs, whose difference tensor alone would take 3.8 GB
        rng = np.random.default_rng(6)
        h = Hypergraph.from_edges(2000, [range(2000)])
        s = rng.normal(size=(2000, 256))
        assert traced_peak(h, s) < 100 * 2**20
        assert traced_peak(h, s, expand_mediators) < 100 * 2**20

    def test_argmax_against_enumeration(self):
        rng = np.random.default_rng(99)
        for _ in range(30):
            h = random_hypergraph(rng)
            s = rng.normal(size=(h.n, 2))
            for idx, e in enumerate(edges(h)):
                i, j = extreme_pair(h, idx, s, rng)
                got = np.linalg.norm(s[i] - s[j])
                best = max(
                    np.linalg.norm(s[a] - s[b])
                    for a, b in itertools.combinations(e, 2)
                )
                assert got == pytest.approx(best, abs=0)

    def test_block_mixing_one_two_and_all_pairs_tied(self):
        # one block of size-4 hyperedges: a unique maximum, the two
        # diagonals of a unit square tied, or all six pairs tied
        rng = np.random.default_rng(31)
        square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        kinds = rng.permutation(np.repeat(["one", "two", "all"], 40))
        s = np.zeros((4 * kinds.size, 2))
        for idx, kind in enumerate(kinds):
            rows = slice(4 * idx, 4 * idx + 4)
            s[rows] = {"one": rng.normal(size=(4, 2)), "two": square + idx,
                       "all": np.full((4, 2), float(idx))}[kind]
        h = Hypergraph.from_edges(s.shape[0], np.arange(s.shape[0]).reshape(-1, 4))
        for seed in range(5):
            got = extreme_pairs(h, s, np.random.default_rng(seed))
            scalar_rng = np.random.default_rng(seed)
            want = [extreme_pair(h, idx, s, scalar_rng) for idx in range(h.m)]
            assert [tuple(p) for p in got.tolist()] == want
        # over the seeds every tied pair gets picked
        picks = {(kind, tuple(got[idx] - 4 * idx))
                 for seed in range(20)
                 for got in [extreme_pairs(h, s, np.random.default_rng(seed))]
                 for idx, kind in enumerate(kinds)}
        assert {p for k, p in picks if k == "two"} == {(0, 3), (1, 2)}
        assert len({p for k, p in picks if k == "all"}) == 6

    def test_column_slice_picks_as_its_copy(self):
        # a strided view is copied to C order; the picks do not change
        rng = np.random.default_rng(23)
        for _ in range(10):
            h = random_hypergraph(rng, n_max=40, m_max=30, size_range=(2, 12))
            wide = rng.normal(size=(h.n, 9)).round(1)  # rounding makes ties
            view = wide[:, 2:7:2]
            assert not view.flags.c_contiguous
            coerced = as_signal(view, h.n)
            assert coerced.flags.c_contiguous
            np.testing.assert_array_equal(coerced, view)
            seed = int(rng.integers(2**31))
            got = extreme_pairs(h, view, np.random.default_rng(seed))
            want = extreme_pairs(h, view.copy(), np.random.default_rng(seed))
            np.testing.assert_array_equal(got, want)


class TestPaddedBands:
    """Hyperedges of mixed sizes in one block. The cases were written for
    the padded size bands that the pair list replaced, where a padding copy
    of a member could tie a hyperedge's farthest pair."""

    def test_padding_copy_never_ties(self):
        # (0, 1, 2) at 0, 1, 3 has the unique farthest pair (0, 2); its
        # pairs sit between those of a size-2 and a size-4 hyperedge
        h = Hypergraph.from_edges(5, [(0, 1, 2), (3, 4), (0, 1, 2, 3)])
        s = np.array([[0.0], [1.0], [3.0], [7.0], [9.0]])
        for seed in range(20):
            got = extreme_pairs(h, s, np.random.default_rng(seed))
            assert got.tolist() == [[0, 2], [3, 4], [0, 3]]

    def test_mixed_sizes_with_ties_at_band_edges_match_sequential_calls(self):
        # sizes 2..12 in random order, each drawn with a signal that: has a
        # unique maximum; ties every pair with the last member; ties every
        # pair across two halves; or ties every pair
        rng = np.random.default_rng(41)
        rows, blocks = [], []
        for size in rng.permutation(np.repeat(np.arange(2, 13), 6)).tolist():
            last = np.arange(size)[:, None] == size - 1
            halves = np.arange(size)[:, None] >= size // 2
            x = [rng.normal(size=(size, 2)), last, halves, np.zeros((size, 1))][rng.integers(4)]
            x = np.broadcast_to(x, (size, 2))
            start = sum(len(r) for r in rows)
            rows.append(np.arange(start, start + size))
            blocks.append(x + 3.0 * len(rows))
        s = np.concatenate(blocks)
        h = Hypergraph.from_edges(s.shape[0], rows)
        assert h.clique_pairs[0][-1] <= expansion._BLOCK  # one block
        for seed in range(10):
            scalar_rng = np.random.default_rng(seed)
            want = [extreme_pair(h, idx, s, scalar_rng) for idx in range(h.m)]
            got = extreme_pairs(h, s, np.random.default_rng(seed))
            assert [tuple(p) for p in got.tolist()] == want


class TestOneEdgeExpansion:
    def test_size_two(self):
        h = Hypergraph.from_edges(2, [(0, 1)])
        g = expand_one_edge(h, np.zeros((2, 1)), np.random.default_rng(0))
        assert pair_dict(g) == {(0, 1): 0.5}

    def test_picks_extreme_pair(self):
        h = Hypergraph.from_edges(3, [(0, 1, 2)])
        s = np.array([[0.0], [1.0], [5.0]])
        g = expand_one_edge(h, s, np.random.default_rng(0))
        assert pair_dict(g) == {(0, 2): pytest.approx(1 / 3)}

    def test_duplicate_edges_accumulate(self):
        h = Hypergraph.from_edges(2, [(0, 1), (0, 1)])
        g = expand_one_edge(h, np.zeros((2, 1)), np.random.default_rng(0))
        assert pair_dict(g) == {(0, 1): pytest.approx(1.0)}

    def test_one_pair_per_hyperedge(self):
        rng = np.random.default_rng(5)
        h = random_hypergraph(rng)
        g = expand_one_edge(h, rng.normal(size=(h.n, 2)), rng)
        assert len(pair_dict(g)) <= h.m  # coincident extreme pairs may merge

    def test_hyperedge_weight_scales_pair(self):
        h = Hypergraph.from_edges(3, [(0, 1, 2)], weights=[4.0])
        s = np.array([[0.0], [1.0], [5.0]])
        g = expand_one_edge(h, s, np.random.default_rng(0))
        assert pair_dict(g)[(0, 2)] == pytest.approx(4.0 / 3)


class TestMediatorExpansion:
    def test_size_four_edge(self):
        h = Hypergraph.from_edges(4, [(0, 1, 2, 3)])
        s = np.array([[0.0], [1.0], [2.0], [9.0]])  # extreme pair (0, 3)
        g = expand_mediators(h, s, np.random.default_rng(0))
        expected = {(0, 3), (0, 1), (0, 2), (1, 3), (2, 3)}
        assert set(pair_dict(g)) == expected
        for v in pair_dict(g).values():
            assert v == pytest.approx(1 / 5)

    def test_size_two_edge_weight_one(self):
        h = Hypergraph.from_edges(2, [(0, 1)])
        g = expand_mediators(h, np.zeros((2, 1)), np.random.default_rng(0))
        assert pair_dict(g) == {(0, 1): pytest.approx(1.0)}

    def test_size_three_covers_triangle(self):
        # with one mediator the emitted pairs are always the full triangle
        h = Hypergraph.from_edges(3, [(0, 1, 2)])
        for seed in range(10):
            s = np.random.default_rng(seed).normal(size=(3, 2))
            g = expand_mediators(h, s, np.random.default_rng(seed))
            assert set(pair_dict(g)) == {(0, 1), (0, 2), (1, 2)}
            for v in pair_dict(g).values():
                assert v == pytest.approx(1 / 3)

    def test_pair_count_and_mass(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            size = int(rng.integers(2, 21))
            w = float(rng.uniform(0.2, 5.0))
            h = Hypergraph.from_edges(size, [tuple(range(size))], weights=[w])
            g = expand_mediators(h, rng.normal(size=(size, 2)), rng)
            assert len(pair_dict(g)) == max(1, 2 * size - 3)
            assert sum(pair_dict(g).values()) == pytest.approx(w, abs=1e-12)


class TestCliqueExpansion:
    def test_triangle(self):
        h = Hypergraph.from_edges(3, [(0, 1, 2)])
        g = expand_clique(h)
        assert set(pair_dict(g)) == {(0, 1), (0, 2), (1, 2)}
        for v in pair_dict(g).values():
            assert v == pytest.approx(1 / 3)

    def test_size_two(self):
        h = Hypergraph.from_edges(2, [(0, 1)])
        g = expand_clique(h)
        assert pair_dict(g) == {(0, 1): pytest.approx(1.0)}

    def test_size_five(self):
        h = Hypergraph.from_edges(5, [(0, 1, 2, 3, 4)])
        g = expand_clique(h)
        assert len(pair_dict(g)) == 10
        for v in pair_dict(g).values():
            assert v == pytest.approx(1 / 10)

    def test_per_edge_mass_is_weight(self):
        rng = np.random.default_rng(3)
        for size in range(2, 12):
            w = float(rng.uniform(0.2, 4.0))
            h = Hypergraph.from_edges(size, [tuple(range(size))], weights=[w])
            g = expand_clique(h)
            assert sum(pair_dict(g).values()) == pytest.approx(w, abs=1e-12)

    def test_pairs_sum_in_hyperedge_order(self):
        # (0, 1) gets 0.1/3, 0.2/3, then 0.3; summed in size-group order
        # (the size-2 hyperedge first) it would be 0.39999999999999997
        h = Hypergraph.from_edges(3, [(0, 1, 2), (0, 1, 2), (0, 1)], [0.1, 0.2, 0.3])
        assert pair_dict(expand_clique(h))[(0, 1)] == 0.4


class TestMediatorCliqueEquivalence:
    def test_sizes_two_three_give_identical_graphs(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            h = random_hypergraph(rng, n_max=50, m_max=12, size_range=(2, 3))
            s = rng.normal(size=(h.n, int(rng.integers(1, 4))))
            gm = expand_mediators(h, s, rng)
            gc = expand_clique(h)
            assert pairs_close(pair_dict(gm), pair_dict(gc))

    def test_size_four_breaks_equivalence(self):
        h = Hypergraph.from_edges(4, [(0, 1, 2, 3)])
        s = np.arange(4.0)[:, None]
        gm = expand_mediators(h, s, np.random.default_rng(0))
        gc = expand_clique(h)
        assert set(pair_dict(gm)) != set(pair_dict(gc))


class TestSelfLoopRules:
    def test_incident_pair_weight_sums_the_symmetric_coo_rows(self):
        # reference: row sums of the full symmetric COO with a zero
        # diagonal, which orders each row's terms as the CSR row does
        rng = np.random.default_rng(18)
        for _ in range(30):
            h = random_hypergraph(rng, n_max=30, m_max=25, size_range=(2, 9))
            s = rng.normal(size=(h.n, 2))
            for g in (expand_mediators(h, s, rng), expand_clique(h)):
                rows, _, vals = g.coo(np.zeros(g.n))
                want = np.bincount(rows, weights=vals, minlength=g.n)
                assert g.incident_pair_weight().tobytes() == want.tobytes()


class TestNormalize:
    def test_single_pair(self):
        g = WeightedGraph(n=2, u=np.array([0]), v=np.array([1]), w=np.array([1.0]))
        a = normalize(g)
        np.testing.assert_allclose(
            a.matrix.toarray(), [[0.5, 0.5], [0.5, 0.5]], atol=1e-15
        )

    def test_loops_only_is_identity(self):
        g = WeightedGraph(n=3, u=NO_IDS, v=NO_IDS, w=np.empty(0))
        a = normalize(g)
        np.testing.assert_allclose(a.matrix.toarray(), np.eye(3), atol=1e-15)

    def test_isolated_vertex_rejected(self):
        # a pair weight of -1 cancels both unit loops, leaving degree 0
        g = WeightedGraph(n=2, u=np.array([0]), v=np.array([1]), w=np.array([-1.0]))
        with pytest.raises(ValueError, match=r"non-positive degree: 0 \(and 1 more\)"):
            normalize(g)

    def test_symmetric_and_spectral_radius_at_most_one(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            h = random_hypergraph(rng, n_max=12)
            g = expand_mediators(h, rng.normal(size=(h.n, 2)), rng)
            a = normalize(g).matrix.toarray()
            np.testing.assert_allclose(a, a.T, atol=1e-15)
            eigs = np.linalg.eigvalsh(a)
            assert eigs.max() <= 1.0 + 1e-10
            # power iteration agrees with the dense eigensolve
            v = rng.normal(size=h.n)
            for _ in range(500):
                v = a @ v
                v /= np.linalg.norm(v)
            lam = float(v @ a @ v)
            assert lam <= 1.0 + 1e-8

    def test_row_sums_of_prenormalized_match_degree(self):
        rng = np.random.default_rng(8)
        h = random_hypergraph(rng)
        g = expand_clique(h)
        a = normalize(g)
        # reconstruct degrees: D^{1/2} Abar D^{1/2} row sums must equal D
        dense = a.matrix.toarray()
        pre = np.zeros((g.n, g.n))
        for (u, v), w in pair_dict(g).items():
            pre[u, v] = pre[v, u] = w
        pre += np.eye(g.n)
        deg = pre.sum(axis=1)
        rebuilt = np.diag(np.sqrt(deg)) @ dense @ np.diag(np.sqrt(deg))
        np.testing.assert_allclose(rebuilt, pre, atol=1e-12)


class TestPermutationEquivariance:
    def test_expansions_commute_with_relabeling(self):
        # distinct pairwise distances remove tie randomness from the property
        rng = np.random.default_rng(50)
        for expand_sig in (expand_one_edge, expand_mediators):
            for _ in range(10):
                h = random_hypergraph(rng, n_max=12)
                s = rng.normal(size=(h.n, 3))
                perm = rng.permutation(h.n)
                h_perm = Hypergraph.from_edges(
                    h.n, [[perm[v] for v in e] for e in edges(h)], h.weights
                )
                s_perm = np.empty_like(s)
                s_perm[perm] = s
                g = expand_sig(h, s, np.random.default_rng(0))
                g_perm = expand_sig(h_perm, s_perm, np.random.default_rng(0))
                relabeled = {
                    tuple(sorted((perm[u], perm[v]))): w for (u, v), w in pair_dict(g).items()
                }
                assert pairs_close(relabeled, pair_dict(g_perm))

    def test_clique_equivariance(self):
        rng = np.random.default_rng(51)
        h = random_hypergraph(rng, n_max=10)
        perm = rng.permutation(h.n)
        h_perm = Hypergraph.from_edges(
            h.n, [[perm[v] for v in e] for e in edges(h)], h.weights
        )
        g = expand_clique(h)
        g_perm = expand_clique(h_perm)
        relabeled = {
            tuple(sorted((perm[u], perm[v]))): w for (u, v), w in pair_dict(g).items()
        }
        assert pairs_close(relabeled, pair_dict(g_perm))


def dict_oracle(h, rule, ext):
    """Sequential dict accumulation of each rule's pairs, hyperedge by
    hyperedge; `ext` holds the extreme pairs. Also returns per-hyperedge
    emitted mass."""
    pairs, mass = {}, []
    for idx, (e, w) in enumerate(zip(edges(h), h.weights)):
        if rule == "clique":
            emitted = [(a, b, 2.0 * w / (len(e) * (len(e) - 1)))
                       for a, b in itertools.combinations(e, 2)]
        elif rule == "one-edge":
            emitted = [(*ext[idx], w / len(e))]
        else:
            i, j = ext[idx]
            wt = w if len(e) == 2 else w / (2 * len(e) - 3)
            emitted = [(i, j, wt)] + [
                p for k in e if k not in (i, j) for p in ((i, k, wt), (j, k, wt))
            ]
        for a, b, wt in emitted:
            key = (min(a, b), max(a, b))
            pairs[key] = pairs.get(key, 0.0) + wt
        mass.append(sum(wt for _, _, wt in emitted))
    return pairs, mass


@st.composite
def hypergraph_and_signal(draw):
    n = draw(st.integers(2, 60))
    edge = st.lists(st.integers(0, n - 1), min_size=2, max_size=min(n, 50), unique=True)
    edges = draw(st.lists(edge, min_size=1, max_size=10))
    # duplicate hyperedges accumulate
    edges += draw(st.lists(st.sampled_from(edges), max_size=3))
    weights = draw(st.lists(st.floats(0.1, 5.0), min_size=len(edges), max_size=len(edges)))
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["normal", "rounded", "zero"]))
    s = np.random.default_rng(draw(st.integers(0, 2**31))).normal(size=(n, d))
    s = {"normal": s, "rounded": np.round(s), "zero": np.zeros_like(s)}[kind]
    return Hypergraph.from_edges(n, edges, weights), s


class TestTiling:
    @pytest.mark.parametrize("tile, block", [(1, 1), (20, 9), (150, 70)])
    @settings(max_examples=60, deadline=None)
    @given(hs=hypergraph_and_signal(), seed=st.integers(0, 2**31))
    def test_tiles_and_blocks_match_sequential_calls(self, tile, block, hs, seed):
        # (1, 1) makes every tile one pair of one hyperedge and every block
        # one hyperedge; the others make tiles that span hyperedges and end
        # short at a block's end, and blocks of one or several hyperedges
        h, s = hs
        scalar_rng = np.random.default_rng(seed)
        want = [extreme_pair(h, idx, s, scalar_rng) for idx in range(h.m)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(expansion, "_TILE", tile)
            mp.setattr(expansion, "_BLOCK", block)
            got = extreme_pairs(h, s, np.random.default_rng(seed))
        assert [tuple(p) for p in got.tolist()] == want


class TestDictOracle:
    @settings(max_examples=150, deadline=None)
    @given(hypergraph_and_signal(), st.integers(0, 2**31))
    def test_expansions_equal_dict_accumulation(self, hs, seed):
        h, s = hs
        scalar_rng = np.random.default_rng(seed)
        ext = [extreme_pair(h, idx, s, scalar_rng) for idx in range(h.m)]
        for rule, g in (
            ("one-edge", expand_one_edge(h, s, np.random.default_rng(seed))),
            ("mediators", expand_mediators(h, s, np.random.default_rng(seed))),
            ("clique", expand_clique(h)),
        ):
            pairs, mass = dict_oracle(h, rule, ext)
            assert list(pair_dict(g).items()) == sorted(pairs.items())
            # one-edge keeps a single pair of weight w(e)/|e|; the other
            # rules spread exactly w(e) over their pairs
            want = h.weights / h.edge_sizes() if rule == "one-edge" else h.weights
            np.testing.assert_allclose(mass, want, rtol=1e-12)
            assert g.w.sum() == pytest.approx(want.sum(), rel=1e-12)


class TestNormalizeProperties:
    @settings(max_examples=150, deadline=None)
    @given(hypergraph_and_signal(), st.integers(0, 2**31))
    def test_symmetric_with_spectrum_in_unit_interval(self, hs, seed):
        h, s = hs
        for g in (expand_one_edge(h, s, np.random.default_rng(seed)),
                  expand_mediators(h, s, np.random.default_rng(seed)),
                  expand_clique(h)):
            a = normalize(g).matrix.toarray()
            # the gradient uses A for Aᵀ, so mirrored entries must be equal
            np.testing.assert_array_equal(a, a.T)
            eigs = np.linalg.eigvalsh(a)
            assert -1.0 - 1e-12 <= eigs.min() and eigs.max() <= 1.0 + 1e-12


def normalized_csr_oracle(g):
    """CSR (indptr, indices, data) of normalize(g), built pair by pair: row
    r lists its lower neighbours ascending, the loop, then its upper
    neighbours ascending; r's degree sums its pair weights in that order,
    then adds the unit loop."""
    lower, upper = [[] for _ in range(g.n)], [[] for _ in range(g.n)]
    for u, v, w in zip(g.u.tolist(), g.v.tolist(), g.w.tolist()):
        upper[u].append((v, w))
        lower[v].append((u, w))
    rows, dinv = [], []
    for r in range(g.n):
        below, above = sorted(lower[r]), sorted(upper[r])
        deg = 0.0
        for _, w in below + above:
            deg += w
        dinv.append(1.0 / math.sqrt(deg + 1.0))
        rows.append(below + [(r, 1.0)] + above)
    indptr, indices, data = [0], [], []
    for r, row in enumerate(rows):
        for c, w in row:
            indices.append(c)
            data.append(w * (dinv[r] * dinv[c]))
        indptr.append(len(indices))
    return indptr, indices, data


class TestNormalizeRowOrder:
    @settings(max_examples=150, deadline=None)
    @given(hypergraph_and_signal(), st.integers(0, 2**31))
    def test_matches_pair_by_pair_csr(self, hs, seed):
        h, s = hs
        for g in (expand_one_edge(h, s, np.random.default_rng(seed)),
                  expand_mediators(h, s, np.random.default_rng(seed)),
                  expand_clique(h)):
            m = normalize(g).matrix
            indptr, indices, data = normalized_csr_oracle(g)
            assert m.has_sorted_indices
            np.testing.assert_array_equal(m.indptr, indptr)
            np.testing.assert_array_equal(m.indices, indices)
            np.testing.assert_array_equal(m.data, data)


class TestIdentityAdjacency:
    def test_identity(self):
        a = NormalizedAdjacency.identity(4)
        np.testing.assert_array_equal(a.matrix.toarray(), np.eye(4))


@st.composite
def factored_case(draw):
    """A `hypergraph_and_signal` draw with up to 5 vertices in no
    hyperedge appended, and a product operand of 1, 2 or 32 columns."""
    h, s = draw(hypergraph_and_signal())
    extra = draw(st.integers(0, 5))
    h = Hypergraph(h.n + extra, h.indptr, h.indices, h.weights)
    s = np.vstack([s, np.zeros((extra, s.shape[1]))])
    cols = draw(st.sampled_from([1, 2, 32]))
    x = np.random.default_rng(draw(st.integers(0, 2**31))).normal(size=(h.n, cols))
    return h, s, x


class TestFactoredAdjacency:
    @settings(max_examples=150, deadline=None)
    @given(factored_case(), st.integers(0, 2**31))
    def test_products_and_matrix_equal_normalize(self, case, seed):
        h, s, x = case
        for factored, csr in (
            (mediator_adjacency(h, s, np.random.default_rng(seed)),
             normalize(expand_mediators(h, s, np.random.default_rng(seed)))),
            (clique_adjacency(h), normalize(expand_clique(h))),
        ):
            assert factored.factors is not None and csr.factors is None
            want = spmm(csr, x)
            scale = np.abs(want).max()
            assert np.abs(spmm(factored, x) - want).max() <= 1e-13 * scale
            m = factored.matrix
            assert m.format == "csr" and (m != m.T).nnz == 0
            np.testing.assert_array_equal(m.indptr, csr.matrix.indptr)
            np.testing.assert_array_equal(m.indices, csr.matrix.indices)
            np.testing.assert_allclose(m.data, csr.matrix.data, rtol=1e-13, atol=0)
            assert factored.pair_count == csr.pair_count

    def test_matrix_is_built_on_first_read_only(self):
        a = clique_adjacency(Hypergraph.from_edges(4, [(0, 1, 2), (1, 2, 3)]))
        assert a.pair_count == 5  # counted from the factors' expansion
        assert "matrix" not in vars(a)
        assert a.matrix is a.matrix
