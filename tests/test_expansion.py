import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergcn.expansion import (
    NormalizedAdjacency,
    WeightedGraph,
    expand_clique,
    expand_mediators,
    expand_one_edge,
    extreme_pair,
    extreme_pairs,
    normalize,
)
from hypergcn.hypergraph import Hypergraph, degrees

NO_IDS = np.empty(0, dtype=np.int64)


def random_hypergraph(rng, n_max=20, m_max=10, size_range=(2, 6)):
    n = int(rng.integers(3, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    lo, hi = size_range
    edges = [
        rng.choice(n, size=int(rng.integers(lo, min(n, hi) + 1)), replace=False)
        for _ in range(m)
    ]
    return Hypergraph.from_edges(n, edges)


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
                assert i in h.edges[idx] and j in h.edges[idx]

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
        tracemalloc.start()
        try:
            extreme_pairs(h, s, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20

    def test_argmax_against_enumeration(self):
        rng = np.random.default_rng(99)
        for _ in range(30):
            h = random_hypergraph(rng)
            s = rng.normal(size=(h.n, 2))
            for idx, e in enumerate(h.edges):
                i, j = extreme_pair(h, idx, s, rng)
                got = np.linalg.norm(s[i] - s[j])
                best = max(
                    np.linalg.norm(s[a] - s[b])
                    for a, b in itertools.combinations(e, 2)
                )
                assert got == pytest.approx(best, abs=0)


class TestOneEdgeExpansion:
    def test_size_two(self):
        h = Hypergraph.from_edges(2, [(0, 1)])
        g = expand_one_edge(h, np.zeros((2, 1)), np.random.default_rng(0))
        assert g.pairs == {(0, 1): 0.5}
        np.testing.assert_array_equal(g.loops, [1.0, 1.0])

    def test_picks_extreme_pair(self):
        h = Hypergraph.from_edges(3, [(0, 1, 2)])
        s = np.array([[0.0], [1.0], [5.0]])
        g = expand_one_edge(h, s, np.random.default_rng(0))
        assert g.pairs == {(0, 2): pytest.approx(1 / 3)}
        np.testing.assert_array_equal(g.loops, [1.0, 1.0, 1.0])

    def test_duplicate_edges_accumulate(self):
        h = Hypergraph.from_edges(2, [(0, 1), (0, 1)])
        g = expand_one_edge(h, np.zeros((2, 1)), np.random.default_rng(0))
        assert g.pairs == {(0, 1): pytest.approx(1.0)}

    def test_one_pair_per_hyperedge(self):
        rng = np.random.default_rng(5)
        h = random_hypergraph(rng)
        g = expand_one_edge(h, rng.normal(size=(h.n, 2)), rng)
        assert len(g.pairs) <= h.m  # coincident extreme pairs may merge

    def test_hyperedge_weight_scales_pair(self):
        h = Hypergraph.from_edges(3, [(0, 1, 2)], weights=[4.0])
        s = np.array([[0.0], [1.0], [5.0]])
        g = expand_one_edge(h, s, np.random.default_rng(0))
        assert g.pairs[(0, 2)] == pytest.approx(4.0 / 3)


class TestMediatorExpansion:
    def test_size_four_edge(self):
        h = Hypergraph.from_edges(4, [(0, 1, 2, 3)])
        s = np.array([[0.0], [1.0], [2.0], [9.0]])  # extreme pair (0, 3)
        g = expand_mediators(h, s, np.random.default_rng(0))
        expected = {(0, 3), (0, 1), (0, 2), (1, 3), (2, 3)}
        assert set(g.pairs) == expected
        for v in g.pairs.values():
            assert v == pytest.approx(1 / 5)
        np.testing.assert_array_equal(g.loops, np.ones(4))

    def test_size_two_edge_weight_one(self):
        h = Hypergraph.from_edges(2, [(0, 1)])
        g = expand_mediators(h, np.zeros((2, 1)), np.random.default_rng(0))
        assert g.pairs == {(0, 1): pytest.approx(1.0)}

    def test_size_three_covers_triangle(self):
        # with one mediator the emitted pairs are always the full triangle
        h = Hypergraph.from_edges(3, [(0, 1, 2)])
        for seed in range(10):
            s = np.random.default_rng(seed).normal(size=(3, 2))
            g = expand_mediators(h, s, np.random.default_rng(seed))
            assert set(g.pairs) == {(0, 1), (0, 2), (1, 2)}
            for v in g.pairs.values():
                assert v == pytest.approx(1 / 3)

    def test_pair_count_and_mass(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            size = int(rng.integers(2, 21))
            w = float(rng.uniform(0.2, 5.0))
            h = Hypergraph.from_edges(size, [tuple(range(size))], weights=[w])
            g = expand_mediators(h, rng.normal(size=(size, 2)), rng)
            assert len(g.pairs) == max(1, 2 * size - 3)
            assert sum(g.pairs.values()) == pytest.approx(w, abs=1e-12)


class TestCliqueExpansion:
    def test_triangle(self):
        h = Hypergraph.from_edges(3, [(0, 1, 2)])
        g = expand_clique(h)
        assert set(g.pairs) == {(0, 1), (0, 2), (1, 2)}
        for v in g.pairs.values():
            assert v == pytest.approx(1 / 3)

    def test_size_two(self):
        h = Hypergraph.from_edges(2, [(0, 1)])
        g = expand_clique(h)
        assert g.pairs == {(0, 1): pytest.approx(1.0)}

    def test_size_five(self):
        h = Hypergraph.from_edges(5, [(0, 1, 2, 3, 4)])
        g = expand_clique(h)
        assert len(g.pairs) == 10
        for v in g.pairs.values():
            assert v == pytest.approx(1 / 10)

    def test_per_edge_mass_is_weight(self):
        rng = np.random.default_rng(3)
        for size in range(2, 12):
            w = float(rng.uniform(0.2, 4.0))
            h = Hypergraph.from_edges(size, [tuple(range(size))], weights=[w])
            g = expand_clique(h)
            assert sum(g.pairs.values()) == pytest.approx(w, abs=1e-12)


class TestMediatorCliqueEquivalence:
    def test_sizes_two_three_give_identical_graphs(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            h = random_hypergraph(rng, n_max=50, m_max=12, size_range=(2, 3))
            s = rng.normal(size=(h.n, int(rng.integers(1, 4))))
            gm = expand_mediators(h, s, rng)
            gc = expand_clique(h)
            assert pairs_close(gm.pairs, gc.pairs)
            np.testing.assert_array_equal(gm.loops, gc.loops)

    def test_size_four_breaks_equivalence(self):
        h = Hypergraph.from_edges(4, [(0, 1, 2, 3)])
        s = np.arange(4.0)[:, None]
        gm = expand_mediators(h, s, np.random.default_rng(0))
        gc = expand_clique(h)
        assert set(gm.pairs) != set(gc.pairs)


class TestSelfLoopRules:
    def test_degree_restoring_loops(self):
        # with the one-edge rule, loops top vertex degree back up to d_v
        h = Hypergraph.from_edges(3, [(0, 1, 2)], weights=[2.0])
        s = np.array([[0.0], [1.0], [5.0]])
        g = expand_one_edge(h, s, np.random.default_rng(0), self_loops="degree")
        d = degrees(h)
        incident = g.incident_pair_weight()
        np.testing.assert_allclose(g.loops + incident, d, atol=1e-12)

    def test_degree_restoring_nonnegative(self):
        rng = np.random.default_rng(17)
        for expand in (expand_one_edge, expand_mediators):
            for _ in range(20):
                h = random_hypergraph(rng)
                g = expand(h, rng.normal(size=(h.n, 2)), rng, self_loops="degree")
                assert np.all(g.loops >= 0.0)

    def test_unknown_rule_rejected(self):
        h = Hypergraph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError, match="self-loop rule"):
            expand_clique(h, self_loops="bogus")


class TestNormalize:
    def test_single_pair(self):
        g = WeightedGraph(
            n=2, u=np.array([0]), v=np.array([1]), w=np.array([1.0]), loops=np.ones(2)
        )
        a = normalize(g)
        np.testing.assert_allclose(
            a.matrix.toarray(), [[0.5, 0.5], [0.5, 0.5]], atol=1e-15
        )

    def test_loops_only_is_identity(self):
        g = WeightedGraph(n=3, u=NO_IDS, v=NO_IDS, w=np.empty(0), loops=np.ones(3))
        a = normalize(g)
        np.testing.assert_allclose(a.matrix.toarray(), np.eye(3), atol=1e-15)

    def test_isolated_vertex_rejected(self):
        g = WeightedGraph(n=2, u=NO_IDS, v=NO_IDS, w=np.empty(0), loops=np.zeros(2))
        with pytest.raises(ValueError, match="isolated vertex with no self-loop"):
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
        for (u, v), w in g.pairs.items():
            pre[u, v] = pre[v, u] = w
        pre += np.diag(g.loops)
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
                    h.n, [[perm[v] for v in e] for e in h.edges], h.weights
                )
                s_perm = np.empty_like(s)
                s_perm[perm] = s
                g = expand_sig(h, s, np.random.default_rng(0))
                g_perm = expand_sig(h_perm, s_perm, np.random.default_rng(0))
                relabeled = {
                    tuple(sorted((perm[u], perm[v]))): w for (u, v), w in g.pairs.items()
                }
                assert pairs_close(relabeled, g_perm.pairs)

    def test_clique_equivariance(self):
        rng = np.random.default_rng(51)
        h = random_hypergraph(rng, n_max=10)
        perm = rng.permutation(h.n)
        h_perm = Hypergraph.from_edges(
            h.n, [[perm[v] for v in e] for e in h.edges], h.weights
        )
        g = expand_clique(h)
        g_perm = expand_clique(h_perm)
        relabeled = {
            tuple(sorted((perm[u], perm[v]))): w for (u, v), w in g.pairs.items()
        }
        assert pairs_close(relabeled, g_perm.pairs)


def dict_oracle(h, rule, ext, self_loops):
    """Sequential dict accumulation of each rule's pairs, hyperedge by
    hyperedge; `ext` holds the extreme pairs. Also returns per-hyperedge
    emitted mass."""
    pairs, mass = {}, []
    for idx, (e, w) in enumerate(zip(h.edges, h.weights)):
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
    loops = np.ones(h.n)
    if self_loops == "degree":
        deg, incident = np.zeros(h.n), np.zeros(h.n)
        for e, w in zip(h.edges, h.weights):
            deg[list(e)] += w
        for (u, v), wt in pairs.items():
            incident[u] += wt
            incident[v] += wt
        loops = np.maximum(deg - incident, 0.0)
    return pairs, loops, mass


@st.composite
def hypergraph_and_signal(draw):
    n = draw(st.integers(2, 30))
    edge = st.lists(st.integers(0, n - 1), min_size=2, max_size=min(n, 12), unique=True)
    edges = draw(st.lists(edge, min_size=1, max_size=10))
    # duplicate hyperedges accumulate
    edges += draw(st.lists(st.sampled_from(edges), max_size=3))
    weights = draw(st.lists(st.floats(0.1, 5.0), min_size=len(edges), max_size=len(edges)))
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["normal", "rounded", "zero"]))
    s = np.random.default_rng(draw(st.integers(0, 2**31))).normal(size=(n, d))
    s = {"normal": s, "rounded": np.round(s), "zero": np.zeros_like(s)}[kind]
    return Hypergraph.from_edges(n, edges, weights), s


class TestDictOracle:
    @settings(max_examples=150, deadline=None)
    @given(hypergraph_and_signal(), st.sampled_from(["unit", "degree"]),
           st.integers(0, 2**31))
    def test_expansions_equal_dict_accumulation(self, hs, self_loops, seed):
        h, s = hs
        scalar_rng = np.random.default_rng(seed)
        ext = [extreme_pair(h, idx, s, scalar_rng) for idx in range(h.m)]
        for rule, g in (
            ("one-edge", expand_one_edge(h, s, np.random.default_rng(seed), self_loops)),
            ("mediators", expand_mediators(h, s, np.random.default_rng(seed), self_loops)),
            ("clique", expand_clique(h, self_loops)),
        ):
            pairs, loops, mass = dict_oracle(h, rule, ext, self_loops)
            assert list(g.pairs.items()) == list(pairs.items())
            np.testing.assert_array_equal(g.loops, loops)
            # one-edge keeps a single pair of weight w(e)/|e|; the other
            # rules spread exactly w(e) over their pairs
            want = h.weights / h.edge_sizes() if rule == "one-edge" else h.weights
            np.testing.assert_allclose(mass, want, rtol=1e-12)
            assert g.w.sum() == pytest.approx(want.sum(), rel=1e-12)


class TestIdentityAdjacency:
    def test_identity(self):
        a = NormalizedAdjacency.identity(4)
        np.testing.assert_array_equal(a.matrix.toarray(), np.eye(4))
