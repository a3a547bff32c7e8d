import itertools
from math import comb

import numpy as np
import pytest
from scipy.special import expit

from hypergcn.densek import (
    DenseKInstance,
    DenseKModel,
    METHODS,
    ProbabilityMaps,
    brute_force,
    decode_topk,
    density,
    gen_sample,
    hindsight_bce,
    hindsight_loss,
    max_degree,
    predict_maps,
    remove_min_degree,
    solve_learned,
    train_densek,
    vertex_features,
)
from hypergcn import training
from hypergcn.hypergraph import Hypergraph
from hypergcn.training import TrainConfig
from test_expansion import edges


def random_instance(rng, n_max=14):
    n = int(rng.integers(4, n_max + 1))
    m = int(rng.integers(1, 12))
    edges = [
        rng.choice(n, size=int(rng.integers(2, min(n, 5) + 1)), replace=False)
        for _ in range(m)
    ]
    h = Hypergraph.from_edges(n, edges)
    k = int(rng.integers(1, n + 1))
    return DenseKInstance(hypergraph=h, k=k)


def peeling_reference(h, k):
    """Independent step-by-step simulation of minimum-degree peeling,
    recomputing degrees from scratch each round."""
    remaining_edges = [set(e) for e in edges(h)]
    pool = set(range(h.n))
    for _ in range(h.n - k):
        deg = {v: 0 for v in pool}
        for e in remaining_edges:
            for v in e:
                if v in deg:
                    deg[v] += 1
        victim = min(pool, key=lambda v: (deg[v], v))
        remaining_edges = [e for e in remaining_edges if victim not in e]
        pool.remove(victim)
    return sorted(pool)


class TestDensity:
    def test_all_vertices(self):
        h = Hypergraph.from_edges(4, [(0, 1), (1, 2, 3)])
        assert density(h, range(4)) == 2

    def test_empty_set(self):
        h = Hypergraph.from_edges(4, [(0, 1)])
        assert density(h, []) == 0

    def test_containment(self):
        h = Hypergraph.from_edges(3, [(0, 1), (1, 2), (0, 1, 2)])
        assert density(h, {0, 1}) == 1

    def test_duplicate_ids_count_once(self):
        h = Hypergraph.from_edges(4, [(0, 1), (1, 2, 3)])
        assert density(h, [0, 1, 1, 0]) == 1

    def test_ids_outside_range_match_nothing(self):
        # -1 must not wrap around to vertex n - 1
        h = Hypergraph.from_edges(4, [(0, 1), (2, 3)])
        assert density(h, [2, -1]) == 0
        assert density(h, [0, 1, 2, 4, -4]) == 1
        assert density(h, [-2, -1, 7]) == 0

    def test_no_hyperedges(self):
        assert density(Hypergraph.from_edges(4, []), range(4)) == 0

    def test_monotone(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            inst = random_instance(rng)
            n = inst.hypergraph.n
            w = set(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False).tolist())
            extra = set(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False).tolist())
            assert density(inst.hypergraph, w) <= density(inst.hypergraph, w | extra)


class TestMaxDegree:
    def test_star(self):
        h = Hypergraph.from_edges(5, [(0, 1), (0, 2), (0, 3, 4)])
        assert max_degree(DenseKInstance(h, 1)) == [0]

    def test_tie_rule_lowest_ids(self):
        h = Hypergraph.from_edges(4, [(0, 1), (2, 3)])
        assert max_degree(DenseKInstance(h, 2)) == [0, 1]

    def test_degree_sorted_prefix(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            inst = random_instance(rng, n_max=10)
            h = inst.hypergraph
            counts = {v: sum(1 for e in edges(h) if v in e) for v in range(h.n)}
            expected = sorted(range(h.n), key=lambda v: (-counts[v], v))[: inst.k]
            assert max_degree(inst) == sorted(expected)


class TestRemoveMinDegree:
    def test_hand_simulated_example(self):
        # vertex 2 has residual degree 1, removed first; {0,1} keeps the
        # pair edge for density 1, verified optimal by enumerating pairs
        h = Hypergraph.from_edges(3, [(0, 1), (0, 1, 2)])
        got = remove_min_degree(DenseKInstance(h, 2))
        assert got == [0, 1]
        assert density(h, got) == 1
        best = max(density(h, c) for c in itertools.combinations(range(3), 2))
        assert density(h, got) == best

    def test_k_equals_n(self):
        h = Hypergraph.from_edges(3, [(0, 1, 2)])
        assert remove_min_degree(DenseKInstance(h, 3)) == [0, 1, 2]

    def test_edge_free_tie_rule(self):
        h = Hypergraph.from_edges(4, [])
        assert remove_min_degree(DenseKInstance(h, 1)) == [3]  # 0,1,2 peeled first
        assert remove_min_degree(DenseKInstance(h, 4)) == [0, 1, 2, 3]

    def test_returns_exactly_k(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            inst = random_instance(rng)
            assert len(remove_min_degree(inst)) == inst.k

    def test_matches_independent_simulation(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            inst = random_instance(rng)
            assert remove_min_degree(inst) == peeling_reference(
                inst.hypergraph, inst.k
            )


class TestBruteForce:
    def test_lexicographic_tie(self):
        h = Hypergraph.from_edges(4, [(0, 1), (2, 3)])
        chosen, d = brute_force(DenseKInstance(h, 2))
        assert (chosen, d) == ([0, 1], 1)

    def test_bounds_greedy_heuristics(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            inst = random_instance(rng, n_max=10)
            _, opt = brute_force(inst)
            assert density(inst.hypergraph, max_degree(inst)) <= opt
            assert density(inst.hypergraph, remove_min_degree(inst)) <= opt

    def test_double_enumeration(self):
        # second, independent enumerator: ascending bitmask order with
        # frozenset containment; compare optimum and the lex-smallest set
        rng = np.random.default_rng(5)
        for _ in range(10):
            n, k = 10, 5
            rows = [
                rng.choice(n, size=int(rng.integers(2, 5)), replace=False)
                for _ in range(8)
            ]
            h = Hypergraph.from_edges(n, rows)
            chosen, got = brute_force(DenseKInstance(h, k))
            edge_sets = [frozenset(e) for e in edges(h)]
            best = -1
            argmaxes = []
            for bits in range(1 << n):
                if bin(bits).count("1") != k:
                    continue
                w = frozenset(v for v in range(n) if bits >> v & 1)
                d = sum(1 for e in edge_sets if e <= w)
                if d > best:
                    best, argmaxes = d, [w]
                elif d == best:
                    argmaxes.append(w)
            assert got == best
            assert chosen == min(sorted(w) for w in argmaxes)

    def test_no_hyperedges(self):
        # an edgeless instance has no empty hyperedge to be contained in
        h = Hypergraph.from_edges(4, [])
        assert brute_force(DenseKInstance(h, 2)) == ([0, 1], 0)

    def test_too_large_rejected(self):
        h = Hypergraph.from_edges(40, [(0, 1)])
        assert comb(40, 20) > 10**6
        with pytest.raises(ValueError, match="too large"):
            brute_force(DenseKInstance(h, 20))


class TestGenSample:
    def test_target_has_exactly_k_ones(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(20, 60))
            k = (3 * n) // 4
            _, target = gen_sample(n, k, 0.75, rng)
            assert target.sum() == k
            assert set(np.unique(target)) <= {0, 1}

    def test_edge_count_and_sizes(self):
        rng = np.random.default_rng(7)
        h, _ = gen_sample(100, 75, 0.5, rng)
        assert h.m == 50
        assert all(2 <= len(e) <= 10 for e in edges(h))

    def test_edges_inside_or_outside_planted_set(self):
        rng = np.random.default_rng(8)
        h, target = gen_sample(80, 60, 0.6, rng)
        planted = set(np.flatnonzero(target).tolist())
        for e in edges(h):
            inside = all(v in planted for v in e)
            outside = all(v not in planted for v in e)
            assert inside or outside

    def test_containment_fraction_matches_p(self):
        # over many samples the fraction of planted-contained hyperedges
        # is a binomial proportion with success probability p
        rng = np.random.default_rng(9)
        p = 0.75
        total, inside = 0, 0
        for _ in range(30):
            h, target = gen_sample(200, 150, p, rng)
            planted = np.flatnonzero(target)
            inside += sum(
                1 for e in edges(h) if all(v in set(planted.tolist()) for v in e)
            )
            total += h.m
        se = np.sqrt(p * (1 - p) / total)
        assert abs(inside / total - p) <= 4 * se

    def test_invalid_parameters(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            gen_sample(10, 5, 1.5, rng)
        with pytest.raises(ValueError):
            gen_sample(10, 9, 0.5, rng)  # complement pool too small


class TestHindsight:
    def test_single_map_is_plain_bce(self):
        rng = np.random.default_rng(11)
        logits = rng.normal(size=(8, 1))
        target = rng.integers(0, 2, size=8)
        per_map, best = hindsight_bce(logits, target)
        assert best == 0
        p = 1.0 / (1.0 + np.exp(-logits[:, 0]))
        bce = -np.mean(target * np.log(p) + (1 - target) * np.log(1 - p))
        assert per_map[0] == pytest.approx(bce, rel=1e-10)

    def test_converged_all_ones_target(self):
        logits = np.full((5, 3), 30.0)
        per_map, _ = hindsight_bce(logits, np.ones(5))
        assert np.all(per_map < 1e-12)

    @pytest.mark.parametrize("scale", [1e-8, 1e-3, 1.0, 4.0, 30.0, 700.0])
    def test_matches_logaddexp_within_4_ulp(self, scale):
        # each softplus entry may move by an ulp or two against logaddexp;
        # a map's mean then moves by at most 4 ulp of the mean of its
        # terms' magnitudes (cancellation can make the mean itself smaller)
        rng = np.random.default_rng(14)
        for _ in range(50):
            n = int(rng.integers(1, 300))
            logits = rng.uniform(-scale, scale, size=(n, 8))
            logits[rng.random(logits.shape) < 0.1] = 0.0
            logits[rng.random(logits.shape) < 0.02] = 700.0 * rng.choice([-1.0, 1.0])
            target = rng.integers(0, 2, size=n)
            with np.errstate(all="raise"):
                per_map, best = hindsight_bce(logits, target)
            softplus = np.logaddexp(0.0, logits)
            want = (softplus - target[:, None] * logits).mean(axis=0)
            terms = (softplus + np.abs(target[:, None] * logits)).mean(axis=0)
            assert np.all(np.abs(per_map - want) <= 4 * np.spacing(terms))
            assert best == int(np.argmin(want))

    def test_extreme_and_zero_logits(self):
        logits = np.array([[700.0, -700.0, 0.0], [-700.0, 700.0, 0.0]])
        with np.errstate(all="raise"):
            per_map, best = hindsight_bce(logits, np.array([1, 0]))
        # map 0: softplus(700) - 700 rounds to 0, softplus(-700) = e^-700
        np.testing.assert_allclose(per_map, [np.exp(-700.0) / 2, 700.0, np.log(2.0)],
                                   rtol=1e-15)
        assert best == 0

    def test_min_bound_over_maps(self):
        rng = np.random.default_rng(12)
        logits = rng.normal(size=(10, 4))
        target = rng.integers(0, 2, size=10)
        per_map, best = hindsight_bce(logits, target)
        assert per_map[best] == per_map.min()
        assert np.all(per_map[best] <= per_map)

    @pytest.mark.parametrize("shape", [(6, 1), (40, 8), (300, 3)])
    def test_loss_matches_full_matrix_expit(self, shape):
        # the gradient applies expit to the best map's column alone; the
        # reference applies it to every map, then keeps that column
        rng = np.random.default_rng(13)
        for _ in range(5):
            logits = rng.normal(scale=4.0, size=shape)
            target = rng.integers(0, 2, size=shape[0]).astype(np.float64)
            per_map, best = hindsight_bce(logits, target)
            want = np.zeros_like(logits)
            want[:, best] = (expit(logits)[:, best] - target) / shape[0]
            loss, got = hindsight_loss(logits, target[:, None])
            assert loss == float(per_map[best])
            assert got.tobytes() == want.tobytes()
            col_per_map, col_best = hindsight_bce(logits, target[:, None])
            assert col_per_map.tobytes() == per_map.tobytes() and col_best == best


class TestProbabilityMaps:
    def test_validates_range(self):
        with pytest.raises(ValueError, match="outside"):
            ProbabilityMaps(values=np.array([[0.5, 1.5]]))
        with pytest.raises(ValueError, match="n x M"):
            ProbabilityMaps(values=np.zeros(3))

    def test_count(self):
        assert ProbabilityMaps(values=np.zeros((4, 3))).count == 3


class TestDecodeTopk:
    def test_indicator_map_recovers_planted_set(self):
        rng = np.random.default_rng(13)
        h, target = gen_sample(40, 30, 0.7, rng)
        maps = ProbabilityMaps(values=target[:, None].astype(float))
        inst = DenseKInstance(h, 30)
        assert decode_topk(maps, inst) == sorted(np.flatnonzero(target).tolist())

    def test_picks_denser_candidate(self):
        h = Hypergraph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4)])
        good = np.array([0.9, 0.9, 0.9, 0.1, 0.1, 0.1])
        bad = np.array([0.1, 0.1, 0.1, 0.9, 0.9, 0.9])
        maps = ProbabilityMaps(values=np.column_stack([bad, good]))
        inst = DenseKInstance(h, 3)
        assert decode_topk(maps, inst) == [0, 1, 2]

    def test_bounded_by_optimum(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            n, k = 12, 6
            edges = [
                rng.choice(n, size=int(rng.integers(2, 5)), replace=False)
                for _ in range(9)
            ]
            h = Hypergraph.from_edges(n, edges)
            inst = DenseKInstance(h, k)
            maps = ProbabilityMaps(values=rng.random((n, 5)))
            got = density(h, decode_topk(maps, inst))
            _, opt = brute_force(inst)
            assert 0 <= got <= opt

    def test_probability_ties_take_lowest_ids(self):
        h = Hypergraph.from_edges(4, [])
        maps = ProbabilityMaps(values=np.full((4, 1), 0.5))
        assert decode_topk(maps, DenseKInstance(h, 2)) == [0, 1]


class TestTrainDensek:
    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError, match="empty training set"):
            train_densek([], TrainConfig(epochs=1), maps=2)

    def test_no_maps_rejected(self):
        samples = [gen_sample(20, 8, 0.75, np.random.default_rng(0))]
        with pytest.raises(ValueError, match="maps"):
            train_densek(samples, TrainConfig(epochs=1), maps=0)

    @pytest.mark.parametrize("values", [(0, 2), (-0.5, 0.5)])
    def test_non_binary_target_rejected(self, values):
        rng = np.random.default_rng(17)
        samples = [gen_sample(20, 15, 0.7, rng) for _ in range(3)]
        h, target = samples[1]
        samples[1] = (h, np.where(target == 1, *values[::-1]))
        with pytest.raises(ValueError, match=r"^sample 1: target labelling must assign 0/1"):
            train_densek(samples, TrainConfig(epochs=1), maps=2)

    def test_every_step_is_a_training_fit_step(self, monkeypatch):
        # densek bound a fit_step of its own, out of reach of this patch
        rng = np.random.default_rng(21)
        samples = [gen_sample(n, 3 * n // 4, 0.7, rng) for n in (20, 30, 40)]
        sizes, step = [], training.fit_step

        def counted(graph, x, *args):
            sizes.append(x.shape[0])
            return step(graph, x, *args)

        monkeypatch.setattr(training, "fit_step", counted)
        train_densek(samples, TrainConfig(epochs=2), maps=2)
        assert sizes == [20, 30, 40] * 2

    @pytest.mark.parametrize("method", METHODS)
    def test_graphs_are_training_method_graphs(self, monkeypatch, method):
        # densek built its own mediator graphs, out of reach of this patch
        rng = np.random.default_rng(22)
        samples = [gen_sample(n, 3 * n // 4, 0.7, rng) for n in (20, 30)]
        h, _ = gen_sample(36, 27, 0.7, rng)
        calls, graph = [], training.method_graph

        def counted(name, g, *args):
            calls.append((name, g.n))
            return graph(name, g, *args)

        monkeypatch.setattr(training, "method_graph", counted)
        model = train_densek(samples, TrainConfig(method=method, epochs=1), maps=2)
        predict_maps(model, h)
        assert calls == [(method, 20), (method, 30), (method, 36)]

    def test_loss_decreases_on_toy_set(self):
        # trend check: across seeds, the epoch losses trend downward for
        # a clear majority of epochs and end below where they started
        rng = np.random.default_rng(15)
        samples = [gen_sample(60, 45, 0.75, rng) for _ in range(20)]
        downs, total = 0, 0
        for seed in range(3):
            cfg = TrainConfig(epochs=30, dropout=0.0, lr=0.02, seed=seed,
                              weight_decay=0.0)
            model = train_densek(samples, cfg, maps=4)
            trace = np.array(model.loss_trace)
            diffs = np.diff(trace)
            downs += int((diffs < 0).sum())
            total += diffs.size
            assert trace[-1] < trace[0]
        assert downs > 0.6 * total

    def test_predict_and_solve_shapes(self):
        rng = np.random.default_rng(16)
        samples = [gen_sample(30, 22, 0.7, rng) for _ in range(4)]
        cfg = TrainConfig(epochs=3, dropout=0.0, seed=1)
        model = train_densek(samples, cfg, maps=3)
        h, _ = gen_sample(36, 27, 0.7, rng)
        maps = predict_maps(model, h)
        assert maps.values.shape == (36, 3)
        chosen = solve_learned(model, DenseKInstance(h, 27))
        assert len(chosen) == 27

    def test_methods_differ(self):
        # hypergcn re-expands per layer on every step; fast-hypergcn keeps
        # the feature-built expansion, so the two traces must part
        rng = np.random.default_rng(18)
        samples = [gen_sample(30, 22, 0.7, rng) for _ in range(3)]
        traces = {}
        for method in ("hypergcn", "fast-hypergcn"):
            cfg = TrainConfig(method=method, epochs=4, seed=2)
            model = train_densek(samples, cfg, maps=3)
            assert model.method == method
            traces[method] = model.loss_trace
        assert traces["hypergcn"] != traces["fast-hypergcn"]

    @pytest.mark.parametrize("method", ("hgnn", "mlp", "one-hypergcn"))
    def test_unknown_method_rejected(self, method):
        rng = np.random.default_rng(19)
        samples = [gen_sample(20, 15, 0.7, rng)]
        with pytest.raises(ValueError, match=method):
            train_densek(samples, TrainConfig(method=method, epochs=1), maps=2)

    def test_diverging_run_raises(self):
        rng = np.random.default_rng(20)
        samples = [gen_sample(20, 15, 0.7, rng) for _ in range(2)]
        for method in METHODS:
            cfg = TrainConfig(method=method, epochs=2, lr=1e200, seed=0)
            with np.errstate(all="ignore"), pytest.raises(FloatingPointError):
                train_densek(samples, cfg, maps=2)

    def test_vertex_features(self):
        h = Hypergraph.from_edges(3, [(0, 1), (0, 2)])
        x = vertex_features(h)
        np.testing.assert_allclose(x[:, 0], [1.0, 0.5, 0.5])
        np.testing.assert_allclose(x[:, 1], 1.0)
