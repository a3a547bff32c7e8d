import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import hypergcn
from hypergcn.dataio import LabeledSplit, balanced_split_labels, gen_noisy_ssl
from hypergcn.expansion import (
    NormalizedAdjacency,
    expand_clique,
    expand_mediators,
    expand_one_edge,
)
from hypergcn.hypergraph import Hypergraph
from hypergcn.nn import (
    AdamState,
    Params,
    constant_graph,
    forward,
    glorot_init,
    rng_streams,
    softmax_ce,
    step,
)
from hypergcn.training import (
    METHODS,
    TrainConfig,
    evaluate,
    fit,
    fit_step,
    hlr_ce,
    pair_laplacian,
    run_trials,
    train_ssl,
)
from test_expansion import pair_dict
from test_hypergraph import BAD_INPUTS

GCN_METHODS = ("hypergcn", "one-hypergcn", "fast-hypergcn", "hgnn")


def two_component_instance():
    """Two disjoint size-2 hyperedges with one labelled vertex each.

    Within each component the feature rows are identical, so any
    classifier that fits the labelled vertex also classifies its
    unlabelled twin: the instance is separable by construction.
    """
    h = Hypergraph.from_edges(4, [(0, 1), (2, 3)])
    x = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    labels = np.array([0, 0, 1, 1])
    split = LabeledSplit(
        labels=labels, train_idx=np.array([0, 2]), eval_idx=np.array([1, 3])
    )
    assert np.array_equal(x[0], x[1]) and np.array_equal(x[2], x[3])
    return h, x, split


class TestTrainSsl:
    @pytest.mark.parametrize("method", GCN_METHODS)
    def test_separable_toy_reaches_zero_error(self, method):
        h, x, split = two_component_instance()
        cfg = TrainConfig(method=method, epochs=80, dropout=0.0, seed=3)
        report = train_ssl(h, x, split, cfg)
        assert report.test_error == 0.0

    def test_mlp_memorizes_one_hot_label_features(self):
        h = Hypergraph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
        labels = np.array([0, 1, 2, 0, 1, 2])
        x = np.eye(3)[labels]
        split = LabeledSplit(
            labels=labels,
            train_idx=np.array([0, 1, 2]),
            eval_idx=np.array([3, 4, 5]),
        )
        cfg = TrainConfig(method="mlp", epochs=100, dropout=0.0, seed=0)
        assert train_ssl(h, x, split, cfg).test_error == 0.0

    def test_unknown_method_rejected(self):
        h, x, split = two_component_instance()
        with pytest.raises(ValueError, match="unknown method"):
            train_ssl(h, x, split, TrainConfig(method="gat"))

    def test_feature_rows_must_match_vertices(self):
        h, x, split = two_component_instance()
        with pytest.raises(ValueError, match="feature rows"):
            train_ssl(h, np.ones((5, 2)), split, TrainConfig(method="mlp"))

    @pytest.mark.parametrize("method", METHODS)
    def test_features_must_be_a_finite_matrix(self, method):
        # a vector failed inside fit with an IndexError; a NaN surfaced as
        # diverged logits or as a non-finite signal of the expansion
        h, x, split = two_component_instance()
        cfg = TrainConfig(method=method, epochs=2)
        with pytest.raises(ValueError, match=re.escape("shape (4,)")):
            train_ssl(h, x[:, 0], split, cfg)
        x[1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            train_ssl(h, x, split, cfg)

    def test_empty_evaluation_set_rejected_before_training(self, monkeypatch):
        # every vertex labelled: training used to run every epoch first
        h, x, split = two_component_instance()
        steps = []
        monkeypatch.setattr(hypergcn.training, "fit_step", lambda *args: steps.append(0) or 0.0)
        labelled_all = replace(split, train_idx=np.arange(4), eval_idx=np.arange(0))
        with pytest.raises(ValueError, match="empty evaluation set"):
            train_ssl(h, x, labelled_all, TrainConfig(method="mlp", epochs=2))
        assert steps == []

    def test_loss_trace_finite_and_recorded(self):
        h, x, split = two_component_instance()
        for method in METHODS:
            cfg = TrainConfig(method=method, epochs=15, seed=1)
            report = train_ssl(h, x, split, cfg)
            assert len(report.losses) == 15
            assert np.all(np.isfinite(report.losses))

    def test_fast_adjacency_built_once(self):
        h, x, split = two_component_instance()
        report = train_ssl(
            h, x, split, TrainConfig(method="fast-hypergcn", epochs=25, seed=0)
        )
        assert report.expansions == 1
        report = train_ssl(h, x, split, TrainConfig(method="hgnn", epochs=25, seed=0))
        assert report.expansions == 1

    def test_per_epoch_methods_expand_twice_per_epoch(self):
        h, x, split = two_component_instance()
        epochs = 7
        for method in ("hypergcn", "one-hypergcn"):
            report = train_ssl(
                h, x, split, TrainConfig(method=method, epochs=epochs, seed=0)
            )
            # two layers per epoch plus the final inference expansion
            assert report.expansions == 2 * epochs + 2

    @pytest.mark.parametrize("method, pairs, expansions", [
        ("hypergcn", 581, 8), ("one-hypergcn", 22, 8), ("fast-hypergcn", 550, 1),
        ("hgnn", 1660, 1), ("mlp", 0, 0), ("mlp-hlr", 550, 1)])
    def test_adjacency_pairs_and_expansions_pinned(self, method, pairs, expansions):
        # the distinct pair count of the first expansion, whether the
        # method convolves through a CSR or through the incidence matrix
        bundle = gen_noisy_ssl(0.5, np.random.default_rng(7), n=60, pure=6, noisy=24,
                               feat_dim=16)
        split = balanced_split_labels(bundle.labels, 10, rng_streams(0).split)
        report = train_ssl(bundle.hypergraph, bundle.features, split,
                           TrainConfig(method=method, epochs=3, seed=0))
        assert (report.adjacency_pairs, report.expansions) == (pairs, expansions)

    @pytest.mark.parametrize("method", METHODS)
    def test_diverging_run_raises(self, method):
        # a huge step overflows the parameters; one epoch diverges in the
        # final evaluation forward, three in training (for HyperGCN, in
        # the signal of a re-expansion)
        h, x, split = two_component_instance()
        for epochs in (1, 3):
            cfg = TrainConfig(method=method, epochs=epochs, lr=1e200, seed=0)
            with np.errstate(all="ignore"), pytest.raises(FloatingPointError):
                train_ssl(h, x, split, cfg)

    def test_report_dict_key_order(self):
        # the CLI prints this dict as a JSON line
        h, x, split = two_component_instance()
        report = train_ssl(h, x, split, TrainConfig(method="mlp", epochs=2))
        assert list(report.to_dict()) == [
            "method", "test_error", "losses", "seconds_per_epoch", "edge_counts",
            "adjacency_pairs", "expansions"]
        assert report.to_dict()["losses"] == report.losses

    def test_deterministic_given_seed(self):
        h, x, split = two_component_instance()
        cfg = TrainConfig(method="hypergcn", epochs=10, seed=42)
        r1 = train_ssl(h, x, split, cfg)
        r2 = train_ssl(h, x, split, cfg)
        assert r1.losses == r2.losses
        assert r1.test_error == r2.test_error


class TestBadInput:
    # hgnn trained silently on a size-1 hyperedge before the constructor
    # checked sizes; hypergcn divided by zero
    @pytest.mark.parametrize("method", ["hypergcn", "hgnn"])
    @pytest.mark.parametrize("case", BAD_INPUTS)
    def test_rejected_naming_hyperedge(self, case, method):
        n, es, weights, message = BAD_INPUTS[case]
        _, x, split = two_component_instance()
        with pytest.raises(ValueError, match=re.escape(message)):
            train_ssl(Hypergraph.from_edges(n, es, weights), x, split,
                      TrainConfig(method=method, epochs=2))


class TestTrainConfig:
    @pytest.mark.parametrize("rate", [-0.5, 1.0, float("nan")])
    def test_dropout_outside_unit_interval_rejected(self, rate):
        # a negative rate used to train silently with no dropout
        with pytest.raises(ValueError, match="dropout"):
            TrainConfig(dropout=rate)
        with pytest.raises(ValueError, match="dropout"):
            replace(TrainConfig(), dropout=rate)


    @pytest.mark.parametrize("name, value", [
        ("hidden", 0), ("epochs", -3), ("lr", -0.01), ("lr", 0.0), ("lr", float("nan")),
        ("weight_decay", -5.0), ("hlr_lambda", -1.0)])
    def test_field_outside_its_range_rejected(self, name, value):
        # each trained silently: no hidden units, no epochs, a climbing
        # loss, or a penalty that rewards rough predictions
        with pytest.raises(ValueError, match=f"^{name} "):
            TrainConfig(**{name: value})

    def test_least_values_accepted(self):
        TrainConfig(hidden=1, epochs=0, dropout=0.0, weight_decay=0.0, hlr_lambda=0.0)


class TestFit:
    def test_one_sample_epoch_keeps_a_negative_zero_loss(self):
        # summed from 0.0, an epoch of one -0.0 loss would report 0.0
        sample = (np.ones((3, 2)), constant_graph(NormalizedAdjacency.identity(3)),
                  lambda logits: (-0.0, np.zeros_like(logits)))
        _, losses = fit([sample], 2, TrainConfig(epochs=2), rng_streams(0))
        assert [math.copysign(1.0, loss) for loss in losses] == [-1.0, -1.0]

    def test_epoch_loss_is_the_mean_over_samples_in_order(self):
        seen = []

        def sample(n, value):
            def loss_fn(logits):
                seen.append(value)
                return value, np.zeros_like(logits)
            return np.ones((n, 2)), constant_graph(NormalizedAdjacency.identity(n)), loss_fn

        theta, losses = fit([sample(3, 1.0), sample(5, 2.0), sample(4, 6.0)], 4,
                            TrainConfig(hidden=5, epochs=2), rng_streams(0))
        assert losses == [3.0, 3.0]
        assert seen == [1.0, 2.0, 6.0] * 2
        assert (theta.theta1.shape, theta.theta2.shape) == ((2, 5), (5, 4))


class TestProposition1Traces:
    def test_hgnn_and_hypergcn_identical_on_max_size_three(self):
        # hyperedge sizes capped at 3: mediator and clique graphs agree,
        # so the two methods must produce identical loss traces
        rng = np.random.default_rng(8)
        n = 12
        edges = [rng.choice(n, size=int(rng.integers(2, 4)), replace=False) for _ in range(8)]
        h = Hypergraph.from_edges(n, edges)
        x = rng.normal(size=(n, 5))
        labels = rng.integers(0, 2, size=n)
        labels[:2] = [0, 1]  # both classes present
        split = LabeledSplit(
            labels=labels, train_idx=np.arange(4), eval_idx=np.arange(4, n)
        )
        cfg_a = TrainConfig(method="hypergcn", epochs=20, seed=7)
        cfg_b = TrainConfig(method="hgnn", epochs=20, seed=7)
        ra = train_ssl(h, x, split, cfg_a)
        rb = train_ssl(h, x, split, cfg_b)
        np.testing.assert_allclose(ra.losses, rb.losses, rtol=0, atol=1e-12)
        assert ra.test_error == rb.test_error

    def test_all_size_two_hypergraph_weight_conventions(self):
        # every hyperedge a pair: mediator graph equals clique graph with
        # weight 1 per hyperedge, one-edge uses 1/2
        rng = np.random.default_rng(9)
        h = Hypergraph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7), (0, 7)])
        s = rng.normal(size=(8, 2))
        gm = expand_mediators(h, s, np.random.default_rng(0))
        gc = expand_clique(h)
        assert pair_dict(gm) == pair_dict(gc)
        g1 = expand_one_edge(h, s, np.random.default_rng(0))
        assert all(w == pytest.approx(0.5) for w in pair_dict(g1).values())


class TestHlr:
    def test_pair_laplacian_quadratic_form(self):
        rng = np.random.default_rng(30)
        h = Hypergraph.from_edges(6, [(0, 1, 2), (2, 3, 4, 5), (1, 5)])
        g = expand_mediators(h, rng.normal(size=(6, 2)), rng)
        lap = pair_laplacian(g)
        z = rng.normal(size=(6, 3))
        direct = sum(
            w * float(np.sum((z[u] - z[v]) ** 2)) for (u, v), w in pair_dict(g).items()
        )
        quad = float((z * (lap @ z)).sum())
        assert quad == pytest.approx(direct, rel=1e-12)

    def test_hlr_loss_and_gradient_match_finite_differences(self):
        rng = np.random.default_rng(31)
        n = 6
        h = Hypergraph.from_edges(n, [(0, 1, 2), (3, 4, 5), (1, 4)])
        x = rng.normal(size=(n, 3))
        lap = pair_laplacian(expand_mediators(h, x, rng))
        lam = 0.05
        labels = rng.integers(0, 2, size=n)
        mask = np.array([0, 3])
        from hypergcn.expansion import NormalizedAdjacency

        graph = constant_graph(NormalizedAdjacency.identity(n))
        t1 = glorot_init(3, 4, rng)
        t2 = glorot_init(4, 2, rng)
        loss_fn = partial(hlr_ce, labels=labels, mask=mask, lap=lap, lam=lam)
        loss, g1, g2 = step(graph, x, t1, t2, (None, None), loss_fn)
        eps = 1e-6
        for theta, grad in ((t1, g1), (t2, g2)):
            fd = np.zeros_like(theta)
            for idx in np.ndindex(theta.shape):
                orig = theta[idx]
                theta[idx] = orig + eps
                up = step(graph, x, t1, t2, (None, None), loss_fn)[0]
                theta[idx] = orig - eps
                dn = step(graph, x, t1, t2, (None, None), loss_fn)[0]
                theta[idx] = orig
                fd[idx] = (up - dn) / (2 * eps)
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)

    def test_mlp_hlr_trains(self):
        h, x, split = two_component_instance()
        cfg = TrainConfig(method="mlp-hlr", epochs=60, dropout=0.0, seed=2)
        assert train_ssl(h, x, split, cfg).test_error == 0.0


class TestEvaluate:
    def _split(self, labels, eval_idx):
        return LabeledSplit(
            labels=np.asarray(labels),
            train_idx=np.array([0]),
            eval_idx=np.asarray(eval_idx),
        )

    def test_perfect(self):
        z = np.eye(4)
        split = self._split([0, 1, 2, 3], [1, 2, 3])
        assert evaluate(z, split) == 0.0

    def test_all_wrong(self):
        z = np.tile([1.0, 0.0], (4, 1))
        split = self._split([1, 1, 1, 1], [0, 1, 2, 3])
        assert evaluate(z, split) == 100.0

    def test_half_wrong(self):
        labels = np.array([0] * 10)
        z = np.zeros((10, 2))
        z[:5, 0] = 1.0
        z[5:, 1] = 1.0
        assert evaluate(z, self._split(labels, list(range(10)))) == 50.0

    def test_argmax_ties_take_lowest_class(self):
        z = np.full((2, 3), 1 / 3)
        split = self._split([0, 1], [0, 1])
        assert evaluate(z, split) == 50.0  # both predicted as class 0

    def test_empty_eval_rejected(self):
        with pytest.raises(ValueError, match="empty evaluation"):
            evaluate(np.eye(2), self._split([0, 1], []))


class TestRunTrials:
    def _data(self):
        rng = np.random.default_rng(1)
        n = 16
        edges = [rng.choice(n, size=3, replace=False) for _ in range(10)]
        h = Hypergraph.from_edges(n, edges)
        labels = np.array([0, 1] * (n // 2))
        x = np.eye(2)[labels] + 0.01 * rng.normal(size=(n, 2))
        return h, x, labels

    @pytest.mark.parametrize("trials", [0, -2])
    def test_no_trials_rejected(self, trials):
        # used to return a NaN mean error
        h, x, labels = self._data()
        with pytest.raises(ValueError, match="trials"):
            run_trials(h, x, labels, TrainConfig(method="mlp", epochs=1), trials=trials, budget=4)

    def test_single_trial_has_zero_stdev(self):
        h, x, labels = self._data()
        cfg = TrainConfig(method="mlp", epochs=5, seed=0)
        res = run_trials(h, x, labels, cfg, trials=1, budget=4)
        assert res.std_error == 0.0
        assert res.mean_error == res.errors[0]

    def test_reproducible_across_calls(self):
        h, x, labels = self._data()
        cfg = TrainConfig(method="fast-hypergcn", epochs=5, seed=11)
        r1 = run_trials(h, x, labels, cfg, trials=4, budget=4)
        r2 = run_trials(h, x, labels, cfg, trials=4, budget=4)
        assert r1.errors == r2.errors
        assert r1.mean_error == r2.mean_error
        assert r1.std_error == r2.std_error

    def test_mean_and_std_match_numpy(self):
        h, x, labels = self._data()
        cfg = TrainConfig(method="mlp", epochs=4, seed=5)
        res = run_trials(h, x, labels, cfg, trials=5, budget=4)
        assert res.mean_error == pytest.approx(np.mean(res.errors))
        assert res.std_error == pytest.approx(np.std(res.errors, ddof=1))

    def test_parallel_matches_serial(self):
        h, x, labels = self._data()
        cfg = TrainConfig(method="mlp", epochs=3, seed=2)
        serial = run_trials(h, x, labels, cfg, trials=3, budget=4, workers=1)
        parallel = run_trials(h, x, labels, cfg, trials=3, budget=4, workers=2)
        assert serial.errors == parallel.errors

    def test_workers_capped_at_usable_cpus(self, monkeypatch):
        # with one usable CPU, asking for four workers starts no process
        import concurrent.futures

        from hypergcn import training

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(training, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        h, x, labels = self._data()
        cfg = TrainConfig(method="mlp", epochs=3, seed=2)
        serial = run_trials(h, x, labels, cfg, trials=3, budget=4, workers=1)
        capped = run_trials(h, x, labels, cfg, trials=3, budget=4, workers=4)
        assert capped.errors == serial.errors
        assert [r.losses for r in capped.reports] == [r.losses for r in serial.reports]


class TestMlpEquivalence:
    def test_identity_adjacency_reproduces_mlp_forward(self):
        rng = np.random.default_rng(44)
        from hypergcn.expansion import NormalizedAdjacency
        from hypergcn.nn import relu, softmax_rows

        x = rng.normal(size=(7, 3))
        t1 = glorot_init(3, 5, rng)
        t2 = glorot_init(5, 2, rng)
        z = softmax_rows(forward(constant_graph(NormalizedAdjacency.identity(7)), x, t1, t2)[0])
        np.testing.assert_allclose(z, softmax_rows(relu(x @ t1) @ t2), atol=1e-14)


# Run in a fresh interpreter: trains one method at n=1000 once for one
# epoch, then again for 20 epochs with a fault count after every step, and
# prints the second run's minor page faults per epoch over its epochs 6-20.
# That leaves out the run's one-time expansion and first touch of its
# buffers.
FAULT_PROBE = """
import resource, sys
import numpy as np
from hypergcn import dataio, nn, training

bundle = dataio.gen_noisy_ssl(0.5, np.random.default_rng(7))
split = dataio.balanced_split_labels(bundle.labels, 100, nn.rng_streams(0).split)
counts, fit_step = [], training.fit_step

def counted(*args):
    loss = fit_step(*args)
    counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    return loss

training.fit_step = counted
for epochs in (1, 20):
    counts.clear()
    training.train_ssl(bundle.hypergraph, bundle.features, split,
                       training.TrainConfig(method=sys.argv[1], epochs=epochs))
print((counts[19] - counts[4]) / 15)
"""


class TestAllocationStable:
    @pytest.mark.parametrize("method", ("fast-hypergcn", "hgnn", "mlp", "mlp-hlr"))
    def test_steady_state_faults_per_epoch(self, method):
        # A step that maps and frees arrays larger than the allocator's
        # trim threshold faults them back in every epoch: about 1,200 to
        # 1,500 times at n=1000, 0 when it reuses the run's buffers. Not
        # covered: the per-epoch expansion of hypergcn and one-hypergcn,
        # and a process's first run, whose threshold can still be too low
        # for the step's hidden-layer temporaries.
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "PYTHONPATH": str(Path(hypergcn.__file__).resolve().parent.parent)}
        out = subprocess.run([sys.executable, "-c", FAULT_PROBE, method], env=env,
                             capture_output=True, text=True, timeout=300, check=True)
        assert float(out.stdout) <= 50

    def test_step_allocates_no_input_sized_array(self):
        # layer 1's draw, mask and dropped input live in the run's buffer;
        # a step still allocates arrays of the hidden layer's size and the
        # draw's threshold, one byte per input entry
        rng = np.random.default_rng(9)
        n, p = 200, 2000
        x = rng.normal(size=(n, p))
        theta = Params.of(glorot_init(p, 4, rng), glorot_init(4, 2, rng))
        state = AdamState.for_params(theta, lr=0.01, weight_decay=5e-4)
        loss_fn = partial(softmax_ce, labels=rng.integers(0, 2, n), mask=np.arange(10))
        graph = constant_graph(NormalizedAdjacency.identity(n))
        buf = np.empty((n, p))
        fit_step(graph, x, theta, state, loss_fn, 0.5, rng, buf)
        tracemalloc.start()
        try:
            fit_step(graph, x, theta, state, loss_fn, 0.5, rng, buf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes / 4
