import math

import numpy as np
import pytest

from hypergcn.expansion import NormalizedAdjacency, expand_mediators, normalize
from hypergcn.hypergraph import Hypergraph
from hypergcn.nn import (
    AdamState,
    adam_step,
    backward_gcn,
    dropout,
    dropout_mask,
    forward_gcn,
    glorot_init,
    log_softmax_rows,
    loss_ce,
    loss_ce_logits,
    relu,
    rng_streams,
    softmax_rows,
    softmax_vjp,
    spmm,
)


def random_adjacency(rng, n):
    edges = []
    for _ in range(max(2, n // 2)):
        size = int(rng.integers(2, min(n, 4) + 1))
        edges.append(rng.choice(n, size=size, replace=False))
    h = Hypergraph.from_edges(n, edges)
    return normalize(expand_mediators(h, rng.normal(size=(n, 2)), rng))


def scalar_forward(a_dense, x, t1, t2):
    """Step-by-step scalar-loop reference of the two-layer forward."""
    n, p = len(x), len(x[0])
    hdim = len(t1[0])
    q = len(t2[0])
    xt = [[sum(x[i][k] * t1[k][j] for k in range(p)) for j in range(hdim)] for i in range(n)]
    pre1 = [[sum(a_dense[i][u] * xt[u][j] for u in range(n)) for j in range(hdim)] for i in range(n)]
    hid = [[max(v, 0.0) for v in row] for row in pre1]
    ht = [[sum(hid[i][k] * t2[k][j] for k in range(hdim)) for j in range(q)] for i in range(n)]
    logits = [[sum(a_dense[i][u] * ht[u][j] for u in range(n)) for j in range(q)] for i in range(n)]
    z = []
    for row in logits:
        mx = max(row)
        exps = [math.exp(v - mx) for v in row]
        tot = sum(exps)
        z.append([v / tot for v in exps])
    return np.array(z)


class TestElementwise:
    def test_relu(self):
        x = np.array([[-1.0, 0.0, 2.5]])
        np.testing.assert_array_equal(relu(x), [[0.0, 0.0, 2.5]])

    def test_softmax_uniform(self):
        np.testing.assert_allclose(softmax_rows(np.array([[0.0, 0.0]])), [[0.5, 0.5]])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(42)
        x = rng.normal(scale=50.0, size=(30, 6))  # large logits stay stable
        z = softmax_rows(x)
        np.testing.assert_allclose(z.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(z >= 0.0)

    def test_log_softmax_matches_log_of_softmax(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 4))
        np.testing.assert_allclose(
            log_softmax_rows(x), np.log(softmax_rows(x)), atol=1e-12
        )


class TestGlorot:
    def test_bounds_and_spread(self):
        rng = np.random.default_rng(1)
        w = glorot_init(40, 60, rng)
        limit = np.sqrt(6.0 / 100.0)
        assert w.shape == (40, 60)
        assert np.all(np.abs(w) <= limit)
        # variance of U(-L, L) is L^2/3
        assert w.var() == pytest.approx(limit**2 / 3.0, rel=0.1)


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        out = dropout(x, 0.0, np.random.default_rng(0), training=True)
        np.testing.assert_array_equal(out, x)

    def test_eval_mode_is_identity(self):
        x = np.ones((3, 3))
        out = dropout(x, 0.9, np.random.default_rng(0), training=False)
        np.testing.assert_array_equal(out, x)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            dropout(np.ones((2, 2)), 1.0, np.random.default_rng(0), training=True)
        with pytest.raises(ValueError):
            dropout_mask((2, 2), -0.1, np.random.default_rng(0))

    def test_unbiased_in_expectation(self):
        # inverted dropout is unbiased: mean over many masks approaches x
        # within 3 standard errors
        rate = 0.5
        x = np.array([2.0, -3.0, 0.5, 10.0])
        reps = 10000
        rng = np.random.default_rng(2023)
        acc = np.zeros_like(x)
        for _ in range(reps):
            acc += x * dropout_mask(x.shape, rate, rng)
        mean = acc / reps
        se = np.abs(x) * np.sqrt(rate / (1.0 - rate)) / np.sqrt(reps)
        assert np.all(np.abs(mean - x) <= 3.0 * se + 1e-12)


class TestSpmm:
    def test_identity(self):
        a = NormalizedAdjacency.identity(3)
        x = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(spmm(a, x), x)

    def test_averaging_pair(self):
        from hypergcn.expansion import WeightedGraph

        g = WeightedGraph(
            n=2, u=np.array([0]), v=np.array([1]), w=np.array([1.0]), loops=np.ones(2)
        )
        a = normalize(g)
        np.testing.assert_allclose(spmm(a, np.array([[2.0], [4.0]])), [[3.0], [3.0]])

    def test_matches_dense_product(self):
        rng = np.random.default_rng(6)
        a = random_adjacency(rng, 6)
        x = rng.normal(size=(6, 3))
        dense = a.matrix.toarray() @ x
        np.testing.assert_allclose(spmm(a, x), dense, atol=1e-12)

    def test_linear_in_x(self):
        rng = np.random.default_rng(7)
        a = random_adjacency(rng, 5)
        x, y = rng.normal(size=(2, 5, 3))
        np.testing.assert_allclose(
            spmm(a, 2.0 * x + y), 2.0 * spmm(a, x) + spmm(a, y), atol=1e-12
        )

    def test_dimension_mismatch(self):
        a = NormalizedAdjacency.identity(3)
        with pytest.raises(ValueError):
            spmm(a, np.ones((4, 2)))


class TestForward:
    def test_zero_output_layer_gives_uniform_rows(self):
        a = NormalizedAdjacency.identity(2)
        x = np.eye(2)
        z, _ = forward_gcn(a, x, np.eye(2), np.zeros((2, 3)))
        np.testing.assert_allclose(z, np.full((2, 3), 1 / 3), atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(12)
        a = random_adjacency(rng, 7)
        z, _ = forward_gcn(
            a, rng.normal(size=(7, 4)),
            glorot_init(4, 3, rng), glorot_init(3, 2, rng),
        )
        np.testing.assert_allclose(z.sum(axis=1), 1.0, atol=1e-12)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            n = int(rng.integers(3, 8))
            a = random_adjacency(rng, n)
            x = rng.normal(size=(n, 3))
            t1 = glorot_init(3, 4, rng)
            t2 = glorot_init(4, 3, rng)
            z, _ = forward_gcn(a, x, t1, t2)
            ref = scalar_forward(a.matrix.toarray().tolist(), x.tolist(), t1.tolist(), t2.tolist())
            np.testing.assert_allclose(z, ref, atol=1e-10)

    def test_identity_adjacency_is_mlp(self):
        # with A = I the model collapses to ReLU(X T1) T2 row-softmaxed
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 3))
        t1 = glorot_init(3, 4, rng)
        t2 = glorot_init(4, 2, rng)
        z, _ = forward_gcn(NormalizedAdjacency.identity(5), x, t1, t2)
        np.testing.assert_allclose(
            z, softmax_rows(relu(x @ t1) @ t2), atol=1e-14
        )


class TestLoss:
    def test_one_hot_rows_give_near_zero(self):
        z = np.array([[1.0 - 1e-12, 1e-12]])
        assert loss_ce(z, np.array([0]), np.array([0])) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_rows(self):
        z = np.full((3, 4), 0.25)
        assert loss_ce(z, np.array([1, 2, 3]), np.array([0])) == pytest.approx(np.log(4))

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(9)
        z = softmax_rows(rng.normal(size=(6, 4)))
        labels = rng.integers(0, 4, size=6)
        mask = np.array([1, 3, 4])
        direct = -sum(np.log(z[i, labels[i]]) for i in mask) / len(mask)
        assert loss_ce(z, labels, mask) == pytest.approx(direct, rel=1e-12)

    def test_logit_form_agrees(self):
        rng = np.random.default_rng(10)
        logits = rng.normal(size=(5, 3))
        labels = rng.integers(0, 3, size=5)
        mask = np.array([0, 2])
        assert loss_ce_logits(logits, labels, mask) == pytest.approx(
            loss_ce(softmax_rows(logits), labels, mask), rel=1e-12
        )

    def test_empty_mask_rejected(self):
        z = np.full((2, 2), 0.5)
        with pytest.raises(ValueError, match="empty"):
            loss_ce(z, np.array([0, 1]), np.array([], dtype=int))


class TestBackward:
    def _loss(self, a, x, t1, t2, labels, mask, masks=(None, None)):
        _, cache = forward_gcn(a, x, t1, t2, masks)
        return loss_ce_logits(cache.logits, labels, mask)

    def test_zero_output_layer_blocks_theta1_gradient(self):
        rng = np.random.default_rng(14)
        a = random_adjacency(rng, 5)
        x = rng.normal(size=(5, 3))
        t1 = glorot_init(3, 4, rng)
        t2 = np.zeros((4, 2))
        labels = rng.integers(0, 2, size=5)
        _, cache = forward_gcn(a, x, t1, t2)
        g1, _ = backward_gcn(cache, labels, np.array([0, 1]))
        np.testing.assert_array_equal(g1, np.zeros_like(t1))

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(15)
        step = 1e-5
        for trial in range(10):
            n = int(rng.integers(4, 9))
            a = random_adjacency(rng, n)
            x = rng.normal(size=(n, 3))
            t1 = glorot_init(3, 4, rng)
            t2 = glorot_init(4, 3, rng)
            labels = rng.integers(0, 3, size=n)
            mask = np.sort(rng.choice(n, size=max(1, n // 2), replace=False))
            _, cache = forward_gcn(a, x, t1, t2)
            if np.abs(cache.pre1).min() < 1e-3:
                continue  # avoid finite-difference error at the ReLU kink
            g1, g2 = backward_gcn(cache, labels, mask)
            for theta, grad, which in ((t1, g1, 0), (t2, g2, 1)):
                fd = np.zeros_like(theta)
                for idx in np.ndindex(theta.shape):
                    orig = theta[idx]
                    theta[idx] = orig + step
                    up = self._loss(a, x, t1, t2, labels, mask)
                    theta[idx] = orig - step
                    dn = self._loss(a, x, t1, t2, labels, mask)
                    theta[idx] = orig
                    fd[idx] = (up - dn) / (2 * step)
                rel = np.abs(grad - fd) / np.maximum.reduce(
                    [np.abs(grad), np.abs(fd), np.full_like(fd, 1e-8)]
                )
                assert rel.max() < 1e-6, f"trial {trial} theta{which + 1}"

    def test_gradient_scales_with_duplicated_labelled_nodes(self):
        # averaging over the mask: repeating every labelled node leaves
        # the mean loss and gradients unchanged; the recoverable sums double
        rng = np.random.default_rng(16)
        a = random_adjacency(rng, 6)
        x = rng.normal(size=(6, 3))
        t1 = glorot_init(3, 4, rng)
        t2 = glorot_init(4, 2, rng)
        labels = rng.integers(0, 2, size=6)
        mask = np.array([0, 2, 4])
        doubled = np.array([0, 2, 4, 0, 2, 4])
        _, cache = forward_gcn(a, x, t1, t2)
        g1a, g2a = backward_gcn(cache, labels, mask)
        g1b, g2b = backward_gcn(cache, labels, doubled)
        np.testing.assert_allclose(g1a, g1b, atol=1e-14)
        np.testing.assert_allclose(g2a, g2b, atol=1e-14)
        la = loss_ce(cache.z, labels, mask)
        lb = loss_ce(cache.z, labels, doubled)
        assert la * len(mask) * 2 == pytest.approx(lb * len(doubled))

    def test_softmax_vjp_matches_jacobian(self):
        rng = np.random.default_rng(18)
        logits = rng.normal(size=(4, 3))
        z = softmax_rows(logits)
        dz = rng.normal(size=(4, 3))
        got = softmax_vjp(z, dz)
        for i in range(4):
            jac = np.diag(z[i]) - np.outer(z[i], z[i])
            np.testing.assert_allclose(got[i], jac @ dz[i], atol=1e-12)


class TestAdam:
    def test_zero_gradient_only_shrinks_decayed_params(self):
        p1 = np.full((2, 2), 2.0)
        p2 = np.full((2, 2), 2.0)
        state = AdamState.for_params([p1, p2], lr=0.1, weight_decay=0.01)
        adam_step([p1, p2], [np.zeros((2, 2)), np.zeros((2, 2))], state)
        np.testing.assert_allclose(p1, 2.0 * (1.0 - 0.1 * 0.01))
        np.testing.assert_allclose(p2, 2.0)

    def test_first_step_closed_form(self):
        rng = np.random.default_rng(20)
        p = [rng.normal(size=(3, 4))]
        g = [rng.normal(size=(3, 4))]
        expected = p[0] - 0.01 * g[0] / (np.abs(g[0]) + 1e-8)
        state = AdamState.for_params(p, lr=0.01, weight_decay=0.0)
        adam_step(p, g, state)
        np.testing.assert_allclose(p[0], expected, atol=1e-15)

    def test_constant_gradient_step_approaches_lr(self):
        p = [np.zeros((1, 1))]
        g = [np.full((1, 1), 0.37)]
        state = AdamState.for_params(p, lr=0.01, weight_decay=0.0)
        prev = p[0].copy()
        for _ in range(2000):
            prev = p[0].copy()
            adam_step(p, g, state)
        assert abs(prev - p[0])[0, 0] == pytest.approx(0.01, rel=1e-4)

    def test_shape_mismatch_rejected(self):
        p = [np.zeros((2, 2))]
        state = AdamState.for_params(p, lr=0.01, weight_decay=0.0)
        with pytest.raises(ValueError):
            adam_step(p, [np.zeros((3, 2))], state)


class TestRngStreams:
    def test_deterministic_and_independent(self):
        s1 = rng_streams(99)
        s2 = rng_streams(99)
        np.testing.assert_array_equal(s1.init.random(5), s2.init.random(5))
        # consuming one stream does not affect another
        s3 = rng_streams(99)
        s3.ties.random(1000)
        np.testing.assert_array_equal(
            s3.dropout.random(5), rng_streams(99).dropout.random(5)
        )
