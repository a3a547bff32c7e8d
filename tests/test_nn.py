import contextlib
import math
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergcn import expansion, nn
from hypergcn.expansion import (
    NormalizedAdjacency,
    clique_adjacency,
    expand_mediators,
    mediator_adjacency,
    normalize,
)
from hypergcn.hypergraph import Hypergraph
from hypergcn.nn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    Params,
    adam_step,
    backward_from_dlogits,
    constant_graph,
    dropout_mask,
    forward,
    forward_hidden,
    forward_logits,
    glorot_init,
    relu,
    reexpanding_graph,
    rng_streams,
    softmax_ce,
    softmax_rows,
    softmax_vjp,
    spmm,
)


# layer 1 aggregates first for p < HIDDEN input columns, else it takes
# the weight product first; tests of the layer run both orders
HIDDEN = 4
LAYER1_ORDERS = [pytest.param(3, id="aggregate-first"), pytest.param(4, id="weights-first"),
                 pytest.param(6, id="weights-first-wide")]


def loss_ce(z, labels, mask):
    """Reference cross-entropy from probabilities: -log Z[v, y_v]
    averaged over the labelled set (a multiset)."""
    mask = np.asarray(mask, dtype=np.int64)
    return float(-np.log(z[mask, np.asarray(labels)[mask]]).mean())


def forward_z(a, x, t1, t2):
    """Row-softmax output of the two-layer network without dropout."""
    return softmax_rows(forward(constant_graph(a), x, t1, t2)[0])


def step(graph, x, t1, t2, loss_fn):
    """(loss, grad Θ1, grad Θ2) of one forward and backward pass without
    dropout: `training.fit_step`'s gradients, before its optimizer update."""
    logits, saved = forward(graph, x, t1, t2)
    loss, dlogits = loss_fn(logits)
    return (loss, *backward_from_dlogits(dlogits, *saved, Params.of(t1, t2)))


def ce_step(a, x, t1, t2, labels, mask):
    """(loss, grad Θ1, grad Θ2) of the masked cross-entropy."""
    return step(constant_graph(a), x, t1, t2, partial(softmax_ce, labels=labels, mask=mask))


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

    def test_softmax_ce_loss_matches_log_of_softmax(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 4))
        labels, mask = rng.integers(0, 4, 5), np.array([3, 0, 3, 1])
        assert softmax_ce(x, labels, mask)[0] == pytest.approx(
            loss_ce(softmax_rows(x), labels, mask), abs=1e-12)

    @pytest.mark.parametrize("classes", [1, 2, 3, 10])
    def test_softmax_forms_equal_the_row_max_form_bit_for_bit(self, classes):
        # the row max is taken column by column, and at width 2 the row sum
        # of the exponentials is one add; the reference takes them with
        # x.max(axis=1) and numpy's sum. Rows of normal, tied, signed-zero
        # and dominated logits (a lone maximum of ±0 over -800, whose row
        # sums to 1)
        rng = np.random.default_rng(classes)
        x = rng.normal(size=(600, classes))
        x[:100] = np.round(x[:100])
        x[100:200] = rng.choice([-0.0, 0.0, 1.0], size=(100, classes))
        x[200:300] = rng.choice([-0.0, 0.0], size=(100, classes))
        x[300:400] = rng.choice([-0.0, 0.0, -800.0], size=(100, classes))
        x[400:500] = rng.choice([-700.0, 700.0, 3.0], size=(100, classes))
        shifted = x - x.max(axis=1, keepdims=True)
        total = np.exp(shifted).sum(axis=1, keepdims=True)
        z = np.exp(shifted) / total
        np.testing.assert_array_equal(softmax_rows(x).view(np.int64), z.view(np.int64))
        # the sum alone, also on rows with exact zeros and no 1
        e = np.exp(np.concatenate([shifted, rng.choice([-np.inf, -800.0, -0.5, 0.0, 2.0],
                                                        size=(200, classes))]))
        np.testing.assert_array_equal(nn._row_sum(e).view(np.int64),
                                      e.sum(axis=1, keepdims=True).view(np.int64))
        # softmax_ce against its two-pass form: a log-softmax of the masked
        # rows for the loss, then the softmax of all rows for the gradient,
        # on a mask that repeats and reorders vertices
        labels = rng.integers(0, classes, x.shape[0])
        order = rng.permutation(x.shape[0])
        mask = np.concatenate([order[:400], order[:50], order[350:380]])
        rows = x[mask]
        rshift = rows - rows.max(axis=1, keepdims=True)
        logp = rshift - np.log(np.exp(rshift).sum(axis=1, keepdims=True))
        want_loss = float(-logp[np.arange(mask.size), labels[mask]].mean())
        want = np.zeros_like(z)
        np.add.at(want, mask, z[mask])
        np.add.at(want, (mask, labels[mask]), -1.0)
        want /= mask.size
        loss, dlogits = softmax_ce(x, labels, mask)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        np.testing.assert_array_equal(dlogits.view(np.int64), want.view(np.int64))


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
        out = x * dropout_mask(x.shape, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out, x)

    def test_eval_mode_is_identity(self):
        # without a mask (prediction) the layer input is x itself
        x = np.ones((3, 3))
        _, out, _ = forward_hidden(NormalizedAdjacency.identity(3), x, np.eye(3))
        np.testing.assert_array_equal(out, x)

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

    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (50, 16), (33,)])
    def test_matches_divided_mask_and_stream(self, shape):
        # the mask is the thresholded draw cast to float and divided by the
        # keep rate, bit for bit, with or without a buffer (a prefix of
        # larger rows), and the generator's stream moves on alike
        for rate in np.linspace(0.1, 0.9, 9):
            want_rng = np.random.default_rng(7)
            keep = want_rng.random(shape) >= rate
            want = keep.astype(float) / (1 - rate)
            buf = np.empty((shape[0] + 5,) + shape[1:])
            for out in (None, buf[: shape[0]]):
                rng = np.random.default_rng(7)
                got = dropout_mask(shape, rate, rng, out=out)
                assert got.dtype == np.float64 and got.shape == shape
                assert got.tobytes() == want.tobytes()
                assert out is None or np.shares_memory(got, buf)
                assert rng.random() == np.random.default_rng(7).random(
                    int(np.prod(shape)) + 1)[-1]


class TestSpmm:
    def test_identity(self):
        a = NormalizedAdjacency.identity(3)
        x = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(spmm(a, x), x)

    def test_averaging_pair(self):
        from hypergcn.expansion import WeightedGraph

        g = WeightedGraph(n=2, u=np.array([0]), v=np.array([1]), w=np.array([1.0]))
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


# signed zeros, subnormals and ordinary values
BIT_VALUES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-315]) | st.floats(-1e3, 1e3)


@st.composite
def csr_operand(draw):
    """A CSR n x n (n >= 1, some rows empty) and an n x k operand (k in
    1..9) laid out C- or Fortran-ordered, sliced or transposed, or a
    vector of n."""
    n, k = draw(st.integers(1, 10)), draw(st.integers(1, 9))
    rows = [sorted(draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True)))
            for _ in range(n)]
    indices = np.array([c for r in rows for c in r], dtype=np.int64)
    data = np.array(draw(st.lists(BIT_VALUES, min_size=indices.size, max_size=indices.size)))
    mat = sp.csr_array((data, indices, np.cumsum([0] + [len(r) for r in rows])), shape=(n, n))
    values = np.array(draw(st.lists(BIT_VALUES, min_size=4 * n * k, max_size=4 * n * k)))
    layout = draw(st.sampled_from(["C", "F", "sliced", "transposed", "vector"]))
    x = {"C": lambda: values[: n * k].reshape(n, k),
         "F": lambda: np.asfortranarray(values[: n * k].reshape(n, k)),
         "sliced": lambda: values.reshape(2 * n, 2 * k)[1::2, ::2],
         "transposed": lambda: values[: n * k].reshape(k, n).T,
         "vector": lambda: values[:n]}[layout]()
    return mat, x


def no_kernel():
    """Patch scipy's CSR kernel out of reach, as if its import had failed."""
    return mock.patch.object(expansion, "_matvecs", None)


class TestSpmmKernel:
    @settings(max_examples=300, deadline=None)
    @given(csr_operand(), st.booleans())
    def test_bits_equal_scipy_product(self, case, kernel):
        mat, x = case
        want = mat @ x
        with contextlib.nullcontext() if kernel else no_kernel():
            got = spmm(NormalizedAdjacency(mat.shape[0], mat), x)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k, kernel", [(1, "_matvecs"), (2, "_matvecs"), (9, "_matvecs")])
    def test_float64_products_call_the_kernel(self, k, kernel):
        a = normalize(expand_mediators(*small_instance(), np.random.default_rng(0)))
        x = np.random.default_rng(1).normal(size=(a.n, k))
        with mock.patch.object(expansion, kernel, wraps=getattr(expansion, kernel)) as called:
            spmm(a, x)
            spmm(a, x.astype(np.float32))  # not float64: scipy's own product
        assert called.call_count == 1

    @pytest.mark.parametrize("cols", [1, 3])
    def test_factored_products_keep_their_bits_without_the_kernel(self, cols):
        h, s = small_instance()
        x = np.random.default_rng(2).normal(size=(h.n, cols))
        for a in (clique_adjacency(h), mediator_adjacency(h, s, np.random.default_rng(0))):
            with_kernel = spmm(a, x)
            with no_kernel():
                assert spmm(a, x).tobytes() == with_kernel.tobytes()


def small_instance():
    """A 7-vertex hypergraph with overlapping hyperedges and a signal on it."""
    h = Hypergraph.from_edges(7, [(0, 1, 2, 3), (2, 3, 4), (4, 5, 6), (0, 6), (1, 3, 5, 6)])
    return h, np.random.default_rng(3).normal(size=(7, 2))


class TestForward:
    def test_zero_output_layer_gives_uniform_rows(self):
        a = NormalizedAdjacency.identity(2)
        x = np.eye(2)
        z = forward_z(a, x, np.eye(2), np.zeros((2, 3)))
        np.testing.assert_allclose(z, np.full((2, 3), 1 / 3), atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(12)
        a = random_adjacency(rng, 7)
        z = forward_z(
            a, rng.normal(size=(7, 4)),
            glorot_init(4, 3, rng), glorot_init(3, 2, rng),
        )
        np.testing.assert_allclose(z.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("p", LAYER1_ORDERS)
    def test_matches_scalar_reference(self, p):
        rng = np.random.default_rng(77)
        for _ in range(10):
            n = int(rng.integers(3, 8))
            a = random_adjacency(rng, n)
            x = rng.normal(size=(n, p))
            t1 = glorot_init(p, HIDDEN, rng)
            t2 = glorot_init(HIDDEN, 3, rng)
            z = forward_z(a, x, t1, t2)
            ref = scalar_forward(a.matrix.toarray().tolist(), x.tolist(), t1.tolist(), t2.tolist())
            np.testing.assert_allclose(z, ref, atol=1e-10)

    def test_identity_adjacency_is_mlp(self):
        # with A = I the model collapses to ReLU(X T1) T2 row-softmaxed
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 3))
        t1 = glorot_init(3, 4, rng)
        t2 = glorot_init(4, 2, rng)
        z = forward_z(NormalizedAdjacency.identity(5), x, t1, t2)
        np.testing.assert_allclose(
            z, softmax_rows(relu(x @ t1) @ t2), atol=1e-14
        )

    def test_graph_gets_each_layer_input_before_dropout(self):
        # layer 1's graph comes first, from X and Θ1; layer 2's from the
        # undropped hidden layer and Θ2; dropout applies to the products
        rng = np.random.default_rng(5)
        a = random_adjacency(rng, 6)
        x = rng.normal(size=(6, 3))
        t1, t2 = glorot_init(3, 4, rng), glorot_init(4, 2, rng)
        masks = (dropout_mask((6, 3), 0.5, rng), dropout_mask((6, 4), 0.5, rng))
        calls = []

        def graph(layer_input, weights):
            calls.append((layer_input.copy(), weights))
            return a

        logits, _ = forward(graph, x, t1, t2, x * masks[0], masks[1])
        hidden, _, _ = forward_hidden(a, x * masks[0], t1)
        assert len(calls) == 2
        np.testing.assert_array_equal(calls[0][0], x)
        assert calls[0][1] is t1
        np.testing.assert_array_equal(calls[1][0], hidden)
        assert calls[1][1] is t2
        np.testing.assert_array_equal(logits, forward_logits(a, hidden, t2, masks[1])[0])

    def test_reexpanding_graph_expands_the_product(self):
        rng = np.random.default_rng(6)
        x, t = rng.normal(size=(4, 3)), rng.normal(size=(3, 2))
        seen = []
        a = NormalizedAdjacency.identity(4)
        graph = reexpanding_graph(lambda signal: seen.append(signal) or a)
        assert graph(x, t) is a
        np.testing.assert_array_equal(seen[0], x @ t)


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
        assert softmax_ce(logits, labels, mask)[0] == pytest.approx(
            loss_ce(softmax_rows(logits), labels, mask), rel=1e-12
        )


class TestBackward:
    def _loss(self, a, x, t1, t2, labels, mask):
        return ce_step(a, x, t1, t2, labels, mask)[0]

    def test_zero_output_layer_blocks_theta1_gradient(self):
        rng = np.random.default_rng(14)
        a = random_adjacency(rng, 5)
        x = rng.normal(size=(5, 3))
        t1 = glorot_init(3, 4, rng)
        t2 = np.zeros((4, 2))
        labels = rng.integers(0, 2, size=5)
        _, g1, _ = ce_step(a, x, t1, t2, labels, np.array([0, 1]))
        np.testing.assert_array_equal(g1, np.zeros_like(t1))

    @pytest.mark.parametrize("p", LAYER1_ORDERS)
    def test_matches_central_finite_differences(self, p):
        rng = np.random.default_rng(15)
        step = 1e-5
        for trial in range(10):
            n = int(rng.integers(4, 9))
            a = random_adjacency(rng, n)
            x = rng.normal(size=(n, p))
            t1 = glorot_init(p, HIDDEN, rng)
            t2 = glorot_init(HIDDEN, 3, rng)
            labels = rng.integers(0, 3, size=n)
            mask = np.sort(rng.choice(n, size=max(1, n // 2), replace=False))
            _, _, pre1 = forward_hidden(a, x, t1)
            if np.abs(pre1).min() < 1e-3:
                continue  # avoid finite-difference error at the ReLU kink
            _, g1, g2 = ce_step(a, x, t1, t2, labels, mask)
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

    @pytest.mark.parametrize("p, calls", [(3, 3), (4, 4), (6, 4)])
    def test_spmm_calls_per_step(self, monkeypatch, p, calls):
        # aggregating first drops layer 1's backward spmm
        rng = np.random.default_rng(19)
        a = random_adjacency(rng, 6)
        x = rng.normal(size=(6, p))
        t1, t2 = glorot_init(p, HIDDEN, rng), glorot_init(HIDDEN, 2, rng)
        widths = []
        monkeypatch.setattr(nn, "spmm", lambda a, x: widths.append(x.shape[1]) or spmm(a, x))
        ce_step(a, x, t1, t2, rng.integers(0, 2, size=6), np.array([0, 3]))
        assert len(widths) == calls
        assert widths[0] == min(p, HIDDEN)

    def test_layer1_orders_agree(self):
        # the same step with layer 1 forced into each order: x padded with
        # zero columns (and Θ1 with zero rows) is as wide as the hidden layer
        rng = np.random.default_rng(20)
        n, p, hidden = 40, 5, 16
        a = random_adjacency(rng, n)
        x = rng.normal(size=(n, p))
        t1, t2 = glorot_init(p, hidden, rng), glorot_init(hidden, 3, rng)
        labels, mask = rng.integers(0, 3, size=n), np.arange(0, n, 3)
        wide = np.hstack([x, np.zeros((n, hidden - p))])
        t1_wide = np.vstack([t1, np.zeros((hidden - p, hidden))])
        loss, g1, g2 = ce_step(a, x, t1, t2, labels, mask)
        loss_w, g1_w, g2_w = ce_step(a, wide, t1_wide, t2, labels, mask)
        assert loss == pytest.approx(loss_w, rel=1e-12, abs=0.0)
        np.testing.assert_allclose(g1, g1_w[:p], rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(g1_w[p:], 0.0)
        np.testing.assert_allclose(g2, g2_w, rtol=1e-12, atol=0.0)

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
        _, g1a, g2a = ce_step(a, x, t1, t2, labels, mask)
        _, g1b, g2b = ce_step(a, x, t1, t2, labels, doubled)
        np.testing.assert_allclose(g1a, g1b, atol=1e-14)
        np.testing.assert_allclose(g2a, g2b, atol=1e-14)
        z = forward_z(a, x, t1, t2)
        la = loss_ce(z, labels, mask)
        lb = loss_ce(z, labels, doubled)
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


def per_parameter_adam(params, grads, m, v, t, lr, weight_decay):
    """The optimizer as a loop over the parameters, Θ1 first and only Θ1
    decayed: the reference for the flat update."""
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for i, (p, g, mi, vi) in enumerate(zip(params, grads, m, v)):
        mi *= ADAM_BETA1
        mi += (1.0 - ADAM_BETA1) * g
        vi *= ADAM_BETA2
        vi += (1.0 - ADAM_BETA2) * np.square(g)
        update = (mi / bc1) / (np.sqrt(vi / bc2) + ADAM_EPS)
        p -= lr * update
        if i == 0 and weight_decay:
            p -= lr * weight_decay * p


class TestAdam:
    def test_zero_gradient_only_shrinks_decayed_params(self):
        params = Params.of(np.full((2, 2), 2.0), np.full((2, 2), 2.0))
        state = AdamState.for_params(params, lr=0.1, weight_decay=0.01)
        adam_step(params, np.zeros(8), state)
        np.testing.assert_allclose(params.theta1, 2.0 * (1.0 - 0.1 * 0.01))
        np.testing.assert_allclose(params.theta2, 2.0)

    def test_first_step_closed_form(self):
        rng = np.random.default_rng(20)
        params = Params.of(rng.normal(size=(3, 4)), rng.normal(size=(4, 2)))
        g = rng.normal(size=params.flat.size)
        expected = params.flat - 0.01 * g / (np.abs(g) + 1e-8)
        state = AdamState.for_params(params, lr=0.01, weight_decay=0.0)
        adam_step(params, g, state)
        np.testing.assert_allclose(params.flat, expected, atol=1e-15)

    def test_constant_gradient_step_approaches_lr(self):
        params = Params.of(np.zeros((1, 1)), np.zeros((1, 1)))
        g = np.full(2, 0.37)
        state = AdamState.for_params(params, lr=0.01, weight_decay=0.0)
        prev = params.flat.copy()
        for _ in range(2000):
            prev = params.flat.copy()
            adam_step(params, g, state)
        np.testing.assert_allclose(abs(prev - params.flat), 0.01, rtol=1e-4)

    def test_shape_mismatch_rejected(self):
        params = Params.of(np.zeros((2, 2)), np.zeros((2, 2)))
        state = AdamState.for_params(params, lr=0.01, weight_decay=0.0)
        with pytest.raises(ValueError):
            adam_step(params, np.zeros(6), state)

    def test_params_are_views_of_one_flat_vector(self):
        rng = np.random.default_rng(21)
        t1, t2 = rng.normal(size=(5, 3)), rng.normal(size=(3, 2))
        params = Params.of(t1, t2)
        assert params.flat.tobytes() == t1.tobytes() + t2.tobytes()
        assert np.shares_memory(params.theta1, params.flat)
        assert np.shares_memory(params.theta2, params.flat)
        np.testing.assert_array_equal(params.theta1, t1)
        np.testing.assert_array_equal(params.theta2, t2)

    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4, 0.3])
    def test_matches_per_parameter_loop(self, weight_decay):
        rng = np.random.default_rng(22)
        ref = [rng.normal(size=(6, 4)), rng.normal(size=(4, 3))]
        m, v = [np.zeros_like(p) for p in ref], [np.zeros_like(p) for p in ref]
        params = Params.of(*ref)
        state = AdamState.for_params(params, lr=0.01, weight_decay=weight_decay)
        for t in range(1, 11):
            grads = [rng.normal(size=p.shape) * 10.0 ** rng.integers(-6, 3) for p in ref]
            per_parameter_adam(ref, grads, m, v, t, 0.01, weight_decay)
            adam_step(params, np.concatenate(grads, axis=None), state)
            assert params.theta1.tobytes() == ref[0].tobytes()
            assert params.theta2.tobytes() == ref[1].tobytes()
            assert state.m.tobytes() == b"".join(x.tobytes() for x in m)
            assert state.v.tobytes() == b"".join(x.tobytes() for x in v)


    def test_step_allocates_no_parameter_sized_vector(self):
        # the moments' temporaries live in the state's scratch vectors
        rng = np.random.default_rng(23)
        params = Params.of(rng.normal(size=(400, 100)), rng.normal(size=(100, 10)))
        state = AdamState.for_params(params, lr=0.01, weight_decay=5e-4)
        g = rng.normal(size=params.flat.size)
        adam_step(params, g, state)
        tracemalloc.start()
        try:
            adam_step(params, g, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < params.flat.nbytes / 4


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
