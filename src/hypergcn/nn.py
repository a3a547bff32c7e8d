"""Minimal numerical engine for the fixed two-layer convolution.

Dense matrices are float64 numpy arrays. The network computes the logits

    A2 · ReLU( A1 · X · Θ1 ) · Θ2

with optional inverted dropout on the input of each layer. Layer τ
convolves over `graph(layer input, Θτ)`, a `Graph`, which
`training.method_graph` gives for each method. Every product with an
adjacency, in either of its forms (`expansion.Adjacency`), is `spmm`.
Layer 1 runs its sparse product on the narrower side: (A1 · X) · Θ1
when X has fewer columns than the hidden layer, else A1 · (X · Θ1).
`forward` is the one forward pass; a loss function (`softmax_ce` here,
`training.hlr_ce`, `densek.hindsight_loss`) gives the loss and its
gradient on the logits, and `backward_from_dlogits` pulls that back to
Θ1 and Θ2 analytically; there is no autodiff. `training.fit_step`
chains the three into one training step. Θ1 and Θ2 are views of one
flat vector (`Params`), which the adaptive-moment optimizer updates in
one set of passes, with decoupled weight decay on Θ1 only; the backward
pass writes their gradients into another `Params`, so the optimizer
reads them as one vector. The module keeps no state: the buffers a
training run reuses are its caller's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .expansion import Adjacency


class RngStreams(NamedTuple):
    """Independent sub-streams derived from one seed.

    Keeping initialization, dropout, tie-breaking and split sampling on
    separate streams lets any one source of randomness be varied without
    disturbing the others.
    """

    init: np.random.Generator
    dropout: np.random.Generator
    ties: np.random.Generator
    split: np.random.Generator


def rng_streams(seed: int) -> RngStreams:
    children = np.random.SeedSequence(seed).spawn(4)
    return RngStreams(*(np.random.default_rng(c) for c in children))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _row_max(x: np.ndarray) -> np.ndarray:
    """`x.max(axis=1, keepdims=True)` taken column by column: numpy reduces
    a short row in a scalar loop per row, and a maximum is exact, so any
    order gives the same values. Only the sign of a tie between -0 and +0
    can differ, and subtracting either leaves zeros that `exp` maps to 1."""
    top = x[:, :1].copy()
    for j in range(1, x.shape[1]):
        np.maximum(top, x[:, j : j + 1], out=top)
    return top


def _row_sum(e: np.ndarray) -> np.ndarray:
    """`e.sum(axis=1, keepdims=True)` of non-negative rows: at width 2 one
    vector add, the a + b of numpy's per-row loop. From 3 columns on the
    order matters, and for signed rows numpy's sum of -0 and -0 is +0."""
    if e.shape[1] == 2:
        return e[:, :1] + e[:, 1:]
    return e.sum(axis=1, keepdims=True)


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction stability (`_row_max`,
    `_row_sum`)."""
    shifted = x - _row_max(x)
    e = np.exp(shifted)
    return e / _row_sum(e)


def glorot_init(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform initialization in +-sqrt(6 / (rows + cols))."""
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def dropout_mask(
    shape: tuple[int, ...], rate: float, rng: np.random.Generator, out: np.ndarray | None = None
) -> np.ndarray:
    """Inverted-dropout mask for a `rate` in [0, 1), which `training.TrainConfig`
    holds: kept units scale by 1/(1-rate). Draw, then mask, go into `out` if given."""
    draw = rng.random(shape, out=out)
    return np.multiply(draw >= rate, 1.0 / (1.0 - rate), out=draw)


# A layer's adjacency as a function of (layer input, layer weights)
Graph = Callable[[np.ndarray, np.ndarray], Adjacency]


def constant_graph(a: Adjacency) -> Graph:
    """The graph of a method with one adjacency for every layer."""
    return lambda layer_input, weights: a


def reexpanding_graph(expand: Callable[[np.ndarray], Adjacency]) -> Graph:
    """HyperGCN's graph: `expand` of the layer input (before dropout)
    times the layer weights. A non-finite product, from a diverged
    network, raises FloatingPointError in `expansion.as_signal`."""
    return lambda layer_input, weights: expand(layer_input @ weights)


def spmm(a: Adjacency, x: np.ndarray) -> np.ndarray:
    """Sparse-dense product A x, as the adjacency's form computes it."""
    if a.n != x.shape[0]:
        raise ValueError(f"adjacency n={a.n} does not match x rows {x.shape[0]}")
    return a.product(x)


def forward_hidden(
    a1: Adjacency, x_in: np.ndarray, theta1: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First convolution layer A1 · x_in · Θ1 on the input after dropout,
    x_in. Returns (hidden, x_in, pre1). When x_in is narrower than the
    hidden layer, the layer aggregates first, (A1 · x_in) · Θ1, and the
    x_in it returns is A1 · x_in; else it computes A1 · (x_in · Θ1)."""
    if x_in.shape[1] < theta1.shape[1]:
        x_in = spmm(a1, x_in)
        pre1 = x_in @ theta1
    else:
        pre1 = spmm(a1, x_in @ theta1)
    return relu(pre1), x_in, pre1


def forward_logits(
    a2: Adjacency,
    hidden: np.ndarray,
    theta2: np.ndarray,
    mask2: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Second convolution layer up to the logits. Returns (logits, h_in).

    Every forward pass, in training and at prediction, ends here, so a
    diverged network that `expansion.as_signal` has not rejected (in a
    reexpanding graph) is rejected here: a non-finite logit raises FloatingPointError.
    """
    h_in = hidden if mask2 is None else hidden * mask2
    logits = spmm(a2, h_in @ theta2)
    if not np.logical_and.reduce(np.isfinite(logits), axis=None):  # .all(), unwrapped
        raise FloatingPointError("non-finite logits in forward pass")
    return logits, h_in


def softmax_vjp(z: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """Pull a gradient on softmax outputs back to the logits."""
    inner = (dz * z).sum(axis=1, keepdims=True)
    return z * (dz - inner)


def softmax_ce(
    logits: np.ndarray, labels: np.ndarray, mask: np.ndarray
) -> tuple[float, np.ndarray]:
    """Loss function for `training.fit_step`: softmax cross-entropy
    averaged over the labelled set `mask`, and its gradient on the logits,
    from one pass of `softmax_rows` over all rows: the log-probability of
    a label is its shifted logit less the log of its row's sum. `labels`
    and `mask` are int64 arrays and `mask` is non-empty, rules that
    `dataio.LabeledSplit` holds. `mask` is a multiset: a vertex listed
    twice counts twice."""
    picked = labels[mask]
    shifted = logits - _row_max(logits)
    z = np.exp(shifted)
    total = _row_sum(z)
    loss = float(-(shifted[mask, picked] - np.log(total[mask, 0])).mean())
    z /= total
    dlogits = np.zeros_like(z)
    np.add.at(dlogits, mask, z[mask])
    np.add.at(dlogits, (mask, picked), -1.0)
    dlogits /= mask.size
    return loss, dlogits


def backward_from_dlogits(
    dlogits: np.ndarray,
    a1: Adjacency,
    a2: Adjacency,
    x_in: np.ndarray,
    pre1: np.ndarray,
    h_in: np.ndarray,
    mask2: np.ndarray | None,
    theta2: np.ndarray,
    grad: Params,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of Θ1 and Θ2 given d(loss)/d(logits), from the forward
    pass's layer inputs after dropout (`x_in`, `h_in`), layer-1
    pre-activation `pre1` and layer-2 dropout mask. If `x_in` is narrower
    than the hidden layer it is A1 · x_in (see `forward_hidden`) and Θ1's
    gradient is x_inᵀ · dpre1; else it is x_inᵀ · (A1 · dpre1), the same
    product as A1 is symmetric. The two gradients are written into
    `grad`'s Θ1 and Θ2 views, which are returned."""
    g2 = spmm(a2, dlogits)  # adjacency is symmetric
    grad_theta2 = np.matmul(h_in.T, g2, out=grad.theta2)
    dh_in = g2 @ theta2.T
    if mask2 is not None:
        dh_in *= mask2
    dpre1 = np.multiply(dh_in, pre1 > 0.0, out=dh_in)
    g1 = dpre1 if x_in.shape[1] < pre1.shape[1] else spmm(a1, dpre1)
    grad_theta1 = np.matmul(x_in.T, g1, out=grad.theta1)
    return grad_theta1, grad_theta2


def forward(
    graph: Graph,
    x: np.ndarray,
    theta1: np.ndarray,
    theta2: np.ndarray,
    x_in: np.ndarray | None = None,
    mask2: np.ndarray | None = None,
) -> tuple[np.ndarray, tuple]:
    """Logits and the saved arguments of `backward_from_dlogits`. `graph`
    is called for layer 1, then layer 2, with the layer's input before
    dropout. Layer 1 convolves `x_in`, its input after dropout (`x` when
    None); layer 2 applies its dropout mask `mask2` (None for none)."""
    a1 = graph(x, theta1)
    hidden, x_in, pre1 = forward_hidden(a1, x if x_in is None else x_in, theta1)
    a2 = graph(hidden, theta2)
    logits, h_in = forward_logits(a2, hidden, theta2, mask2)
    return logits, (a1, a2, x_in, pre1, h_in, mask2, theta2)


@dataclass(frozen=True, eq=False)
class Params:
    """Θ1 and Θ2 as reshaped views of `flat`: Θ1's entries, then Θ2's."""

    flat: np.ndarray
    theta1: np.ndarray
    theta2: np.ndarray

    @classmethod
    def of(cls, theta1: np.ndarray, theta2: np.ndarray) -> "Params":
        """Θ1 and Θ2 copied into one new float64 vector."""
        flat, k = np.concatenate((theta1, theta2), axis=None, dtype=np.float64), theta1.size
        return cls(flat, flat[:k].reshape(theta1.shape), flat[k:].reshape(theta2.shape))


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(eq=False)
class AdamState:
    """Adaptive-moment optimizer state: the moments of `Params.flat`, and
    two scratch vectors of their size that `adam_step` works in."""

    lr: float
    weight_decay: float
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    scratch: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.scratch = np.empty((2, self.m.size))

    @classmethod
    def for_params(cls, params: Params, lr: float, weight_decay: float) -> "AdamState":
        return cls(lr, weight_decay, np.zeros_like(params.flat), np.zeros_like(params.flat))


def adam_step(params: Params, grad: np.ndarray, state: AdamState) -> None:
    """One in-place adaptive-moment update of `params.flat` from its flat
    gradient, then decoupled L2 shrinkage of Θ1 only; with zero gradients
    and zero moments the parameters change only by that shrinkage. Its
    temporaries go into `state.scratch`, so it allocates no vector."""
    p, g, m, v, k = params.flat, grad, state.m, state.v, params.theta1.size
    if p.shape != g.shape:
        raise ValueError(f"parameter shape {p.shape} != grad shape {g.shape}")
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    t, u = state.scratch
    m *= b1
    m += np.multiply(1.0 - b1, g, out=t)
    v *= b2
    v += np.multiply(1.0 - b2, np.square(g, out=t), out=t)
    # update = (m / bc1) / (sqrt(v / bc2) + eps), then p -= lr * update
    np.divide(m, bc1, out=t)
    np.divide(v, bc2, out=u)
    np.sqrt(u, out=u)
    u += ADAM_EPS
    t /= u
    p -= np.multiply(state.lr, t, out=t)
    if state.weight_decay:
        p[:k] -= np.multiply(state.lr * state.weight_decay, p[:k], out=t[:k])
