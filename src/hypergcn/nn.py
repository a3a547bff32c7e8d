"""Minimal numerical engine for the fixed two-layer convolution.

Dense matrices are float64 numpy arrays. The network computes the logits

    A2 · ReLU( A1 · X · Θ1 ) · Θ2

with optional inverted dropout on the input of each layer. Layer τ
convolves over `graph(layer input, Θτ)`, a `Graph`, which
`training.method_graph` gives for each method. Every product with an
adjacency is `spmm`: by its CSR, or through the incidence matrix
(`expansion.IncidenceFactors`) for a factored one. Layer 1 runs its
sparse product on the narrower side: (A1 · X) · Θ1 when X has fewer
columns than the hidden layer, else A1 · (X · Θ1). `forward` is the one
forward pass; `step` runs it, asks a loss function (`softmax_ce` here,
`training.hlr_ce`, `densek.hindsight_loss`) for the loss and its gradient
on the logits, and pulls that back to Θ1 and Θ2 analytically; there is
no autodiff. Θ1 and Θ2 are views of one flat vector (`Params`), which the
adaptive-moment optimizer updates in one set of passes, with decoupled
weight decay on Θ1 only. The module keeps no state: a buffer that steps
reuse (`out`) is the caller's and lives for one training run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .expansion import NormalizedAdjacency


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


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction stability."""
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def log_softmax_rows(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def glorot_init(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform initialization in +-sqrt(6 / (rows + cols))."""
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def dropout_mask(
    shape: tuple[int, ...], rate: float, rng: np.random.Generator, out: np.ndarray | None = None
) -> np.ndarray:
    """Inverted-dropout mask: kept units are scaled by 1/(1-rate). The
    uniform draw, then the mask, go into `out` if given."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate {rate} outside [0, 1)")
    draw = rng.random(shape, out=out)
    return np.multiply(draw >= rate, 1.0 / (1.0 - rate), out=draw)


# A layer's adjacency as a function of (layer input, layer weights)
Graph = Callable[[np.ndarray, np.ndarray], NormalizedAdjacency]


def constant_graph(a: NormalizedAdjacency) -> Graph:
    """The graph of a method with one adjacency for every layer."""
    return lambda layer_input, weights: a


def reexpanding_graph(expand: Callable[[np.ndarray], NormalizedAdjacency]) -> Graph:
    """HyperGCN's graph: `expand` of the layer input (before dropout)
    times the layer weights. A non-finite product, from a diverged
    network, raises FloatingPointError."""

    def graph(layer_input: np.ndarray, weights: np.ndarray) -> NormalizedAdjacency:
        signal = layer_input @ weights
        if not np.isfinite(signal).all():
            raise FloatingPointError("non-finite layer signal")
        return expand(signal)

    return graph


def spmm(a: NormalizedAdjacency, x: np.ndarray) -> np.ndarray:
    """Sparse-dense product A x, by the CSR or through the incidence
    matrix for a factored adjacency."""
    if a.n != x.shape[0]:
        raise ValueError(f"adjacency n={a.n} does not match x rows {x.shape[0]}")
    return a.matrix @ x if a.factors is None else a.factors.product(x)


def forward_hidden(
    a1: NormalizedAdjacency,
    x: np.ndarray,
    theta1: np.ndarray,
    mask1: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First convolution layer A1 · x_in · Θ1 on the input after dropout,
    x_in, which goes into `out` if given (`out` may be `mask1` itself).
    Returns (hidden, x_in, pre1). When x is narrower than the hidden layer,
    the layer aggregates first, (A1 · x_in) · Θ1, and the x_in it returns
    is A1 · x_in; else it computes A1 · (x_in · Θ1)."""
    x_in = x if mask1 is None else np.multiply(x, mask1, out=out)
    if x.shape[1] < theta1.shape[1]:
        x_in = spmm(a1, x_in)
        pre1 = x_in @ theta1
    else:
        pre1 = spmm(a1, x_in @ theta1)
    return relu(pre1), x_in, pre1


def forward_logits(
    a2: NormalizedAdjacency,
    hidden: np.ndarray,
    theta2: np.ndarray,
    mask2: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Second convolution layer up to the logits. Returns (logits, h_in).

    Every forward pass, in training and at prediction, ends here, so this
    is the one place that rejects a diverged network: any non-finite
    logit raises FloatingPointError.
    """
    h_in = hidden if mask2 is None else hidden * mask2
    logits = spmm(a2, h_in @ theta2)
    if not np.isfinite(logits).all():
        raise FloatingPointError("non-finite logits in forward pass")
    return logits, h_in


def softmax_vjp(z: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """Pull a gradient on softmax outputs back to the logits."""
    inner = (dz * z).sum(axis=1, keepdims=True)
    return z * (dz - inner)


def softmax_ce(
    logits: np.ndarray, labels: np.ndarray, mask: np.ndarray
) -> tuple[float, np.ndarray]:
    """Loss function for `step`: softmax cross-entropy averaged over the
    labelled set `mask`, from the logits by a fused log-softmax, and its
    gradient on the logits. `mask` is a multiset: a vertex listed twice
    counts twice."""
    mask = np.asarray(mask, dtype=np.int64)
    if mask.size == 0:
        raise ValueError("empty labelled set")
    picked = np.asarray(labels)[mask]
    loss = float(-log_softmax_rows(logits[mask])[np.arange(mask.size), picked].mean())
    z = softmax_rows(logits)
    dlogits = np.zeros_like(z)
    np.add.at(dlogits, mask, z[mask])
    np.add.at(dlogits, (mask, picked), -1.0)
    dlogits /= mask.size
    return loss, dlogits


def backward_from_dlogits(
    dlogits: np.ndarray,
    a1: NormalizedAdjacency,
    a2: NormalizedAdjacency,
    x_in: np.ndarray,
    pre1: np.ndarray,
    h_in: np.ndarray,
    mask2: np.ndarray | None,
    theta2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of Θ1 and Θ2 given d(loss)/d(logits), from the forward
    pass's layer inputs after dropout (`x_in`, `h_in`), layer-1
    pre-activation `pre1` and layer-2 dropout mask. If `x_in` is narrower
    than the hidden layer it is A1 · x_in (see `forward_hidden`) and Θ1's
    gradient is x_inᵀ · dpre1; else it is x_inᵀ · (A1 · dpre1), the same
    product as A1 is symmetric."""
    g2 = spmm(a2, dlogits)  # adjacency is symmetric
    grad_theta2 = h_in.T @ g2
    dh_in = g2 @ theta2.T
    dhidden = dh_in if mask2 is None else dh_in * mask2
    dpre1 = dhidden * (pre1 > 0.0)
    g1 = dpre1 if x_in.shape[1] < pre1.shape[1] else spmm(a1, dpre1)
    grad_theta1 = x_in.T @ g1
    return grad_theta1, grad_theta2


def forward(
    graph: Graph,
    x: np.ndarray,
    theta1: np.ndarray,
    theta2: np.ndarray,
    masks: tuple[np.ndarray | None, np.ndarray | None] = (None, None),
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, tuple]:
    """Logits and the saved arguments of `backward_from_dlogits`. `graph`
    is called for layer 1, then layer 2, with the layer's input before
    dropout; `masks` are the two inputs' dropout masks (None for none);
    `out` goes to `forward_hidden`."""
    mask1, mask2 = masks
    a1 = graph(x, theta1)
    hidden, x_in, pre1 = forward_hidden(a1, x, theta1, mask1, out)
    a2 = graph(hidden, theta2)
    logits, h_in = forward_logits(a2, hidden, theta2, mask2)
    return logits, (a1, a2, x_in, pre1, h_in, mask2, theta2)


def step(
    graph: Graph,
    x: np.ndarray,
    theta1: np.ndarray,
    theta2: np.ndarray,
    masks: tuple[np.ndarray | None, np.ndarray | None],
    loss_fn: Callable[[np.ndarray], tuple[float, np.ndarray]],
    out: np.ndarray | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss and exact gradients of Θ1 and Θ2 for one `forward` pass.

    `loss_fn(logits)` returns (loss, d loss / d logits); the step knows
    nothing else about the objective. Returns (loss, grad Θ1, grad Θ2).
    """
    logits, saved = forward(graph, x, theta1, theta2, masks, out)
    loss, dlogits = loss_fn(logits)
    return (loss, *backward_from_dlogits(dlogits, *saved))


class Params(NamedTuple):
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


@dataclass
class AdamState:
    """Adaptive-moment optimizer state: the moments of `Params.flat`."""

    lr: float
    weight_decay: float
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def for_params(cls, params: Params, lr: float, weight_decay: float) -> "AdamState":
        return cls(lr, weight_decay, np.zeros_like(params.flat), np.zeros_like(params.flat))


def adam_step(params: Params, grad: np.ndarray, state: AdamState) -> None:
    """One in-place adaptive-moment update of `params.flat` from its flat
    gradient, then decoupled L2 shrinkage of Θ1 only; with zero gradients
    and zero moments the parameters change only by that shrinkage."""
    p, g, m, v, p1 = params.flat, grad, state.m, state.v, params.theta1
    if p.shape != g.shape:
        raise ValueError(f"parameter shape {p.shape} != grad shape {g.shape}")
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * np.square(g)
    update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    p -= state.lr * update
    if state.weight_decay:
        p1 -= state.lr * state.weight_decay * p1
