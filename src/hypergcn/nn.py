"""Minimal numerical engine for the fixed two-layer convolution.

Dense matrices are float64 numpy arrays. The forward model is

    Z = row_softmax( A2 · ReLU( A1 · X · Θ1 ) · Θ2 )

with optional inverted dropout on the input of each layer. Gradients of
the cross-entropy objective are computed analytically; there is no
autodiff. The adaptive-moment optimizer applies decoupled weight decay
to the first-layer parameters only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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
    shape: tuple[int, ...], rate: float, rng: np.random.Generator, dtype=np.float64
) -> np.ndarray:
    """Inverted-dropout mask: kept units are scaled by 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate {rate} outside [0, 1)")
    keep = rng.random(shape) >= rate
    return keep.astype(dtype) / (1.0 - rate)


def dropout(
    x: np.ndarray, rate: float, rng: np.random.Generator, training: bool
) -> np.ndarray:
    """Apply inverted dropout when training, identity otherwise."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate {rate} outside [0, 1)")
    if not training or rate == 0.0:
        return x
    return x * dropout_mask(x.shape, rate, rng, dtype=x.dtype)


def spmm(a: NormalizedAdjacency, x: np.ndarray) -> np.ndarray:
    """Sparse-dense product A x."""
    if a.n != x.shape[0]:
        raise ValueError(f"adjacency n={a.n} does not match x rows {x.shape[0]}")
    return a.matrix @ x


@dataclass
class GcnCache:
    """Intermediates of one forward pass, retained for the backward pass."""

    a1: NormalizedAdjacency
    a2: NormalizedAdjacency
    x_in: np.ndarray  # layer-1 input after dropout
    pre1: np.ndarray  # A1 (x_in Θ1), before ReLU
    h_in: np.ndarray  # layer-2 input after dropout
    mask2: np.ndarray | None
    logits: np.ndarray
    z: np.ndarray
    theta2: np.ndarray


def forward_hidden(
    a1: NormalizedAdjacency,
    x: np.ndarray,
    theta1: np.ndarray,
    mask1: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First convolution layer. Returns (hidden, x_in, pre1)."""
    x_in = x if mask1 is None else x * mask1
    pre1 = spmm(a1, x_in @ theta1)
    return relu(pre1), x_in, pre1


def forward_logits(
    a2: NormalizedAdjacency,
    hidden: np.ndarray,
    theta2: np.ndarray,
    mask2: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Second convolution layer up to the logits. Returns (logits, h_in)."""
    h_in = hidden if mask2 is None else hidden * mask2
    return spmm(a2, h_in @ theta2), h_in


def forward_gcn(
    a: NormalizedAdjacency,
    x: np.ndarray,
    theta1: np.ndarray,
    theta2: np.ndarray,
    dropout_masks: tuple[np.ndarray | None, np.ndarray | None] | None = None,
    a2: NormalizedAdjacency | None = None,
) -> tuple[np.ndarray, GcnCache]:
    """Two-layer forward pass returning row-stochastic Z and the cache.

    `a` feeds the first layer; `a2` (default: same as `a`) feeds the
    second, supporting per-layer re-expansion schedules. `dropout_masks`
    are precomputed inverted-dropout masks for each layer input, or None
    for no dropout.
    """
    if a2 is None:
        a2 = a
    mask1, mask2 = dropout_masks if dropout_masks is not None else (None, None)
    hidden, x_in, pre1 = forward_hidden(a, x, theta1, mask1)
    logits, h_in = forward_logits(a2, hidden, theta2, mask2)
    z = softmax_rows(logits)
    if not np.all(np.isfinite(z)):
        raise FloatingPointError("non-finite output in forward pass")
    cache = GcnCache(
        a1=a, a2=a2, x_in=x_in, pre1=pre1, h_in=h_in, mask2=mask2,
        logits=logits, z=z, theta2=theta2,
    )
    return z, cache


def loss_ce(z: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
    """Cross-entropy over the labelled set, averaged over |V_L|.

    Multiply by len(mask) to recover the plain sum. The training loop
    evaluates the same quantity from logits (see `loss_ce_logits`) so Z
    never needs clamping.
    """
    mask = np.asarray(mask, dtype=np.int64)
    if mask.size == 0:
        raise ValueError("empty labelled set")
    picked = z[mask, np.asarray(labels)[mask]]
    return float(-np.log(picked).mean())


def loss_ce_logits(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
    """Cross-entropy computed from logits via fused log-softmax."""
    mask = np.asarray(mask, dtype=np.int64)
    if mask.size == 0:
        raise ValueError("empty labelled set")
    logp = log_softmax_rows(logits[mask])
    return float(-logp[np.arange(mask.size), np.asarray(labels)[mask]].mean())


def softmax_vjp(z: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """Pull a gradient on softmax outputs back to the logits."""
    inner = (dz * z).sum(axis=1, keepdims=True)
    return z * (dz - inner)


def backward_from_dlogits(cache: GcnCache, dlogits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shared trunk backward: gradients of Θ1 and Θ2 given d(loss)/d(logits)."""
    g2 = spmm(cache.a2, dlogits)  # adjacency is symmetric
    grad_theta2 = cache.h_in.T @ g2
    dh_in = g2 @ cache.theta2.T
    dhidden = dh_in if cache.mask2 is None else dh_in * cache.mask2
    dpre1 = dhidden * (cache.pre1 > 0.0)
    g1 = spmm(cache.a1, dpre1)
    grad_theta1 = cache.x_in.T @ g1
    return grad_theta1, grad_theta2


def backward_gcn(
    cache: GcnCache,
    labels: np.ndarray,
    mask: np.ndarray,
    extra_dz: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradients of the masked mean cross-entropy w.r.t. Θ1, Θ2.

    `extra_dz` adds an additional upstream gradient on Z (for explicit
    regularizers on the output probabilities); it is pulled through the
    softmax before joining the cross-entropy term.
    """
    mask = np.asarray(mask, dtype=np.int64)
    if mask.size == 0:
        raise ValueError("empty labelled set")
    dlogits = np.zeros_like(cache.z)
    # np.add.at so repeated mask entries accumulate like a multiset
    np.add.at(dlogits, mask, cache.z[mask])
    np.add.at(dlogits, (mask, np.asarray(labels)[mask]), -1.0)
    dlogits /= mask.size
    if extra_dz is not None:
        dlogits += softmax_vjp(cache.z, extra_dz)
    return backward_from_dlogits(cache, dlogits)


@dataclass
class AdamState:
    """Adaptive-moment optimizer state with decoupled per-parameter decay."""

    lr: float
    weight_decay: float
    m: list[np.ndarray]
    v: list[np.ndarray]
    decay: list[bool]
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(
        cls,
        params: list[np.ndarray],
        lr: float,
        weight_decay: float,
        decay: list[bool] | None = None,
    ) -> "AdamState":
        if decay is None:
            # weight decay on the first-layer parameters only
            decay = [i == 0 for i in range(len(params))]
        return cls(
            lr=lr,
            weight_decay=weight_decay,
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            decay=list(decay),
        )


def adam_step(
    params: list[np.ndarray], grads: list[np.ndarray], state: AdamState
) -> tuple[list[np.ndarray], AdamState]:
    """One in-place adaptive-moment update.

    Decoupled L2 shrinkage is applied to parameters flagged in
    `state.decay`; with zero gradients and zero moments the parameters
    change only by that shrinkage.
    """
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    for p, g, m, v, dec in zip(params, grads, state.m, state.v, state.decay):
        if p.shape != g.shape:
            raise ValueError(f"parameter shape {p.shape} != grad shape {g.shape}")
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * np.square(g)
        update = (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        p -= state.lr * update
        if dec and state.weight_decay:
            p -= state.lr * state.weight_decay * p
    return params, state
