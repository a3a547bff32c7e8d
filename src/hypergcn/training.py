"""Semi-supervised training and evaluation for the six convolution methods.

Each method is an `nn.Graph` from a layer's input and weights to its
adjacency; `method_graph` says which graph each method convolves with.
Every method trains the same two-layer network for a fixed number of
epochs with the adaptive-moment optimizer; there is no early stopping.
`fit` is the one training loop, over one sample here and over the DkSH
solver's samples in `densek`; a step of it is a `fit_step` (dropout
masks, `nn.forward`, the sample's loss function, the backward pass,
Adam). Evaluation is `nn.forward` without dropout.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field, replace
from functools import partial, reduce
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from . import nn
from .dataio import LabeledSplit, balanced_split_labels
from .expansion import (
    IncidenceFactors,
    NormalizedAdjacency,
    WeightedGraph,
    clique_adjacency,
    expand_mediators,
    expand_one_edge,
    mediator_adjacency,
    normalize,
)
from .expansion import expand_clique  # bound only for bench/selftest.py
from .hypergraph import Hypergraph, size_counts

METHODS = ("hypergcn", "one-hypergcn", "fast-hypergcn", "hgnn", "mlp", "mlp-hlr")


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters; defaults follow the standard recipe."""

    method: str = "hypergcn"
    hidden: int = 32
    dropout: float = 0.5
    lr: float = 0.01
    weight_decay: float = 5e-4
    epochs: int = 200
    hlr_lambda: float = 0.001
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("hidden", "epochs", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} {value!r} is not an integer")
        # written so that a NaN fails every rule
        for name, holds, rule in (
                ("dropout", 0.0 <= self.dropout < 1.0, "in [0, 1)"),
                ("hidden", self.hidden >= 1, ">= 1"), ("epochs", self.epochs >= 0, ">= 0"),
                ("lr", 0.0 < self.lr < np.inf, "finite and > 0"),
                ("weight_decay", 0.0 <= self.weight_decay < np.inf, "finite and >= 0"),
                ("hlr_lambda", 0.0 <= self.hlr_lambda < np.inf, "finite and >= 0"),
                ("seed", self.seed >= 0, ">= 0")):
            if not holds:
                raise ValueError(f"{name} {getattr(self, name)} is not {rule}")


@dataclass
class TrainReport:
    method: str
    test_error: float
    losses: list[float]
    seconds_per_epoch: float
    edge_counts: dict[str, int]
    adjacency_pairs: int
    expansions: int


def pair_laplacian(g: WeightedGraph) -> sp.csr_array:
    """Combinatorial Laplacian D - W of the pair weights (loops ignored)."""
    # D - W negates W with -D on the diagonal; negation is exact
    rows, cols, vals = g.coo(-g.incident_pair_weight())
    return sp.coo_array((-vals, (rows, cols)), shape=(g.n, g.n)).tocsr()


def hlr_ce(
    logits: np.ndarray,
    labels: np.ndarray,
    mask: np.ndarray,
    lap: sp.csr_array,
    lam: float,
) -> tuple[float, np.ndarray]:
    """Loss function for `fit_step` under MLP-HLR: softmax cross-entropy
    plus lam * sum_uv w_uv ||Z_u - Z_v||^2, written with the pair
    Laplacian `lap`, on Z = softmax(logits). The penalty's gradient
    flows through the softmax."""
    loss, dlogits = nn.softmax_ce(logits, labels, mask)
    z = nn.softmax_rows(logits)
    lz = lap @ z
    dlogits += nn.softmax_vjp(z, 2.0 * lam * lz)
    return loss + lam * float((z * lz).sum()), dlogits


def fit_step(
    graph: nn.Graph,
    x: np.ndarray,
    theta: nn.Params,
    state: nn.AdamState,
    loss_fn: Callable[[np.ndarray], tuple[float, np.ndarray]],
    rate: float,
    rng: np.random.Generator,
    buf: np.ndarray,
    hbuf: np.ndarray,
    grad: nn.Params,
) -> float:
    """One optimizer step: draw the dropout masks from `rng` (layer 1's,
    then layer 2's; none when `rate` is 0), drop layer 1's input here, run
    `nn.forward`, ask `loss_fn(logits)` for (loss, d loss / d logits),
    pull that back to Θ1 and Θ2 (`nn.backward_from_dlogits`) and update
    `theta`'s one flat vector in place (`nn.adam_step`). Returns the loss.
    Layer 1's draw, mask and dropped input take turns in the first rows of
    `buf`, and layer 2's mask goes into the first rows of `hbuf`; the two
    gradients go into `grad`, a `Params` of Θ's shapes, so Adam reads them
    as one flat vector. `fit` creates the three for one training run."""
    x_in, mask2, n = x, None, x.shape[0]
    if rate > 0.0:
        x_in = nn.dropout_mask(x.shape, rate, rng, out=buf[:n])
        mask2 = nn.dropout_mask((n, theta.theta1.shape[1]), rate, rng, out=hbuf[:n])
        np.multiply(x, x_in, out=x_in)
    logits, saved = nn.forward(graph, x, theta.theta1, theta.theta2, x_in, mask2)
    loss, dlogits = loss_fn(logits)
    nn.backward_from_dlogits(dlogits, *saved, grad)
    nn.adam_step(theta, grad.flat, state)
    return loss


def fit(
    samples: Sequence[tuple[np.ndarray, nn.Graph, Callable]],
    outputs: int,
    cfg: TrainConfig,
    streams: nn.RngStreams,
) -> tuple[nn.Params, list[float]]:
    """Train the network on `samples`, (input, graph, loss function)
    triples of one input width, with Glorot Θ1 and Θ2 (`outputs` columns)
    from `streams.init` and one Adam state. An epoch is one `fit_step` per
    sample, in order. The run's buffers last the whole run and are sized
    to the largest sample: layer 1's dropout buffer (n x input width),
    layer 2's mask buffer (n x hidden), the flat gradient and Adam's
    scratch (`nn.AdamState`). Returns Θ and each epoch's mean loss, summed
    from its first step's so that one sample's loss keeps its bits, -0.0
    included."""
    p = samples[0][0].shape[1]
    theta = nn.Params.of(nn.glorot_init(p, cfg.hidden, streams.init),
                         nn.glorot_init(cfg.hidden, outputs, streams.init))
    state = nn.AdamState.for_params(theta, cfg.lr, cfg.weight_decay)
    rows = max(x.shape[0] for x, _, _ in samples)
    buf, hbuf = np.empty((rows, p)), np.empty((rows, cfg.hidden))
    grad = nn.Params.of(theta.theta1, theta.theta2)
    losses: list[float] = []
    for _ in range(cfg.epochs):
        epoch = [fit_step(graph, x, theta, state, loss_fn, cfg.dropout, streams.dropout, buf,
                          hbuf, grad)
                 for x, graph, loss_fn in samples]
        losses.append(reduce(operator.add, epoch) / len(epoch))
    return theta, losses


def method_graph(method: str, h: Hypergraph, x: np.ndarray, ties: np.random.Generator,
                 built: Callable = lambda g: g) -> nn.Graph:
    """The graph `method` convolves with on `h` and features `x`; extreme-pair
    ties come from `ties`. `built` is called on each expansion as it is
    built (a `WeightedGraph`, or a factored adjacency, `IncidenceFactors`)
    and returns it. A factored adjacency multiplies through the incidence
    matrix, skipping its CSR.

    * ``hypergcn``: the mediator graph of each layer's signal (input times
      weights), rebuilt per call. Factored: each is used for two products
      only, and the factored build skips pair emission, `np.unique` and
      the CSR conversion.
    * ``one-hypergcn``: the same, one extreme pair per hyperedge. CSR, as
      for the identity: with one pair per hyperedge or none it is small.
    * ``fast-hypergcn``: the mediator graph of `x`, built once. CSR: it is
      multiplied every epoch, and the factored product adds two incidence
      products, the extreme-pair gathers and their corrections.
    * ``hgnn``: the clique graph. Factored: its CSR has sum |e|(|e|-1)
      off-diagonal entries against the 2N incidence entries a product reads.
    * ``mlp``, ``mlp-hlr``: the identity. MLP-HLR's loss adds a penalty over
      the mediator graph of `x` (CSR), which `train_ssl` builds.

    Any other method raises ValueError.
    """
    if method == "hypergcn":
        return nn.reexpanding_graph(lambda signal: built(mediator_adjacency(h, signal, ties)))
    if method == "one-hypergcn":
        return nn.reexpanding_graph(
            lambda signal: normalize(built(expand_one_edge(h, signal, ties))))
    if method == "fast-hypergcn":
        return nn.constant_graph(normalize(built(expand_mediators(h, x, ties))))
    if method == "hgnn":
        return nn.constant_graph(built(clique_adjacency(h)))
    if method in ("mlp", "mlp-hlr"):
        return nn.constant_graph(NormalizedAdjacency.identity(h.n))
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def train_ssl(
    h: Hypergraph, x: np.ndarray, split: LabeledSplit, cfg: TrainConfig
) -> TrainReport:
    """Train one method on one split and report the evaluation error."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"features of shape {x.shape} are not n x p")
    if x.shape[0] != h.n:
        raise ValueError(f"feature rows {x.shape[0]} != vertex count {h.n}")
    if not np.isfinite(x).all():
        raise ValueError("non-finite features")
    if split.labels.shape != (h.n,):  # the split holds its other rules
        raise ValueError(f"labels are not {h.n} non-negative whole numbers")
    streams = nn.rng_streams(cfg.seed)
    edge_counts = dict(zip(("N", "N_m", "N_c"), size_counts(h)))

    expansions = adjacency_pairs = 0

    def built(g: WeightedGraph | IncidenceFactors):
        nonlocal expansions, adjacency_pairs
        expansions += 1
        adjacency_pairs = adjacency_pairs or g.pair_count
        return g

    graph = method_graph(cfg.method, h, x, streams.ties, built)
    loss_fn = partial(nn.softmax_ce, labels=split.labels, mask=split.train_idx)
    if cfg.method == "mlp-hlr":
        lap = pair_laplacian(built(expand_mediators(h, x, streams.ties)))
        loss_fn = partial(hlr_ce, labels=split.labels, mask=split.train_idx, lap=lap,
                          lam=cfg.hlr_lambda)

    t0 = time.perf_counter()
    theta, losses = fit([(x, graph, loss_fn)], int(split.labels.max()) + 1, cfg, streams)
    seconds_per_epoch = (time.perf_counter() - t0) / max(1, cfg.epochs)

    error = evaluate(nn.softmax_rows(nn.forward(graph, x, theta.theta1, theta.theta2)[0]), split)
    return TrainReport(
        method=cfg.method,
        losses=losses,
        test_error=error,
        seconds_per_epoch=seconds_per_epoch,
        edge_counts=edge_counts,
        adjacency_pairs=adjacency_pairs,
        expansions=expansions,
    )


def evaluate(z: np.ndarray, split: LabeledSplit) -> float:
    """Percent misclassified on the evaluation set; argmax ties go to the
    lowest class index."""
    preds = np.argmax(z, axis=1)
    wrong = preds[split.eval_idx] != split.labels[split.eval_idx]
    return float(100.0 * np.mean(wrong))


@dataclass
class TrialsResult:
    mean_error: float
    std_error: float
    reports: list[TrainReport] = field(default_factory=list)


def run_trials(
    h: Hypergraph,
    x: np.ndarray,
    labels: np.ndarray,
    cfg: TrainConfig,
    trials: int,
    budget: int,
) -> TrialsResult:
    """Repeat train/evaluate over `trials` independent class-balanced
    splits, in trial order; trial t derives all its randomness from seed
    cfg.seed + t.

    Returns the mean and sample standard deviation of the test errors.
    """
    if trials < 1:
        raise ValueError(f"trials {trials} < 1")
    reports = []
    for seed in range(cfg.seed, cfg.seed + trials):
        split = balanced_split_labels(labels, budget, nn.rng_streams(seed).split)
        reports.append(train_ssl(h, x, split, replace(cfg, seed=seed)))
    errors = [r.test_error for r in reports]
    mean = float(np.mean(errors))
    std = float(np.std(errors, ddof=1)) if len(errors) > 1 else 0.0
    return TrialsResult(mean_error=mean, std_error=std, reports=reports)
