"""Semi-supervised training and evaluation for the six convolution methods.

Method dispatch:

* ``hypergcn``       mediator expansion rebuilt every epoch and per layer,
                     from the signal (layer input) x (that layer's weights)
* ``one-hypergcn``   same schedule, single extreme pair per hyperedge
* ``fast-hypergcn``  mediator expansion built once from the raw features
* ``hgnn``           clique expansion built once
* ``mlp``            identity adjacency (structure unused)
* ``mlp-hlr``        identity adjacency plus an explicit quadratic
                     penalty over the feature-built mediator graph

Every method trains the same two-layer network for a fixed number of
epochs with the adaptive-moment optimizer; there is no early stopping.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from . import nn
from .dataio import LabeledSplit, balanced_split_labels
from .expansion import (
    NormalizedAdjacency,
    SelfLoopRule,
    WeightedGraph,
    expand_clique,
    expand_mediators,
    expand_one_edge,
    normalize,
)
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
    self_loops: SelfLoopRule = "unit"


@dataclass
class TrainReport:
    method: str
    losses: list[float]
    test_error: float
    seconds_per_epoch: float
    edge_counts: dict[str, int]
    adjacency_pairs: int
    expansions: int

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "test_error": self.test_error,
            "losses": self.losses,
            "seconds_per_epoch": self.seconds_per_epoch,
            "edge_counts": self.edge_counts,
            "adjacency_pairs": self.adjacency_pairs,
            "expansions": self.expansions,
        }


def pair_laplacian(g: WeightedGraph) -> sp.csr_array:
    """Combinatorial Laplacian D - W of the pair weights (loops ignored)."""
    # D - W negates W with -D on the diagonal; negation is exact
    rows, cols, vals = g.coo(-g.incident_pair_weight())
    return sp.coo_array((-vals, (rows, cols)), shape=(g.n, g.n)).tocsr()


def ssl_loss_and_grads(
    a1: NormalizedAdjacency,
    a2: NormalizedAdjacency,
    x: np.ndarray,
    theta1: np.ndarray,
    theta2: np.ndarray,
    labels: np.ndarray,
    train_idx: np.ndarray,
    masks: tuple[np.ndarray | None, np.ndarray | None] = (None, None),
    hlr: tuple[sp.csr_array, float] | None = None,
) -> tuple[float, np.ndarray, np.ndarray, nn.GcnCache]:
    """Loss and exact parameter gradients for fixed adjacencies.

    `hlr` optionally adds lam * sum_uv w_uv ||Z_u - Z_v||^2 expressed via
    the pair Laplacian; its gradient flows through the softmax.
    """
    z, cache = nn.forward_gcn(a1, x, theta1, theta2, masks, a2=a2)
    loss = nn.loss_ce_logits(cache.logits, labels, train_idx)
    extra_dz = None
    if hlr is not None:
        lap, lam = hlr
        lz = lap @ z
        loss += lam * float((z * lz).sum())
        extra_dz = 2.0 * lam * lz
    g1, g2 = nn.backward_gcn(cache, labels, train_idx, extra_dz)
    return loss, g1, g2, cache


def _expander_for(method: str):
    return expand_mediators if method == "hypergcn" else expand_one_edge


def train_ssl(
    h: Hypergraph, x: np.ndarray, split: LabeledSplit, cfg: TrainConfig
) -> TrainReport:
    """Train one method on one split and report the evaluation error."""
    if cfg.method not in METHODS:
        raise ValueError(f"unknown method {cfg.method!r}; expected one of {METHODS}")
    if x.shape[0] != h.n:
        raise ValueError(f"feature rows {x.shape[0]} != vertex count {h.n}")
    if split.train_idx.size == 0:
        raise ValueError("empty labelled set")

    x = np.ascontiguousarray(x, dtype=np.float64)
    labels = np.asarray(split.labels, dtype=np.int64)
    n, p = x.shape
    q = int(labels.max()) + 1

    streams = nn.rng_streams(cfg.seed)
    theta1 = nn.glorot_init(p, cfg.hidden, streams.init)
    theta2 = nn.glorot_init(cfg.hidden, q, streams.init)
    state = nn.AdamState.for_params([theta1, theta2], cfg.lr, cfg.weight_decay)

    counts = size_counts(h)
    edge_counts = {"N": counts[0], "N_m": counts[1], "N_c": counts[2]}

    per_epoch = cfg.method in ("hypergcn", "one-hypergcn")
    hlr = None
    expansions = 0
    adjacency_pairs = 0
    a_fixed: NormalizedAdjacency | None = None

    if cfg.method == "hgnn":
        g = expand_clique(h, cfg.self_loops)
        a_fixed = normalize(g)
        expansions, adjacency_pairs = 1, g.pair_count
    elif cfg.method == "fast-hypergcn":
        g = expand_mediators(h, x, streams.ties, cfg.self_loops)
        a_fixed = normalize(g)
        expansions, adjacency_pairs = 1, g.pair_count
    elif cfg.method in ("mlp", "mlp-hlr"):
        a_fixed = NormalizedAdjacency.identity(n)
        if cfg.method == "mlp-hlr":
            g = expand_mediators(h, x, streams.ties, cfg.self_loops)
            hlr = (pair_laplacian(g), cfg.hlr_lambda)
            expansions, adjacency_pairs = 1, g.pair_count

    expander = _expander_for(cfg.method)

    def epoch_adjacencies(masks):
        """Adjacencies for one step; per-epoch methods re-expand per layer."""
        nonlocal expansions, adjacency_pairs
        if not per_epoch:
            return a_fixed, a_fixed
        g1 = expander(h, x @ theta1, streams.ties, cfg.self_loops)
        a1 = normalize(g1)
        hidden_repr, _, _ = nn.forward_hidden(a1, x, theta1, masks[0])
        g2 = expander(h, hidden_repr @ theta2, streams.ties, cfg.self_loops)
        a2 = normalize(g2)
        expansions += 2
        if adjacency_pairs == 0:
            adjacency_pairs = g1.pair_count
        return a1, a2

    losses: list[float] = []
    t0 = time.perf_counter()
    for _ in range(cfg.epochs):
        if cfg.dropout > 0.0:
            masks = (
                nn.dropout_mask((n, p), cfg.dropout, streams.dropout),
                nn.dropout_mask((n, cfg.hidden), cfg.dropout, streams.dropout),
            )
        else:
            masks = (None, None)
        a1, a2 = epoch_adjacencies(masks)
        loss, g1, g2, _ = ssl_loss_and_grads(
            a1, a2, x, theta1, theta2, labels, split.train_idx, masks, hlr
        )
        if not np.isfinite(loss):
            raise FloatingPointError(f"non-finite loss at epoch {len(losses)}")
        nn.adam_step([theta1, theta2], [g1, g2], state)
        losses.append(loss)
    seconds_per_epoch = (time.perf_counter() - t0) / max(1, cfg.epochs)

    a1, a2 = epoch_adjacencies((None, None))
    z, _ = nn.forward_gcn(a1, x, theta1, theta2, a2=a2)
    error = evaluate(z, split)
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
    if split.eval_idx.size == 0:
        raise ValueError("empty evaluation set")
    preds = np.argmax(z, axis=1)
    wrong = preds[split.eval_idx] != split.labels[split.eval_idx]
    return float(100.0 * np.mean(wrong))


@dataclass
class TrialsResult:
    mean_error: float
    std_error: float
    errors: list[float]
    reports: list[TrainReport] = field(default_factory=list)


def _run_trial(args) -> TrainReport:
    h, x, labels, cfg, budget, trial_seed = args
    streams = nn.rng_streams(trial_seed)
    split = balanced_split_labels(labels, budget, streams.split)
    return train_ssl(h, x, split, replace(cfg, seed=trial_seed))


def run_trials(
    h: Hypergraph,
    x: np.ndarray,
    labels: np.ndarray,
    cfg: TrainConfig,
    trials: int,
    budget: int,
    workers: int = 1,
) -> TrialsResult:
    """Repeat train/evaluate over `trials` independent class-balanced
    splits; trial t derives all its randomness from seed cfg.seed + t.

    Returns the mean and sample standard deviation of the test errors.
    Trials run in `workers` parallel processes when workers > 1; results
    are always collected in trial order.
    """
    jobs = [(h, x, labels, cfg, budget, cfg.seed + t) for t in range(trials)]
    if workers > 1:
        import concurrent.futures as cf

        with cf.ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_run_trial, jobs))
    else:
        reports = [_run_trial(job) for job in jobs]
    errors = [r.test_error for r in reports]
    mean = float(np.mean(errors))
    std = float(np.std(errors, ddof=1)) if len(errors) > 1 else 0.0
    return TrialsResult(mean_error=mean, std_error=std, errors=errors, reports=reports)
