"""Densest-k-subhypergraph solvers.

The objective is the number of hyperedges fully contained in a chosen
set of k hypernodes. Two deterministic greedy heuristics (top-k by
degree, and iterative minimum-degree peeling), an exact enumeration
oracle for small instances, and a learned solver that trains a
mediator-expansion convolution to emit several candidate probability
maps under a hindsight objective. Degrees here are hyperedge counts;
hyperedge weights play no role in the combinatorial objective.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence

import numpy as np
from scipy.special import expit

from . import nn
from .expansion import NormalizedAdjacency, expand_mediators, normalize
from .hypergraph import Hypergraph
from .training import TrainConfig


@dataclass(frozen=True)
class DenseKInstance:
    hypergraph: Hypergraph
    k: int

    def __post_init__(self) -> None:
        if not 0 < self.k <= self.hypergraph.n:
            raise ValueError(f"k={self.k} outside (0, {self.hypergraph.n}]")


def density(h: Hypergraph, w: Iterable[int]) -> int:
    """Number of hyperedges fully contained in the vertex set `w`."""
    ws = set(int(v) for v in w)
    return sum(1 for e in h.edges if all(v in ws for v in e))


def max_degree(inst: DenseKInstance) -> list[int]:
    """The k hypernodes of largest degree, ties resolved by lowest id."""
    d = np.bincount(inst.hypergraph.incidence, minlength=inst.hypergraph.n)
    order = np.lexsort((np.arange(inst.hypergraph.n), -d))
    return sorted(int(v) for v in order[: inst.k])


def remove_min_degree(inst: DenseKInstance) -> list[int]:
    """Peel n-k times: drop a minimum-degree hypernode (ties by lowest
    id) together with every residual hyperedge containing it."""
    h = inst.hypergraph
    alive = np.ones(h.n, dtype=bool)
    edge_alive = [True] * h.m
    incident: list[list[int]] = [[] for _ in range(h.n)]
    for idx, e in enumerate(h.edges):
        for v in e:
            incident[v].append(idx)
    deg = np.bincount(h.incidence, minlength=h.n)

    for _ in range(h.n - inst.k):
        cands = np.flatnonzero(alive)
        victim = int(cands[np.argmin(deg[cands])])  # argmin keeps lowest id on ties
        for idx in incident[victim]:
            if edge_alive[idx]:
                edge_alive[idx] = False
                for u in h.edges[idx]:
                    deg[u] -= 1
        alive[victim] = False
    return [int(v) for v in np.flatnonzero(alive)]


def brute_force(inst: DenseKInstance) -> tuple[list[int], int]:
    """Exact optimum by enumerating every k-subset in lexicographic
    order (first optimum kept, so ties go to the smallest set).
    Refuses instances with more than 10^6 subsets."""
    h, k = inst.hypergraph, inst.k
    if comb(h.n, k) > 10**6:
        raise ValueError(f"instance too large: C({h.n},{k}) > 1e6")
    edge_masks = [sum(1 << v for v in e) for e in h.edges]
    best: tuple[int, ...] | None = None
    best_density = -1
    for combo in itertools.combinations(range(h.n), k):
        wm = 0
        for v in combo:
            wm |= 1 << v
        d = sum(1 for em in edge_masks if em & ~wm == 0)
        if d > best_density:
            best_density, best = d, combo
    assert best is not None
    return list(best), best_density


def gen_sample(
    n: int, k: int, p: float, rng: np.random.Generator
) -> tuple[Hypergraph, np.ndarray]:
    """One synthetic instance with a planted dense set.

    A uniformly random k-subset W is planted; n//2 hyperedges are drawn,
    each of size uniform in {2..10}, with probability p entirely inside
    W and otherwise entirely inside the complement. Sizes larger than
    the chosen pool are re-drawn. Returns the hypergraph and the 0/1
    membership target of W.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p={p} outside (0, 1)")
    if not (2 <= k <= n - 2):
        raise ValueError(f"k={k} leaves a pool smaller than the minimum edge size")
    planted = np.sort(rng.choice(n, size=k, replace=False))
    complement = np.setdiff1d(np.arange(n), planted)
    edges = []
    for _ in range(n // 2):
        pool = planted if rng.random() < p else complement
        while True:
            size = int(rng.integers(2, 11))
            if size <= pool.size:
                break
        edges.append(np.sort(rng.choice(pool, size=size, replace=False)))
    target = np.zeros(n, dtype=np.int64)
    target[planted] = 1
    return Hypergraph.from_edges(n, edges), target


@dataclass(frozen=True)
class ProbabilityMaps:
    """M per-vertex probability columns in [0, 1]."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = self.values
        if v.ndim != 2:
            raise ValueError(f"expected n x M array, got shape {v.shape}")
        if not (np.all(v >= 0.0) and np.all(v <= 1.0)):
            raise ValueError("probability map entries outside [0, 1]")

    @property
    def count(self) -> int:
        return self.values.shape[1]


def hindsight_bce(logits: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, int]:
    """Per-map binary cross-entropy (mean over vertices, computed stably
    from logits) and the index of the best map."""
    t = np.asarray(target, dtype=np.float64)[:, None]
    per_map = (np.logaddexp(0.0, logits) - t * logits).mean(axis=0)
    return per_map, int(np.argmin(per_map))


def vertex_features(
    h: Hypergraph, kind: str = "degree", rng: np.random.Generator | None = None, dim: int = 8
) -> np.ndarray:
    """Structure-driven input features for the learned solver.

    ``degree``: [degree / max degree, 1] per vertex. ``gaussian``: i.i.d.
    standard normal columns, useful when degrees carry no signal.
    """
    if kind == "degree":
        d = np.bincount(h.incidence, minlength=h.n).astype(np.float64)
        top = d.max() if d.size and d.max() > 0 else 1.0
        return np.column_stack([d / top, np.ones(h.n)])
    if kind == "gaussian":
        if rng is None:
            raise ValueError("gaussian features need an rng")
        return rng.standard_normal((h.n, dim))
    raise ValueError(f"unknown feature kind {kind!r}")


@dataclass
class DenseKModel:
    """Trained probability-map emitter (two-layer mediator convolution)."""

    theta1: np.ndarray
    theta2: np.ndarray
    feature_kind: str
    feature_dim: int
    self_loops: str = "unit"
    loss_trace: list[float] | None = None

    @property
    def maps(self) -> int:
        return self.theta2.shape[1]


def _sample_inputs(
    h: Hypergraph,
    feature_kind: str,
    feature_dim: int,
    feat_rng: np.random.Generator,
    tie_rng: np.random.Generator,
    self_loops,
) -> tuple[np.ndarray, NormalizedAdjacency]:
    x = vertex_features(h, feature_kind, feat_rng, feature_dim)
    a = normalize(expand_mediators(h, x, tie_rng, self_loops))
    return x, a


def train_densek(
    train_set: Sequence[tuple[Hypergraph, np.ndarray]],
    cfg: TrainConfig,
    maps: int,
    feature_kind: str = "degree",
    feature_dim: int = 8,
) -> DenseKModel:
    """Fit the probability-map model under the hindsight objective.

    Per sample the loss is the minimum binary cross-entropy over the M
    emitted maps, so maps are free to specialize. The mediator expansion
    of each sample is built once from its input features; one optimizer
    step is taken per sample per epoch, in fixed sample order.
    """
    if len(train_set) == 0:
        raise ValueError("empty training set")
    for h, target in train_set:
        if np.asarray(target).shape != (h.n,):
            raise ValueError("target labelling must assign 0/1 per vertex")

    streams = nn.rng_streams(cfg.seed)
    prepared = []
    for h, target in train_set:
        x, a = _sample_inputs(
            h, feature_kind, feature_dim, streams.init, streams.ties, cfg.self_loops
        )
        prepared.append((x, a, np.asarray(target, dtype=np.float64)))

    p = prepared[0][0].shape[1]
    theta1 = nn.glorot_init(p, cfg.hidden, streams.init)
    theta2 = nn.glorot_init(cfg.hidden, maps, streams.init)
    state = nn.AdamState.for_params([theta1, theta2], cfg.lr, cfg.weight_decay)

    loss_trace: list[float] = []
    for _ in range(cfg.epochs):
        epoch_loss = 0.0
        for x, a, target in prepared:
            n = x.shape[0]
            if cfg.dropout > 0.0:
                masks = (
                    nn.dropout_mask(x.shape, cfg.dropout, streams.dropout),
                    nn.dropout_mask((n, cfg.hidden), cfg.dropout, streams.dropout),
                )
            else:
                masks = (None, None)
            hidden, x_in, pre1 = nn.forward_hidden(a, x, theta1, masks[0])
            logits, h_in = nn.forward_logits(a, hidden, theta2, masks[1])
            per_map, best = hindsight_bce(logits, target)
            if not np.all(np.isfinite(per_map)):
                raise FloatingPointError("non-finite hindsight loss")
            probs = expit(logits)
            dlogits = np.zeros_like(logits)
            dlogits[:, best] = (probs[:, best] - target) / n
            cache = nn.GcnCache(
                a1=a, a2=a, x_in=x_in, pre1=pre1, h_in=h_in, mask2=masks[1],
                logits=logits, z=probs, theta2=theta2,
            )
            g1, g2 = nn.backward_from_dlogits(cache, dlogits)
            nn.adam_step([theta1, theta2], [g1, g2], state)
            epoch_loss += float(per_map[best])
        loss_trace.append(epoch_loss / len(prepared))

    return DenseKModel(
        theta1=theta1,
        theta2=theta2,
        feature_kind=feature_kind,
        feature_dim=feature_dim,
        self_loops=cfg.self_loops,
        loss_trace=loss_trace,
    )


def predict_maps(model: DenseKModel, h: Hypergraph, seed: int = 0) -> ProbabilityMaps:
    """Emit the model's probability maps for a hypergraph (no dropout)."""
    streams = nn.rng_streams(seed)
    x, a = _sample_inputs(
        h, model.feature_kind, model.feature_dim, streams.init, streams.ties,
        model.self_loops,
    )
    hidden, _, _ = nn.forward_hidden(a, x, model.theta1)
    logits, _ = nn.forward_logits(a, hidden, model.theta2)
    return ProbabilityMaps(values=expit(logits))


def decode_topk(maps: ProbabilityMaps, inst: DenseKInstance) -> list[int]:
    """Top-k vertices of each map (probability desc, ties by lowest id);
    of the resulting candidate sets, the one with maximum density."""
    n = inst.hypergraph.n
    if maps.values.shape[0] != n:
        raise ValueError(f"maps cover {maps.values.shape[0]} vertices, instance has {n}")
    best_set: list[int] | None = None
    best_density = -1
    for col in range(maps.count):
        order = np.lexsort((np.arange(n), -maps.values[:, col]))
        cand = sorted(int(v) for v in order[: inst.k])
        d = density(inst.hypergraph, cand)
        if d > best_density:
            best_density, best_set = d, cand
    assert best_set is not None
    return best_set


def solve_learned(model: DenseKModel, inst: DenseKInstance, seed: int = 0) -> list[int]:
    return decode_topk(predict_maps(model, inst.hypergraph, seed), inst)
