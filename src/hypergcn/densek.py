"""Densest-k-subhypergraph solvers.

The objective is the number of hyperedges fully contained in a chosen
set of k hypernodes. Two deterministic greedy heuristics (top-k by
degree, and iterative minimum-degree peeling), an exact enumeration
oracle for small instances, and a learned solver: the semi-supervised
trainer's loop (`training.fit`) under a hindsight loss, emitting several
candidate probability maps (`nn.forward` over each sample's `nn.Graph`).
Degrees here are hyperedge counts; hyperedge weights play no role in the
combinatorial objective.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from math import comb
from typing import Iterable, Sequence

import numpy as np
from scipy.special import expit

from . import nn, training
from .expansion import expand_mediators, normalize  # bound only for bench/selftest.py
from .hypergraph import Hypergraph

METHODS = ("hypergcn", "fast-hypergcn")


@dataclass(frozen=True)
class DenseKInstance:
    hypergraph: Hypergraph
    k: int

    def __post_init__(self) -> None:
        if not 0 < self.k <= self.hypergraph.n:
            raise ValueError(f"k={self.k} outside (0, {self.hypergraph.n}]")


def density(h: Hypergraph, w: Iterable[int]) -> int:
    """Number of hyperedges fully contained in the vertex set `w`."""
    inside = np.isin(h.indices, np.fromiter(w, dtype=np.int64))
    # every hyperedge has at least two ids, so no reduceat segment is empty
    return int(np.logical_and.reduceat(inside, h.indptr[:-1]).sum())


def max_degree(inst: DenseKInstance) -> list[int]:
    """The k hypernodes of largest degree, ties resolved by lowest id."""
    d = np.bincount(inst.hypergraph.indices, minlength=inst.hypergraph.n)
    order = np.lexsort((np.arange(inst.hypergraph.n), -d))
    return sorted(int(v) for v in order[: inst.k])


def remove_min_degree(inst: DenseKInstance) -> list[int]:
    """Peel n-k times: drop a minimum-degree hypernode (ties by lowest
    id) together with every residual hyperedge containing it."""
    h = inst.hypergraph
    alive = np.ones(h.n, dtype=bool)
    edge_alive = np.ones(h.m, dtype=bool)
    # hyperedges of vertex v, ascending: incident[start[v]:start[v + 1]]
    hm = h.incidence[1]
    incident, start = hm.indices, hm.indptr.tolist()
    deg = np.diff(hm.indptr)

    for _ in range(h.n - inst.k):
        cands = np.flatnonzero(alive)
        victim = int(cands[np.argmin(deg[cands])])  # argmin keeps lowest id on ties
        dead = incident[start[victim] : start[victim + 1]]
        for idx in dead[edge_alive[dead]].tolist():
            deg[h.indices[h.indptr[idx] : h.indptr[idx + 1]]] -= 1
        edge_alive[dead] = False
        alive[victim] = False
    return [int(v) for v in np.flatnonzero(alive)]


def brute_force(inst: DenseKInstance) -> tuple[list[int], int]:
    """Exact optimum by enumerating every k-subset in lexicographic
    order (first optimum kept, so ties go to the smallest set).
    Refuses instances with more than 10^6 subsets."""
    h, k = inst.hypergraph, inst.k
    if comb(h.n, k) > 10**6:
        raise ValueError(f"instance too large: C({h.n},{k}) > 1e6")
    ptr, ids = h.indptr.tolist(), h.indices.tolist()
    edge_masks = [sum(1 << v for v in ids[a:b]) for a, b in zip(ptr, ptr[1:])]
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
    """Per-map binary cross-entropy, softplus(l) - t l averaged over the
    vertices, and the index of the best map. `target` is the 0/1
    labelling as a vector or an n x 1 column.

    softplus(l) = max(l, 0) + log1p(exp(-|l|)) is computed in place in one
    n x M array: it never overflows, and numpy runs these ufuncs in its
    vectorized loops, where `np.logaddexp(0, l)` runs a scalar one at
    about 3x the cost. The two differ by at most 2 ulp per entry."""
    t = np.reshape(target, (-1, 1))
    loss = np.abs(logits)
    np.negative(loss, out=loss)
    np.exp(loss, out=loss)
    np.log1p(loss, out=loss)
    loss += np.maximum(logits, 0.0)
    loss -= t * logits
    per_map = loss.sum(axis=0) / logits.shape[0]
    return per_map, int(np.argmin(per_map))


def hindsight_loss(logits: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Loss function for `nn.step`: the smallest per-map binary
    cross-entropy; only that best map receives gradient. `target` is the
    0/1 labelling as an n x 1 float64 column."""
    per_map, best = hindsight_bce(logits, target)
    dlogits, col = np.zeros_like(logits), slice(best, best + 1)
    dlogits[:, col] = (expit(logits[:, col]) - target) / logits.shape[0]
    return float(per_map[best]), dlogits


def vertex_features(h: Hypergraph) -> np.ndarray:
    """Input features of the learned solver, from structure alone:
    [degree / max degree, 1] per vertex. They draw no random numbers."""
    d = np.bincount(h.indices, minlength=h.n).astype(np.float64)
    top = d.max() if d.size and d.max() > 0 else 1.0
    return np.column_stack([d / top, np.ones(h.n)])


@dataclass
class DenseKModel:
    """Trained probability-map emitter (two-layer mediator convolution)."""

    theta1: np.ndarray
    theta2: np.ndarray
    method: str
    loss_trace: list[float] | None = None


def _sample_inputs(
    h: Hypergraph, method: str, tie_rng: np.random.Generator
) -> tuple[np.ndarray, nn.Graph]:
    """Input features of one hypergraph and the method's graph on them."""
    if method not in METHODS:
        raise ValueError(f"unknown densek method {method!r}; expected one of {METHODS}")
    x = vertex_features(h)
    return x, training.method_graph(method, h, x, tie_rng)


def train_densek(
    train_set: Sequence[tuple[Hypergraph, np.ndarray]],
    cfg: training.TrainConfig,
    maps: int,
) -> DenseKModel:
    """Fit the probability-map model under the hindsight objective.

    Per sample the loss is the minimum binary cross-entropy over the M
    emitted maps, so maps are free to specialize. `cfg.method` is one of
    `METHODS`, each sample's graph is `training.method_graph`'s; any other
    method raises ValueError, as does a target that is not one 0 or 1 per
    vertex, naming its sample.
    `training.fit` takes one step per sample per epoch, in sample order.
    """
    if len(train_set) == 0:
        raise ValueError("empty training set")
    if maps < 1:
        raise ValueError(f"maps {maps} < 1")
    streams = nn.rng_streams(cfg.seed)
    prepared = []
    for idx, (h, target) in enumerate(train_set):
        t = np.asarray(target)
        if t.shape != (h.n,) or not np.all((t == 0) | (t == 1)):
            raise ValueError(f"sample {idx}: target labelling must assign 0/1 per vertex")
        x, graph = _sample_inputs(h, cfg.method, streams.ties)
        column = t.astype(np.float64).reshape(-1, 1)
        prepared.append((x, graph, partial(hindsight_loss, target=column)))
    theta, loss_trace = training.fit(prepared, maps, cfg, streams)
    return DenseKModel(theta1=theta.theta1, theta2=theta.theta2, method=cfg.method,
                       loss_trace=loss_trace)


def predict_maps(model: DenseKModel, h: Hypergraph, seed: int = 0) -> ProbabilityMaps:
    """Emit the model's probability maps for a hypergraph (no dropout)."""
    streams = nn.rng_streams(seed)
    x, graph = _sample_inputs(h, model.method, streams.ties)
    logits, _ = nn.forward(graph, x, model.theta1, model.theta2)
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
