"""Weighted-graph expansions of a hypergraph and symmetric normalization.

Three expansion rules turn each hyperedge into pairwise edges:

* one-edge: the single signal-extreme pair, weight w(e)/|e|
* mediators: the extreme pair plus its connections to every remaining
  vertex of the hyperedge, each pair weighted w(e)/(2|e|-3)
* clique: every pair inside the hyperedge, weighted 2 w(e)/(|e| (|e|-1))

Pair weights from distinct hyperedges accumulate. Every expansion then
sets self-loops (unit by default, or degree-restoring) and the result is
symmetrically normalized for use in graph convolutions.

A `WeightedGraph` is flat arrays: pair t joins u[t] < v[t] with weight
w[t]. Pairs are listed in order of first emission, where hyperedges emit
in index order and each rule emits its pairs in a fixed order within a
hyperedge; a pair's weight is the sum of its emitted weights added in
that same order. Every per-vertex sum (incident weight, degree) runs over
the interleaved (u, v), (v, u) view of the pairs in pair order, so every
result is a fixed function of the hypergraph, the signal and the draws.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Callable, Literal, Mapping

import numpy as np
import scipy.sparse as sp

from .hypergraph import Hypergraph, degrees

SelfLoopRule = Literal["unit", "degree"]

_DIFF_BUDGET = 2**22  # values per slice of extreme_pairs' difference tensor


@dataclass(frozen=True)
class WeightedGraph:
    """Accumulated symmetric weighted graph over n vertices: distinct
    pairs u[t] < v[t] of weight w[t] in first-emission order, plus
    per-vertex self-loop weights `loops`."""

    n: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    loops: np.ndarray

    @property
    def pair_count(self) -> int:
        return len(self.w)

    @property
    def pairs(self) -> Mapping[tuple[int, int], float]:
        """Read-only {(u, v): weight} view in pair order."""
        keys = zip(self.u.tolist(), self.v.tolist())
        return MappingProxyType(dict(zip(keys, self.w.tolist())))

    def coo(self, diag: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """COO triplets of the symmetric pair matrix with `diag` on its
        diagonal: (u0, v0), (v0, u0), (u1, v1), ... in pair order, then
        the n diagonal entries."""
        ids = np.arange(self.n)
        rows = np.concatenate([np.column_stack([self.u, self.v]).ravel(), ids])
        cols = np.concatenate([np.column_stack([self.v, self.u]).ravel(), ids])
        return rows, cols, np.concatenate([np.repeat(self.w, 2), diag])

    def incident_pair_weight(self) -> np.ndarray:
        """Per-vertex sum of incident pair weights (loops excluded)."""
        rows = np.column_stack([self.u, self.v]).ravel()
        return np.bincount(rows, weights=np.repeat(self.w, 2), minlength=self.n)


@dataclass(frozen=True)
class NormalizedAdjacency:
    """Symmetrically normalized adjacency D̃^{-1/2} Ã D̃^{-1/2} in CSR form."""

    n: int
    matrix: sp.csr_array

    @classmethod
    def identity(cls, n: int) -> "NormalizedAdjacency":
        """Normalized adjacency of the loops-only graph; turns the
        convolution into a plain MLP layer."""
        return cls(n=n, matrix=sp.eye_array(n, format="csr", dtype=np.float64))


def as_signal(s: np.ndarray, n: int) -> np.ndarray:
    """Coerce a per-vertex signal to a finite n x d float64 matrix."""
    arr = np.asarray(s, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] != n:
        raise ValueError(f"signal shape {arr.shape} incompatible with n={n}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("signal contains non-finite entries")
    return arr


def extreme_pair(
    h: Hypergraph,
    edge_index: int,
    signal: np.ndarray,
    rng: np.random.Generator,
) -> tuple[int, int]:
    """Pair of hyperedge vertices maximizing Euclidean signal distance.

    Ties are broken uniformly at random; exactly one draw is consumed
    from `rng` per call so streams advance deterministically. Returns
    (i, j) with i < j.
    """
    e = h.edges[edge_index]
    s = as_signal(signal, h.n)
    pts = s[list(e)]
    diff = pts[:, None, :] - pts[None, :, :]
    d2 = np.einsum("abk,abk->ab", diff, diff)
    iu, ju = np.triu_indices(len(e), k=1)
    vals = d2[iu, ju]
    tied = np.flatnonzero(vals == vals.max())
    # one uniform draw selects among tied candidates; clip guards draw == 1.0
    pick = tied[min(int(rng.random() * tied.size), tied.size - 1)]
    return e[iu[pick]], e[ju[pick]]


def extreme_pairs(
    h: Hypergraph, signal: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Extreme pair of every hyperedge, vectorized over same-size groups.

    Consumes exactly one uniform draw per hyperedge in hyperedge order,
    matching a sequence of `extreme_pair` calls draw for draw. Each group
    is processed in slices whose difference tensor holds at most
    `_DIFF_BUDGET` values, so memory does not grow with the group.
    """
    s = as_signal(signal, h.n)
    out = np.zeros((h.m, 2), dtype=np.int64)
    draws = rng.random(h.m)
    for size, idxs, members in h.size_groups:
        iu, ju = np.triu_indices(size, k=1)
        step = max(1, _DIFF_BUDGET // (size * size * max(1, s.shape[1])))
        for lo in range(0, idxs.size, step):
            ids, rows = idxs[lo : lo + step], members[lo : lo + step]
            pts = s[rows]  # (g, size, d)
            diff = pts[:, :, None, :] - pts[:, None, :, :]
            vals = np.einsum("gabk,gabk->gab", diff, diff)[:, iu, ju]
            tied = vals == vals.max(axis=1, keepdims=True)
            count = tied.sum(axis=1)
            rank = np.minimum((draws[ids] * count).astype(np.int64), count - 1)
            # position of the (rank+1)-th tied entry of each row
            pick = np.argmax(np.cumsum(tied, axis=1) > rank[:, None], axis=1)
            out[ids] = np.take_along_axis(rows, np.column_stack([iu[pick], ju[pick]]), 1)
    return out


def _accumulate(h: Hypergraph, emit: Callable, rule: SelfLoopRule) -> WeightedGraph:
    """Sum the emitted pairs of every hyperedge into a WeightedGraph.

    `emit(size, edge ids, member matrix)` returns (a, b, weight) arrays of
    shape (g, c) for one size group: the c pairs each hyperedge emits, in
    emission order. Emissions are put in hyperedge order by a stable sort
    on edge id; each distinct pair is then listed at its first emission
    and its weights summed in emission order, as sequential accumulation
    would.
    """
    if rule not in ("unit", "degree"):
        raise ValueError(f"unknown self-loop rule {rule!r}")
    parts = [(np.empty(0, dtype=np.int64),) * 3 + (np.empty(0),)]
    for size, idxs, members in h.size_groups:
        ga, gb, gw = emit(size, idxs, members)
        gw = np.broadcast_to(gw, ga.shape)
        parts.append((np.repeat(idxs, ga.shape[1]), ga.ravel(), gb.ravel(), gw.ravel()))
    eid, a, b, wt = (np.concatenate(col) for col in zip(*parts))
    order = np.argsort(eid, kind="stable")
    lo, hi, wt = np.minimum(a, b)[order], np.maximum(a, b)[order], wt[order]
    _, first, inverse = np.unique(
        lo * h.n + hi, return_index=True, return_inverse=True
    )
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    first.sort()
    g = WeightedGraph(
        n=h.n,
        u=lo[first],
        v=hi[first],
        w=np.bincount(rank[inverse], weights=wt, minlength=first.size),
        loops=np.ones(h.n, dtype=np.float64),
    )
    if rule == "degree":
        # restore each vertex degree to d_v; residual is non-negative for
        # all three rules because a hyperedge contributes at most w(e)
        # to any one of its vertices
        g = replace(g, loops=np.maximum(degrees(h) - g.incident_pair_weight(), 0.0))
    return g


def expand_one_edge(
    h: Hypergraph,
    signal: np.ndarray,
    rng: np.random.Generator,
    self_loops: SelfLoopRule = "unit",
) -> WeightedGraph:
    """Represent each hyperedge by its single extreme pair, weight w(e)/|e|."""
    ext = extreme_pairs(h, signal, rng)

    def emit(size, idxs, members):
        return ext[idxs, :1], ext[idxs, 1:], h.weights[idxs, None] / size

    return _accumulate(h, emit, self_loops)


def expand_mediators(
    h: Hypergraph,
    signal: np.ndarray,
    rng: np.random.Generator,
    self_loops: SelfLoopRule = "unit",
) -> WeightedGraph:
    """Connect each hyperedge's extreme pair and route every remaining
    vertex through both extremes, each pair weighted w(e)/(2|e|-3).

    Emits max(1, 2|e|-3) pairs per hyperedge; the per-hyperedge weight
    mass always sums to w(e). Within a hyperedge the extreme pair comes
    first, then (i, k), (j, k) for each remaining vertex k in id order.
    """
    ext = extreme_pairs(h, signal, rng)

    def emit(size, idxs, members):
        i, j = ext[idxs, :1], ext[idxs, 1:]
        others = members[(members != i) & (members != j)].reshape(idxs.size, size - 2)
        a = np.empty((idxs.size, 2 * size - 3), dtype=np.int64)
        b = np.empty_like(a)
        a[:, :1], b[:, :1] = i, j
        a[:, 1::2], b[:, 1::2] = i, others
        a[:, 2::2], b[:, 2::2] = j, others
        return a, b, h.weights[idxs, None] / (2 * size - 3)

    return _accumulate(h, emit, self_loops)


def expand_clique(
    h: Hypergraph, self_loops: SelfLoopRule = "unit"
) -> WeightedGraph:
    """Replace each hyperedge by a clique, every pair weighted
    2 w(e)/(|e| (|e|-1)). Signal-independent; pairs are emitted in
    lexicographic order within a hyperedge."""

    def emit(size, idxs, members):
        iu, ju = np.triu_indices(size, k=1)
        wt = 2.0 * h.weights[idxs, None] / (size * (size - 1))
        return members[:, iu], members[:, ju], wt

    return _accumulate(h, emit, self_loops)


def normalize(g: WeightedGraph) -> NormalizedAdjacency:
    """Symmetric normalization D̃^{-1/2} Ã D̃^{-1/2} of pair weights plus
    self-loops. No extra identity is added; the expansion already set the
    self-loops. Raises on any vertex with zero total degree."""
    rows, cols, vals = g.coo(g.loops)
    deg = np.bincount(rows, weights=vals, minlength=g.n)
    bad = np.flatnonzero(deg <= 0.0)
    if bad.size:
        raise ValueError(
            f"isolated vertex with no self-loop: {bad[0]}"
            + (f" (and {bad.size - 1} more)" if bad.size > 1 else "")
        )
    dinv = 1.0 / np.sqrt(deg)
    scaled = vals * dinv[rows] * dinv[cols]
    mat = sp.coo_array((scaled, (rows, cols)), shape=(g.n, g.n)).tocsr()
    return NormalizedAdjacency(n=g.n, matrix=mat)
