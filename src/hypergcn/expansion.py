"""Weighted-graph expansions of a hypergraph and symmetric normalization.

Three expansion rules turn each hyperedge into pairwise edges:

* one-edge: the single signal-extreme pair, weight w(e)/|e|
* mediators: the extreme pair plus its connections to every remaining
  vertex of the hyperedge, each pair weighted w(e)/(2|e|-3)
* clique: every pair inside the hyperedge, weighted 2 w(e)/(|e| (|e|-1))

Pair weights from distinct hyperedges accumulate. Normalization adds a
unit self-loop to every vertex, as the GCN renormalized adjacency does,
and scales the result symmetrically for use in graph convolutions.

A `WeightedGraph` is flat arrays: pair t joins u[t] < v[t] with weight
w[t], and pairs are listed in key order (u*n + v ascending), which is the
row order of the CSR matrices built from them. Each rule lists its
emissions as flat arrays built from the hypergraph's CSR arrays, with
hyperedges in index order; a hyperedge never emits the same pair twice,
so the order of its own emissions is immaterial, and a pair's weight is
the sum of its hyperedges' weights in hyperedge order. A vertex's
incident pair weight is summed along its CSR row (lower neighbours
ascending, then upper neighbours ascending) and its degree adds the unit
loop last, so both depend on the graph alone, and every result is a
fixed function of the hypergraph, the signal and the draws.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .hypergraph import Hypergraph

# extreme_pairs computes distances in tiles of at most _TILE values (two
# gathers of signal rows, differenced in place, and their distances):
# 1 MB, so a tile stays in a 4 MiB L2 cache instead of streaming from DRAM
_TILE = 2**17
# ... and picks among ties once per block of at most _BLOCK distances, so
# the pick's fixed per-call cost is spread over many small tiles
_BLOCK = 2**20


@dataclass(frozen=True)
class WeightedGraph:
    """Accumulated symmetric weighted graph over n vertices: distinct
    pairs u[t] < v[t] of weight w[t], strictly increasing in u*n + v.
    Self-loops are not stored; `normalize` gives every vertex a unit one."""

    n: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    @property
    def pair_count(self) -> int:
        return len(self.w)

    def coo(self, diag: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """COO triplets of the symmetric pair matrix with `diag` on its
        diagonal: the mirrored (v, u) entries, the n diagonal entries, then
        the (u, v) entries, each in pair order. Grouped stably by row, as
        the CSR conversion and `np.bincount` do, every row lists its columns
        ascending, so the CSR needs no index sort."""
        ids = np.arange(self.n)
        rows = np.concatenate([self.v, ids, self.u])
        cols = np.concatenate([self.u, ids, self.v])
        return rows, cols, np.concatenate([self.w, diag, self.w])

    def incident_pair_weight(self) -> np.ndarray:
        """Per-vertex sum of incident pair weights (loops excluded), by CSR row."""
        return np.bincount(np.concatenate([self.v, self.u]),
                           weights=np.concatenate([self.w, self.w]), minlength=self.n)


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
    """Coerce a per-vertex signal to a finite C-contiguous n x d float64 matrix."""
    arr = np.ascontiguousarray(s, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] != n:
        raise ValueError(f"signal shape {arr.shape} incompatible with n={n}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("signal contains non-finite entries")
    return arr


@functools.cache
def _triu_pairs(size: int) -> tuple[np.ndarray, np.ndarray]:
    """`np.triu_indices(size, k=1)`, read-only because every call for
    one size shares them; the cache keeps size·(size-1) int64s per size."""
    iu, ju = np.triu_indices(size, k=1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def extreme_pairs(
    h: Hypergraph, signal: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Pair (i, j), i < j, of each hyperedge's vertices maximizing the
    Euclidean signal distance, vectorized over same-size groups.

    Ties (exactly equal distances) are broken uniformly at random with
    one uniform draw per hyperedge, consumed in hyperedge order: of the k
    tied pairs of a hyperedge, in lexicographic order, the
    min(int(draw * k), k - 1)-th is picked.

    Squared distances are computed for the i < j pairs only. A size group
    is split into blocks of at most `_BLOCK` distances (or one hyperedge's
    s(s-1)/2, if more); the tie pick runs once per block. A block's
    distances are filled tile by tile, each tile a run of its hyperedges
    and pairs holding at most `_TILE` values of temporaries. Memory thus
    does not grow with the group; one hyperedge of size s adds its s(s-1)/2
    pair indices, distances and tie counts.
    """
    s = as_signal(signal, h.n)
    out = np.zeros((h.m, 2), dtype=np.int64)
    draws = rng.random(h.m)
    per_pair = 2 * s.shape[1] + 1
    for size, idxs, members in h.size_groups:
        iu, ju = _triu_pairs(size)
        block = max(1, _BLOCK // iu.size)  # hyperedges per block
        tile = max(1, _TILE // (iu.size * per_pair))  # hyperedges per tile
        chunk = max(1, _TILE // (tile * per_pair))  # pairs per tile
        for lo in range(0, idxs.size, block):
            ids, rows = idxs[lo : lo + block], members[lo : lo + block]
            vals = np.empty((ids.size, iu.size))
            for t in range(0, ids.size, tile):
                r = rows[t : t + tile]
                for c in range(0, iu.size, chunk):
                    diff = np.take(s, r[:, iu[c : c + chunk]], axis=0)  # (g, p, d)
                    diff -= np.take(s, r[:, ju[c : c + chunk]], axis=0)
                    vals[t : t + tile, c : c + chunk] = np.einsum("gpk,gpk->gp", diff, diff)
            tied = vals == vals.max(axis=1, keepdims=True)
            count = tied.sum(axis=1)
            rank = np.minimum((draws[ids] * count).astype(np.int64), count - 1)
            # position of the (rank+1)-th tied entry of each row
            pick = np.argmax(np.cumsum(tied, axis=1) > rank[:, None], axis=1)
            out[ids] = np.take_along_axis(rows, np.column_stack([iu[pick], ju[pick]]), 1)
    return out


def _accumulate(h: Hypergraph, a: np.ndarray, b: np.ndarray, wt: np.ndarray) -> WeightedGraph:
    """Sum emitted pairs (a[t], b[t]) of weight wt[t], listed in hyperedge
    order, into a WeightedGraph: the distinct pairs in key order, each
    pair's weights summed in emission order, as sequential accumulation
    would."""
    keys, inverse = np.unique(np.minimum(a, b) * h.n + np.maximum(a, b), return_inverse=True)
    u, v = np.divmod(keys, h.n)
    return WeightedGraph(n=h.n, u=u, v=v, w=np.bincount(inverse, weights=wt, minlength=keys.size))


def expand_one_edge(h: Hypergraph, signal: np.ndarray, rng: np.random.Generator) -> WeightedGraph:
    """Represent each hyperedge by its single extreme pair, weight w(e)/|e|."""
    ext = extreme_pairs(h, signal, rng)
    return _accumulate(h, ext[:, 0], ext[:, 1], h.weights / h.edge_sizes())


def expand_mediators(h: Hypergraph, signal: np.ndarray, rng: np.random.Generator) -> WeightedGraph:
    """Connect each hyperedge's extreme pair and route every remaining
    vertex through both extremes, each pair weighted w(e)/(2|e|-3).

    Emits max(1, 2|e|-3) distinct pairs per hyperedge; the per-hyperedge
    weight mass always sums to w(e). Member k of hyperedge e with extreme
    pair (i, j) emits (i, k) unless k = i, and (j, k) unless k is i or j,
    so the extreme pair comes once, from k = j.
    """
    ext = extreme_pairs(h, signal, rng)
    sizes = h.edge_sizes()
    # each member's extreme pair (np.take: a [] row gather is much slower)
    ij = np.take(ext, np.repeat(np.arange(h.m), sizes), axis=0)
    # slot 2t is member t's (i, k), slot 2t + 1 its (j, k); both need k != i
    keep = h.indices[:, None] != ij
    keep[:, 1] &= keep[:, 0]
    slot = np.flatnonzero(keep)
    per = 2 * sizes - 3
    return _accumulate(h, ij.ravel()[slot], h.indices[slot >> 1],
                       np.repeat(h.weights / per, per))


def expand_clique(h: Hypergraph) -> WeightedGraph:
    """Replace each hyperedge by a clique, every pair weighted
    2 w(e)/(|e| (|e|-1)). Signal-independent."""
    sizes = h.edge_sizes()
    # member q (a flat position) pairs with the later[q] members after it
    later = np.repeat(h.indptr[1:], sizes) - np.arange(h.indices.size) - 1
    first = np.repeat(np.arange(h.indices.size), later)
    second = first + 1 + np.arange(first.size) - (np.cumsum(later) - later)[first]
    wt = 2.0 * h.weights / (sizes * (sizes - 1))
    return _accumulate(h, h.indices[first], h.indices[second],
                       np.repeat(wt, sizes * (sizes - 1) // 2))


def normalize(g: WeightedGraph) -> NormalizedAdjacency:
    """Symmetric normalization D̃^{-1/2} Ã D̃^{-1/2}, where Ã is the pair
    weights plus a unit self-loop on every vertex. Raises on any vertex
    whose degree (incident pair weight plus 1) is not positive, which only
    negative pair weights can cause."""
    rows, cols, vals = g.coo(np.ones(g.n))
    deg = g.incident_pair_weight() + 1.0
    bad = np.flatnonzero(deg <= 0.0)
    if bad.size:
        raise ValueError(
            f"vertex with non-positive degree: {bad[0]}"
            + (f" (and {bad.size - 1} more)" if bad.size > 1 else "")
        )
    dinv = 1.0 / np.sqrt(deg)
    # one product of the two scalings, so A[u, v] and A[v, u] round alike
    scaled = vals * (dinv[rows] * dinv[cols])
    mat = sp.coo_array((scaled, (rows, cols)), shape=(g.n, g.n)).tocsr()
    return NormalizedAdjacency(n=g.n, matrix=mat)
