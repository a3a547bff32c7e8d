"""Weighted-graph expansions of a hypergraph and symmetric normalization.

Three expansion rules turn each hyperedge into pairwise edges:

* one-edge: the single signal-extreme pair, weight w(e)/|e|
* mediators: the extreme pair plus its connections to every remaining
  vertex of the hyperedge, each pair weighted w(e)/(2|e|-3)
* clique: every pair inside the hyperedge, weighted 2 w(e)/(|e| (|e|-1))

Pair weights from distinct hyperedges accumulate. Normalization adds a
unit self-loop to every vertex, as the GCN renormalized adjacency does,
and scales the result symmetrically for use in graph convolutions.

`extreme_pairs` finds the signal-extreme pairs of all hyperedges at
once, over `Hypergraph.clique_pairs`: the cached flat list of every
hyperedge's pairs, in hyperedge order, which `expand_clique` emits too.
Hyperedges of every size share its blocks and tiles, so the search's
fixed costs are paid per block, not per hyperedge size.

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

The clique and mediator graphs are sums of one small structured matrix
per hyperedge, so `clique_adjacency` and `mediator_adjacency` also build
them factored: the hypergraph's incidence matrices, one coefficient per
hyperedge, the extreme pairs for mediators and the degrees, which take
O(N) to find. `nn.spmm` multiplies through these factors, and the CSR is
built only if `matrix` is read. Which method convolves with which form,
and why, is `training.method_graph`'s to say.
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


@dataclass(frozen=True, eq=False)
class IncidenceFactors:
    """The pair weights W = Σ_e c_e B_e of a clique or mediator expansion
    of `h`, where B_e is the 0/1 pattern of hyperedge e's pairs: its
    clique when `ext` is None, else its mediator graph around extreme
    pair ext[e]. `coef` holds c_e and `dinv` D̃^{-1/2}, the degrees of
    W plus a unit loop per vertex; weights are positive, so no degree is
    below 1."""

    h: Hypergraph
    coef: np.ndarray
    dinv: np.ndarray
    ext: np.ndarray | None = None

    @functools.cached_property
    def _loop(self) -> np.ndarray:
        """Clique: the unit loop less the self term Σ_{e∋v} c_e of H c Hᵀ."""
        return 1.0 - self.h.incidence[1] @ self.coef

    @functools.cached_property
    def _select(self) -> sp.csc_array:
        """Mediators: the n x 2m selector of each hyperedge's i (column
        2e) and j (column 2e + 1); one entry per column, so no sort."""
        m = self.h.m
        return sp.csc_array((np.ones(2 * m), self.ext.ravel(), np.arange(2 * m + 1)),
                            shape=(self.h.n, 2 * m))

    def product(self, x: np.ndarray) -> np.ndarray:
        """A x = D̃^{-1/2} (W + I) D̃^{-1/2} x for an n x k `x`, through
        the incidence matrices: with y = D̃^{-1/2} x and S_e the sum of y over
        e's members, a clique member k receives c_e (S_e - y_k); a mediator
        member receives c_e (y_i + y_j), except i, which receives
        c_e (S_e - y_i), and j, which receives c_e (S_e - y_j)."""
        ht, hm = self.h.incidence
        c = self.coef[:, None]
        y = self.dinv[:, None] * x
        s = ht @ y
        if self.ext is None:
            s *= c
            out = hm @ s
            y *= self._loop[:, None]
        else:
            yij = np.take(y, self.ext, axis=0)  # (m, 2, k): y_i, y_j
            p = yij[:, 0] + yij[:, 1]
            # i's and j's corrections to the c_e (y_i + y_j) every member gets
            s -= p
            q = np.subtract(s[:, None], yij, out=yij)
            p *= c
            q *= c[:, None]
            out = hm @ p
            out += self._select @ q.reshape(-1, q.shape[2])
        out += y
        out *= self.dinv[:, None]
        return out

    def pairs(self) -> WeightedGraph:
        """The expansion these factors stand for."""
        return expand_clique(self.h) if self.ext is None else _mediator_graph(self.h, self.ext)


@dataclass(frozen=True, eq=False)
class NormalizedAdjacency:
    """Symmetrically normalized adjacency D̃^{-1/2} Ã D̃^{-1/2}: a CSR
    (`csr`), or factored through the incidence matrix (`factors`), in
    which case `matrix` builds the CSR from the expansion on first read."""

    n: int
    csr: sp.csr_array | None = None
    factors: IncidenceFactors | None = None

    @functools.cached_property
    def matrix(self) -> sp.csr_array:
        return self.csr if self.factors is None else normalize(self.factors.pairs()).matrix

    @property
    def pair_count(self) -> int:
        """Distinct vertex pairs joined: the CSR's off-diagonal entries,
        halved, or the pairs of the expansion the factors stand for."""
        return ((self.csr.nnz - self.n) // 2 if self.factors is None
                else self.factors.pairs().pair_count)

    @classmethod
    def identity(cls, n: int) -> "NormalizedAdjacency":
        """Normalized adjacency of the loops-only graph; turns the
        convolution into a plain MLP layer."""
        return cls(n=n, csr=sp.eye_array(n, format="csr", dtype=np.float64))


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


def extreme_pairs(
    h: Hypergraph, signal: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Pair (i, j), i < j, of each hyperedge's vertices maximizing the
    Euclidean signal distance, vectorized over `Hypergraph.clique_pairs`.

    Ties (exactly equal distances) are broken uniformly at random with
    one uniform draw per hyperedge, consumed in hyperedge order: of the k
    tied pairs of a hyperedge, in lexicographic order, the
    min(int(draw * k), k - 1)-th is picked. A unique maximum is the
    0-th of 1, so one pick serves both.

    Squared distances are computed for the i < j pairs only. The search
    walks blocks of whole hyperedges, at most `_BLOCK` pairs each (or one
    hyperedge's s(s-1)/2, if more), and picks once per block: it takes
    each hyperedge's largest distance (`np.maximum.reduceat` over its run
    of pairs), lists the positions of the pairs equal to it, and takes
    the ranked one of each hyperedge's tied positions. A block's
    distances are filled in 1-D tiles of pairs that hold at most `_TILE`
    values of temporaries, so memory does not grow with the signal's
    width; a block adds its distances, its hyperedges' maxima repeated
    per pair, and the tied positions.
    """
    s = as_signal(signal, h.n)
    out = np.empty((h.m, 2), dtype=np.int64)
    draws = rng.random(h.m)
    ptr, a, b = h.clique_pairs
    count = np.diff(ptr)
    tile = max(1, _TILE // (2 * s.shape[1] + 1))  # pairs per tile
    lo = 0
    while lo < h.m:
        # hyperedges lo..hi-1 hold pairs p0..p1-1
        hi = max(lo + 1, int(np.searchsorted(ptr, ptr[lo] + _BLOCK, "right")) - 1)
        p0, p1 = ptr[lo], ptr[hi]
        vals = np.empty(p1 - p0)
        for t in range(p0, p1, tile):
            u = min(t + tile, p1)
            diff = np.take(s, a[t:u], axis=0)  # (pairs, d)
            diff -= np.take(s, b[t:u], axis=0)
            np.einsum("pk,pk->p", diff, diff, out=vals[t - p0 : u - p0])
        starts = ptr[lo:hi] - p0
        top = np.repeat(np.maximum.reduceat(vals, starts), count[lo:hi])
        tied = np.flatnonzero(vals == top)
        first = np.searchsorted(tied, starts)  # each hyperedge's first tied pair
        k = np.diff(first, append=tied.size)
        rank = np.minimum((draws[lo:hi] * k).astype(np.int64), k - 1)
        pick = p0 + tied[first + rank]
        out[lo:hi, 0], out[lo:hi, 1] = a[pick], b[pick]
        lo = hi
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
    weight mass always sums to w(e).
    """
    return _mediator_graph(h, extreme_pairs(h, signal, rng))


def _mediator_graph(h: Hypergraph, ext: np.ndarray) -> WeightedGraph:
    """The mediator expansion around extreme pairs `ext`. Member k of
    hyperedge e with extreme pair (i, j) emits (i, k) unless k = i, and
    (j, k) unless k is i or j, so the extreme pair comes once, from k = j."""
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
    ptr, a, b = h.clique_pairs
    wt = 2.0 * h.weights / (sizes * (sizes - 1))
    return _accumulate(h, a, b, np.repeat(wt, np.diff(ptr)))


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
    return NormalizedAdjacency(n=g.n, csr=mat)


def mediator_adjacency(h: Hypergraph, signal: np.ndarray,
                       rng: np.random.Generator) -> NormalizedAdjacency:
    """`normalize(expand_mediators(h, signal, rng))`, factored: the same
    extreme pairs and draws, c_e = w(e)/(2|e|-3), and a vertex's incident
    pair weight is 2c_e over the hyperedges it is a non-extreme member
    of and (|e|-1)c_e over those it is extreme in."""
    ext = extreme_pairs(h, signal, rng)
    sizes = h.edge_sizes()
    coef = h.weights / (2 * sizes - 3)
    incident = h.incidence[1] @ (2.0 * coef) + np.bincount(
        ext.ravel(), weights=np.repeat((sizes - 3) * coef, 2), minlength=h.n)
    return NormalizedAdjacency(h.n, factors=IncidenceFactors(
        h, coef, 1.0 / np.sqrt(incident + 1.0), ext))


def clique_adjacency(h: Hypergraph) -> NormalizedAdjacency:
    """`normalize(expand_clique(h))`, factored: c_e = 2w(e)/(|e|(|e|-1)),
    and a vertex's incident pair weight is (|e|-1)c_e over its hyperedges."""
    sizes = h.edge_sizes()
    coef = 2.0 * h.weights / (sizes * (sizes - 1))
    incident = h.incidence[1] @ ((sizes - 1) * coef)
    return NormalizedAdjacency(h.n, factors=IncidenceFactors(
        h, coef, 1.0 / np.sqrt(incident + 1.0)))
