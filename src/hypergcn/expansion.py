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
fixed costs are paid per block, not per hyperedge size. A large search
over a signal at least 8 wide first screens each block in float32: the
signal scaled by the power of two that puts max |s| in [1/2, 1), half
the bytes per row. It keeps the pairs within a slack of their
hyperedge's screened maximum, a slack proven to keep every pair at the
float64 maximum (`_screen` derives it), and the block's one float64 tie
pick then runs over those alone, so the picks are the same, draw for
draw. One rule, `_near_max`, lists both the screen's candidates and the
pick's ties. Small or narrow searches, and signals whose max |s| lies
outside [2^-200, 2^200], are searched in float64 alone. At width 2 the
float64 distances are summed by one BLAS product with a ones vector, not
by numpy's per-row loop, with the same bits (`_distances`).

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

A normalized adjacency (`Adjacency`) has two forms, each with its `n`,
CSR `matrix` and `product(x)`, which `nn.spmm` calls: the CSR
`NormalizedAdjacency` that `normalize` builds, and the `IncidenceFactors`
of a clique or mediator graph (`*_adjacency`), one coefficient per
hyperedge (and its extreme pair, for mediators). Those emit their pairs
(`expand_*`), count them (`pair_count`) or multiply through the incidence
matrices, and build the CSR only if `matrix` is read. Every CSR product
here calls scipy's compiled kernel directly (`_csr_matmul`); the CSC
mediator selector (`_select`) and `training.hlr_ce`'s Laplacian product
stay on `@`. Which method convolves with which form, and why, is
`training.method_graph`'s to say.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .hypergraph import Hypergraph

try:  # scipy's compiled CSR product: private API, so `_csr_matmul` works without it
    from scipy.sparse._sparsetools import csr_matvecs as _matvecs
except ImportError:
    _matvecs = None
_F64 = np.dtype(np.float64)

# extreme_pairs computes distances in tiles of at most _TILE values (two
# gathers of signal rows, differenced in place, and their distances):
# 1 MB in float64 (0.5 MB in the float32 screen), so a tile stays in a
# 4 MiB L2 cache instead of streaming from DRAM
_TILE = 2**17
# ... and picks among ties once per block of at most _BLOCK distances, so
# the pick's fixed per-call cost is spread over many small tiles
_BLOCK = 2**20
# ... and screens a search in float32 first (`_screen`) only if it has at
# least _SCREEN pairs over a signal at least _SCREEN_WIDTH wide. Timed in
# one process on 2 vCPUs, screen forced on against off, over hypergraphs
# of hyperedge size 3, 5 or 20 and normal signals, the screened search
# took 0.29-1.00 of the float64 search's time at widths 8-64 from 2^13
# pairs on (75 cases), but 0.31-1.36 at 2^12 pairs, and at widths 2-6
# 0.72-1.44 (median 0.99) at every count from 2^13 to 2^17 pairs
_SCREEN = 2**13
_SCREEN_WIDTH = 8


def _csr_matmul(a: sp.csr_array, x: np.ndarray) -> np.ndarray:
    """`a @ x` for a CSR `a` and a dense `x`, bit for bit: scipy's own
    compiled kernel `csr_matvecs`, with one vector for a 1-D `x`, into a
    zeroed result with `x` made C-contiguous. For one column it adds the
    same products in the same order as scipy's `csr_matvec`, which `@`
    runs there, so one kernel serves every width. Called directly because
    scipy's Python dispatch costs 4.6-5.6 µs per call: a DkSH training
    step makes three CSR products on n ≈ 200, and a `densek-planted` op
    15,000. Anything else (no kernel to import, a non-float64 operand, a
    shape mismatch, another format) goes through `a @ x`, so a bad
    operand fails there."""
    shape, k = a.shape, x.shape[1:]
    if (_matvecs is None or type(x) is not np.ndarray or x.dtype != _F64 or len(k) > 1
            or a.format != "csr" or a.data.dtype != _F64 or x.shape[0] != shape[1]):
        return a @ x
    out = np.zeros(shape[:1] + k)
    _matvecs(*shape, k[0] if k else 1, a.indptr, a.indices, a.data, x.ravel(), out.ravel())
    return out


@dataclass(frozen=True, eq=False)
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
    """The factored normalized adjacency D̃^{-1/2} (W + I) D̃^{-1/2} of a
    clique or mediator expansion of `h`, W = Σ_e c_e B_e, where B_e is the
    0/1 pattern of hyperedge e's pairs: its clique when `ext` is None,
    else its mediator graph around extreme pair ext[e]; `coef` holds c_e.
    It multiplies through the incidence matrices; its CSR `matrix` is
    built from its pairs on first read."""

    h: Hypergraph
    coef: np.ndarray
    ext: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.h.n

    @functools.cached_property
    def matrix(self) -> sp.csr_array:
        return normalize(self.pairs()).matrix

    @functools.cached_property
    def dinv(self) -> np.ndarray:
        """D̃^{-1/2}, D̃ the degrees of W plus a unit loop (so >= 1). A vertex's
        incident pair weight is (|e|-1)c_e over its cliques; for mediators,
        2c_e where it is not extreme and (|e|-1)c_e where it is."""
        sizes, hm = self.h.edge_sizes(), self.h.incidence[1]
        if self.ext is None:
            incident = _csr_matmul(hm, (sizes - 1) * self.coef)
        else:
            incident = _csr_matmul(hm, 2.0 * self.coef) + np.bincount(
                self.ext.ravel(), weights=np.repeat((sizes - 3) * self.coef, 2),
                minlength=self.h.n)
        return 1.0 / np.sqrt(incident + 1.0)

    @functools.cached_property
    def _loop(self) -> np.ndarray:
        """Clique: the unit loop less the self term Σ_{e∋v} c_e of H c Hᵀ."""
        return 1.0 - _csr_matmul(self.h.incidence[1], self.coef)

    @functools.cached_property
    def _select(self) -> sp.csc_array:
        """Mediators: the n x 2m selector of each hyperedge's i (column
        2e) and j (column 2e + 1); one entry per column, so no sort."""
        m = self.h.m
        return sp.csc_array((np.ones(2 * m), self.ext.ravel(), np.arange(2 * m + 1)),
                            shape=(self.h.n, 2 * m))

    def product(self, x: np.ndarray) -> np.ndarray:
        """A x = D̃^{-1/2} (W + I) D̃^{-1/2} x for an n x k `x` (or a
        length-n one, as a column, in its own shape), through the
        incidence matrices: with y = D̃^{-1/2} x and S_e the sum of y over
        e's members, a clique member k receives c_e (S_e - y_k); a mediator
        member receives c_e (y_i + y_j), except i, which receives
        c_e (S_e - y_i), and j, which receives c_e (S_e - y_j). The two
        incidence products run scipy's CSR kernel directly (`_csr_matmul`)."""
        ht, hm = self.h.incidence
        c = self.coef[:, None]
        y = self.dinv[:, None] * x.reshape(self.n, -1)
        s = _csr_matmul(ht, y)
        if self.ext is None:
            s *= c
            out = _csr_matmul(hm, s)
            y *= self._loop[:, None]
        else:
            yij = np.take(y, self.ext, axis=0)  # (m, 2, k): y_i, y_j
            p = yij[:, 0] + yij[:, 1]
            # i's and j's corrections to the c_e (y_i + y_j) every member gets
            s -= p
            q = np.subtract(s[:, None], yij, out=yij)
            p *= c
            q *= c[:, None]
            out = _csr_matmul(hm, p)
            out += self._select @ q.reshape(-1, q.shape[2])
        out += y
        out *= self.dinv[:, None]
        return out.reshape(x.shape)

    def _emitted(self) -> tuple[np.ndarray, np.ndarray]:
        """(a, b): every pair each hyperedge emits, in hyperedge order; e
        emits |e|(|e|-1)/2 as a clique and 2|e|-3 as mediators. A clique
        emits `Hypergraph.clique_pairs`. Around extreme pair (i, j), member
        k emits (i, k) unless k = i, and (j, k) unless k is i or j, so the
        extreme pair comes once, from k = j."""
        h = self.h
        if self.ext is None:
            return h.clique_pairs[1:]
        # each member's extreme pair (np.take: a [] row gather is much slower)
        ij = np.take(self.ext, np.repeat(np.arange(h.m), h.edge_sizes()), axis=0)
        # slot 2t is member t's (i, k), slot 2t + 1 its (j, k); both need k != i
        keep = h.indices[:, None] != ij
        keep[:, 1] &= keep[:, 0]
        slot = np.flatnonzero(keep)
        return ij.ravel()[slot], h.indices[slot >> 1]

    def pairs(self) -> WeightedGraph:
        """The expansion these factors stand for, c_e on each of e's pairs."""
        sizes = self.h.edge_sizes()
        per_edge = sizes * (sizes - 1) // 2 if self.ext is None else 2 * sizes - 3
        return _accumulate(self.h, *self._emitted(), np.repeat(self.coef, per_edge))

    @property
    def pair_count(self) -> int:
        """`pairs().pair_count`: the emitted pairs' distinct keys, counted in
        one in-place sort, with no weights and no inverse. (On 1.5M keys,
        numpy 2.4's `np.unique(keys)` took 1.6 s against this sort's 25 ms.)"""
        keys = _pair_keys(self.h.n, *self._emitted())
        keys.sort()
        return keys.size - int(np.count_nonzero(keys[1:] == keys[:-1]))


@dataclass(frozen=True, eq=False)
class NormalizedAdjacency:
    """Symmetrically normalized adjacency D̃^{-1/2} Ã D̃^{-1/2} as a CSR."""

    n: int
    matrix: sp.csr_array

    def product(self, x: np.ndarray) -> np.ndarray:
        return _csr_matmul(self.matrix, x)

    @classmethod
    def identity(cls, n: int) -> "NormalizedAdjacency":
        """Normalized adjacency of the loops-only graph; turns the
        convolution into a plain MLP layer."""
        return cls(n, sp.eye_array(n, format="csr", dtype=np.float64))


# A normalized adjacency in either form
Adjacency = NormalizedAdjacency | IncidenceFactors


def as_signal(s: np.ndarray, n: int) -> np.ndarray:
    """Coerce a per-vertex signal to a C-contiguous n x d float64 matrix. A
    non-finite signal, as a diverged network's, raises FloatingPointError."""
    arr = np.ascontiguousarray(s, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] != n:
        raise ValueError(f"signal shape {arr.shape} incompatible with n={n}")
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError("signal contains non-finite entries")
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
    hyperedge's s(s-1)/2, if more). Each block has a pair list, at first
    all its pairs, and one float64 tie pick runs over it: `_near_max`
    with slack 0 lists the positions equal to each hyperedge's largest
    distance (`np.maximum.reduceat` over its run of pairs), and the ranked
    one of each hyperedge's tied positions is taken. A block's distances
    are filled in 1-D tiles of pairs that hold at most `_TILE` values of
    temporaries, so memory does not grow with the signal's width; a
    block adds its distances, its hyperedges' maxima repeated per pair,
    and the tied positions.

    A search over at least `_SCREEN` pairs, on a signal of width d in
    [`_SCREEN_WIDTH`, 2^22] with max |s| in [2^-200, 2^200], screens each
    block in float32 first, in the same tiles (`_scaled`, `_screen`), and
    only narrows the block's pair list to its candidates: by the same
    `_near_max`, the pairs whose screened distance is at least their
    hyperedge's screened maximum less a slack of twice the worst-case
    error of both distances, so every pair at a hyperedge's float64
    maximum is one. The pick then runs over the candidates, which keep
    their pair order, with the same draws, so every pick is the same,
    draw for draw (a hyperedge with one candidate has k = 1, rank 0). A
    block whose screen would keep more than half its pairs (many ties,
    as equal rows make, or fewer than two pairs per hyperedge) keeps its
    whole list. The screen adds a float32 copy of the signal for the
    search; its other arrays (float32 distances and floors and a 1 B
    mask per pair, the candidates' positions and pairs) are the block's,
    so memory still does not grow with the search. Every other search
    takes every pair: a small or narrow one, where the screen does not
    pay (`_SCREEN`), and one outside the window, where float64 distances
    can overflow to inf or underflow into ties that the scaled screen
    would separate.
    """
    s = as_signal(signal, h.n)
    draws = rng.random(h.m)
    ptr, a, b = h.clique_pairs
    x = _scaled(s, ptr)
    out = np.empty((h.m, 2), dtype=np.int64)
    for lo, hi in _blocks(ptr):
        p0, p1 = ptr[lo], ptr[hi]
        bptr, ba, bb = ptr[lo : hi + 1] - p0, a[p0:p1], b[p0:p1]
        cand = None if x is None else _screen(x, bptr, ba, bb)
        if cand is not None:  # hyperedge e's candidates: cand[bptr[e]:bptr[e+1]]
            bptr, ba, bb = np.searchsorted(cand, bptr), ba[cand], bb[cand]
        tied, tptr = _near_max(_distances(s, ba, bb, np.empty(ba.size)), bptr, 0.0)
        k = np.diff(tptr)
        pick = tied[tptr[:-1] + np.minimum((draws[lo:hi] * k).astype(np.int64), k - 1)]
        out[lo:hi, 0], out[lo:hi, 1] = ba[pick], bb[pick]
    return out


def _blocks(ptr: np.ndarray):
    """(lo, hi) for consecutive runs of whole hyperedges lo..hi-1 that
    hold at most `_BLOCK` of the pair list's pairs, or one hyperedge."""
    lo, m = 0, ptr.size - 1
    while lo < m:
        hi = max(lo + 1, int(np.searchsorted(ptr, ptr[lo] + _BLOCK, "right")) - 1)
        yield lo, hi
        lo = hi


def _distances(x: np.ndarray, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[t] = ‖x[a[t]] - x[b[t]]‖², a tile of pairs at a time: two row
    gathers, differenced in place, then each row's sum of squares. numpy
    sums a short row in a scalar loop per row, so a float64 tile of width
    2 is squared in place and its rows summed by one BLAS product with a
    ones vector: a distance is then one rounded addition of two squares,
    so every order gives `einsum`'s bits. Other rows go through `einsum`,
    whose order is numpy's own. Either way a sum of squares overflows to
    inf or underflows silently, whatever numpy's error state."""
    d = x.shape[1]
    tile = max(1, _TILE // (2 * d + 1))  # pairs per tile
    rowsum = x.dtype == _F64 and d == 2
    ones = np.ones(d)
    for t in range(0, out.size, tile):
        diff = np.take(x, a[t : t + tile], axis=0)  # (pairs, d)
        diff -= np.take(x, b[t : t + tile], axis=0)
        if rowsum:
            with np.errstate(over="ignore", under="ignore"):  # as einsum is
                np.matmul(np.square(diff, out=diff), ones, out=out[t : t + tile])
        else:
            np.einsum("pk,pk->p", diff, diff, out=out[t : t + tile])
    return out


def _scaled(s: np.ndarray, ptr: np.ndarray) -> np.ndarray | None:
    """The float32 screen signal of a search over the pair list `ptr`: s
    scaled by 2^-e, where max |s| = f·2^e with f in [1/2, 1) (`np.frexp`),
    so every scaled entry has |x| < 1, and rounded to float32. None if the
    screen does not apply: fewer than `_SCREEN` pairs, a width outside
    [`_SCREEN_WIDTH`, 2^22], or max |s| outside [2^-200, 2^200]."""
    if ptr[-1] < _SCREEN or not _SCREEN_WIDTH <= s.shape[1] <= 2**22:
        return None
    peak = max(s.max(initial=0.0), -s.min(initial=0.0))  # max |s|, with no |s| array
    if not 2.0**-200 <= peak <= 2.0**200:
        return None
    x = np.empty(s.shape, dtype=np.float32)
    return np.multiply(s, np.ldexp(1.0, -np.frexp(peak)[1]), out=x, casting="same_kind")


def _screen(x: np.ndarray, ptr: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Positions, ascending, of the candidate pairs of one block's pair
    list (ptr, a, b): each hyperedge's pairs whose float32 distance over
    the screen signal `x` (`_scaled`) is at least its screened maximum
    less `slack`. None if the candidates would be more than half the
    pairs, too many for their list to save time or memory: certainly so,
    with no float32 pass made, if the block has fewer than two pairs per
    hyperedge, as every hyperedge keeps a candidate.

    In scaled units, with u = 2^-24 and d the width, the exact squared
    distance D = Σ_k t_k², t = x_a - x_b, is at most 4d, and:

    * each entry, scaled in float64 (exact but for at most 2^-1075 of
      underflow) and rounded to float32, is off by at most u|x| + 2^-149,
      and the rounded difference δ' of two by |δ' - t| <= β, with
      β = 2u + 2^-148 + u(2 + 2u + 2^-148) <= 4.01u; so the squares are
      off by Σ_k |δ'_k² - t_k²| <= dβ(4 + β) <= 16.05du;
    * summing the d squares, in any order, with or without FMA (or in
      higher precision, then rounded), adds at most γ_d Σ δ'_k² + d·2^-150,
      γ_d = du/(1 - du), and Σ δ'_k² <= d(2 + β)²;

    so |D' - D| <= ε32 = 16.05du + 4.01d²u/(1 - du) + d·2^-150, which is
    below 5.4d(d + 4)u for d <= 2^22 (du <= 1/4). The float64 distance V
    that the tie pick compares, scaled by the exact 2^-2e, is off from D
    by at most ε64 = (d + 2)2^-52·4d for its rounding, plus d·2^-676 for
    underflow: inside the window 2^-2e <= 2^398, no square overflows and
    each loses at most 2^-1074. If pair p ties a hyperedge's float64
    maximum, then for every pair q of it
    D'_q - D'_p <= (D_q - D_p) + 2ε32 <= (V_q - V_p) + 2ε32 + 2ε64
    <= 2ε32 + 2ε64 < slack = 16d(d + 4)u + 2^-100, so p is a candidate.
    The floor, top - slack, is formed in float64 (off by at most
    4d·2^-53, inside the slack's margin) and rounded to float32
    (`_near_max`): no float32 value at or above the float64 floor falls
    below the rounded one.
    """
    if 2 * (ptr.size - 1) > ptr[-1]:
        return None
    d = x.shape[1]
    slack = 16 * d * (d + 4) * 2.0**-24 + 2.0**-100
    cand = _near_max(_distances(x, a, b, np.empty(ptr[-1], dtype=np.float32)), ptr, slack)[0]
    return cand if 2 * cand.size <= ptr[-1] else None


def _near_max(vals: np.ndarray, ptr: np.ndarray, slack: float) -> tuple[np.ndarray, np.ndarray]:
    """(near, nptr): the positions, ascending, of each hyperedge's values
    at least its maximum less `slack`, hyperedge e's values being
    vals[ptr[e]:ptr[e+1]] (none empty), and their own pointers: e's are
    near[nptr[e]:nptr[e+1]]. The floor is formed in float64 and rounded
    to the dtype of `vals`. With `slack` 0 these are the ties of each
    maximum, since distances are never NaN."""
    floor = np.subtract(np.maximum.reduceat(vals, ptr[:-1]), slack, dtype=np.float64)
    floor = floor.astype(vals.dtype, copy=False)
    near = np.flatnonzero(vals >= np.repeat(floor, np.diff(ptr)))
    return near, np.searchsorted(near, ptr)


def _pair_keys(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Key min(a, b)·n + max(a, b) of each pair (a[t], b[t]): u·n + v for u < v."""
    return np.minimum(a, b) * n + np.maximum(a, b)


def _accumulate(h: Hypergraph, a: np.ndarray, b: np.ndarray, wt: np.ndarray) -> WeightedGraph:
    """Sum emitted pairs (a[t], b[t]) of weight wt[t], listed in hyperedge
    order, into a WeightedGraph: the distinct pairs in key order, each
    pair's weights summed in emission order, as sequential accumulation
    would."""
    keys, inverse = np.unique(_pair_keys(h.n, a, b), return_inverse=True)
    u, v = np.divmod(keys, h.n)
    return WeightedGraph(n=h.n, u=u, v=v, w=np.bincount(inverse, weights=wt, minlength=keys.size))


def expand_one_edge(h: Hypergraph, signal: np.ndarray, rng: np.random.Generator) -> WeightedGraph:
    """Represent each hyperedge by its single extreme pair, weight w(e)/|e|."""
    ext = extreme_pairs(h, signal, rng)
    return _accumulate(h, ext[:, 0], ext[:, 1], h.weights / h.edge_sizes())


def expand_mediators(h: Hypergraph, signal: np.ndarray, rng: np.random.Generator) -> WeightedGraph:
    """`mediator_adjacency`'s pairs: each hyperedge's extreme pair, and every
    other member joined to both extremes, each pair weighted w(e)/(2|e|-3).

    Emits max(1, 2|e|-3) distinct pairs per hyperedge; the per-hyperedge
    weight mass always sums to w(e).
    """
    return mediator_adjacency(h, signal, rng).pairs()


def expand_clique(h: Hypergraph) -> WeightedGraph:
    """`clique_adjacency`'s pairs: each hyperedge's clique, every pair
    weighted 2 w(e)/(|e| (|e|-1)). Signal-independent."""
    return clique_adjacency(h).pairs()


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
    return NormalizedAdjacency(g.n, mat)


def mediator_adjacency(h: Hypergraph, signal: np.ndarray,
                       rng: np.random.Generator) -> IncidenceFactors:
    """`normalize(expand_mediators(h, signal, rng))`, factored: c_e =
    w(e)/(2|e|-3) around the extreme pairs of `signal`, ties drawn from `rng`."""
    return IncidenceFactors(h, h.weights / (2 * h.edge_sizes() - 3), extreme_pairs(h, signal, rng))


def clique_adjacency(h: Hypergraph) -> IncidenceFactors:
    """`normalize(expand_clique(h))`, factored: c_e = 2w(e)/(|e|(|e|-1))."""
    sizes = h.edge_sizes()
    return IncidenceFactors(h, 2.0 * h.weights / (sizes * (sizes - 1)))
