"""Canonical hypergraph container with size bookkeeping.

Vertices are dense 0-based integers. The m hyperedges are CSR arrays:
hyperedge e is `indices[indptr[e]:indptr[e + 1]]` with weight `weights[e]`;
duplicate hyperedges accumulate in every expansion. The constructor
(which unpickling runs too) copies the arrays, marks them read-only and
checks every invariant once (integer n >= 0; one finite positive weight per
hyperedge; two or more sorted, distinct ids in [0, n) per hyperedge),
naming each offending hyperedge in one ValueError. So an instance is
valid, immutable and safe to share across threads. Two read-only
derived structures are cached on first use: the list of every
hyperedge's vertex pairs, which the extreme-pair search and the clique
expansion read, and the incidence matrices that the factored adjacencies
multiply by. Pickling drops them; the copy rebuilds them when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

@dataclass(frozen=True, eq=False)
class Hypergraph:
    """Undirected hypergraph H = (V, E) with positive hyperedge weights, as CSR."""

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        if isinstance(self.n, np.integer):
            object.__setattr__(self, "n", int(self.n))
        raw = np.asarray(self.indices)
        for name, dtype in (("indptr", np.int64), ("indices", np.int64), ("weights", np.float64)):
            with np.errstate(invalid="ignore"):  # a non-finite id is reported below
                arr = np.asarray(getattr(self, name)).astype(dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        problems = self._violations(raw)
        if problems:
            raise ValueError("; ".join(problems))

    def _violations(self, raw: np.ndarray) -> list[str]:
        """Every broken invariant; `raw` holds the ids before the int64 cast."""
        ptr, ids, w = self.indptr, self.indices, self.weights
        if not (ptr.ndim == ids.ndim == w.ndim == 1 and ptr.size and ptr[0] == 0
                and ptr[-1] == ids.size and np.all(np.diff(ptr) >= 0)):
            return ["indptr must rise from 0 to len(indices); all arrays 1-D"]
        problems: list[str] = []
        if isinstance(self.n, bool) or not isinstance(self.n, int):
            problems.append(f"vertex count {self.n} is not an integer")
        elif self.n < 0:
            problems.append(f"vertex count {self.n} is negative")
        if w.size != self.m:
            problems.append(f"{w.size} weights for {self.m} hyperedges"
                            + (f" (hyperedge {w.size} has none)" if w.size < self.m else ""))
        sizes = self.edge_sizes()
        row = np.repeat(np.arange(self.m), sizes)
        unordered = np.isin(np.arange(self.m), row[1:][(np.diff(row) == 0) & (np.diff(ids) <= 0)])
        whole = raw == ids
        outside = np.isin(np.arange(self.m), row[(ids < 0) | (ids >= self.n) | ~whole])
        for idx in np.flatnonzero((sizes < 2) | unordered | outside).tolist():
            if sizes[idx] < 2:
                problems.append(f"hyperedge {idx}: size {sizes[idx]} < 2")
            if unordered[idx]:
                problems.append(f"hyperedge {idx}: ids not sorted and distinct")
            span = slice(ptr[idx], ptr[idx + 1])
            for v, r, ok in zip(ids[span].tolist(), raw[span].tolist(), whole[span]):
                if not ok:
                    problems.append(f"hyperedge {idx}: vertex {r} not an integer")
                elif not 0 <= v < self.n:
                    problems.append(f"hyperedge {idx}: vertex {v} out of range [0, {self.n})")
        for idx in np.flatnonzero(~(np.isfinite(w[: self.m]) & (w[: self.m] > 0))).tolist():
            problems.append(f"hyperedge {idx}: weight {w[idx]} not finite and > 0")
        return problems

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Iterable[int]],
                   weights: Sequence[float] | None = None) -> "Hypergraph":
        """Build a hypergraph from vertex-id lists, sorting each hyperedge's
        ids and dropping repeats. Weights default to 1.0 per hyperedge."""
        # ids keep their dtype, so the constructor rejects fractional ones
        rows = [np.asarray(e if isinstance(e, np.ndarray) else list(e)) for e in edges]
        sizes = np.array([r.size for r in rows], dtype=np.int64)
        ids = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
        row = np.repeat(np.arange(len(rows)), sizes)
        ids = ids[np.lexsort((ids, row))]  # sorts within rows; row is already sorted
        keep = np.ones(ids.size, dtype=bool)
        keep[1:] = (ids[1:] != ids[:-1]) | (row[1:] != row[:-1])
        indptr = np.concatenate([[0], np.cumsum(np.bincount(row[keep], minlength=len(rows)))])
        w = np.ones(len(rows)) if weights is None else weights
        return cls(n=n, indptr=indptr, indices=ids[keep], weights=w)

    def __reduce__(self):
        return Hypergraph, (self.n, self.indptr, self.indices, self.weights)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.n == other.n and all(
            np.array_equal(getattr(self, k), getattr(other, k))
            for k in ("indptr", "indices", "weights"))

    def __hash__(self) -> int:
        # equal arrays have equal bytes: the dtypes are fixed and no weight is -0.0 or NaN
        return hash((self.n, self.indptr.tobytes(), self.indices.tobytes(),
                     self.weights.tobytes()))

    @property
    def m(self) -> int:
        return self.indptr.size - 1

    def edge_sizes(self) -> np.ndarray:
        return np.diff(self.indptr)

    @cached_property
    def clique_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ptr, a, b): every pair a < b of each hyperedge's vertices, in
        hyperedge order and lexicographic within a hyperedge; hyperedge
        e's pairs are (a[t], b[t]) for t in [ptr[e], ptr[e + 1]). Read-only;
        it holds 16 bytes per pair."""
        sizes = self.edge_sizes()
        # member q (a flat position) pairs with the later[q] members after it
        later = np.repeat(self.indptr[1:], sizes) - np.arange(self.indices.size) - 1
        first = np.repeat(np.arange(self.indices.size), later)
        second = first + 1 + np.arange(first.size) - (np.cumsum(later) - later)[first]
        ptr = np.concatenate([[0], np.cumsum(sizes * (sizes - 1) // 2)])
        out = (ptr, self.indices[first], self.indices[second])
        for arr in out:
            arr.setflags(write=False)
        return out

    @cached_property
    def incidence(self) -> tuple[sp.csr_array, sp.csr_array]:
        """(Hᵀ, H): the m x n and n x m incidence matrices with unit
        entries, as read-only CSR. Hᵀ is this hypergraph's own (indptr,
        indices), so only H takes a (counting-sort) transpose."""
        ht = sp.csr_array((np.ones(self.indices.size), self.indices, self.indptr),
                          shape=(self.m, self.n))
        hm = ht.T.tocsr()
        for a in (ht.data, ht.indices, ht.indptr, hm.data, hm.indices, hm.indptr):
            a.setflags(write=False)
        return ht, hm


def size_counts(h: Hypergraph) -> tuple[int, int, int]:
    """Aggregate hyperedge-size statistics (N, N_m, N_c).

    N is the total incidence count, N_m the pair budget of the mediator
    expansion, N_c the pair budget of the clique expansion:

        N   = sum |e|
        N_m = sum (2|e| - 3)
        N_c = sum |e| (|e| - 1) / 2

    For every hyperedge of size >= 2, 2|e|-3 <= |e|(|e|-1)/2 with
    equality exactly at sizes 2 and 3, hence N_m <= N_c.
    """
    s = h.edge_sizes()
    return int(s.sum()), int((2 * s - 3).sum()), int((s * (s - 1) // 2).sum())
