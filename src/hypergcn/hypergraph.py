"""Canonical hypergraph container with degree and size bookkeeping.

Vertices are dense 0-based integers. Hyperedges are stored as sorted
tuples of distinct vertex ids; duplicate hyperedges are allowed and their
contributions accumulate in every expansion. Instances are immutable
after construction and safe to share across threads.

Two array views of the hyperedges are derived on first use and cached on
the instance: the flat incidence (every hyperedge's ids in hyperedge
order) and the same-size groups that the expansions vectorize over. Both
are pure functions of `edges`, so caching them never changes a result.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class Hypergraph:
    """Undirected hypergraph H = (V, E) with per-hyperedge positive weights."""

    n: int
    edges: tuple[tuple[int, ...], ...]
    weights: np.ndarray

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[Iterable[int]],
        weights: Sequence[float] | None = None,
    ) -> "Hypergraph":
        """Build a hypergraph, canonicalizing each hyperedge to a sorted
        tuple of distinct ids. Weights default to 1.0 per hyperedge."""
        canon = tuple(tuple(sorted({int(v) for v in e})) for e in edges)
        if weights is None:
            w = np.ones(len(canon), dtype=np.float64)
        else:
            w = np.asarray(weights, dtype=np.float64).copy()
        return cls(n=int(n), edges=canon, weights=w)

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_sizes(self) -> np.ndarray:
        return np.array([len(e) for e in self.edges], dtype=np.int64)

    @cached_property
    def incidence(self) -> np.ndarray:
        """Vertex ids of every hyperedge, concatenated in hyperedge order."""
        return np.fromiter(itertools.chain.from_iterable(self.edges), dtype=np.int64)

    @cached_property
    def size_groups(self) -> tuple[tuple[int, np.ndarray, np.ndarray], ...]:
        """(size, edge ids, member matrix) per distinct hyperedge size; row r
        of the (g, size) member matrix is hyperedge `edge ids[r]`."""
        sizes = self.edge_sizes()
        groups = []
        for size in np.unique(sizes):
            idxs = np.flatnonzero(sizes == size)
            members = np.array([self.edges[i] for i in idxs], dtype=np.int64)
            groups.append((int(size), idxs, members.reshape(idxs.size, size)))
        return tuple(groups)


def validate(h: Hypergraph) -> list[str]:
    """Check every structural invariant of `h`.

    Returns an empty list when the hypergraph is valid, otherwise one
    message per violation, each naming the offending hyperedge index.
    Downstream expansions are guaranteed to succeed on a valid hypergraph.
    """
    problems: list[str] = []
    if h.n < 0:
        problems.append(f"vertex count {h.n} is negative")
    if len(h.weights) != len(h.edges):
        problems.append(
            f"{len(h.weights)} weights for {len(h.edges)} hyperedges"
        )
    for idx, e in enumerate(h.edges):
        if len(e) < 2:
            problems.append(f"hyperedge {idx}: size {len(e)} < 2")
        if tuple(sorted(set(e))) != e:
            problems.append(f"hyperedge {idx}: ids not sorted and distinct")
        for v in e:
            if not 0 <= v < h.n:
                problems.append(
                    f"hyperedge {idx}: vertex {v} out of range [0, {h.n})"
                )
    for idx, w in enumerate(h.weights[: len(h.edges)]):
        if not np.isfinite(w) or w <= 0:
            problems.append(f"hyperedge {idx}: weight {w} not finite and > 0")
    return problems


def degrees(h: Hypergraph) -> np.ndarray:
    """Vertex degrees d_v = sum of w(e) over hyperedges containing v."""
    weights = np.repeat(h.weights, h.edge_sizes())
    return np.bincount(h.incidence, weights=weights, minlength=h.n)


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
