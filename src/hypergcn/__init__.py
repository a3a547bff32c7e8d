"""Hypergraph learning toolkit: spectral expansions, a two-layer graph
convolutional trainer, and densest-k-subhypergraph solvers."""

from .hypergraph import Hypergraph, size_counts
from .expansion import (
    NormalizedAdjacency,
    WeightedGraph,
    expand_clique,
    expand_mediators,
    expand_one_edge,
    normalize,
)
from .dataio import (
    DataError,
    DatasetBundle,
    LabeledSplit,
    gen_noisy_ssl,
    load_bundle,
    save_bundle,
)
from .training import TrainConfig, TrainReport, evaluate, run_trials, train_ssl

__all__ = [
    "Hypergraph",
    "size_counts",
    "NormalizedAdjacency",
    "WeightedGraph",
    "expand_clique",
    "expand_mediators",
    "expand_one_edge",
    "normalize",
    "DataError",
    "DatasetBundle",
    "LabeledSplit",
    "gen_noisy_ssl",
    "load_bundle",
    "save_bundle",
    "TrainConfig",
    "TrainReport",
    "evaluate",
    "run_trials",
    "train_ssl",
]

__version__ = "0.1.0"
