"""Spans, computed counters and a memory probe around hypergcn's layers.

While a phase is recorded, every public module-level function of the
layer modules is replaced by a wrapper at each place its name is looked
up: the defining module (for
calls such as `expansion.extreme_pairs` from `expand_mediators`), every
module that imported it by name (`training.normalize`,
`densek.expand_mediators`, ...) and the package namespace. Nothing in
`src/` changes, and the original objects are back once the phase ends.

Spans are kept in memory as (function id, start, end, parent span,
phase) tuples and reduced to self times when the run ends. A span's self
time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

LAYERS = ("dataio", "hypergraph", "expansion", "nn", "training", "densek")

# Functions whose self share and call count are reported per op; the
# rest are still traced and appear in the report line, folded into their
# layer's share.
REPORTED = {
    "expansion": ("extreme_pairs", "expand_mediators", "expand_one_edge",
                  "expand_clique", "normalize"),
    "nn": ("spmm", "dropout_mask", "forward_hidden", "forward_logits",
           "backward_from_dlogits", "adam_step"),
    "training": ("train_ssl", "pair_laplacian", "evaluate"),
    "hypergraph": ("size_counts",),
    "dataio": ("balanced_split_labels",),
    "densek": ("train_densek", "hindsight_bce", "vertex_features", "predict_maps",
               "decode_topk", "density", "max_degree", "remove_min_degree"),
}

MEMORY_PROBED = ("expansion.extreme_pairs", "expansion.normalize",
                 "expansion.expand_mediators", "expansion.expand_one_edge",
                 "expansion.expand_clique")

SETUP_LAYERS = ("dataio", "densek")


def _spmm_counts(args, out):
    # Computed, not measured: CSR arrays, dense operand and result each
    # moved once.
    a, x = args[0], args[1]
    mat = a.matrix
    nnz = int(mat.nnz)
    cols = out.shape[1] if out.ndim == 2 else 1
    moved = (mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
             + np.asarray(x).nbytes + out.nbytes)
    return (("nn.spmm.nnz", nnz), ("nn.spmm.flops", 2 * nnz * cols),
            ("nn.spmm.bytes", moved))


def _pair_counts(args, out):
    return (("expansion.pairs", out.pair_count),)


def _nnz_counts(args, out):
    return (("expansion.nnz", int(out.matrix.nnz)),)


COUNTER_UNITS = {
    "expansion.pairs": "count",
    "expansion.nnz": "count",
    "nn.spmm.nnz": "count",
    "nn.spmm.flops": "flop",
    "nn.spmm.bytes": "B",
}

COUNTERS = {
    "nn.spmm": _spmm_counts,
    "expansion.expand_mediators": _pair_counts,
    "expansion.expand_one_edge": _pair_counts,
    "expansion.expand_clique": _pair_counts,
    "expansion.normalize": _nnz_counts,
}


def layer_functions():
    """(qualified name, function) for every public function defined in a
    layer module."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"hypergcn.{layer}"]
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                out.append((f"{layer}.{name}", obj))
    return out


class Patch:
    """Replace functions at every hypergcn namespace that binds them."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, original, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "hypergcn" and not modname.startswith("hypergcn."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def restore(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()


class Tracer:
    """Records spans of every layer function called inside `record()`;
    outside it the program runs unwrapped."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.phases: list[str] = []
        self._stack: list[int] = []
        self._phase = -1
        self._wrappers = [(fn, self._wrap(qual, fn)) for qual, fn in layer_functions()]

    @contextmanager
    def record(self, label: str):
        """Install the wrappers; spans recorded inside belong to `label`."""
        self.phases.append(label)
        self._phase = len(self.phases) - 1
        patch = Patch()
        for fn, wrapper in self._wrappers:
            patch.replace(fn, wrapper)
        try:
            yield
        finally:
            patch.restore()

    def _wrap(self, qual: str, fn):
        name_id = len(self.names)
        self.names.append(qual)
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(qual)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            phase = self._phase
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name_id, t0, t1, parent, phase)
            if counter is not None:
                bucket = counts[self.phases[phase]]
                for key, value in counter(args, out):
                    bucket[key] += value
            return out

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        rec = np.array(self.spans, dtype=np.float64).reshape(-1, 5)
        return {
            "name_id": rec[:, 0].astype(np.int64),
            "start": rec[:, 1],
            "end": rec[:, 2],
            "parent": rec[:, 3].astype(np.int64),
            "phase": rec[:, 4].astype(np.int64),
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), phases=np.array(self.phases),
                            **self.arrays())

    def self_times(self, phase_labels: list[str]) -> tuple[dict[str, float], dict[str, int], float]:
        """Summed self seconds and call counts per function over the given
        phases, and the seconds covered by top-level spans."""
        a = self.arrays()
        wanted = [i for i, p in enumerate(self.phases) if p in phase_labels]
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_t = dur - child
        keep = np.isin(a["phase"], wanted)
        self_s = np.bincount(a["name_id"][keep], weights=self_t[keep], minlength=len(self.names))
        calls = np.bincount(a["name_id"][keep], minlength=len(self.names))
        top = float(dur[keep & ~has_parent].sum())
        return (
            {n: float(s) for n, s in zip(self.names, self_s)},
            {n: int(c) for n, c in zip(self.names, calls)},
            top,
        )

    def counter_totals(self, phase_labels: list[str]) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for label in phase_labels:
            for key, value in self.counts.get(label, {}).items():
                out[key] += value
        return dict(out)


class MemoryProbe:
    """tracemalloc peak, above the traced memory at entry, per call of the
    probed expansion functions. tracemalloc runs only while one of them
    is on the stack; nested calls keep the outer call's peak intact."""

    def __init__(self) -> None:
        self.peak_bytes: dict[str, int] = {q: 0 for q in MEMORY_PROBED}
        self._frames: list[list[int]] = []  # [base, carried peak]

    @contextmanager
    def record(self):
        patch = Patch()
        for qual, fn in layer_functions():
            if qual in self.peak_bytes:
                patch.replace(fn, self._wrap(qual, fn))
        try:
            yield
        finally:
            patch.restore()
            if tracemalloc.is_tracing():
                tracemalloc.stop()

    def _wrap(self, qual: str, fn):
        frames, peaks = self._frames, self.peak_bytes

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            if not frames:
                tracemalloc.start()
            else:
                outer = frames[-1]
                outer[1] = max(outer[1], tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            frames.append([tracemalloc.get_traced_memory()[0], 0])
            try:
                return fn(*args, **kwargs)
            finally:
                base, carried = frames.pop()
                peak = max(carried, tracemalloc.get_traced_memory()[1])
                peaks[qual] = max(peaks[qual], peak - base)
                if frames:
                    frames[-1][1] = max(frames[-1][1], peak)
                else:
                    tracemalloc.stop()

        return probed
