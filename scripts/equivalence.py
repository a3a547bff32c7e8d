"""Digests of the outputs a change should keep, and their deltas against a saved run.

    python3 scripts/equivalence.py [--src DIR] [--sizes 1000 20000]
                                   [--save FILE.npz] [--against OTHER.npz]

Computes each part below in the source tree `--src` (so one copy of this
script measures a change and its parent alike) and prints one JSON
line per part with the sha256 of its arrays (dtype, shape and bytes of
each, in order), then one line with the digest over all parts:

* `<n>/unit/<rule>`: `WeightedGraph` u, v and w of the one-edge,
  mediators and clique expansions (unit self-loops), on the instance's
  features with tie rng `default_rng(3)`; `<n>/unit/<rule>/csr`: the
  normalized CSR indptr, indices and data;
* `<n>/picks/zero`: the `extreme_pairs` result on the instance's features
  zeroed, where every pair of every hyperedge ties, with tie rng
  `default_rng(3)`, so that the draws alone decide each pick;
* `ssl/<n>/<method>` and `ssl/<n>/p8/<method>`: `train_ssl` losses, test
  error and counts (adjacency pairs, expansions, then the edge counts N,
  N_m and N_c) of all six methods, trial seed 0, on the instance's
  features and on the same instance drawn with 8 feature dims (narrower
  than the hidden layer);
* `densek/<method>`: the `train_densek` loss trace, Θ1 and Θ2 of
  `hypergcn` and `fast-hypergcn` (2 epochs, 8 maps) on 10 samples of
  the `densek-planted` shape (n uniform in 100..300, k = 3n/4,
  p = 0.75), and the vertex sets `solve_learned` decodes with them;
  `densek/picks`: the `extreme_pairs` results on those samples' degree
  features (`densek.vertex_features`), where most hyperedges tie, one
  tie rng `default_rng(3)` drawn through the samples in order.

The instances are `gen_noisy_ssl(0.5, default_rng(7), ...)`: n=1000 (the
default benchmark, 20 training epochs), the 20k instance (n=20000,
pure=2000, noisy=8000, feat_dim=64; 2 epochs) and a tiny n=60 one for
smoke tests (5 epochs). A part that raises records the error in place of
its digest.

`--save` writes every part's arrays to an `.npz`. `--against` reads one
so written, by this tree or another, and then prints per part whether it
is identical and its largest absolute and relative deltas, where the
relative delta of two entries is |a - b| / max(|a|, |b|) (0 for two
zeros), then one summary line. BLAS runs one thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

# Pinned before numpy is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
# n -> (gen_noisy_ssl keyword arguments, label budget, SSL epochs)
INSTANCES = {
    60: ({"n": 60, "pure": 6, "noisy": 24, "feat_dim": 16}, 10, 5),
    1000: ({}, 100, 20),
    20000: ({"n": 20000, "pure": 2000, "noisy": 8000, "feat_dim": 64}, 2000, 2),
}
NARROW_DIMS = 8
DENSEK_SAMPLES, DENSEK_EPOCHS, DENSEK_MAPS = 10, 2, 8


def parts(sizes: list[int]):
    """Yield (name, arrays or an error string) for every part."""
    import numpy as np

    from hypergcn import dataio, densek, expansion, nn, training

    def attempt(compute):
        try:
            return compute()
        except (ValueError, FloatingPointError) as exc:
            return f"{type(exc).__name__}: {exc}"

    def ssl(bundle, budget, epochs, method):
        split = dataio.balanced_split_labels(bundle.labels, budget, nn.rng_streams(0).split)
        cfg = training.TrainConfig(method=method, epochs=epochs, seed=0)
        report = training.train_ssl(bundle.hypergraph, bundle.features, split, cfg)
        counts = [report.adjacency_pairs, report.expansions, *report.edge_counts.values()]
        return [np.array(report.losses), np.array([report.test_error]), np.array(counts)]

    for n in sizes:
        kwargs, budget, epochs = INSTANCES[n]
        bundle = dataio.gen_noisy_ssl(0.5, np.random.default_rng(7), **kwargs)
        h, x = bundle.hypergraph, bundle.features
        rules = {"one-edge": lambda: expansion.expand_one_edge(h, x, np.random.default_rng(3)),
                 "mediators": lambda: expansion.expand_mediators(h, x, np.random.default_rng(3)),
                 "clique": lambda: expansion.expand_clique(h)}
        for rule, expand in rules.items():
            g = expand()
            yield f"{n}/unit/{rule}", [g.u, g.v, g.w]
            yield f"{n}/unit/{rule}/csr", attempt(lambda: csr(expansion.normalize(g)))
        yield f"{n}/picks/zero", [expansion.extreme_pairs(h, np.zeros_like(x),
                                                          np.random.default_rng(3))]
        narrow = dataio.gen_noisy_ssl(0.5, np.random.default_rng(7),
                                      **{**kwargs, "feat_dim": NARROW_DIMS})
        for method in training.METHODS:
            yield f"ssl/{n}/{method}", attempt(lambda: ssl(bundle, budget, epochs, method))
            yield (f"ssl/{n}/p{NARROW_DIMS}/{method}",
                   attempt(lambda: ssl(narrow, budget, epochs, method)))

    rng = np.random.default_rng(7)
    drawn = [(densek.gen_sample(int(s), 3 * int(s) // 4, 0.75, rng), 3 * int(s) // 4)
             for s in rng.integers(100, 301, size=DENSEK_SAMPLES)]
    tie_rng = np.random.default_rng(3)
    yield "densek/picks", [expansion.extreme_pairs(h, densek.vertex_features(h), tie_rng)
                           for (h, _), _ in drawn]
    for method in ("hypergcn", "fast-hypergcn"):
        cfg = training.TrainConfig(method=method, epochs=DENSEK_EPOCHS, seed=0)

        def fit():
            model = densek.train_densek([sample for sample, _ in drawn], cfg, maps=DENSEK_MAPS)
            sets = [densek.solve_learned(model, densek.DenseKInstance(h, k))
                    for (h, _), k in drawn]
            return [np.array(model.loss_trace), model.theta1, model.theta2,
                    np.concatenate([np.array(s, dtype=np.int64) for s in sets])]

        yield f"densek/{method}", attempt(fit)


def csr(a) -> list:
    return [a.matrix.indptr, a.matrix.indices, a.matrix.data]


def digest(arrays) -> str:
    d = hashlib.sha256()
    for a in arrays:
        d.update(f"{a.dtype.str}{a.shape}".encode())
        d.update(a.tobytes())
    return d.hexdigest()


def deltas(mine: list, theirs: list) -> dict:
    """Largest absolute and relative entry deltas of two parts' arrays."""
    import numpy as np

    if len(mine) != len(theirs) or any(a.shape != b.shape for a, b in zip(mine, theirs)):
        return {"identical": False, "shape_mismatch": True}
    worst_abs = worst_rel = 0.0
    for a, b in zip(mine, theirs):
        a, b = a.astype(np.float64), b.astype(np.float64)
        diff = np.abs(a - b)
        scale = np.maximum(np.abs(a), np.abs(b))
        rel = np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0)
        worst_abs = max(worst_abs, float(diff.max(initial=0.0)))
        worst_rel = max(worst_rel, float(rel.max(initial=0.0)))
    return {"identical": digest(mine) == digest(theirs),
            "max_abs": worst_abs, "max_rel": worst_rel}


def load(path: Path) -> dict:
    """Part name -> its arrays in order, or its error string, from `--save`."""
    import numpy as np

    out: dict = {}
    with np.load(path) as saved:
        for key in sorted(saved.files, key=lambda k: (k.rsplit("#", 1)[0], len(k), k)):
            name, index = key.rsplit("#", 1)
            if index == "error":
                out[name] = str(saved[key])
            else:
                out.setdefault(name, []).append(saved[key])
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", type=Path, default=ROOT / "src")
    p.add_argument("--sizes", type=int, nargs="+", default=[1000, 20000],
                   choices=sorted(INSTANCES))
    p.add_argument("--save", type=Path, help="write every part's arrays to this .npz")
    p.add_argument("--against", type=Path, help="an .npz written by --save to compare with")
    args = p.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    import numpy as np

    other = load(args.against) if args.against else None
    saved, total = {}, hashlib.sha256()
    summary = {"parts": 0, "identical": 0, "max_abs": 0.0, "max_rel": 0.0}
    for name, arrays in parts(args.sizes):
        if isinstance(arrays, str):
            line = {"part": name, "error": arrays}
            saved[f"{name}#error"] = np.array(arrays)
        else:
            line = {"part": name, "sha256": digest(arrays)}
            saved.update({f"{name}#{i}": a for i, a in enumerate(arrays)})
        total.update(f"{name}\0{line.get('sha256', arrays)}\0".encode())
        if other is not None:
            theirs = other.get(name)
            if isinstance(arrays, str) or isinstance(theirs, str) or theirs is None:
                line["against"] = {"identical": arrays == theirs}
            else:
                line["against"] = deltas(arrays, theirs)
            for key in ("max_abs", "max_rel"):
                summary[key] = max(summary[key], line["against"].get(key, 0.0))
            summary["parts"] += 1
            summary["identical"] += line["against"]["identical"]
        print(json.dumps(line), flush=True)
    print(json.dumps({"digest": total.hexdigest(), **({"against": summary} if other else {})}))
    if args.save:
        np.savez(args.save, **saved)
    return 0


if __name__ == "__main__":
    sys.exit(main())
