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
* `<n>/picks/<kind>`: the `extreme_pairs` result, with tie rng
  `default_rng(3)`, on the instance's features made into a signal of each
  `PICK_KINDS` kind (`pick_signal`, its own draws from `default_rng(5)`),
  the signals that could make `extreme_pairs`' float32 screen change a
  pick: `zero`, where every pair of every hyperedge ties, so that the
  draws alone decide each pick; `rounded`; `ulp`, rounded entries each
  left as they are or moved 1 ulp; `ulp32`, rounded entries moved by up
  to a float32 ulp; `duplicated`, every row a copy of one of the first
  n/3; `subnormal`, half the entries rounded and made subnormal;
  `subnormal-all`, every entry so (max |s| below the screen's window);
  `mixed-scale`, the columns scaled to max |s| 2^200 or 2^-200; and the
  features times 2^150, 2^-150 (inside the window), 2^250 and 2^-250
  (outside it); `<n>/picks/w2/<kind>` and `<n>/picks/w32/<kind>`: the
  same on an n x 2 and an n x 32 normal signal drawn from
  `default_rng(11)` (`PICK_WIDTHS`), the widths of a `hypergcn` epoch's
  class-wide and hidden-layer searches, whose distances run other
  kernels than the feature width's;
* `<n>/spmm/<form>/<cols>`: `nn.spmm` of each form of adjacency with an
  n x cols operand of normal draws from `default_rng(9)`, for cols 1, 2
  and 32 (`SPMM_COLS`): `identity`, `normalize` of the `one-edge`,
  `mediators` and `clique` expansions (CSR), and the factored
  `clique_adjacency` and `mediator_adjacency` (tie rng `default_rng(3)`);
* `ssl/<n>/<method>` and `ssl/<n>/p8/<method>`: `train_ssl` losses, test
  error and counts (adjacency pairs, expansions, then the edge counts N,
  N_m and N_c) of all six methods, trial seed 0, on the instance's
  features and on the same instance drawn with 8 feature dims (narrower
  than the hidden layer); `ssl/<n>/dropout0/<method>`: the same as
  `ssl/<n>/<method>` with dropout 0, so that no mask is drawn;
* `densek/<method>`: the `train_densek` loss trace, Θ1 and Θ2 of
  `hypergcn` and `fast-hypergcn` (2 epochs, 8 maps) on 10 samples of
  the `densek-planted` shape (n uniform in 100..300, k = 3n/4,
  p = 0.75), and the vertex sets `solve_learned` decodes with them;
  `densek/picks`: the `extreme_pairs` results on those samples' degree
  features (`densek.vertex_features`), where most hyperedges tie, one
  tie rng `default_rng(3)` drawn through the samples in order;
* `cli/<command>/<method>`: the exit code and stdout bytes of `cli.main`,
  `seconds_per_epoch` masked, for `train` (budget 10, 5 epochs) and
  `trials` (budget 10, 3 trials, 5 epochs: the per-trial rows and the
  aggregate line) on all six methods and `densek` (3 training samples,
  2 epochs) on both learned methods, on the n=60 instance saved to a
  temporary directory and named by the same relative path in every run,
  so that the config echo is the same too; `cli/diverge/<command>/<method>`:
  the same for runs that diverge at `--lr 1e200`, `train` (budget 10,
  5 epochs) on `hypergcn` and `one-hypergcn`, which stop at the layer
  signal's check, and `fast-hypergcn`, which stops at the logits', and
  `densek` (3 training samples, 2 epochs) on `hypergcn`;
  `cli/train/budget-all`: `train --method mlp --budget 60`, which labels
  every vertex and leaves nothing to evaluate.

The instances are `gen_noisy_ssl(0.5, default_rng(7), ...)`: n=1000 (the
default benchmark, 20 training epochs), the 20k instance (n=20000,
pure=2000, noisy=8000, feat_dim=64; 2 epochs) and a tiny n=60 one for
smoke tests (5 epochs). A part that raises records the error in place of
its digest.

The last line also gives the `environment()` the parts were computed in.
`tests/equivalence_digests.jsonl` holds this script's output at
`--sizes 60 1000`, which a tier-1 test recomputes; after a change to an
output that is meant, regenerate it with

    python3 scripts/equivalence.py --sizes 60 1000 > tests/equivalence_digests.jsonl

and list the changed parts in CHANGES.md.

`--save` writes every part's arrays to an `.npz`. `--against` reads one
so written, by this tree or another, and then prints per part whether it
is identical and its largest absolute and relative deltas, where the
relative delta of two entries is |a - b| / max(|a|, |b|) (0 for two
zeros), then one summary line, which names every saved part this run
did not compute (`missing`). The exit code is 1 if any part differs or
is missing, else 0. BLAS runs one thread.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import sys
import tempfile
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
SPMM_COLS = (1, 2, 32)
PICK_WIDTHS = (2, 32)
PICK_KINDS = ("zero", "rounded", "ulp", "ulp32", "duplicated", "subnormal", "subnormal-all",
              "mixed-scale", "2^150", "2^-150", "2^250", "2^-250")
DENSEK_SAMPLES, DENSEK_EPOCHS, DENSEK_MAPS = 10, 2, 8
CLI_RUNS = {"train": ["--budget", "10", "--epochs", "5"],
            "trials": ["--budget", "10", "--trials", "3", "--epochs", "5"],
            "densek": ["--trials", "3", "--epochs", "2"]}
# part name -> argv, for runs that end in a usage error
CLI_FAILURES = {
    **{f"cli/diverge/train/{m}": ["train", "--method", m, *CLI_RUNS["train"], "--lr", "1e200"]
       for m in ("hypergcn", "one-hypergcn", "fast-hypergcn")},
    "cli/diverge/densek/hypergcn": ["densek", "--method", "hypergcn", *CLI_RUNS["densek"],
                                    "--lr", "1e200"],
    "cli/train/budget-all": ["train", "--method", "mlp", "--budget", "60"],
}
TIMING = re.compile(rb'"seconds_per_epoch": [0-9eE+.\-]+')


def parts(sizes: list[int]):
    """Yield (name, arrays or an error string) for every part."""
    import numpy as np

    from hypergcn import cli, dataio, densek, expansion, nn, training

    def attempt(compute):
        try:
            return compute()
        except (ValueError, FloatingPointError) as exc:
            return f"{type(exc).__name__}: {exc}"

    def ssl(bundle, budget, epochs, method, dropout=0.5):
        split = dataio.balanced_split_labels(bundle.labels, budget, nn.rng_streams(0).split)
        cfg = training.TrainConfig(method=method, epochs=epochs, dropout=dropout, seed=0)
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
        for kind in PICK_KINDS:
            s = pick_signal(x, kind, np.random.default_rng(5))
            yield f"{n}/picks/{kind}", [expansion.extreme_pairs(h, s, np.random.default_rng(3))]
        for width in PICK_WIDTHS:
            y = np.random.default_rng(11).normal(size=(h.n, width))
            for kind in PICK_KINDS:
                s = pick_signal(y, kind, np.random.default_rng(5))
                yield (f"{n}/picks/w{width}/{kind}",
                       [expansion.extreme_pairs(h, s, np.random.default_rng(3))])
        forms = {"identity": lambda: expansion.NormalizedAdjacency.identity(h.n),
                 **{rule: lambda expand=expand: expansion.normalize(expand())
                    for rule, expand in rules.items()},
                 "clique_adjacency": lambda: expansion.clique_adjacency(h),
                 "mediator_adjacency": lambda: expansion.mediator_adjacency(
                     h, x, np.random.default_rng(3))}
        for form, build in forms.items():
            a = build()
            for cols in SPMM_COLS:
                operand = np.random.default_rng(9).normal(size=(h.n, cols))
                yield f"{n}/spmm/{form}/{cols}", attempt(lambda: [nn.spmm(a, operand)])
        narrow = dataio.gen_noisy_ssl(0.5, np.random.default_rng(7),
                                      **{**kwargs, "feat_dim": NARROW_DIMS})
        for method in training.METHODS:
            yield f"ssl/{n}/{method}", attempt(lambda: ssl(bundle, budget, epochs, method))
            yield (f"ssl/{n}/p{NARROW_DIMS}/{method}",
                   attempt(lambda: ssl(narrow, budget, epochs, method)))
            yield (f"ssl/{n}/dropout0/{method}",
                   attempt(lambda: ssl(bundle, budget, epochs, method, dropout=0.0)))

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

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        dataio.save_bundle(dataio.gen_noisy_ssl(0.5, np.random.default_rng(7), **INSTANCES[60][0]),
                           Path(tmp) / "bundle")
        os.chdir(tmp)
        try:
            runs = {f"cli/{command}/{method}": [command, "--method", method, *CLI_RUNS[command]]
                    for command, methods in (("train", training.METHODS),
                                             ("trials", training.METHODS),
                                             ("densek", densek.METHODS))
                    for method in methods}
            for name, argv in {**runs, **CLI_FAILURES}.items():
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main([argv[0], "--data", "bundle", *argv[1:]])
                text = TIMING.sub(b'"seconds_per_epoch": 0', out.getvalue().encode())
                yield name, [np.array([code]), np.frombuffer(text, dtype=np.uint8)]
        finally:
            os.chdir(home)


def pick_signal(x, kind: str, rng):
    """The features `x` made into a signal of one kind: `normal` (x itself),
    one of `PICK_KINDS`, or `2^<k>` for any k. `tests/test_expansion.py`
    draws its screen cases from here too."""
    import numpy as np

    rounded = np.round(x)
    if kind == "ulp":  # rounded entries, each left as it is or moved 1 ulp
        step = rng.integers(-1, 2, size=x.shape)
        return np.where(step == 0, rounded, np.nextafter(rounded, np.copysign(np.inf, step)))
    if kind == "ulp32":  # rounded entries moved by up to a float32 ulp, which the cast scrambles
        return rounded * (1.0 + rng.integers(-2, 3, size=x.shape) * 2.0**-25)
    if kind == "duplicated":
        return x[rng.integers(0, max(1, x.shape[0] // 3), size=x.shape[0])]
    if kind.startswith("subnormal"):  # half the entries rounded and made subnormal, or all
        tiny = kind == "subnormal-all" or rng.random(x.shape) < 0.5
        return np.where(tiny, rounded * 2.0**-1072, x)
    if kind == "mixed-scale":  # columns at max |s| 2^200 or 2^-200
        cols = np.where(rng.random(x.shape[1]) < 0.5, 200, -200)
        return np.ldexp(x / np.abs(x).max(initial=1e-300), cols)
    if kind.startswith("2^"):
        return np.ldexp(x, int(kind[2:]))
    return {"normal": x, "zero": np.zeros_like(x), "rounded": rounded}[kind]


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


def environment() -> dict:
    """The versions that a part's bits may depend on: Python, numpy, scipy
    and the BLAS numpy was built with."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}"}


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
    computed = set()
    for name, arrays in parts(args.sizes):
        computed.add(name)
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
    if other is not None:
        summary["missing"] = [name for name in other if name not in computed]
    print(json.dumps({"digest": total.hexdigest(), "environment": environment(),
                      **({"against": summary} if other else {})}))
    if args.save:
        np.savez(args.save, **saved)
    return int(summary["identical"] < summary["parts"] or bool(summary.get("missing")))


if __name__ == "__main__":
    sys.exit(main())
