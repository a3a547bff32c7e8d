"""Per-method training time and page faults per epoch at n=1000 and at n=20k.

    python3 scripts/epoch_times.py [--src DIR] [--sizes 1000 20000] [--methods M ...]
                                   [--against DIR [--pairs N]]

First it times the cold start in `IMPORTS` (5) fresh interpreters on
`--src`: the median ms of `import hypergcn.cli` (`import_ms`: numpy,
scipy.sparse and the package), of its part after `import hypergcn`
(`cli_import_ms`), and whether it loaded `scipy.special`.

Then it times `train_ssl` for every method (or those given with
`--methods`) on two instances of `gen_noisy_ssl(0.5, default_rng(7))`:
the default (n=1000, 500 hyperedges, 256 feature dims; budget 100, 50
epochs) and `n=20000, pure=2000, noisy=8000, feat_dim=64` (10k
hyperedges of sizes 5 and 20; budget 2000, 10 epochs). The time is
`TrainReport.seconds_per_epoch`, the training loop (`training.fit`)
alone, median of `REPEATS` (3) runs on trial seed 0; the first run in a
process also pays one-time warm-up. Each line also gives every run's
minor page faults per epoch (`ru_minflt`), counted from the end of the
first optimizer step to the end of the last, so a run's one-time
expansion and first touch of its buffers are left out.

After the methods of each n it times `extreme_pairs` on n x 32 and n x 2
normal signals, the widths that a `hypergcn` epoch searches (hidden
layer and classes), and on the instance's features (`feature_dims`: 256
at n=1000, 64 at n=20k), the one search of `fast-hypergcn` and
`mlp-hlr`, in one line. Then it times the expansion phases on the
features, one line per rule (one-edge, mediators, clique): the rule's
expansion with the extreme-pair result held fixed (computed once, then
returned by a stub, so only pair emission and accumulation are timed),
`normalize` of its graph and `nn.spmm` with the normalized CSR on 32 and
on 2 columns. One more line per factored rule (mediators, clique) gives
the same for the incidence-factored adjacencies: the build and its
degrees (`mediator_adjacency` with the same stub, `clique_adjacency`,
then `.dinv`) and `nn.spmm`. Each phase time is the median ms of
`PHASE_REPEATS` (11) calls.

Then, for fast-hypergcn and hypergcn (those of them in `--methods`), it
times the DkSH solver on 100 samples of the `densek-planted` shape (n
uniform in 100..300, k = 3n/4, p = 0.75, 8 maps): the step's fixed
costs, µs per `densek.hindsight_loss` call on each sample's n x 8 normal
logits and ms per `extreme_pairs` pass over the samples' input features
(the first run builds each hypergraph's cached pair list), then per
method µs per optimizer step (`training.fit_step`, with hypergcn's
per-layer re-expansion), median of `REPEATS` runs of 20 epochs
(fast-hypergcn) or 2 (hypergcn).

BLAS runs one thread. `--sizes 60` adds a tiny instance (`n=60, pure=6,
noisy=24, feat_dim=16`; budget 10, 5 epochs) for smoke tests. It prints
one JSON line per measured line, then one with the environment. Each
line but the last carries `host_s`: the mean time of one pass of
`bench/reference.py`'s kernel, run just before and just after the line's
measurements (outside every timed or fault-counted region), as
`bench/run.py` reads the host's speed around each op.

`--against DIR` times the parent's tree DIR against the change (`--src`)
in one process. Each tree is loaded as a package of its own
(`load_tree`) and draws its own instances from the same seeds. Each
measurement runs `--pairs` (10) rounds, once per tree in each, the
parent first in even rounds. Per timing (a field that ends in `_ms` or
starts with `ms_` or `us_`) it prints both medians, the median, quartiles
and range of the per-round ratios (change over parent) and in how many
rounds the change was lower; then one line with every reading, in the
`epoch_times` shape of the `BENCH_*.json` files. Back-to-back readings
are not scaled by `host_s`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pinned before numpy is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
import scipy  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from reference import Reference  # noqa: E402

REPEATS = 3
PHASE_REPEATS = 11
IMPORTS = 5
# n -> (gen_noisy_ssl keyword arguments, label budget, epochs)
INSTANCES = {
    60: ({"n": 60, "pure": 6, "noisy": 24, "feat_dim": 16}, 10, 5),
    1000: ({}, 100, 50),
    20000: ({"n": 20000, "pure": 2000, "noisy": 8000, "feat_dim": 64}, 2000, 10),
}
DENSEK_EPOCHS = {"fast-hypergcn": 20, "hypergcn": 2}
MODULES = ("dataio", "densek", "expansion", "nn", "training")


def load_tree(src: Path, alias: str):
    """Tree `src`'s `hypergcn` and its `MODULES`, loaded as package `alias`: its
    relative imports give each alias module objects that no other shares."""
    package = src.resolve() / "hypergcn"
    spec = importlib.util.spec_from_file_location(alias, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    tree = importlib.util.module_from_spec(spec)
    sys.modules[alias] = tree
    spec.loader.exec_module(tree)
    for name in MODULES:
        importlib.import_module(f"{alias}.{name}")
    return tree


class StepProbe:
    """Wraps a module's `fit_step`: minor faults and wall time after each
    call. On `training` it sees the SSL and the DkSH steps alike, since
    `training.fit` runs both."""

    def __init__(self, module) -> None:
        self.faults: list[int] = []
        self.seconds = 0.0
        inner = module.fit_step

        def fit_step(*args):
            t0 = time.perf_counter()
            loss = inner(*args)
            self.seconds += time.perf_counter() - t0
            self.faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
            return loss

        module.fit_step = fit_step

    def reset(self) -> None:
        self.faults.clear()
        self.seconds = 0.0

    def faults_per_step(self) -> float:
        return (self.faults[-1] - self.faults[0]) / max(1, len(self.faults) - 1)


# Run in a fresh interpreter with the source tree as argv[1]: ms of the
# whole import, ms of the CLI's part of it, and whether scipy.special loaded.
IMPORT_PROBE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import hypergcn
t1 = time.perf_counter()
import hypergcn.cli
t2 = time.perf_counter()
print(json.dumps([1e3 * (t2 - t0), 1e3 * (t2 - t1), "scipy.special" in sys.modules]))
"""


def import_times(src: Path) -> dict:
    """Median ms of `import hypergcn.cli`, whole and after `import
    hypergcn`, over `IMPORTS` fresh interpreters on `src`, and whether it
    loaded scipy.special."""
    runs = [json.loads(subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src)],
                                      capture_output=True, text=True, check=True).stdout)
            for _ in range(IMPORTS)]
    whole, cli, special = zip(*runs)
    return {"phase": "import", "module": "hypergcn.cli",
            "import_ms": round(statistics.median(whole), 3),
            "cli_import_ms": round(statistics.median(cli), 3),
            "runs_ms": [round(r, 3) for r in whole], "scipy_special": any(special)}


def median_ms(run) -> float:
    """Median ms of `PHASE_REPEATS` calls of `run`."""
    times = []
    for _ in range(PHASE_REPEATS):
        t0 = time.perf_counter()
        run()
        times.append(1e3 * (time.perf_counter() - t0))
    return round(statistics.median(times), 3)


def method_times(training, probe: StepProbe, bundle, split, method: str, epochs: int) -> dict:
    """ms and faults per epoch of `REPEATS` `train_ssl` runs of `method`,
    with `probe` on `training`."""
    cfg = training.TrainConfig(method=method, epochs=epochs, seed=0)
    runs, faults = [], []
    for _ in range(REPEATS):
        probe.reset()
        report = training.train_ssl(bundle.hypergraph, bundle.features, split, cfg)
        runs.append(round(1e3 * report.seconds_per_epoch, 3))
        faults.append(round(probe.faults_per_step(), 1))
    return {"method": method, "epochs": epochs, "ms_per_epoch": statistics.median(runs),
            "runs_ms": runs, "faults_per_epoch": faults}


def search_times(expansion, h, x, rng) -> dict:
    """ms per `extreme_pairs` call on n x 32 and n x 2 normal signals,
    drawn once from `rng`, which also draws the ties, and on the
    features `x`."""
    out = {"phase": "extreme_pairs"}
    for k in (32, 2):
        y = rng.normal(size=(h.n, k))
        out[f"search{k}_ms"] = median_ms(lambda: expansion.extreme_pairs(h, y, rng))
    out["feature_dims"] = x.shape[1]
    out["search_features_ms"] = median_ms(lambda: expansion.extreme_pairs(h, x, rng))
    return out


def phase_times(expansion, nn, h, x, rng) -> list[dict]:
    """One dict per rule and per factored rule: the ms of each phase, with
    the extreme-pair result (drawn once from `rng`) held fixed."""
    ext = expansion.extreme_pairs(h, x, rng)
    cols = {k: rng.normal(size=(h.n, k)) for k in (32, 2)}
    search, expansion.extreme_pairs = expansion.extreme_pairs, lambda *_: ext
    rules = {"one-edge": lambda: expansion.expand_one_edge(h, x, None),
             "mediators": lambda: expansion.expand_mediators(h, x, None),
             "clique": lambda: expansion.expand_clique(h)}
    factored = {"mediators": lambda: expansion.mediator_adjacency(h, x, None),
                "clique": lambda: expansion.clique_adjacency(h)}
    out = []
    try:
        for rule, expand in rules.items():
            g = expand()
            a = expansion.normalize(g)
            out.append({"rule": rule, "expand_ms": median_ms(expand),
                        "normalize_ms": median_ms(lambda: expansion.normalize(g)),
                        **{f"spmm{k}_ms": median_ms(lambda: nn.spmm(a, y))
                           for k, y in cols.items()}})
        for rule, build in factored.items():
            a = build()
            out.append({"factored": rule, "build_ms": median_ms(lambda: build().dinv),
                        **{f"spmm{k}_ms": median_ms(lambda: nn.spmm(a, y))
                           for k, y in cols.items()}})
    finally:
        expansion.extreme_pairs = search
    return out


def densek_phases(densek, expansion, samples, rng) -> list[dict]:
    """The DkSH step's fixed costs on `samples`: µs per `hindsight_loss`
    call, with n x 8 normal logits drawn once from `rng`, and ms per
    `extreme_pairs` pass over the samples' input features."""
    losses = [(rng.normal(size=(h.n, 8)), t.astype(float).reshape(-1, 1))
              for h, t in samples]
    inputs = [(h, densek.vertex_features(h)) for h, _ in samples]

    def search():
        for h, x in inputs:
            expansion.extreme_pairs(h, x, rng)

    loss_ms = median_ms(lambda: [densek.hindsight_loss(z, t) for z, t in losses])
    return [{"densek_phase": "hindsight_loss", "samples": len(samples),
             "us_per_call": round(1e3 * loss_ms / len(samples), 2)},
            {"densek_phase": "extreme_pairs", "samples": len(samples),
             "ms_per_pass": median_ms(search)}]


def densek_times(densek, training, probe: StepProbe, samples, method: str) -> dict:
    """µs per DkSH `fit_step` of `method` over `REPEATS` `train_densek` runs."""
    cfg = training.TrainConfig(method=method, epochs=DENSEK_EPOCHS[method], seed=0)
    runs = []
    for _ in range(REPEATS):
        probe.reset()
        densek.train_densek(samples, cfg, maps=8)
        runs.append(round(1e6 * probe.seconds / len(probe.faults), 1))
    return {"densek": method, "samples": len(samples), "epochs": cfg.epochs,
            "us_per_step": statistics.median(runs), "runs_us": runs}


def measurements(src: Path, alias: str, sizes: list[int], methods: list[str] | None):
    """Load tree `src` as `alias`; yield each measurement on it in print order,
    a function that times afresh on each call and returns its lines. Instances
    are drawn as the generator reaches them: use each before the next."""
    tree = load_tree(src, alias)
    dataio, densek, expansion, nn, training = (getattr(tree, name) for name in MODULES)
    probe = StepProbe(training)
    yield lambda: [import_times(src)]
    for n in sizes:
        kwargs, budget, epochs = INSTANCES[n]
        bundle = dataio.gen_noisy_ssl(0.5, np.random.default_rng(7), **kwargs)
        split = dataio.balanced_split_labels(bundle.labels, budget, nn.rng_streams(0).split)
        h, x = bundle.hypergraph, bundle.features
        for method in methods or training.METHODS:
            yield lambda: [{"n": n, **method_times(training, probe, bundle, split, method, epochs)}]
        yield lambda: [{"n": n, **search_times(expansion, h, x, np.random.default_rng(0)),
                        "repeats": PHASE_REPEATS}]
        yield lambda: [{"n": n, **line, "repeats": PHASE_REPEATS}
                       for line in phase_times(expansion, nn, h, x, np.random.default_rng(0))]
    learned = [method for method in DENSEK_EPOCHS if not methods or method in methods]
    if learned:
        rng = np.random.default_rng(7)
        samples = [densek.gen_sample(int(s), 3 * int(s) // 4, 0.75, rng)
                   for s in rng.integers(100, 301, size=100)]
        yield lambda: densek_phases(densek, expansion, samples, np.random.default_rng(0))
    for method in learned:
        yield lambda: [densek_times(densek, training, probe, samples, method)]


# the fields of a line that name what it times, in the order they are named
LABELS = ("n", "method", "phase", "rule", "factored", "densek_phase", "densek")


def timings(lines: list[dict]) -> dict[str, float]:
    """The timings of one measurement's lines, keyed "<labels> <field>"."""
    return {" ".join(f"{k}={line[k]}" for k in LABELS if k in line) + f" {key}": value
            for line in lines for key, value in line.items()
            if isinstance(value, float) and (key.endswith("_ms") or key.startswith(("ms_", "us_")))}


def compare(measures, rounds: int) -> dict:
    """Call each (parent, change) pair of measurements once per tree in each
    of `rounds` rounds, the parent first in even rounds, and print each
    timing's ratios as its rounds end. Returns every timing's summary."""
    summary = {}
    for pair in measures:
        runs = ([], [])
        for i in range(rounds):
            for side in (0, 1) if i % 2 == 0 else (1, 0):
                runs[side].append(timings(pair[side]()))
        for name in runs[1][0]:
            parent, change = ([r[name] for r in side] for side in runs)
            ratios = [c / p for c, p in zip(change, parent) if p > 0]
            q = np.percentile(ratios, [0, 25, 50, 75, 100]).round(4).tolist() if ratios else [None] * 5
            line = {"parent_median": round(statistics.median(parent), 4),
                    "change_median": round(statistics.median(change), 4), "ratio_median": q[2],
                    "ratio_quartiles": [q[1], q[3]], "ratio_range": [q[0], q[4]],
                    "change_lower_rounds": f"{sum(c < p for c, p in zip(change, parent))}/{rounds}"}
            print(json.dumps({"line": name, **line}), flush=True)
            summary[name] = {"parent": parent, "change": change, **line}
    return summary


def src_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "hypergcn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", type=Path, default=ROOT / "src")
    p.add_argument("--sizes", type=int, nargs="+", default=[1000, 20000],
                   choices=sorted(INSTANCES))
    p.add_argument("--methods", nargs="+", default=None,
                   help="methods to time (default: all of training.METHODS)")
    p.add_argument("--against", type=Path, default=None,
                   help="the parent's source tree: time it against --src's in one process")
    p.add_argument("--pairs", type=int, default=10, help="rounds of each measurement")
    args = p.parse_args()
    trees = {"parent": args.against, "change": args.src} if args.against else {"change": args.src}
    measures = zip(*(measurements(src, f"hypergcn_{side}", args.sizes, args.methods)
                     for side, src in trees.items()))
    if args.against:
        summary = compare(measures, args.pairs)
        print(json.dumps({"epoch_times": {
            "command": " ".join(["python3", "scripts/epoch_times.py", *sys.argv[1:]]),
            "protocol": f"{args.pairs} rounds in one process, each measurement once per tree "
                        f"in a round (even rounds: parent first); ratios of unscaled readings",
            "src_sha256": {side: src_digest(src) for side, src in trees.items()},
            "summary": summary}}))
        return 0
    reference = Reference()
    host = reference.sample()
    for (measure,) in measures:
        for line in measure():
            after = reference.sample()
            line["host_s"], host = round((host + after) / 2, 6), after
            print(json.dumps(line), flush=True)
    print(json.dumps({"src_sha256": src_digest(args.src), "python": platform.python_version(),
                      "numpy": np.__version__, "scipy": scipy.__version__,
                      "affinity": len(os.sched_getaffinity(0))}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
