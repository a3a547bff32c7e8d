"""Per-method training time and page faults per epoch at n=1000 and at n=20k.

    python3 scripts/epoch_times.py [--src DIR] [--sizes 1000 20000] [--methods M ...]

Times `train_ssl` for every method (or those given with `--methods`) on
two fixed instances: the default noisy benchmark,
`gen_noisy_ssl(0.5, default_rng(7))` (n=1000, 500 hyperedges, 256
feature dims, budget 100, 50 epochs), and the 20k instance
`gen_noisy_ssl(0.5, default_rng(7), n=20000, pure=2000, noisy=8000,
feat_dim=64)` (10k hyperedges of sizes 5 and 20, budget 2000, 10
epochs). The time is `TrainReport.seconds_per_epoch`, the training loop
alone; each method runs `REPEATS` (3) times on trial seed 0 and the
median is reported. The first run in a process also pays one-time warm-up.
Each line also gives every run's minor page faults per epoch
(`ru_minflt`), counted from the end of the first optimizer step to the
end of the last, so a run's one-time expansion and first touch of its
buffers are left out. The first run of the first method is the only one
in a process that no earlier run has warmed.

After the methods of each n it times the expansion phases on that
instance's features, one line per rule (one-edge, mediators, clique):
the rule's expansion with the extreme-pair result held fixed (computed
once, then returned by a stub, so only pair emission and accumulation
are timed), `normalize` of its graph and `nn.spmm` with the normalized
CSR on 32 and on 2 columns, medians of `PHASE_REPEATS` (11) runs in ms.
If the tree has the incidence-factored adjacencies, one more line per
factored rule (mediators, clique) gives the same for them: the build
(`mediator_adjacency` with the same stub, `clique_adjacency`) and
`nn.spmm` on 32 and on 2 columns.

Then it times the DkSH solver's optimizer step (`densek.fit_step`, µs per
call; for hypergcn it includes the per-layer re-expansion) for
fast-hypergcn and hypergcn (those of them in `--methods`) on 100 samples
of the `densek-planted` shape: n uniform in 100..300, k = 3n/4, p = 0.75,
8 maps, 20 epochs for fast-hypergcn and 2 for hypergcn, median of
`REPEATS` runs. Before them, two lines split the step's fixed costs on
the same samples, medians of `PHASE_REPEATS` runs: µs per
`densek.hindsight_loss` call on each sample's n x 8 normal logits, and
ms per `extreme_pairs` pass over the samples' input features (the
first run builds each hypergraph's cached size groups).

BLAS runs one thread. `--src` picks the source tree to import, so that
two trees can be timed by one script.

Prints one JSON line per (n, method), per (n, rule), per (n, factored
rule), per DkSH phase and per DkSH method, then one with the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

# Pinned before numpy is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 3
PHASE_REPEATS = 11
# n -> (gen_noisy_ssl keyword arguments, label budget, epochs)
INSTANCES = {
    1000: ({}, 100, 50),
    20000: ({"n": 20000, "pure": 2000, "noisy": 8000, "feat_dim": 64}, 2000, 10),
}
DENSEK_EPOCHS = {"fast-hypergcn": 20, "hypergcn": 2}


class StepProbe:
    """Wraps a module's `fit_step`: minor faults and wall time after each call."""

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


def median_ms(run) -> float:
    """Median ms of `PHASE_REPEATS` calls of `run`."""
    times = []
    for _ in range(PHASE_REPEATS):
        t0 = time.perf_counter()
        run()
        times.append(1e3 * (time.perf_counter() - t0))
    return round(statistics.median(times), 3)


def phase_times(expansion, nn, h, x, rng) -> list[dict]:
    """One dict per rule and, where the tree has them, per factored rule:
    the ms of each phase, with the extreme-pair result (drawn once from
    `rng`) held fixed."""
    ext = expansion.extreme_pairs(h, x, rng)
    cols = {k: rng.normal(size=(h.n, k)) for k in (32, 2)}
    search, expansion.extreme_pairs = expansion.extreme_pairs, lambda *_: ext
    rules = {"one-edge": lambda: expansion.expand_one_edge(h, x, None),
             "mediators": lambda: expansion.expand_mediators(h, x, None),
             "clique": lambda: expansion.expand_clique(h)}
    factored = {"mediators": lambda: expansion.mediator_adjacency(h, x, None),
                "clique": lambda: expansion.clique_adjacency(h),
                } if hasattr(expansion, "clique_adjacency") else {}
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
            out.append({"factored": rule, "build_ms": median_ms(build),
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


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", type=Path, default=ROOT / "src")
    p.add_argument("--sizes", type=int, nargs="+", default=sorted(INSTANCES),
                   choices=sorted(INSTANCES))
    p.add_argument("--methods", nargs="+", default=None,
                   help="methods to time (default: all of training.METHODS)")
    args = p.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    import numpy as np
    import scipy

    from hypergcn import dataio, densek, expansion, nn, training

    ssl_probe = StepProbe(training)
    for n in args.sizes:
        kwargs, budget, epochs = INSTANCES[n]
        bundle = dataio.gen_noisy_ssl(0.5, np.random.default_rng(7), **kwargs)
        split = dataio.balanced_split_labels(bundle.labels, budget, nn.rng_streams(0).split)
        for method in args.methods or training.METHODS:
            cfg = training.TrainConfig(method=method, epochs=epochs, seed=0)
            runs, faults = [], []
            for _ in range(REPEATS):
                ssl_probe.reset()
                runs.append(1e3 * training.train_ssl(bundle.hypergraph, bundle.features,
                                                     split, cfg).seconds_per_epoch)
                faults.append(ssl_probe.faults_per_step())
            print(json.dumps({"n": n, "method": method, "epochs": epochs,
                              "ms_per_epoch": round(statistics.median(runs), 3),
                              "runs_ms": [round(r, 3) for r in runs],
                              "faults_per_epoch": [round(f, 1) for f in faults]}), flush=True)
        for line in phase_times(expansion, nn, bundle.hypergraph, bundle.features,
                                np.random.default_rng(0)):
            print(json.dumps({"n": n, **line, "repeats": PHASE_REPEATS}), flush=True)

    rng = np.random.default_rng(7)
    samples = [densek.gen_sample(int(s), 3 * int(s) // 4, 0.75, rng)
               for s in rng.integers(100, 301, size=100)]
    if not args.methods or set(args.methods) & set(DENSEK_EPOCHS):
        for line in densek_phases(densek, expansion, samples, np.random.default_rng(0)):
            print(json.dumps(line), flush=True)
    densek_probe = StepProbe(densek)
    for method in DENSEK_EPOCHS:
        if args.methods and method not in args.methods:
            continue
        cfg = training.TrainConfig(method=method, epochs=DENSEK_EPOCHS[method], seed=0)
        runs = []
        for _ in range(REPEATS):
            densek_probe.reset()
            densek.train_densek(samples, cfg, maps=8)
            runs.append(1e6 * densek_probe.seconds / len(densek_probe.faults))
        print(json.dumps({"densek": method, "samples": len(samples), "epochs": cfg.epochs,
                          "us_per_step": round(statistics.median(runs), 1),
                          "runs_us": [round(r, 1) for r in runs]}), flush=True)

    digest = hashlib.sha256()
    for path in sorted((args.src / "hypergcn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    print(json.dumps({"src_sha256": digest.hexdigest(), "python": platform.python_version(),
                      "numpy": np.__version__, "scipy": scipy.__version__,
                      "affinity": len(os.sched_getaffinity(0))}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
