"""Per-method training time and page faults per epoch at n=1000 and at n=20k.

    python3 scripts/epoch_times.py [--src DIR] [--sizes 1000 20000] [--methods M ...]
                                   [--against DIR [--pairs N]]

First it times the cold start: `import hypergcn.cli` in `IMPORTS` (5)
fresh interpreters on `--src`, one line with the median ms of the whole
import statement (`import_ms`: numpy, scipy.sparse and the package) and
of `import hypergcn.cli` alone after `import hypergcn` (`cli_import_ms`),
and whether the import loaded `scipy.special`.

Then it times `train_ssl` for every method (or those given with
`--methods`) on two fixed instances: the default noisy benchmark,
`gen_noisy_ssl(0.5, default_rng(7))` (n=1000, 500 hyperedges, 256
feature dims, budget 100, 50 epochs), and the 20k instance
`gen_noisy_ssl(0.5, default_rng(7), n=20000, pure=2000, noisy=8000,
feat_dim=64)` (10k hyperedges of sizes 5 and 20, budget 2000, 10
epochs). The time is `TrainReport.seconds_per_epoch`, the training loop
(`training.fit`) alone; each method runs `REPEATS` (3) times on trial
seed 0 and the median is reported. The first run in a process also pays
one-time warm-up.
Each line also gives every run's minor page faults per epoch
(`ru_minflt`), counted from the end of the first optimizer step to the
end of the last, so a run's one-time expansion and first touch of its
buffers are left out. The first run of the first method is the only one
in a process that no earlier run has warmed.

After the methods of each n it times `extreme_pairs` on n x 32 and n x 2
normal signals, the widths that a `hypergcn` epoch searches (hidden
layer and classes), and on the instance's features (`feature_dims`: 256
at n=1000, 64 at n=20k), the one search of `fast-hypergcn` and
`mlp-hlr`, median ms of `PHASE_REPEATS` calls, in one line.
Then it times the expansion phases on that
instance's features, one line per rule (one-edge, mediators, clique):
the rule's expansion with the extreme-pair result held fixed (computed
once, then returned by a stub, so only pair emission and accumulation
are timed), `normalize` of its graph and `nn.spmm` with the normalized
CSR on 32 and on 2 columns, medians of `PHASE_REPEATS` (11) runs in ms.
One more line per factored rule (mediators, clique) gives the same for
the incidence-factored adjacencies: the build and its degrees
(`mediator_adjacency` with the same stub, `clique_adjacency`, then
`.dinv`) and `nn.spmm` on 32 and on 2 columns.

Then it times the DkSH solver's optimizer step (`training.fit_step`, µs per
call; for hypergcn it includes the per-layer re-expansion) for
fast-hypergcn and hypergcn (those of them in `--methods`) on 100 samples
of the `densek-planted` shape: n uniform in 100..300, k = 3n/4, p = 0.75,
8 maps, 20 epochs for fast-hypergcn and 2 for hypergcn, median of
`REPEATS` runs. Before them, two lines split the step's fixed costs on
the same samples, medians of `PHASE_REPEATS` runs: µs per
`densek.hindsight_loss` call on each sample's n x 8 normal logits, and
ms per `extreme_pairs` pass over the samples' input features (the
first run builds each hypergraph's cached pair list).

BLAS runs one thread. `--src` picks the source tree to import, so that
two trees can be timed by one script. `--sizes 60` adds a tiny instance
(`gen_noisy_ssl(0.5, default_rng(7), n=60, pure=6, noisy=24,
feat_dim=16)`, budget 10, 5 epochs) for smoke tests.

Prints one JSON line for the import, one per (n, method), per n for the
search, per (n, rule), per (n, factored rule), per DkSH phase and per
DkSH method, then one with the environment. Each line but the last
carries `host_s`: the time of one pass of `bench/reference.py`'s kernel,
the mean of its readings just before and just after the line's
measurements, as `bench/run.py` reads the host's speed around each op. The kernel runs between lines, outside
every timed or fault-counted region.

`--against DIR` compares two trees: `--src` (the change) and DIR (the
parent, another source tree). It runs this script on each, in a fresh
process, for `--pairs` pairs (10), alternating which goes first (the
parent in even pairs). Every timing (the fields that end in `_ms` or
start with `ms_` or `us_`) is scaled to a host that runs the reference
kernel in `NOMINAL_S`: reading · NOMINAL_S / host_s. It prints one JSON
line per timing with both trees' medians, the median and range of the
per-pair ratios (change over parent) and in how many pairs the change
was lower, then one line holding them all, each with its per-pair
readings, in the `epoch_times` shape of the `BENCH_*.json` files.
"""

from __future__ import annotations

import argparse
import hashlib
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

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from reference import NOMINAL_S, Reference  # noqa: E402

REPEATS = 3
PHASE_REPEATS = 11
IMPORTS = 5
PAIRS = 10
# n -> (gen_noisy_ssl keyword arguments, label budget, epochs)
INSTANCES = {
    60: ({"n": 60, "pure": 6, "noisy": 24, "feat_dim": 16}, 10, 5),
    1000: ({}, 100, 50),
    20000: ({"n": 20000, "pure": 2000, "noisy": 8000, "feat_dim": 64}, 2000, 10),
}
DENSEK_EPOCHS = {"fast-hypergcn": 20, "hypergcn": 2}


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
    """One dict per rule and per factored rule:
    the ms of each phase, with the extreme-pair result (drawn once from
    `rng`) held fixed."""
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


# the fields of a line that name what it times, in the order they are named
LABELS = ("n", "method", "phase", "rule", "factored", "densek_phase", "densek")


def readings(stdout: str) -> tuple[dict[str, float], str]:
    """One run's timings, each scaled by its line's `host_s` to a host that
    runs the reference kernel in `NOMINAL_S`, keyed "<labels> <field>";
    and the run's `src_sha256`."""
    out, digest = {}, ""
    for line in map(json.loads, stdout.splitlines()):
        digest = line.get("src_sha256", digest)
        name = " ".join(f"{k}={line[k]}" for k in LABELS if k in line)
        for key, value in line.items():
            if isinstance(value, float) and (key.endswith("_ms") or key.startswith(("ms_", "us_"))):
                out[f"{name} {key}"] = value * NOMINAL_S / line["host_s"]
    return out, digest


def compare(trees: dict[str, Path], argv: list[str], pairs: int) -> dict:
    """Run this script with `argv` on the "parent" and "change" source
    trees in alternating fresh processes, `pairs` times each, and pair
    their host-adjusted timings."""
    runs = {"parent": [], "change": []}
    digests = {}
    for i in range(pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            out = subprocess.run([sys.executable, __file__, "--src", str(trees[side]), *argv],
                                 capture_output=True, text=True, check=True).stdout
            timings, digests[side] = readings(out)
            runs[side].append(timings)
    summary = {}
    for name in runs["change"][0]:
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        ratios = [c / p for c, p in zip(change, parent) if p > 0]
        summary[name] = {
            "parent": [round(v, 4) for v in parent], "change": [round(v, 4) for v in change],
            "parent_median": round(statistics.median(parent), 4),
            "change_median": round(statistics.median(change), 4),
            "ratio_median": round(statistics.median(ratios), 4) if ratios else None,
            "ratio_range": [round(min(ratios), 4), round(max(ratios), 4)] if ratios else None,
            "change_lower_pairs": f"{sum(c < p for c, p in zip(change, parent))}/{pairs}"}
    return {"command": f"python3 scripts/epoch_times.py {' '.join(argv)} --src <tree>",
            "protocol": f"{pairs} alternating pairs of fresh processes (even index: parent "
                        f"first); every timing scaled by bench/reference.py's kernel read around "
                        f"its line, to a host that runs it in {NOMINAL_S} s",
            "src_sha256": digests, "summary": summary}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", type=Path, default=ROOT / "src")
    p.add_argument("--sizes", type=int, nargs="+", default=[1000, 20000],
                   choices=sorted(INSTANCES))
    p.add_argument("--methods", nargs="+", default=None,
                   help="methods to time (default: all of training.METHODS)")
    p.add_argument("--against", type=Path, default=None,
                   help="the parent's source tree: pair its timings with --src's")
    p.add_argument("--pairs", type=int, default=PAIRS)
    args = p.parse_args()
    if args.against is not None:
        argv = ["--sizes", *map(str, args.sizes)] + (["--methods", *args.methods]
                                                     if args.methods else [])
        result = compare({"parent": args.against, "change": args.src}, argv, args.pairs)
        for name, line in result["summary"].items():
            print(json.dumps({"line": name, **{k: v for k, v in line.items()
                                               if k not in ("parent", "change")}}), flush=True)
        print(json.dumps({"epoch_times": result}))
        return 0
    sys.path.insert(0, str(args.src.resolve()))
    import numpy as np
    import scipy

    from hypergcn import dataio, densek, expansion, nn, training

    reference = Reference()
    host = reference.sample()

    def emit(line: dict) -> None:
        """Print `line` with the reference kernel's time around it."""
        nonlocal host
        after = reference.sample()
        line["host_s"], host = round((host + after) / 2, 6), after
        print(json.dumps(line), flush=True)

    emit(import_times(args.src.resolve()))
    probe = StepProbe(training)
    for n in args.sizes:
        kwargs, budget, epochs = INSTANCES[n]
        bundle = dataio.gen_noisy_ssl(0.5, np.random.default_rng(7), **kwargs)
        split = dataio.balanced_split_labels(bundle.labels, budget, nn.rng_streams(0).split)
        for method in args.methods or training.METHODS:
            cfg = training.TrainConfig(method=method, epochs=epochs, seed=0)
            runs, faults = [], []
            for _ in range(REPEATS):
                probe.reset()
                runs.append(1e3 * training.train_ssl(bundle.hypergraph, bundle.features,
                                                     split, cfg).seconds_per_epoch)
                faults.append(probe.faults_per_step())
            emit({"n": n, "method": method, "epochs": epochs,
                  "ms_per_epoch": round(statistics.median(runs), 3),
                  "runs_ms": [round(r, 3) for r in runs],
                  "faults_per_epoch": [round(f, 1) for f in faults]})
        emit({"n": n, **search_times(expansion, bundle.hypergraph, bundle.features,
                                     np.random.default_rng(0)),
              "repeats": PHASE_REPEATS})
        for line in phase_times(expansion, nn, bundle.hypergraph, bundle.features,
                                np.random.default_rng(0)):
            emit({"n": n, **line, "repeats": PHASE_REPEATS})

    rng = np.random.default_rng(7)
    samples = [densek.gen_sample(int(s), 3 * int(s) // 4, 0.75, rng)
               for s in rng.integers(100, 301, size=100)]
    if not args.methods or set(args.methods) & set(DENSEK_EPOCHS):
        for line in densek_phases(densek, expansion, samples, np.random.default_rng(0)):
            emit(line)
    for method in DENSEK_EPOCHS:
        if args.methods and method not in args.methods:
            continue
        cfg = training.TrainConfig(method=method, epochs=DENSEK_EPOCHS[method], seed=0)
        runs = []
        for _ in range(REPEATS):
            probe.reset()
            densek.train_densek(samples, cfg, maps=8)
            runs.append(1e6 * probe.seconds / len(probe.faults))
        emit({"densek": method, "samples": len(samples), "epochs": cfg.epochs,
              "us_per_step": round(statistics.median(runs), 1),
              "runs_us": [round(r, 1) for r in runs]})

    digest = hashlib.sha256()
    for path in sorted((args.src / "hypergcn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    print(json.dumps({"src_sha256": digest.hexdigest(), "python": platform.python_version(),
                      "numpy": np.__version__, "scipy": scipy.__version__,
                      "affinity": len(os.sched_getaffinity(0))}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
