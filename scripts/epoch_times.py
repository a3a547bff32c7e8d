"""Per-method training time per epoch at n=1000 and at n=20k.

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
BLAS runs one thread. `--src` picks the source tree to import, so that
two trees can be timed by one script.

Prints one JSON line per (n, method), then one with the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
from pathlib import Path

# Pinned before numpy is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 3
# n -> (gen_noisy_ssl keyword arguments, label budget, epochs)
INSTANCES = {
    1000: ({}, 100, 50),
    20000: ({"n": 20000, "pure": 2000, "noisy": 8000, "feat_dim": 64}, 2000, 10),
}


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

    from hypergcn import dataio, nn, training

    for n in args.sizes:
        kwargs, budget, epochs = INSTANCES[n]
        bundle = dataio.gen_noisy_ssl(0.5, np.random.default_rng(7), **kwargs)
        split = dataio.balanced_split_labels(bundle.labels, budget, nn.rng_streams(0).split)
        for method in args.methods or training.METHODS:
            cfg = training.TrainConfig(method=method, epochs=epochs, seed=0)
            runs = [1e3 * training.train_ssl(bundle.hypergraph, bundle.features, split,
                                             cfg).seconds_per_epoch
                    for _ in range(REPEATS)]
            print(json.dumps({"n": n, "method": method, "epochs": epochs,
                              "ms_per_epoch": round(statistics.median(runs), 3),
                              "runs_ms": [round(r, 3) for r in runs]}), flush=True)

    digest = hashlib.sha256()
    for path in sorted((args.src / "hypergcn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    print(json.dumps({"src_sha256": digest.hexdigest(), "python": platform.python_version(),
                      "numpy": np.__version__, "scipy": scipy.__version__,
                      "affinity": len(os.sched_getaffinity(0))}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
