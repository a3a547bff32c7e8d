"""Time one cold set-up in a fresh interpreter: import hypergcn, then the
workload's `setup` (load_bundle, or gen_sample for DkSH).

    python3 bench/setup_probe.py <src dir> <kind> <params json> <seed> <workdir>

Prints {"setup_s": ..., "reference_s": ..., "fingerprint": [...]} on
stdout, where `reference_s` is a reading of the reference kernel taken
right after the set-up, in the same process. `run.py` starts several of
these one after another and reports the median of their host-adjusted
times.
"""

import json
import os
import sys
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"


def main() -> int:
    src, kind, params, seed, workdir = sys.argv[1:6]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import hypergcn  # noqa: F401  (timed: part of set-up)
    import workloads

    spec = workloads.from_params(kind, json.loads(params))
    state = spec.setup(int(seed), Path(workdir))
    elapsed = time.perf_counter() - t0
    from reference import Reference

    print(json.dumps({"setup_s": elapsed, "reference_s": Reference().sample(),
                      "fingerprint": spec.fingerprint(state)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
