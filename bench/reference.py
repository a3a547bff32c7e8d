"""A fixed reference computation that measures how fast the host is now.

On a shared host the same op can take a third longer for minutes at a
time while neighbours are busy, and run-to-run spread then hides any
change in hypergcn itself. `run.py` times this kernel between ops and
scales each op's wall time by it, so the end-to-end times read as if the
host ran the kernel in `NOMINAL_S` seconds.

The kernel uses numpy and scipy only, never hypergcn, so a change to the
program cannot move it. Its inputs come from a fixed seed, not from the
run's seed. It mixes the kinds of work the workloads do:

* broadcast pairwise distances over same-size vertex groups, a 20 MB
  temporary bound by memory traffic (`extreme_pairs`);
* pair-keyed dict accumulation in Python (the expansions, `normalize`);
* a loop of small sparse and dense products with Adam-style updates,
  where per-call overhead dominates (`nn` at DkSH sizes);
* dense products at n=1000, p=256 and a COO-to-CSR build (`nn` and
  `normalize` at SSL sizes).
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

NOMINAL_S = 0.08
SEED = 12345


class Reference:
    def __init__(self) -> None:
        rng = np.random.default_rng(SEED)
        self.signal = rng.standard_normal((1000, 16))
        self.groups = rng.integers(0, 1000, size=(400, 20))
        self.pairs = [(int(u), int(v)) for u, v in rng.integers(0, 4000, size=(40000, 2))]
        self.adj = sp.random_array((300, 300), density=0.03, format="csr", rng=rng)
        self.x = rng.standard_normal((300, 16))
        self.w = rng.standard_normal((16, 16)) * 0.1
        self.dense = rng.standard_normal((1000, 256))
        self.dense_w = rng.standard_normal((256, 16))
        self.coo = (rng.random(40000), (rng.integers(0, 3000, 40000),
                                        rng.integers(0, 3000, 40000)))
        self.seconds()  # first-use costs stay out of the samples

    def seconds(self) -> float:
        """Wall time of one pass of the kernel."""
        t0 = time.perf_counter()
        iu, ju = np.triu_indices(self.groups.shape[1], k=1)
        for _ in range(3):
            pts = self.signal[self.groups]
            diff = pts[:, :, None, :] - pts[:, None, :, :]
            np.einsum("gabk,gabk->gab", diff, diff)[:, iu, ju].max(axis=1)
        pairs: dict[tuple[int, int], float] = {}
        for u, v in self.pairs:
            key = (u, v) if u < v else (v, u)
            pairs[key] = pairs.get(key, 0.0) + 0.5
        w, m, v = self.w.copy(), np.zeros_like(self.w), np.zeros_like(self.w)
        for _ in range(400):
            hidden = np.maximum(self.adj @ (self.x @ w), 0.0)
            grad = self.x.T @ (self.adj @ hidden) * 1e-3
            m = 0.9 * m + 0.1 * grad
            v = 0.999 * v + 0.001 * grad * grad
            w -= 1e-2 * m / (np.sqrt(v) + 1e-8)
        for _ in range(20):
            np.maximum(self.dense @ self.dense_w, 0.0)
        sp.coo_array(self.coo, shape=(3000, 3000)).tocsr().sum(axis=1)
        return time.perf_counter() - t0

    def sample(self, passes: int = 2) -> float:
        """Mean time of a few passes: one reading of the host's speed."""
        return sum(self.seconds() for _ in range(passes)) / passes
