"""The benchmark's workloads: inputs from a seed, one op, and its checks.

Each workload is a parameter object with four steps:

* `prepare(seed, workdir)` writes the inputs a user would have on disk
  (not timed);
* `setup(seed, workdir)` is what `setup_s` times after the import:
  `load_bundle` for SSL, `gen_sample` for DkSH;
* `op(state, trial)` is one closed-loop operation; `trial` seeds its
  split or model and comes from the run seed and the op's index. It
  returns the op's optimizer step count and raw outputs;
* `check(state, outputs)` returns (problems, quality, detail).

Ops reach hypergcn only through module attributes (`training.train_ssl`,
`densek.train_densek`, ...) so the tracer's wrappers see every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hypergcn import dataio, densek, nn, training

MEDIATOR_METHODS = ("hypergcn", "one-hypergcn", "fast-hypergcn", "mlp-hlr")
PER_EPOCH_METHODS = ("hypergcn", "one-hypergcn")


def trial_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


@dataclass(frozen=True)
class SslWorkload:
    """Noisy two-class SSL benchmark; one op is one trial of the paper's
    protocol: a class-balanced split, then `train_ssl` per method."""

    n: int
    pure: int
    noisy: int
    feat_dim: int
    budget: int
    methods: tuple[str, ...]
    epochs: int = 50
    eta: float = 0.5
    pure_size: int = 5
    noisy_size: int = 20

    kind = "ssl"

    def prepare(self, seed: int, workdir: Path) -> None:
        bundle = dataio.gen_noisy_ssl(
            self.eta, np.random.default_rng(seed), n=self.n, pure=self.pure,
            noisy=self.noisy, pure_size=self.pure_size, noisy_size=self.noisy_size,
            feat_dim=self.feat_dim,
        )
        dataio.save_bundle(bundle, workdir / "data")

    def setup(self, seed: int, workdir: Path):
        return dataio.load_bundle(workdir / "data")

    def fingerprint(self, state) -> list[int]:
        return [state.hypergraph.n, state.hypergraph.m, int(state.features.shape[1])]

    def op(self, bundle, trial: int):
        streams = nn.rng_streams(trial)
        split = dataio.balanced_split_labels(bundle.labels, self.budget, streams.split)
        reports = [
            training.train_ssl(
                bundle.hypergraph, bundle.features, split,
                training.TrainConfig(method=m, epochs=self.epochs, seed=trial),
            )
            for m in self.methods
        ]
        return self.epochs * len(self.methods), (split, reports)

    def check(self, bundle, outputs):
        split, reports = outputs
        sizes = bundle.hypergraph.edge_sizes()
        n_m = int((2 * sizes - 3).sum())
        n_c = int((sizes * (sizes - 1) // 2).sum())
        problems = []
        if split.train_idx.size != self.budget:
            problems.append(f"split has {split.train_idx.size} labelled vertices")
        for r in reports:
            tag = r.method
            if len(r.losses) != self.epochs:
                problems.append(f"{tag}: {len(r.losses)} losses for {self.epochs} epochs")
            if not all(math.isfinite(x) for x in r.losses):
                problems.append(f"{tag}: non-finite loss")
            if not 0.0 <= r.test_error <= 100.0:
                problems.append(f"{tag}: test_error {r.test_error}")
            if r.edge_counts.get("N_m") != n_m or r.edge_counts.get("N_c") != n_c:
                problems.append(f"{tag}: edge_counts {r.edge_counts} != N_m {n_m}, N_c {n_c}")
            if tag in MEDIATOR_METHODS and not 0 < r.adjacency_pairs <= n_m:
                problems.append(f"{tag}: {r.adjacency_pairs} pairs outside (0, N_m={n_m}]")
            if tag == "hgnn" and not 0 < r.adjacency_pairs <= n_c:
                problems.append(f"{tag}: {r.adjacency_pairs} pairs outside (0, N_c={n_c}]")
            if tag in PER_EPOCH_METHODS and r.expansions != 2 * (self.epochs + 1):
                problems.append(f"{tag}: {r.expansions} expansions, expected "
                                f"{2 * (self.epochs + 1)}")
        errors = {r.method: r.test_error for r in reports}
        quality = 1.0 - float(np.mean(list(errors.values()))) / 100.0
        detail = {"test_error_pct": errors,
                  "adjacency_pairs": {r.method: r.adjacency_pairs for r in reports}}
        return problems, quality, detail


@dataclass(frozen=True)
class DenseKState:
    instances: list[densek.DenseKInstance]
    planted_densities: list[int]
    samples: list


@dataclass(frozen=True)
class DenseKWorkload:
    """Learned DkSH solver on held-out planted instances, with the two
    greedy baselines on the same instances. Several instances, so that
    the density ratio depends less on the one instance a seed draws."""

    n: int = 1000
    k: int = 750
    p: float = 0.75
    held_out: int = 4
    samples: int = 100
    min_size: int = 100
    max_size: int = 300
    maps: int = 8
    epochs: int = 50
    method: str = "fast-hypergcn"

    kind = "densek"

    def prepare(self, seed: int, workdir: Path) -> None:
        pass

    def setup(self, seed: int, workdir: Path) -> DenseKState:
        rng = np.random.default_rng(seed)
        instances, planted = [], []
        for _ in range(self.held_out):
            h, target = densek.gen_sample(self.n, self.k, self.p, rng)
            instances.append(densek.DenseKInstance(hypergraph=h, k=self.k))
            planted.append(densek.density(h, np.flatnonzero(target)))
        sizes = rng.integers(self.min_size, self.max_size + 1, size=self.samples)
        samples = [densek.gen_sample(int(s), (3 * int(s)) // 4, self.p, rng) for s in sizes]
        return DenseKState(instances, planted, samples)

    def fingerprint(self, state: DenseKState) -> list[int]:
        return [sum(inst.hypergraph.m for inst in state.instances),
                sum(state.planted_densities), sum(h.m for h, _ in state.samples)]

    def op(self, state: DenseKState, trial: int):
        cfg = training.TrainConfig(method=self.method, epochs=self.epochs, seed=trial)
        model = densek.train_densek(state.samples, cfg, maps=self.maps)
        sets = [{
            "learned": densek.solve_learned(model, inst, seed=trial),
            "max_degree": densek.max_degree(inst),
            "remove_min_degree": densek.remove_min_degree(inst),
        } for inst in state.instances]
        return len(state.samples) * self.epochs, (model, sets)

    def check(self, state: DenseKState, outputs):
        model, per_instance = outputs
        problems = []
        trace = model.loss_trace or []
        if len(trace) != self.epochs:
            problems.append(f"{len(trace)} epoch losses for {self.epochs} epochs")
        if not all(math.isfinite(x) for x in trace):
            problems.append("non-finite hindsight loss")
        ratios: dict[str, list[float]] = {}
        for inst, planted, sets in zip(state.instances, state.planted_densities, per_instance):
            h, k = inst.hypergraph, inst.k
            for name, chosen in sets.items():
                ids = np.asarray(chosen, dtype=np.int64)
                if ids.size != k or np.unique(ids).size != k:
                    problems.append(f"{name}: {ids.size} ids, {np.unique(ids).size} distinct, "
                                    f"k={k}")
                if ids.size and (ids.min() < 0 or ids.max() >= h.n):
                    problems.append(f"{name}: id outside [0, {h.n})")
                ratios.setdefault(name, []).append(densek.density(h, ids.tolist()) / planted)
        if len(per_instance) != len(state.instances):
            problems.append(f"{len(per_instance)} solutions for {len(state.instances)} instances")
        detail = {"density_ratio": ratios, "planted_density": state.planted_densities}
        return problems, float(np.mean(ratios.get("learned", [0.0]))), detail


WORKLOADS = {
    # Per-epoch re-expansion by hypergcn and one-hypergcn makes `expansion`
    # most of the op; all six methods keep every expansion path covered.
    # 20 epochs, not the paper's 200, so that a run holds a dozen ops.
    "noisy1k-all": SslWorkload(n=1000, pure=100, noisy=400, feat_dim=256, budget=100,
                               methods=training.METHODS, epochs=20),
    # 20k tiny spmm calls per op: per-call overhead in `nn`, plus the
    # combinatorial solvers in `densek`. fast-hypergcn, so that giving
    # hypergcn per-epoch re-expansion later does not read as a regression.
    "densek-planted": DenseKWorkload(),
}

# Same code paths at n of about 60, for the self-test.
TINY = {
    "noisy1k-all": SslWorkload(n=60, pure=6, noisy=24, feat_dim=16, budget=10,
                               methods=training.METHODS, epochs=5),
    "densek-planted": DenseKWorkload(n=60, k=45, samples=4, min_size=20, max_size=40,
                                     maps=4, epochs=5),
}


def from_params(kind: str, params: dict):
    cls = SslWorkload if kind == "ssl" else DenseKWorkload
    if "methods" in params:
        params = {**params, "methods": tuple(params["methods"])}
    return cls(**params)
