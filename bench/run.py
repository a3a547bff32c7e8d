"""Benchmark entry point: one workload, one seed, one fresh process.

    python3 bench/run.py --workload noisy1k-all --seed 1 --seconds 50 --trace 0

Load comes from this one process and thread: a closed loop runs one op
at a time until `--seconds` have passed. A fixed reference kernel
(reference.py) is timed between ops, and each op's wall time is scaled
by it, so that the host's drifting speed cancels out of the op times.
With `--trace 0` the result holds the end-to-end metrics, measured with
no wrappers installed. With `--trace 1` it holds the per-layer metrics
of a traced run: each trial runs untraced and traced, so the two medians
give the tracing overhead, and a last op under the memory probe gives
the expansion peaks. See README.md for the workloads and what each
metric should move.

stdout ends with two JSON lines: a report (environment, parameters,
per-op detail, per-function table) and the result
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

# Pinned before numpy is imported, here and in every set-up probe.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

from reference import NOMINAL_S, Reference  # noqa: E402
from tracing import (  # noqa: E402
    COUNTER_UNITS, LAYERS, MEMORY_PROBED, REPORTED, SETUP_LAYERS, MemoryProbe, Tracer,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
WARM_UP_TRIAL = 999  # no timed op uses this trial index

END_TO_END = {
    "op_p50_adj_s": "s",
    "steps_per_adj_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "quality_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Name and unit of every per-layer metric, in report order."""
    units = {"traced_op_ms": "ms", "trace_overhead_pct": "%", "unattributed_share": "%"}
    units.update({f"{layer}.self_share": "%" for layer in LAYERS})
    for layer, names in REPORTED.items():
        for name in names:
            units[f"{layer}.{name}.self_share"] = "%"
            units[f"{layer}.{name}.calls"] = "count"
    units.update(COUNTER_UNITS)
    units.update({f"{q}.peak_mb": "MB" for q in MEMORY_PROBED})
    units["setup_traced_ms"] = "ms"
    units.update({f"setup.{layer}.self_share": "%" for layer in SETUP_LAYERS})
    return units


def load_program():
    """Import hypergcn from this checkout's src/, never from elsewhere."""
    if not (SRC / "hypergcn" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no hypergcn package under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import hypergcn

    if Path(hypergcn.__file__).resolve().parent != SRC / "hypergcn":
        sys.stderr.write(f"bench: hypergcn imported from {hypergcn.__file__}\n")
        sys.exit(2)


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "hypergcn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "HYPERGCN_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


@dataclass
class Op:
    label: str
    traced: bool
    ok: bool
    wall: float
    steps: int = 0
    quality: float | None = None
    detail: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    host: float = 0.0  # reference kernel seconds, sampled before and after


def run_op(spec, state, trial: int, label: str, recording=None, traced=False) -> Op:
    """Time one op (and only the op), then check its outputs. An op that
    raises or fails a check is returned with ok=False. `recording`, if
    given, is entered outside the timed region."""
    wall = 0.0
    try:
        with recording if recording is not None else nullcontext():
            t0 = time.perf_counter()
            try:
                steps, outputs = spec.op(state, trial)
            finally:
                wall = time.perf_counter() - t0
    except Exception as exc:  # a failing op is counted, not fatal
        return Op(label, traced, False, wall,
                  problems=[f"raised {type(exc).__name__}: {exc}"])
    try:
        problems, quality, detail = spec.check(state, outputs)
    except Exception as exc:  # an output the checks cannot read is wrong
        problems, quality, detail = [f"check raised {type(exc).__name__}: {exc}"], None, {}
    return Op(label, traced, not problems, wall, steps, quality, detail, problems)


def probe_setup(spec, seed: int, workdir: Path) -> tuple[list[float], list[float], list]:
    """Cold set-up times from fresh interpreters, run one at a time, and
    the reference reading each took after its set-up."""
    times, readings, prints = [], [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), spec.kind,
             json.dumps(asdict(spec)), str(seed), str(workdir)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(out["setup_s"])
        readings.append(out["reference_s"])
        prints.append(out["fingerprint"])
    return times, readings, prints


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def adjusted(op: Op) -> float:
    """The op's wall time on a host that runs the reference in NOMINAL_S."""
    return op.wall * NOMINAL_S / op.host


def end_to_end_metrics(ops: list[Op], setup_times: list[float], setup_readings: list[float],
                       peak_rss_mb: float) -> dict[str, float]:
    good = [op for op in ops if op.ok]
    return {
        "op_p50_adj_s": _median([adjusted(op) for op in good]),
        "steps_per_adj_s": _median([op.steps / adjusted(op) for op in good]),
        "setup_s": _median([t * NOMINAL_S / r for t, r in zip(setup_times, setup_readings)]),
        "peak_rss_mb": peak_rss_mb,
        "quality_ratio": statistics.fmean(op.quality for op in good) if good else 0.0,
    }


def per_layer_metrics(tracer, probe, ops: list[Op], setup_wall: float):
    """Per-layer metrics over the traced ops, plus the full per-function
    table for the report."""
    traced = [op for op in ops if op.traced and op.ok]
    plain = [adjusted(op) for op in ops if not op.traced and op.ok and op.label != "memory"]
    labels = [op.label for op in traced]
    wall = sum(op.wall for op in traced)
    n = len(traced)
    m = {name: 0.0 for name in per_layer_units()}
    table = {}
    if n:
        self_s, calls, top = tracer.self_times(labels)
        m["traced_op_ms"] = _median([op.wall for op in traced]) * 1000.0
        if plain:
            m["trace_overhead_pct"] = (_median([adjusted(op) for op in traced]) / _median(plain)
                                       - 1.0) * 100.0
        m["unattributed_share"] = (wall - top) / wall * 100.0
        for layer in LAYERS:
            layer_s = sum(s for q, s in self_s.items() if q.startswith(layer + "."))
            m[f"{layer}.self_share"] = layer_s / wall * 100.0
        # Counts come from the first traced op (trial 0 of the seed), so they
        # repeat exactly for a seed however many ops the run fits in.
        _, first_calls, _ = tracer.self_times(labels[:1])
        for layer, names in REPORTED.items():
            for name in names:
                q = f"{layer}.{name}"
                m[f"{q}.self_share"] = self_s[q] / wall * 100.0
                m[f"{q}.calls"] = first_calls[q]
        m.update(tracer.counter_totals(labels[:1]))
        table = {q: {"self_ms_per_op": self_s[q] * 1000.0 / n, "calls_per_op": calls[q] / n,
                     "share_pct": self_s[q] / wall * 100.0}
                 for q in sorted(self_s, key=self_s.get, reverse=True) if calls[q]}
    for q in MEMORY_PROBED:
        m[f"{q}.peak_mb"] = probe.peak_bytes[q] / 2**20
    setup_self, _, _ = tracer.self_times(["setup"])
    m["setup_traced_ms"] = setup_wall * 1000.0
    for layer in SETUP_LAYERS:
        layer_s = sum(s for q, s in setup_self.items() if q.startswith(layer + "."))
        m[f"setup.{layer}.self_share"] = layer_s / setup_wall * 100.0
    return m, table


def print_layer_report(name: str, m: dict, table: dict) -> None:
    err = sys.stderr
    err.write(f"\n{name}: per-layer self time, share of traced op time "
              f"({m['traced_op_ms']:.1f} ms per op)\n")
    for layer in sorted(LAYERS, key=lambda lay: -m[f"{lay}.self_share"]):
        err.write(f"  {layer:<12}{m[f'{layer}.self_share']:7.2f} %\n")
    err.write(f"  {'unattributed':<12}{m['unattributed_share']:7.2f} %\n")
    err.write(f"  trace overhead {m['trace_overhead_pct']:+.2f} % of untraced op time\n")
    err.write("  top functions (self ms per op, calls per op):\n")
    for q, row in list(table.items())[:12]:
        err.write(f"    {q:<36}{row['self_ms_per_op']:11.1f} ms {row['calls_per_op']:10.0f}\n")


def run(name: str, spec, seed: int, seconds: float, trace: bool,
        workdir: Path, outdir: Path | None) -> tuple[dict, dict]:
    """One benchmark run. Returns (result, report)."""
    from workloads import trial_seed

    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "params": asdict(spec), "env": environment()}
    spec.prepare(seed, workdir)
    setup_times, setup_readings, prints = ([], [], []) if trace else probe_setup(spec, seed,
                                                                                  workdir)

    tracer = Tracer() if trace else None
    probe = MemoryProbe() if trace else None
    ops: list[Op] = []
    problems: list[str] = []
    with tracer.record("setup") if tracer else nullcontext():
        t0 = time.perf_counter()
        state = spec.setup(seed, workdir)
        setup_wall = time.perf_counter() - t0
    fingerprint = spec.fingerprint(state)
    if any(p != fingerprint for p in prints):
        problems.append(f"set-up probes saw {prints}, this process {fingerprint}")

    # A full-size warm-up op, checked like the others but left out of the
    # metrics, so that lazy imports, allocator growth and other first-use
    # costs stay out of the timed ops. It counts towards `--seconds`. The
    # peak RSS is read after it and before the reference kernel allocates
    # anything, so it covers set-up and one full op of hypergcn only.
    start = time.perf_counter()
    warm = run_op(spec, state, trial_seed(seed, WARM_UP_TRIAL), "warm-up")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference = Reference()
    before = reference.sample()

    # A traced run repeats each trial untraced and traced, so the pair
    # differs only by the tracing; the order flips from pair to pair so that
    # going first or second does not read as overhead.
    while True:
        i = len(ops)
        traced = tracer is not None and (i + i // 2) % 2 == 1
        trial = trial_seed(seed, i // 2 if tracer else i)
        label = f"op{i}"
        op = run_op(spec, state, trial, label, tracer.record(label) if traced else None, traced)
        after = reference.sample()
        op.host, before = (before + after) / 2, after
        ops.append(op)
        if time.perf_counter() - start >= seconds and (tracer is None or len(ops) % 2 == 0):
            break
    if probe:
        # The memory pass repeats trial 0 without training epochs: every kind
        # of expansion call still runs, on the same inputs and shapes.
        ops.append(run_op(replace(spec, epochs=0), state, trial_seed(seed, 0), "memory",
                          probe.record()))

    failed = [op for op in (warm, *ops) if not op.ok]
    report.update({
        "setup_probe_s": setup_times,
        "setup_probe_reference_s": setup_readings,
        "ops": [{"label": op.label, "traced": op.traced, "ok": op.ok, "wall_s": op.wall,
                 "reference_s": op.host, "steps": op.steps, "quality": op.quality, **op.detail,
                 **({"problems": op.problems[:5]} if op.problems else {})}
                for op in (warm, *ops)],
        "failed_frac": len(failed) / (len(ops) + 1),
        "problems": problems,
        "unadjusted": {
            "op_p50_s": _median([op.wall for op in ops if op.ok and op.host]),
            "steps_per_s": _median([op.steps / op.wall for op in ops if op.ok and op.host]),
            "reference_p50_s": _median([op.host for op in ops if op.host]),
        },
    })
    if trace:
        metrics, table = per_layer_metrics(tracer, probe, ops, setup_wall)
        units = per_layer_units()
        report["functions"] = table
        print_layer_report(name, metrics, table)
        if outdir is not None:
            tracer.save(outdir / f"spans-{name}-seed{seed}.npz")
    else:
        metrics = end_to_end_metrics(ops, setup_times, setup_readings, peak_rss_mb)
        units = END_TO_END
    correct = not failed and not problems and any(op.ok for op in ops)
    result = {
        "correct": correct,
        "attempted": len(ops) + 1,
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, report = run(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace), workdir, ROOT / ".bench_out")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
