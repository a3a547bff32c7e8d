"""Self-test of the benchmark at tiny size (n of about 60).

    python3 bench/selftest.py

Runs every workload path with tracing off and on and checks each result
against BENCHMARK.json; checks that the tracer's wrappers sit at every
place a layer function is looked up while recording, and are gone after;
and checks that an op whose output a wrapper corrupts (a NaN loss) or
that raises is counted as failed. Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys

import run

FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def check_result(label: str, result: dict, names: dict[str, str]) -> None:
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{label}: correct, {result['attempted']} attempted, {result['failed']} failed")
    metrics = result["metrics"]
    check(list(metrics) == list(names), f"{label}: metric names match BENCHMARK.json")
    check(all(metrics[k]["unit"] == u for k, u in names.items() if k in metrics),
          f"{label}: metric units match BENCHMARK.json")
    check(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
              for v in metrics.values()), f"{label}: every value is a finite number")


def check_wrappers(tracing) -> None:
    import hypergcn
    from hypergcn import densek, expansion, nn, training

    sites = [(training, "expand_mediators"), (training, "expand_one_edge"),
             (training, "expand_clique"), (training, "normalize"),
             (training, "pair_laplacian"), (densek, "expand_mediators"),
             (densek, "normalize"), (expansion, "extreme_pairs"), (nn, "spmm"),
             (hypergcn, "train_ssl")]
    originals = [getattr(mod, attr) for mod, attr in sites]
    with tracing.Tracer().record("probe"):
        check(all(getattr(mod, attr).__wrapped__ is orig
                  for (mod, attr), orig in zip(sites, originals)),
              "tracer wraps every lookup site while recording")
    check(all(getattr(mod, attr) is orig for (mod, attr), orig in zip(sites, originals)),
          "tracer restores every lookup site afterwards")


def check_failures_counted(tracing, workloads, workdir) -> None:
    from hypergcn import densek, training

    def nan_loss(report):
        report.losses[0] = float("nan")

    def nan_hindsight(model):
        model.loss_trace[0] = float("nan")

    def raise_(_):
        raise FloatingPointError("injected")

    cases = [
        ("noisy1k-all", training.train_ssl, nan_loss, "NaN loss from train_ssl"),
        ("densek-planted", densek.train_densek, nan_hindsight, "NaN loss from train_densek"),
        ("noisy1k-all", training.train_ssl, raise_, "train_ssl raising"),
    ]
    for name, original, corrupt, what in cases:
        def corrupted(*args, _original=original, _corrupt=corrupt, **kwargs):
            out = _original(*args, **kwargs)
            _corrupt(out)
            return out

        patch = tracing.Patch()
        patch.replace(original, corrupted)
        try:
            spec = workloads.TINY[name]
            result, _ = run.run(name, spec, 3, 0.0, False, workdir / name, None)
        finally:
            patch.restore()
        check(not result["correct"] and result["attempted"] >= 1
              and result["failed"] == result["attempted"],
              f"{what} counts as a failed op ({result['failed']}/{result['attempted']})")


def main() -> int:
    run.load_program()
    import tracing
    import workloads

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check(e2e == run.END_TO_END, "end_to_end metrics in BENCHMARK.json match run.py")
    check(layers == run.per_layer_units(), "per_layer metrics in BENCHMARK.json match run.py")
    check([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
          "workloads in BENCHMARK.json match workloads.py")

    workdir = run.ROOT / ".bench_work" / f"selftest-pid{os.getpid()}"
    try:
        for name, spec in workloads.TINY.items():
            for trace in (False, True):
                d = workdir / f"{name}-{trace}"
                d.mkdir(parents=True)
                result, report = run.run(name, spec, 3, 0.0, trace, d, None)
                check_result(f"{name} trace={int(trace)}", result, layers if trace else e2e)
                if trace:
                    m = {k: v["value"] for k, v in result["metrics"].items()}
                    total = sum(m[f"{lay}.self_share"] for lay in tracing.LAYERS)
                    check(abs(total + m["unattributed_share"] - 100.0) < 1e-6,
                          f"{name}: layer shares and unattributed sum to 100 %")
                    check(report["ops"][-1]["label"] == "memory",
                          f"{name}: memory pass ran")
        check_wrappers(tracing)
        check_failures_counted(tracing, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(FAILURES)} failed check(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
