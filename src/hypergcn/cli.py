"""Command-line entry point for batch experiments.

Results are emitted as JSON lines on stdout (config echo first), logs go
to stderr. Exit codes: 0 success, 1 usage error, 2 data error. Identical
argv plus seed reproduce identical output bytes apart from timing fields.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, fields

import numpy as np

from . import densek as dk
from .dataio import DataError, DatasetBundle, gen_noisy_ssl, load_bundle, save_bundle
from .hypergraph import size_counts
from .training import METHODS, TrainConfig, run_trials

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Parser whose usage failures exit with code 1 instead of 2."""

    def error(self, message):
        raise _UsageError(message)


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def _log(msg: str) -> None:
    sys.stderr.write(msg + "\n")


# least value of each integer flag, for the subcommands that have it; --seed is
# checked here for gen-noisy and gen-densek, which build no `TrainConfig`
_COUNT_FLOORS = {"trials": 1, "maps": 1, "budget": 1, "seed": 0}


def _check_counts(args: argparse.Namespace) -> None:
    for name, floor in _COUNT_FLOORS.items():
        value = getattr(args, name, floor)
        if value < floor:
            raise _UsageError(f"--{name} {value} is below {floor}")


def _config_from(args: argparse.Namespace) -> TrainConfig:
    try:
        return TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)})
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _echo_config(command: str, args: argparse.Namespace) -> None:
    resolved = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "train_config")}
    _emit({"command": command, "config": resolved})


def _finite(text: str) -> float:
    """Float flag type that rejects NaN and infinities, which are not JSON."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"invalid finite float value: {text!r}")
    return value


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    """One flag per `TrainConfig` field but the subcommand's own --method
    and --seed, with the field's type and default."""
    for f in fields(TrainConfig):
        if f.name not in ("method", "seed"):
            p.add_argument("--" + f.name.replace("_", "-"),
                           type=int if isinstance(f.default, int) else _finite, default=f.default)


def _k_from(k_frac: float, n: int) -> int:
    if not 0.0 < k_frac <= 1.0:
        raise _UsageError(f"--k-frac {k_frac} outside (0, 1]")
    return max(1, int(round(k_frac * n)))


def _quiet_divergence():
    """Turns off numpy's overflow and invalid-value warnings: a diverging
    run stops at a non-finite check (a layer signal's or the logits') and
    reports itself as one usage error, without the warnings its last steps raised."""
    return np.errstate(over="ignore", invalid="ignore")


def _trials(args: argparse.Namespace, bundle: DatasetBundle, trials: int):
    """`run_trials` with the flags' config and --budget. The split's DataError
    (a budget the classes cannot meet, or that leaves nothing to evaluate)
    is a usage error: the bundle has loaded, so it is valid."""
    with _quiet_divergence():
        try:
            return run_trials(bundle.hypergraph, bundle.features, bundle.labels, args.train_config,
                              trials=trials, budget=args.budget)
        except DataError as exc:
            raise _UsageError(str(exc)) from None


def cmd_validate(args) -> int:
    # a bundle that loads is valid: Hypergraph checks itself when built
    bundle = load_bundle(args.data)
    _emit({
        "valid": True,
        "violations": [],
        "n": bundle.hypergraph.n,
        "m": bundle.hypergraph.m,
        "classes": bundle.num_classes,
    })
    return 0


def cmd_counts(args) -> int:
    bundle = load_bundle(args.data)
    n_inc, n_med, n_clq = size_counts(bundle.hypergraph)
    _emit({"N": n_inc, "N_m": n_med, "N_c": n_clq, "m": bundle.hypergraph.m})
    return 0


def cmd_train(args) -> int:
    # the one trial of `trials --trials 1`, losses included
    _emit(asdict(_trials(args, load_bundle(args.data), trials=1).reports[0]))
    return 0


def cmd_trials(args) -> int:
    bundle = load_bundle(args.data)
    result = _trials(args, bundle, args.trials)
    for t, report in enumerate(result.reports):
        row = asdict(report)
        row["trial"] = t
        row.pop("losses")  # per-trial traces stay out of the aggregate stream
        _emit(row)
    aggregate = {
        "method": args.method,
        "dataset": bundle.name,
        "budget": args.budget,
        "trials": args.trials,
        "mean_error": result.mean_error,
        "std_error": result.std_error,
    }
    _emit({"aggregate": aggregate})
    if args.out:
        sec = float(np.mean([r.seconds_per_epoch for r in result.reports]))
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["method", "dataset", "budget", "mean", "stdev", "epochs", "seconds_per_epoch"]
            )
            writer.writerow(
                [args.method, bundle.name, args.budget, f"{result.mean_error:.4f}",
                 f"{result.std_error:.4f}", args.epochs, f"{sec:.6f}"]
            )
        _log(f"wrote {args.out}")
    return 0


def cmd_densek(args) -> int:
    bundle = load_bundle(args.data)
    h = bundle.hypergraph
    k = _k_from(args.k_frac, h.n)
    inst = dk.DenseKInstance(hypergraph=h, k=k)
    method = args.method
    if method == "max-degree":
        chosen = dk.max_degree(inst)
    elif method == "remove-min-degree":
        chosen = dk.remove_min_degree(inst)
    elif method == "brute-force":
        try:
            chosen, _ = dk.brute_force(inst)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
    else:  # a learned method: train on freshly generated planted instances, then decode
        rng = np.random.default_rng(args.seed)
        sizes = rng.integers(100, 301, size=args.trials)
        samples = [
            dk.gen_sample(int(sz), (3 * int(sz)) // 4, 0.75, rng) for sz in sizes
        ]
        with _quiet_divergence():
            model = dk.train_densek(samples, args.train_config, maps=args.maps)
            chosen = dk.solve_learned(model, inst, seed=args.seed)
    _emit({
        "method": method,
        "k": k,
        "density": dk.density(h, chosen),
        "vertex_set": chosen,
    })
    return 0


def cmd_gen_noisy(args) -> int:
    rng = np.random.default_rng(args.seed)
    try:
        bundle = gen_noisy_ssl(eta=args.eta, rng=rng)
    except DataError as exc:
        raise _UsageError(str(exc)) from None
    save_bundle(bundle, args.out)
    _emit({"written": args.out, "n": bundle.hypergraph.n, "m": bundle.hypergraph.m,
           "eta": args.eta})
    return 0


def cmd_gen_densek(args) -> int:
    rng = np.random.default_rng(args.seed)
    n = args.vertices
    k = _k_from(args.k_frac, n)
    try:
        h, target = dk.gen_sample(n, k, args.p, rng)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    bundle = DatasetBundle(name=f"densek-n{n}-k{k}", hypergraph=h,
                           features=dk.vertex_features(h), labels=target, num_classes=2)
    save_bundle(bundle, args.out)
    _emit({"written": args.out, "n": n, "k": k, "density_of_target":
           dk.density(h, np.flatnonzero(target))})
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="hypergcn", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", help="check a dataset directory")
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("counts", help="hyperedge size statistics N, N_m, N_c")
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_counts)

    p = sub.add_parser("train", help="single train/eval run")
    p.add_argument("--data", required=True)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("trials", help="repeated splits, mean and stdev error")
    p.add_argument("--data", required=True)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="aggregate CSV path")
    _add_train_flags(p)
    p.set_defaults(func=cmd_trials)

    p = sub.add_parser("densek", help="densest-k-subhypergraph solvers")
    p.add_argument("--data", required=True)
    p.add_argument("--method", required=True,
                   choices=("max-degree", "remove-min-degree", "brute-force",
                            *dk.METHODS))
    p.add_argument("--k-frac", type=_finite, default=0.75)
    p.add_argument("--maps", type=int, default=8)
    p.add_argument("--trials", type=int, default=100,
                   help="training samples for the learned methods")
    p.add_argument("--seed", type=int, default=0)
    _add_train_flags(p)
    p.set_defaults(func=cmd_densek)

    p = sub.add_parser("gen-noisy", help="generate a noisy two-class benchmark")
    p.add_argument("--eta", type=_finite, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_noisy)

    p = sub.add_parser("gen-densek", help="generate a planted dense instance")
    p.add_argument("--vertices", type=int, default=1000)
    p.add_argument("--k-frac", type=_finite, default=0.75)
    p.add_argument("--p", type=_finite, default=0.75)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_densek)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_counts(args)
        if "hidden" in args:  # a subcommand with the training flags
            args.train_config = _config_from(args)
        _echo_config(args.subcommand, args)
        return args.func(args)
    except _UsageError as exc:
        _log(f"usage error: {exc}")
        parser.print_usage(sys.stderr)
        return 1
    except FloatingPointError as exc:
        _log(f"usage error: training diverged ({exc})")
        return 1
    except (DataError, OSError) as exc:
        _log(f"data error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
