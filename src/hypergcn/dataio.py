"""Dataset files, split sampling, and synthetic SSL benchmark generation.

A dataset directory holds three UTF-8 text files:

* ``hyperedges.txt`` : one hyperedge per line, space-separated 0-based ids
* ``features.csv``   : n lines of p comma-separated reals, no header
* ``labels.txt``     : n lines, one integer class id per line

plus an optional ``manifest.json`` with keys name/n/p/q which is
validated against the parsed files when present.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .hypergraph import Hypergraph


class DataError(ValueError):
    """Malformed or inconsistent dataset input."""


@dataclass(frozen=True, eq=False)
class LabeledSplit:
    """Labels over all vertices, a labelled set and an evaluation set, held
    as read-only int64 copies. The constructor raises DataError unless
    `labels` are non-empty 1-D non-negative whole numbers, and `train_idx`
    and `eval_idx` non-empty 1-D whole numbers in [0, len(labels))."""

    labels: np.ndarray
    train_idx: np.ndarray
    eval_idx: np.ndarray

    def __post_init__(self) -> None:
        n = np.size(self.labels)
        for name in ("labels", "train_idx", "eval_idx"):
            object.__setattr__(self, name, self._checked(name, getattr(self, name), n))

    @staticmethod
    def _checked(name: str, values, n: int = 0) -> np.ndarray:
        """`values` as field `name`, a read-only int64 copy, if they keep its
        rule; else DataError."""
        rule, empty = {"labels": ("non-negative whole numbers", "labels"),
                       "train_idx": ("whole numbers", "labelled set"),
                       "eval_idx": ("whole numbers", "evaluation set")}[name]
        index, raw = name != "labels", np.asarray(values)
        with np.errstate(invalid="ignore"):  # a non-finite entry is not whole
            arr = raw.astype(np.int64)
        if raw.ndim != 1 or not np.array_equal(arr, raw) or not (index or np.all(arr >= 0)):
            raise DataError(f"{name} are not 1-D {rule}")
        if arr.size == 0:
            raise DataError(f"empty {empty}")
        if index and not np.all((arr >= 0) & (arr < n)):
            raise DataError(f"{name} has entries outside [0, {n})")
        arr.setflags(write=False)
        return arr


@dataclass(frozen=True, eq=False)
class DatasetBundle:
    name: str
    hypergraph: Hypergraph
    features: np.ndarray
    labels: np.ndarray
    num_classes: int


def _lines(path: Path) -> list[str]:
    """The lines of UTF-8 text file `path`; DataError naming the line of the
    first byte that is not UTF-8."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        # the text before the bad byte decodes; "x" stands in for the byte, so
        # that the count includes its line
        lineno = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise DataError(f"{path.name} line {lineno}: not UTF-8 ({exc.reason})") from None


def _parse_hyperedges(path: Path, n: int) -> list[tuple[int, ...]]:
    edges: list[tuple[int, ...]] = []
    dropped = 0
    for lineno, line in enumerate(_lines(path), start=1):
        if not line.strip():
            continue
        try:
            ids = sorted({int(tok) for tok in line.split()})
        except ValueError as exc:
            raise DataError(f"{path.name} line {lineno}: {exc}") from None
        for v in ids:
            if not 0 <= v < n:
                raise DataError(
                    f"{path.name} line {lineno}: vertex {v} out of range [0, {n})"
                )
        if len(ids) < 2:
            dropped += 1
            continue
        edges.append(tuple(ids))
    if dropped:
        warnings.warn(
            f"{path.name}: dropped {dropped} hyperedge(s) with fewer than 2 hypernodes",
            stacklevel=3,
        )
    return edges


def _parse_features(path: Path) -> np.ndarray:
    try:
        with warnings.catch_warnings():  # an empty file is reported below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            feats = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError:  # UnicodeDecodeError too
        # slow path: locate the offending line for the error message
        width = None
        for lineno, line in enumerate(_lines(path), start=1):
            if not line.strip():
                continue  # loadtxt skips blank lines
            toks = line.split(",")
            for tok in toks:
                try:
                    float(tok)
                except ValueError:
                    raise DataError(
                        f"{path.name} line {lineno}: bad value {tok.strip()!r}"
                    ) from None
            width = width or len(toks)
            if len(toks) != width:
                raise DataError(
                    f"{path.name} line {lineno}: {len(toks)} values, expected {width}")
        raise DataError(f"{path.name}: inconsistent row lengths") from None
    if feats.shape[0] == 0:
        raise DataError(f"{path.name}: no rows")
    if not np.all(np.isfinite(feats)):
        raise DataError(f"{path.name}: non-finite feature value")
    return feats


def _parse_labels(path: Path, n: int, q: int | None) -> tuple[np.ndarray, int]:
    # without a manifest's q a label need only fit int64; q is then the largest + 1
    bound = np.iinfo(np.int64).max if q is None else q
    values = []
    for lineno, line in enumerate(_lines(path), start=1):
        if not line.strip():
            raise DataError(f"{path.name} line {lineno}: empty label")
        try:
            y = int(line)
        except ValueError as exc:
            raise DataError(f"{path.name} line {lineno}: {exc}") from None
        if not 0 <= y < bound:
            raise DataError(f"{path.name} line {lineno}: label {y} out of range [0, {bound})")
        values.append(y)
    if len(values) != n:
        raise DataError(f"{path.name}: {len(values)} labels for {n} vertices")
    labels = np.asarray(values, dtype=np.int64)
    if q is None:
        q = int(labels.max()) + 1 if labels.size else 0
    for c in range(q):
        if not np.any(labels == c):
            raise DataError(f"{path.name}: class {c} has no members")
    return labels, q


def _parse_manifest(path: Path) -> dict:
    """The manifest's keys; none if there is no manifest file."""
    if not path.exists():
        return {}
    try:
        manifest = json.loads(path.read_text())
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise DataError(f"{path.name}: not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise DataError(f"{path.name}: expected an object, got {type(manifest).__name__}")
    for key in ("n", "p", "q"):
        value = manifest.get(key, 0)
        if not isinstance(value, int) or isinstance(value, bool):
            raise DataError(f"{path.name}: {key}={value!r} is not an integer")
    return manifest


def load_bundle(directory: str | Path) -> DatasetBundle:
    """Load and validate a dataset directory.

    Hyperedges with fewer than two hypernodes are dropped with a warning.
    Raises DataError naming the file and line of the first problem found.
    """
    directory = Path(directory)
    manifest = _parse_manifest(directory / "manifest.json")
    features = _parse_features(directory / "features.csv")
    n = features.shape[0]
    labels, q = _parse_labels(directory / "labels.txt", n, manifest.get("q"))
    edges = _parse_hyperedges(directory / "hyperedges.txt", n)
    name = manifest.get("name", directory.name)

    for key, actual in (("n", n), ("p", features.shape[1]), ("q", q)):
        if key in manifest and manifest[key] != actual:
            raise DataError(
                f"manifest.json: {key}={manifest[key]} but files give {actual}"
            )

    return DatasetBundle(
        name=str(name),
        hypergraph=Hypergraph.from_edges(n, edges),
        features=features,
        labels=labels,
        num_classes=q,
    )


def save_bundle(bundle: DatasetBundle, directory: str | Path) -> None:
    """Write a bundle in the directory layout read by `load_bundle`."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    ptr, ids = bundle.hypergraph.indptr.tolist(), bundle.hypergraph.indices.tolist()
    with open(directory / "hyperedges.txt", "w") as fh:
        fh.writelines(" ".join(map(str, ids[a:b])) + "\n" for a, b in zip(ptr, ptr[1:]))
    np.savetxt(directory / "features.csv", bundle.features, fmt="%.17g", delimiter=",")
    with open(directory / "labels.txt", "w") as fh:
        for y in bundle.labels:
            fh.write(f"{int(y)}\n")
    manifest = {
        "name": bundle.name,
        "n": bundle.hypergraph.n,
        "p": int(bundle.features.shape[1]),
        "q": bundle.num_classes,
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def balanced_split_labels(
    labels: np.ndarray, budget: int, rng: np.random.Generator
) -> LabeledSplit:
    """Sample a class-balanced labelled set of `budget` vertices.

    Each class contributes exactly budget/q uniformly sampled vertices;
    the evaluation set is the complement, so the two are disjoint. A budget
    below 1, or one that leaves the evaluation set empty, raises DataError,
    as do labels that break `LabeledSplit`'s rule, before any draw.
    """
    if budget < 1:
        raise DataError(f"label budget {budget} is below 1")
    labels = LabeledSplit._checked("labels", labels)
    q = int(labels.max()) + 1
    if budget % q != 0:
        raise DataError(f"label budget {budget} not divisible by {q} classes")
    per_class = budget // q
    chosen = []
    for c in range(q):
        members = np.flatnonzero(labels == c)
        if members.size < per_class:
            raise DataError(
                f"class {c} has {members.size} members, needs {per_class}"
            )
        chosen.append(rng.choice(members, size=per_class, replace=False))
    train_idx = np.sort(np.concatenate(chosen))
    eval_idx = np.setdiff1d(np.arange(labels.size), train_idx)
    return LabeledSplit(labels=labels, train_idx=train_idx, eval_idx=eval_idx)


def gen_noisy_ssl(
    eta: float,
    rng: np.random.Generator,
    n: int = 1000,
    pure: int = 100,
    noisy: int = 400,
    pure_size: int = 5,
    noisy_size: int = 20,
    feat_dim: int = 256,
) -> DatasetBundle:
    """Two-class benchmark with pure and class-mixed hyperedges.

    Each pure hyperedge draws all its hypernodes from one random class.
    Each noisy hyperedge mixes the classes in the ratio eta, interpreted
    as minority/majority count: round(noisy_size * eta / (1 + eta))
    hypernodes come from a randomly chosen minority class and the rest
    from the other, so eta = 1 is maximally mixed. Features are i.i.d.
    standard Gaussian, carrying no class signal on their own.
    """
    if not 0.0 < eta <= 1.0:
        raise DataError(f"eta {eta} outside (0, 1]")
    half = n // 2
    labels = np.zeros(n, dtype=np.int64)
    labels[half:] = 1
    labels = labels[rng.permutation(n)]
    pools = [np.flatnonzero(labels == c) for c in (0, 1)]

    minority = int(round(noisy_size * eta / (1.0 + eta)))
    edges = []
    for _ in range(pure):
        c = int(rng.integers(2))
        edges.append(np.sort(rng.choice(pools[c], size=pure_size, replace=False)))
    for _ in range(noisy):
        c_min = int(rng.integers(2))
        small = rng.choice(pools[c_min], size=minority, replace=False)
        large = rng.choice(pools[1 - c_min], size=noisy_size - minority, replace=False)
        edges.append(np.sort(np.concatenate([small, large])))

    features = rng.standard_normal((n, feat_dim))
    return DatasetBundle(
        name=f"noisy-eta{eta:g}",
        hypergraph=Hypergraph.from_edges(n, edges),
        features=features,
        labels=labels,
        num_classes=2,
    )

