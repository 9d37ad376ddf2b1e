"""The three chunker families: fixed-size, breakpoint-based, and clustering-based.

Fixed-size splits by sentence count alone. The breakpoint chunker cuts
wherever the consecutive-distance profile (or its gradient) strictly
exceeds a threshold policy's cutoff. The clustering chunkers group
sentences under the combined positional-semantic distance: constrained
single-linkage merging with a size cap, or density-based clustering with
noise kept as singleton chunks. Clustered chunks may be non-contiguous.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, Sequence, Union, get_type_hints

import numpy as np

from .distance import (
    ThresholdPolicy,
    consecutive_distances,
    gradient,
    pairwise_joint_distances,
    threshold,
)
from .files import read_jsonl, write_jsonl
from .segmenter import SegmentedDocument

DEFAULT_STOP_DISTANCE = 0.5
_WEIGHTS = [0.0, 0.25, 0.5, 0.75, 1.0]
# The default sweep of 218 configs, in the grid format of a run config
# (see grid_from_dict); configs/default.json spells out the same grid.
DEFAULT_GRID = {
    "fixed_size": {"n_chunks": list(range(2, 11)), "overlap": [0, 1]},
    "breakpoint": {
        "percentile": [10.0, 30.0, 50.0, 70.0, 90.0],
        "std_dev": [1.0, 1.5, 2.0, 2.5, 3.0],
        "interquartile": [0.5, 0.75, 1.0, 1.25, 1.5],
        "gradient_percentile": [10.0, 30.0, 50.0, 70.0, 90.0],
        "absolute_distance": [0.1, 0.2, 0.3, 0.4, 0.5],
        "absolute_gradient": [0.01, 0.05, 0.1, 0.15, 0.2],
    },
    "single_linkage": {"n_clusters": list(range(2, 11)), "positional_weight": _WEIGHTS},
    "dbscan": {
        "eps": [0.1, 0.2, 0.3, 0.4, 0.5],
        "min_samples": list(range(1, 6)),
        "positional_weight": _WEIGHTS,
    },
}


@dataclass(frozen=True)
class Chunk:
    """A group of sentences from one document, identified by doc_id + ordinal."""

    chunk_id: str
    doc_id: str
    sentence_indices: tuple[int, ...]
    text: str


@dataclass(frozen=True)
class FixedSizeConfig:
    """Split into n_chunks equal sentence ranges, optionally sharing one
    trailing sentence with the previous chunk."""

    n_chunks: int
    overlap: int = 0
    kind = "fixed_size"
    family = "fixed_size"

    def __post_init__(self) -> None:
        if self.n_chunks < 1:
            raise ValueError(f"n_chunks must be >= 1, got {self.n_chunks}")
        if self.overlap not in (0, 1):
            raise ValueError(f"overlap must be 0 or 1, got {self.overlap}")


@dataclass(frozen=True)
class BreakpointConfig:
    """Cut between sentences wherever the distance profile exceeds a threshold."""

    policy: ThresholdPolicy
    kind = "breakpoint"
    family = "breakpoint"


@dataclass(frozen=True)
class SingleLinkageConfig:
    """Greedy nearest-pair merging with a size cap and a stop distance."""

    n_clusters: int
    positional_weight: float
    stop_distance: float = DEFAULT_STOP_DISTANCE
    kind = "single_linkage"
    family = "clustering"

    def __post_init__(self) -> None:
        if self.n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {self.n_clusters}")
        if not 0.0 <= self.positional_weight <= 1.0:
            raise ValueError(
                f"positional_weight must be in [0, 1], got {self.positional_weight}"
            )
        if self.stop_distance < 0.0:
            raise ValueError(f"stop_distance must be >= 0, got {self.stop_distance}")


@dataclass(frozen=True)
class DbscanConfig:
    """Density-based clustering over the combined distance; noise stays singleton."""

    eps: float
    min_samples: int
    positional_weight: float
    kind = "dbscan"
    family = "clustering"

    def __post_init__(self) -> None:
        if self.eps <= 0.0:
            raise ValueError(f"eps must be > 0, got {self.eps}")
        if self.min_samples < 1:
            raise ValueError(f"min_samples must be >= 1, got {self.min_samples}")
        if not 0.0 <= self.positional_weight <= 1.0:
            raise ValueError(
                f"positional_weight must be in [0, 1], got {self.positional_weight}"
            )


ChunkerConfig = Union[FixedSizeConfig, BreakpointConfig, SingleLinkageConfig, DbscanConfig]


def family(config: ChunkerConfig) -> str:
    """Reporting family: both clustering chunkers share one column."""
    return config.family


def _make_chunks(doc: SegmentedDocument, groups: Sequence[Sequence[int]]) -> list[Chunk]:
    ordered = sorted((sorted(group) for group in groups if group), key=lambda g: g[0])
    chunks: list[Chunk] = []
    for ordinal, indices in enumerate(ordered):
        text = " ".join(doc.sentences[i].text for i in indices)
        chunks.append(
            Chunk(
                chunk_id=f"{doc.doc_id}-{ordinal:04d}",
                doc_id=doc.doc_id,
                sentence_indices=tuple(indices),
                text=text,
            )
        )
    return chunks


def _check_embeddings(doc: SegmentedDocument, sentence_embeddings: np.ndarray | None) -> None:
    if sentence_embeddings is None:
        raise ValueError("this chunker requires sentence embeddings")
    if sentence_embeddings.shape[0] != doc.n:
        raise ValueError(f"got {sentence_embeddings.shape[0]} embeddings for {doc.n} sentences")


def fixed_size_chunk(doc: SegmentedDocument, n_chunks: int, overlap: int = 0) -> list[Chunk]:
    """Split into ceil(n / n_chunks)-sentence ranges; overlap=1 prepends the
    previous base range's last sentence to each later chunk."""
    if n_chunks < 1:
        raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
    if overlap not in (0, 1):
        raise ValueError(f"overlap must be 0 or 1, got {overlap}")
    n = doc.n
    size = math.ceil(n / n_chunks)
    groups: list[list[int]] = []
    start = 0
    while start < n:
        end = min(start + size, n)
        indices = list(range(start, end))
        if overlap == 1 and start > 0:
            indices = [start - 1] + indices
        groups.append(indices)
        start = end
    return _make_chunks(doc, groups)


def breakpoint_chunk(
    doc: SegmentedDocument, sentence_embeddings: np.ndarray, policy: ThresholdPolicy
) -> list[Chunk]:
    """Cut after sentence i wherever the profile strictly exceeds the cutoff.

    Distance-domain policies compare the consecutive-distance array against
    the cutoff; gradient-domain policies compare its gradient. A document
    too short for the comparison array is one chunk.
    """
    _check_embeddings(doc, sentence_embeddings)
    n = doc.n
    if n == 1:
        return _make_chunks(doc, [[0]])
    distances = consecutive_distances(sentence_embeddings)
    if policy.gradient_domain and distances.size < 2:
        break_after = np.zeros(distances.size, dtype=bool)
    else:
        compare = gradient(distances) if policy.gradient_domain else distances
        cutoff = threshold(distances, policy)
        break_after = compare > cutoff
    groups: list[list[int]] = []
    current = [0]
    for i in range(1, n):
        if break_after[i - 1]:
            groups.append(current)
            current = [i]
        else:
            current.append(i)
    groups.append(current)
    return _make_chunks(doc, groups)


class DocumentDistances:
    """One document's distance state, shared by every clustering config.

    Built lazily and held as numpy arrays only: one combined-distance blend
    per positional weight, and for single linkage one pair order per weight
    (the pairs sorted by distance, ties by index), which no size cap changes.
    """

    def __init__(self, sentence_embeddings: np.ndarray) -> None:
        self.embeddings = sentence_embeddings
        self._blends: dict[float, np.ndarray] = {}
        self._pairs: dict[float, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def blend(self, positional_weight: float) -> np.ndarray:
        """The n-by-n combined-distance matrix at this weight."""
        dmat = self._blends.get(positional_weight)
        if dmat is None:
            dmat = pairwise_joint_distances(self.embeddings, positional_weight)
            self._blends[positional_weight] = dmat
        return dmat

    def pair_order(self, positional_weight: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(distance, first, second) of every pair first < second, in ascending
        (distance, first, second) order."""
        pairs = self._pairs.get(positional_weight)
        if pairs is None:
            dmat = self.blend(positional_weight)
            first, second = np.triu_indices(dmat.shape[0], k=1)
            dist = dmat[first, second]
            # triu_indices lists pairs by (first, second), so a stable sort on
            # distance alone breaks ties by index.
            order = np.argsort(dist, kind="stable")
            pairs = self._pairs[positional_weight] = (dist[order], first[order], second[order])
        return pairs


def _shared_distances(
    doc: SegmentedDocument,
    sentence_embeddings: np.ndarray | None,
    distances: DocumentDistances | None,
) -> DocumentDistances:
    """The caller's distance state for doc, or a throwaway one."""
    _check_embeddings(doc, sentence_embeddings)
    if distances is None:
        return DocumentDistances(sentence_embeddings)
    if distances.embeddings is not sentence_embeddings:
        raise ValueError("distances were built from other sentence embeddings")
    return distances


def single_linkage_chunk(
    doc: SegmentedDocument,
    sentence_embeddings: np.ndarray,
    n_clusters: int,
    positional_weight: float,
    stop_distance: float = DEFAULT_STOP_DISTANCE,
    distances: DocumentDistances | None = None,
) -> list[Chunk]:
    """Merge the closest sentence pairs first, subject to a cluster-size cap.

    Pairs are visited in ascending (distance, first index, second index)
    order; a merge is skipped when the combined size would exceed
    ceil(n / n_clusters), and scanning stops at the first pair whose
    distance exceeds stop_distance. Whatever never merged stays singleton.
    """
    if n_clusters < 1:
        raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
    distances = _shared_distances(doc, sentence_embeddings, distances)
    n = doc.n
    max_size = math.ceil(n / n_clusters)
    # Below this many clusters the capped clusters cannot hold n sentences,
    # so once it is reached no merge can pass the cap.
    fewest = math.ceil(n / max_size)

    dist, first, second = distances.pair_order(positional_weight)
    stop = int(np.searchsorted(dist, stop_distance, side="right"))

    parent = list(range(n))
    size = [1] * n
    clusters = n

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(first[:stop].tolist(), second[:stop].tolist()):
        if clusters == fewest:
            break
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        if size[ra] + size[rb] > max_size:
            continue
        parent[rb] = ra
        size[ra] += size[rb]
        clusters -= 1

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return _make_chunks(doc, list(groups.values()))


def dbscan_chunk(
    doc: SegmentedDocument,
    sentence_embeddings: np.ndarray,
    eps: float,
    min_samples: int,
    positional_weight: float,
    distances: DocumentDistances | None = None,
) -> list[Chunk]:
    """Density clustering over the combined distance.

    A sentence is a core point when at least min_samples sentences
    (itself included) lie within eps. Clusters grow from core points in
    ascending index order; border points keep the first cluster that
    reaches them; noise becomes singleton chunks.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be > 0, got {eps}")
    if min_samples < 1:
        raise ValueError(f"min_samples must be >= 1, got {min_samples}")
    distances = _shared_distances(doc, sentence_embeddings, distances)
    # Row i marks the neighbourhood of sentence i.
    adjacent = distances.blend(positional_weight) <= eps
    core = adjacent.sum(axis=1) >= min_samples

    unlabeled = np.ones(doc.n, dtype=bool)
    groups: list[list[int]] = []
    for seed in core.nonzero()[0].tolist():
        if not unlabeled[seed]:
            continue
        before = unlabeled.copy()
        unlabeled[seed] = False
        frontier = adjacent[seed] & unlabeled
        # Level by level: everything the frontier's core points reach and no
        # earlier cluster took, which is what a queue BFS from seed labels.
        while frontier.any():
            unlabeled &= ~frontier
            frontier = adjacent[frontier & core].any(axis=0) & unlabeled
        groups.append((before ^ unlabeled).nonzero()[0].tolist())
    groups.extend([i] for i in unlabeled.nonzero()[0].tolist())
    return _make_chunks(doc, groups)


def _axes(cls: type, section: dict) -> Iterator[dict]:
    """Every combination of a grid section's field values, in field order with
    the last field varying fastest; a bare value is a one-value axis."""
    names = [name for name in _COERCERS[cls] if name in section]
    unknown = [key for key in section if key not in names]
    if unknown:
        raise ValueError(f"unknown {cls.kind} grid axes {unknown}")
    axes = [section[n] if isinstance(section[n], list) else [section[n]] for n in names]
    for values in itertools.product(*axes):
        yield dict(zip(names, values))


def _threshold_axes(cls: type, section: dict) -> Iterator[dict]:
    """A breakpoint grid section maps each threshold kind to its amounts."""
    for kind, amounts in section.items():
        for amount in amounts:
            yield {"policy": {"kind": kind, "amount": amount}}


# kind -> (config class, chunker, grid-section expander), in grid order. The
# chunker is called as chunker(doc, sentence_embeddings, distances=...,
# **config fields); only the clustering chunkers use the shared distances.
_KINDS: dict[str, tuple[type, Callable[..., list[Chunk]], Callable[..., Iterator[dict]]]] = {
    cls.kind: (cls, chunker, expand)
    for cls, chunker, expand in (
        (FixedSizeConfig, lambda doc, _, distances, **kw: fixed_size_chunk(doc, **kw), _axes),
        (
            BreakpointConfig,
            lambda doc, emb, distances, **kw: breakpoint_chunk(doc, emb, **kw),
            _threshold_axes,
        ),
        (SingleLinkageConfig, single_linkage_chunk, _axes),
        (DbscanConfig, dbscan_chunk, _axes),
    )
}


def _from_json(cls: type, data: object) -> object:
    """cls built from a JSON object, each field coerced to its declared type."""
    if not isinstance(data, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {data!r}")
    coercers = _COERCERS[cls]
    unknown = [key for key in data if key not in coercers]
    if unknown:
        raise ValueError(f"unknown {cls.__name__} field {unknown[0]!r}")
    return cls(**{name: coercers[name](value) for name, value in data.items()})


def _field_coercers(cls: type) -> dict[str, Callable[[object], object]]:
    """Field name -> function turning a JSON value into the field's declared type."""
    scalars = {int: int, float: float, str: str}
    return {
        name: scalars.get(hint) or partial(_from_json, hint)
        for name, hint in get_type_hints(cls).items()
    }


_COERCERS = {
    cls: _field_coercers(cls) for cls in (ThresholdPolicy, *(k[0] for k in _KINDS.values()))
}


def config_to_dict(config: ChunkerConfig) -> dict:
    """JSON-friendly tagged representation of a chunker config.

    Every field is written; a nested policy leaves out fields at their
    default, so std_mode appears only when it is not "population".
    """
    out: dict = {"kind": config.kind}
    for name, value in vars(config).items():
        out[name] = _non_default_fields(value) if is_dataclass(value) else value
    return out


def _non_default_fields(obj: object) -> dict:
    return {
        f.name: getattr(obj, f.name)
        for f in fields(obj)
        if f.default is MISSING or getattr(obj, f.name) != f.default
    }


def config_from_dict(data: dict) -> ChunkerConfig:
    """Inverse of config_to_dict; raises ValueError on unknown or bad input.

    Omitted fields keep their defaults and every value is coerced to its
    field's declared type (0 becomes 0.0 for a float field).
    """
    if not isinstance(data, dict):
        raise ValueError("chunker config must be a JSON object")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unknown chunker kind {kind!r}")
    try:
        return _from_json(_KINDS[kind][0], {k: v for k, v in data.items() if k != "kind"})
    except TypeError as exc:
        raise ValueError(f"bad chunker config {data!r}: {exc}") from exc


def canonical_config(config: ChunkerConfig) -> str:
    """Stable string form used for tie-breaking and as a grouping key."""
    return json.dumps(config_to_dict(config), sort_keys=True, separators=(",", ":"))


def chunk_document(
    doc: SegmentedDocument,
    sentence_embeddings: np.ndarray | None,
    config: ChunkerConfig,
    distances: DocumentDistances | None = None,
) -> list[Chunk]:
    """Run whichever chunker the config describes.

    Fixed-size ignores embeddings; every other chunker requires one
    embedding row per sentence. The clustering chunkers reuse distances,
    the document's state built from these same embeddings, when given,
    and otherwise build a throwaway one.
    """
    chunker = _KINDS[config.kind][1]
    return chunker(doc, sentence_embeddings, distances=distances, **vars(config))


def default_grid() -> list[ChunkerConfig]:
    """The full default hyperparameter sweep, in canonical order."""
    return grid_from_dict(DEFAULT_GRID)


def grid_from_dict(grid: dict) -> list[ChunkerConfig]:
    """Expand a config-file grid description into chunker configs.

    Kinds appear in fixed order (fixed_size, breakpoint, single_linkage,
    dbscan). A kind's section maps field names to value lists (an omitted
    field keeps its default) and expands to every combination, in field
    order; the breakpoint section maps each threshold kind to its amounts.
    Values are coerced as by config_from_dict.
    """
    if not isinstance(grid, dict):
        raise ValueError("grid must be a JSON object")
    unknown = set(grid) - set(_KINDS)
    if unknown:
        raise ValueError(f"unknown grid families: {sorted(unknown)}")
    configs: list[ChunkerConfig] = []
    for kind, (cls, _, expand) in _KINDS.items():
        if kind not in grid:
            continue
        if not isinstance(grid[kind], dict):
            raise ValueError(f"grid section {kind!r} must be a JSON object")
        configs.extend(config_from_dict({"kind": kind, **p}) for p in expand(cls, grid[kind]))
    if not configs:
        raise ValueError("grid expands to zero chunker configs")
    return configs


def write_chunks(chunks: Sequence[Chunk], path: str | Path) -> None:
    """Write chunks.jsonl: one chunk per line, keyed by the Chunk fields."""
    write_jsonl(path, map(asdict, chunks))


def read_chunks(path: str | Path) -> list[Chunk]:
    """Read a chunks.jsonl dump back into Chunk objects; a line that is not a
    JSON object or lacks a Chunk field raises ValueError naming it."""
    chunks: list[Chunk] = []
    for where, obj in read_jsonl(path, ValueError):
        missing = [f.name for f in fields(Chunk) if f.name not in obj]
        if missing:
            raise ValueError(f"{where}: missing field {missing[0]!r}")
        if not isinstance(obj["sentence_indices"], list):
            raise ValueError(f"{where}: field 'sentence_indices' must be a list")
        chunks.append(
            Chunk(obj["chunk_id"], obj["doc_id"], tuple(obj["sentence_indices"]), obj["text"])
        )
    return chunks
