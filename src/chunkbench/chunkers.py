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
from bisect import bisect_left
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, Union

import numpy as np

from .distance import (
    ThresholdPolicy,
    consecutive_distances,
    gradient,
    pairwise_joint_distances,
    threshold,
)
from .files import from_json, read_jsonl, write_jsonl
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


@dataclass(frozen=True, slots=True)
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


# Each config's .kind names its chunker and .family its reporting family;
# both clustering chunkers share one family.
ChunkerConfig = Union[FixedSizeConfig, BreakpointConfig, SingleLinkageConfig, DbscanConfig]


def _fixed_groups(n: int, size: int, overlap: int) -> list[range]:
    return [range(max(a - overlap, 0), min(a + size, n)) for a in range(0, n, size)]


def _breakpoint_groups(break_after: np.ndarray) -> list[range]:
    n = break_after.size + 1
    starts = (break_after.nonzero()[0] + 1).tolist()
    return [range(a, b) for a, b in zip([0, *starts], [*starts, n])]


def _linkage_groups(
    n: int, first: np.ndarray, second: np.ndarray, max_size: int
) -> list[list[int]]:
    """Join the pairs (first[t], second[t]) in turn, skipping a merge past max_size."""
    # Below this many clusters the capped clusters cannot hold n sentences,
    # so once it is reached no merge can pass the cap.
    fewest = -(-n // max_size)
    label = list(range(n))
    members = [[i] for i in range(n)]
    clusters = n
    for a, b in zip(first.tolist(), second.tolist()):
        if clusters == fewest:
            break
        big, small = members[label[a]], members[label[b]]
        if big is small or len(big) + len(small) > max_size:
            continue
        # Relabelling the smaller cluster moves each sentence O(log n) times.
        if len(big) < len(small):
            big, small = small, big
        keep = label[big[0]]
        for i in small:
            label[i] = keep
        big += small
        small.clear()
        clusters -= 1
    return [group for group in members if group]


def _bit_indices(mask: int) -> list[int]:
    indices = []
    while mask:
        indices.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return indices


def _dbscan_groups(rows: bytes, n: int, min_samples: int) -> list[list[int]]:
    """Clusters grown from each unlabeled core point in index order, then noise
    singletons. rows holds the n points' neighbourhoods, each ceil(n / 8) bytes of
    little-endian bits; a point is core when its row has at least min_samples bits set."""
    width = -(-n // 8)
    adjacent = [int.from_bytes(rows[i * width : (i + 1) * width], "little") for i in range(n)]
    seeds = [i for i, row in enumerate(adjacent) if row.bit_count() >= min_samples]
    core = sum(1 << i for i in seeds)
    unlabeled = (1 << n) - 1
    groups: list[list[int]] = []
    for seed in seeds:
        if not unlabeled >> seed & 1:
            continue
        before = unlabeled
        unlabeled ^= 1 << seed
        frontier = adjacent[seed] & unlabeled
        # Level by level: everything the frontier's core points reach and no
        # earlier cluster took, which is what a queue BFS from seed labels.
        while frontier:
            unlabeled ^= frontier
            reach = 0
            for i in _bit_indices(frontier & core):
                reach |= adjacent[i]
            frontier = reach & unlabeled
        groups.append(_bit_indices(before ^ unlabeled))
    groups.extend([i] for i in _bit_indices(unlabeled))
    return groups


class DocumentDistances:
    """One document's chunking state, shared by every config that chunks it.

    Built lazily. Its numpy arrays are the consecutive-distance profile and
    its gradient, one combined-distance blend per positional weight, and for
    single linkage one pair order per (weight, stop distance): the pairs
    within the stop, sorted by distance, ties by index, which no size cap
    changes. DBSCAN's neighbourhoods, one per (weight, eps), hold no array.

    It also memoises groupings: each chunker keys its grouping by exactly
    what the grouping depends on, so a grouping is computed once per key.
    The state hands out one Chunk per (ordinal, sentence indices) for its
    whole life, and every call gets a fresh list of them: a grouping reached
    under a second key is made of the first key's Chunks, and Chunks with
    equal sentence indices share one text. So, while the states live, chunkings
    of the corpus are equal exactly when their Chunks are the same objects.
    """

    def __init__(
        self, doc: SegmentedDocument, sentence_embeddings: np.ndarray | None = None
    ) -> None:
        if sentence_embeddings is not None and len(sentence_embeddings) != doc.n:
            raise ValueError(f"got {len(sentence_embeddings)} embeddings for {doc.n} sentences")
        self.doc = doc
        self.embeddings = sentence_embeddings
        self._profile: tuple[np.ndarray, np.ndarray | None] | None = None
        self._blends: dict[float, np.ndarray] = {}
        self._pairs: dict[tuple[float, float], tuple[np.ndarray, np.ndarray]] = {}
        self._hoods: dict[tuple[float, float], tuple[bytes, list[int]]] = {}
        self._groupings: dict[tuple, tuple[Chunk, ...]] = {}
        self._parts: dict[tuple[int, ...], tuple[tuple[int, ...], str]] = {}
        # Per ordinal: its chunk id and its Chunk for each sentence-index tuple.
        self._ordinals: list[tuple[str, dict[tuple[int, ...], Chunk]]] = []

    def required_embeddings(self) -> np.ndarray:
        """The sentence embeddings; a state built without them raises ValueError."""
        if self.embeddings is None:
            raise ValueError("this chunker requires sentence embeddings")
        return self.embeddings

    def profile(self) -> tuple[np.ndarray, np.ndarray | None]:
        """(the n - 1 consecutive distances, their gradient, or None below two
        distances); needs at least two sentences."""
        if self._profile is None:
            profile = consecutive_distances(self.required_embeddings())
            self._profile = (profile, gradient(profile) if profile.size >= 2 else None)
        return self._profile

    def blend(self, positional_weight: float) -> np.ndarray:
        """The n-by-n combined-distance matrix at this weight."""
        dmat = self._blends.get(positional_weight)
        if dmat is None:
            dmat = pairwise_joint_distances(self.required_embeddings(), positional_weight)
            self._blends[positional_weight] = dmat
        return dmat

    def pair_order(
        self, positional_weight: float, stop_distance: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """(first, second) of every pair first < second at most stop_distance
        apart at this weight, in ascending (distance, first, second) order,
        as int32 arrays."""
        key = (positional_weight, stop_distance)
        pairs = self._pairs.get(key)
        if pairs is None:
            dmat = self.blend(positional_weight)
            first, second = np.triu(dmat <= stop_distance, k=1).nonzero()
            # nonzero lists pairs by (first, second), so a stable sort on
            # distance alone breaks ties by index.
            order = np.argsort(dmat[first, second], kind="stable")
            pairs = (first[order].astype(np.int32), second[order].astype(np.int32))
            self._pairs[key] = pairs
        return pairs

    def neighbourhood(self, positional_weight: float, eps: float) -> tuple[bytes, list[int]]:
        """(the rows of blend <= eps, each packed little-endian in ceil(n / 8) bytes,
        in one bytes; the points' degrees, each counting the point itself, sorted)."""
        key = (positional_weight, eps)
        hood = self._hoods.get(key)
        if hood is None:
            adjacent = self.blend(positional_weight) <= eps
            rows = np.packbits(adjacent, axis=1, bitorder="little").tobytes()
            hood = self._hoods[key] = (rows, sorted(adjacent.sum(axis=1).tolist()))
        return hood

    def chunks(
        self, key: tuple, group: Callable[..., Iterable[Sequence[int]]], *args
    ) -> list[Chunk]:
        """A fresh list of the Chunks of the grouping memoised under key, which
        must determine it; on a miss group(*args) gives its sentence groups,
        in any order.

        Chunks are numbered in order of their first sentence, and each
        chunk's text is its sentences joined in document order.
        """
        grouping = self._groupings.get(key)
        if grouping is None:
            ordered = sorted((sorted(g) for g in group(*args) if g), key=lambda g: g[0])
            grouping = self._groupings[key] = tuple(
                self._chunk(ordinal, g) for ordinal, g in enumerate(ordered)
            )
        return list(grouping)

    def _chunk(self, ordinal: int, group: list[int]) -> Chunk:
        indices, text = self._part(group)
        ordinals = self._ordinals
        while len(ordinals) <= ordinal:
            ordinals.append((f"{self.doc.doc_id}-{len(ordinals):04d}", {}))
        chunk_id, chunks = ordinals[ordinal]
        chunk = chunks.get(indices)
        if chunk is None:
            chunk = chunks[indices] = Chunk(chunk_id, self.doc.doc_id, indices, text)
        return chunk

    def _part(self, group: list[int]) -> tuple[tuple[int, ...], str]:
        indices = tuple(group)
        part = self._parts.get(indices)
        if part is None:
            text = " ".join(self.doc.sentences[i].text for i in indices)
            part = self._parts[indices] = (indices, text)
        return part


def _fixed_size(state: DocumentDistances, config: FixedSizeConfig) -> list[Chunk]:
    """Split into ceil(n / n_chunks)-sentence ranges; overlap=1 prepends the
    previous base range's last sentence to each later chunk."""
    n = state.doc.n
    size = -(-n // config.n_chunks)  # ceil(n / n_chunks); n / n_chunks can underflow to 0.0
    overlap = config.overlap
    return state.chunks(("fixed_size", size, overlap), _fixed_groups, n, size, overlap)


def _breakpoint(state: DocumentDistances, config: BreakpointConfig) -> list[Chunk]:
    """Cut after sentence i wherever the profile strictly exceeds the cutoff.

    Distance-domain policies compare the consecutive-distance array against
    the cutoff; gradient-domain policies compare its gradient. A document
    too short for the comparison array is one chunk.
    """
    policy = config.policy
    # One row per sentence; a state without embeddings raises here.
    if len(state.required_embeddings()) == 1:
        break_after = np.zeros(0, dtype=bool)
    else:
        profile, slope = state.profile()
        if policy.gradient_domain and slope is None:
            break_after = np.zeros(profile.size, dtype=bool)
        else:
            compare = slope if policy.gradient_domain else profile
            break_after = compare > threshold(profile, policy, slope)
    return state.chunks(("breakpoint", break_after.tobytes()), _breakpoint_groups, break_after)


def _single_linkage(state: DocumentDistances, config: SingleLinkageConfig) -> list[Chunk]:
    """Merge the closest sentence pairs first, subject to a cluster-size cap.

    Pairs are visited in ascending (distance, first index, second index)
    order; a merge is skipped when the combined size would exceed
    ceil(n / n_clusters), and scanning stops at the first pair whose
    distance exceeds stop_distance. Whatever never merged stays singleton.
    """
    n = state.doc.n
    max_size = -(-n // config.n_clusters)  # ceil(n / n_clusters), exact for any int
    first, second = state.pair_order(config.positional_weight, config.stop_distance)
    # Stops with as many pairs within them share one pair set at a weight.
    return state.chunks(
        ("single_linkage", config.positional_weight, max_size, len(first)),
        _linkage_groups, n, first, second, max_size,
    )


def _dbscan(state: DocumentDistances, config: DbscanConfig) -> list[Chunk]:
    """Density clustering over the combined distance.

    A sentence is a core point when at least min_samples sentences
    (itself included) lie within eps. Clusters grow from core points in
    ascending index order; border points keep the first cluster that
    reaches them; noise becomes singleton chunks.
    """
    rows, degrees = state.neighbourhood(config.positional_weight, config.eps)
    # Rows fix the degrees, so with them a core count fixes the core set, at any weight.
    n = len(degrees)
    cores = n - bisect_left(degrees, config.min_samples)
    return state.chunks(("dbscan", rows, cores), _dbscan_groups, rows, n, config.min_samples)


def _axes(cls: type, section: dict) -> Iterator[dict]:
    """Every combination of a grid section's field values, in field order with
    the last field varying fastest; a bare value is a one-value axis."""
    names = [f.name for f in fields(cls) if f.name in section]
    unknown = [key for key in section if key not in names]
    if unknown:
        raise ValueError(f"unknown {cls.kind} grid axes {unknown}")
    for values in itertools.product(*(_values(section[name]) for name in names)):
        yield dict(zip(names, values))


def _threshold_axes(cls: type, section: dict) -> Iterator[dict]:
    """A breakpoint grid section maps each threshold kind to its amounts."""
    for kind, amounts in section.items():
        for amount in _values(amounts):
            yield {"policy": {"kind": kind, "amount": amount}}


def _values(axis: object) -> list:
    return axis if isinstance(axis, list) else [axis]


# kind -> (config class, chunker, grid-section expander), in grid order. The
# chunker is called as chunker(state, config).
_KINDS: dict[str, tuple[type, Callable[..., list[Chunk]], Callable[..., Iterator[dict]]]] = {
    cls.kind: (cls, chunker, expand)
    for cls, chunker, expand in (
        (FixedSizeConfig, _fixed_size, _axes),
        (BreakpointConfig, _breakpoint, _threshold_axes),
        (SingleLinkageConfig, _single_linkage, _axes),
        (DbscanConfig, _dbscan, _axes),
    )
}


def config_to_dict(config: ChunkerConfig) -> dict:
    """JSON-friendly tagged representation of a chunker config: every field."""
    return {"kind": config.kind, **asdict(config)}


def config_from_dict(data: dict) -> ChunkerConfig:
    """Inverse of config_to_dict; raises ValueError on unknown or bad input.

    Omitted fields keep their defaults and every value is checked against
    its field's declared type by files.from_json: an int is taken for a
    float field (0 becomes 0.0), and an error names "<kind>.<field>".
    """
    if not isinstance(data, dict):
        raise ValueError("chunker config must be a JSON object")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unknown chunker kind {kind!r}")
    return from_json(_KINDS[kind][0], {k: v for k, v in data.items() if k != "kind"}, kind)


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
    embedding row per sentence. It reads distances, the state built for
    this document from these same sentence embeddings, when given, and
    otherwise a throwaway state.
    """
    if distances is None:
        distances = DocumentDistances(doc, sentence_embeddings)
    elif distances.doc is not doc:
        raise ValueError("distances were built for another document")
    elif distances.embeddings is not sentence_embeddings:
        raise ValueError("distances were built from other sentence embeddings")
    return _KINDS[config.kind][1](distances, config)


def default_grid() -> list[ChunkerConfig]:
    """The full default hyperparameter sweep, in canonical order."""
    return grid_from_dict(DEFAULT_GRID)


def grid_from_dict(grid: dict) -> list[ChunkerConfig]:
    """Expand a config-file grid description into chunker configs.

    Kinds appear in fixed order (fixed_size, breakpoint, single_linkage,
    dbscan). A kind's section maps field names to value lists (an omitted
    field keeps its default) and expands to every combination, in field
    order; the breakpoint section maps each threshold kind to its amounts.
    A bare value is a one-value axis. Values are checked as by
    config_from_dict.
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
    """Read a chunks.jsonl dump back into Chunk objects; a bad line raises
    ValueError naming the file, line and field."""
    return [chunk for _, chunk in read_jsonl(path, Chunk, ValueError)]
