"""Reference implementations the tests check the library against.

The scalar distances spell out, one pair at a time, what
``chunkbench.distance.pairwise_joint_distances`` computes for a whole
document. The two clustering loops are the single-linkage union-find walk
and the queue-BFS DBSCAN that ``chunkbench.chunkers`` once ran per config:
they define what the shared-distance versions must return.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from chunkbench.chunkers import Chunk, _make_chunks
from chunkbench.distance import pairwise_joint_distances
from chunkbench.segmenter import SegmentedDocument


@dataclass(frozen=True)
class JointDistanceParams:
    """Weight and normalizer for the combined positional-semantic distance."""

    positional_weight: float
    sentence_count: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.positional_weight <= 1.0:
            raise ValueError(f"positional_weight must be in [0, 1], got {self.positional_weight}")
        if self.sentence_count < 1:
            raise ValueError(f"sentence_count must be >= 1, got {self.sentence_count}")


def cosine_clipped_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Semantic distance 1 - max(cos(u, v), 0) for unit vectors; range [0, 1]."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.ndim != 1 or u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    cos = float(np.dot(u, v))
    # Upper clamp only absorbs float noise from nearly-unit inputs.
    return 1.0 - min(max(cos, 0.0), 1.0)


def positional_distance(a: int, b: int, n: int) -> float:
    """Index-gap distance |a - b| / n between sentence positions; range [0, 1)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (0 <= a < n and 0 <= b < n):
        raise ValueError(f"sentence index out of range: a={a}, b={b}, n={n}")
    return abs(a - b) / n


def joint_distance(
    a: int, b: int, u: np.ndarray, v: np.ndarray, params: JointDistanceParams
) -> float:
    """Convex combination of positional and clipped-cosine distance; range [0, 1]."""
    w = params.positional_weight
    d = w * positional_distance(a, b, params.sentence_count) + (1.0 - w) * cosine_clipped_distance(u, v)
    return min(1.0, max(0.0, d))


def single_linkage_reference(
    doc: SegmentedDocument,
    sentence_embeddings: np.ndarray,
    n_clusters: int,
    positional_weight: float,
    stop_distance: float,
) -> list[Chunk]:
    """Every pair in (distance, first, second) order, each merged unless it
    would pass the size cap; the scan stops past stop_distance."""
    n = doc.n
    dmat = pairwise_joint_distances(sentence_embeddings, positional_weight)
    max_size = math.ceil(n / n_clusters)

    first, second = np.triu_indices(n, k=1)
    dist = dmat[first, second]
    order = np.lexsort((second, first, dist))

    parent = list(range(n))
    size = [1] * n

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for t in order:
        if dist[t] > stop_distance:
            break
        ra, rb = find(int(first[t])), find(int(second[t]))
        if ra == rb:
            continue
        if size[ra] + size[rb] > max_size:
            continue
        parent[rb] = ra
        size[ra] += size[rb]

    clusters: dict[int, list[int]] = {}
    for i in range(n):
        clusters.setdefault(find(i), []).append(i)
    return _make_chunks(doc, list(clusters.values()))


def dbscan_reference(
    doc: SegmentedDocument,
    sentence_embeddings: np.ndarray,
    eps: float,
    min_samples: int,
    positional_weight: float,
) -> list[Chunk]:
    """Queue BFS from each unlabeled core point in index order; noise stays singleton."""
    n = doc.n
    dmat = pairwise_joint_distances(sentence_embeddings, positional_weight)
    neighborhoods = [np.flatnonzero(dmat[i] <= eps) for i in range(n)]
    core = [neighborhoods[i].size >= min_samples for i in range(n)]

    labels = [-1] * n
    next_label = 0
    for seed in range(n):
        if labels[seed] != -1 or not core[seed]:
            continue
        labels[seed] = next_label
        queue = deque([seed])
        while queue:
            point = queue.popleft()
            for neighbor in neighborhoods[point]:
                neighbor = int(neighbor)
                if labels[neighbor] == -1:
                    labels[neighbor] = next_label
                    if core[neighbor]:
                        queue.append(neighbor)
        next_label += 1

    groups: list[list[int]] = [[] for _ in range(next_label)]
    for i in range(n):
        if labels[i] == -1:
            groups.append([i])
        else:
            groups[labels[i]].append(i)
    return _make_chunks(doc, groups)
