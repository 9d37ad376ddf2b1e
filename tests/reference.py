"""Reference implementations the tests check the library against.

The scalar distances spell out, one pair at a time, what
``chunkbench.distance.pairwise_joint_distances`` computes for a whole
document. The fixed-size ranges, the breakpoint loop and the two
clustering loops (the single-linkage union-find walk and the queue-BFS
DBSCAN) are what ``chunkbench.chunkers`` once ran per config, building
every distance afresh: they define what the versions reading one shared
per-document state must return. They assemble chunks with
``make_chunks_reference``, the chunk-assembly loop those chunkers once ran
per call, so no chunk id, order or text comes from the memo under test.

``linkage_groups_reference`` and ``dbscan_groups_reference`` are the
grouping steps the shared state once ran on a memo miss: a path-halving
union-find over the state's pair order, and a level-by-level BFS over
boolean numpy rows. The state's label-list merging and its BFS over one
Python int per row must give the same groups.

The last two are the per-token loop of ``chunkbench.embedding.deterministic_embed``
and the set of (doc_id, sentence_index) pairs that
``chunkbench.evaluation.evidence_metrics`` once built per call: the
bincount and per-document versions must give the same bits.

``bench_rows_reference`` is the per-(config, query) loop that
``chunkbench.cli.cmd_bench`` once ran: every results.jsonl row, built
from chunks made without a shared state, texts embedded one at a time,
one score vector per (config, query) and set arithmetic.

``threshold_reference`` is the breakpoint cutoff that
``chunkbench.distance.threshold`` once computed with ``np.percentile``:
the one-sort version must give the same bits, and the breakpoint oracle
cuts at it.

``rank_reference`` is the ranking ``chunkbench.retrieval.retrieve`` must
give: every score the ``math.fsum`` of its float32 products, so the
correctly rounded exact dot product, and ties broken by ``chunk_id``.

``rule_spans_reference`` is the character scanner that
``chunkbench.segmenter.RuleSegmenter`` once ran over each block between
hard breaks: the one-pattern version must give the same spans.
"""

from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from chunkbench.chunkers import Chunk, ChunkerConfig, chunk_document, config_to_dict
from chunkbench.corpus import load_corpus
from chunkbench.distance import (
    ThresholdPolicy,
    consecutive_distances,
    gradient,
    pairwise_joint_distances,
)
from chunkbench.embedding import deterministic_embed, token_bucket, tokenize
from chunkbench.evaluation import f1_score
from chunkbench.segmenter import SegmentedDocument, segment_document


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


def make_chunks_reference(
    doc: SegmentedDocument, groups: Sequence[Sequence[int]]
) -> list[Chunk]:
    """Each non-empty group sorted, the groups ordered by first sentence and
    numbered from 0000, each text its sentences joined by single spaces."""
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


def fixed_size_reference(doc: SegmentedDocument, n_chunks: int, overlap: int) -> list[Chunk]:
    """ceil(n / n_chunks)-sentence ranges, each after the first also holding
    the sentence before it when overlap is 1."""
    size = math.ceil(doc.n / n_chunks)
    groups = []
    for start in range(0, doc.n, size):
        first = start - overlap if start > 0 else 0
        groups.append(list(range(first, min(start + size, doc.n))))
    return make_chunks_reference(doc, groups)


def threshold_reference(
    values: np.ndarray, policy: ThresholdPolicy, slope: np.ndarray | None = None
) -> float:
    """The policy's cutoff with np.percentile's default linear rule: a
    percentile of the values, mean plus amount standard deviations or
    interquartile ranges, a percentile of their gradient (or of slope when
    given), or the amount itself."""
    arr = np.asarray(values, dtype=np.float64)
    if policy.kind == "percentile":
        return float(np.percentile(arr, policy.amount))
    if policy.kind == "std_dev":
        return float(arr.mean() + policy.amount * arr.std())
    if policy.kind == "interquartile":
        q25, q75 = np.percentile(arr, [25.0, 75.0])
        return float(arr.mean() + policy.amount * (q75 - q25))
    if policy.kind == "gradient_percentile":
        return float(np.percentile(gradient(arr) if slope is None else slope, policy.amount))
    return float(policy.amount)


def breakpoint_reference(
    doc: SegmentedDocument, sentence_embeddings: np.ndarray, policy: ThresholdPolicy
) -> list[Chunk]:
    """The consecutive distances, their gradient for a gradient-domain policy,
    the policy's cutoff, then a cut after sentence i wherever the compared
    array strictly exceeds it; too short a document for the array is one chunk."""
    n = doc.n
    if n == 1:
        return make_chunks_reference(doc, [[0]])
    distances = consecutive_distances(sentence_embeddings)
    if policy.gradient_domain and distances.size < 2:
        break_after = np.zeros(distances.size, dtype=bool)
    else:
        compare = gradient(distances) if policy.gradient_domain else distances
        break_after = compare > threshold_reference(distances, policy)
    groups: list[list[int]] = []
    current = [0]
    for i in range(1, n):
        if break_after[i - 1]:
            groups.append(current)
            current = [i]
        else:
            current.append(i)
    groups.append(current)
    return make_chunks_reference(doc, groups)


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
    return make_chunks_reference(doc, list(clusters.values()))


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
    return make_chunks_reference(doc, groups)


def linkage_groups_reference(
    n: int, first: np.ndarray, second: np.ndarray, max_size: int
) -> list[list[int]]:
    """Union the pairs (first[t], second[t]) in turn, skipping a merge past max_size."""
    # Below this many clusters the capped clusters cannot hold n sentences,
    # so once it is reached no merge can pass the cap.
    fewest = -(-n // max_size)
    parent = list(range(n))
    size = [1] * n
    clusters = n

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(first.tolist(), second.tolist()):
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
    return list(groups.values())


def dbscan_groups_reference(adjacent: np.ndarray, core: np.ndarray) -> list[list[int]]:
    """Clusters grown from each unlabeled core point in index order, then noise singletons."""
    unlabeled = np.ones(core.size, dtype=bool)
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
    return groups


def deterministic_embed_reference(text: str, dimension: int) -> np.ndarray:
    """One token at a time into a float64 accumulator, hashing each token
    afresh (the blake2b behind token_bucket's memo)."""
    acc = np.zeros(dimension, dtype=np.float64)
    for token in tokenize(text):
        index, sign = token_bucket.__wrapped__(token, dimension)
        acc[index] += sign
    norm = float(np.linalg.norm(acc))
    if norm == 0.0:
        out = np.zeros(dimension, dtype=np.float32)
        out[0] = 1.0
        return out
    return (acc / norm).astype(np.float32)


def evidence_metrics_reference(retrieved_chunks, evidence) -> tuple[float, float, float]:
    """(recall, precision, f1) from the set of (doc_id, index) pairs covered."""
    covered = {
        (chunk.doc_id, index)
        for chunk in retrieved_chunks
        for index in chunk.sentence_indices
    }
    if not covered:
        return 0.0, 0.0, 0.0
    hits = len(covered & set(evidence))
    recall = hits / len(evidence)
    precision = hits / len(covered)
    return recall, precision, f1_score(precision, recall)


def doc_metrics_reference(retrieved_chunks, relevant_doc_ids) -> tuple[float, float, float]:
    """(recall, precision, f1) from the set of doc_ids retrieved."""
    retrieved = {chunk.doc_id for chunk in retrieved_chunks}
    if not retrieved:
        return 0.0, 0.0, 0.0
    hits = len(retrieved & set(relevant_doc_ids))
    recall = hits / len(relevant_doc_ids)
    precision = hits / len(retrieved)
    return recall, precision, f1_score(precision, recall)


def bench_rows_reference(
    corpus: Path, task: str, grid: Sequence[ChunkerConfig], k_list: Sequence[int], dimension: int
) -> Iterator[dict]:
    """The rows `bench --task task` writes for a corpus whose queries all have
    usable ground truth and are all sampled, with the test embedder at this
    dimension: config by config in grid order, then query by query in
    query_id order, then k by k.

    Each config chunks every document afresh, each text is embedded alone,
    and each (config, query) scores one C @ q on that config's own float64
    chunk matrix, ranked by (-score, chunk_id).
    """
    documents, queries = load_corpus(corpus)
    docs = [segment_document(d.doc_id, d.text) for d in documents]
    sentence_vectors = [
        np.stack([deterministic_embed(text, dimension) for text in doc.sentence_texts])
        for doc in docs
    ]
    queries = sorted(queries, key=lambda q: q.query_id)
    for config in grid:
        chunks = [
            chunk
            for doc, vectors in zip(docs, sentence_vectors)
            for chunk in chunk_document(doc, vectors, config)
        ]
        matrix = np.stack([deterministic_embed(c.text, dimension) for c in chunks]).astype(
            np.float64
        )
        for query in queries:
            scores = matrix @ deterministic_embed(query.text, dimension).astype(np.float64)
            ranked = sorted(range(len(chunks)), key=lambda i: (-scores[i], chunks[i].chunk_id))
            for k in k_list:
                top = [chunks[i] for i in ranked[:k]]
                if task == "doc":
                    recall, precision, f1 = doc_metrics_reference(top, query.relevant_doc_ids)
                else:
                    recall, precision, f1 = evidence_metrics_reference(top, query.evidence)
                yield {
                    "dataset": corpus.name,
                    "task": task,
                    "chunker": config.kind,
                    "config": config_to_dict(config),
                    "query_id": query.query_id,
                    "k": k,
                    "retrieved_chunk_ids": [chunk.chunk_id for chunk in top],
                    "recall": recall,
                    "precision": precision,
                    "f1": f1,
                }


def rank_reference(chunks, vectors, query_vector, k: int) -> list[tuple[str, float]]:
    """(chunk_id, exact score) of the top k chunks, by descending score and then
    ascending chunk_id. Each product of two float32 coordinates is exact in
    float64, so math.fsum of them is the exact dot product, correctly rounded."""
    query = [float(x) for x in query_vector]
    scored = sorted(
        (-math.fsum(float(c) * q for c, q in zip(vector, query)), chunk.chunk_id)
        for chunk, vector in zip(chunks, vectors)
    )
    return [(chunk_id, -negated) for negated, chunk_id in scored[:k]]


def rule_spans_reference(
    text: str, is_abbreviation: Callable[[str, int], bool]
) -> list[tuple[int, int]]:
    """The (start, end) sentence spans of text: each block between runs of two
    or more newlines scanned one character at a time for a terminator, its
    closers, whitespace, then an upper-case letter or a digit, a period that
    is_abbreviation(text, index) accepts never ending a sentence."""
    spans: list[tuple[int, int]] = []
    block_start = 0
    for match in re.finditer(r"\n{2,}", text):
        spans.extend(_scan_block(text, block_start, match.start(), is_abbreviation))
        block_start = match.end()
    spans.extend(_scan_block(text, block_start, len(text), is_abbreviation))
    return spans


def _scan_block(text, start, end, is_abbreviation) -> list[tuple[int, int]]:
    spans: list[tuple[int, int]] = []
    i = start
    while i < end and text[i].isspace():
        i += 1
    if i >= end:
        return spans
    sent_start = i
    j = i
    while j < end:
        ch = text[j]
        if ch in ".!?":
            k = j + 1
            while k < end and text[k] in "\"')]}’”":
                k += 1
            if k < end and text[k].isspace():
                nxt = k
                while nxt < end and text[nxt].isspace():
                    nxt += 1
                starts_new = nxt < end and (text[nxt].isupper() or text[nxt].isdigit())
                if starts_new and not (ch == "." and is_abbreviation(text, j)):
                    spans.append((sent_start, k))
                    sent_start = nxt
                    j = nxt
                    continue
        j += 1
    last = end
    while last > sent_start and text[last - 1].isspace():
        last -= 1
    if last > sent_start:
        spans.append((sent_start, last))
    return spans
