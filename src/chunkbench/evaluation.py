"""Retrieval metrics, aggregation, best-config selection, and paired significance.

Document-level metrics score the distinct documents the retrieved chunks
came from; evidence-level metrics score the (doc_id, sentence_index) pairs
they cover, counted on one integer bitmask of sentences per document. Both
are one coverage computation over those counts, macro-averaged over queries.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import AbstractSet, Sequence

import numpy as np

from .chunkers import Chunk, ChunkerConfig


@dataclass(frozen=True)
class MetricRow:
    """Macro-averaged metrics for one (config, k) cell; config_id is the
    config's canonical_config string."""

    config: ChunkerConfig
    config_id: str
    k: int
    recall: float
    precision: float
    f1: float
    n_queries: int


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean, defined as 0 when both terms vanish."""
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _coverage(hits: int, n_truth: int, n_retrieved: int) -> tuple[float, float, float]:
    """(recall, precision, f1) of hits among n_retrieved units against n_truth true ones."""
    if not n_truth:
        raise ValueError("ground truth must be non-empty")
    if not n_retrieved:
        return 0.0, 0.0, 0.0
    recall, precision = hits / n_truth, hits / n_retrieved
    return recall, precision, f1_score(precision, recall)


def doc_metrics(
    retrieved_chunks: Sequence[Chunk], relevant_doc_ids: AbstractSet[str]
) -> tuple[float, float, float]:
    """(recall, precision, f1) over the distinct documents retrieved."""
    retrieved = {chunk.doc_id for chunk in retrieved_chunks}
    hits = len(retrieved.intersection(relevant_doc_ids))
    return _coverage(hits, len(relevant_doc_ids), len(retrieved))


@functools.lru_cache(maxsize=1 << 16)
def _bits(indices: tuple[int, ...]) -> int:
    """The int with bit i set for each sentence index i of a chunk, memoised per
    index tuple. Every i must be >= 0: a negative one raises ValueError (a negative
    shift count). Each i is made a Python int, as a numpy integer shift wraps at 64."""
    return sum(1 << i for i in set(map(int, indices)))


def evidence_metrics(
    retrieved_chunks: Sequence[Chunk], evidence: AbstractSet[tuple[str, int]]
) -> tuple[float, float, float]:
    """(recall, precision, f1) over the sentences the retrieved chunks cover."""
    covered: dict[str, int] = {}
    for chunk in retrieved_chunks:
        covered[chunk.doc_id] = covered.get(chunk.doc_id, 0) | _bits(chunk.sentence_indices)
    hits = sum(1 for d, i in evidence if i >= 0 and covered.get(d, 0) >> int(i) & 1)
    return _coverage(hits, len(evidence), sum(map(int.bit_count, covered.values())))


def aggregate(
    config: ChunkerConfig,
    config_id: str,
    k_values: Sequence[int],
    scores: Sequence[Sequence[tuple[float, float, float]]],
) -> list[MetricRow]:
    """Macro-average one config's per-query scores into one row per k.

    scores holds one entry per query: its (recall, precision, f1) at each
    k of k_values. Each mean sums the queries in the given order, so the
    caller fixes the bits by its query order. No scores give no rows.
    """
    if not scores:
        return []
    rows: list[MetricRow] = []
    for k, per_query in zip(k_values, zip(*scores, strict=True), strict=True):
        recall, precision, f1 = (sum(values) / len(scores) for values in zip(*per_query))
        rows.append(MetricRow(config, config_id, k, recall, precision, f1, len(scores)))
    return rows


def select_best_config(
    rows: Sequence[MetricRow], k_values: Sequence[int]
) -> dict[str, ChunkerConfig]:
    """Per reporting family, the config with the highest mean F1 across k.

    Every config must have a row for every k in k_values; ties go to the
    canonically smallest config serialization.
    """
    k_values = list(k_values)
    if not k_values:
        raise ValueError("k_values must be non-empty")
    by_config: dict[str, tuple[ChunkerConfig, dict[int, float]]] = {}
    for row in rows:
        by_config.setdefault(row.config_id, (row.config, {}))[1][row.k] = row.f1
    if not by_config:
        raise ValueError("no metric rows to select from")

    best: dict[str, tuple[float, ChunkerConfig]] = {}
    for config_id in sorted(by_config):
        config, f1_by_k = by_config[config_id]
        missing = [k for k in k_values if k not in f1_by_k]
        if missing:
            raise ValueError(
                f"config {config_id} is missing rows for k={missing}"
            )
        mean_f1 = sum(f1_by_k[k] for k in k_values) / len(k_values)
        incumbent = best.get(config.family)
        if incumbent is None or mean_f1 > incumbent[0]:
            best[config.family] = (mean_f1, config)
        # On an exact tie the earlier (canonically smaller) config_id wins,
        # which the sorted iteration already guarantees.
    return {fam: config for fam, (_, config) in sorted(best.items())}


def paired_permutation_test(
    scores_a: Sequence[float],
    scores_b: Sequence[float],
    iterations: int = 10000,
    seed: int = 0,
) -> float:
    """Two-sided sign-flip permutation test on paired per-query scores.

    The statistic is the mean difference. When 2**n <= iterations the
    null distribution is enumerated exhaustively (the identity flip makes
    p >= 1/2**n); otherwise `iterations` random sign vectors are drawn
    from a seeded generator and the estimate is (hits + 1) / (iterations + 1).
    Identical inputs give p = 1.0.
    """
    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"paired scores must be 1D and equal length: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise ValueError("paired scores must be non-empty")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    diffs = a - b
    n = diffs.size
    observed = abs(float(np.mean(diffs)))

    if n < 63 and 2**n <= iterations:
        total = 2**n
        hits = 0
        block = 1 << 14
        shifts = np.arange(n, dtype=np.uint64)
        for start in range(0, total, block):
            masks = np.arange(start, min(start + block, total), dtype=np.uint64)
            bits = (masks[:, None] >> shifts) & np.uint64(1)
            signs = 1.0 - 2.0 * bits.astype(np.float64)
            stats = np.abs((signs * diffs).mean(axis=1))
            hits += int(np.count_nonzero(stats >= observed))
        return hits / total

    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=(iterations, n)).astype(np.float64) * 2.0 - 1.0
    stats = np.abs((signs * diffs).mean(axis=1))
    hits = int(np.count_nonzero(stats >= observed))
    return (hits + 1) / (iterations + 1)
