"""Brute-force oracle for a sample of ``results.jsonl`` rows.

For a few configs of the default grid, picked by the seed, it chunks the
corpus, embeds every text one at a time with ``deterministic_embed``, scores
each chunk against each query, ranks by (descending score, ascending
chunk id) and recomputes recall, precision and F1 by set arithmetic. The
rows the CLI wrote must match exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from chunkbench.chunkers import chunk_document, config_to_dict, default_grid
from chunkbench.corpus import load_corpus, sample_queries
from chunkbench.embedding import EmbedderSpec, deterministic_embed
from chunkbench.segmenter import segment_document

K_LIST = (1, 3, 5, 10)
QUERY_SAMPLE = 100
CLI_SEED = 7


def _embed(texts: list[str], dimension: int) -> np.ndarray:
    return np.stack([deterministic_embed(t, dimension) for t in texts])


def _f1(precision: float, recall: float) -> float:
    return 0.0 if precision + recall == 0.0 else 2.0 * precision * recall / (precision + recall)


def _scores(task: str, top: list, query) -> tuple[float, float, float]:
    if task == "doc":
        retrieved = {chunk.doc_id for chunk in top}
        relevant = set(query.relevant_doc_ids)
    else:
        retrieved = {(chunk.doc_id, i) for chunk in top for i in chunk.sentence_indices}
        relevant = set(query.evidence)
    hits = len(retrieved & relevant)
    recall, precision = hits / len(relevant), hits / len(retrieved)
    return recall, precision, _f1(precision, recall)


def check_rows(corpus: Path, out: Path, task: str, seed: int, n_configs: int) -> str | None:
    """None when the sampled rows match the oracle, else what differs."""
    documents, queries = load_corpus(corpus)
    queries = sorted(sample_queries(queries, QUERY_SAMPLE, CLI_SEED), key=lambda q: q.query_id)
    dimension = EmbedderSpec().dimension
    segdocs = [segment_document(d.doc_id, d.text) for d in documents]
    vectors = {d.doc_id: _embed(d.sentence_texts, dimension) for d in segdocs}
    query_vectors = _embed([q.text for q in queries], dimension).astype(np.float64)
    grid = default_grid()
    picks = np.random.default_rng(seed).choice(len(grid), size=n_configs, replace=False)
    configs = {json.dumps(config_to_dict(grid[i]), sort_keys=True): grid[i] for i in picks}

    rows: dict[tuple[str, str, int], dict] = {}
    total = 0
    with (out / "results.jsonl").open(encoding="utf-8") as fh:
        for line in fh:
            total += 1
            row = json.loads(line)
            key = json.dumps(row["config"], sort_keys=True)
            if key in configs:
                rows[(key, row["query_id"], row["k"])] = row
    expected_rows = len(grid) * len(queries) * len(K_LIST)
    if total != expected_rows:
        return f"results.jsonl has {total} rows, expected {expected_rows}"

    for key, config in configs.items():
        chunks = [c for d in segdocs for c in chunk_document(d, vectors[d.doc_id], config)]
        matrix = _embed([c.text for c in chunks], dimension).astype(np.float64)
        for query, query_vec in zip(queries, query_vectors):
            scores = matrix @ query_vec
            ranked = sorted(range(len(chunks)), key=lambda i: (-scores[i], chunks[i].chunk_id))
            for k in K_LIST:
                top = [chunks[i] for i in ranked[:k]]
                row = rows.get((key, query.query_id, k))
                if row is None:
                    return f"no row for config {key} query {query.query_id} k={k}"
                expected = [c.chunk_id for c in top]
                if row["retrieved_chunk_ids"] != expected:
                    return f"config {key} query {query.query_id} k={k}: retrieved ids differ"
                if (row["recall"], row["precision"], row["f1"]) != _scores(task, top, query):
                    return f"config {key} query {query.query_id} k={k}: metrics differ"
    return None
