"""Compare two chunker configs on per-query F1 and test whether the gap is
statistically meaningful with a paired sign-flip permutation test."""

from pathlib import Path
import sys

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from chunkbench.chunkers import canonical_config, chunk_document, config_from_dict
from chunkbench.corpus import load_corpus
from chunkbench.embedding import EmbedderSpec, embed_batch
from chunkbench.evaluation import doc_metrics, paired_permutation_test
from chunkbench.retrieval import ScoreTable, build_index, retrieve
from chunkbench.segmenter import segment_document

DATASET = Path(__file__).resolve().parents[1] / "data" / "mini"
K = 3

LEFT = {"kind": "fixed_size", "n_chunks": 3, "overlap": 0}
RIGHT = {"kind": "breakpoint", "policy": {"kind": "percentile", "amount": 90}}


def per_query_f1(raw_config, segdocs, vectors, queries, table):
    config = config_from_dict(raw_config)
    chunks = []
    for doc in segdocs:
        chunks.extend(chunk_document(doc, vectors[doc.doc_id], config))
    index = build_index(chunks, table)
    scores = []
    for query in queries:
        top = [chunk for chunk, _ in retrieve(index, query.text, K)]
        _, _, f1 = doc_metrics(top, set(query.relevant_doc_ids))
        scores.append(f1)
    return np.array(scores)


def main():
    spec = EmbedderSpec(backend="test", model_id="hash-v1", dimension=512)
    documents, queries = load_corpus(DATASET)
    queries = sorted(queries, key=lambda q: q.query_id)
    segdocs = [segment_document(d.doc_id, d.text) for d in documents]
    vectors = {
        doc.doc_id: embed_batch(spec, [s.text for s in doc.sentences]) for doc in segdocs
    }

    # One score table for both configs: each chunk text is scored against each query once.
    table = ScoreTable(spec, [query.text for query in queries])
    left = per_query_f1(LEFT, segdocs, vectors, queries, table)
    right = per_query_f1(RIGHT, segdocs, vectors, queries, table)

    print(f"per-query F1@{K} on {len(queries)} queries\n")
    print(f"{'query':<6} {'left':>6} {'right':>6} {'diff':>7}")
    for query, a, b in zip(queries, left, right):
        print(f"{query.query_id:<6} {a:>6.3f} {b:>6.3f} {b - a:>+7.3f}")
    print(f"\nleft  = {canonical_config(config_from_dict(LEFT))}")
    print(f"right = {canonical_config(config_from_dict(RIGHT))}")
    print(f"mean  = {left.mean():.3f} vs {right.mean():.3f}")

    # 10 paired scores -> the test enumerates all 2^10 sign flips exactly
    p = paired_permutation_test(left, right, iterations=10000)
    print(f"\ntwo-sided paired permutation test: p = {p:.4f}")
    verdict = "is" if p < 0.05 else "is not"
    print(f"the difference {verdict} significant at the 0.05 level.")


if __name__ == "__main__":
    main()
