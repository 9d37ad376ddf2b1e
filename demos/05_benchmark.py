"""Run a small retrieval benchmark end to end with the library API: chunk the
bundled corpus under a handful of configs, retrieve, score, and pick the best
config per chunker family."""

from pathlib import Path
import sys

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from chunkbench.chunkers import canonical_config, chunk_document, config_from_dict
from chunkbench.corpus import load_corpus
from chunkbench.embedding import EmbedderSpec, embed_batch
from chunkbench.evaluation import aggregate, doc_metrics, select_best_config
from chunkbench.retrieval import ScoreTable, build_index, retrieve
from chunkbench.segmenter import segment_document

DATASET = Path(__file__).resolve().parents[1] / "data" / "mini"
K_VALUES = [1, 3, 5]

GRID = [
    {"kind": "fixed_size", "n_chunks": n, "overlap": 0} for n in (2, 4, 8)
] + [
    {"kind": "breakpoint", "policy": {"kind": "percentile", "amount": a}} for a in (50, 90)
] + [
    {"kind": "single_linkage", "n_clusters": 4, "positional_weight": w, "stop_distance": 0.5}
    for w in (0.0, 0.5, 1.0)
] + [
    {"kind": "dbscan", "eps": 0.3, "min_samples": 2, "positional_weight": 0.5},
]


def main():
    spec = EmbedderSpec(backend="test", model_id="hash-v1", dimension=512)
    documents, queries = load_corpus(DATASET)
    segdocs = [segment_document(d.doc_id, d.text) for d in documents]
    vectors = {
        doc.doc_id: embed_batch(spec, [s.text for s in doc.sentences]) for doc in segdocs
    }

    queries = sorted(queries, key=lambda q: q.query_id)
    # One score table for every config: each chunk text is scored against each query once.
    table = ScoreTable(spec, [query.text for query in queries])

    rows = []
    for raw in GRID:
        config = config_from_dict(raw)
        chunks = []
        for doc in segdocs:
            chunks.extend(chunk_document(doc, vectors[doc.doc_id], config))
        index = build_index(chunks, table)
        # Per query, (recall, precision, f1) at each k, in query_id order.
        scores = []
        for query in queries:
            top = [chunk for chunk, _ in retrieve(index, query.text, max(K_VALUES))]
            scores.append([doc_metrics(top[:k], set(query.relevant_doc_ids)) for k in K_VALUES])
        rows.extend(aggregate(config, canonical_config(config), K_VALUES, scores))

    print(f"{len(GRID)} configs x {len(queries)} queries x k in {K_VALUES}\n")
    print(f"{'config':<78} {'k':>2} {'recall':>7} {'prec':>6} {'f1':>6}")
    for row in rows:
        print(f"{row.config_id:<78} {row.k:>2} {row.recall:>7.3f} {row.precision:>6.3f} {row.f1:>6.3f}")

    best = select_best_config(rows, K_VALUES)
    print("\nbest config per family (highest mean F1 across k):")
    for family in sorted(best):
        print(f"  {family:<12} {canonical_config(best[family])}")


if __name__ == "__main__":
    main()
