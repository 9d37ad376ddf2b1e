"""Layer microbenchmarks, marked perf and so deselected by default: the 200
breakpoint and clustering configs of the default grid on one 100-sentence
document, and the full 218-config grid over every ``data/mini`` document,
each document's configs reading one state as ``chunkbench bench`` does.

Run it with ``python -m pytest -m perf tests/test_perf_chunkers.py``; set
``OPENBLAS_NUM_THREADS=1`` for steadier timings on a small machine.
"""

import pytest

pytest.importorskip("pytest_benchmark")

from chunkbench.chunkers import DocumentDistances, chunk_document, default_grid  # noqa: E402
from chunkbench.corpus import load_corpus  # noqa: E402
from chunkbench.embedding import EmbedderSpec, embed_batch  # noqa: E402
from chunkbench.segmenter import segment_document  # noqa: E402

from conftest import MINI_DATASET, make_doc  # noqa: E402

pytestmark = pytest.mark.perf


def test_semantic_grid_on_one_100_sentence_document(benchmark):
    documents, _ = load_corpus(MINI_DATASET)
    texts = [text for d in documents for text in segment_document(d.doc_id, d.text).sentence_texts]
    doc = make_doc("doc", texts[:100])
    embeddings = embed_batch(EmbedderSpec(backend="test"), doc.sentence_texts)
    configs = [config for config in default_grid() if config.family != "fixed_size"]
    assert doc.n == 100 and len(configs) == 200

    def chunk_grid():
        distances = DocumentDistances(doc, embeddings)
        return [chunk_document(doc, embeddings, config, distances=distances) for config in configs]

    assert len(benchmark(chunk_grid)) == 200


def test_default_grid_on_every_mini_document(benchmark):
    documents, _ = load_corpus(MINI_DATASET)
    spec = EmbedderSpec(backend="test")
    docs = [segment_document(d.doc_id, d.text) for d in documents]
    embeddings = [embed_batch(spec, doc.sentence_texts) for doc in docs]
    configs = default_grid()
    assert len(configs) == 218

    def chunk_corpus():
        # One fresh state per document and round, as one bench run builds them.
        states = [DocumentDistances(doc, emb) for doc, emb in zip(docs, embeddings)]
        return [
            chunk_document(doc, state.embeddings, config, distances=state)
            for config in configs
            for doc, state in zip(docs, states)
        ]

    assert len(benchmark(chunk_corpus)) == 218 * len(docs)
