"""Layer microbenchmark, marked perf and so deselected by default: the 170
clustering configs of the default grid on one 100-sentence document.

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


def test_clustering_grid_on_one_100_sentence_document(benchmark):
    documents, _ = load_corpus(MINI_DATASET)
    texts = [text for d in documents for text in segment_document(d.doc_id, d.text).sentence_texts]
    doc = make_doc("doc", texts[:100])
    embeddings = embed_batch(EmbedderSpec(backend="test"), doc.sentence_texts)
    configs = [config for config in default_grid() if config.family == "clustering"]
    assert doc.n == 100 and len(configs) == 170

    def chunk_grid():
        distances = DocumentDistances(embeddings)
        return [chunk_document(doc, embeddings, config, distances=distances) for config in configs]

    assert len(benchmark(chunk_grid)) == 170
