"""perfbench's tracer sorts each embed_batch call into sentences, chunks or
queries by the span or function it is called from. A traced doc bench on
data/mini must count each kind's texts where the program embeds them, so a
call moved out of its named function fails here rather than mislabelling
the per-layer metrics."""

import importlib.util
import json
import os
import subprocess
import sys

from chunkbench.corpus import load_corpus
from chunkbench.segmenter import segment_document

from conftest import MINI_DATASET, REPO_ROOT

TRACER = REPO_ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_traced_doc_bench_counts_each_kind_of_embed(tmp_path):
    spans = tmp_path / "spans.json"
    argv = [sys.executable, str(TRACER), str(spans),
            "bench", "--task", "doc", "--dataset", str(MINI_DATASET), "--out", str(tmp_path / "o")]
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    subprocess.run(argv, env=env, cwd=REPO_ROOT, check=True, capture_output=True, timeout=120)
    metrics = load_tracer().summarize([json.loads(spans.read_text("utf-8"))])

    documents, queries = load_corpus(MINI_DATASET)
    sentences = {
        sentence.text
        for d in documents
        for sentence in segment_document(d.doc_id, d.text).sentences
    }
    assert len(queries) == 10
    assert metrics["embedding.queries.texts"] == 10
    assert metrics["embedding.queries.distinct_texts"] == 10
    assert metrics["embedding.chunks.distinct_texts"] == 391
    assert metrics["embedding.sentences.distinct_texts"] == len(sentences)
    # One sentence embed per document, so a move into a function named for chunks shows.
    assert metrics["embedding.sentences.calls"] == len(documents) == 12
    # bench builds one index per distinct chunking, and no more.
    assert metrics["retrieval.build_index.calls"] == metrics["chunkers.distinct_chunkings"] == 69
    assert metrics["trace.missing"] == 0
