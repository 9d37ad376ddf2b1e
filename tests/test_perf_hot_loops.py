"""Layer microbenchmarks, marked perf and so deselected by default:
segmenting data/mini, the test embedder over every distinct chunk text of
the default grid on data/mini and on data/mini stitched into one
document, an index built for each of the grid's chunkings of data/mini,
one score table over all of those chunkings with every doc query ranked
on each, doc retrieval and scoring over a fresh index and table and again
over an index that has ranked every query, evidence scoring of 10-hit
lists and of every grid chunking's hit lists over stitched data/mini,
encoding every results.jsonl line of a doc bench on data/mini, and filling
an empty vector cache with that bench's texts and reading them back.

Run them with ``python -m pytest -m perf tests/test_perf_hot_loops.py``; set
``OPENBLAS_NUM_THREADS=1`` for steadier timings on a small machine.
"""

import json
import shutil

import pytest

pytest.importorskip("pytest_benchmark")

from chunkbench import cli, embedding, evaluation, retrieval  # noqa: E402
from chunkbench.chunkers import (  # noqa: E402
    DocumentDistances,
    FixedSizeConfig,
    chunk_document,
    config_from_dict,
    default_grid,
)
from chunkbench.cli import main, results_body, results_head, results_tail  # noqa: E402
from chunkbench.corpus import load_corpus, stitch  # noqa: E402
from chunkbench.embedding import EmbedderSpec, embed_batch, token_bucket  # noqa: E402
from chunkbench.evaluation import doc_metrics, evidence_metrics  # noqa: E402
from chunkbench.retrieval import ScoreTable, build_index, retrieve  # noqa: E402
from chunkbench.segmenter import RuleSegmenter, segment_document  # noqa: E402

from conftest import MINI_DATASET, close_stores  # noqa: E402
from reference import evidence_metrics_reference  # noqa: E402

pytestmark = pytest.mark.perf

SPEC = EmbedderSpec(backend="test")


def segmented_mini():
    documents, queries = load_corpus(MINI_DATASET)
    return [segment_document(d.doc_id, d.text) for d in documents], queries


def test_segment_mini(benchmark):
    documents, _ = load_corpus(MINI_DATASET)
    segmenter = RuleSegmenter()

    def segment_all():
        return [segment_document(d.doc_id, d.text, segmenter) for d in documents]

    docs = benchmark(segment_all)
    assert sum(doc.n for doc in docs) == 106


def distinct_chunk_texts(docs) -> list[str]:
    """Each distinct chunk text of the default grid over docs, in first-seen order."""
    texts: dict[str, None] = {}
    for doc in docs:
        embeddings = embed_batch(SPEC, doc.sentence_texts)
        distances = DocumentDistances(doc, embeddings)
        for config in default_grid():
            for chunk in chunk_document(doc, embeddings, config, distances=distances):
                texts[chunk.text] = None
    return list(texts)


def embed_from_scratch(benchmark, texts):
    def forget():
        # Every round embeds from scratch: no vector memo, no piece or token buckets.
        embedding._MEMO.clear()
        embedding._piece_buckets.cache_clear()
        token_bucket.cache_clear()

    matrix = benchmark.pedantic(embed_batch, args=(SPEC, texts), setup=forget, rounds=20)
    assert matrix.shape == (len(texts), SPEC.dimension)


def test_embed_distinct_chunk_texts_of_the_grid(benchmark):
    texts = distinct_chunk_texts(segmented_mini()[0])
    # The count perfbench pins as embedding.chunks.distinct_texts on data/mini.
    assert len(texts) == 391
    embed_from_scratch(benchmark, texts)


def stitched_mini():
    """data/mini stitched into one 106-sentence document, and its queries."""
    documents, queries = load_corpus(MINI_DATASET)
    (stitched,), queries = stitch(documents, queries, target_sentences=106, seed=3)
    doc = segment_document(stitched.doc_id, stitched.text)
    assert doc.n == 106
    return doc, queries


def test_embed_distinct_chunk_texts_of_the_grid_over_stitched_mini(benchmark):
    # Long chunks that share their sentences, as on stitched-evidence.
    texts = distinct_chunk_texts([stitched_mini()[0]])
    assert len(texts) == 500
    embed_from_scratch(benchmark, texts)


def grid_chunkings(docs):
    """Each default-grid config's chunks of data/mini."""
    states = [DocumentDistances(doc, embed_batch(SPEC, doc.sentence_texts)) for doc in docs]
    return [
        [
            chunk
            for doc, state in zip(docs, states)
            for chunk in chunk_document(doc, state.embeddings, config, distances=state)
        ]
        for config in default_grid()
    ]


def test_build_an_index_per_chunking_of_the_grid(benchmark):
    docs, queries = segmented_mini()
    chunkings = grid_chunkings(docs)
    assert len(chunkings) == 218
    texts = [q.text for q in queries if q.relevant_doc_ids]
    # Every chunk text embedded once up front, so each round reads the memo
    # as the configs after the first few do in one bench run.
    embed_batch(SPEC, [chunk.text for chunks in chunkings for chunk in chunks])

    def build_all():
        return [build_index(chunks, ScoreTable(SPEC, texts)) for chunks in chunkings]

    indexes = benchmark(build_all)
    assert [len(index.chunks) for index in indexes] == [len(chunks) for chunks in chunkings]


def test_rank_every_doc_query_over_the_grid_through_one_table(benchmark):
    docs, queries = segmented_mini()
    chunkings = grid_chunkings(docs)
    texts = [q.text for q in queries if q.relevant_doc_ids]
    # The vectors come from the memo, as they do after the first configs of a run.
    embed_batch(SPEC, [chunk.text for chunks in chunkings for chunk in chunks] + texts)

    # As bench does: one table for the run, an index per chunking, every
    # query ranked on it; each round starts from a fresh table.
    def rank_all():
        table = ScoreTable(SPEC, texts)
        for chunks in chunkings:
            index = build_index(chunks, table)
            for text in texts:
                retrieve(index, text, K_LIST[-1])
        return table

    table = benchmark.pedantic(rank_all, rounds=10)
    assert len(table) == 391


def test_evidence_metrics_over_10_hit_lists(benchmark):
    docs, queries = segmented_mini()
    config = FixedSizeConfig(n_chunks=5)
    chunks = [chunk for doc in docs for chunk in chunk_document(doc, None, config)]
    index = build_index(chunks, ScoreTable(SPEC, [q.text for q in queries if q.evidence]))
    cases = [
        ([chunk for chunk, _ in retrieve(index, q.text, 10)], set(q.evidence))
        for q in queries
        if q.evidence
    ]
    assert cases and all(len(hits) == 10 for hits, _ in cases)

    scores = benchmark(lambda: [evidence_metrics(hits, evidence) for hits, evidence in cases])
    assert len(scores) == len(cases)


def test_evidence_metrics_over_stitched_hit_lists(benchmark):
    doc, queries = stitched_mini()
    texts = [q.text for q in queries if q.evidence]
    embeddings = embed_batch(SPEC, doc.sentence_texts)
    distances = DocumentDistances(doc, embeddings)
    chunkings = dict.fromkeys(
        tuple(chunk_document(doc, embeddings, config, distances=distances))
        for config in default_grid()
    )
    # As bench does: per distinct chunking and query, the top-kmax hits scored
    # at every k; long hit lists over one document, as on stitched-evidence.
    table = ScoreTable(SPEC, texts)
    cases = []
    for chunks in chunkings:
        index = build_index(list(chunks), table)
        for q in queries:
            if q.evidence:
                hits = [chunk for chunk, _ in retrieve(index, q.text, K_LIST[-1])]
                cases.extend((hits[:k], set(q.evidence)) for k in K_LIST)
    assert len(cases) == len(chunkings) * len(texts) * len(K_LIST)

    # Each round starts with a cold chunk-bitmask memo, as a run does.
    scores = benchmark.pedantic(
        lambda: [evidence_metrics(hits, evidence) for hits, evidence in cases],
        setup=evaluation._bits.cache_clear,
        rounds=50,
    )
    assert scores == [evidence_metrics_reference(hits, evidence) for hits, evidence in cases]


def doc_query_cases():
    """The chunks of one default-grid config over data/mini, and its doc queries."""
    docs, queries = segmented_mini()
    config = FixedSizeConfig(n_chunks=5)
    assert config in default_grid()
    chunks = [chunk for doc in docs for chunk in chunk_document(doc, None, config)]
    cases = [(q.text, q.relevant_doc_ids) for q in queries if q.relevant_doc_ids]
    assert len(cases) == 10
    return chunks, cases


K_LIST = (1, 3, 5, 10)


def score_all(index, cases):
    """As bench does: one top-kmax retrieval per query, scored at every k."""
    scores = []
    for text, relevant in cases:
        hits = [chunk for chunk, _ in retrieve(index, text, K_LIST[-1])]
        scores.extend(doc_metrics(hits[:k], relevant) for k in K_LIST)
    return scores


def test_retrieve_and_score_every_doc_query(benchmark):
    chunks, cases = doc_query_cases()

    # Each round gets a fresh index over a fresh table, so it ranks every
    # query rather than reading the index's rankings; making them, which
    # scores every row, is set-up and not timed.
    def fresh_index():
        return (build_index(chunks, ScoreTable(SPEC, [text for text, _ in cases])), cases), {}

    scores = benchmark.pedantic(score_all, setup=fresh_index, rounds=200)
    assert len(scores) == len(cases) * len(K_LIST)


def test_score_every_doc_query_again_on_one_index(benchmark):
    chunks, cases = doc_query_cases()
    index = build_index(chunks, ScoreTable(SPEC, [text for text, _ in cases]))
    first = score_all(index, cases)

    # As a config whose chunking equals the one before it: every query's
    # ranking comes from the index's memo.
    assert benchmark(score_all, index, cases) == first


def test_encode_every_doc_row_of_mini(benchmark, tmp_path):
    out = tmp_path / "out"
    assert main(["bench", "--task", "doc", "--dataset", str(MINI_DATASET), "--out", str(out)]) == 0
    written = (out / "results.jsonl").read_text(encoding="utf-8")

    # The rows back in the pieces bench holds: per config, per query the
    # top-kmax chunk ids and per k the metrics.
    cases: dict[str, tuple] = {}
    for line in written.splitlines():
        row = json.loads(line)
        config, queries = cases.setdefault(
            json.dumps(row["config"]), (config_from_dict(row["config"]), {})
        )
        ids, per_k = queries.setdefault(row["query_id"], ([], []))
        ids[:] = row["retrieved_chunk_ids"]
        per_k.append((row["k"], row["recall"], row["precision"], row["f1"]))
    assert len(cases) == len(default_grid())

    encode = json.encoder.encode_basestring_ascii

    # Every row rendered afresh from a head per config, a tail per run, and the
    # query and chunk ids encoded per (config, query); bench renders the bodies
    # of a kept chunking's rows once and encodes query ids once.
    def encode_all():
        tail = results_tail("doc")
        lines = []
        for config, queries in cases.values():
            head = results_head(config, "mini")
            for query_id, (chunk_ids, per_k) in queries.items():
                query_id, ids = encode(query_id), [encode(chunk_id) for chunk_id in chunk_ids]
                lines.extend(
                    head + results_body(query_id, k, ids[:k], recall, precision, f1, tail)
                    for k, recall, precision, f1 in per_k
                )
        return "".join(lines)

    assert benchmark(encode_all) == written


def test_fill_and_read_back_a_vector_cache(benchmark, tmp_path, monkeypatch):
    # The embed_batch calls of a doc bench on data/mini, in order.
    batches = []

    def recording(spec, texts):
        batches.append(list(texts))
        return embed_batch(spec, texts)

    for module in (cli, retrieval):
        monkeypatch.setattr(module, "embed_batch", recording)
    out = tmp_path / "out"
    assert main(["bench", "--task", "doc", "--dataset", str(MINI_DATASET), "--out", str(out)]) == 0
    assert len({text for batch in batches for text in batch}) == 401
    spec = EmbedderSpec(backend="test", cache_dir=tmp_path / "cache")

    def empty_cache():
        close_stores()
        shutil.rmtree(spec.cache_dir, ignore_errors=True)
        embedding._MEMO.clear()

    # One process fills the cache, a second reads every vector back from it.
    def fill_and_read():
        for _ in range(2):
            for batch in batches:
                embed_batch(spec, batch)
            close_stores()
            embedding._MEMO.clear()

    benchmark.pedantic(fill_and_read, setup=empty_cache, rounds=20)
    assert [path.name for path in spec.cache_dir.iterdir()] == ["vectors.sqlite"]
