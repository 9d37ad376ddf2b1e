import numpy as np
import pytest

from chunkbench.chunkers import Chunk
from chunkbench.embedding import EmbedderSpec, deterministic_embed, embed_batch
from chunkbench.retrieval import ChunkIndex, build_index, retrieve


def spec(dim=64):
    return EmbedderSpec(backend="test", dimension=dim)


def make_chunk(i, doc_id, text, indices=(0,)):
    return Chunk(
        chunk_id=f"{doc_id}-{i:04d}", doc_id=doc_id, sentence_indices=tuple(indices), text=text
    )


def word_chunks(words):
    return [make_chunk(i, f"doc{i}", f"all about {w} and {w} alone") for i, w in enumerate(words)]


class TestChunkIndex:
    def test_vectors_match_embedder(self):
        chunks = word_chunks(["tide", "ember", "moss"])
        index = build_index(chunks, spec())
        expected = embed_batch(spec(), [c.text for c in chunks])
        np.testing.assert_array_equal(index.vectors, expected)
        assert index.model_id == "hash-v1"
        assert len(index) == 3
        assert index.dimension == 64

    def test_get_by_id(self):
        chunks = word_chunks(["tide", "ember"])
        index = build_index(chunks, spec())
        assert index.get("doc1-0001") == chunks[1]

    def test_empty_chunks_rejected(self):
        with pytest.raises(ValueError):
            build_index([], spec())

    def test_duplicate_chunk_ids_rejected(self):
        chunk = make_chunk(0, "d", "text here")
        with pytest.raises(ValueError):
            ChunkIndex([chunk, chunk], np.ones((2, 4), dtype=np.float32), "m")

    def test_count_mismatch_rejected(self):
        chunk = make_chunk(0, "d", "text here")
        with pytest.raises(ValueError):
            ChunkIndex([chunk], np.ones((2, 4), dtype=np.float32), "m")


class TestRetrieve:
    def test_exact_match_ranks_first(self):
        chunks = word_chunks(["glacier", "espresso", "loom"])
        index = build_index(chunks, spec())
        got = retrieve(index, "tell me about the espresso", k=1, spec=spec())
        assert got[0][0] == "doc1-0001"

    def test_scores_are_query_chunk_dots(self):
        chunks = word_chunks(["glacier", "espresso"])
        index = build_index(chunks, spec())
        got = dict(retrieve(index, "espresso machine", k=2, spec=spec()))
        query = deterministic_embed("espresso machine", 64).astype(np.float64)
        for chunk in chunks:
            vec = deterministic_embed(chunk.text, 64).astype(np.float64)
            np.testing.assert_allclose(got[chunk.chunk_id], float(query @ vec), atol=1e-12)

    def test_ties_break_by_chunk_id(self):
        chunks = [
            make_chunk(1, "z", "identical text body"),
            make_chunk(0, "a", "identical text body"),
        ]
        index = build_index(chunks, spec())
        got = retrieve(index, "identical text body", k=2, spec=spec())
        assert [chunk_id for chunk_id, _ in got] == ["a-0000", "z-0001"]

    def test_prefix_consistency(self):
        chunks = word_chunks(["one", "two", "three", "four", "five", "six"])
        index = build_index(chunks, spec())
        big = retrieve(index, "three or four things", k=6, spec=spec())
        small = retrieve(index, "three or four things", k=2, spec=spec())
        assert big[:2] == small

    def test_k_beyond_index_returns_all(self):
        chunks = word_chunks(["one", "two"])
        index = build_index(chunks, spec())
        got = retrieve(index, "anything", k=50, spec=spec())
        assert len(got) == 2

    def test_k_validated(self):
        index = build_index(word_chunks(["one"]), spec())
        with pytest.raises(ValueError):
            retrieve(index, "q", k=0, spec=spec())

    def test_model_mismatch_rejected(self):
        index = build_index(word_chunks(["one"]), spec())
        other = EmbedderSpec(backend="test", dimension=64, model_id="hash-v2")
        with pytest.raises(ValueError, match="model"):
            retrieve(index, "q", k=1, spec=other)

    def test_random_against_brute_force(self, rng):
        words = [f"tok{i}" for i in range(400)]
        for _ in range(40):
            count = int(rng.integers(2, 25))
            picks = rng.choice(len(words), size=count, replace=False)
            chunks = [
                make_chunk(i, f"d{i % 3}", f"text about {words[int(w)]}")
                for i, w in enumerate(picks)
            ]
            index = build_index(chunks, spec(dim=32))
            query = f"question mentioning {words[int(rng.integers(0, len(words)))]}"
            k = int(rng.integers(1, count + 2))
            got = retrieve(index, query, k=k, spec=spec(dim=32))

            qv = deterministic_embed(query, 32).astype(np.float64)
            scored = sorted(
                (
                    (-float(qv @ deterministic_embed(c.text, 32).astype(np.float64)), c.chunk_id)
                    for c in chunks
                ),
            )
            expected = [(cid, -neg) for neg, cid in scored[:k]]
            assert [cid for cid, _ in got] == [cid for cid, _ in expected]
            np.testing.assert_allclose(
                [s for _, s in got], [s for _, s in expected], atol=1e-12
            )

    def test_ties_and_unordered_ids_match_sorted_reference(self, rng):
        # Few distinct texts, so many chunks tie exactly; ids are shuffled so
        # index order and id order disagree.
        texts = ["red apple pie", "green apple tart", "blue berry jam", "plain bread"]
        for _ in range(20):
            count = int(rng.integers(len(texts) + 1, 30))
            ids = [f"d{int(i):03d}" for i in rng.permutation(count)]
            chunks = [
                Chunk(
                    chunk_id=chunk_id,
                    doc_id="d",
                    sentence_indices=(0,),
                    text=texts[int(rng.integers(0, len(texts)))],
                )
                for chunk_id in ids
            ]
            index = build_index(chunks, spec(dim=16))
            query = texts[int(rng.integers(0, len(texts)))]
            qv = embed_batch(spec(dim=16), [query])[0].astype(np.float64)
            scores = index.vectors @ qv
            reference = sorted((-float(s), c.chunk_id) for s, c in zip(scores, chunks))
            assert len({s for s, _ in reference}) < count
            for k in (1, max(1, count // 2), count):
                got = retrieve(index, query, k=k, spec=spec(dim=16))
                assert got == [(chunk_id, -neg) for neg, chunk_id in reference[:k]]

