import numpy as np
import pytest

from chunkbench import retrieval
from chunkbench.chunkers import Chunk
from chunkbench.embedding import EmbedderSpec, decode_vectors, deterministic_embed, embed_batch
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
        assert index.spec == spec()
        assert index.chunks == tuple(chunks)
        assert len(index) == 3
        assert index.vectors.shape == (3, 64)

    def test_empty_chunks_rejected(self):
        with pytest.raises(ValueError, match="zero chunks"):
            build_index([], spec())
        with pytest.raises(ValueError, match="zero chunks"):
            ChunkIndex([], np.ones((0, 4), dtype=np.float32), spec(dim=4))

    def test_duplicate_chunk_ids_rejected(self):
        chunk = make_chunk(0, "d", "text here")
        with pytest.raises(ValueError):
            ChunkIndex([chunk, chunk], np.ones((2, 4), dtype=np.float32), spec(dim=4))

    def test_count_mismatch_rejected(self):
        chunk = make_chunk(0, "d", "text here")
        with pytest.raises(ValueError):
            ChunkIndex([chunk], np.ones((2, 4), dtype=np.float32), spec(dim=4))


class TestRetrieve:
    def test_exact_match_ranks_first(self):
        chunks = word_chunks(["glacier", "espresso", "loom"])
        index = build_index(chunks, spec())
        got = retrieve(index, "tell me about the espresso", k=1)
        assert got[0][0].chunk_id == "doc1-0001"

    def test_returns_the_index_own_chunks(self):
        chunks = word_chunks(["glacier", "espresso", "loom"])
        index = build_index(chunks, spec())
        own = {chunk.chunk_id: chunk for chunk in index.chunks}
        got = retrieve(index, "espresso", k=3)
        assert len(got) == 3
        assert all(chunk is own[chunk.chunk_id] for chunk, _ in got)

    def test_query_is_embedded_with_the_index_spec(self, tmp_path):
        cached = EmbedderSpec(backend="test", dimension=64, cache_dir=tmp_path)
        index = build_index(word_chunks(["glacier", "espresso"]), cached)
        before = set(tmp_path.glob("*.vec"))
        assert len(before) == 2
        query = "a query seen nowhere else"
        assert len(retrieve(index, query, k=2)) == 2
        (entry,) = set(tmp_path.glob("*.vec")) - before
        _, matrix = decode_vectors(entry.read_bytes())
        np.testing.assert_array_equal(matrix, deterministic_embed(query, 64)[None, :])

    def test_scores_are_query_chunk_dots(self):
        chunks = word_chunks(["glacier", "espresso"])
        index = build_index(chunks, spec())
        got = dict(retrieve(index, "espresso machine", k=2))
        query = deterministic_embed("espresso machine", 64).astype(np.float64)
        for chunk in chunks:
            vec = deterministic_embed(chunk.text, 64).astype(np.float64)
            np.testing.assert_allclose(got[chunk], float(query @ vec), atol=1e-12)

    def test_ties_break_by_chunk_id(self):
        chunks = [
            make_chunk(1, "z", "identical text body"),
            make_chunk(0, "a", "identical text body"),
        ]
        index = build_index(chunks, spec())
        got = retrieve(index, "identical text body", k=2)
        assert [chunk.chunk_id for chunk, _ in got] == ["a-0000", "z-0001"]

    def test_prefix_consistency(self):
        chunks = word_chunks(["one", "two", "three", "four", "five", "six"])
        index = build_index(chunks, spec())
        big = retrieve(index, "three or four things", k=6)
        small = retrieve(index, "three or four things", k=2)
        assert big[:2] == small

    def test_k_beyond_index_returns_all(self):
        chunks = word_chunks(["one", "two"])
        index = build_index(chunks, spec())
        got = retrieve(index, "anything", k=50)
        assert len(got) == 2

    def test_k_validated(self):
        index = build_index(word_chunks(["one"]), spec())
        with pytest.raises(ValueError):
            retrieve(index, "q", k=0)

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
            got = retrieve(index, query, k=k)

            qv = deterministic_embed(query, 32).astype(np.float64)
            scored = sorted(
                (
                    (-float(qv @ deterministic_embed(c.text, 32).astype(np.float64)), c.chunk_id)
                    for c in chunks
                ),
            )
            expected = [(cid, -neg) for neg, cid in scored[:k]]
            assert [chunk.chunk_id for chunk, _ in got] == [cid for cid, _ in expected]
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
                got = retrieve(index, query, k=k)
                assert [(chunk.chunk_id, score) for chunk, score in got] == [
                    (chunk_id, -neg) for neg, chunk_id in reference[:k]
                ]


class TestRankingMemo:
    def counting_embed(self, monkeypatch, fail_once=None):
        """Count the query embeddings retrieve asks for; fail the first for fail_once."""
        calls: list[str] = []

        def embed(spec, texts):
            calls.extend(texts)
            if texts == [fail_once] and calls.count(fail_once) == 1:
                raise RuntimeError("query embedding failed")
            return embed_batch(spec, texts)

        monkeypatch.setattr(retrieval, "embed_batch", embed)
        return calls

    def test_a_repeat_call_is_a_fresh_equal_list(self, monkeypatch):
        index = build_index(word_chunks(["glacier", "espresso", "loom", "tide"]), spec())
        calls = self.counting_embed(monkeypatch)
        first = retrieve(index, "espresso and tide", k=3)
        again = retrieve(index, "espresso and tide", k=3)
        assert again == first and again is not first
        assert calls == ["espresso and tide"]
        again.clear()
        first.reverse()
        assert retrieve(index, "espresso and tide", k=3) == list(reversed(first))

    def test_a_larger_k_ranks_again_as_a_fresh_index_does(self, monkeypatch):
        words = ["one", "two", "three", "four", "five", "six", "seven"]
        index = build_index(word_chunks(words), spec())
        expected = retrieve(build_index(word_chunks(words), spec()), "three or four things", k=6)
        calls = self.counting_embed(monkeypatch)
        small = retrieve(index, "three or four things", k=2)
        big = retrieve(index, "three or four things", k=6)
        assert len(calls) == 2
        assert big == expected
        assert big[:2] == small
        assert retrieve(index, "three or four things", k=4) == big[:4]
        assert len(calls) == 2
        everything = retrieve(index, "three or four things", k=50)
        assert len(everything) == len(words)
        assert retrieve(index, "three or four things", k=99) == everything
        assert len(calls) == 3

    def test_a_failed_query_embedding_is_not_remembered(self, monkeypatch):
        index = build_index(word_chunks(["glacier", "espresso"]), spec())
        expected = retrieve(build_index(word_chunks(["glacier", "espresso"]), spec()), "loom", 2)
        calls = self.counting_embed(monkeypatch, fail_once="loom")
        with pytest.raises(RuntimeError, match="query embedding failed"):
            retrieve(index, "loom", k=2)
        assert retrieve(index, "loom", k=2) == expected
        assert calls == ["loom", "loom"]

    def test_indexes_over_equal_chunks_rank_independently(self):
        first = build_index(word_chunks(["glacier", "espresso", "loom"]), spec())
        second = build_index(word_chunks(["glacier", "espresso", "loom"]), spec())
        assert first.chunks == second.chunks
        one, two = retrieve(first, "espresso", k=3), retrieve(second, "espresso", k=3)
        assert one == two
        for index, got in ((first, one), (second, two)):
            own = {chunk.chunk_id: chunk for chunk in index.chunks}
            assert all(chunk is own[chunk.chunk_id] for chunk, _ in got)
        assert all(a is not b for (a, _), (b, _) in zip(one, two))
