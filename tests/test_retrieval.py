import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkbench import embedding, retrieval
from chunkbench.chunkers import Chunk
from chunkbench.embedding import (
    EmbedderSpec,
    decode_vectors,
    deterministic_embed,
    embed_batch,
    memoised_vectors,
)
from chunkbench.retrieval import ChunkIndex, ScoreTable, build_index, retrieve

from conftest import store_rows
from reference import rank_reference


def spec(dim=64):
    return EmbedderSpec(backend="test", dimension=dim)


def seeded(vectors, dim):
    """A spec whose memo already holds these text -> vector pairs, so
    embed_batch hands them back as they are."""
    seeded_spec = EmbedderSpec(backend="test", dimension=dim, model_id="seeded")
    embedding._MEMO[seeded_spec] = {
        text: np.asarray(vector, dtype=np.float32) for text, vector in vectors.items()
    }
    return seeded_spec


def make_chunk(i, doc_id, text, indices=(0,)):
    return Chunk(
        chunk_id=f"{doc_id}-{i:04d}", doc_id=doc_id, sentence_indices=tuple(indices), text=text
    )


def word_chunks(words):
    return [make_chunk(i, f"doc{i}", f"all about {w} and {w} alone") for i, w in enumerate(words)]


class TestChunkIndex:
    def test_vectors_match_embedder(self):
        chunks = word_chunks(["tide", "ember", "moss"])
        index = build_index(chunks, ScoreTable(spec(), []))
        expected = embed_batch(spec(), [c.text for c in chunks])
        texts = [index.table.texts[row] for row in index.rows]
        assert texts == [c.text for c in chunks]
        np.testing.assert_array_equal(memoised_vectors(spec(), texts), expected)
        assert index.table.spec == spec()
        assert index.chunks == tuple(chunks)
        assert len(index) == 3
        assert index.rows.shape == (3,)

    def test_empty_chunks_rejected(self):
        with pytest.raises(ValueError, match="zero chunks"):
            build_index([], ScoreTable(spec(), []))
        table = ScoreTable(spec(dim=4), [])
        with pytest.raises(ValueError, match="zero chunks"):
            ChunkIndex([], table)

    def test_duplicate_chunk_ids_rejected(self):
        chunk = make_chunk(0, "d", "text here")
        table = ScoreTable(spec(dim=4), [])
        with pytest.raises(ValueError, match="duplicate chunk_id"):
            ChunkIndex([chunk, chunk], table)
        # A rejected index adds no rows.
        assert len(table) == 0

    def test_indexes_of_one_table_share_rows_by_text(self, monkeypatch):
        embedded: list[str] = []

        def embed(spec, texts):
            embedded.extend(texts)
            return embed_batch(spec, texts)

        monkeypatch.setattr(retrieval, "embed_batch", embed)
        table = ScoreTable(spec(), [])
        first = build_index(word_chunks(["tide", "ember", "tide"]), table)
        second = build_index(word_chunks(["ember", "moss"]), table)
        assert len(table) == 3
        assert first.rows.tolist() == [0, 1, 0]
        assert second.rows.tolist() == [1, 2]
        # Each text once, in one call per build that meets new texts.
        assert embedded == [first.chunks[0].text, first.chunks[1].text, second.chunks[1].text]


class TestScoreTable:
    def test_a_query_outside_the_table_is_rejected_by_name(self):
        index = build_index(word_chunks(["glacier", "espresso"]), ScoreTable(spec(), ["espresso"]))
        with pytest.raises(ValueError, match="'a stranger'"):
            retrieve(index, "a stranger", k=1)
        assert len(retrieve(index, "espresso", k=1)) == 1

    def test_a_query_listed_twice_gets_one_column_and_one_embed(self, monkeypatch):
        embedded: list[list[str]] = []

        def embed(spec, texts):
            embedded.append(list(texts))
            return embed_batch(spec, texts)

        monkeypatch.setattr(retrieval, "embed_batch", embed)
        table = ScoreTable(spec(), ["tide", "ember", "tide"])
        assert embedded == [["tide", "ember"]]
        assert {text: query.column for text, query in table.queries.items()} == {
            "tide": 0,
            "ember": 1,
        }
        chunks = word_chunks(["tide", "ember", "moss"])
        index = build_index(chunks, table)
        assert table._scores.shape[1] == 2
        alone = build_index(chunks, ScoreTable(spec(), ["tide"]))
        assert retrieve(index, "tide", 3) == retrieve(alone, "tide", 3)

    def test_rows_added_over_many_builds_rank_as_the_reference(self):
        """Builds of 1 to 300 new texts grow the score array to fit and by
        doubling, some across two blocks of new rows; each build's index
        holds every text so far, so the earlier rows must keep their scores."""
        words = [f"w{i}" for i in range(60)]
        rng = np.random.default_rng(7)
        texts = list(dict.fromkeys(" ".join(rng.choice(words, size=3)) for _ in range(2000)))
        queries = ["w1 w2 w3", "w7 w40"]
        table = ScoreTable(spec(dim=16), queries)
        end = 0
        for added in (1, 2, 1, 5, 300, 20, 290):
            end += added
            chunks = [make_chunk(j, "d", text) for j, text in enumerate(texts[:end])]
            index = build_index(chunks, table)
            assert len(table) == end
            vectors = embed_batch(spec(dim=16), texts[:end])
            for query in queries:
                query_vector = embed_batch(spec(dim=16), [query])[0]
                check_against_reference(index, chunks, vectors, query, query_vector, 10)


class TestRetrieve:
    def test_exact_match_ranks_first(self):
        chunks = word_chunks(["glacier", "espresso", "loom"])
        index = build_index(chunks, ScoreTable(spec(), ["tell me about the espresso"]))
        got = retrieve(index, "tell me about the espresso", k=1)
        assert got[0][0].chunk_id == "doc1-0001"

    def test_returns_the_index_own_chunks(self):
        chunks = word_chunks(["glacier", "espresso", "loom"])
        index = build_index(chunks, ScoreTable(spec(), ["espresso"]))
        own = {chunk.chunk_id: chunk for chunk in index.chunks}
        got = retrieve(index, "espresso", k=3)
        assert len(got) == 3
        assert all(chunk is own[chunk.chunk_id] for chunk, _ in got)

    def test_query_is_embedded_with_the_index_spec(self, tmp_path):
        cached = EmbedderSpec(backend="test", dimension=64, cache_dir=tmp_path)
        query = "a query seen nowhere else"
        table = ScoreTable(cached, [query])
        (blob,) = store_rows(tmp_path).values()
        _, matrix = decode_vectors(blob)
        np.testing.assert_array_equal(matrix, deterministic_embed(query, 64)[None, :])
        index = build_index(word_chunks(["glacier", "espresso"]), table)
        assert len(store_rows(tmp_path)) == 3
        assert len(retrieve(index, query, k=2)) == 2

    def test_scores_are_query_chunk_dots(self):
        chunks = word_chunks(["glacier", "espresso"])
        index = build_index(chunks, ScoreTable(spec(), ["espresso machine"]))
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
        index = build_index(chunks, ScoreTable(spec(), ["identical text body"]))
        got = retrieve(index, "identical text body", k=2)
        assert [chunk.chunk_id for chunk, _ in got] == ["a-0000", "z-0001"]

    def test_prefix_consistency(self):
        chunks = word_chunks(["one", "two", "three", "four", "five", "six"])
        index = build_index(chunks, ScoreTable(spec(), ["three or four things"]))
        big = retrieve(index, "three or four things", k=6)
        small = retrieve(index, "three or four things", k=2)
        assert big[:2] == small

    def test_k_beyond_index_returns_all(self):
        chunks = word_chunks(["one", "two"])
        index = build_index(chunks, ScoreTable(spec(), ["anything"]))
        got = retrieve(index, "anything", k=50)
        assert len(got) == 2

    def test_k_validated(self):
        index = build_index(word_chunks(["one"]), ScoreTable(spec(), ["q"]))
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
            query = f"question mentioning {words[int(rng.integers(0, len(words)))]}"
            index = build_index(chunks, ScoreTable(spec(dim=32), [query]))
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
            query = texts[int(rng.integers(0, len(texts)))]
            index = build_index(chunks, ScoreTable(spec(dim=16), [query]))
            vectors = embed_batch(spec(dim=16), [c.text for c in chunks])
            qv = embed_batch(spec(dim=16), [query])[0]
            reference = rank_reference(chunks, vectors, qv, count)
            assert len({score for _, score in reference}) < count
            column = index.table.queries[query]
            bound = index.table.error_bound(column)
            for k in (1, max(1, count // 2), count):
                got = retrieve(index, query, k=k)
                assert [chunk.chunk_id for chunk, _ in got] == [cid for cid, _ in reference[:k]]
                # Each score is, bit for bit, the table's float64 score or the exact one.
                for (chunk, score), (_, exact) in zip(got, reference):
                    (row,) = index.table.rows([chunk.text])
                    assert score in (index.table._scores[row, column.column], exact)
                    assert abs(score - exact) <= bound
                # Chunks of one text score alike, bit for bit.
                by_text: dict[str, set[float]] = {}
                for chunk, score in got:
                    by_text.setdefault(chunk.text, set()).add(score)
                assert all(len(scores) == 1 for scores in by_text.values())


class TestRankingMemo:
    def counting_embed(self, monkeypatch):
        """Count the texts retrieval embeds."""
        calls: list[str] = []

        def embed(spec, texts):
            calls.extend(texts)
            return embed_batch(spec, texts)

        monkeypatch.setattr(retrieval, "embed_batch", embed)
        return calls

    def test_a_repeat_call_is_a_fresh_equal_list(self, monkeypatch):
        chunks = word_chunks(["glacier", "espresso", "loom", "tide"])
        index = build_index(chunks, ScoreTable(spec(), ["espresso and tide"]))
        calls = self.counting_embed(monkeypatch)
        first = retrieve(index, "espresso and tide", k=3)
        again = retrieve(index, "espresso and tide", k=3)
        assert again == first and again is not first
        # The table embedded the query when it was made; ranking embeds nothing.
        assert calls == []
        again.clear()
        first.reverse()
        assert retrieve(index, "espresso and tide", k=3) == list(reversed(first))

    def test_a_larger_k_ranks_again_as_a_fresh_index_does(self, monkeypatch):
        words = ["one", "two", "three", "four", "five", "six", "seven"]
        index = build_index(word_chunks(words), ScoreTable(spec(), ["three or four things"]))
        fresh = build_index(word_chunks(words), ScoreTable(spec(), ["three or four things"]))
        expected = retrieve(fresh, "three or four things", k=6)
        calls = self.counting_embed(monkeypatch)
        ranks = []
        real_rank = retrieval._rank_columns
        monkeypatch.setattr(
            retrieval, "_rank_columns", lambda index, k: ranks.append(k) or real_rank(index, k)
        )
        small = retrieve(index, "three or four things", k=2)
        big = retrieve(index, "three or four things", k=6)
        assert ranks == [2, 6]
        assert big == expected
        assert big[:2] == small
        assert retrieve(index, "three or four things", k=4) == big[:4]
        assert ranks == [2, 6]
        everything = retrieve(index, "three or four things", k=50)
        assert len(everything) == len(words)
        assert retrieve(index, "three or four things", k=99) == everything
        assert ranks == [2, 6, 50]
        # However often the query is ranked, nothing is embedded again.
        assert calls == []

    def test_indexes_over_equal_chunks_rank_independently(self):
        words = ["glacier", "espresso", "loom"]
        first = build_index(word_chunks(words), ScoreTable(spec(), ["espresso"]))
        second = build_index(word_chunks(words), ScoreTable(spec(), ["espresso"]))
        assert first.chunks == second.chunks
        one, two = retrieve(first, "espresso", k=3), retrieve(second, "espresso", k=3)
        assert one == two
        for index, got in ((first, one), (second, two)):
            own = {chunk.chunk_id: chunk for chunk in index.chunks}
            assert all(chunk is own[chunk.chunk_id] for chunk, _ in got)
        assert all(a is not b for (a, _), (b, _) in zip(one, two))


# Coordinates that cancel and tie, and any float32 of moderate size.
COORDINATE = st.sampled_from(
    [0.0, 1.0, -1.0, 0.5, -0.25, 3.0, 1e-10, -1e-10, 2.0**-40]
) | st.floats(-4.0, 4.0, width=32)


def check_against_reference(index, chunks, vectors, query, query_vector, k):
    """retrieve gives the reference's ids, each score within the table's bound
    of the exact one."""
    expected = rank_reference(chunks, vectors, query_vector, k)
    got = retrieve(index, query, k)
    assert [chunk.chunk_id for chunk, _ in got] == [chunk_id for chunk_id, _ in expected]
    bound = index.table.error_bound(index.table.queries[query])
    for (_, score), (_, exact) in zip(got, expected):
        assert abs(score - exact) <= bound


class TestExactRanking:
    """retrieve ranks by the correctly rounded exact dot product, ties by
    chunk_id, whatever float64 form the table's scores take."""

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_ranking_matches_the_fsum_reference(self, data):
        dim = data.draw(st.integers(2, 8), label="dim")
        vector = st.lists(COORDINATE, min_size=dim, max_size=dim)
        pool = data.draw(st.lists(vector, min_size=1, max_size=6), label="pool")
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))
        # A shared text is one table row; a text of its own with a pooled
        # vector is a bit-equal row.
        shared = data.draw(st.lists(st.booleans(), min_size=len(picks), max_size=len(picks)))
        ids = data.draw(st.permutations(range(len(picks))), label="ids")
        query_vector = data.draw(vector, label="query")
        other_vector = data.draw(vector, label="other query")
        early = data.draw(st.integers(1, len(picks)), label="early")
        k = data.draw(st.integers(1, len(picks) + 2), label="k")

        texts = [
            f"p{pick}" if same else f"c{j}" for j, (pick, same) in enumerate(zip(picks, shared))
        ]
        pool = np.asarray(pool, dtype=np.float32)
        query_vector = np.asarray(query_vector, dtype=np.float32)
        other_vector = np.asarray(other_vector, dtype=np.float32)
        vectors = pool[picks]
        chunks = [
            Chunk(chunk_id=f"id{ids[j]:03d}", doc_id="d", sentence_indices=(j,), text=text)
            for j, text in enumerate(texts)
        ]
        queries = {"query": query_vector, "other": other_vector}
        seeded_spec = seeded({**dict(zip(texts, vectors)), **queries}, dim)

        fresh = build_index(chunks, ScoreTable(seeded_spec, list(queries)))
        # The first chunks are ranked before the others join the table; then
        # all of them are ranked together.
        table = ScoreTable(seeded_spec, list(queries))
        first = build_index(chunks[:early], table)
        for query, query_vector in queries.items():
            check_against_reference(fresh, chunks, vectors, query, query_vector, k)
            check_against_reference(
                first, chunks[:early], vectors[:early], query, query_vector, k
            )
        later = build_index(chunks, table)
        for query, query_vector in queries.items():
            check_against_reference(later, chunks, vectors, query, query_vector, k)
            assert [chunk for chunk, _ in retrieve(later, query, k)] == [
                chunk for chunk, _ in retrieve(fresh, query, k)
            ]

    def cancellation_rows(self):
        """[1, a, -1]-style rows: on this host's float64 C @ q a cancelling
        row outranks a row whose exact score is higher."""
        a = np.float32(1e-10)
        query_vector = np.ones(8, dtype=np.float32)
        for places in ([0, 1, 3], [1, 0, 2], [2, 4, 7], [0, 2, 1]):
            cancelling = np.zeros(8, dtype=np.float32)
            cancelling[places] = [1.0, a, -1.0]
            fast = float((np.stack([cancelling, cancelling]).astype(np.float64) @ query_vector)[0])
            exact = math.fsum(cancelling.astype(np.float64).tolist())
            if fast != exact:
                # Exactly between the cancelling row's exact and fast scores.
                between = np.zeros(8, dtype=np.float32)
                between[:2] = [a, np.float32((fast - exact) / 2)]
                return cancelling, between, query_vector
        pytest.fail("no cancelling row errs on this host's C @ q")

    def test_cancellation_rows_rank_by_their_exact_scores(self):
        cancelling, between, query_vector = self.cancellation_rows()
        matrix = np.stack([cancelling, between]).astype(np.float64)
        fast = matrix @ query_vector.astype(np.float64)
        exact = [math.fsum((row * query_vector).tolist()) for row in matrix]
        assert (fast[0] > fast[1]) != (exact[0] > exact[1])
        # The cancelling row plus 2**-70 where it is zero: bit-equal to it on
        # all but one of the query's coordinates, and exactly 2**-70 higher.
        nudged = cancelling.copy()
        nudged[np.flatnonzero(cancelling == 0)[0]] = 2.0**-70

        vectors = {"cancel": cancelling, "between": between, "nudged": nudged}
        seeded_spec = seeded({**vectors, "query": query_vector}, 8)
        chunks = [
            make_chunk(0, "a", "cancel"),
            make_chunk(1, "b", "between"),
            make_chunk(2, "c", "nudged"),
        ]
        for k in (1, 2, 3):
            # A fresh index per k, so each k ranks rather than cutting a longer list.
            index = build_index(chunks, ScoreTable(seeded_spec, ["query"]))
            got = retrieve(index, "query", k)
            assert [chunk.text for chunk, _ in got] == ["between", "nudged", "cancel"][:k]
            check_against_reference(
                index, chunks, list(vectors.values()), "query", query_vector, k
            )
        # Resolved exactly, the two rows report their exact scores.
        assert [got[0][1], got[2][1]] == [exact[1], exact[0]]

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_every_column_of_a_table_ranks_as_in_a_table_of_its_own(self, data):
        """Two to five queries ranked in one pass, one of them the cancellation
        rows' query, over rows with bit-equal vectors and shared texts; each is
        retrieved first in some example."""
        cancelling, between, ones = self.cancellation_rows()
        vector = st.lists(COORDINATE, min_size=8, max_size=8)
        pool = [cancelling, between, *data.draw(st.lists(vector, max_size=4), label="pool")]
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=30))
        shared = data.draw(st.lists(st.booleans(), min_size=len(picks), max_size=len(picks)))
        ids = data.draw(st.permutations(range(len(picks))), label="ids")
        # A query of tiny norm has a far smaller error bound than the others.
        tiny = st.lists(st.sampled_from([0.0, 2.0**-40, -(2.0**-40)]), min_size=8, max_size=8)
        others = data.draw(st.lists(vector | tiny, min_size=1, max_size=4), label="queries")
        at = data.draw(st.integers(0, len(others)), label="cancellation query's column")
        order = data.draw(st.permutations(range(len(others) + 1)), label="order")
        k = data.draw(st.integers(1, len(picks) + 2), label="k")

        texts = [
            f"p{pick}" if same else f"c{j}" for j, (pick, same) in enumerate(zip(picks, shared))
        ]
        vectors = np.asarray(pool, dtype=np.float32)[picks]
        query_vectors = list(np.asarray(others, dtype=np.float32))
        query_vectors.insert(at, ones)
        queries = {f"q{j}": query_vector for j, query_vector in enumerate(query_vectors)}
        chunks = [
            Chunk(chunk_id=f"id{ids[j]:03d}", doc_id="d", sentence_indices=(j,), text=text)
            for j, text in enumerate(texts)
        ]
        seeded_spec = seeded({**dict(zip(texts, vectors)), **queries}, 8)
        index = build_index(chunks, ScoreTable(seeded_spec, list(queries)))
        for j in order:
            query = f"q{j}"
            check_against_reference(index, chunks, vectors, query, queries[query], k)
            alone = build_index(chunks, ScoreTable(seeded_spec, [query]))
            assert [chunk for chunk, _ in retrieve(index, query, k)] == [
                chunk for chunk, _ in retrieve(alone, query, k)
            ]

    def test_ranking_embeds_nothing_once_the_index_is_built(self, monkeypatch):
        """The exact scores read the rows' vectors back from the embedding memo,
        so with the embedder failing after the build every query still ranks."""
        cancelling, between, query_vector = self.cancellation_rows()
        vectors = {"cancel": cancelling, "between": between}
        # "query" must resolve its two rows exactly; the others score them apart.
        queries = {"query": query_vector, "other": cancelling, "third": between}
        seeded_spec = seeded({**vectors, **queries}, 8)
        chunks = [make_chunk(0, "a", "cancel"), make_chunk(1, "b", "between")]
        index = build_index(chunks, ScoreTable(seeded_spec, list(queries)))

        def embed(spec, texts):
            raise embedding.EmbeddingError("embedding backend failed")

        monkeypatch.setattr(embedding, "embed_batch", embed)
        monkeypatch.setattr(retrieval, "embed_batch", embed)
        for query, vector in queries.items():
            check_against_reference(index, chunks, list(vectors.values()), query, vector, 2)
        assert [chunk.text for chunk, _ in retrieve(index, "query", 2)] == ["between", "cancel"]

    def test_rows_added_after_the_query_rank_as_in_a_fresh_table(self):
        cancelling, between, query_vector = self.cancellation_rows()
        vectors = {"cancel": cancelling, "between": between, "query": query_vector}
        seeded_spec = seeded(vectors, 8)
        cancel, other = make_chunk(0, "a", "cancel"), make_chunk(1, "b", "between")
        for before in ([cancel], [other]):
            table = ScoreTable(seeded_spec, ["query"])
            retrieve(build_index(before, table), "query", 1)
            both = build_index([cancel, other], table)
            fresh = build_index([cancel, other], ScoreTable(seeded_spec, ["query"]))
            for index in (both, fresh):
                got = [chunk.text for chunk, _ in retrieve(index, "query", 2)]
                assert got == ["between", "cancel"]

    def test_duplicated_rows_far_apart_in_a_large_index(self, rng):
        words = [f"w{i}" for i in range(300)]
        texts = [" ".join(rng.choice(words, size=4)) for _ in range(1500)]
        query = "alpha beta gamma"
        # The query's own text three times, and the same tokens in another
        # order (a bit-equal vector under another row), far apart.
        for place, text in ((3, query), (700, "gamma beta alpha"), (1100, query), (1499, query)):
            texts[place] = text
        ids = rng.permutation(len(texts))
        chunks = [
            Chunk(chunk_id=f"c{ids[j]:05d}", doc_id="d", sentence_indices=(j,), text=text)
            for j, text in enumerate(texts)
        ]
        index = build_index(chunks, ScoreTable(spec(), [query]))
        assert len(index.table) < len(texts)
        vectors = embed_batch(spec(), texts)
        query_vector = embed_batch(spec(), [query])[0]
        check_against_reference(index, chunks, vectors, query, query_vector, 10)
        top = [chunk.chunk_id for chunk, _ in retrieve(index, query, 4)]
        assert top == sorted(chunks[place].chunk_id for place in (3, 700, 1100, 1499))
