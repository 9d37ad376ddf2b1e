import hashlib
import json
import logging
import sqlite3
import struct
from contextlib import closing
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chunkbench import embedding, transport
from chunkbench.embedding import (
    API_KEY_ENV,
    EmbedderSpec,
    EmbeddingError,
    decode_vectors,
    deterministic_embed,
    embed_batch,
    encode_vectors,
    memoised_vectors,
    token_bucket,
    tokenize,
)

from conftest import MockService, close_stores, new_process, serving, set_store_row, store_rows
from reference import deterministic_embed_reference


class TestTokenize:
    def test_casefold_and_split(self):
        assert tokenize("The Quick-Brown fox_jumps!") == ["the", "quick", "brown", "fox", "jumps"]

    def test_numbers_kept(self):
        assert tokenize("room 42, floor 3") == ["room", "42", "floor", "3"]

    def test_no_tokens(self):
        assert tokenize(" ... !! ") == []


class TestDeterministicEmbed:
    def test_unit_norm_float32(self):
        vec = deterministic_embed("a sample sentence", 64)
        assert vec.dtype == np.float32
        np.testing.assert_allclose(np.linalg.norm(vec.astype(np.float64)), 1.0, atol=1e-6)

    def test_identical_text_identical_vector(self):
        a = deterministic_embed("the same words", 128)
        b = deterministic_embed("the same words", 128)
        np.testing.assert_array_equal(a, b)

    def test_case_and_punctuation_insensitive(self):
        a = deterministic_embed("Hello, World!", 64)
        b = deterministic_embed("hello world", 64)
        np.testing.assert_array_equal(a, b)

    def test_word_order_insensitive(self):
        a = deterministic_embed("red blue green", 64)
        b = deterministic_embed("green red blue", 64)
        np.testing.assert_array_equal(a, b)

    def test_no_token_text_maps_to_first_basis_vector(self):
        vec = deterministic_embed("!!!", 16)
        expected = np.zeros(16, dtype=np.float32)
        expected[0] = 1.0
        np.testing.assert_array_equal(vec, expected)

    def test_matches_token_bucket_construction(self, rng):
        words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
        for _ in range(50):
            size = int(rng.integers(1, 8))
            picks = [words[int(i)] for i in rng.integers(0, len(words), size=size)]
            text = " ".join(picks)
            dim = 32
            acc = np.zeros(dim)
            for token in picks:
                index, sign = token_bucket(token, dim)
                acc[index] += sign
            if np.linalg.norm(acc) == 0.0:
                continue
            expected = (acc / np.linalg.norm(acc)).astype(np.float32)
            np.testing.assert_array_equal(deterministic_embed(text, dim), expected)

    def test_dimension_validated(self):
        with pytest.raises(ValueError):
            deterministic_embed("text", 1)


# Pieces that stress tokenize: "_" splits a token, casefolding expands "ß"
# and "İ" to two characters, and "alpha" and "theta" share a coordinate at
# dimension 2 with opposite signs, so together they sum to zero.
TEXT_PIECES = st.sampled_from(["_", "ß", "ẞ", "İ", "ﬁ", " ", "!?", "alpha", "theta", "Alpha_THETA"])


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(
    text=st.lists(st.one_of(st.text(max_size=12), TEXT_PIECES), max_size=12).map("".join),
    dimension=st.integers(2, 1024),
)
@example(text="", dimension=2)
@example(text="alpha theta alpha theta", dimension=2)
@example(text="Straße STRASSE strasse ẞ", dimension=1000)
@example(text="snake_case İstanbul ﬁle", dimension=3)
def test_deterministic_embed_matches_the_per_token_loop(text, dimension):
    got = deterministic_embed(text, dimension)
    want = deterministic_embed_reference(text, dimension)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_cancelling_tokens_map_to_the_first_basis_vector():
    (index_a, sign_a), (index_b, sign_b) = token_bucket("alpha", 2), token_bucket("theta", 2)
    assert index_a == index_b and sign_a == -sign_b
    np.testing.assert_array_equal(deterministic_embed("alpha theta alpha theta", 2), [1.0, 0.0])


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    texts=st.lists(
        st.lists(st.sampled_from(["bee", "hive bee", "...", "Bee-bee"]) | TEXT_PIECES, min_size=1)
        .map("".join),
        min_size=1,
        max_size=12,
    ),
    dimension=st.integers(2, 64),
)
@example(texts=["bee bee hive", "!?", "alpha theta alpha theta", "bee", "!?", "hive"], dimension=2)
def test_embed_batch_rows_match_the_per_token_loop(texts, dimension):
    """One batch of texts that repeat tokens and share them, texts with no
    tokens or whose tokens cancel, and texts given twice."""
    spec = EmbedderSpec(backend="test", dimension=dimension, model_id="batch")
    embedding._MEMO.pop(spec, None)
    rows = embed_batch(spec, texts)
    assert rows.dtype == np.float32
    for text, row in zip(texts, rows):
        assert row.tobytes() == deterministic_embed_reference(text, dimension).tobytes()


# The test backend splits a text at ". " and memoises each piece's buckets.
# Joints that run into each other or sit at either end, and piece ends that
# casefold to two characters ("ß", "ẞ", "İ", "ﬁ"), that lower would read in
# context (a final "Σ"), combining marks, "_" and pieces with no tokens.
JOINTS = st.sampled_from([". ", ". . ", ".. ", ". .. "])
PIECE_ENDS = st.sampled_from(
    ["", "_", "ß", "ẞ", "İ", "ﬁ", "ΟΔΟΣ", "Σ", "e\u0301", "\u0301", "!?", "alpha", "theta"]
)
PIECES = st.lists(st.one_of(st.text(max_size=8), PIECE_ENDS), max_size=4).map("".join)


@st.composite
def joined_texts(draw, shared: str) -> str:
    """Pieces, some of them the batch's shared one, joined at ". " joints."""
    parts = draw(st.lists(PIECES | st.just(shared), min_size=1, max_size=6))
    lead, tail = draw(st.sampled_from(["", ". "])), draw(st.sampled_from(["", ". ", "."]))
    text = lead + "".join(part + draw(JOINTS) for part in parts[:-1]) + parts[-1] + tail
    return text or ". "


@st.composite
def joined_batches(draw) -> list[tuple[list[str], int, bool]]:
    """Batches of joined texts, each with its dimension and whether the piece
    memo is cleared before it."""
    batches = []
    for _ in range(draw(st.integers(1, 3))):
        shared = draw(PIECES)
        texts = draw(st.lists(joined_texts(shared), min_size=1, max_size=6))
        batches.append((texts, draw(st.integers(2, 64)), draw(st.booleans())))
    return batches


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(batches=joined_batches())
@example(batches=[(["alpha. theta", "theta. alpha. alpha. theta"], 2, False)])
@example(batches=[([". . ", "ΟΔΟΣ. Σ. ß_. İ", ".. ﬁ_. e\u0301. \u0301x"], 3, False)] * 2)
def test_texts_joined_at_sentence_ends_match_the_per_token_loop(batches):
    """Every row equals the per-token loop's, with the piece memo cold and then
    warm, whether or not it is cleared between batches, which may differ in
    dimension."""
    embedding._piece_buckets.cache_clear()
    for texts, dimension, clear in batches:
        if clear:
            embedding._piece_buckets.cache_clear()
        spec = EmbedderSpec(backend="test", dimension=dimension, model_id="joints")
        for _ in ("as the batch before left the piece memo", "with every piece memoised"):
            embedding._MEMO.pop(spec, None)
            rows = embed_batch(spec, texts)
            for text, row in zip(texts, rows):
                assert row.tobytes() == deterministic_embed_reference(text, dimension).tobytes()


def test_a_sentence_shared_by_texts_is_tokenized_once(monkeypatch):
    seen = []
    monkeypatch.setattr(embedding, "tokenize", lambda piece: seen.append(piece) or tokenize(piece))
    spec = EmbedderSpec(backend="test", dimension=16)
    embed_batch(spec, ["One bee. Two bees.", "Two bees. Three bees."])
    embed_batch(spec, ["One bee. Two bees. Three bees."])
    assert sorted(seen) == ["One bee", "Three bees", "Two bees"]


class TestTokenBucket:
    def test_stable_known_values(self):
        # Frozen sample of the blake2b mapping; guards cross-platform drift.
        assert token_bucket("the", 512) == (303, 1)
        assert token_bucket("chunk", 512) == (196, -1)
        assert token_bucket("ss", 3) == (0, -1)

    def test_distribution_not_degenerate(self):
        indices = {token_bucket(f"word{i}", 64)[0] for i in range(200)}
        assert len(indices) > 32


class TestEmbedBatchTestBackend:
    def test_rows_match_single_calls(self):
        spec = EmbedderSpec(backend="test", dimension=32)
        texts = ["one sentence", "two sentences here", "three"]
        mat = embed_batch(spec, texts)
        assert mat.shape == (3, 32)
        assert mat.dtype == np.float32
        for row, text in zip(mat, texts):
            np.testing.assert_array_equal(row, deterministic_embed(text, 32))

    def test_empty_list_gives_empty_matrix(self):
        spec = EmbedderSpec(backend="test", dimension=16)
        mat = embed_batch(spec, [])
        assert mat.shape == (0, 16)

    def test_rejects_empty_string(self):
        spec = EmbedderSpec(backend="test", dimension=16)
        with pytest.raises(ValueError):
            embed_batch(spec, ["fine", ""])


class TestEmbedderSpecValidation:
    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            EmbedderSpec(backend="gpu")

    def test_remote_requires_endpoint(self):
        with pytest.raises(ValueError):
            EmbedderSpec(backend="remote", endpoint=None)

    def test_dimension_minimum(self):
        with pytest.raises(ValueError):
            EmbedderSpec(dimension=1)


class TestVectorBlob:
    def test_round_trip_bit_identical(self, rng):
        mat = rng.normal(size=(5, 12)).astype(np.float32)
        blob = encode_vectors(mat, "model-x")
        header, back = decode_vectors(blob)
        assert header == {"count": 5, "dimension": 12, "model_id": "model-x"}
        np.testing.assert_array_equal(back, mat)

    def test_truncated_blob_rejected(self):
        mat = np.ones((2, 3), dtype=np.float32)
        blob = encode_vectors(mat, "m")
        for cut in (1, 4, 5):
            with pytest.raises(EmbeddingError):
                decode_vectors(blob[:-cut])

    def test_empty_matrix_round_trips(self):
        blob = encode_vectors(np.zeros((0, 8), dtype=np.float32), "m")
        header, back = decode_vectors(blob)
        assert header["count"] == 0
        assert back.shape == (0, 8)

    @pytest.mark.parametrize(
        "header",
        [
            {"dimension": 2, "model_id": "m"},
            {"count": 1, "model_id": "m"},
            {"count": -1, "dimension": -4, "model_id": "m"},
            {"count": 1.5, "dimension": 2, "model_id": "m"},
            {"count": "1", "dimension": 2, "model_id": "m"},
            {"count": True, "dimension": 2, "model_id": "m"},
            [1, 2],
        ],
    )
    def test_bad_header_shape_rejected(self, header):
        raw = json.dumps(header).encode("utf-8")
        blob = struct.pack("<I", len(raw)) + raw + np.ones(4, dtype="<f4").tobytes()
        with pytest.raises(EmbeddingError):
            decode_vectors(blob)


class TestMemo:
    def _recording(self, mock_service, dimension=3):
        def handler(payload):
            return 200, {"embeddings": [[1.0] * dimension for _ in payload["texts"]]}

        mock_service.set_handler(handler)
        return EmbedderSpec(backend="remote", endpoint=mock_service.url, dimension=dimension)

    def test_repeated_call_makes_no_request(self, mock_service):
        spec = self._recording(mock_service)
        first = embed_batch(spec, ["alpha", "beta"])
        second = embed_batch(spec, ["beta", "alpha"])
        assert len(mock_service.requests) == 1
        np.testing.assert_array_equal(second, first[::-1])

    def test_text_repeated_in_one_call_is_sent_once(self, mock_service):
        spec = self._recording(mock_service)
        mat = embed_batch(spec, ["alpha", "beta", "alpha", "alpha"])
        assert [r["payload"]["texts"] for r in mock_service.requests] == [["alpha", "beta"]]
        assert mat.shape == (4, 3)
        np.testing.assert_array_equal(mat[0], mat[2])

    @pytest.mark.parametrize("field", ["model_id", "dimension", "endpoint", "cache_dir"])
    def test_specs_differing_in_one_field_do_not_share(self, mock_service, tmp_path, field):
        spec = self._recording(mock_service)
        embed_batch(spec, ["alpha"])
        other = {
            "model_id": "other-model",
            "dimension": 4,
            "endpoint": mock_service.url + "/other",
            "cache_dir": tmp_path,
        }[field]
        if field == "dimension":
            self._recording(mock_service, dimension=4)  # the service answers in 4-d now
        mat = embed_batch(replace(spec, **{field: other}), ["alpha"])
        assert len(mock_service.requests) == 2
        assert mat.shape == (1, 4 if field == "dimension" else 3)

    def test_failures_are_not_memoised(self, mock_service):
        spec = self._recording(mock_service)
        mock_service.set_handler(lambda payload: (400, {"error": "bad"}))
        with pytest.raises(EmbeddingError):
            embed_batch(spec, ["alpha"])
        self._recording(mock_service)
        assert embed_batch(spec, ["alpha"]).shape == (1, 3)
        assert len(mock_service.requests) == 2

    def test_memoised_vectors_reads_only_the_memo(self, mock_service):
        spec = self._recording(mock_service)
        first = embed_batch(spec, ["alpha"])
        np.testing.assert_array_equal(memoised_vectors(spec, ["alpha"]), first)
        with pytest.raises(KeyError, match="beta"):
            memoised_vectors(spec, ["alpha", "beta"])
        with pytest.raises(KeyError, match="alpha"):
            memoised_vectors(replace(spec, model_id="other-model"), ["alpha"])
        assert len(mock_service.requests) == 1

    def test_mutating_a_result_does_not_change_the_next(self):
        spec = EmbedderSpec(backend="test", dimension=8)
        first = embed_batch(spec, ["some text"])
        expected = first.copy()
        first[:] = 0.0
        np.testing.assert_array_equal(embed_batch(spec, ["some text"]), expected)


def row_key(model_id: str, text: str) -> str:
    """The key of text's row in a vector store: sha256 of model id, NUL, text."""
    return hashlib.sha256(f"{model_id}\x00{text}".encode("utf-8")).hexdigest()


class TestCache:
    def test_second_call_uses_cache(self, tmp_path, mock_service):
        calls = []

        def handler(payload):
            calls.append(payload)
            return 200, {"embeddings": [[1.0, 2.0, 0.0] for _ in payload["texts"]]}

        mock_service.set_handler(handler)
        spec = EmbedderSpec(
            backend="remote", endpoint=mock_service.url, dimension=3, cache_dir=tmp_path
        )
        first = embed_batch(spec, ["alpha", "beta"])
        assert len(calls) == 1
        second = embed_batch(spec, ["alpha", "beta"])
        assert len(calls) == 1
        np.testing.assert_array_equal(first, second)

    def test_cache_is_keyed_by_model(self, tmp_path):
        a = EmbedderSpec(backend="test", dimension=8, model_id="m-a", cache_dir=tmp_path)
        b = EmbedderSpec(backend="test", dimension=8, model_id="m-b", cache_dir=tmp_path)
        va = embed_batch(a, ["same text"])
        vb = embed_batch(b, ["same text"])
        np.testing.assert_array_equal(va, vb)
        keys = {row_key(model_id, "same text") for model_id in ("m-a", "m-b")}
        assert set(store_rows(tmp_path)) == keys
        assert [path.name for path in tmp_path.iterdir()] == ["vectors.sqlite"]

    def test_mismatched_cache_entry_is_an_error(self, tmp_path):
        wide = EmbedderSpec(backend="test", dimension=8, model_id="m", cache_dir=tmp_path)
        embed_batch(wide, ["payload text"])
        assert store_rows(tmp_path)
        # Same (model, text) key resolves to the same row; the stored header
        # disagrees with the requested dimension and must fail loudly.
        clash = EmbedderSpec(backend="test", dimension=4, model_id="m", cache_dir=tmp_path)
        with pytest.raises(EmbeddingError):
            embed_batch(clash, ["payload text"])

    @pytest.mark.parametrize("keep", [0, 3, 10, -4, -5])
    def test_torn_entry_is_a_miss_and_is_rewritten(self, tmp_path, caplog, keep):
        spec = EmbedderSpec(backend="test", dimension=8, cache_dir=tmp_path)
        expected = embed_batch(spec, ["torn text"])
        ((key, blob),) = store_rows(tmp_path).items()
        set_store_row(tmp_path, key, blob[:keep])
        new_process()
        with caplog.at_level(logging.WARNING, logger="chunkbench.embedding"):
            again = embed_batch(spec, ["torn text"])
        np.testing.assert_array_equal(again, expected)
        assert key in caplog.text and "vectors.sqlite" in caplog.text
        assert store_rows(tmp_path) == {key: blob}

    @pytest.mark.parametrize("count", [0, 2])
    def test_entry_without_exactly_one_vector_is_a_miss_and_is_rewritten(
        self, tmp_path, caplog, count
    ):
        spec = EmbedderSpec(backend="test", dimension=8, cache_dir=tmp_path)
        expected = embed_batch(spec, ["counted text"])
        ((key, blob),) = store_rows(tmp_path).items()
        set_store_row(tmp_path, key, encode_vectors(np.ones((count, 8)), spec.model_id))
        new_process()
        with caplog.at_level(logging.WARNING, logger="chunkbench.embedding"):
            again = embed_batch(spec, ["counted text"])
        np.testing.assert_array_equal(again, expected)
        assert key in caplog.text
        assert store_rows(tmp_path) == {key: blob}
        header, matrix = decode_vectors(blob)
        assert header["count"] == 1
        np.testing.assert_array_equal(matrix, expected)

    def test_remote_backend_gets_and_caches_whole_texts(self, tmp_path, mock_service):
        """Only the test backend splits texts at sentence ends."""
        mock_service.embed_with(lambda text: [1.0, float(len(text)), 0.0])
        spec = EmbedderSpec(
            backend="remote", endpoint=mock_service.url, dimension=3, cache_dir=tmp_path
        )
        texts = ["First one. Second one.", "Second one. Third one", "Second one"]
        embed_batch(spec, texts)
        assert [r["payload"]["texts"] for r in mock_service.requests] == [texts]
        # Committed when embed_batch returns: another connection reads every row.
        with closing(sqlite3.connect(tmp_path / "vectors.sqlite")) as db:
            keys = {key for (key,) in db.execute("SELECT key FROM vectors")}
        assert keys == {row_key(spec.model_id, text) for text in texts}
        assert embedding._piece_buckets.cache_info().currsize == 0

    def test_memoised_texts_build_no_cache(self, tmp_path, monkeypatch):
        spec = EmbedderSpec(backend="test", dimension=8, cache_dir=tmp_path)
        embed_batch(spec, ["alpha", "beta"])
        close_stores()
        opened = []
        connect = sqlite3.connect

        def counting(*args, **kwargs):
            opened.append(args[0])
            return connect(*args, **kwargs)

        monkeypatch.setattr(sqlite3, "connect", counting)
        embed_batch(spec, ["beta", "alpha", "beta"])
        assert opened == []
        embed_batch(spec, ["alpha", "gamma"])
        embed_batch(spec, ["delta"])
        assert opened == [tmp_path / "vectors.sqlite"]

    def test_one_commit_per_call(self, tmp_path):
        spec = EmbedderSpec(backend="test", dimension=8, cache_dir=tmp_path)
        embed_batch(spec, ["one"])
        db = embedding._STORES[tmp_path / "vectors.sqlite"]
        commits = []
        db.set_trace_callback(lambda sql: commits.append(sql) if sql == "COMMIT" else None)
        embed_batch(spec, [f"text {i}" for i in range(50)])
        assert commits == ["COMMIT"]
        embedding._MEMO.clear()
        embed_batch(spec, ["one", "text 3"])  # read from the store: nothing to commit
        embed_batch(spec, ["one", "text 50", "text 51"])
        assert commits == ["COMMIT", "COMMIT"]
        assert len(store_rows(tmp_path)) == 53
        assert [path.name for path in tmp_path.iterdir()] == ["vectors.sqlite"]


def test_mock_service_closes_its_listening_socket():
    service = MockService()
    with serving(service) as server:
        listening = server.socket
        service.embed_with(lambda text: [1.0, 0.0, 0.0])
        spec = EmbedderSpec(backend="remote", endpoint=service.url, dimension=3)
        assert embed_batch(spec, ["up"]).shape == (1, 3)
    assert listening.fileno() == -1


class TestRemoteBackend:
    def _spec(self, service, **kwargs):
        defaults = dict(backend="remote", endpoint=service.url, dimension=3)
        defaults.update(kwargs)
        return EmbedderSpec(**defaults)

    def test_vectors_are_normalized_on_receipt(self, mock_service):
        mock_service.embed_with(lambda text: [3.0, 4.0, 0.0])
        spec = self._spec(mock_service)
        mat = embed_batch(spec, ["anything"])
        np.testing.assert_allclose(mat[0], [0.6, 0.8, 0.0], atol=1e-7)

    def test_request_payload_shape(self, mock_service):
        mock_service.embed_with(lambda text: [1.0, 0.0, 0.0])
        spec = self._spec(mock_service, model_id="model-7")
        embed_batch(spec, ["text one", "text two"])
        payload = mock_service.requests[-1]["payload"]
        assert payload == {"model": "model-7", "texts": ["text one", "text two"]}

    def test_api_key_header_sent_when_set(self, mock_service, monkeypatch):
        mock_service.embed_with(lambda text: [1.0, 0.0, 0.0])
        monkeypatch.setenv(API_KEY_ENV, "sekrit")
        embed_batch(self._spec(mock_service), ["x"])
        assert mock_service.requests[-1]["authorization"] == "Bearer sekrit"

    def test_no_header_without_key(self, mock_service, monkeypatch):
        mock_service.embed_with(lambda text: [1.0, 0.0, 0.0])
        monkeypatch.delenv(API_KEY_ENV, raising=False)
        embed_batch(self._spec(mock_service), ["x"])
        assert mock_service.requests[-1]["authorization"] is None

    def test_batching_splits_requests(self, mock_service):
        mock_service.embed_with(lambda text: [1.0, 0.0, 0.0])
        spec = self._spec(mock_service, batch_size=2, max_concurrency=1)
        embed_batch(spec, [f"text {i}" for i in range(5)])
        sizes = sorted(len(r["payload"]["texts"]) for r in mock_service.requests)
        assert sizes == [1, 2, 2]

    def test_batches_reassemble_in_order(self, mock_service):
        def vec_for(text):
            i = float(text.split()[-1])
            return [i + 1.0, 1.0, 0.0]

        mock_service.embed_with(vec_for)
        spec = self._spec(mock_service, batch_size=2, max_concurrency=4)
        mat = embed_batch(spec, [f"text {i}" for i in range(6)])
        for i in range(6):
            raw = np.array([i + 1.0, 1.0, 0.0])
            np.testing.assert_allclose(mat[i], raw / np.linalg.norm(raw), atol=1e-7)

    def test_server_error_retries_then_succeeds(self, mock_service):
        state = {"calls": 0}

        def handler(payload):
            state["calls"] += 1
            if state["calls"] < 3:
                return 503, {"error": "overloaded"}
            return 200, {"embeddings": [[1.0, 0.0, 0.0] for _ in payload["texts"]]}

        mock_service.set_handler(handler)
        mat = embed_batch(self._spec(mock_service), ["x"])
        assert state["calls"] == 3
        assert mat.shape == (1, 3)

    def test_retry_warning_comes_from_the_embedding_logger(self, mock_service, caplog):
        replies = iter([(503, {"error": "busy"}), (200, {"embeddings": [[1.0, 0.0, 0.0]]})])
        mock_service.set_handler(lambda payload: next(replies))
        with caplog.at_level(logging.WARNING, logger="chunkbench"):
            embed_batch(self._spec(mock_service), ["x"])
        assert [(r.name, r.levelno) for r in caplog.records] == [
            ("chunkbench.embedding", logging.WARNING)
        ]
        assert "embedding request failed (status 503)" in caplog.records[0].getMessage()

    def test_server_error_exhausts_retries(self, mock_service):
        mock_service.set_handler(lambda payload: (500, {"error": "down"}))
        with pytest.raises(EmbeddingError) as err:
            embed_batch(self._spec(mock_service), ["x"])
        assert err.value.status == 500
        assert len(mock_service.requests) == 3

    def test_client_error_fails_fast(self, mock_service):
        mock_service.set_handler(lambda payload: (401, {"error": "no auth"}))
        with pytest.raises(EmbeddingError) as err:
            embed_batch(self._spec(mock_service), ["x"])
        assert err.value.status == 401
        assert len(mock_service.requests) == 1

    def test_rate_limit_reply_is_retried(self, mock_service, caplog):
        replies = iter([(429, {"error": "slow down"}), (200, {"embeddings": [[1.0, 0.0, 0.0]]})])
        mock_service.set_handler(lambda payload: next(replies))
        with caplog.at_level(logging.WARNING, logger="chunkbench"):
            assert embed_batch(self._spec(mock_service), ["x"]).shape == (1, 3)
        assert len(mock_service.requests) == 2
        assert [r.getMessage() for r in caplog.records] == [
            "embedding request failed (status 429), retrying in 0.00s"
        ]

    def test_request_timeout_reply_exhausts_retries(self, mock_service):
        mock_service.set_handler(lambda payload: (408, {"error": "timed out"}))
        with pytest.raises(EmbeddingError) as err:
            embed_batch(self._spec(mock_service), ["x"])
        assert err.value.status == 408
        assert len(mock_service.requests) == 3

    def test_not_found_fails_fast(self, mock_service):
        mock_service.set_handler(lambda payload: (404, {"error": "no such model"}))
        with pytest.raises(EmbeddingError) as err:
            embed_batch(self._spec(mock_service), ["x"])
        assert err.value.status == 404
        assert len(mock_service.requests) == 1

    def test_retry_waits_double_with_none_after_the_last_try(self, mock_service, monkeypatch):
        sleeps = []
        monkeypatch.setattr(transport.time, "sleep", sleeps.append)
        monkeypatch.setattr(transport, "_RETRY_BASE_DELAY", 0.5)
        mock_service.set_handler(lambda payload: (503, {"error": "busy"}))
        with pytest.raises(EmbeddingError):
            embed_batch(self._spec(mock_service), ["x"])
        assert len(mock_service.requests) == 3
        assert sleeps == [0.5, 1.0]

    def test_invalid_json_reply_fails_after_one_request(self, mock_service):
        mock_service.set_handler(lambda payload: (200, b"<html>not json</html>"))
        with pytest.raises(EmbeddingError, match="invalid JSON"):
            embed_batch(self._spec(mock_service), ["x"])
        assert len(mock_service.requests) == 1

    def test_status_201_is_rejected_at_once(self, mock_service):
        mock_service.set_handler(
            lambda payload: (201, {"embeddings": [[1.0, 0.0, 0.0] for _ in payload["texts"]]})
        )
        with pytest.raises(EmbeddingError) as err:
            embed_batch(self._spec(mock_service), ["x"])
        assert err.value.status == 201
        assert len(mock_service.requests) == 1

    def test_307_is_followed_with_the_body_and_token_on_the_same_host(
        self, mock_service, monkeypatch
    ):
        monkeypatch.setenv(API_KEY_ENV, "sekrit")
        state = {"calls": 0}

        def handler(payload):
            state["calls"] += 1
            if state["calls"] == 1:
                return 307, {}, {"Location": "/v1/"}
            return 200, {"embeddings": [[1.0, 0.0, 0.0] for _ in payload["texts"]]}

        mock_service.set_handler(handler)
        assert embed_batch(self._spec(mock_service), ["x"]).shape == (1, 3)
        first, second = mock_service.requests
        assert second["method"] == "POST" and second["path"] == "/v1/"
        assert second["payload"] == first["payload"]
        assert second["authorization"] == "Bearer sekrit"

    @pytest.mark.parametrize("status", [302, 307, 308])
    def test_token_is_not_sent_to_another_host(self, mock_service, monkeypatch, status):
        monkeypatch.setenv(API_KEY_ENV, "sekrit")
        other = MockService()
        # A 302 turns the POST into a GET, so this reply does not read the payload.
        other.set_handler(lambda payload: (200, {"embeddings": [[1.0, 0.0, 0.0]]}))
        with serving(other):
            mock_service.redirect_to(status, f"http://localhost:{other.port}/v1")
            embed_batch(self._spec(mock_service), ["x"])
        assert mock_service.requests[0]["authorization"] == "Bearer sekrit"
        (redirected,) = other.requests
        assert redirected["method"] == ("GET" if status == 302 else "POST")
        assert redirected["authorization"] is None

    def test_connection_error_retries(self):
        spec = EmbedderSpec(backend="remote", endpoint="http://127.0.0.1:1/v1", dimension=3)
        with pytest.raises(EmbeddingError):
            embed_batch(spec, ["x"])

    def test_arity_mismatch_rejected(self, mock_service):
        mock_service.set_handler(lambda payload: (200, {"embeddings": [[1.0, 0.0, 0.0]]}))
        with pytest.raises(EmbeddingError):
            embed_batch(self._spec(mock_service), ["a", "b"])

    def test_dimension_mismatch_rejected(self, mock_service):
        mock_service.embed_with(lambda text: [1.0, 0.0])
        with pytest.raises(EmbeddingError):
            embed_batch(self._spec(mock_service), ["a"])

    def test_zero_vector_rejected(self, mock_service):
        mock_service.embed_with(lambda text: [0.0, 0.0, 0.0])
        with pytest.raises(EmbeddingError):
            embed_batch(self._spec(mock_service), ["a"])

    def test_non_finite_rejected(self, mock_service):
        mock_service.set_handler(
            lambda payload: (200, {"embeddings": [[1.0, None, 0.0]]})
        )
        with pytest.raises(EmbeddingError):
            embed_batch(self._spec(mock_service), ["a"])

    def test_missing_field_rejected(self, mock_service):
        mock_service.set_handler(lambda payload: (200, {"vectors": [[1.0, 0.0, 0.0]]}))
        with pytest.raises(EmbeddingError):
            embed_batch(self._spec(mock_service), ["a"])
