import json
import logging
import struct
from dataclasses import replace

import numpy as np
import pytest

from chunkbench import embedding
from chunkbench.embedding import (
    API_KEY_ENV,
    EmbedderSpec,
    EmbeddingError,
    decode_vectors,
    deterministic_embed,
    embed_batch,
    encode_vectors,
    token_bucket,
    tokenize,
)

from conftest import MockService, serving


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


class TestTokenBucket:
    def test_stable_known_values(self):
        # Frozen sample of the blake2b mapping; guards cross-platform drift.
        assert token_bucket("the", 512) == token_bucket("the", 512)
        index, sign = token_bucket("the", 512)
        assert 0 <= index < 512
        assert sign in (-1, 1)

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

    def test_mutating_a_result_does_not_change_the_next(self):
        spec = EmbedderSpec(backend="test", dimension=8)
        first = embed_batch(spec, ["some text"])
        expected = first.copy()
        first[:] = 0.0
        np.testing.assert_array_equal(embed_batch(spec, ["some text"]), expected)


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
        files = list(tmp_path.glob("*.vec"))
        assert len(files) == 2

    def test_mismatched_cache_entry_is_an_error(self, tmp_path):
        wide = EmbedderSpec(backend="test", dimension=8, model_id="m", cache_dir=tmp_path)
        embed_batch(wide, ["payload text"])
        assert list(tmp_path.glob("*.vec"))
        # Same (model, text) key resolves to the same file; the stored header
        # disagrees with the requested dimension and must fail loudly.
        clash = EmbedderSpec(backend="test", dimension=4, model_id="m", cache_dir=tmp_path)
        with pytest.raises(EmbeddingError):
            embed_batch(clash, ["payload text"])

    @pytest.mark.parametrize("keep", [0, 3, 10, -4, -5])
    def test_torn_entry_is_a_miss_and_is_rewritten(self, tmp_path, caplog, keep):
        spec = EmbedderSpec(backend="test", dimension=8, cache_dir=tmp_path)
        expected = embed_batch(spec, ["torn text"])
        (path,) = tmp_path.glob("*.vec")
        path.write_bytes(path.read_bytes()[:keep])
        embedding._MEMO.clear()  # as a new process would start
        with caplog.at_level(logging.WARNING, logger="chunkbench.embedding"):
            again = embed_batch(spec, ["torn text"])
        np.testing.assert_array_equal(again, expected)
        assert path.name in caplog.text
        _, matrix = decode_vectors(path.read_bytes())
        np.testing.assert_array_equal(matrix, expected)


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

    def test_retry_waits_double_with_none_after_the_last_try(self, mock_service, monkeypatch):
        sleeps = []
        monkeypatch.setattr(embedding.time, "sleep", sleeps.append)
        monkeypatch.setattr(embedding, "_RETRY_BASE_DELAY", 0.5)
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
