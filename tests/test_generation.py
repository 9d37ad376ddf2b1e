import numpy as np
import pytest

from chunkbench import embedding
from chunkbench.embedding import EmbedderSpec, deterministic_embed
from chunkbench.generation import (
    DEFAULT_PROMPT_TEMPLATE,
    GenerationConfig,
    GenerationError,
    generate_answer,
    qa_similarity,
    render_prompt,
)

from conftest import MockService, serving


def config_for(url, **overrides):
    defaults = dict(endpoint=url, model_id="gen-test")
    defaults.update(overrides)
    return GenerationConfig(**defaults)


class TestGenerationConfig:
    def test_defaults(self):
        config = GenerationConfig(endpoint="http://x", model_id="m")
        assert config.prompt_template == DEFAULT_PROMPT_TEMPLATE
        assert config.max_retries == 3
        assert config.top_k_context == 5

    def test_template_must_contain_both_slots(self):
        with pytest.raises(ValueError, match="query"):
            GenerationConfig(endpoint="http://x", model_id="m", prompt_template="{chunks}")
        with pytest.raises(ValueError, match="chunks"):
            GenerationConfig(endpoint="http://x", model_id="m", prompt_template="{query}")

    def test_endpoint_required(self):
        with pytest.raises(ValueError):
            GenerationConfig(endpoint="", model_id="m")

    def test_bounds(self):
        with pytest.raises(ValueError):
            GenerationConfig(endpoint="http://x", model_id="m", max_retries=0)
        with pytest.raises(ValueError):
            GenerationConfig(endpoint="http://x", model_id="m", top_k_context=0)


class TestRenderPrompt:
    def test_joins_chunks_with_blank_lines(self):
        config = GenerationConfig(
            endpoint="http://x", model_id="m", prompt_template="C:{chunks} Q:{query}"
        )
        prompt = render_prompt(config, "why?", ["first.", "second."])
        assert prompt == "C:first.\n\nsecond. Q:why?"

    def test_default_template_mentions_query_and_context(self):
        config = GenerationConfig(endpoint="http://x", model_id="m")
        prompt = render_prompt(config, "what is up", ["ctx"])
        assert "what is up" in prompt
        assert "ctx" in prompt
        assert "{chunks}" not in prompt and "{query}" not in prompt

    def test_chunk_count_capped_by_top_k_context(self):
        config = GenerationConfig(endpoint="http://x", model_id="m", top_k_context=2)
        render_prompt(config, "q", ["a", "b"])
        with pytest.raises(ValueError, match="top_k_context"):
            render_prompt(config, "q", ["a", "b", "c"])

    def test_empty_chunks_rejected(self):
        config = GenerationConfig(endpoint="http://x", model_id="m")
        with pytest.raises(ValueError):
            render_prompt(config, "q", [])

    def test_chunks_slot_filled_before_query_slot(self):
        # a literal "{chunks}" inside the query text is not chunk-expanded
        config = GenerationConfig(
            endpoint="http://x", model_id="m", prompt_template="{chunks}|{query}"
        )
        prompt = render_prompt(config, "about {chunks} markers", ["A"])
        assert prompt == "A|about {chunks} markers"


class TestGenerateAnswer:
    def test_round_trip_and_payload_shape(self, mock_service):
        def handler(payload):
            return 200, {"text": "because the sky scatters blue light"}

        mock_service.set_handler(handler)
        config = config_for(mock_service.url)
        answer = generate_answer(config, "why is the sky blue?", ["rayleigh scattering."])
        assert answer == "because the sky scatters blue light"
        assert len(mock_service.requests) == 1
        payload = mock_service.requests[0]["payload"]
        assert set(payload) == {"model", "prompt"}
        assert payload["model"] == "gen-test"
        assert "why is the sky blue?" in payload["prompt"]
        assert "rayleigh scattering." in payload["prompt"]

    def test_bearer_header_from_environment(self, mock_service, monkeypatch):
        mock_service.set_handler(lambda payload: (200, {"text": "ok"}))
        config = config_for(mock_service.url)

        monkeypatch.delenv("GEN_API_KEY", raising=False)
        generate_answer(config, "q", ["c"])
        assert mock_service.requests[-1]["authorization"] is None

        monkeypatch.setenv("GEN_API_KEY", "sk-gen-9")
        generate_answer(config, "q", ["c"])
        assert mock_service.requests[-1]["authorization"] == "Bearer sk-gen-9"

    def test_token_is_not_sent_to_another_host(self, mock_service, monkeypatch):
        monkeypatch.setenv("GEN_API_KEY", "sk-gen-9")
        other = MockService()
        other.set_handler(lambda payload: (200, {"text": "ok"}))
        with serving(other):
            mock_service.redirect_to(307, f"http://localhost:{other.port}/v1")
            assert generate_answer(config_for(mock_service.url), "q", ["c"]) == "ok"
        assert mock_service.requests[0]["authorization"] == "Bearer sk-gen-9"
        (redirected,) = other.requests
        assert redirected["payload"] == mock_service.requests[0]["payload"]
        assert redirected["authorization"] is None

    def test_retries_transient_500_then_succeeds(self, mock_service):
        calls = []

        def handler(payload):
            calls.append(1)
            if len(calls) < 3:
                return 503, {"error": "busy"}
            return 200, {"text": "done"}

        mock_service.set_handler(handler)
        config = config_for(mock_service.url)
        assert generate_answer(config, "q", ["c"]) == "done"
        assert len(calls) == 3

    def test_gives_up_after_max_retries(self, mock_service):
        mock_service.set_handler(lambda payload: (500, {"error": "down"}))
        config = config_for(mock_service.url, max_retries=3)
        with pytest.raises(GenerationError) as excinfo:
            generate_answer(config, "q", ["c"])
        assert excinfo.value.status == 500
        assert len(mock_service.requests) == 3

    def test_client_error_fails_fast(self, mock_service):
        mock_service.set_handler(lambda payload: (401, {"error": "no key"}))
        config = config_for(mock_service.url)
        with pytest.raises(GenerationError) as excinfo:
            generate_answer(config, "q", ["c"])
        assert excinfo.value.status == 401
        assert len(mock_service.requests) == 1

    def test_retry_waits_double_with_none_after_the_last_try(self, mock_service, monkeypatch):
        sleeps = []
        monkeypatch.setattr(embedding.time, "sleep", sleeps.append)
        monkeypatch.setattr(embedding, "_RETRY_BASE_DELAY", 0.5)
        mock_service.set_handler(lambda payload: (503, {"error": "busy"}))
        config = config_for(mock_service.url, max_retries=3)
        with pytest.raises(GenerationError):
            generate_answer(config, "q", ["c"])
        assert len(mock_service.requests) == 3
        assert sleeps == [0.5, 1.0]

    def test_invalid_json_reply_fails_after_one_request(self, mock_service):
        mock_service.set_handler(lambda payload: (200, b"<html>not json</html>"))
        config = config_for(mock_service.url)
        with pytest.raises(GenerationError, match="invalid JSON"):
            generate_answer(config, "q", ["c"])
        assert len(mock_service.requests) == 1

    def test_status_201_is_rejected_at_once(self, mock_service):
        mock_service.set_handler(lambda payload: (201, {"text": "created"}))
        config = config_for(mock_service.url)
        with pytest.raises(GenerationError) as excinfo:
            generate_answer(config, "q", ["c"])
        assert excinfo.value.status == 201
        assert len(mock_service.requests) == 1

    def test_connection_error_retries_then_fails(self):
        config = config_for("http://127.0.0.1:1/v1", max_retries=2)
        with pytest.raises(GenerationError, match="2 attempts"):
            generate_answer(config, "q", ["c"])

    def test_missing_text_field_rejected(self, mock_service):
        mock_service.set_handler(lambda payload: (200, {"output": "wrong key"}))
        config = config_for(mock_service.url)
        with pytest.raises(GenerationError, match="text"):
            generate_answer(config, "q", ["c"])

    def test_non_string_text_rejected(self, mock_service):
        mock_service.set_handler(lambda payload: (200, {"text": 42}))
        config = config_for(mock_service.url)
        with pytest.raises(GenerationError):
            generate_answer(config, "q", ["c"])


class TestQaSimilarity:
    def spec(self):
        return EmbedderSpec(backend="test", model_id="hash-v1", dimension=64)

    def test_identical_texts_score_one(self):
        spec = self.spec()
        assert qa_similarity("the same words", "the same words", spec) == pytest.approx(1.0)

    def test_matches_embedding_dot_product(self, rng):
        spec = self.spec()
        texts = ["alpha beta gamma", "gamma beta", "delta epsilon", "alpha"]
        for _ in range(20):
            q, a = rng.choice(texts, size=2)
            expected = float(
                np.dot(
                    deterministic_embed(str(q), spec.dimension).astype(np.float64),
                    deterministic_embed(str(a), spec.dimension).astype(np.float64),
                )
            )
            expected = min(1.0, max(-1.0, expected))
            assert qa_similarity(str(q), str(a), spec) == pytest.approx(expected, abs=1e-12)

    def test_range_clamped(self, rng):
        spec = self.spec()
        words = ["red", "green", "blue", "cyan", "violet", "amber"]
        for _ in range(30):
            q = " ".join(rng.choice(words, size=3))
            a = " ".join(rng.choice(words, size=3))
            value = qa_similarity(q, a, spec)
            assert -1.0 <= value <= 1.0
