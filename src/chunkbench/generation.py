"""Answer generation over retrieved chunks, plus a query-answer similarity score."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embedding import EmbedderSpec, embed_batch

API_KEY_ENV = "GEN_API_KEY"
_REQUEST_TIMEOUT = 60.0
DEFAULT_CONCURRENCY = 2

DEFAULT_PROMPT_TEMPLATE = (
    "Answer the question using only the context below.\n\n"
    "Context:\n{chunks}\n\n"
    "Question: {query}\n"
    "Answer:"
)


class GenerationError(RuntimeError):
    """Generation backend failure or contract violation."""

    def __init__(self, message: str, status: int | None = None) -> None:
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class GenerationConfig:
    """Endpoint, model, and prompt shape for answer generation."""

    endpoint: str
    model_id: str = ""
    prompt_template: str = DEFAULT_PROMPT_TEMPLATE
    max_retries: int = 3
    top_k_context: int = 5

    def __post_init__(self) -> None:
        if not self.endpoint:
            raise ValueError("endpoint must be non-empty")
        if "{query}" not in self.prompt_template or "{chunks}" not in self.prompt_template:
            raise ValueError("prompt_template must contain {query} and {chunks} slots")
        if self.max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {self.max_retries}")
        if self.top_k_context < 1:
            raise ValueError(f"top_k_context must be >= 1, got {self.top_k_context}")


def render_prompt(config: GenerationConfig, query_text: str, chunk_texts: Sequence[str]) -> str:
    """Fill the template; chunks are joined by blank lines in retrieval order."""
    chunk_texts = list(chunk_texts)
    if not chunk_texts:
        raise ValueError("chunk_texts must be non-empty")
    if len(chunk_texts) > config.top_k_context:
        raise ValueError(
            f"{len(chunk_texts)} chunks exceed top_k_context={config.top_k_context}"
        )
    joined = "\n\n".join(chunk_texts)
    return config.prompt_template.replace("{chunks}", joined).replace("{query}", query_text)


def generate_answer(
    config: GenerationConfig, query_text: str, chunk_texts: Sequence[str]
) -> str:
    """POST the rendered prompt to the generation endpoint and return its text.

    Transient failures (connection errors, 5xx, 408, 429) are retried with
    exponential backoff up to max_retries attempts. A reply without a
    non-empty "text" string raises GenerationError.
    """
    from .transport import post_with_retries

    body = post_with_retries(
        "generation",
        config.endpoint,
        {"model": config.model_id, "prompt": render_prompt(config, query_text, chunk_texts)},
        GenerationError,
        api_key_env=API_KEY_ENV,
        timeout=_REQUEST_TIMEOUT,
        attempts=config.max_retries,
    )
    if not isinstance(body, dict) or not isinstance(body.get("text"), str):
        raise GenerationError('generation response is missing the "text" field')
    if not body["text"]:
        raise GenerationError('generation response has an empty "text" field')
    return body["text"]


def qa_similarity(
    query_texts: Sequence[str], answer_texts: Sequence[str], spec: EmbedderSpec
) -> list[float]:
    """Each query's cosine with its answer, clamped to [-1, 1]; one embed_batch call."""
    vectors = embed_batch(spec, [*query_texts, *answer_texts]).astype(np.float64)
    pairs = zip(vectors[: len(query_texts)], vectors[len(query_texts) :], strict=True)
    return [min(1.0, max(-1.0, float(np.dot(q, a)))) for q, a in pairs]
