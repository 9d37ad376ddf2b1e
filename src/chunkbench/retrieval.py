"""Exact brute-force retrieval over chunk embeddings."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .chunkers import Chunk
from .embedding import EmbedderSpec, embed_batch


class ChunkIndex:
    """An immutable in-memory index: chunks plus one unit vector per chunk.

    The vectors are held as float64, so scores are computed in float64 and
    ranking is stable.
    """

    def __init__(self, chunks: Sequence[Chunk], vectors: np.ndarray, model_id: str) -> None:
        chunks = tuple(chunks)
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ValueError("vectors must be a 2D array")
        if len(chunks) != vectors.shape[0]:
            raise ValueError(
                f"{len(chunks)} chunks but {vectors.shape[0]} vectors"
            )
        seen: set[str] = set()
        for chunk in chunks:
            if chunk.chunk_id in seen:
                raise ValueError(f"duplicate chunk_id {chunk.chunk_id!r}")
            seen.add(chunk.chunk_id)
        self.chunks = chunks
        self.vectors = vectors
        self.model_id = model_id
        self._by_id = {c.chunk_id: c for c in chunks}
        # Each chunk_id's position in ascending id order: the ranking tie-break.
        by_id = sorted(range(len(chunks)), key=lambda i: chunks[i].chunk_id)
        self._id_rank = np.empty(len(chunks), dtype=np.int64)
        self._id_rank[by_id] = np.arange(len(chunks))

    def __len__(self) -> int:
        return len(self.chunks)

    @property
    def dimension(self) -> int:
        return int(self.vectors.shape[1])

    def get(self, chunk_id: str) -> Chunk:
        return self._by_id[chunk_id]


def build_index(chunks: Sequence[Chunk], spec: EmbedderSpec) -> ChunkIndex:
    """Embed each chunk's assembled text and wrap the result in a ChunkIndex."""
    chunks = list(chunks)
    if not chunks:
        raise ValueError("cannot build an index over zero chunks")
    vectors = embed_batch(spec, [c.text for c in chunks])
    return ChunkIndex(chunks=chunks, vectors=vectors, model_id=spec.model_id)


def retrieve(
    index: ChunkIndex, query_text: str, k: int, spec: EmbedderSpec
) -> list[tuple[str, float]]:
    """Top-k chunks by dot product, descending; ties broken by ascending chunk_id.

    Exact scan over the whole index; result lists are prefix-consistent
    across k. Returns (chunk_id, score) pairs.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(index) == 0:
        raise ValueError("cannot retrieve from an empty index")
    if spec.model_id != index.model_id:
        raise ValueError(
            f"index was built with model {index.model_id!r}, spec says {spec.model_id!r}"
        )
    query_vec = embed_batch(spec, [query_text])[0].astype(np.float64)
    scores = index.vectors @ query_vec
    ranked = np.lexsort((index._id_rank, -scores))[:k]
    return [(index.chunks[i].chunk_id, float(scores[i])) for i in ranked]

