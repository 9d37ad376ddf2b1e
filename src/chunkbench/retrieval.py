"""Exact brute-force retrieval over chunk embeddings."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .chunkers import Chunk
from .embedding import EmbedderSpec, embed_batch


class ChunkIndex:
    """An in-memory index whose chunks, vectors and spec are fixed once built:
    the chunks, one unit vector per chunk, and the spec that embedded them,
    which also embeds each query.

    The vectors are held as float64, so scores are computed in float64 and
    ranking is stable. The index does change in one way: it remembers each
    query's ranking, so asking again for a query's top k embeds and ranks nothing.
    """

    def __init__(self, chunks: Sequence[Chunk], vectors: np.ndarray, spec: EmbedderSpec) -> None:
        chunks = tuple(chunks)
        if not chunks:
            raise ValueError("cannot build an index over zero chunks")
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
        self.spec = spec
        # Each chunk_id's position in ascending id order: the ranking tie-break.
        by_id = sorted(range(len(chunks)), key=lambda i: chunks[i].chunk_id)
        self._id_rank = np.empty(len(chunks), dtype=np.int64)
        self._id_rank[by_id] = np.arange(len(chunks))
        # Query text -> its top-k (chunk, score) pairs, for the largest k asked.
        self._ranked: dict[str, list[tuple[Chunk, float]]] = {}

    def __len__(self) -> int:
        return len(self.chunks)


def build_index(chunks: Sequence[Chunk], spec: EmbedderSpec) -> ChunkIndex:
    """Embed each chunk's assembled text and wrap the result in a ChunkIndex."""
    chunks = tuple(chunks)
    return ChunkIndex(chunks, embed_batch(spec, [c.text for c in chunks]), spec)


def retrieve(index: ChunkIndex, query_text: str, k: int) -> list[tuple[Chunk, float]]:
    """Top-k chunks by dot product, descending; ties broken by ascending chunk_id.

    Exact scan over the whole index, with the query embedded by the index's
    spec; result lists are prefix-consistent across k. Returns a fresh list
    of (chunk, score) pairs, each chunk the index's own. The index ranks a
    query once, and again only for a larger k than it has ranked.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ranked = index._ranked.get(query_text)
    if ranked is None or len(ranked) < min(k, len(index.chunks)):
        query_vec = embed_batch(index.spec, [query_text])[0].astype(np.float64)
        scores = index.vectors @ query_vec
        order = np.lexsort((index._id_rank, -scores))[:k]
        ranked = index._ranked[query_text] = [(index.chunks[i], float(scores[i])) for i in order]
    return ranked[:k]
