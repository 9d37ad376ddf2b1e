"""Exact brute-force retrieval over chunk embeddings, scored through one table.

A ``ScoreTable`` is made over a fixed list of query texts, one column each.
It gives each distinct chunk text a row and holds the float64 dot product of
their float32 embeddings, so a run embeds each text once and scores each
(text, query) pair once however many chunkings share them. A ``ChunkIndex``
is one chunking's rows of a table. ``retrieve`` ranks an index's chunks for
one of the table's queries by the correctly rounded exact dot product, ties
broken by ascending ``chunk_id``: the table's float64 scores decide every
pair they can certify, and the few pairs within their error bound are
resolved exactly, each row's score by one ``math.fsum``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .chunkers import Chunk
from .embedding import EmbedderSpec, embed_batch, memoised_vectors

# New rows scored per product, so that no float64 copy of a build's vectors
# is ever held at once.
_BLOCK_ROWS = 256
# Covers the rounding of the norms and of the bound itself, about
# (d + 5) * 2**-53 relative, for any dimension d below 2**30.
_SLACK = 1.0 + 2.0**-20


class _Query:
    """One column of a ScoreTable, and what resolving a score exactly needs:
    the query's nonzero coordinates, its norm and the exact scores resolved
    so far, by row."""

    __slots__ = ("column", "support", "values", "norm", "exact")

    def __init__(self, column: int, vector: np.ndarray) -> None:
        self.column = column
        self.support = np.flatnonzero(vector)
        self.values = vector[self.support].astype(np.float64)
        self.norm = math.sqrt(float(self.values @ self.values))
        self.exact: dict[int, float] = {}


class ScoreTable:
    """The float64 score of each distinct chunk text against each query text.

    The distinct query texts are embedded once, when the table is made, and
    ``queries`` maps each to its column. Row r belongs to ``texts[r]``; texts
    that join later are embedded once, in one ``embed_batch`` call, and
    scored against every column. The table keeps the query vectors, not the
    rows' vectors: ``exact`` reads those back from the embedding memo. The
    score array grows its rows by half as it fills, so growing copies it only
    a logarithmic number of times and leaves at most a third of it unused.
    """

    def __init__(self, spec: EmbedderSpec, queries: Sequence[str]) -> None:
        self.spec = spec
        self.texts: list[str] = []
        self._row: dict[str, int] = {}
        self.queries, self._matrix = _embed_queries(spec, queries)
        self._scores = np.empty((0, len(self.queries)))
        self._max_norm = 0.0

    def __len__(self) -> int:
        return len(self.texts)

    def rows(self, texts: Sequence[str]) -> np.ndarray:
        """Each text's row, adding and scoring the texts the table has not seen."""
        row = self._row
        new = list(dict.fromkeys(text for text in texts if text not in row))
        if new:
            vectors = embed_batch(self.spec, new)
            start, end = len(self.texts), len(self.texts) + len(new)
            if end > len(self._scores):
                scores = np.empty((max(end, len(self._scores) * 3 // 2), len(self.queries)))
                scores[:start] = self._scores[:start]
                self._scores = scores
            for offset in range(0, len(new), _BLOCK_ROWS):
                block = vectors[offset : offset + _BLOCK_ROWS].astype(np.float64)
                norm = math.sqrt(float(np.einsum("ij,ij->i", block, block).max()))
                self._max_norm = max(self._max_norm, norm)
                at = start + offset
                self._scores[at : at + len(block)] = block @ self._matrix.T
            self.texts.extend(new)
            row.update(zip(new, range(start, end)))
        return np.fromiter((row[text] for text in texts), dtype=np.intp, count=len(texts))

    def error_bound(self, query: _Query) -> float:
        """A bound on |score - exact dot product| for every score of the column.

        The products of float32 coordinates are exact in float64, so only the
        d - 1 additions round, in whatever order the kernel takes them. The
        error is then at most ``d·2⁻⁵³/(1−d·2⁻⁵³)·|c||q|`` (Higham, Accuracy
        and Stability of Numerical Algorithms, section 3.1), with |c| the
        largest row norm of the table; ``_SLACK`` covers the rounding of the
        bound.
        """
        unit = self.spec.dimension * 2.0**-53
        return unit / (1.0 - unit) * self._max_norm * query.norm * _SLACK

    def exact(self, query: _Query, rows: Sequence[int]) -> list[float]:
        """The correctly rounded exact score of each row against the query:
        the ``math.fsum`` of its products on the query's nonzero coordinates,
        memoised per (row, query)."""
        known = query.exact
        missing = [r for r in dict.fromkeys(rows) if r not in known]
        if missing:
            vectors = memoised_vectors(self.spec, [self.texts[r] for r in missing])
            for r, part in zip(missing, vectors[:, query.support]):
                known[r] = math.fsum((part * query.values).tolist())
        return [known[r] for r in rows]


def _embed_queries(
    spec: EmbedderSpec, texts: Sequence[str]
) -> tuple[dict[str, _Query], np.ndarray]:
    """Each distinct query text's column, and the float64 matrix of their
    vectors, a row per column, from one embed_batch call."""
    # Its own function, named for queries: perfbench tells a query embed from a
    # sentence embed by the calling function's name when no span encloses it.
    distinct = list(dict.fromkeys(texts))
    vectors = embed_batch(spec, distinct)
    columns = {text: _Query(j, vector) for j, (text, vector) in enumerate(zip(distinct, vectors))}
    return columns, vectors.astype(np.float64)


class ChunkIndex:
    """One chunking's rows of a ScoreTable: the chunks, fixed once built, and
    each chunk's row, the row of its text, added to the table if it is new.

    The index holds no vectors. It does change in one way: it remembers each
    query's ranking, so asking again for a query's top k ranks nothing.
    """

    def __init__(self, chunks: Sequence[Chunk], table: ScoreTable) -> None:
        chunks = tuple(chunks)
        if not chunks:
            raise ValueError("cannot build an index over zero chunks")
        seen: set[str] = set()
        for chunk in chunks:
            if chunk.chunk_id in seen:
                raise ValueError(f"duplicate chunk_id {chunk.chunk_id!r}")
            seen.add(chunk.chunk_id)
        self.chunks = chunks
        self.rows = table.rows([chunk.text for chunk in chunks])
        self.table = table
        # Each chunk_id's position in ascending id order: the ranking tie-break.
        by_id = sorted(range(len(chunks)), key=lambda i: chunks[i].chunk_id)
        self._id_rank = np.empty(len(chunks), dtype=np.int64)
        self._id_rank[by_id] = np.arange(len(chunks))
        # Query text -> its top-k chunks and their scores, for the largest k
        # asked: a tuple and a float64 array take a third of the memory of
        # (chunk, score) pairs, and bench keeps several indexes at once.
        self._ranked: dict[str, tuple[tuple[Chunk, ...], np.ndarray]] = {}

    def __len__(self) -> int:
        return len(self.chunks)


def build_index(chunks: Sequence[Chunk], table: ScoreTable) -> ChunkIndex:
    """Map each chunk's assembled text to its row of table; the texts the
    table has not seen are embedded here, by the table's spec."""
    return ChunkIndex(chunks, table)


def retrieve(index: ChunkIndex, query_text: str, k: int) -> list[tuple[Chunk, float]]:
    """Top-k chunks by exact dot product, descending; ties broken by ascending chunk_id.

    Exact scan over the whole index for one of the table's queries; any
    other text raises ValueError. Result lists are prefix-consistent across k.
    Returns a fresh list of (chunk, score) pairs, each chunk the index's own.
    A score is the table's float64 one, within the table's error bound of the
    exact dot product, or the correctly rounded exact one where that decided
    the order. The index ranks a query once, and again only for a larger k
    than it has ranked.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ranked = index._ranked.get(query_text)
    if ranked is None or len(ranked[0]) < min(k, len(index.chunks)):
        query = index.table.queries.get(query_text)
        if query is None:
            raise ValueError(f"query {query_text!r} is not one of the score table's queries")
        ranked = index._ranked[query_text] = _rank(index, query, k)
    chunks, scores = ranked
    return list(zip(chunks[:k], scores[:k].tolist()))


def _rank(index: ChunkIndex, query: _Query, k: int) -> tuple[tuple[Chunk, ...], np.ndarray]:
    """The top k chunks, best first, and their scores: sort by float64 score,
    then resolve exactly each run of places whose adjacent scores lie within
    twice the error bound and reach the top k.

    Only the scores within twice that of the k-th can reach the top k, so
    only they are sorted: a score further below is more than two bounds
    under it, even after rounding the threshold."""
    scores = index.table._scores[:, query.column][index.rows]
    n, top = len(scores), min(k, len(scores))
    window = 2.0 * index.table.error_bound(query)
    if top < n:
        kth = np.partition(scores, n - top)[n - top]
        candidates = (scores >= kth - 2.0 * window).nonzero()[0]
    else:
        candidates = np.arange(n)
    # (-score, chunk_id rank, position in the index), best first.
    ranked = sorted(
        zip(
            (-scores[candidates]).tolist(),
            index._id_rank[candidates].tolist(),
            candidates.tolist(),
        )
    )
    start = 0
    while start < top:
        stop = start + 1
        while stop < len(ranked) and ranked[stop][0] - ranked[stop - 1][0] <= window:
            stop += 1
        if stop - start > 1:
            run = ranked[start:stop]
            rows = index.rows[[position for _, _, position in run]].tolist()
            if rows.count(rows[0]) < len(rows):  # one text: equal scores, in chunk_id order
                exact = index.table.exact(query, rows)
                ranked[start:stop] = sorted(
                    (-score, by_id, position) for score, (_, by_id, position) in zip(exact, run)
                )
        start = stop
    top_ranked = ranked[:top]
    return (
        tuple(index.chunks[position] for _, _, position in top_ranked),
        -np.array([negated for negated, _, _ in top_ranked]),
    )
