"""Exact brute-force retrieval over chunk embeddings, scored through one table.

A ``ScoreTable`` is made over a fixed list of query texts, one column each.
It gives each distinct chunk text a row and holds the float64 dot product of
their float32 embeddings, so a run embeds each text once and scores each
(text, query) pair once however many chunkings share them. A ``ChunkIndex``
is one chunking's rows of a table. ``retrieve`` ranks an index's chunks for
one of the table's queries by the correctly rounded exact dot product, ties
broken by ascending ``chunk_id``. The first ``retrieve`` on an index ranks
every query of the table in one numpy pass, by the closeness rule that
``_rank_columns`` states: a score close to a neighbour's takes its exact
value, each row's by one ``math.fsum``, and a second sort orders every
column exactly.
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

    The index holds no vectors. It does change in one way: it remembers its
    exact ranking of every query of the table, so asking again for a query's
    top k ranks nothing.
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
        # The positions in ascending chunk_id order; a position's place in it
        # is the ranking tie-break.
        self._by_id = np.array(
            sorted(range(len(chunks)), key=lambda i: chunks[i].chunk_id), dtype=np.intp
        )
        # Per column, a row each, the positions _rank_columns put at the top
        # places and their scores.
        self._places = np.empty((0, 0), dtype=np.int32)
        self._scores = np.empty((0, 0))

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
    exact dot product, or the correctly rounded exact one where a neighbour's
    float64 score lies within twice the bound (see ``_rank_columns``). The
    first call ranks every query of the table at once, and a later one ranks
    them again only for a larger k than that.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    query = index.table.queries.get(query_text)
    if query is None:
        raise ValueError(f"query {query_text!r} is not one of the score table's queries")
    if index._places.shape[1] < min(k, len(index.chunks)):
        _rank_columns(index, k)
    places = index._places[query.column, :k].tolist()
    scores = index._scores[query.column, :k].tolist()
    return list(zip(map(index.chunks.__getitem__, places), scores))


def _rank_columns(index: ChunkIndex, k: int) -> None:
    """Rank the index's chunks exactly for every column of its table in one
    pass: the top min(k, n) places and their scores.

    The candidates are the scores within 4b of the k-th, b the column's
    error bound: one further below, even after rounding the threshold, is
    exactly more than 2b under the top k. Sorted by float64 score and then
    chunk_id, a candidate whose neighbour just before or just after lies
    within 2b takes its exact score, from one ``ScoreTable.exact`` call per
    column, and a second sort by score and chunk_id orders every column
    exactly. Each score lies within b of its exact score, so a candidate
    more than 2b from both neighbours keeps its place against every other.
    """
    table, by_id = index.table, index._by_id
    n, top = len(by_id), min(k, len(by_id))
    rows = index.rows[by_id]
    # A row per column of negated scores, in chunk_id order, so that a stable
    # sort puts the best first and breaks ties by id.
    negated = np.negative(table._scores[rows].T, order="C")
    windows = np.array([2.0 * table.error_bound(query) for query in table.queries.values()])
    kth = np.partition(negated, top - 1, axis=1)[:, top - 1]
    # Every column's candidates, at least top of them, end to end by score, then id rank.
    found = np.flatnonzero(negated <= (kth + 2.0 * windows)[:, None])
    found = found[np.lexsort((negated.ravel()[found], found // n))]
    column, id_rank = np.divmod(found, n)
    ranked = negated.ravel()[found]
    # The candidates whose float64 neighbour before or after, in their column, lies within 2b.
    near = (column[1:] == column[:-1]) & (ranked[1:] - ranked[:-1] <= windows[column[:-1]])
    close = np.flatnonzero(np.append(near, False) | np.insert(near, 0, False))
    first = np.searchsorted(column, np.arange(len(negated)))
    for query, at in zip(table.queries.values(), np.split(close, close.searchsorted(first[1:]))):
        if len(at):
            ranked[at] = np.negative(table.exact(query, rows[id_rank[at]].tolist()))
    places = np.lexsort((id_rank, ranked, column))[first[:, None] + np.arange(top)]
    index._places = by_id[id_rank[places]].astype(np.int32)
    index._scores = -ranked[places]
