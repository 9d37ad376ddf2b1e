"""Corpus loading, long-document synthesis by stitching, and query ground truth."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .files import read_jsonl, write_jsonl
from .segmenter import RuleSegmenter, segment_document

logger = logging.getLogger(__name__)

DOCS_FILENAME = "docs.jsonl"
QUERIES_FILENAME = "queries.jsonl"
STITCH_MAP_FILENAME = "stitch_map.jsonl"


class CorpusError(ValueError):
    """Malformed corpus data or broken referential integrity."""


def _non_blank(**values: str) -> None:
    """Raise ValueError naming the first field that is empty or whitespace only."""
    for name, value in values.items():
        if not value.strip():
            raise ValueError(f"field {name!r} is empty or whitespace only")


@dataclass(frozen=True)
class Document:
    """One corpus document; extra per-document fields belong in meta."""

    doc_id: str
    text: str
    meta: dict | None = None

    def __post_init__(self) -> None:
        _non_blank(doc_id=self.doc_id, text=self.text)


@dataclass(frozen=True)
class QueryRecord:
    """A benchmark query with document-level and sentence-level ground truth."""

    query_id: str
    text: str
    relevant_doc_ids: frozenset[str] = frozenset()
    evidence: tuple[tuple[str, int], ...] = ()
    reference_answer: str | None = None


@dataclass(frozen=True)
class _Evidence:
    doc_id: str
    sentence_index: int

    def __post_init__(self) -> None:
        if self.sentence_index < 0:
            raise ValueError(f"sentence_index must be >= 0, got {self.sentence_index}")


@dataclass(frozen=True)
class _QueryLine:
    """One queries.jsonl line as written."""

    query_id: str
    text: str
    relevant_doc_ids: list[str] = field(default_factory=list)
    evidence: list[_Evidence] = field(default_factory=list)
    reference_answer: str | None = None

    def __post_init__(self) -> None:
        _non_blank(query_id=self.query_id, text=self.text)


@dataclass(frozen=True)
class StitchedDocument:
    """One synthesized long document plus where each source document landed.

    sentence_offsets[i] is the index of source_doc_ids[i]'s first sentence
    within the stitched document.
    """

    doc_id: str
    text: str
    source_doc_ids: tuple[str, ...]
    sentence_offsets: tuple[int, ...]

    def as_document(self) -> Document:
        return Document(doc_id=self.doc_id, text=self.text)


def load_corpus(path: str | Path) -> tuple[list[Document], list[QueryRecord]]:
    """Read docs.jsonl and queries.jsonl from a corpus directory.

    Each line is checked by files.read_jsonl; this checks that ids are unique
    and that every doc_id a query references exists. A missing or empty
    queries file yields an empty query list.
    """
    directory = Path(path)
    docs_path = directory / DOCS_FILENAME
    if not docs_path.exists():
        raise CorpusError(f"no {DOCS_FILENAME} in {directory}")

    documents: list[Document] = []
    seen_docs: set[str] = set()
    for where, doc in read_jsonl(docs_path, Document, CorpusError):
        if doc.doc_id in seen_docs:
            raise CorpusError(f"{where}: duplicate doc_id {doc.doc_id!r}")
        seen_docs.add(doc.doc_id)
        documents.append(doc)

    queries: list[QueryRecord] = []
    queries_path = directory / QUERIES_FILENAME
    if queries_path.exists():
        seen_queries: set[str] = set()
        for where, line in read_jsonl(queries_path, _QueryLine, CorpusError):
            if line.query_id in seen_queries:
                raise CorpusError(f"{where}: duplicate query_id {line.query_id!r}")
            seen_queries.add(line.query_id)
            evidence = tuple((item.doc_id, item.sentence_index) for item in line.evidence)
            for ref in [*line.relevant_doc_ids, *(doc_id for doc_id, _ in evidence)]:
                if ref not in seen_docs:
                    raise CorpusError(
                        f"{where}: query {line.query_id!r} references unknown document {ref!r}"
                    )
            queries.append(
                QueryRecord(
                    query_id=line.query_id,
                    text=line.text,
                    relevant_doc_ids=frozenset(line.relevant_doc_ids),
                    evidence=evidence,
                    reference_answer=line.reference_answer,
                )
            )
    return documents, queries


def stitch(
    documents: Sequence[Document],
    queries: Sequence[QueryRecord],
    target_sentences: int,
    seed: int,
    segmenter: RuleSegmenter | None = None,
) -> tuple[list[StitchedDocument], list[QueryRecord]]:
    """Shuffle documents and concatenate them into longer synthetic documents.

    Documents are appended to the current group until its sentence count
    reaches target_sentences, then a new group starts; the final group may
    fall short. Source texts are joined with a blank line so sentence
    counts are conserved, and query ground truth is remapped: a stitched
    document is relevant iff it contains a relevant source, and evidence
    sentence indices are shifted by their source document's offset.

    Pure function of (documents, queries, target_sentences, seed).
    """
    if target_sentences < 1:
        raise ValueError(f"target_sentences must be >= 1, got {target_sentences}")
    if not documents:
        raise ValueError("cannot stitch an empty document list")

    counts = {
        doc.doc_id: segment_document(doc.doc_id, doc.text, segmenter).n for doc in documents
    }
    rng = np.random.default_rng(seed)
    order = [documents[int(i)] for i in rng.permutation(len(documents))]

    groups: list[list[Document]] = []
    current: list[Document] = []
    current_count = 0
    for doc in order:
        current.append(doc)
        current_count += counts[doc.doc_id]
        if current_count >= target_sentences:
            groups.append(current)
            current = []
            current_count = 0
    if current:
        groups.append(current)

    stitched: list[StitchedDocument] = []
    placement: dict[str, tuple[str, int]] = {}
    for group_index, group in enumerate(groups):
        stitched_id = f"stitched-{group_index:04d}"
        offsets: list[int] = []
        acc = 0
        for doc in group:
            offsets.append(acc)
            placement[doc.doc_id] = (stitched_id, acc)
            acc += counts[doc.doc_id]
        stitched.append(
            StitchedDocument(
                doc_id=stitched_id,
                text="\n\n".join(doc.text for doc in group),
                source_doc_ids=tuple(doc.doc_id for doc in group),
                sentence_offsets=tuple(offsets),
            )
        )

    remapped: list[QueryRecord] = []
    for query in queries:
        for ref in query.relevant_doc_ids:
            if ref not in placement:
                raise CorpusError(
                    f"query {query.query_id!r} references document {ref!r} not in the stitch input"
                )
        relevant = frozenset(placement[ref][0] for ref in query.relevant_doc_ids)
        evidence: list[tuple[str, int]] = []
        for doc_id, index in query.evidence:
            if doc_id not in placement:
                raise CorpusError(
                    f"query {query.query_id!r} has evidence for document {doc_id!r} "
                    "not in the stitch input"
                )
            if not 0 <= index < counts[doc_id]:
                raise CorpusError(
                    f"query {query.query_id!r}: evidence index {index} is out of range "
                    f"for document {doc_id!r} ({counts[doc_id]} sentences)"
                )
            stitched_id, offset = placement[doc_id]
            evidence.append((stitched_id, offset + index))
        remapped.append(replace(query, relevant_doc_ids=relevant, evidence=tuple(evidence)))
    return stitched, remapped


def sample_queries(
    queries: Sequence[QueryRecord], count: int, seed: int
) -> list[QueryRecord]:
    """Uniform sample without replacement of min(count, len(queries)) queries.

    Deterministic in the seed; the sampled queries keep their input order.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if count >= len(queries):
        return list(queries)
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(queries), size=count, replace=False)
    return [queries[i] for i in sorted(int(i) for i in picks)]


def document_to_json(doc: Document) -> dict:
    record: dict = {"doc_id": doc.doc_id, "text": doc.text}
    if doc.meta is not None:
        record["meta"] = doc.meta
    return record


def query_to_json(query: QueryRecord) -> dict:
    record: dict = {
        "query_id": query.query_id,
        "text": query.text,
        "relevant_doc_ids": sorted(query.relevant_doc_ids),
    }
    if query.evidence:
        record["evidence"] = [
            {"doc_id": d, "sentence_index": i} for d, i in query.evidence
        ]
    if query.reference_answer is not None:
        record["reference_answer"] = query.reference_answer
    return record


def write_corpus(
    documents: Sequence[Document], queries: Sequence[QueryRecord], out_dir: str | Path
) -> None:
    """Write docs.jsonl and queries.jsonl into a directory."""
    directory = Path(out_dir)
    write_jsonl(directory / DOCS_FILENAME, map(document_to_json, documents))
    write_jsonl(directory / QUERIES_FILENAME, map(query_to_json, queries))


def write_stitch_map(stitched: Sequence[StitchedDocument], path: str | Path) -> None:
    """Write one stitch_map.jsonl row per stitched document: its fields but the text."""
    write_jsonl(path, ({k: v for k, v in vars(doc).items() if k != "text"} for doc in stitched))
