"""Corpus loading, long-document synthesis by stitching, and query ground truth."""

from __future__ import annotations

import logging
from dataclasses import dataclass
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


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str
    meta: dict | None = None


@dataclass(frozen=True)
class QueryRecord:
    """A benchmark query with document-level and sentence-level ground truth."""

    query_id: str
    text: str
    relevant_doc_ids: frozenset[str] = frozenset()
    evidence: tuple[tuple[str, int], ...] = ()
    reference_answer: str | None = None


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


def _require_str(obj: dict, key: str, where: str) -> str:
    value = obj.get(key)
    if not isinstance(value, str) or not value:
        raise CorpusError(f"{where}: field {key!r} must be a non-empty string")
    return value


def load_corpus(path: str | Path) -> tuple[list[Document], list[QueryRecord]]:
    """Read docs.jsonl and queries.jsonl from a corpus directory.

    Validates uniqueness of ids and that every doc_id a query references
    exists. A missing or empty queries file yields an empty query list.
    """
    directory = Path(path)
    docs_path = directory / DOCS_FILENAME
    if not docs_path.exists():
        raise CorpusError(f"no {DOCS_FILENAME} in {directory}")

    documents: list[Document] = []
    seen_docs: set[str] = set()
    for where, obj in read_jsonl(docs_path, CorpusError):
        doc_id = _require_str(obj, "doc_id", where)
        text = _require_str(obj, "text", where)
        if not text.strip():
            raise CorpusError(f"{where}: field 'text' is whitespace only")
        if doc_id in seen_docs:
            raise CorpusError(f"{where}: duplicate doc_id {doc_id!r}")
        seen_docs.add(doc_id)
        meta = obj.get("meta")
        if meta is not None and not isinstance(meta, dict):
            raise CorpusError(f"{where}: field 'meta' must be an object")
        documents.append(Document(doc_id=doc_id, text=text, meta=meta))

    queries: list[QueryRecord] = []
    queries_path = directory / QUERIES_FILENAME
    if queries_path.exists():
        seen_queries: set[str] = set()
        for where, obj in read_jsonl(queries_path, CorpusError):
            query_id = _require_str(obj, "query_id", where)
            text = _require_str(obj, "text", where)
            if query_id in seen_queries:
                raise CorpusError(f"{where}: duplicate query_id {query_id!r}")
            seen_queries.add(query_id)

            raw_relevant = obj.get("relevant_doc_ids", [])
            if not isinstance(raw_relevant, list):
                raise CorpusError(f"{where}: 'relevant_doc_ids' must be a list")
            for ref in raw_relevant:
                if ref not in seen_docs:
                    raise CorpusError(
                        f"query {query_id!r} references unknown document {ref!r}"
                    )

            evidence: list[tuple[str, int]] = []
            raw_evidence = obj.get("evidence", [])
            if not isinstance(raw_evidence, list):
                raise CorpusError(f"{where}: 'evidence' must be a list")
            for item in raw_evidence:
                if (
                    not isinstance(item, dict)
                    or not isinstance(item.get("doc_id"), str)
                    or not isinstance(item.get("sentence_index"), int)
                    or isinstance(item.get("sentence_index"), bool)
                ):
                    raise CorpusError(
                        f"{where}: evidence entries need a doc_id and an integer sentence_index"
                    )
                if item["doc_id"] not in seen_docs:
                    raise CorpusError(
                        f"query {query_id!r} has evidence for unknown document {item['doc_id']!r}"
                    )
                if item["sentence_index"] < 0:
                    raise CorpusError(f"{where}: sentence_index must be >= 0")
                evidence.append((item["doc_id"], item["sentence_index"]))

            answer = obj.get("reference_answer")
            if answer is not None and not isinstance(answer, str):
                raise CorpusError(f"{where}: 'reference_answer' must be a string")
            queries.append(
                QueryRecord(
                    query_id=query_id,
                    text=text,
                    relevant_doc_ids=frozenset(raw_relevant),
                    evidence=tuple(evidence),
                    reference_answer=answer,
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
        remapped.append(
            QueryRecord(
                query_id=query.query_id,
                text=query.text,
                relevant_doc_ids=relevant,
                evidence=tuple(evidence),
                reference_answer=query.reference_answer,
            )
        )
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
