"""Deterministic workload corpora built from ``data/mini``.

``scaled_corpus`` makes ``copies`` sentence-shuffled copies of every
document. Each sentence of copy *c* starts with a marker word of its own,
so no sentence text repeats across copies, and each query of copy *c*
carries the same marker. Ground truth is remapped onto the copies.
``stitched_corpus`` stitches a scaled corpus with ``chunkbench.corpus.stitch``.
The stitch order uses a fixed seed, so every seed groups the same source
documents and the work per run does not swing with the seed; the seed
still changes every sentence order and marker word.

Both are pure functions of their arguments. ``build_corpora``
writes both, checks them against the source, and returns their digests.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from chunkbench.corpus import Document, QueryRecord, load_corpus, stitch, write_corpus
from chunkbench.segmenter import segment_document


class GeneratorError(RuntimeError):
    """A generated corpus failed its self-check."""


def _marker(rng: np.random.Generator, copy: int) -> str:
    # Capitalised so the marked sentence still starts a new sentence.
    letters = "".join(chr(ord("a") + int(i)) for i in rng.integers(0, 26, size=4))
    return f"Mk{copy:02d}{letters}"


def scaled_corpus(
    documents: list[Document], queries: list[QueryRecord], copies: int, seed: int
) -> tuple[list[Document], list[QueryRecord], dict[str, list[str]]]:
    """Sentence-shuffled, marker-tagged copies of a corpus, ground truth remapped.

    Also returns, for each new document, the source documents it was made from.
    """
    rng = np.random.default_rng(seed)
    sentences = {d.doc_id: segment_document(d.doc_id, d.text).sentence_texts for d in documents}
    out_docs: list[Document] = []
    out_queries: list[QueryRecord] = []
    for copy in range(copies):
        marker = _marker(rng, copy)
        new_index: dict[str, list[int]] = {}
        for doc in documents:
            texts = sentences[doc.doc_id]
            order = [int(i) for i in rng.permutation(len(texts))]
            position = [0] * len(texts)
            for new, old in enumerate(order):
                position[old] = new
            new_index[doc.doc_id] = position
            text = " ".join(f"{marker} {texts[old]}" for old in order)
            out_docs.append(Document(doc_id=f"{doc.doc_id}-c{copy:02d}", text=text))
        for query in queries:
            out_queries.append(
                QueryRecord(
                    query_id=f"{query.query_id}-c{copy:02d}",
                    text=f"{marker} {query.text}",
                    relevant_doc_ids=frozenset(f"{d}-c{copy:02d}" for d in query.relevant_doc_ids),
                    evidence=tuple(
                        (f"{d}-c{copy:02d}", new_index[d][i]) for d, i in query.evidence
                    ),
                    reference_answer=query.reference_answer,
                )
            )
    sources = {d.doc_id: [d.doc_id.rsplit("-c", 1)[0]] for d in out_docs}
    return out_docs, out_queries, sources


STITCH_SEED = 0


def stitched_corpus(
    documents: list[Document],
    queries: list[QueryRecord],
    sources: dict[str, list[str]],
    target: int,
) -> tuple[list[Document], list[QueryRecord], dict[str, list[str]]]:
    """``chunkbench.corpus.stitch`` applied to a generated corpus."""
    stitched, remapped = stitch(documents, queries, target, STITCH_SEED)
    stitched_sources = {
        d.doc_id: [s for part in d.source_doc_ids for s in sources[part]] for d in stitched
    }
    return [d.as_document() for d in stitched], remapped, stitched_sources


def _strip_marker(text: str) -> str:
    head, _, rest = text.partition(" ")
    return rest if head.startswith("Mk") else text


def check_corpus(
    directory: Path,
    sources: dict[str, list[str]],
    source_docs: list[Document],
    source_queries: list[QueryRecord],
) -> None:
    """Reload a written corpus and check it against the corpus it came from.

    Every generated document must segment to the summed sentence count of
    its source documents, and every evidence index must point at the source
    sentence's text once the marker word is removed.
    """
    documents, queries = load_corpus(directory)
    source_sentences = {
        d.doc_id: segment_document(d.doc_id, d.text).sentence_texts for d in source_docs
    }
    plain: dict[str, list[str]] = {}
    for doc in documents:
        texts = segment_document(doc.doc_id, doc.text).sentence_texts
        expected = sum(len(source_sentences[s]) for s in sources[doc.doc_id])
        if len(texts) != expected:
            raise GeneratorError(
                f"{directory}: {doc.doc_id} segments to {len(texts)} sentences, "
                f"its sources have {expected}"
            )
        plain[doc.doc_id] = [_strip_marker(t) for t in texts]
    by_id = {q.query_id: q for q in source_queries}
    for query in queries:
        source = by_id[query.query_id.rsplit("-c", 1)[0]]
        if len(query.evidence) != len(source.evidence):
            raise GeneratorError(f"{directory}: query {query.query_id} lost evidence")
        for (doc_id, index), (src_doc, src_index) in zip(query.evidence, source.evidence):
            if plain[doc_id][index] != source_sentences[src_doc][src_index]:
                raise GeneratorError(
                    f"{directory}: evidence ({doc_id}, {index}) of {query.query_id} "
                    "does not point at its source sentence"
                )


def corpus_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for name in ("docs.jsonl", "queries.jsonl"):
        h.update((directory / name).read_bytes())
    return h.hexdigest()


def build_corpora(mini: Path, work: Path, copies: int, target: int, seed: int) -> dict[str, str]:
    """Write and check the scaled and stitched corpora under ``work``; return their digests."""
    source = load_corpus(mini)
    digests = {}
    docs, queries, sources = scaled_corpus(*source, copies, seed)
    for name in ("scaled", "stitched"):
        if name == "stitched":
            docs, queries, sources = stitched_corpus(docs, queries, sources, target)
        write_corpus(docs, queries, work / name)
        check_corpus(work / name, sources, *source)
        digests[name] = corpus_digest(work / name)
    return digests
