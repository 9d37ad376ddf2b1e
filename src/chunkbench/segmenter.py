"""Rule-based sentence segmentation with an abbreviation list shipped as data."""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable

# A terminator, the closing quotes or brackets allowed to trail it, then the
# inter-sentence gap as group 1. No closer is a terminator, so resuming the
# search after a rejected gap skips no candidate boundary.
_BOUNDARY = re.compile(r"[.!?][\"')\]}’”]*(\s+)")
# Characters stripped from the front of the token checked against the
# abbreviation list, so "(e.g." still matches "e.g.".
_OPENERS = "\"'([{‘“"
_HARD_BREAK = re.compile(r"\n{2,}")


class SegmentationError(ValueError):
    """Raised when text cannot be segmented into sentences."""


@dataclass(frozen=True)
class Sentence:
    """One sentence of a document: position, text, and source span.

    char_span holds Python string offsets (start, end) such that the
    sentence text equals document_text[start:end] exactly.
    """

    index: int
    text: str
    char_span: tuple[int, int]


@dataclass(frozen=True)
class SegmentedDocument:
    """A document split into at least one sentence, indexed from zero."""

    doc_id: str
    sentences: tuple[Sentence, ...]

    @property
    def n(self) -> int:
        return len(self.sentences)

    @property
    def sentence_texts(self) -> list[str]:
        return [s.text for s in self.sentences]


def _abbreviation_set(lines: Iterable[str]) -> frozenset[str]:
    """The lower-cased, stripped, non-blank entries of lines."""
    return frozenset(line.strip().lower() for line in lines if line.strip())


def load_default_abbreviations() -> frozenset[str]:
    """Read the bundled abbreviation list (one token per line)."""
    data = resources.files("chunkbench").joinpath("data/abbreviations.txt").read_text("utf-8")
    return _abbreviation_set(data.splitlines())


def load_abbreviations(path: str | Path) -> frozenset[str]:
    """Read an abbreviation list from a plain text file, one token per line."""
    return _abbreviation_set(Path(path).read_text("utf-8").splitlines())


class RuleSegmenter:
    """Deterministic rule-based sentence splitter.

    A sentence ends at '.', '!' or '?' (optionally followed by closing
    quotes or brackets) when whitespace and then an uppercase letter or a
    digit follow. Periods that close a known abbreviation never end a
    sentence; two or more consecutive newlines always do. Text with no
    terminator at all is a single sentence.

    Any object with a compatible ``segment(text) -> list[Sentence]``
    method (a model-based splitter, say) can stand in for this class.
    """

    def __init__(self, abbreviations: Iterable[str] | None = None) -> None:
        if abbreviations is None:
            abbreviations = load_default_abbreviations()
        self._abbreviations = _abbreviation_set(abbreviations)

    def segment(self, text: str) -> list[Sentence]:
        """Split text into sentences; raises SegmentationError on empty input."""
        if not text or not text.strip():
            raise SegmentationError("cannot segment empty or whitespace-only text")
        spans: list[tuple[int, int]] = []
        block_start = 0
        for match in _HARD_BREAK.finditer(text):
            spans.extend(self._split_block(text, block_start, match.start()))
            block_start = match.end()
        spans.extend(self._split_block(text, block_start, len(text)))
        return [
            Sentence(index=i, text=text[a:b], char_span=(a, b))
            for i, (a, b) in enumerate(spans)
        ]

    def _split_block(self, text: str, start: int, end: int) -> list[tuple[int, int]]:
        block = text[start:end]
        sent_start = end - len(block.lstrip())
        end = start + len(block.rstrip())
        if sent_start >= end:
            return []
        spans: list[tuple[int, int]] = []
        for match in _BOUNDARY.finditer(text, sent_start, end):
            gap, nxt = match.span(1)
            # The block ends in non-whitespace, so a gap never reaches its end.
            follower = text[nxt]
            mark = match.start()
            if (follower.isupper() or follower.isdigit()) and not (
                text[mark] == "." and self._is_abbreviation(text, mark)
            ):
                spans.append((sent_start, gap))
                sent_start = nxt
        spans.append((sent_start, end))
        return spans

    def _is_abbreviation(self, text: str, dot: int) -> bool:
        tok_start = dot
        while tok_start > 0 and not text[tok_start - 1].isspace():
            tok_start -= 1
        token = text[tok_start : dot + 1].lstrip(_OPENERS)
        return token.lower() in self._abbreviations


@functools.cache
def _default_segmenter() -> RuleSegmenter:
    return RuleSegmenter()


def segment(text: str) -> list[Sentence]:
    """Split text with the default rule segmenter."""
    return _default_segmenter().segment(text)


def segment_document(
    doc_id: str, text: str, segmenter: RuleSegmenter | None = None
) -> SegmentedDocument:
    """Segment one document's text into a SegmentedDocument."""
    seg = segmenter if segmenter is not None else _default_segmenter()
    return SegmentedDocument(doc_id=doc_id, sentences=tuple(seg.segment(text)))
