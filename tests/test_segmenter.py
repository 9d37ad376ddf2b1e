import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chunkbench.corpus import load_corpus
from chunkbench.segmenter import (
    RuleSegmenter,
    SegmentationError,
    load_abbreviations,
    load_default_abbreviations,
    segment,
    segment_document,
)

from conftest import MINI_DATASET
from reference import rule_spans_reference


class TestBasicSplitting:
    def test_two_plain_sentences(self):
        got = segment("It works. It is fast.")
        assert [s.text for s in got] == ["It works.", "It is fast."]

    def test_abbreviation_suppresses_split(self):
        got = segment("See Fig. 3 for details.")
        assert [s.text for s in got] == ["See Fig. 3 for details."]

    def test_no_terminator_is_one_sentence(self):
        got = segment("no terminator here")
        assert [s.text for s in got] == ["no terminator here"]

    def test_question_and_exclamation(self):
        got = segment("Is it done? It is! Good.")
        assert [s.text for s in got] == ["Is it done?", "It is!", "Good."]

    def test_digit_can_start_a_sentence(self):
        got = segment("The hike was long. 7 people finished it.")
        assert [s.text for s in got] == ["The hike was long.", "7 people finished it."]

    def test_lowercase_continuation_does_not_split(self):
        got = segment("They left early. then they returned.")
        assert len(got) == 1

    def test_closing_quote_rides_with_sentence(self):
        got = segment('He said "stop." Then he left.')
        assert [s.text for s in got] == ['He said "stop."', "Then he left."]

    def test_closing_bracket_rides_with_sentence(self):
        got = segment("It failed (badly.) Retry tomorrow.")
        assert [s.text for s in got] == ["It failed (badly.)", "Retry tomorrow."]

    def test_hard_break_splits_without_terminator(self):
        got = segment("first line of a note\n\nSecond paragraph here")
        assert [s.text for s in got] == ["first line of a note", "Second paragraph here"]

    def test_hard_break_beats_lowercase_rule(self):
        got = segment("one fragment\n\n\nanother fragment")
        assert [s.text for s in got] == ["one fragment", "another fragment"]

    def test_whitespace_only_block_between_hard_breaks_is_skipped(self):
        got = segment("First block.\n\n \t \n\nSecond block.")
        assert [s.char_span for s in got] == [(0, 12), (19, 32)]

    def test_trailing_spaces_before_a_hard_break_are_trimmed(self):
        got = segment("It ends here.   \n\nNext one")
        assert [s.text for s in got] == ["It ends here.", "Next one"]
        assert got[0].char_span == (0, 13)

    def test_single_newline_does_not_split(self):
        got = segment("one line\nstill the same sentence")
        assert len(got) == 1

    def test_empty_text_raises(self):
        with pytest.raises(SegmentationError):
            segment("")

    def test_whitespace_only_raises(self):
        with pytest.raises(SegmentationError):
            segment(" \n\t ")


class TestAbbreviations:
    def test_default_list_has_common_entries(self):
        abbrev = load_default_abbreviations()
        for token in ("dr.", "e.g.", "fig.", "no."):
            assert token in abbrev

    def test_title_before_name(self):
        got = segment("Dr. Smith arrived at noon. Mr. Jones was late.")
        assert [s.text for s in got] == ["Dr. Smith arrived at noon.", "Mr. Jones was late."]

    def test_abbreviation_match_ignores_leading_paren(self):
        got = segment("Results were strong (e.g. Run 4). More runs are planned.")
        assert [s.text for s in got] == [
            "Results were strong (e.g. Run 4).",
            "More runs are planned.",
        ]

    def test_custom_abbreviations_override_default(self, tmp_path):
        path = tmp_path / "abbrev.txt"
        path.write_text("zzz.\n", encoding="utf-8")
        custom = RuleSegmenter(load_abbreviations(path))
        got = custom.segment("It uses zzz. Formats vary. See Fig. 3.")
        # "fig." is no longer protected but "zzz." is.
        assert [s.text for s in got] == ["It uses zzz. Formats vary.", "See Fig.", "3."]

    def test_empty_abbreviation_set(self):
        bare = RuleSegmenter(abbreviations=())
        got = bare.segment("See Fig. 3 for details.")
        assert [s.text for s in got] == ["See Fig.", "3 for details."]


class TestSpans:
    def test_spans_slice_back_to_text(self):
        text = 'One came first. "Two" followed! Then 3 more?  The end.'
        for sentence in segment(text):
            a, b = sentence.char_span
            assert text[a:b] == sentence.text

    def test_spans_cover_all_non_whitespace(self):
        text = "Alpha is first.  Beta follows.\n\n  Gamma ends it"
        sentences = segment(text)
        covered = set()
        for sentence in sentences:
            a, b = sentence.char_span
            span = set(range(a, b))
            assert not covered & span
            covered |= span
        non_ws = {i for i, ch in enumerate(text) if not ch.isspace()}
        assert non_ws <= covered

    def test_indices_are_sequential(self):
        got = segment("A one. B two. C three.")
        assert [s.index for s in got] == [0, 1, 2]

    def test_idempotent_on_single_sentences(self):
        text = "Quartz sand melts into glass at high heat."
        for sentence in segment(text):
            again = segment(sentence.text)
            assert len(again) == 1
            assert again[0].text == sentence.text


class TestRandomizedRoundTrip:
    def test_known_sentence_banks_survive_joining(self):
        rng = np.random.default_rng(7)
        bank = [
            "The river bends south past the mill.",
            "Granite holds heat long after sunset!",
            "Can a kite fly in light rain?",
            "Nine crows watched from the wire.",
            "Every rope on deck has one job.",
            "Maps of the old quarry are rare.",
        ]
        for _ in range(50):
            count = int(rng.integers(1, 6))
            picks = [bank[int(i)] for i in rng.integers(0, len(bank), size=count)]
            sep = "  " if rng.integers(0, 2) else " "
            text = sep.join(picks)
            got = segment(text)
            assert [s.text for s in got] == picks

    def test_hard_break_blocks_compose(self):
        rng = np.random.default_rng(11)
        blocks = ["alpha block one", "beta block two", "gamma block three"]
        for _ in range(20):
            count = int(rng.integers(1, 4))
            picks = [blocks[int(i)] for i in rng.integers(0, len(blocks), size=count)]
            text = "\n\n".join(picks)
            got = segment(text)
            assert [s.text for s in got] == picks


DEFAULT = RuleSegmenter()
BARE = RuleSegmenter(abbreviations=())
# Pieces a boundary turns on: terminators, closers, openers, whitespace
# ("\x1c" is whitespace to str.isspace), upper case and digits beyond
# ASCII, abbreviations and hard breaks.
PIECES = [
    ".", "!", "?", '"', "'", ")", "]", "}", "’", "”", "(", "[", "{", "‘", "“",
    " ", "  ", "\t", "\n", "\n\n", "\x1c", "a", "word", "A", "Word", "É", "é",
    "7", "٣", "e.g.", "Dr.", "U.S.", "fig.",
]


class TestReferenceScanner:
    @settings(max_examples=500, derandomize=True, deadline=None, database=None)
    @given(
        text=st.lists(st.sampled_from(PIECES), max_size=40).map("".join),
        segmenter=st.sampled_from([DEFAULT, BARE]),
    )
    @example(text='Dr. Who? "Yes."\x1c É  (e.g. 3). ٣ ends.\n\n \n\nWord', segmenter=DEFAULT)
    def test_spans_match_the_reference_scanner(self, text, segmenter):
        if not text.strip():
            with pytest.raises(SegmentationError):
                segmenter.segment(text)
            return
        got = [s.char_span for s in segmenter.segment(text)]
        assert got == rule_spans_reference(text, segmenter._is_abbreviation)

    def test_spans_match_the_reference_scanner_on_the_mini_corpus(self):
        documents, _ = load_corpus(MINI_DATASET)
        for document in documents:
            got = [s.char_span for s in segment(document.text)]
            assert got == rule_spans_reference(document.text, DEFAULT._is_abbreviation)


class TestSegmentDocument:
    def test_wraps_sentences(self):
        doc = segment_document("d1", "First point. Second point.")
        assert doc.doc_id == "d1"
        assert doc.n == 2
        assert doc.sentence_texts == ["First point.", "Second point."]

    def test_custom_segmenter_is_used(self):
        bare = RuleSegmenter(abbreviations=())
        doc = segment_document("d2", "See Fig. 3.", segmenter=bare)
        assert doc.n == 2
