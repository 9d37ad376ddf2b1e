import json

import pytest

from chunkbench.corpus import (
    CorpusError,
    Document,
    QueryRecord,
    load_corpus,
    sample_queries,
    stitch,
    write_corpus,
    write_stitch_map,
)
from chunkbench.segmenter import segment_document

from conftest import MINI_DATASET


def write_lines(path, rows):
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def corpus_dir(tmp_path, docs, queries=None):
    write_lines(tmp_path / "docs.jsonl", docs)
    if queries is not None:
        write_lines(tmp_path / "queries.jsonl", queries)
    return tmp_path


class TestLoadCorpus:
    def test_round_trips_documents_and_queries(self, tmp_path):
        docs = [
            {"doc_id": "d1", "text": "First doc. It has two sentences."},
            {"doc_id": "d2", "text": "Second doc text.", "meta": {"topic": "misc"}},
        ]
        queries = [
            {
                "query_id": "q1",
                "text": "what is in the first doc?",
                "relevant_doc_ids": ["d1"],
                "evidence": [{"doc_id": "d1", "sentence_index": 1}],
                "reference_answer": "two sentences",
            }
        ]
        documents, records = load_corpus(corpus_dir(tmp_path, docs, queries))
        assert [d.doc_id for d in documents] == ["d1", "d2"]
        assert documents[1].meta == {"topic": "misc"}
        assert records[0].relevant_doc_ids == frozenset({"d1"})
        assert records[0].evidence == (("d1", 1),)
        assert records[0].reference_answer == "two sentences"

    def test_missing_queries_file_is_fine(self, tmp_path):
        documents, records = load_corpus(
            corpus_dir(tmp_path, [{"doc_id": "d1", "text": "Just a doc."}])
        )
        assert len(documents) == 1
        assert records == []

    def test_missing_docs_file_raises(self, tmp_path):
        with pytest.raises(CorpusError):
            load_corpus(tmp_path)

    def test_malformed_json_names_the_line(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"doc_id": "d1", "text": "ok"}\n{broken\n', encoding="utf-8")
        with pytest.raises(CorpusError, match=r"docs\.jsonl:2"):
            load_corpus(tmp_path)

    def test_duplicate_doc_id_rejected(self, tmp_path):
        docs = [{"doc_id": "d1", "text": "a"}, {"doc_id": "d1", "text": "b"}]
        with pytest.raises(CorpusError, match="duplicate doc_id"):
            load_corpus(corpus_dir(tmp_path, docs))

    def test_duplicate_query_id_rejected(self, tmp_path):
        docs = [{"doc_id": "d1", "text": "a"}]
        queries = [
            {"query_id": "q1", "text": "x", "relevant_doc_ids": ["d1"]},
            {"query_id": "q1", "text": "y", "relevant_doc_ids": ["d1"]},
        ]
        with pytest.raises(CorpusError, match="duplicate query_id"):
            load_corpus(corpus_dir(tmp_path, docs, queries))

    def test_dangling_relevant_doc_rejected(self, tmp_path):
        docs = [{"doc_id": "d1", "text": "a"}]
        queries = [{"query_id": "q1", "text": "x", "relevant_doc_ids": ["ghost"]}]
        with pytest.raises(CorpusError, match="references unknown document 'ghost'"):
            load_corpus(corpus_dir(tmp_path, docs, queries))

    def test_dangling_evidence_doc_rejected(self, tmp_path):
        docs = [{"doc_id": "d1", "text": "a"}]
        queries = [
            {
                "query_id": "q1",
                "text": "x",
                "evidence": [{"doc_id": "ghost", "sentence_index": 0}],
            }
        ]
        with pytest.raises(CorpusError, match="unknown document 'ghost'"):
            load_corpus(corpus_dir(tmp_path, docs, queries))

    def test_bad_evidence_shape_rejected(self, tmp_path):
        docs = [{"doc_id": "d1", "text": "a"}]
        queries = [
            {"query_id": "q1", "text": "x", "evidence": [{"doc_id": "d1"}]},
        ]
        with pytest.raises(CorpusError, match="sentence_index"):
            load_corpus(corpus_dir(tmp_path, docs, queries))

    def test_negative_evidence_index_rejected(self, tmp_path):
        docs = [{"doc_id": "d1", "text": "a"}]
        queries = [
            {
                "query_id": "q1",
                "text": "x",
                "evidence": [{"doc_id": "d1", "sentence_index": -1}],
            }
        ]
        with pytest.raises(CorpusError, match=">= 0"):
            load_corpus(corpus_dir(tmp_path, docs, queries))

    def test_empty_doc_text_rejected(self, tmp_path):
        with pytest.raises(CorpusError, match="'text'"):
            load_corpus(corpus_dir(tmp_path, [{"doc_id": "d1", "text": ""}]))

    def test_whitespace_only_doc_text_names_the_line(self, tmp_path):
        docs = [{"doc_id": "d1", "text": "Fine."}, {"doc_id": "d2", "text": " \n\t "}]
        with pytest.raises(CorpusError, match=r"docs\.jsonl:2: .*'text'"):
            load_corpus(corpus_dir(tmp_path, docs))

    @pytest.mark.parametrize(
        "fields, message",
        [
            (
                {"relevant_doc_ids": [["d1"]]},
                r"relevant_doc_ids\[0\] must be a string, got \['d1'\]",
            ),
            ({"relevant_doc_ids": [{"a": 1}]}, r"relevant_doc_ids\[0\] must be a string"),
            ({"evidense": [{"doc_id": "d1", "sentence_index": 0}]}, "unknown key 'evidense'"),
            ({"relevant_doc_ids": ["ghost"]}, "query 'q1' references unknown document 'ghost'"),
            (
                {"evidence": [{"doc_id": "ghost", "sentence_index": 0}]},
                "query 'q1' references unknown document 'ghost'",
            ),
            ({"evidence": [["d1", 0]]}, r"evidence\[0\] must be an object"),
            (
                {"evidence": [{"doc_id": "d1", "sentence_index": True}]},
                r"evidence\[0\]\.sentence_index must be an integer, got True",
            ),
            ({"reference_answer": 5}, "reference_answer must be a string or null, got 5"),
            ({"query_id": ""}, "field 'query_id' is empty"),
            ({"text": ""}, "field 'text' is empty"),
        ],
        ids=[
            "nested-list-id", "object-id", "misspelt-key", "unknown-relevant-doc",
            "unknown-evidence-doc", "evidence-as-pair", "bool-sentence-index",
            "non-string-answer", "empty-query-id", "empty-text",
        ],
    )
    def test_bad_query_line_names_file_line_and_field(self, tmp_path, fields, message):
        docs = [{"doc_id": "d1", "text": "a"}]
        queries = [{"query_id": "q0", "text": "fine"}, {"query_id": "q1", "text": "x", **fields}]
        with pytest.raises(CorpusError, match=rf"^queries\.jsonl:2: {message}"):
            load_corpus(corpus_dir(tmp_path, docs, queries))

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"title": "t"}, "unknown key 'title'"),
            ({"doc_id": 5}, "doc_id must be a string, got 5"),
            ({"doc_id": ""}, "field 'doc_id' is empty"),
            ({"meta": []}, r"meta must be an object or null, got \[\]"),
        ],
        ids=["extra-field", "non-string-id", "empty-id", "meta-not-an-object"],
    )
    def test_bad_doc_line_names_file_line_and_field(self, tmp_path, fields, message):
        docs = [{"doc_id": "d0", "text": "Fine."}, {"doc_id": "d1", "text": "a", **fields}]
        with pytest.raises(CorpusError, match=rf"^docs\.jsonl:2: {message}"):
            load_corpus(corpus_dir(tmp_path, docs))

    def test_mini_dataset_loads(self):
        documents, records = load_corpus(MINI_DATASET)
        assert len(documents) == 12
        assert len(records) == 10
        names = {d.doc_id for d in documents}
        for record in records:
            assert record.relevant_doc_ids <= names


class TestWriteCorpus:
    def test_round_trip_preserves_everything(self, tmp_path):
        documents = [
            Document(doc_id="d1", text="Alpha. Beta."),
            Document(doc_id="d2", text="Gamma only.", meta={"lang": "en"}),
        ]
        queries = [
            QueryRecord(
                query_id="q1",
                text="where is beta?",
                relevant_doc_ids=frozenset({"d1"}),
                evidence=(("d1", 1),),
                reference_answer="in d1",
            ),
            QueryRecord(query_id="q2", text="anything"),
        ]
        write_corpus(documents, queries, tmp_path)
        docs_back, queries_back = load_corpus(tmp_path)
        assert docs_back == documents
        assert queries_back == queries

    def test_deterministic_bytes(self, tmp_path):
        documents = [Document(doc_id="d1", text="Alpha.")]
        queries = [
            QueryRecord(
                query_id="q1",
                text="x",
                relevant_doc_ids=frozenset({"d1"}),
            )
        ]
        write_corpus(documents, queries, tmp_path / "a")
        write_corpus(documents, queries, tmp_path / "b")
        assert (tmp_path / "a/docs.jsonl").read_bytes() == (
            tmp_path / "b/docs.jsonl"
        ).read_bytes()
        assert (tmp_path / "a/queries.jsonl").read_bytes() == (
            tmp_path / "b/queries.jsonl"
        ).read_bytes()


def two_sentence_doc(doc_id, first, second):
    return Document(doc_id=doc_id, text=f"{first} one here. {second} two here.")


class TestStitch:
    def make_inputs(self):
        documents = [
            two_sentence_doc("d1", "Apple", "Apricot"),
            two_sentence_doc("d2", "Basil", "Bay"),
            two_sentence_doc("d3", "Cedar", "Cypress"),
            two_sentence_doc("d4", "Dill", "Daisy"),
        ]
        queries = [
            QueryRecord(
                query_id="q1",
                text="apples?",
                relevant_doc_ids=frozenset({"d1"}),
                evidence=(("d1", 0), ("d1", 1)),
            ),
            QueryRecord(
                query_id="q2",
                text="trees?",
                relevant_doc_ids=frozenset({"d2", "d3"}),
                evidence=(("d3", 1),),
            ),
        ]
        return documents, queries

    def test_sentence_counts_conserved(self):
        documents, queries = self.make_inputs()
        stitched, _ = stitch(documents, queries, target_sentences=4, seed=3)
        total = sum(segment_document(s.doc_id, s.text).n for s in stitched)
        assert total == 8
        for doc in stitched:
            seg = segment_document(doc.doc_id, doc.text)
            assert seg.n == 2 * len(doc.source_doc_ids)

    def test_every_source_used_exactly_once(self):
        documents, queries = self.make_inputs()
        stitched, _ = stitch(documents, queries, target_sentences=4, seed=3)
        used = [src for doc in stitched for src in doc.source_doc_ids]
        assert sorted(used) == ["d1", "d2", "d3", "d4"]

    def test_offsets_match_recomputed_positions(self):
        documents, queries = self.make_inputs()
        stitched, _ = stitch(documents, queries, target_sentences=4, seed=3)
        by_id = {d.doc_id: d for d in documents}
        for doc in stitched:
            acc = 0
            for src, offset in zip(doc.source_doc_ids, doc.sentence_offsets):
                assert offset == acc
                acc += segment_document(src, by_id[src].text).n

    def test_evidence_points_at_same_sentence_text(self):
        documents, queries = self.make_inputs()
        stitched, remapped = stitch(documents, queries, target_sentences=4, seed=3)
        by_id = {d.doc_id: d for d in documents}
        stitched_by_id = {d.doc_id: segment_document(d.doc_id, d.text) for d in stitched}
        original = {
            q.query_id: [
                segment_document(d, by_id[d].text).sentences[i].text
                for d, i in q.evidence
            ]
            for q in queries
        }
        for query in remapped:
            texts = [
                stitched_by_id[doc_id].sentences[index].text
                for doc_id, index in query.evidence
            ]
            assert texts == original[query.query_id]

    def test_relevance_propagates_to_containers(self):
        documents, queries = self.make_inputs()
        stitched, remapped = stitch(documents, queries, target_sentences=4, seed=3)
        home = {
            src: doc.doc_id for doc in stitched for src in doc.source_doc_ids
        }
        by_query = {q.query_id: q for q in remapped}
        assert by_query["q1"].relevant_doc_ids == frozenset({home["d1"]})
        assert by_query["q2"].relevant_doc_ids == frozenset({home["d2"], home["d3"]})

    def test_deterministic_in_seed(self):
        documents, queries = self.make_inputs()
        a = stitch(documents, queries, target_sentences=4, seed=11)
        b = stitch(documents, queries, target_sentences=4, seed=11)
        assert a == b

    def test_seed_changes_grouping(self):
        documents, queries = self.make_inputs()
        orders = {
            tuple(
                src for doc in stitch(documents, queries, 4, seed)[0]
                for src in doc.source_doc_ids
            )
            for seed in range(8)
        }
        assert len(orders) > 1

    def test_last_group_may_fall_short(self):
        documents, queries = self.make_inputs()
        stitched, _ = stitch(documents, queries, target_sentences=6, seed=0)
        # 8 sentences into groups of >= 6: one full group, one remainder.
        assert len(stitched) == 2
        sizes = [segment_document(d.doc_id, d.text).n for d in stitched]
        assert sizes[0] >= 6
        assert sizes[1] < 6

    def test_target_larger_than_corpus_gives_one_document(self):
        documents, queries = self.make_inputs()
        stitched, _ = stitch(documents, queries, target_sentences=100, seed=5)
        assert len(stitched) == 1
        assert len(stitched[0].source_doc_ids) == 4

    def test_dangling_reference_rejected(self):
        documents, _ = self.make_inputs()
        bad = [QueryRecord(query_id="q", text="x", relevant_doc_ids=frozenset({"nope"}))]
        with pytest.raises(CorpusError, match="not in the stitch input"):
            stitch(documents, bad, target_sentences=4, seed=0)

    def test_out_of_range_evidence_rejected(self):
        documents, _ = self.make_inputs()
        bad = [QueryRecord(query_id="q", text="x", evidence=(("d1", 99),))]
        with pytest.raises(CorpusError, match="out of range"):
            stitch(documents, bad, target_sentences=4, seed=0)

    def test_bad_target_rejected(self):
        documents, queries = self.make_inputs()
        with pytest.raises(ValueError):
            stitch(documents, queries, target_sentences=0, seed=0)

    def test_stitch_map_file_shape(self, tmp_path):
        documents, queries = self.make_inputs()
        stitched, _ = stitch(documents, queries, target_sentences=4, seed=3)
        path = tmp_path / "stitch_map.jsonl"
        write_stitch_map(stitched, path)
        rows = [json.loads(line) for line in path.read_text("utf-8").splitlines()]
        assert [r["doc_id"] for r in rows] == [d.doc_id for d in stitched]
        for row, doc in zip(rows, stitched):
            assert row["source_doc_ids"] == list(doc.source_doc_ids)
            assert row["sentence_offsets"] == list(doc.sentence_offsets)


class TestSampleQueries:
    def make_queries(self, count):
        return [QueryRecord(query_id=f"q{i:03d}", text=f"question {i}") for i in range(count)]

    def test_returns_all_when_count_covers(self):
        queries = self.make_queries(5)
        assert sample_queries(queries, 5, seed=1) == queries
        assert sample_queries(queries, 50, seed=1) == queries

    def test_sample_is_subset_in_input_order(self):
        queries = self.make_queries(30)
        picked = sample_queries(queries, 10, seed=9)
        assert len(picked) == 10
        ids = [q.query_id for q in picked]
        assert ids == sorted(ids)
        assert set(picked) <= set(queries)

    def test_no_duplicates(self):
        queries = self.make_queries(20)
        picked = sample_queries(queries, 15, seed=2)
        assert len({q.query_id for q in picked}) == 15

    def test_deterministic_in_seed(self):
        queries = self.make_queries(40)
        assert sample_queries(queries, 12, seed=4) == sample_queries(queries, 12, seed=4)

    def test_different_seeds_differ(self):
        queries = self.make_queries(40)
        picks = {tuple(q.query_id for q in sample_queries(queries, 5, seed)) for seed in range(10)}
        assert len(picks) > 1

    def test_count_validated(self):
        with pytest.raises(ValueError):
            sample_queries(self.make_queries(3), 0, seed=0)
