import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chunkbench.chunkers import (
    BreakpointConfig,
    DbscanConfig,
    FixedSizeConfig,
    SingleLinkageConfig,
    canonical_config,
)
from chunkbench.distance import ThresholdPolicy
from chunkbench.evaluation import (
    MetricRow,
    aggregate,
    doc_metrics,
    evidence_metrics,
    f1_score,
    paired_permutation_test,
    select_best_config,
)

from reference import doc_metrics_reference, evidence_metrics_reference


class FakeChunk:
    def __init__(self, doc_id, sentence_indices):
        self.doc_id = doc_id
        self.sentence_indices = tuple(sentence_indices)


class TestF1Score:
    def test_zero_when_both_zero(self):
        assert f1_score(0.0, 0.0) == 0.0

    def test_perfect(self):
        assert f1_score(1.0, 1.0) == 1.0

    def test_harmonic_mean(self):
        assert f1_score(0.5, 1.0) == pytest.approx(2 / 3)

    def test_random_formula(self, rng):
        for _ in range(200):
            p, r = rng.uniform(0, 1, size=2)
            if p + r == 0:
                continue
            assert f1_score(p, r) == pytest.approx(2 * p * r / (p + r), abs=1e-12)


class TestDocMetrics:
    def test_perfect_retrieval(self):
        chunks = [FakeChunk("A", [0]), FakeChunk("A", [1])]
        assert doc_metrics(chunks, {"A"}) == (1.0, 1.0, 1.0)

    def test_one_relevant_among_five_docs(self):
        chunks = [FakeChunk(d, [0]) for d in "ABCDE"]
        recall, precision, f1 = doc_metrics(chunks, {"A"})
        assert recall == 1.0
        assert precision == pytest.approx(0.2)
        assert f1 == pytest.approx(1 / 3)

    def test_distinct_documents_counted_once(self):
        chunks = [FakeChunk("A", [0]), FakeChunk("A", [5]), FakeChunk("B", [0])]
        recall, precision, f1 = doc_metrics(chunks, {"A", "B"})
        assert (recall, precision, f1) == (1.0, 1.0, 1.0)

    def test_miss_everything(self):
        chunks = [FakeChunk("C", [0])]
        assert doc_metrics(chunks, {"A"}) == (0.0, 0.0, 0.0)

    def test_no_chunks_scores_zero(self):
        assert doc_metrics([], {"A"}) == (0.0, 0.0, 0.0)

    def test_empty_relevant_rejected(self):
        with pytest.raises(ValueError):
            doc_metrics([FakeChunk("A", [0])], set())

    def test_random_set_arithmetic(self, rng):
        docs = [f"d{i}" for i in range(8)]
        for _ in range(200):
            retrieved = [
                FakeChunk(docs[int(i)], [0])
                for i in rng.integers(0, len(docs), size=int(rng.integers(0, 6)))
            ]
            relevant = {docs[int(i)] for i in rng.integers(0, len(docs), size=3)}
            recall, precision, f1 = doc_metrics(retrieved, relevant)
            got_docs = {c.doc_id for c in retrieved}
            hits = len(got_docs & relevant)
            assert recall == (hits / len(relevant))
            assert precision == (hits / len(got_docs) if got_docs else 0.0)
            expected_f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
            assert f1 == pytest.approx(expected_f1, abs=1e-12)


class TestEvidenceMetrics:
    def test_chunk_covering_all_evidence(self):
        chunks = [FakeChunk("d", [1, 2, 3])]
        recall, precision, f1 = evidence_metrics(chunks, {("d", 1), ("d", 2)})
        assert recall == 1.0
        assert precision == pytest.approx(2 / 3)
        assert f1 == pytest.approx(0.8)

    def test_evidence_split_across_documents(self):
        chunks = [FakeChunk("a", [0]), FakeChunk("b", [4])]
        recall, precision, f1 = evidence_metrics(chunks, {("a", 0), ("b", 4), ("b", 5)})
        assert recall == pytest.approx(2 / 3)
        assert precision == 1.0

    def test_no_overlap(self):
        chunks = [FakeChunk("a", [9])]
        assert evidence_metrics(chunks, {("a", 0)}) == (0.0, 0.0, 0.0)

    def test_no_chunks_scores_zero(self):
        assert evidence_metrics([], {("a", 0)}) == (0.0, 0.0, 0.0)

    def test_empty_evidence_rejected(self):
        with pytest.raises(ValueError):
            evidence_metrics([FakeChunk("a", [0])], set())

    def test_duplicate_coverage_counted_once(self):
        chunks = [FakeChunk("a", [0, 1]), FakeChunk("a", [1, 2])]
        recall, precision, f1 = evidence_metrics(chunks, {("a", 1)})
        assert recall == 1.0
        assert precision == pytest.approx(1 / 3)

    def test_random_set_arithmetic(self, rng):
        for _ in range(200):
            chunks = [
                FakeChunk(f"d{int(rng.integers(0, 3))}", rng.integers(0, 10, size=3))
                for _ in range(int(rng.integers(0, 5)))
            ]
            evidence = {
                (f"d{int(rng.integers(0, 3))}", int(i)) for i in rng.integers(0, 10, size=4)
            }
            recall, precision, f1 = evidence_metrics(chunks, evidence)
            covered = {(c.doc_id, i) for c in chunks for i in c.sentence_indices}
            hits = len(covered & evidence)
            assert recall == hits / len(evidence)
            assert precision == (hits / len(covered) if covered else 0.0)


# Chunks overlap and repeat indices over documents a-c; evidence may name
# document d or indices past 12, which no chunk covers. Its document letters
# are the ground truth for doc_metrics on the same chunks.
@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(
    chunks=st.lists(
        st.builds(FakeChunk, st.sampled_from("abc"), st.lists(st.integers(0, 12), max_size=6)),
        max_size=10,
    ),
    evidence=st.sets(st.tuples(st.sampled_from("abcd"), st.integers(0, 15)), min_size=1, max_size=8),
)
@example(chunks=[], evidence={("a", 0)})
@example(chunks=[FakeChunk("a", [0, 1, 1]), FakeChunk("a", [1, 2])], evidence={("a", 1), ("b", 1)})
@example(chunks=[FakeChunk("a", [])], evidence={("a", 0)})
def test_evidence_metrics_match_the_set_of_pairs(chunks, evidence):
    assert evidence_metrics(chunks, evidence) == evidence_metrics_reference(chunks, evidence)
    relevant = {doc_id for doc_id, _ in evidence}
    assert doc_metrics(chunks, relevant) == doc_metrics_reference(chunks, relevant)


def index_as(kinds, low):
    """A sentence index in [low, 200], as a Python int or one of the numpy kinds."""
    return st.builds(lambda i, kind: kind(i), st.integers(low, 200), st.sampled_from(kinds))


# As above, with indices far past bit 63 of a chunk's bitmask, numpy integers
# in both chunks and evidence, and negative evidence indices, which no chunk
# covers.
@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(
    chunks=st.lists(
        st.builds(
            FakeChunk,
            st.sampled_from("abc"),
            st.lists(index_as((int, np.int64, np.int32, np.uint16), 0), max_size=8),
        ),
        max_size=10,
    ),
    evidence=st.sets(
        st.tuples(st.sampled_from("abcd"), index_as((int, np.int64, np.int32), -3)),
        min_size=1,
        max_size=8,
    ),
)
@example(
    chunks=[FakeChunk("a", [np.int64(64), np.int64(199), 63]), FakeChunk("a", [0, np.int32(64)])],
    evidence={("a", np.int64(64)), ("a", 199), ("a", 63), ("a", -1), ("a", np.int64(-64))},
)
@example(
    chunks=[FakeChunk("a", [200, 0]), FakeChunk("b", [np.uint16(128), 127]), FakeChunk("c", [])],
    evidence={("a", np.int64(200)), ("b", np.int32(128)), ("b", 0), ("c", 0), ("d", 127)},
)
@example(chunks=[FakeChunk("a", []), FakeChunk("b", [])], evidence={("a", 0), ("b", -1)})
def test_evidence_metrics_match_the_set_of_pairs_past_bit_63(chunks, evidence):
    assert evidence_metrics(chunks, evidence) == evidence_metrics_reference(chunks, evidence)


class TestAggregate:
    config = FixedSizeConfig(n_chunks=3)

    def rows(self, k_values, scores):
        return aggregate(self.config, canonical_config(self.config), k_values, scores)

    def test_means_and_counts(self):
        rows = self.rows(
            [1, 3],
            [
                [(1.0, 0.5, 2 / 3), (1.0, 1.0, 1.0)],  # q1 at k=1, k=3
                [(0.0, 0.0, 0.0), (1.0, 0.5, 2 / 3)],  # q2
            ],
        )
        assert len(rows) == 2
        k1, k3 = rows
        assert (k1.k, k1.n_queries) == (1, 2)
        assert k1.recall == pytest.approx(0.5)
        assert k1.precision == pytest.approx(0.25)
        assert k1.f1 == pytest.approx(1 / 3)
        assert k3.f1 == pytest.approx((1.0 + 2 / 3) / 2)

    def test_one_row_per_k(self):
        rows = self.rows([1, 5, 10], [[(1.0, 1.0, 1.0)] * 3] * 4)
        assert [row.k for row in rows] == [1, 5, 10]
        for row in rows:
            assert row.config is self.config
            assert row.config_id == canonical_config(self.config)
            assert row.n_queries == 4

    def test_means_taken_in_given_order(self, rng):
        # Float addition is not associative: these three sum to 0.0 in one
        # order and to 1.0 in the other.
        assert self.rows([1], [[(1e16, 0, 0)], [(1.0, 0, 0)], [(-1e16, 0, 0)]])[0].recall == 0.0
        assert self.rows([1], [[(1e16, 0, 0)], [(-1e16, 0, 0)], [(1.0, 0, 0)]])[0].recall == 1 / 3
        scores = [[tuple(float(v) for v in rng.uniform(size=3))] for _ in range(7)]
        (row,) = self.rows([1], scores)
        for i, name in enumerate(("recall", "precision", "f1")):
            assert getattr(row, name) == sum(query[0][i] for query in scores) / len(scores)

    def test_no_scores_give_no_rows(self):
        assert self.rows([1, 3], []) == []

    def test_scores_must_cover_every_k(self):
        with pytest.raises(ValueError):
            self.rows([1, 3], [[(1.0, 1.0, 1.0)]])
        with pytest.raises(ValueError):
            self.rows([1], [[(1.0, 1.0, 1.0)], [(1.0, 1.0, 1.0), (0.0, 0.0, 0.0)]])


class TestSelectBestConfig:
    def row(self, config, k, f1):
        return MetricRow(
            config=config,
            config_id=canonical_config(config),
            k=k,
            recall=f1,
            precision=f1,
            f1=f1,
            n_queries=4,
        )

    def test_picks_highest_mean_f1_per_family(self):
        small = FixedSizeConfig(n_chunks=2)
        large = FixedSizeConfig(n_chunks=8)
        bp = BreakpointConfig(policy=ThresholdPolicy("percentile", 90.0))
        sl = SingleLinkageConfig(n_clusters=3, positional_weight=0.5)
        db = DbscanConfig(eps=0.3, min_samples=2, positional_weight=0.5)
        rows = [
            self.row(small, 1, 0.2), self.row(small, 5, 0.4),
            self.row(large, 1, 0.5), self.row(large, 5, 0.5),
            self.row(bp, 1, 0.9), self.row(bp, 5, 0.1),
            self.row(sl, 1, 0.6), self.row(sl, 5, 0.6),
            self.row(db, 1, 0.65), self.row(db, 5, 0.65),
        ]
        best = select_best_config(rows, [1, 5])
        assert best["fixed_size"] == large
        assert best["breakpoint"] == bp
        # both clustering kinds compete in one family; dbscan's 0.65 beats 0.6
        assert best["clustering"] == db
        assert set(best) == {"fixed_size", "breakpoint", "clustering"}

    def test_tie_goes_to_canonically_smallest(self):
        a = FixedSizeConfig(n_chunks=2)
        b = FixedSizeConfig(n_chunks=10)
        rows = [self.row(a, 1, 0.5), self.row(b, 1, 0.5)]
        best = select_best_config(rows, [1])
        assert best["fixed_size"] == min(
            (a, b), key=lambda c: canonical_config(c)
        )

    def test_returns_the_rows_own_config(self):
        config = SingleLinkageConfig(n_clusters=3, positional_weight=0.5)
        best = select_best_config([self.row(config, 1, 0.5)], [1])
        assert best["clustering"] is config

    def test_missing_k_coverage_is_an_error(self):
        config = FixedSizeConfig(n_chunks=2)
        rows = [self.row(config, 1, 0.5)]
        with pytest.raises(ValueError, match="missing rows for k"):
            select_best_config(rows, [1, 5])
        # the offending config is named
        with pytest.raises(ValueError, match="fixed_size"):
            select_best_config(rows, [1, 5])

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            select_best_config([], [1])

    def test_empty_k_values_rejected(self):
        config = FixedSizeConfig(n_chunks=2)
        with pytest.raises(ValueError):
            select_best_config([self.row(config, 1, 0.5)], [])


def oracle_permutation_p(diffs):
    diffs = np.asarray(diffs, dtype=np.float64)
    observed = abs(diffs.mean())
    hits = 0
    total = 0
    for signs in itertools.product((1.0, -1.0), repeat=diffs.size):
        stat = abs((np.array(signs) * diffs).mean())
        if stat >= observed:
            hits += 1
        total += 1
    return hits / total


class TestPairedPermutationTest:
    def test_identical_inputs_give_one(self):
        a = [0.3, 0.5, 0.7, 0.2]
        assert paired_permutation_test(a, a) == 1.0

    def test_matches_exhaustive_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 11))
            a = rng.uniform(0, 1, size=n)
            b = rng.uniform(0, 1, size=n)
            got = paired_permutation_test(a, b, iterations=10000)
            expected = oracle_permutation_p(a - b)
            np.testing.assert_allclose(got, expected, atol=1e-12, rtol=0.0)

    def test_symmetry_in_argument_order(self, rng):
        a = rng.uniform(0, 1, size=8)
        b = rng.uniform(0, 1, size=8)
        assert paired_permutation_test(a, b) == paired_permutation_test(b, a)

    def test_strong_consistent_difference_gives_small_p(self):
        a = [0.9] * 10
        b = [0.1] * 10
        p = paired_permutation_test(a, b)
        assert p == pytest.approx(2 / 1024, abs=1e-12)

    def test_monte_carlo_branch_seeded(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0, 1, size=40)
        b = rng.uniform(0, 1, size=40)
        p1 = paired_permutation_test(a, b, iterations=2000, seed=3)
        p2 = paired_permutation_test(a, b, iterations=2000, seed=3)
        assert p1 == p2
        assert 0.0 < p1 <= 1.0

    def test_monte_carlo_never_returns_zero(self):
        a = [1.0] * 40
        b = [0.0] * 40
        p = paired_permutation_test(a, b, iterations=999)
        assert p == pytest.approx(1 / 1000, abs=1e-15)

    def test_monte_carlo_close_to_exhaustive(self):
        rng = np.random.default_rng(12)
        a = rng.uniform(0, 1, size=12)
        b = a + rng.normal(0, 0.3, size=12)
        exact = paired_permutation_test(a, b, iterations=4096)
        mc = paired_permutation_test(a, b, iterations=4095, seed=9)
        assert abs(exact - mc) < 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            paired_permutation_test([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            paired_permutation_test([], [])
        with pytest.raises(ValueError):
            paired_permutation_test([1.0], [1.0], iterations=0)
