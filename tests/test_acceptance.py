"""Acceptance gate: ten timed criteria, one pass line each (run with -s to see them)."""

import hashlib
import itertools
import json
import math
import time

import numpy as np
import pytest

from chunkbench.chunkers import (
    BreakpointConfig,
    Chunk,
    FixedSizeConfig,
    SingleLinkageConfig,
    canonical_config,
    chunk_document,
    config_from_dict,
)
from chunkbench.cli import main
from chunkbench.corpus import Document, QueryRecord, load_corpus, stitch
from chunkbench.distance import ThresholdPolicy, threshold
from chunkbench.embedding import EmbedderSpec, embed_batch
from chunkbench.evaluation import doc_metrics, evidence_metrics, paired_permutation_test
from chunkbench.retrieval import ScoreTable, build_index, retrieve
from chunkbench.segmenter import segment

from conftest import MINI_DATASET, REPO_ROOT, make_doc, pick_disjoint_tokens
from reference import (
    JointDistanceParams,
    cosine_clipped_distance,
    joint_distance,
    positional_distance,
)


def report(number, label, started, budget=None):
    elapsed = time.perf_counter() - started
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s, budget {budget}s"
    print(f"criterion {number:2d} PASS ({elapsed:6.2f}s)  {label}")


def unit_rows(rng, n, dim):
    rows = rng.normal(size=(n, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def naive_percentile(values, p):
    """Linear-interpolation percentile, coded independently of numpy."""
    ordered = sorted(float(v) for v in values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


def naive_gradient(values):
    """Central differences inside, one-sided at both ends."""
    out = [0.0] * len(values)
    out[0] = values[1] - values[0]
    out[-1] = values[-1] - values[-2]
    for i in range(1, len(values) - 1):
        out[i] = (values[i + 1] - values[i - 1]) / 2.0
    return out


class TestAcceptance:
    def test_criterion_01_joint_distance_unit_suite(self, rng):
        started = time.perf_counter()
        dim = 16
        # antipodal vectors clip to similarity 0, distance 1
        u = np.zeros(dim)
        u[0] = 1.0
        assert cosine_clipped_distance(u, -u) == 1.0
        for _ in range(1000):
            n = int(rng.integers(2, 80))
            a, b = (int(x) for x in rng.integers(0, n, size=2))
            vecs = unit_rows(rng, 2, dim)
            lam = float(rng.uniform())
            params = JointDistanceParams(positional_weight=lam, sentence_count=n)
            d = joint_distance(a, b, vecs[0], vecs[1], params)
            d_pos = positional_distance(a, b, n)
            d_cos = cosine_clipped_distance(vecs[0], vecs[1])
            expected = min(1.0, max(0.0, lam * d_pos + (1.0 - lam) * d_cos))
            np.testing.assert_allclose(d, expected, atol=1e-12, rtol=0.0)
            assert 0.0 <= d <= 1.0
            # endpoint weights collapse to the pure terms, bit for bit
            zero = JointDistanceParams(positional_weight=0.0, sentence_count=n)
            one = JointDistanceParams(positional_weight=1.0, sentence_count=n)
            assert joint_distance(a, b, vecs[0], vecs[1], zero) == d_cos
            assert joint_distance(a, b, vecs[0], vecs[1], one) == d_pos
        report(1, "joint distance unit suite (1000 random pairs)", started, budget=1.0)

    def test_criterion_02_full_positional_weight_mirrors_fixed_size(self, rng):
        started = time.perf_counter()
        for _ in range(200):
            n = int(rng.integers(1, 61))
            c = int(rng.integers(1, 11))
            doc = make_doc("mirror", [f"Sentence number {i} here." for i in range(n)])
            emb = unit_rows(rng, n, 12)
            config = SingleLinkageConfig(n_clusters=c, positional_weight=1.0)
            linked = chunk_document(doc, emb, config)
            fixed = chunk_document(doc, None, FixedSizeConfig(n_chunks=c, overlap=0))
            assert [ch.sentence_indices for ch in linked] == [
                ch.sentence_indices for ch in fixed
            ]
        report(2, "positional-only single linkage mirrors fixed size (200 cases)", started, budget=5.0)

    def test_criterion_03_threshold_policies_match_naive_oracle(self, rng):
        started = time.perf_counter()
        assert threshold(
            np.array([0.1, 0.2, 0.3, 0.4, 0.5]), ThresholdPolicy("percentile", 50.0)
        ) == pytest.approx(0.3, abs=1e-12)
        assert threshold(
            np.array([0.1, 0.2, 0.3, 0.4, 0.5]), ThresholdPolicy("percentile", 90.0)
        ) == pytest.approx(0.46, abs=1e-12)
        for _ in range(500):
            size = int(rng.integers(2, 50))
            values = rng.uniform(0.0, 1.0, size=size)
            plain = [float(v) for v in values]
            grad = naive_gradient(plain)
            mean = sum(plain) / size
            pop_std = math.sqrt(sum((v - mean) ** 2 for v in plain) / size)

            p = float(rng.choice([10.0, 25.0, 50.0, 75.0, 90.0]))
            amount = float(rng.uniform(0.25, 3.0))
            cases = [
                (ThresholdPolicy("percentile", p), naive_percentile(plain, p)),
                (ThresholdPolicy("std_dev", amount), mean + amount * pop_std),
                (
                    ThresholdPolicy("interquartile", amount),
                    mean
                    + amount * (naive_percentile(plain, 75.0) - naive_percentile(plain, 25.0)),
                ),
                (
                    ThresholdPolicy("gradient_percentile", p),
                    naive_percentile(grad, p),
                ),
                (ThresholdPolicy("absolute_distance", amount), amount),
                (ThresholdPolicy("absolute_gradient", amount), amount),
            ]
            for policy, expected in cases:
                got = threshold(values, policy)
                np.testing.assert_allclose(got, expected, atol=1e-9, rtol=0.0)
        report(3, "threshold policies vs naive oracle (500 arrays)", started, budget=2.0)

    def test_criterion_04_breakpoint_count_monotone_in_absolute_threshold(self, rng):
        started = time.perf_counter()
        for _ in range(100):
            n = int(rng.integers(2, 40))
            doc = make_doc("mono", [f"Sentence {i} of the document." for i in range(n)])
            emb = unit_rows(rng, n, 10)
            configs = [
                BreakpointConfig(ThresholdPolicy("absolute_distance", cut))
                for cut in (0.1, 0.2, 0.3, 0.4, 0.5)
            ]
            counts = [len(chunk_document(doc, emb, config)) for config in configs]
            assert all(a >= b for a, b in zip(counts, counts[1:])), counts
        report(4, "breakpoint count non-increasing in absolute threshold", started, budget=2.0)

    def test_criterion_05_metrics_match_set_arithmetic_oracles(self, rng):
        started = time.perf_counter()
        perfect = [
            Chunk(chunk_id=f"A-{i:04d}", doc_id="A", sentence_indices=(i,), text="t")
            for i in range(5)
        ]
        assert doc_metrics(perfect, {"A"}) == (1.0, 1.0, 1.0)
        spread = [
            Chunk(chunk_id=f"{d}-0000", doc_id=d, sentence_indices=(0,), text="t")
            for d in "ABCDE"
        ]
        recall, precision, f1 = doc_metrics(spread, {"A"})
        assert recall == 1.0
        assert precision == pytest.approx(0.2, abs=1e-12)
        assert f1 == pytest.approx(1.0 / 3.0, abs=1e-12)

        doc_pool = [f"d{i}" for i in range(7)]
        for _ in range(500):
            retrieved = [
                Chunk(
                    chunk_id=f"c-{j:04d}",
                    doc_id=doc_pool[int(rng.integers(0, len(doc_pool)))],
                    sentence_indices=(0,),
                    text="t",
                )
                for j in range(int(rng.integers(0, 7)))
            ]
            relevant = {doc_pool[int(i)] for i in rng.integers(0, len(doc_pool), size=3)}
            got = doc_metrics(retrieved, relevant)
            seen = {c.doc_id for c in retrieved}
            hits = len(seen & relevant)
            exp_r = hits / len(relevant)
            exp_p = hits / len(seen) if seen else 0.0
            exp_f = 0.0 if exp_p + exp_r == 0 else 2 * exp_p * exp_r / (exp_p + exp_r)
            assert got == (exp_r, exp_p, exp_f)

        for _ in range(500):
            retrieved = [
                Chunk(
                    chunk_id=f"c-{j:04d}",
                    doc_id=f"d{int(rng.integers(0, 3))}",
                    sentence_indices=tuple(int(i) for i in rng.integers(0, 12, size=3)),
                    text="t",
                )
                for j in range(int(rng.integers(0, 5)))
            ]
            evidence = {
                (f"d{int(rng.integers(0, 3))}", int(i))
                for i in rng.integers(0, 12, size=int(rng.integers(1, 5)))
            }
            got = evidence_metrics(retrieved, evidence)
            covered = {(c.doc_id, i) for c in retrieved for i in c.sentence_indices}
            hits = len(covered & evidence)
            exp_r = hits / len(evidence)
            exp_p = hits / len(covered) if covered else 0.0
            exp_f = 0.0 if exp_p + exp_r == 0 else 2 * exp_p * exp_r / (exp_p + exp_r)
            assert got == (exp_r, exp_p, exp_f)
        report(5, "doc and evidence metrics vs oracles (1000 instances)", started)

    def test_criterion_06_topic_boundary_recovery(self):
        started = time.perf_counter()
        spec = EmbedderSpec(backend="test", model_id="hash-v1", dimension=256)
        tokens = pick_disjoint_tokens(60, spec.dimension)
        config = BreakpointConfig(ThresholdPolicy("absolute_distance", 0.5))
        for d in range(20):
            block_tokens = tokens[3 * d : 3 * d + 3]
            texts = [f"{tok}." for tok in block_tokens for _ in range(5)]
            doc = make_doc(f"topic-{d:02d}", texts)
            emb = embed_batch(spec, [s.text for s in doc.sentences])
            chunks = chunk_document(doc, emb, config)
            assert [c.sentence_indices for c in chunks] == [
                tuple(range(0, 5)),
                tuple(range(5, 10)),
                tuple(range(10, 15)),
            ]
        report(6, "planted topic boundaries recovered in 20 documents", started, budget=5.0)

    def test_criterion_07_stitching_contract(self, rng):
        started = time.perf_counter()
        words = ["river", "stone", "cloud", "ember", "field", "glass", "north", "sound"]
        documents = []
        counts = {}
        for i in range(50):
            n = int(rng.integers(3, 10))
            sentences = [
                f"Source {i} sentence {j} mentions {words[int(rng.integers(0, len(words)))]}."
                for j in range(n)
            ]
            text = " ".join(sentences)
            assert len(segment(text)) == n
            documents.append(Document(doc_id=f"src-{i:02d}", text=text))
            counts[f"src-{i:02d}"] = n

        queries = []
        for q in range(30):
            picks = rng.choice(50, size=int(rng.integers(1, 4)), replace=False)
            relevant = frozenset(f"src-{int(p):02d}" for p in picks)
            evidence = tuple(
                (doc_id, int(rng.integers(0, counts[doc_id]))) for doc_id in sorted(relevant)
            )
            queries.append(
                QueryRecord(
                    query_id=f"q-{q:02d}",
                    text=f"question {q}",
                    relevant_doc_ids=relevant,
                    evidence=evidence,
                )
            )

        stitched, remapped = stitch(documents, queries, target_sentences=100, seed=13)

        stitched_counts = {doc.doc_id: len(segment(doc.text)) for doc in stitched}
        assert sum(stitched_counts.values()) == sum(counts.values())

        home = {}
        independent_offset = {}
        for doc in stitched:
            running = 0
            for src, recorded in zip(doc.source_doc_ids, doc.sentence_offsets):
                assert running == recorded
                home[src] = doc.doc_id
                independent_offset[src] = running
                running += counts[src]
            assert running == stitched_counts[doc.doc_id]
        assert set(home) == set(counts)

        by_id = {q.query_id: q for q in remapped}
        for query in queries:
            new = by_id[query.query_id]
            expected_relevant = {home[d] for d in query.relevant_doc_ids}
            assert set(new.relevant_doc_ids) == expected_relevant
            expected_evidence = {
                (home[d], idx + independent_offset[d]) for d, idx in query.evidence
            }
            assert set(new.evidence) == expected_evidence
            assert len(new.evidence) == len(query.evidence)
        report(7, "stitching conserves sentences and remaps ground truth", started, budget=2.0)

    def test_criterion_08_end_to_end_determinism(self, tmp_path):
        started = time.perf_counter()
        k_values = [1, 3, 5, 10]
        names = ("results.jsonl", "summary.csv", "best_configs.json")
        # The benchmark's recorded sha256 of each output for data/mini at
        # these settings (seed 7, the default k_list and query sample).
        digests = json.loads((REPO_ROOT / "perfbench" / "digests.json").read_text("utf-8"))
        recorded = digests["workloads"]["mini-cached"]["any"]
        for task in ("doc", "evidence"):
            outs = []
            for attempt in ("first", "second"):
                out = tmp_path / f"{task}-{attempt}"
                code = main(
                    ["bench", "--task", task, "--dataset", str(MINI_DATASET),
                     "--seed", "7", "--out", str(out)]
                )
                assert code == 0
                outs.append(out)
            for name in names:
                assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), (
                    f"{task}/{name} differs between identical runs"
                )
                digest = hashlib.sha256((outs[0] / name).read_bytes()).hexdigest()
                assert digest == recorded[task][name], f"{task}/{name} differs from its digest"

            rows = [
                json.loads(line)
                for line in (outs[0] / "results.jsonl").read_text(encoding="utf-8").splitlines()
            ]
            family_of = {
                "fixed_size": "fixed_size",
                "breakpoint": "breakpoint",
                "single_linkage": "clustering",
                "dbscan": "clustering",
            }
            per_config = {}
            for row in rows:
                key = (family_of[row["chunker"]], canonical_config(config_from_dict(row["config"])))
                per_config.setdefault(key, {}).setdefault(row["k"], []).append(row["f1"])
            scores = {}
            for (family, config_id), by_k in per_config.items():
                assert sorted(by_k) == k_values
                mean_over_k = sum(
                    sum(v) / len(v) for v in by_k.values()
                ) / len(by_k)
                scores.setdefault(family, []).append((config_id, mean_over_k))
            best = json.loads((outs[0] / "best_configs.json").read_text(encoding="utf-8"))
            assert set(best) == set(scores)
            for family, candidates in scores.items():
                top = max(score for _, score in candidates)
                expected_id = min(
                    cid for cid, score in candidates if score == top
                )
                assert canonical_config(config_from_dict(best[family])) == expected_id, family
        report(8, "bench reruns byte-identical; best configs verified by oracle", started, budget=60.0)

    def test_criterion_09_retrieval_matches_brute_force(self, rng):
        started = time.perf_counter()
        spec = EmbedderSpec(backend="test", model_id="hash-v1", dimension=64)
        vocab = ["tide", "spark", "meadow", "chisel", "orbit", "lichen", "vault", "prism"]
        for case in range(200):
            m = int(rng.integers(1, 25))
            texts = [
                " ".join(rng.choice(vocab, size=int(rng.integers(1, 5)))) for _ in range(m)
            ]
            if case % 5 == 0 and m >= 2:
                # duplicated text forces exact score ties, resolved by chunk_id
                texts[-1] = texts[0]
            chunks = [
                Chunk(chunk_id=f"c-{j:04d}", doc_id="d", sentence_indices=(j,), text=t)
                for j, t in enumerate(texts)
            ]
            query = " ".join(rng.choice(vocab, size=2))
            index = build_index(chunks, ScoreTable(spec, [query]))
            k = int(rng.integers(1, m + 3))
            hits = retrieve(index, query, k)

            qv = embed_batch(spec, [query]).astype(np.float64)[0]
            cv = embed_batch(spec, texts).astype(np.float64)
            scored = sorted(
                ((float(cv[j] @ qv), chunks[j].chunk_id) for j in range(m)),
                key=lambda pair: (-pair[0], pair[1]),
            )[:k]
            assert [cid for _, cid in scored] == [chunk.chunk_id for chunk, _ in hits]
            np.testing.assert_allclose(
                [score for score, _ in scored],
                [score for _, score in hits],
                atol=1e-12,
                rtol=0.0,
            )
        report(9, "top-k retrieval equals brute-force sort (200 instances)", started, budget=2.0)

    def test_criterion_10_permutation_test_sanity(self, rng):
        started = time.perf_counter()
        same = [0.42, 0.17, 0.88, 0.5, 0.5]
        assert paired_permutation_test(same, same) == 1.0
        for _ in range(5):
            a = rng.uniform(0.0, 1.0, size=10)
            b = rng.uniform(0.0, 1.0, size=10)
            got = paired_permutation_test(a, b, iterations=2048)
            diffs = a - b
            observed = abs(diffs.mean())
            hits = sum(
                1
                for signs in itertools.product((1.0, -1.0), repeat=10)
                if abs((np.array(signs) * diffs).mean()) >= observed
            )
            np.testing.assert_allclose(got, hits / 1024.0, atol=1e-12, rtol=0.0)
        report(10, "paired permutation test matches exhaustive enumeration", started)
