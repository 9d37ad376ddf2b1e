import copy
import hashlib
import json
import math
import re
import typing
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from chunkbench import distance
from chunkbench.chunkers import (
    BreakpointConfig,
    DbscanConfig,
    DocumentDistances,
    FixedSizeConfig,
    SingleLinkageConfig,
    canonical_config,
    chunk_document,
    config_from_dict,
    config_to_dict,
    default_grid,
    grid_from_dict,
    read_chunks,
    write_chunks,
)
from chunkbench.distance import ThresholdPolicy

from conftest import REPO_ROOT, make_doc


def doc_of(n, doc_id="doc"):
    return make_doc(doc_id, [f"Sentence number {i} stands here." for i in range(n)])


def unit_rows(rng, count, dim=8):
    mat = rng.normal(size=(count, dim))
    return mat / np.linalg.norm(mat, axis=1, keepdims=True)


def basis(dim, index):
    v = np.zeros(dim)
    v[index] = 1.0
    return v


# One config of each semantic kind.
SEMANTIC_KINDS = (
    BreakpointConfig(policy=ThresholdPolicy("percentile", 50.0)),
    SingleLinkageConfig(n_clusters=2, positional_weight=0.5),
    DbscanConfig(eps=0.3, min_samples=2, positional_weight=0.5),
)


def groups_of(chunks):
    return [list(c.sentence_indices) for c in chunks]


def chain_embeddings(consecutive_cosines):
    """2D unit vectors whose consecutive dot products equal the given cosines."""
    angles = np.concatenate([[0.0], np.cumsum(np.arccos(consecutive_cosines))])
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


class TestFixedSize:
    def test_ten_sentences_three_chunks(self):
        got = groups_of(chunk_document(doc_of(10), None, FixedSizeConfig(3)))
        assert got == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_overlap_prepends_previous_last_sentence(self):
        got = groups_of(chunk_document(doc_of(10), None, FixedSizeConfig(3, overlap=1)))
        assert got == [[0, 1, 2, 3], [3, 4, 5, 6, 7], [7, 8, 9]]

    def test_single_sentence(self):
        assert groups_of(chunk_document(doc_of(1), None, FixedSizeConfig(4))) == [[0]]

    def test_n_chunks_above_sentence_count_gives_singletons(self):
        got = groups_of(chunk_document(doc_of(3), None, FixedSizeConfig(10)))
        assert got == [[0], [1], [2]]

    def test_n_chunks_too_large_for_a_float_gives_singletons(self):
        config = FixedSizeConfig(10**400)
        assert groups_of(chunk_document(doc_of(3), None, config)) == [[0], [1], [2]]

    def test_exact_division(self):
        got = groups_of(chunk_document(doc_of(6), None, FixedSizeConfig(3)))
        assert got == [[0, 1], [2, 3], [4, 5]]

    def test_chunk_ids_and_text(self):
        doc = make_doc("abc", ["First one.", "Second one.", "Third one."])
        chunks = chunk_document(doc, None, FixedSizeConfig(2))
        assert [c.chunk_id for c in chunks] == ["abc-0000", "abc-0001"]
        assert chunks[0].text == "First one. Second one."
        assert chunks[1].text == "Third one."
        assert all(c.doc_id == "abc" for c in chunks)

    def test_partition_property_random(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 40))
            c = int(rng.integers(1, 12))
            chunks = chunk_document(doc_of(n), None, FixedSizeConfig(c))
            flat = [i for chunk in chunks for i in chunk.sentence_indices]
            assert sorted(flat) == list(range(n))
            assert len(chunks) <= c

    def test_overlap_property_random(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 40))
            c = int(rng.integers(1, 12))
            base = groups_of(chunk_document(doc_of(n), None, FixedSizeConfig(c, overlap=0)))
            shared = groups_of(chunk_document(doc_of(n), None, FixedSizeConfig(c, overlap=1)))
            assert shared[0] == base[0]
            for prev, cur, cur_base in zip(base, shared[1:], base[1:]):
                assert cur == [prev[-1]] + cur_base
            counts = {}
            for group in shared:
                for i in group:
                    counts[i] = counts.get(i, 0) + 1
            assert set(counts) == set(range(n))
            assert max(counts.values()) <= 2

    def test_validation(self):
        with pytest.raises(ValueError, match="n_chunks must be >= 1, got 0"):
            FixedSizeConfig(0)
        with pytest.raises(ValueError, match="overlap must be 0 or 1, got 2"):
            FixedSizeConfig(2, overlap=2)


class TestBreakpoint:
    def test_planted_topic_boundary(self):
        doc = doc_of(6)
        emb = np.stack([basis(4, 0)] * 3 + [basis(4, 1)] * 3)
        config = BreakpointConfig(ThresholdPolicy("absolute_distance", 0.5))
        got = groups_of(chunk_document(doc, emb, config))
        assert got == [[0, 1, 2], [3, 4, 5]]

    def test_strict_comparison_at_the_cutoff(self):
        doc = doc_of(2)
        emb = np.stack([basis(4, 0), basis(4, 1)])  # distance exactly 1.0
        config = BreakpointConfig(ThresholdPolicy("absolute_distance", 1.0))
        got = groups_of(chunk_document(doc, emb, config))
        assert got == [[0, 1]]
        config = BreakpointConfig(ThresholdPolicy("absolute_distance", 0.99))
        got = groups_of(chunk_document(doc, emb, config))
        assert got == [[0], [1]]

    def test_percentile_100_never_splits(self, rng):
        doc = doc_of(8)
        emb = unit_rows(rng, 8)
        config = BreakpointConfig(ThresholdPolicy("percentile", 100.0))
        got = groups_of(chunk_document(doc, emb, config))
        assert got == [list(range(8))]

    def test_percentile_zero_splits_everywhere_above_minimum(self):
        doc = doc_of(4)
        emb = chain_embeddings([0.9, 0.7, 0.8])
        config = BreakpointConfig(ThresholdPolicy("percentile", 0.0))
        got = groups_of(chunk_document(doc, emb, config))
        # cutoff = min distance 0.1; strict > cuts after profile positions 1 and 2
        assert got == [[0, 1], [2], [3]]

    def test_std_dev_population_cutoff(self):
        doc = doc_of(6)
        emb = np.stack([basis(4, 0)] * 3 + [basis(4, 1)] * 3)
        # profile [0,0,1,0,0]: mean 0.2, population sigma 0.4 -> cutoff 0.6
        config = BreakpointConfig(ThresholdPolicy("std_dev", 1.0))
        got = groups_of(chunk_document(doc, emb, config))
        assert got == [[0, 1, 2], [3, 4, 5]]

    def test_std_dev_large_amount_never_splits(self):
        doc = doc_of(6)
        emb = np.stack([basis(4, 0)] * 3 + [basis(4, 1)] * 3)
        config = BreakpointConfig(ThresholdPolicy("std_dev", 3.0))
        got = groups_of(chunk_document(doc, emb, config))
        assert got == [list(range(6))]

    def test_gradient_percentile_cuts_on_rising_distance(self):
        doc = doc_of(4)
        emb = chain_embeddings([0.9, 0.7, 0.8])
        # profile ~[0.1, 0.3, 0.2]; gradient ~[0.2, 0.05, -0.1]; P50 = 0.05
        config = BreakpointConfig(ThresholdPolicy("gradient_percentile", 50.0))
        got = groups_of(chunk_document(doc, emb, config))
        assert got == [[0], [1, 2, 3]]

    def test_absolute_gradient_known_profile(self):
        doc = doc_of(4)
        emb = chain_embeddings([0.9, 0.7, 0.8])
        config = BreakpointConfig(ThresholdPolicy("absolute_gradient", 0.1))
        got = groups_of(chunk_document(doc, emb, config))
        assert got == [[0], [1, 2, 3]]
        config = BreakpointConfig(ThresholdPolicy("absolute_gradient", 0.25))
        got = groups_of(chunk_document(doc, emb, config))
        assert got == [[0, 1, 2, 3]]

    def test_gradient_percentile_reads_the_cached_slope(self, rng, monkeypatch):
        doc = doc_of(12)
        emb = unit_rows(rng, 12)
        policies = [ThresholdPolicy("gradient_percentile", a) for a in (10.0, 50.0, 90.0)]
        configs = [BreakpointConfig(policy) for policy in policies]
        expected = [groups_of(chunk_document(doc, emb, config)) for config in configs]
        distances = DocumentDistances(doc, emb)
        calls = []
        monkeypatch.setattr(distance, "gradient", lambda values: calls.append(values))
        got = [
            groups_of(chunk_document(doc, emb, config, distances=distances)) for config in configs
        ]
        assert got == expected
        assert calls == []

    def test_two_sentences_gradient_domain_stays_whole(self, rng):
        doc = doc_of(2)
        emb = unit_rows(rng, 2)
        for kind, amount in (("gradient_percentile", 50.0), ("absolute_gradient", 0.0)):
            config = BreakpointConfig(ThresholdPolicy(kind, amount))
            got = groups_of(chunk_document(doc, emb, config))
            assert got == [[0, 1]]

    def test_single_sentence(self, rng):
        doc = doc_of(1)
        config = BreakpointConfig(ThresholdPolicy("percentile", 50.0))
        got = groups_of(chunk_document(doc, unit_rows(rng, 1), config))
        assert got == [[0]]

    def test_embedding_arity_checked(self, rng):
        config = BreakpointConfig(ThresholdPolicy("percentile", 50.0))
        with pytest.raises(ValueError, match="got 3 embeddings for 4 sentences"):
            chunk_document(doc_of(4), unit_rows(rng, 3), config)

    def test_random_against_independent_oracle(self, rng):
        policies = [
            ThresholdPolicy("percentile", 30.0),
            ThresholdPolicy("percentile", 90.0),
            ThresholdPolicy("std_dev", 1.0),
            ThresholdPolicy("interquartile", 1.0),
            ThresholdPolicy("gradient_percentile", 70.0),
            ThresholdPolicy("absolute_distance", 0.3),
            ThresholdPolicy("absolute_gradient", 0.05),
        ]
        for _ in range(60):
            n = int(rng.integers(2, 14))
            emb = unit_rows(rng, n)
            profile = np.array(
                [
                    1.0 - min(max(float(np.dot(emb[i], emb[i + 1])), 0.0), 1.0)
                    for i in range(n - 1)
                ]
            )
            for policy in policies:
                if policy.gradient_domain:
                    if profile.size < 2:
                        compare = np.zeros(0)
                        cut = 0.0
                    else:
                        compare = np.gradient(profile, edge_order=1)
                        if policy.kind == "gradient_percentile":
                            cut = np.percentile(compare, policy.amount)
                        else:
                            cut = policy.amount
                    breaks = (
                        set(np.flatnonzero(compare > cut)) if compare.size else set()
                    )
                else:
                    if policy.kind == "percentile":
                        cut = np.percentile(profile, policy.amount)
                    elif policy.kind == "std_dev":
                        cut = profile.mean() + policy.amount * profile.std()
                    elif policy.kind == "interquartile":
                        q25, q75 = np.percentile(profile, [25, 75])
                        cut = profile.mean() + policy.amount * (q75 - q25)
                    else:
                        cut = policy.amount
                    breaks = set(np.flatnonzero(profile > cut))
                expected = []
                current = [0]
                for i in range(1, n):
                    if (i - 1) in breaks:
                        expected.append(current)
                        current = [i]
                    else:
                        current.append(i)
                expected.append(current)
                got = groups_of(chunk_document(doc_of(n), emb, BreakpointConfig(policy)))
                assert got == expected, (n, policy)


class TestSingleLinkage:
    def test_positional_only_four_into_two(self, rng):
        doc = doc_of(4)
        emb = unit_rows(rng, 4)
        config = SingleLinkageConfig(n_clusters=2, positional_weight=1.0)
        got = groups_of(chunk_document(doc, emb, config))
        assert got == [[0, 1], [2, 3]]

    def test_semantic_duplicates_merge_first(self):
        doc = doc_of(4)
        emb = np.stack([basis(6, 0), basis(6, 1), basis(6, 0), basis(6, 2)])
        config = SingleLinkageConfig(n_clusters=2, positional_weight=0.0)
        got = groups_of(chunk_document(doc, emb, config))
        assert [0, 2] in got

    def test_single_sentence(self, rng):
        config = SingleLinkageConfig(3, positional_weight=0.5)
        got = groups_of(chunk_document(doc_of(1), unit_rows(rng, 1), config))
        assert got == [[0]]

    def test_n_clusters_too_large_for_a_float_leaves_singletons(self, rng):
        config = SingleLinkageConfig(10**400, 0.5)
        got = groups_of(chunk_document(doc_of(3), unit_rows(rng, 3), config))
        assert got == [[0], [1], [2]]

    def test_positional_weight_mirrors_fixed_size(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 30))
            c = int(rng.integers(1, 8))
            emb = unit_rows(rng, n)
            clustered = groups_of(chunk_document(doc_of(n), emb, SingleLinkageConfig(c, 1.0)))
            fixed = groups_of(chunk_document(doc_of(n), None, FixedSizeConfig(c)))
            assert clustered == fixed, (n, c)

    def test_stop_distance_blocks_distant_merges(self):
        doc = doc_of(2)
        emb = np.stack([basis(4, 0), basis(4, 1)])  # joint distance 1.0 at weight 0
        got = groups_of(chunk_document(doc, emb, SingleLinkageConfig(1, positional_weight=0.0)))
        assert got == [[0], [1]]
        config = SingleLinkageConfig(1, positional_weight=0.0, stop_distance=1.0)
        got = groups_of(chunk_document(doc, emb, config))
        assert got == [[0, 1]]

    def test_pair_exactly_at_stop_distance_merges(self, rng):
        doc = doc_of(2)
        emb = unit_rows(rng, 2)
        # weight 1: the only pair sits at distance 1/2 == stop_distance
        got = groups_of(chunk_document(doc, emb, SingleLinkageConfig(1, positional_weight=1.0)))
        assert got == [[0, 1]]

    def test_size_cap_respected_random(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 25))
            c = int(rng.integers(1, 8))
            w = float(rng.uniform(0, 1))
            chunks = chunk_document(doc_of(n), unit_rows(rng, n), SingleLinkageConfig(c, w))
            cap = math.ceil(n / c)
            assert all(len(ch.sentence_indices) <= cap for ch in chunks)
            flat = sorted(i for ch in chunks for i in ch.sentence_indices)
            assert flat == list(range(n))

    def test_deterministic(self, rng):
        doc = doc_of(12)
        emb = unit_rows(rng, 12)
        a = groups_of(chunk_document(doc, emb, SingleLinkageConfig(3, 0.5)))
        b = groups_of(chunk_document(doc, emb, SingleLinkageConfig(3, 0.5)))
        assert a == b

    def test_chunks_ordered_by_first_index(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 20))
            chunks = chunk_document(doc_of(n), unit_rows(rng, n), SingleLinkageConfig(3, 0.25))
            firsts = [ch.sentence_indices[0] for ch in chunks]
            assert firsts == sorted(firsts)

    def test_embedding_arity_checked(self, rng):
        with pytest.raises(ValueError):
            chunk_document(doc_of(4), unit_rows(rng, 5), SingleLinkageConfig(2, 0.5))


def reference_dbscan(emb, eps, min_samples, weight):
    """Independent density clustering: same contract, separate code path."""
    n = emb.shape[0]
    dmat = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            cos = float(np.dot(emb[i], emb[j]))
            d_cos = 1.0 - min(max(cos, 0.0), 1.0)
            blend = weight * abs(i - j) / n + (1.0 - weight) * d_cos
            dmat[i, j] = min(1.0, max(0.0, blend))
    neighbors = [list(np.flatnonzero(dmat[i] <= eps)) for i in range(n)]
    core = [len(neighbors[i]) >= min_samples for i in range(n)]
    labels = [-1] * n
    label = 0
    for start in range(n):
        if labels[start] != -1 or not core[start]:
            continue
        labels[start] = label
        frontier = [start]
        while frontier:
            point = frontier.pop(0)
            for q in neighbors[point]:
                q = int(q)
                if labels[q] == -1:
                    labels[q] = label
                    if core[q]:
                        frontier.append(q)
        label += 1
    clusters = {}
    out = []
    for i in range(n):
        if labels[i] == -1:
            out.append([i])
        else:
            clusters.setdefault(labels[i], []).append(i)
    out.extend(clusters.values())
    return sorted((sorted(g) for g in out), key=lambda g: g[0])


class TestDbscan:
    def test_everything_within_eps_is_one_chunk(self, rng):
        doc = doc_of(6)
        emb = unit_rows(rng, 6)
        config = DbscanConfig(eps=2.0, min_samples=1, positional_weight=0.3)
        got = groups_of(chunk_document(doc, emb, config))
        assert got == [list(range(6))]

    def test_eps_below_min_distance_gives_singletons(self):
        doc = doc_of(4)
        emb = np.stack([basis(6, i) for i in range(4)])
        config = DbscanConfig(eps=1e-6, min_samples=1, positional_weight=0.0)
        got = groups_of(chunk_document(doc, emb, config))
        assert got == [[0], [1], [2], [3]]

    def test_isolated_point_becomes_noise_singleton(self):
        doc = doc_of(3)
        emb = np.stack([basis(4, 0), basis(4, 0), basis(4, 1)])
        config = DbscanConfig(eps=0.3, min_samples=2, positional_weight=0.0)
        got = groups_of(chunk_document(doc, emb, config))
        assert got == [[0, 1], [2]]

    def test_border_point_keeps_first_cluster(self):
        # Two four-sentence topic blocks around a bridge sentence equally
        # close to both; the bridge is non-core and must stay with the
        # cluster discovered first (the lower-indexed one).
        doc = doc_of(9)
        e0, e1 = basis(3, 0), basis(3, 1)
        bridge = np.array([0.7, 0.7, np.sqrt(1.0 - 2 * 0.49)])
        emb = np.stack([e0, e0, e0, e0, bridge, e1, e1, e1, e1])
        config = DbscanConfig(eps=0.21, min_samples=4, positional_weight=0.5)
        got = groups_of(chunk_document(doc, emb, config))
        assert got == [[0, 1, 2, 3, 4], [5, 6, 7, 8]]

    def test_single_sentence(self, rng):
        got = groups_of(chunk_document(doc_of(1), unit_rows(rng, 1), DbscanConfig(0.5, 1, 0.5)))
        assert got == [[0]]

    def test_partition_property_random(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 25))
            eps = float(rng.uniform(0.05, 0.9))
            min_samples = int(rng.integers(1, 6))
            w = float(rng.uniform(0, 1))
            config = DbscanConfig(eps, min_samples, w)
            chunks = chunk_document(doc_of(n), unit_rows(rng, n), config)
            flat = sorted(i for ch in chunks for i in ch.sentence_indices)
            assert flat == list(range(n))

    def test_matches_reference_implementation(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 18))
            emb = unit_rows(rng, n, dim=4)
            eps = float(rng.uniform(0.05, 0.8))
            min_samples = int(rng.integers(1, 5))
            w = float(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]))
            got = groups_of(chunk_document(doc_of(n), emb, DbscanConfig(eps, min_samples, w)))
            expected = reference_dbscan(emb, eps, min_samples, w)
            assert got == expected, (n, eps, min_samples, w)

    def test_validation(self, rng):
        with pytest.raises(ValueError, match="eps must be > 0, got 0.0"):
            DbscanConfig(eps=0.0, min_samples=1, positional_weight=0.5)
        with pytest.raises(ValueError, match="min_samples must be >= 1, got 0"):
            DbscanConfig(eps=0.5, min_samples=0, positional_weight=0.5)
        config = DbscanConfig(eps=0.5, min_samples=1, positional_weight=0.5)
        with pytest.raises(ValueError, match="got 4 embeddings for 3 sentences"):
            chunk_document(doc_of(3), unit_rows(rng, 4), config)


class TestChunkDocument:
    def test_dispatch_fixed_size_ignores_embeddings(self):
        got = chunk_document(doc_of(4), None, FixedSizeConfig(n_chunks=2))
        assert groups_of(got) == [[0, 1], [2, 3]]

    def test_semantic_chunkers_require_embeddings(self):
        # A one-sentence document is one chunk, but still needs its embedding.
        for n in (1, 4):
            for config in SEMANTIC_KINDS:
                with pytest.raises(ValueError, match="requires sentence embeddings"):
                    chunk_document(doc_of(n), None, config)

    def test_a_state_without_embeddings_serves_fixed_size_alone(self):
        # What the CLI builds for a grid of fixed-size configs only.
        doc = doc_of(4)
        state = DocumentDistances(doc)
        for config in SEMANTIC_KINDS:
            with pytest.raises(ValueError, match="requires sentence embeddings"):
                chunk_document(doc, None, config, distances=state)
        got = chunk_document(doc, None, FixedSizeConfig(n_chunks=2), distances=state)
        assert groups_of(got) == [[0, 1], [2, 3]]

    def test_a_state_shares_chunks_ids_texts_and_indices_across_configs(self):
        doc = doc_of(10)
        state = DocumentDistances(doc)
        configs = [FixedSizeConfig(n, overlap) for n in range(1, 11) for overlap in (0, 1)]
        by_place, id_by_ordinal, parts_by_indices = {}, {}, {}
        for config in configs:
            first = chunk_document(doc, None, config, distances=state)
            second = chunk_document(doc, None, config, distances=state)
            assert first is not second and first == second
            for ordinal, chunk in enumerate(first):
                by_place.setdefault((ordinal, chunk.sentence_indices), set()).add(id(chunk))
                id_by_ordinal.setdefault(ordinal, set()).add(id(chunk.chunk_id))
                parts_by_indices.setdefault(chunk.sentence_indices, set()).add(
                    (id(chunk.text), id(chunk.sentence_indices))
                )
        # Overlap makes one index tuple a chunk at two ordinals.
        assert {ordinal for ordinal, indices in by_place if indices == (0, 1)} == {0, 1}
        assert all(len(ids) == 1 for ids in by_place.values())
        assert all(len(ids) == 1 for ids in id_by_ordinal.values())
        assert all(len(parts) == 1 for parts in parts_by_indices.values())

    def test_a_state_refuses_a_wrong_number_of_embedding_rows(self, rng):
        for rows in (3, 5):
            with pytest.raises(ValueError, match=f"^got {rows} embeddings for 4 sentences$"):
                DocumentDistances(doc_of(4), unit_rows(rng, rows))


class TestConfigPlumbing:
    def all_kinds(self):
        return [
            FixedSizeConfig(n_chunks=4, overlap=1),
            BreakpointConfig(policy=ThresholdPolicy("std_dev", 1.5)),
            SingleLinkageConfig(n_clusters=3, positional_weight=0.25, stop_distance=0.4),
            DbscanConfig(eps=0.2, min_samples=3, positional_weight=0.75),
        ]

    def test_round_trip(self):
        for config in self.all_kinds() + default_grid():
            assert config_from_dict(config_to_dict(config)) == config
            text = canonical_config(config)
            assert canonical_config(config_from_dict(json.loads(text))) == text

    def test_family_mapping(self):
        fams = [c.family for c in self.all_kinds()]
        assert fams == ["fixed_size", "breakpoint", "clustering", "clustering"]

    def test_canonical_config_is_stable_and_sorted(self):
        config = SingleLinkageConfig(n_clusters=3, positional_weight=0.25)
        text = canonical_config(config)
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
        assert canonical_config(config) == text

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict({"kind": "semantic"})
        with pytest.raises(ValueError):
            config_from_dict({"n_chunks": 3})

    def test_a_wrong_typed_value_names_its_kind_and_field(self):
        for config in self.all_kinds():
            base = config_to_dict(config)
            for path, hint in scalar_fields(type(config)):
                where = re.escape(".".join((config.kind, *path)))
                wrong = {int: [True, "3", 2.7, 3.0], float: [True, "0.5"], str: [5, None]}[hint]
                for value in wrong:
                    with pytest.raises(ValueError, match=f"^{where} must be"):
                        config_from_dict(with_value(base, path, value))

    def test_an_int_for_a_float_field_keeps_the_canonical_id(self):
        for config in self.all_kinds():
            base = config_to_dict(config)
            for path, hint in scalar_fields(type(config)):
                if hint is float:
                    as_int = config_from_dict(with_value(base, path, 1))
                    as_float = config_from_dict(with_value(base, path, 1.0))
                    assert canonical_config(as_int) == canonical_config(as_float)
                    assert type(as_int) is type(as_float) and as_int == as_float

    def test_defaults_fill_in(self):
        config = config_from_dict({"kind": "fixed_size", "n_chunks": 3})
        assert config == FixedSizeConfig(n_chunks=3, overlap=0)
        config = config_from_dict(
            {"kind": "single_linkage", "n_clusters": 2, "positional_weight": 0.5}
        )
        assert config.stop_distance == 0.5


def scalar_fields(cls, prefix=()):
    """(field path, declared type) of every field of cls, nested configs flattened."""
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        if is_dataclass(hints[f.name]):
            yield from scalar_fields(hints[f.name], (*prefix, f.name))
        else:
            yield (*prefix, f.name), hints[f.name]


def with_value(data, path, value):
    """A copy of the config dict data with the field at path set to value."""
    data = copy.deepcopy(data)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return data


class TestDefaultGrid:
    def test_size_and_family_counts(self):
        grid = default_grid()
        assert len(grid) == 218
        by_kind = {}
        for config in grid:
            by_kind[config.kind] = by_kind.get(config.kind, 0) + 1
        assert by_kind == {
            "fixed_size": 18,
            "breakpoint": 30,
            "single_linkage": 45,
            "dbscan": 125,
        }

    def test_all_configs_unique(self):
        grid = default_grid()
        assert len({canonical_config(c) for c in grid}) == len(grid)

    def test_canonical_ids_are_pinned(self):
        # The canonical ids key every output row; their bytes must not drift.
        ids = "\n".join(canonical_config(c) for c in default_grid())
        assert hashlib.sha256(ids.encode()).hexdigest() == (
            "a9c1ac9bbf544b6294b3638ec8be87c6d619400a55cbd91fd4b01212f6c674ac"
        )

    def test_checked_in_config_file_expands_to_default_grid(self):
        data = json.loads((REPO_ROOT / "configs" / "default.json").read_text("utf-8"))
        expanded = grid_from_dict(data["grid"])
        assert [canonical_config(c) for c in expanded] == [
            canonical_config(c) for c in default_grid()
        ]

    def test_grid_from_dict_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            grid_from_dict({"magic": {"x": [1]}})

    @pytest.mark.parametrize(
        "grid, where",
        [
            ({"fixed_size": {"n_chunks": [True]}}, "fixed_size.n_chunks"),
            ({"fixed_size": {"n_chunks": [2], "overlap": 2.0}}, "fixed_size.overlap"),
            ({"breakpoint": {"percentile": ["50"]}}, "breakpoint.policy.amount"),
            (
                {"dbscan": {"eps": [True], "min_samples": [1], "positional_weight": [0]}},
                "dbscan.eps",
            ),
        ],
    )
    def test_grid_from_dict_names_a_wrong_typed_value(self, grid, where):
        with pytest.raises(ValueError, match=f"^{re.escape(where)} must be"):
            grid_from_dict(grid)

    def test_a_bare_value_is_a_one_value_axis(self):
        assert grid_from_dict({"breakpoint": {"percentile": 50}}) == grid_from_dict(
            {"breakpoint": {"percentile": [50.0]}}
        )

    def test_grid_from_dict_rejects_empty(self):
        with pytest.raises(ValueError):
            grid_from_dict({})


class TestChunkFiles:
    def test_round_trip(self, tmp_path, rng):
        doc = doc_of(7, doc_id="rt")
        chunks = chunk_document(doc, None, FixedSizeConfig(3))
        chunks += chunk_document(doc_of(4, "other"), None, FixedSizeConfig(2))
        path = tmp_path / "chunks.jsonl"
        write_chunks(chunks, path)
        assert read_chunks(path) == chunks

    def test_deterministic_bytes(self, tmp_path):
        chunks = chunk_document(doc_of(9, "d"), None, FixedSizeConfig(4))
        write_chunks(chunks, tmp_path / "a.jsonl")
        write_chunks(chunks, tmp_path / "b.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"chunk_id": "d-1", "doc_id": "d", "text": "x"}', "sentence_indices is required"),
            ('["d-1", "d", [1], "x"]', "Chunk must be an object"),
            ('{"chunk_id": "d-1", "doc_id": "d", "sentence_indices": 1, "text": "x"}',
             "sentence_indices must be a list, got 1"),
            ('{"chunk_id": 5, "doc_id": "d", "sentence_indices": ["a", true], "text": "x", '
             '"extra": 1}', "chunk_id must be a string, got 5"),
            ('{"chunk_id": "d-1", "doc_id": "d", "sentence_indices": [0, true], "text": "x"}',
             r"sentence_indices\[1\] must be an integer, got True"),
            ('{"chunk_id": "d-1", "doc_id": "d", "sentence_indices": [0], "text": "x", '
             '"extra": 1}', "unknown key 'extra'"),
        ],
        ids=[
            "missing-field", "not-an-object", "indices-not-a-list", "wrong-typed-id",
            "bool-index", "unknown-key",
        ],
    )
    def test_bad_line_names_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "chunks.jsonl"
        write_chunks(chunk_document(doc_of(2, "d"), None, FixedSizeConfig(2))[:1], path)
        path.write_text(path.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^chunks.jsonl:2: {message}"):
            read_chunks(path)

    @pytest.mark.parametrize("kind", ["directory", "missing"])
    def test_file_that_cannot_be_opened_names_it(self, tmp_path, kind):
        path = tmp_path / "chunks.jsonl"
        if kind == "directory":
            path.mkdir()
        with pytest.raises(ValueError, match=f"^cannot read {re.escape(str(path))}: \\[Errno"):
            read_chunks(path)
