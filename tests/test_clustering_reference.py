"""Every chunker, sharing one document's state across the default grid or
on a throwaway state of its own, returns what the per-config reference
loops return, whichever order the configs reach the state in and however
often. The state's grouping memo computes each grouping once per key,
hands out fresh lists of one Chunk object per (ordinal, sentence indices)
and serves one document, from one set of sentence embeddings, only."""

import math
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chunkbench.chunkers import (
    DocumentDistances,
    DbscanConfig,
    FixedSizeConfig,
    SingleLinkageConfig,
    _dbscan_groups,
    _linkage_groups,
    chunk_document,
    default_grid,
)
from chunkbench.corpus import load_corpus, stitch
from chunkbench.distance import pairwise_joint_distances
from chunkbench.embedding import EmbedderSpec, embed_batch
from chunkbench.segmenter import segment_document

from conftest import MINI_DATASET, make_doc
from reference import (
    breakpoint_reference,
    dbscan_groups_reference,
    dbscan_reference,
    fixed_size_reference,
    linkage_groups_reference,
    single_linkage_reference,
)

# The default grid, plus single linkage at two more stop distances, whose
# memo keys differ from the default's in the stop index alone.
CHECKED = default_grid() + [
    replace(c, stop_distance=stop)
    for c in default_grid()
    if c.kind == "single_linkage"
    for stop in (0.25, 0.75)
]
# The last default-grid config of each kind.
ONE_PER_KIND = list({c.kind: c for c in default_grid()}.values())


def reference(doc, embeddings, config):
    if config.kind == "fixed_size":
        return fixed_size_reference(doc, config.n_chunks, config.overlap)
    if config.kind == "breakpoint":
        return breakpoint_reference(doc, embeddings, config.policy)
    if config.kind == "single_linkage":
        return single_linkage_reference(
            doc, embeddings, config.n_clusters, config.positional_weight, config.stop_distance
        )
    return dbscan_reference(
        doc, embeddings, config.eps, config.min_samples, config.positional_weight
    )


def check_grid(doc, embeddings):
    """Every config of CHECKED gives its reference chunks: read off one state
    visited twice in grid order (the second pass all memo hits), off fresh
    states visited in reverse and in a seeded shuffled order, and off a
    throwaway state per call, as a caller that passes no state gets. Each
    state hands out one Chunk object per (ordinal, sentence indices)."""
    expected = [reference(doc, embeddings, config) for config in CHECKED]
    grid_order = list(range(len(CHECKED)))
    shuffled = np.random.default_rng(doc.n).permutation(len(CHECKED)).tolist()
    shared = DocumentDistances(doc, embeddings)
    visits = [
        (shared, grid_order),
        (shared, grid_order),
        (DocumentDistances(doc, embeddings), grid_order[::-1]),
        (DocumentDistances(doc, embeddings), shuffled),
    ]
    objects = {}
    for distances, order in visits:
        for i in order:
            got = chunk_document(doc, embeddings, CHECKED[i], distances=distances)
            assert got == expected[i], (doc.doc_id, CHECKED[i])
            for chunk in got:
                key = (id(distances), chunk.chunk_id, chunk.sentence_indices)
                assert objects.setdefault(key, chunk) is chunk, (doc.doc_id, CHECKED[i])
    for config, chunks in zip(CHECKED, expected):
        assert chunk_document(doc, embeddings, config) == chunks, (doc.doc_id, config)
    check_stops_at_blend_values(doc, embeddings, shared)


def check_stops_at_blend_values(doc, embeddings, distances):
    """Single linkage stopped exactly at a pair's distance still merges that
    pair: the state's pair order at a stop distance is the full order's
    prefix up to the sorted distances' searchsorted(side="right"), and the
    chunks are the reference's."""
    n = doc.n
    for weight in sorted({c.positional_weight for c in CHECKED if c.kind == "single_linkage"}):
        dist = np.sort(pairwise_joint_distances(embeddings, weight)[np.triu_indices(n, k=1)])
        stops = {float(dist[i]) for i in (0, len(dist) // 2, len(dist) - 1)} if dist.size else set()
        for stop in sorted(stops):
            count = np.searchsorted(dist, stop, side="right")
            check_pair_order(distances, embeddings, weight, stop)
            assert len(distances.pair_order(weight, stop)[0]) == count
            for n_clusters in (1, 2, 3):
                config = SingleLinkageConfig(n_clusters, weight, stop)
                got = chunk_document(doc, embeddings, config, distances=distances)
                assert got == reference(doc, embeddings, config), (doc.doc_id, config)


def full_pair_order(embeddings, weight):
    """Every pair first < second and its distance, in ascending (distance,
    first, second) order: a stable argsort over the upper triangle."""
    dmat = pairwise_joint_distances(embeddings, weight)
    first, second = np.triu_indices(len(embeddings), k=1)
    order = np.argsort(dmat[first, second], kind="stable")
    return first[order], second[order], dmat[first, second][order]


def check_pair_order(distances, embeddings, weight, stop):
    """The state's pair order at (weight, stop) is the full order's pairs
    within stop, as int32 arrays."""
    first, second, dist = full_pair_order(embeddings, weight)
    within = dist <= stop
    got_first, got_second = distances.pair_order(weight, stop)
    assert got_first.dtype == got_second.dtype == np.int32
    np.testing.assert_array_equal(got_first, first[within])
    np.testing.assert_array_equal(got_second, second[within])


@st.composite
def documents(draw):
    """A 1-30 sentence document whose unit embeddings repeat rows (distance ties);
    a low dimension spreads the cosines over the grid's eps range."""
    n = draw(st.integers(1, 30))
    distinct = draw(st.integers(1, n))
    dim = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.normal(size=(distinct, dim))
    pool /= np.linalg.norm(pool, axis=1, keepdims=True)
    return pool[rng.integers(0, distinct, size=n)]


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(documents())
@example(np.array([[1.0, 0.0]]))
@example(np.array([[1.0, 0.0], [1.0, 0.0]]))
@example(np.array([[1.0, 0.0], [0.0, 1.0]]))
@example(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
def test_shared_state_matches_reference_over_the_grid(embeddings):
    doc = make_doc("doc", [f"Sentence {i} is here." for i in range(len(embeddings))])
    check_grid(doc, embeddings)


@pytest.mark.parametrize("target", [None, 20], ids=["mini", "stitched-mini"])
def test_shared_state_matches_reference_on_the_mini_corpus(target):
    documents, queries = load_corpus(MINI_DATASET)
    if target is not None:
        documents, _ = stitch(documents, queries, target_sentences=target, seed=3)
    spec = EmbedderSpec(backend="test")
    for document in documents:
        doc = segment_document(document.doc_id, document.text)
        check_grid(doc, embed_batch(spec, doc.sentence_texts))


def test_distances_from_other_embeddings_are_refused():
    # Fixed size reads no embeddings, but a state serves its own ones only.
    embeddings = np.eye(3)
    doc = make_doc("doc", ["A.", "B.", "C."])
    for config in ONE_PER_KIND:
        for other in (np.eye(3), None):
            with pytest.raises(ValueError, match="other sentence embeddings"):
                chunk_document(doc, embeddings, config, distances=DocumentDistances(doc, other))


@pytest.mark.parametrize("config", ONE_PER_KIND, ids=lambda c: c.kind)
def test_a_state_serves_only_its_own_document(config):
    embeddings = np.eye(3)
    doc = make_doc("doc", ["A.", "B.", "C."])
    other = make_doc("other", ["A.", "B.", "C."])
    distances = DocumentDistances(doc, embeddings)
    chunk_document(doc, embeddings, config, distances=distances)
    with pytest.raises(ValueError, match="another document"):
        chunk_document(other, embeddings, config, distances=distances)


@pytest.mark.parametrize("config", ONE_PER_KIND, ids=lambda c: c.kind)
def test_mutating_a_returned_list_leaves_the_next_call_alone(config):
    doc = make_doc("doc", [f"Sentence {i} is here." for i in range(9)])
    embeddings = embed_batch(EmbedderSpec(backend="test"), doc.sentence_texts)
    distances = DocumentDistances(doc, embeddings)
    first = chunk_document(doc, embeddings, config, distances=distances)
    expected = list(first)
    first.reverse()
    first.append(first[0])
    first[0] = first[-1]
    assert chunk_document(doc, embeddings, config, distances=distances) == expected


def test_equal_groupings_under_different_keys_are_the_same_chunks():
    """Fixed size at one sentence per chunk, single linkage capped at one
    sentence and DBSCAN with every sentence noise all give singletons, each
    under its own memo key."""
    doc = make_doc("doc", [f"Sentence {i} is here." for i in range(9)])
    embeddings = np.eye(9)
    distances = DocumentDistances(doc, embeddings)
    configs = [FixedSizeConfig(9), SingleLinkageConfig(9, 0.5), DbscanConfig(0.01, 2, 0.5)]
    # The first config again: a memo hit under the same key.
    lists = [
        chunk_document(doc, embeddings, config, distances=distances)
        for config in [*configs, configs[0]]
    ]
    assert len(lists[0]) == 9
    for chunks in lists[1:]:
        assert chunks is not lists[0]
        assert all(a is b for a, b in zip(chunks, lists[0], strict=True))


def test_pair_orders_hold_the_pairs_within_the_stop_as_int32():
    doc = make_doc("doc", ["A.", "B.", "C."])
    distances = DocumentDistances(doc, np.eye(3))
    first, second = distances.pair_order(0.5, 1.0)
    assert first.dtype == second.dtype == np.int32
    assert (first < second).all()
    assert len(first) == 3
    check_pair_order(distances, np.eye(3), 0.5, 1.0)


def test_pair_order_breaks_distance_ties_by_index():
    # Rows 0, 2 and 3 repeat, so their three pairs lie at one semantic
    # distance; at weight 0 they all tie at 0.
    embeddings = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0], [0.6, 0.8]])
    doc = make_doc("doc", [f"Sentence {i} is here." for i in range(5)])
    distances = DocumentDistances(doc, embeddings)
    for weight in (0.0, 0.5, 1.0):
        for stop in (0.0, 0.2, 0.5, 1.0):
            check_pair_order(distances, embeddings, weight, stop)
    first, second = distances.pair_order(0.0, 0.0)
    assert list(zip(first.tolist(), second.tolist())) == [(0, 2), (0, 3), (2, 3)]


def test_a_stop_below_every_distance_keeps_no_pairs():
    embeddings = np.eye(3)
    doc = make_doc("doc", ["A.", "B.", "C."])
    distances = DocumentDistances(doc, embeddings)
    # At weight 0.5 every pair of orthogonal rows is more than 0.5 apart.
    first, second = distances.pair_order(0.5, 0.25)
    assert first.shape == second.shape == (0,)
    assert first.dtype == second.dtype == np.int32
    config = SingleLinkageConfig(1, 0.5, 0.25)
    got = chunk_document(doc, embeddings, config, distances=distances)
    assert got == reference(doc, embeddings, config)
    assert len(got) == 3


def test_a_one_sentence_document_has_no_pairs():
    embeddings = np.array([[1.0, 0.0]])
    doc = make_doc("doc", ["Only one."])
    distances = DocumentDistances(doc, embeddings)
    for stop in (0.0, 1.0):
        first, second = distances.pair_order(0.5, stop)
        assert first.shape == second.shape == (0,)
        assert first.dtype == second.dtype == np.int32


class CountingState(DocumentDistances):
    """A state that counts how often a chunker's grouping step runs."""

    runs = 0

    def chunks(self, key, group, *args):
        def counted(*group_args):
            self.runs += 1
            return group(*group_args)

        return super().chunks(key, counted, *args)


def grouping_key(doc, embeddings, config):
    """What the config's grouping depends on, worked out from the public
    distances and the reference chunkers."""
    n = doc.n
    if config.kind == "fixed_size":
        return math.ceil(n / config.n_chunks), config.overlap
    if config.kind == "breakpoint":
        # The cuts and the chunks determine each other.
        chunks = breakpoint_reference(doc, embeddings, config.policy)
        return tuple(chunk.sentence_indices for chunk in chunks)
    blend = pairwise_joint_distances(embeddings, config.positional_weight)
    if config.kind == "single_linkage":
        within = int((blend[np.triu_indices(n, k=1)] <= config.stop_distance).sum())
        return config.positional_weight, math.ceil(n / config.n_clusters), within
    adjacent = blend <= config.eps
    return adjacent.tobytes(), (adjacent.sum(axis=1) >= config.min_samples).tobytes()


def test_each_grouping_step_runs_once_per_distinct_key_on_the_mini_corpus():
    documents, _ = load_corpus(MINI_DATASET)
    spec = EmbedderSpec(backend="test")
    grid = default_grid()
    calls, runs = Counter(), Counter()
    for document in documents:
        doc = segment_document(document.doc_id, document.text)
        embeddings = embed_batch(spec, doc.sentence_texts)
        state = CountingState(doc, embeddings)
        doc_runs, keys = Counter(), {}
        texts: dict[tuple, str] = {}
        for config in grid:
            before = state.runs
            for chunk in chunk_document(doc, embeddings, config, distances=state):
                # One text object per distinct sentence group of the document.
                assert texts.setdefault(chunk.sentence_indices, chunk.text) is chunk.text
            doc_runs[config.kind] += state.runs - before
            calls[config.kind] += 1
            keys.setdefault(config.kind, set()).add(grouping_key(doc, embeddings, config))
        assert doc_runs == Counter({kind: len(k) for kind, k in keys.items()}), doc.doc_id
        runs.update(doc_runs)
    # The memo saves work for every kind on this corpus.
    assert all(runs[kind] < calls[kind] for kind in calls), (runs, calls)


def test_stops_with_the_same_pairs_within_them_share_one_grouping():
    doc = make_doc("doc", [f"Sentence {i} is here." for i in range(9)])
    embeddings = embed_batch(EmbedderSpec(backend="test"), doc.sentence_texts)
    _, _, dist = full_pair_order(embeddings, 0.5)
    # Two stops between the same pair of neighbouring distinct distances.
    gap = int(np.flatnonzero(np.diff(dist) > 0)[0])
    low, high = float(dist[gap]), float(dist[gap] + dist[gap + 1]) / 2
    assert low < high < dist[gap + 1]
    state = CountingState(doc, embeddings)
    lists = [
        chunk_document(doc, embeddings, SingleLinkageConfig(3, 0.5, stop), distances=state)
        for stop in (low, high)
    ]
    assert state.runs == 1
    assert len(state.pair_order(0.5, low)[0]) == len(state.pair_order(0.5, high)[0]) == gap + 1
    assert all(a is b for a, b in zip(*lists, strict=True))
    assert lists[0] == reference(doc, embeddings, SingleLinkageConfig(3, 0.5, high))


def as_partition(groups):
    """The groups as a set of sets, checking that no sentence sits in two."""
    partition = {frozenset(group) for group in groups if group}
    assert sum(map(len, partition)) == sum(map(len, groups))
    return partition


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_label_list_merging_matches_union_find(data):
    """Any pair order, pairs repeated or reversed, a sentence paired with
    itself, and every cap from one sentence to more than the document."""
    n = data.draw(st.integers(1, 40))
    point = st.integers(0, n - 1)
    pairs = data.draw(st.lists(st.tuples(point, point), max_size=3 * n))
    max_size = data.draw(st.integers(1, n + 1))
    first = np.array([a for a, _ in pairs], dtype=np.int32)
    second = np.array([b for _, b in pairs], dtype=np.int32)
    got = _linkage_groups(n, first, second, max_size)
    assert as_partition(got) == as_partition(linkage_groups_reference(n, first, second, max_size))
    assert all(len(group) <= max_size for group in got)


def merge_line_events(n, first, second):
    """How many lines _linkage_groups runs to merge these pairs under no cap."""
    events = 0

    def count(frame, event, arg):
        nonlocal events
        events += event == "line"
        return count

    def calls(frame, event, arg):
        return count if frame.f_code is _linkage_groups.__code__ else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        _linkage_groups(n, first, second, n)
    finally:
        sys.settrace(previous)
    return events


def test_merging_relabels_the_smaller_cluster_on_either_side_of_a_pair():
    """A chain joined from its far end grows the cluster on each pair's
    second side, and from its near end on the first side; relabelling the
    smaller cluster makes both cost the same, where relabelling a fixed
    side would cost one order n^2 / 2 moves."""
    n = 400
    near = np.arange(n - 1, dtype=np.int32)
    far = near[::-1].copy()
    from_near = merge_line_events(n, near, near + 1)
    from_far = merge_line_events(n, far, far + 1)
    assert from_near > n
    assert from_far < 2 * from_near, (from_far, from_near)


@st.composite
def neighbourhoods(draw):
    """An n x n boolean adjacency with no symmetry and any diagonal, and a
    min_samples: a point is core when its row holds at least min_samples
    neighbours, so every core set of the adjacency occurs. n reaches 140, so
    rows pass 64 and 128 bits."""
    n = draw(st.integers(1, 140))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    adjacent = rng.random((n, n)) < draw(st.sampled_from([0.0, 0.02, 0.1, 0.3, 1.0]))
    return adjacent, draw(st.integers(1, n + 2))


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(neighbourhoods())
@example((np.ones((64, 64), dtype=bool), 32))
@example((np.eye(65, k=1, dtype=bool), 1))
@example((np.eye(129, k=-1, dtype=bool), 1))
@example((~np.eye(140, dtype=bool), 139))
@example((~np.eye(140, dtype=bool), 140))
def test_bfs_on_int_rows_matches_the_boolean_bfs(case):
    adjacent, min_samples = case
    n = len(adjacent)
    rows = np.packbits(adjacent, axis=1, bitorder="little").tobytes()
    got = _dbscan_groups(rows, n, min_samples)
    core = adjacent.sum(axis=1) >= min_samples
    assert as_partition(got) == as_partition(dbscan_groups_reference(adjacent, core))
    assert sorted(i for group in got for i in group) == list(range(n))


def test_dbscan_keeps_one_packed_neighbourhood_per_weight_and_eps():
    """After the default grid each mini document's state holds its 5 x 5
    neighbourhoods as a bytes and one sorted list of ints, and no array;
    within a document the (rows, core count) key and the (adjacency, core
    set) key name the same groupings."""
    documents, _ = load_corpus(MINI_DATASET)
    spec = EmbedderSpec(backend="test")
    grid = default_grid()
    for document in documents:
        doc = segment_document(document.doc_id, document.text)
        embeddings = embed_batch(spec, doc.sentence_texts)
        state = DocumentDistances(doc, embeddings)
        pairing = set()
        for config in grid:
            chunk_document(doc, embeddings, config, distances=state)
            if config.kind == "dbscan":
                rows, degrees = state.neighbourhood(config.positional_weight, config.eps)
                cores = sum(degree >= config.min_samples for degree in degrees)
                pairing.add(((rows, cores), grouping_key(doc, embeddings, config)))
        assert len(state._hoods) == 25, doc.doc_id
        for rows, degrees in state._hoods.values():
            assert (type(rows), type(degrees)) == (bytes, list)
            assert all(type(x) is int for x in degrees)
            assert degrees == sorted(degrees)
        assert len(pairing) == len(dict(pairing)) == len({old for _, old in pairing})
