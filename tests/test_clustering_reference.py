"""The breakpoint and clustering chunkers, sharing one document's distance
state across the default grid, return what the per-config reference loops
return, whichever order the configs reach the state in."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chunkbench.chunkers import DocumentDistances, chunk_document, default_grid
from chunkbench.corpus import load_corpus, stitch
from chunkbench.embedding import EmbedderSpec, embed_batch
from chunkbench.segmenter import segment_document

from conftest import MINI_DATASET, make_doc
from reference import breakpoint_reference, dbscan_reference, single_linkage_reference

# Every config that reads the shared state: 30 breakpoint, 45 single linkage, 125 DBSCAN.
SEMANTIC = [c for c in default_grid() if c.family != "fixed_size"]


def reference(doc, embeddings, config):
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
    """Every config of SEMANTIC, read off one state visited in grid order and off
    a fresh one visited in reverse order, gives its reference chunks."""
    expected = [reference(doc, embeddings, config) for config in SEMANTIC]
    for order in (range(len(SEMANTIC)), range(len(SEMANTIC) - 1, -1, -1)):
        distances = DocumentDistances(embeddings)
        for i in order:
            got = chunk_document(doc, embeddings, SEMANTIC[i], distances=distances)
            assert got == expected[i], (doc.doc_id, SEMANTIC[i])


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
    embeddings = np.eye(3)
    doc = make_doc("doc", ["A.", "B.", "C."])
    for config in {config.kind: config for config in SEMANTIC}.values():
        with pytest.raises(ValueError, match="other sentence embeddings"):
            chunk_document(doc, embeddings, config, distances=DocumentDistances(np.eye(3)))
