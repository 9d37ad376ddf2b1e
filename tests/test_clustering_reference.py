"""The clustering chunkers, sharing one document's distance state across the
default grid, return what the per-config reference loops return."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chunkbench.chunkers import DocumentDistances, chunk_document, default_grid

from conftest import make_doc
from reference import dbscan_reference, single_linkage_reference

CLUSTERING = [c for c in default_grid() if c.family == "clustering"]


def reference(doc, embeddings, config):
    if config.kind == "single_linkage":
        return single_linkage_reference(
            doc, embeddings, config.n_clusters, config.positional_weight, config.stop_distance
        )
    return dbscan_reference(
        doc, embeddings, config.eps, config.min_samples, config.positional_weight
    )


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
def test_shared_state_matches_reference_over_the_grid(embeddings):
    doc = make_doc("doc", [f"Sentence {i} is here." for i in range(len(embeddings))])
    distances = DocumentDistances(embeddings)
    for config in CLUSTERING:
        got = chunk_document(doc, embeddings, config, distances=distances)
        assert got == reference(doc, embeddings, config), config


def test_distances_from_other_embeddings_are_refused():
    embeddings = np.eye(3)
    doc = make_doc("doc", ["A.", "B.", "C."])
    with pytest.raises(ValueError, match="other sentence embeddings"):
        chunk_document(doc, embeddings, CLUSTERING[0], distances=DocumentDistances(np.eye(3)))
