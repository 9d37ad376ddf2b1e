"""Property tests for the invariants every chunker keeps, over the default-grid ranges."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkbench.chunkers import DEFAULT_GRID, chunk_document, config_from_dict

from conftest import make_doc


def axis(values):
    """Any value between the smallest and largest of a default-grid axis."""
    if all(isinstance(v, int) for v in values):
        return st.integers(min(values), max(values))
    return st.floats(min(values), max(values))


def configs():
    options = []
    for kind, section in DEFAULT_GRID.items():
        if kind == "breakpoint":
            options.extend(
                axis(amounts).map(
                    lambda amount, policy=policy: {
                        "kind": "breakpoint", "policy": {"kind": policy, "amount": amount}
                    }
                )
                for policy, amounts in section.items()
            )
        else:
            options.append(
                st.fixed_dictionaries({name: axis(v) for name, v in section.items()}).map(
                    lambda fields, kind=kind: {"kind": kind, **fields}
                )
            )
    return st.one_of(options).map(config_from_dict)


@st.composite
def documents(draw):
    """A 1-40 sentence document and unit embeddings, some rows repeated to force ties."""
    n = draw(st.integers(1, 40))
    distinct = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.normal(size=(distinct, 8))
    pool /= np.linalg.norm(pool, axis=1, keepdims=True)
    embeddings = pool[rng.integers(0, distinct, size=n)]
    return make_doc("doc", [f"Sentence {i} is here." for i in range(n)]), embeddings


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(documents(), configs())
def test_chunker_invariants(document, config):
    doc, embeddings = document
    chunks = chunk_document(doc, embeddings, config)
    indices = [i for chunk in chunks for i in chunk.sentence_indices]

    assert set(indices) == set(range(doc.n))
    if getattr(config, "overlap", 0) == 0:
        assert sorted(indices) == list(range(doc.n))
    if config.kind == "single_linkage":
        cap = math.ceil(doc.n / config.n_clusters)
        assert all(len(chunk.sentence_indices) <= cap for chunk in chunks)
    assert [chunk.chunk_id for chunk in chunks] == [f"doc-{i:04d}" for i in range(len(chunks))]
    assert chunk_document(doc, embeddings, config) == chunks
