"""Trace one ``chunkbench`` CLI run by wrapping its layer boundaries from outside.

Usage: ``python3 perfbench/tracer.py SPANS_FILE CLI_ARG...`` with ``src`` on
``PYTHONPATH``. The tracer replaces the names each caller looks up (for
example ``chunkbench.cli.retrieve``) with wrappers that record a span, then
calls ``chunkbench.cli.main`` in-process. Spans stay in memory and are
written to SPANS_FILE as JSON when the run ends, with the run's exit code.
Nothing in the program itself changes.

A span is ``[name, start, end, parent, work]``: ``parent`` is the index of
the enclosing span (-1 for the root) and ``work`` the count of items the
call handled (texts, chunks or sentences). ``summarize`` turns the spans of
one or more runs into the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import statistics
import sys
import time
from pathlib import Path

# (module whose lookup is wrapped, attribute, span name). Span names are
# "<layer>.<boundary>"; "embedding" and "chunkers" get a suffix per call.
WRAPS = (
    ("chunkbench.cli", "load_corpus", "corpus.load"),
    ("chunkbench.cli", "segment_document", "segmenter"),
    ("chunkbench.cli", "embed_batch", "embedding"),
    ("chunkbench.cli", "chunk_document", "chunkers"),
    ("chunkbench.chunkers", "pairwise_joint_distances", "distance.pairwise"),
    ("chunkbench.chunkers", "consecutive_distances", "distance.profile"),
    ("chunkbench.chunkers", "gradient", "distance.profile"),
    ("chunkbench.chunkers", "threshold", "distance.profile"),
    ("chunkbench.cli", "build_index", "retrieval.build_index"),
    ("chunkbench.retrieval", "embed_batch", "embedding"),
    ("chunkbench.cli", "retrieve", "retrieval.retrieve"),
    ("chunkbench.cli", "doc_metrics", "evaluation.doc_metrics"),
    ("chunkbench.cli", "evidence_metrics", "evaluation.evidence_metrics"),
    ("chunkbench.cli", "aggregate", "evaluation.aggregate"),
    ("chunkbench.cli", "select_best_config", "evaluation.select_best"),
    ("chunkbench.embedding", "decode_vectors", "embedding.cache_read"),
    ("chunkbench.embedding", "encode_vectors", "embedding.cache_write"),
)
ROOT_SPAN = "cli"
CHUNKER_KINDS = ("fixed_size", "breakpoint", "single_linkage", "dbscan")
EMBED_CALLERS = ("sentences", "chunks", "queries")
LAYERS = ("corpus", "segmenter", "embedding", "chunkers", "distance", "retrieval", "evaluation", "cli")


class Tracer:
    """In-memory span recorder plus the work counters measured at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = [-1]
        self.errors: dict[str, int] = {}
        self.missing: list[str] = []
        self.texts: dict[str, set[str]] = {caller: set() for caller in EMBED_CALLERS}
        self.chunkings: dict[str, list] = {}

    def call(self, name: str, fn, args, kwargs, work=None):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self.stack[-1], 0]
        self.spans.append(span)
        self.stack.append(index)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            layer = name.split(".", 1)[0]
            self.errors[layer] = self.errors.get(layer, 0) + 1
            raise
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
        if work is not None:
            span[4] = work(result)
        return result

    def parent_name(self) -> str:
        parent = self.stack[-1]
        return self.spans[parent][0] if parent >= 0 else ""

    def wrap(self, module, attr: str, name: str) -> None:
        fn = getattr(module, attr)
        tracer = self

        if name == "embedding":

            def wrapper(*args, **kwargs):
                # Materialise the texts once, so an iterator is not consumed twice.
                if "texts" in kwargs:
                    kwargs["texts"] = texts = list(kwargs["texts"])
                else:
                    texts = list(args[1])
                    args = (args[0], texts, *args[2:])
                caller = tracer.embed_caller(sys._getframe(1).f_code.co_name)
                tracer.texts[caller].update(texts)
                return tracer.call(f"embedding.{caller}", fn, args, kwargs, lambda _: len(texts))

        elif name == "chunkers":

            def wrapper(*args, **kwargs):
                config = kwargs["config"] if "config" in kwargs else args[2]
                chunks = tracer.call(f"chunkers.{config.kind}", fn, args, kwargs, len)
                tracer.chunkings.setdefault(repr(config), []).extend(
                    (c.doc_id, c.sentence_indices) for c in chunks
                )
                return chunks

        else:
            work = {
                "segmenter": lambda doc: doc.n,
                "retrieval.build_index": len,
            }.get(name)

            def wrapper(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs, work)

        setattr(module, attr, wrapper)

    def embed_caller(self, function: str) -> str:
        """Which text kind an embed_batch call embeds, from the span or function around it."""
        parent = self.parent_name()
        if parent == "retrieval.build_index":
            return "chunks"
        if parent == "retrieval.retrieve":
            return "queries"
        if "quer" in function:
            return "queries"
        if "chunk" in function or "index" in function:
            return "chunks"
        return "sentences"

    def install(self, wraps=WRAPS) -> None:
        """Wrap every name in ``wraps``; names that no longer exist are listed as missing."""
        for module_name, attr, name in wraps:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                self.wrap(module, attr, name)
            else:
                self.missing.append(f"{module_name}.{attr}")

    def report(self, exit_code: int) -> dict:
        distinct_chunkings = {
            hashlib.sha256(repr(sorted(c)).encode()).hexdigest() for c in self.chunkings.values()
        }
        return {
            "exit_code": exit_code,
            "spans": self.spans,
            "errors": self.errors,
            "missing": self.missing,
            "distinct_texts": {k: len(v) for k, v in self.texts.items()},
            "all_distinct_texts": len(set().union(*self.texts.values())),
            "configs": len(self.chunkings),
            "distinct_chunkings": len(distinct_chunkings),
        }


def _self_times(spans: list[list]) -> list[float]:
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(runs: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced benchmark sample (one report per CLI run)."""
    calls: dict[str, int] = {}
    work: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    retrieve_ms: list[float] = []
    for run in runs:
        spans = run["spans"]
        for span, self_time in zip(spans, _self_times(spans)):
            name, start, end = span[0], span[1], span[2]
            calls[name] = calls.get(name, 0) + 1
            work[name] = work.get(name, 0) + span[4]
            total[name] = total.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + self_time
            if name == "retrieval.retrieve":
                retrieve_ms.append((end - start) * 1000.0)

    m: dict[str, float] = {}
    m["retrieval.retrieve.calls"] = calls.get("retrieval.retrieve", 0)
    m["retrieval.retrieve.self_s"] = own.get("retrieval.retrieve", 0.0)
    if len(retrieve_ms) >= 2:
        cuts = statistics.quantiles(retrieve_ms, n=100, method="inclusive")
        m["retrieval.retrieve.p50_ms"] = cuts[49]
        m["retrieval.retrieve.p99_ms"] = cuts[98]
    else:
        m["retrieval.retrieve.p50_ms"] = m["retrieval.retrieve.p99_ms"] = sum(retrieve_ms)
    m["retrieval.build_index.calls"] = calls.get("retrieval.build_index", 0)
    m["retrieval.build_index.chunks"] = work.get("retrieval.build_index", 0)
    m["retrieval.build_index.self_s"] = own.get("retrieval.build_index", 0.0)

    texts = 0
    for caller in EMBED_CALLERS:
        name = f"embedding.{caller}"
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.texts"] = work.get(name, 0)
        m[f"{name}.distinct_texts"] = sum(run["distinct_texts"][caller] for run in runs)
        m[f"{name}.s"] = total.get(name, 0.0)
        texts += work.get(name, 0)
    distinct = sum(run["all_distinct_texts"] for run in runs)
    m["embedding.distinct_ratio"] = distinct / texts if texts else 0.0
    m["embedding.cache_reads"] = calls.get("embedding.cache_read", 0)
    m["embedding.cache_writes"] = calls.get("embedding.cache_write", 0)

    for kind in CHUNKER_KINDS:
        name = f"chunkers.{kind}"
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.chunks"] = work.get(name, 0)
        m[f"{name}.self_s"] = own.get(name, 0.0)
    configs = sum(run["configs"] for run in runs)
    m["chunkers.distinct_chunkings"] = sum(run["distinct_chunkings"] for run in runs)
    m["chunkers.distinct_ratio"] = m["chunkers.distinct_chunkings"] / configs if configs else 0.0
    for name in ("distance.pairwise", "distance.profile", "corpus.load"):
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.s"] = total.get(name, 0.0)
    m["segmenter.calls"] = calls.get("segmenter", 0)
    m["segmenter.sentences"] = work.get("segmenter", 0)
    m["segmenter.s"] = total.get("segmenter", 0.0)

    m["evaluation.doc_metrics.calls"] = calls.get("evaluation.doc_metrics", 0)
    m["evaluation.evidence_metrics.calls"] = calls.get("evaluation.evidence_metrics", 0)
    m["evaluation.score.s"] = total.get("evaluation.doc_metrics", 0.0) + total.get(
        "evaluation.evidence_metrics", 0.0
    )
    m["evaluation.aggregate.s"] = total.get("evaluation.aggregate", 0.0)
    m["evaluation.select_best.s"] = total.get("evaluation.select_best", 0.0)
    m["cli.self_s"] = own.get(ROOT_SPAN, 0.0)

    for layer in LAYERS:
        m[f"{layer}.errors"] = sum(run["errors"].get(layer, 0) for run in runs)
    m["trace.missing"] = sum(len(run["missing"]) for run in runs)
    return m


def main(argv: list[str]) -> int:
    spans_file, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    tracer.install()
    from chunkbench import cli

    code = 1
    try:
        code = tracer.call(ROOT_SPAN, cli.main, (cli_args,), {})
    finally:
        spans_file.write_text(json.dumps(tracer.report(code)), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
