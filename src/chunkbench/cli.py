"""Command-line interface: stitch, chunk, bench, gen, sweep-report, inspect.

Exit codes: 0 on success, 1 on runtime failure, 2 on usage or config errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import AbstractSet, Callable, Iterator, Sequence

import numpy as np

from .chunkers import (
    Chunk,
    ChunkerConfig,
    DocumentDistances,
    canonical_config,
    chunk_document,
    config_from_dict,
    config_to_dict,
    default_grid,
    grid_from_dict,
    write_chunks,
)
from .corpus import (
    QUERIES_FILENAME,
    STITCH_MAP_FILENAME,
    CorpusError,
    QueryRecord,
    load_corpus,
    sample_queries,
    stitch,
    write_corpus,
    write_stitch_map,
)
from .embedding import BACKENDS, EmbedderSpec, embed_batch
from .evaluation import (
    MetricRow,
    aggregate,
    doc_metrics,
    evidence_metrics,
    select_best_config,
)
from .files import finite, from_json, replacing, write_jsonl
from .generation import (
    DEFAULT_CONCURRENCY,
    GenerationConfig,
    generate_answer,
    qa_similarity,
)
from .retrieval import ChunkIndex, ScoreTable, build_index, retrieve
from .segmenter import RuleSegmenter, SegmentedDocument, load_abbreviations, segment_document

logger = logging.getLogger(__name__)

RESULTS_FILENAME = "results.jsonl"
SUMMARY_FILENAME = "summary.csv"
BEST_CONFIGS_FILENAME = "best_configs.json"
FAILURES_FILENAME = "failures.jsonl"
TRENDS_FILENAME = "trends.csv"
ANSWERS_FILENAME = "answers.jsonl"
FAILURE_FRACTION_LIMIT = 0.10
# trends.csv leaves out these hyperparameters while every row holds them at one value.
_UNSWEPT_FIELDS = ("single_linkage.stop_distance",)


class ConfigError(ValueError):
    """Bad command usage or configuration; maps to exit code 2."""


@dataclass(frozen=True)
class StitchConfig:
    """The run config's stitch section; stitch --target overrides it."""

    target_sentences: int = 100

    def __post_init__(self) -> None:
        if self.target_sentences < 1:
            raise ValueError(f"target_sentences must be >= 1, got {self.target_sentences}")


@dataclass
class RunConfig:
    """A run config file's keys, types and defaults; a null grid is the default
    grid. configs is the expanded grid; segmenter comes from --abbrev."""

    dataset: Path = Path("data/mini")
    out: Path = Path("out")
    seed: int = 7
    k_list: list[int] = field(default_factory=lambda: [1, 3, 5, 10])
    query_sample: int = 100
    jobs: int = DEFAULT_CONCURRENCY
    embedder: EmbedderSpec = EmbedderSpec()
    grid: dict | None = None
    stitch: StitchConfig = StitchConfig()
    generation: GenerationConfig | None = None
    configs: list[ChunkerConfig] = field(init=False)
    segmenter: RuleSegmenter = field(init=False, default_factory=RuleSegmenter)

    def __post_init__(self) -> None:
        for key, minimum in (("seed", 0), ("query_sample", 1), ("jobs", 1)):
            value = getattr(self, key)
            if value < minimum:
                raise ValueError(f"{key} must be >= {minimum}, got {value}")
        if not self.k_list or self.k_list[0] < 1 or sorted(set(self.k_list)) != self.k_list:
            raise ValueError("k_list must be a strictly ascending list of integers >= 1")
        try:
            self.configs = default_grid() if self.grid is None else grid_from_dict(self.grid)
        except ValueError as exc:
            raise ValueError(f"bad grid config: {exc}") from exc


def load_run_config(args: argparse.Namespace) -> RunConfig:
    """The --config file with the command line's overrides, read into a RunConfig; an
    error names the file if the file alone fails the same way, else the command line."""
    data: dict = {}
    if args.config is not None:
        try:
            data = json.loads(Path(args.config).read_text("utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"{args.config}: not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{args.config}: must contain a JSON object")

    merged = dict(data)
    for key in ("dataset", "out", "seed", "jobs"):
        if getattr(args, key) is not None:
            merged[key] = getattr(args, key)
    for section, key, value in (
        ("embedder", "backend", args.embedder),
        ("stitch", "target_sentences", getattr(args, "target", None)),
    ):
        # A section that is not an object is left for from_json to reject.
        if value is not None and isinstance(merged.get(section, {}), dict):
            merged[section] = {**merged.get(section, {}), key: value}

    try:
        cfg = from_json(RunConfig, merged)
    except ValueError as exc:
        source = "command line"
        try:
            from_json(RunConfig, data)
        except ValueError as file_exc:
            source = args.config if str(file_exc) == str(exc) else source
        raise ConfigError(f"{source}: {exc}") from exc
    if args.abbrev is not None:
        try:
            cfg.segmenter = RuleSegmenter(load_abbreviations(args.abbrev))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read abbreviation list {args.abbrev}: {exc}") from exc
    return cfg


def _parse_chunker_arg(raw: str) -> ChunkerConfig:
    try:
        return config_from_dict(json.loads(raw))
    except ValueError as exc:
        raise ConfigError(f"bad --chunker value {raw!r}: {exc}") from exc


def _segmented_corpus(
    cfg: RunConfig, doc_id: str | None = None
) -> tuple[list[SegmentedDocument], list[QueryRecord]]:
    """Load the corpus and segment its documents (only doc_id, when given)."""
    documents, queries = load_corpus(cfg.dataset)
    if doc_id is not None:
        documents = [doc for doc in documents if doc.doc_id == doc_id]
        if not documents:
            raise ConfigError(f"unknown doc_id {doc_id!r} in corpus {cfg.dataset}")
    if not documents:
        raise ConfigError(f"corpus at {cfg.dataset} has no documents")
    return [segment_document(d.doc_id, d.text, cfg.segmenter) for d in documents], queries


def _distance_states(segdocs, grid, spec):
    """One chunking state per document, without sentence embeddings when only
    fixed-size chunkers run."""
    if all(c.family == "fixed_size" for c in grid):
        return [DocumentDistances(doc) for doc in segdocs]
    # Not in _corpus_chunker: perfbench counts embeds from a *chunk* function as chunks.
    return [DocumentDistances(doc, embed_batch(spec, doc.sentence_texts)) for doc in segdocs]


def _corpus_chunker(
    segdocs: Sequence[SegmentedDocument], grid: Sequence[ChunkerConfig], spec: EmbedderSpec
) -> Callable[[ChunkerConfig], list[Chunk]]:
    """Embed the sentences once; the result chunks the corpus under any config of grid,
    every config reading each document's one distance state."""
    states = _distance_states(segdocs, grid, spec)

    def chunk_corpus(config: ChunkerConfig) -> list[Chunk]:
        chunks: list[Chunk] = []
        for doc, state in zip(segdocs, states):
            chunks.extend(chunk_document(doc, state.embeddings, config, distances=state))
        return chunks

    return chunk_corpus


def _eligible_queries(
    queries: Sequence[QueryRecord], task: str, sentence_counts: dict[str, int]
) -> list[tuple[QueryRecord, AbstractSet]]:
    """Each query with usable ground truth: its relevant doc ids or in-range evidence pairs."""
    eligible: list[tuple[QueryRecord, AbstractSet]] = []
    for query in queries:
        if task == "doc":
            truth: AbstractSet = query.relevant_doc_ids
        else:
            truth = set()
            for doc_id, index in query.evidence:
                if 0 <= index < sentence_counts.get(doc_id, 0):
                    truth.add((doc_id, index))
                else:
                    logger.warning(
                        "query %s: dropping evidence (%s, %d), index out of range",
                        query.query_id,
                        doc_id,
                        index,
                    )
        if truth:
            eligible.append((query, truth))
    return eligible


def _write_summary_csv(path: Path, dataset: str, rows: Sequence[MetricRow]) -> None:
    with replacing(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["dataset", "chunker", "config", "k", "recall", "precision", "f1", "n_queries"]
        )
        writer.writerows(
            [dataset, row.config.kind, row.config_id, row.k, f"{row.recall:.6f}",
             f"{row.precision:.6f}", f"{row.f1:.6f}", row.n_queries]
            for row in rows
        )


# What json.dumps writes for a str, with its default ensure_ascii.
_json_str = json.encoder.encode_basestring_ascii


def results_head(config: ChunkerConfig, dataset: str) -> str:
    """The part of a config's results.jsonl lines before the row's own keys,
    which all sort after "dataset": the sorted-key JSON object of the config's
    fields with its closing brace cut off."""
    fields = {"chunker": config.kind, "config": config_to_dict(config), "dataset": dataset}
    return json.dumps(fields, sort_keys=True)[:-1] + ", "


def results_tail(task: str) -> str:
    """The end of every results.jsonl line of a run: "task" sorts after the row's keys."""
    return f'"task": {_json_str(task)}}}\n'


def results_body(
    query_id: str,
    k: int,
    chunk_ids: Sequence[str],
    recall: float,
    precision: float,
    f1: float,
    tail: str,
) -> str:
    """The part of one results.jsonl line after its config's results_head: the
    row's keys in sorted order and a results_tail, so that head and body are byte
    for byte json.dumps(row, sort_keys=True) + "\n"; query_id and the first k
    chunk_ids come already JSON-encoded."""
    number = float.__repr__  # what json.dumps writes for a finite float
    return (
        f'"f1": {number(f1)}, "k": {k}, "precision": {number(precision)}, '
        f'"query_id": {query_id}, "recall": {number(recall)}, '
        f'"retrieved_chunk_ids": [{", ".join(chunk_ids)}], {tail}'
    )


def cmd_stitch(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    if cfg.out.resolve() == cfg.dataset.resolve():
        raise ConfigError(f"stitch would overwrite its source corpus: --out is {cfg.dataset}")
    target = cfg.stitch.target_sentences
    documents, queries = load_corpus(cfg.dataset)
    if not documents:
        raise ConfigError(f"corpus at {cfg.dataset} has no documents")
    stitched, remapped = stitch(documents, queries, target, cfg.seed, cfg.segmenter)
    # Stitched ids are positional: a torn re-stitch leaves no older queries to load.
    for name in (QUERIES_FILENAME, STITCH_MAP_FILENAME):
        (cfg.out / name).unlink(missing_ok=True)
    write_corpus([doc.as_document() for doc in stitched], remapped, cfg.out)
    write_stitch_map(stitched, cfg.out / STITCH_MAP_FILENAME)
    logger.info(
        "stitched %d documents into %d (target %d sentences) -> %s",
        len(documents),
        len(stitched),
        target,
        cfg.out,
    )
    return 0


def cmd_chunk(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    config = _parse_chunker_arg(args.chunker)
    segdocs, _ = _segmented_corpus(cfg)
    chunks = _corpus_chunker(segdocs, [config], cfg.embedder)(config)
    out_path = cfg.out / "chunks.jsonl"
    write_chunks(chunks, out_path)
    logger.info("wrote %d chunks for %d documents -> %s", len(chunks), len(segdocs), out_path)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    task = args.task
    started = time.perf_counter()

    segdocs, queries = _segmented_corpus(cfg)
    sampled = sample_queries(queries, cfg.query_sample, cfg.seed)
    counts = {doc.doc_id: doc.n for doc in segdocs}
    # Sorted after the filter, so the dropped-evidence warnings keep the sample's order.
    eligible = sorted(_eligible_queries(sampled, task, counts), key=lambda pair: pair[0].query_id)
    if len(eligible) < len(sampled):
        logger.warning(
            "excluded %d of %d sampled queries without usable %s ground truth",
            len(sampled) - len(eligible),
            len(sampled),
            task,
        )
    if not eligible:
        raise ConfigError(f"no queries with usable ground truth for task {task!r}")

    spec, grid = cfg.embedder, cfg.configs
    chunk_corpus = _corpus_chunker(segdocs, grid, spec)
    kmax = max(cfg.k_list)
    dataset_name = cfg.dataset.name or str(cfg.dataset)
    logger.info(
        "bench task=%s: %d configs x %d queries, k=%s", task, len(grid), len(eligible), cfg.k_list
    )

    score = doc_metrics if task == "doc" else evidence_metrics
    summary: list[MetricRow] = []
    failures: list[dict] = []
    tail = results_tail(task)
    query_ids = [_json_str(query.query_id) for query, _ in eligible]
    # The states keep one Chunk per (document, ordinal, sentence indices), so in this pass
    # the ids of a chunking's Chunks name it; after it, only chunkings keeps them. From its
    # first config to its last, a chunking keeps its index, which remembers its ranking of
    # every query, and per query the (recall, precision, f1) at each k and the bodies of its
    # lines; a failed build is not kept. A failed query embed ends the run unchunked.
    table = ScoreTable(spec, [query.text for query, _ in eligible])
    chunkings: dict[bytes, list[Chunk]] = {}
    keys: list[bytes | Exception] = []  # per config, its chunking's key or what it raised
    for config in grid:
        try:
            chunks = chunk_corpus(config)
            keys.append(np.fromiter(map(id, chunks), np.uintp, len(chunks)).tobytes())
            chunkings.setdefault(keys[-1], chunks)
        except Exception as exc:
            keys.append(exc.with_traceback(None))  # its frames would hold a state
    del chunk_corpus
    last = {key: i for i, key in enumerate(keys)}
    live: dict[bytes, tuple[ChunkIndex, dict[str, tuple[np.ndarray, list[str]]]]] = {}
    with replacing(cfg.out / RESULTS_FILENAME) as fh:
        for i, (config, key) in enumerate(zip(grid, keys)):
            config_id = canonical_config(config)
            try:
                if isinstance(key, Exception):
                    raise key
                if key not in live:
                    live[key] = build_index(chunkings[key], table), {}
                index, kept = live[key] if i < last[key] else live.pop(key)
            except Exception as exc:
                failures.extend(_failure(config_id, query, exc) for query, _ in eligible)
                logger.warning("config %s failed outright: %s", config_id, exc)
                continue
            scores: list[list[list[float]]] = []
            bodies: list[str] = []
            for (query, truth), query_id in zip(eligible, query_ids):
                try:
                    ranked = retrieve(index, query.text, kmax)
                    if query_id not in kept:
                        hits = [chunk for chunk, _ in ranked]
                        # A float64 array holds them in a third of the bytes of tuples.
                        per_k = np.array([score(hits[:k], truth) for k in cfg.k_list])
                        chunk_ids = [_json_str(chunk.chunk_id) for chunk in hits]
                        kept[query_id] = per_k, [
                            results_body(query_id, k, chunk_ids[:k], *metrics, tail)
                            for k, metrics in zip(cfg.k_list, per_k.tolist())
                        ]
                    per_k, query_bodies = kept[query_id]
                except Exception as exc:
                    failures.append(_failure(config_id, query, exc))
                    continue
                scores.append(per_k.tolist())
                bodies.extend(query_bodies)
            if bodies:
                head = results_head(config, dataset_name)
                fh.write(head + head.join(bodies))
            summary.extend(aggregate(config, config_id, cfg.k_list, scores))
    summary.sort(key=lambda row: (row.config.kind, row.config_id, row.k))
    _write_summary_csv(cfg.out / SUMMARY_FILENAME, dataset_name, summary)

    if summary:
        best = select_best_config(summary, cfg.k_list)
        best_payload = {fam: config_to_dict(config) for fam, config in best.items()}
        with replacing(cfg.out / BEST_CONFIGS_FILENAME) as fh:
            fh.write(json.dumps(best_payload, sort_keys=True, indent=2) + "\n")
    else:
        # An older run's winners would not be this run's.
        (cfg.out / BEST_CONFIGS_FILENAME).unlink(missing_ok=True)

    total_attempts = len(grid) * len(eligible)
    logger.info(
        "bench task=%s done: %d records, %d/%d failed evaluations, %.1fs",
        task,
        sum(row.n_queries for row in summary),
        len(failures),
        total_attempts,
        time.perf_counter() - started,
    )
    return _failure_budget(cfg.out, failures, total_attempts, "query evaluations")


def _failure(config_id: str, query: QueryRecord, exc: Exception) -> dict:
    """One failures.jsonl row."""
    return {"config": config_id, "query_id": query.query_id, "error": str(exc)}


def _failure_budget(out: Path, failures: list[dict], attempts: int, what: str) -> int:
    """Write failures.jsonl when anything failed, else remove an older run's;
    the exit code is 1 when more than FAILURE_FRACTION_LIMIT of the attempts
    failed, else 0."""
    if failures:
        write_jsonl(out / FAILURES_FILENAME, failures)
    else:
        (out / FAILURES_FILENAME).unlink(missing_ok=True)
    if len(failures) > FAILURE_FRACTION_LIMIT * attempts:
        print(
            f"error: {len(failures)} of {attempts} {what} failed "
            f"(over the {FAILURE_FRACTION_LIMIT:.0%} limit)",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    if cfg.generation is None:
        raise ConfigError(
            "gen requires a 'generation' section with an endpoint in the config file"
        )
    gen_cfg = cfg.generation
    config = _parse_chunker_arg(args.chunker)
    config_id = canonical_config(config)

    segdocs, queries = _segmented_corpus(cfg)
    if not queries:
        raise ConfigError(f"corpus at {cfg.dataset} has no queries")
    sampled = sorted(
        sample_queries(queries, cfg.query_sample, cfg.seed), key=lambda q: q.query_id
    )
    spec = cfg.embedder

    # Embedding runs here, one batch at a time: a failed query batch fails each
    # query, a failed chunk batch the command; the pool only sends generation requests.
    errors: dict[QueryRecord, Exception] = {}
    contexts: dict[QueryRecord, list[str]] = {}
    try:
        table = ScoreTable(spec, [query.text for query in sampled])
    except Exception as exc:
        errors = dict.fromkeys(sampled, exc)
    else:
        index = build_index(_corpus_chunker(segdocs, [config], spec)(config), table)
        for query in sampled:
            hits = retrieve(index, query.text, gen_cfg.top_k_context)
            contexts[query] = [chunk.text for chunk, _ in hits]
    # Only gen sends requests in parallel, so the other commands never load the pool.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
        futures = {
            query: pool.submit(generate_answer, gen_cfg, query.text, context)
            for query, context in contexts.items()
        }
    answers = {query: f.result() for query, f in futures.items() if f.exception() is None}
    errors.update((query, f.exception()) for query, f in futures.items() if query not in answers)
    try:
        similarities = qa_similarity([query.text for query in answers], [*answers.values()], spec)
    except Exception as exc:
        errors.update(dict.fromkeys(answers, exc))
        answers, similarities = {}, []

    failures: list[dict] = []
    for query in sorted(errors, key=lambda query: query.query_id):
        logger.warning("query %s failed: %s", query.query_id, errors[query])
        failures.append(_failure(config_id, query, errors[query]))
    rows = zip(answers.items(), similarities)
    write_jsonl(
        cfg.out / ANSWERS_FILENAME,
        ({"query_id": q.query_id, "answer": a, "qa_similarity": s} for (q, a), s in rows),
    )
    logger.info("generated %d answers -> %s", len(answers), cfg.out / ANSWERS_FILENAME)
    return _failure_budget(cfg.out, failures, len(sampled), "queries")


def _hyperparameters(config: dict, prefix: str = "") -> Iterator[tuple[str, float]]:
    """(trend name, value) for each numeric field of a config dict.

    A field is named "<kind>.<field>"; a nested policy names its fields
    after its own kind, as in "breakpoint.percentile.amount".
    """
    prefix += config["kind"]
    for name, value in config.items():
        if isinstance(value, dict):
            yield from _hyperparameters(value, prefix + ".")
        elif isinstance(value, (int, float)):
            yield f"{prefix}.{name}", value


def cmd_sweep_report(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    results_dir = Path(args.results_dir)
    files = sorted(results_dir.rglob(SUMMARY_FILENAME))
    if not files:
        raise ConfigError(f"no {SUMMARY_FILENAME} files found under {results_dir}")

    metrics = ("recall", "precision", "f1")
    rows: list[dict] = []
    for path in files:
        try:
            text = path.read_bytes().decode("utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8") from exc
        reader = csv.DictReader(io.StringIO(text, newline=""))
        for line in reader:
            where = f"{path}:{reader.line_num}"
            if None in line or None in line.values():
                raise ConfigError(f"{where}: bad summary row: fields do not match the header")
            try:
                config = config_to_dict(config_from_dict(json.loads(line["config"])))
                rows.append(
                    {
                        "path": path,
                        "dataset": line["dataset"],
                        "k": int(line["k"]),
                        "axes": dict(_hyperparameters(config)),
                        **{metric: finite(line[metric], metric) for metric in metrics},
                    }
                )
            except (KeyError, ValueError) as exc:
                raise ConfigError(f"{where}: bad summary row: {exc}") from exc

    # Normalise per (summary file, dataset, k, hyperparameter names): the names fix the
    # chunker and threshold kind, and the file keeps a doc run apart from an evidence run.
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault((row["path"], row["dataset"], row["k"], *row["axes"]), []).append(row)
    # hyperparameter -> value -> {metric sums, count, degenerate flag}
    trends: dict[str, dict[float, dict]] = {}
    for group in groups.values():
        spans = [(m, min(r[m] for r in group), max(r[m] for r in group)) for m in metrics]
        degenerate = any(lo == hi for _, lo, hi in spans)
        for row in group:
            scaled = [0.5 if hi == lo else (row[m] - lo) / (hi - lo) for m, lo, hi in spans]
            for name, value in row["axes"].items():
                cell = trends.setdefault(name, {}).setdefault(
                    value, {"count": 0, "degenerate": False, **dict.fromkeys(metrics, 0.0)}
                )
                cell["count"] += 1
                cell["degenerate"] |= degenerate
                for metric, amount in zip(metrics, scaled):
                    cell[metric] += amount
    for name in _UNSWEPT_FIELDS:
        if len(trends.get(name, ())) == 1:
            del trends[name]

    out_path = cfg.out / TRENDS_FILENAME
    with replacing(out_path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["hyperparameter", "value", "recall", "precision", "f1", "degenerate"])
        for name in sorted(trends):
            for value in sorted(trends[name]):
                cell = trends[name][value]
                means = [f"{cell[metric] / cell['count']:.6f}" for metric in metrics]
                writer.writerow([name, value, *means, 1 if cell["degenerate"] else 0])
    logger.info("wrote trend report for %d hyperparameters -> %s", len(trends), out_path)
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    segdocs, _ = _segmented_corpus(cfg, args.doc_id)

    if args.chunker:
        configs = [_parse_chunker_arg(raw) for raw in args.chunker]
    else:
        configs = [
            config_from_dict(raw)
            for raw in (
                {"kind": "fixed_size", "n_chunks": 3, "overlap": 0},
                {"kind": "breakpoint", "policy": {"kind": "percentile", "amount": 90}},
                {"kind": "single_linkage", "n_clusters": 3, "positional_weight": 0.5},
                {"kind": "dbscan", "eps": 0.3, "min_samples": 2, "positional_weight": 0.5},
            )
        ]
    chunk_corpus = _corpus_chunker(segdocs, configs, cfg.embedder)
    for config in configs:
        print(f"== {canonical_config(config)}")
        for chunk in chunk_corpus(config):
            print(f"{chunk.chunk_id}  sentences {list(chunk.sentence_indices)}")
            print(f"    {chunk.text}")
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chunkbench",
        description="Compare sentence-chunking strategies on retrieval benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None, help="JSON run config file")
    common.add_argument("--dataset", default=None, help="corpus directory override")
    common.add_argument("--seed", type=int, default=None, help="seed override")
    common.add_argument(
        "--jobs", type=int, default=None, help="gen: concurrent generation requests"
    )
    common.add_argument(
        "--embedder", choices=BACKENDS, default=None, help="embedder backend override"
    )
    common.add_argument("--out", default=None, help="output directory override")
    common.add_argument(
        "--abbrev", type=Path, default=None, help="abbreviation list file override"
    )

    p = sub.add_parser("stitch", parents=[common], help="synthesize long documents")
    p.add_argument("--target", type=int, default=None, help="target sentences per document")
    p.set_defaults(func=cmd_stitch)

    p = sub.add_parser("chunk", parents=[common], help="dump chunks for one chunker config")
    p.add_argument("--chunker", required=True, help="chunker config as JSON")
    p.set_defaults(func=cmd_chunk)

    p = sub.add_parser("bench", parents=[common], help="run the retrieval benchmark grid")
    p.add_argument("--task", choices=("doc", "evidence"), required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen", parents=[common], help="generate answers over retrieved chunks")
    p.add_argument("--chunker", required=True, help="chunker config as JSON")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser(
        "sweep-report", parents=[common], help="aggregate summaries into hyperparameter trends"
    )
    p.add_argument("results_dir", type=Path, help="directory searched for summary.csv files")
    p.set_defaults(func=cmd_sweep_report)

    p = sub.add_parser("inspect", parents=[common], help="print chunkings side by side")
    p.add_argument("--doc-id", required=True)
    p.add_argument(
        "--chunker",
        action="append",
        default=None,
        help="chunker config as JSON (repeatable; default: one per family)",
    )
    p.set_defaults(func=cmd_inspect)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ConfigError, CorpusError)) else 1


if __name__ == "__main__":
    sys.exit(main())
