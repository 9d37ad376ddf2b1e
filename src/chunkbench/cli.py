"""Command-line interface: stitch, chunk, bench, gen, sweep-report, inspect.

Exit codes: 0 on success, 1 on runtime failure, 2 on usage or config errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, Iterator, Sequence

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
    CorpusError,
    QueryRecord,
    load_corpus,
    sample_queries,
    stitch,
    write_corpus,
    write_stitch_map,
)
from .embedding import EmbedderSpec, embed_batch
from .evaluation import (
    EvalRecord,
    MetricRow,
    aggregate,
    doc_metrics,
    evidence_metrics,
    select_best_config,
)
from .files import replacing, write_jsonl
from .generation import (
    DEFAULT_CONCURRENCY,
    GenerationConfig,
    generate_answer,
    qa_similarity,
)
from .retrieval import build_index, retrieve
from .segmenter import RuleSegmenter, SegmentedDocument, load_abbreviations, segment_document

logger = logging.getLogger(__name__)

RESULTS_FILENAME = "results.jsonl"
SUMMARY_FILENAME = "summary.csv"
BEST_CONFIGS_FILENAME = "best_configs.json"
FAILURES_FILENAME = "failures.jsonl"
TRENDS_FILENAME = "trends.csv"
ANSWERS_FILENAME = "answers.jsonl"
FAILURE_FRACTION_LIMIT = 0.10
# trends.csv leaves out fields that a grid holds at one value.
_UNSWEPT_FIELDS = ("stop_distance",)


class ConfigError(ValueError):
    """Bad command usage or configuration; maps to exit code 2."""


@dataclass
class RunConfig:
    dataset: Path
    out: Path
    seed: int
    k_list: list[int]
    query_sample: int
    jobs: int
    embedder: EmbedderSpec
    grid: list[ChunkerConfig]
    stitch_target: int
    generation: GenerationConfig | None
    segmenter: RuleSegmenter


def load_run_config(args: argparse.Namespace) -> RunConfig:
    """Merge built-in defaults, the --config file, and command-line overrides."""
    data: dict = {
        "dataset": "data/mini",
        "out": "out",
        "seed": 7,
        "k_list": [1, 3, 5, 10],
        "query_sample": 100,
        "jobs": DEFAULT_CONCURRENCY,
        "embedder": {},
        "grid": None,
        "stitch": {},
        "generation": None,
    }
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text("utf-8"))
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {args.config}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must contain a JSON object")
        for key, value in loaded.items():
            if key not in data:
                raise ConfigError(f"unknown config key {key!r}")
            data[key] = value

    if args.dataset is not None:
        data["dataset"] = str(args.dataset)
    if args.seed is not None:
        data["seed"] = args.seed
    if args.jobs is not None:
        data["jobs"] = args.jobs
    if args.out is not None:
        data["out"] = str(args.out)

    k_list = data["k_list"]
    if (
        not isinstance(k_list, list)
        or not k_list
        or any(not isinstance(k, int) or isinstance(k, bool) or k < 1 for k in k_list)
        or sorted(set(k_list)) != k_list
    ):
        raise ConfigError("k_list must be a strictly ascending list of integers >= 1")
    if not isinstance(data["seed"], int) or isinstance(data["seed"], bool):
        raise ConfigError("seed must be an integer")
    if not isinstance(data["query_sample"], int) or data["query_sample"] < 1:
        raise ConfigError("query_sample must be an integer >= 1")
    if not isinstance(data["jobs"], int) or data["jobs"] < 1:
        raise ConfigError("jobs must be an integer >= 1")

    embedder = _section(data, "embedder", [f.name for f in fields(EmbedderSpec)])
    if args.embedder is not None:
        embedder = {**embedder, "backend": args.embedder}
    spec = _from_section(EmbedderSpec, embedder, "embedder")

    try:
        grid = default_grid() if data["grid"] is None else grid_from_dict(data["grid"])
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"bad grid config: {exc}") from exc

    target = _section(data, "stitch", ("target_sentences",)).get("target_sentences", 100)
    if not isinstance(target, int) or target < 1:
        raise ConfigError("stitch.target_sentences must be an integer >= 1")

    generation = None
    if data["generation"] is not None:
        section = _section(data, "generation", [f.name for f in fields(GenerationConfig)])
        if section.get("endpoint"):
            generation = _from_section(GenerationConfig, section, "generation")

    try:
        segmenter = (
            RuleSegmenter(load_abbreviations(args.abbrev))
            if args.abbrev is not None
            else RuleSegmenter()
        )
    except OSError as exc:
        raise ConfigError(f"cannot read abbreviation list: {exc}") from exc

    return RunConfig(
        dataset=Path(data["dataset"]),
        out=Path(data["out"]),
        seed=data["seed"],
        k_list=list(k_list),
        query_sample=data["query_sample"],
        jobs=data["jobs"],
        embedder=spec,
        grid=grid,
        stitch_target=target,
        generation=generation,
        segmenter=segmenter,
    )


def _section(data: dict, name: str, keys: Sequence[str]) -> dict:
    """data[name], which must be an object with no keys outside keys."""
    section = data[name]
    if not isinstance(section, dict):
        raise ConfigError(f"{name!r} must be an object")
    for key in section:
        if key not in keys:
            raise ConfigError(f"unknown {name} key {key!r}")
    return section


def _from_section(cls: type, section: dict, name: str):
    """cls from a config section; omitted keys take cls's defaults."""
    try:
        return cls(**section)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad {name} config: {exc}") from exc


def _parse_chunker_arg(raw: str) -> ChunkerConfig:
    try:
        return config_from_dict(json.loads(raw))
    except (json.JSONDecodeError, ValueError) as exc:
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


def _sentence_vectors(segdocs, grid, spec):
    """One embedding matrix per document, or None when only fixed-size chunkers run."""
    if all(c.family == "fixed_size" for c in grid):
        return {doc.doc_id: None for doc in segdocs}
    return {doc.doc_id: embed_batch(spec, doc.sentence_texts) for doc in segdocs}


def _corpus_chunker(
    segdocs: Sequence[SegmentedDocument], grid: Sequence[ChunkerConfig], spec: EmbedderSpec
) -> Callable[[ChunkerConfig], list[Chunk]]:
    """Embed the sentences once; the result chunks the corpus under any config of grid.

    Each document's distance state is built when the first clustering
    config reaches it and is reused by every later one.
    """
    vectors = _sentence_vectors(segdocs, grid, spec)
    distances: dict[str, DocumentDistances] = {}

    def chunk_corpus(config: ChunkerConfig) -> list[Chunk]:
        chunks: list[Chunk] = []
        for doc in segdocs:
            embeddings = vectors[doc.doc_id]
            if config.family == "clustering" and doc.doc_id not in distances:
                distances[doc.doc_id] = DocumentDistances(embeddings)
            chunks.extend(
                chunk_document(doc, embeddings, config, distances=distances.get(doc.doc_id))
            )
        return chunks

    return chunk_corpus


def _eligible_queries(
    queries: Sequence[QueryRecord], task: str, sentence_counts: dict[str, int]
) -> tuple[list[QueryRecord], int]:
    """Queries with usable ground truth for the task, plus the excluded count."""
    eligible: list[QueryRecord] = []
    for query in queries:
        if task == "doc":
            if query.relevant_doc_ids:
                eligible.append(query)
            continue
        kept = []
        for doc_id, index in query.evidence:
            if 0 <= index < sentence_counts.get(doc_id, 0):
                kept.append((doc_id, index))
            else:
                logger.warning(
                    "query %s: dropping evidence (%s, %d), index out of range",
                    query.query_id,
                    doc_id,
                    index,
                )
        if kept:
            eligible.append(replace(query, evidence=tuple(kept)))
    return eligible, len(queries) - len(eligible)


def _write_summary_csv(path: Path, dataset: str, rows: Sequence[MetricRow]) -> None:
    with replacing(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["dataset", "chunker", "config", "k", "recall", "precision", "f1", "n_queries"]
        )
        for row in rows:
            writer.writerow(
                [
                    dataset,
                    row.chunker_kind,
                    row.config_id,
                    row.k,
                    f"{row.recall:.6f}",
                    f"{row.precision:.6f}",
                    f"{row.f1:.6f}",
                    row.n_queries,
                ]
            )


def cmd_stitch(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    target = args.target if args.target is not None else cfg.stitch_target
    if target < 1:
        raise ConfigError(f"--target must be >= 1, got {target}")
    documents, queries = load_corpus(cfg.dataset)
    if not documents:
        raise ConfigError(f"corpus at {cfg.dataset} has no documents")
    stitched, remapped = stitch(documents, queries, target, cfg.seed, cfg.segmenter)
    write_corpus([doc.as_document() for doc in stitched], remapped, cfg.out)
    write_stitch_map(stitched, cfg.out / "stitch_map.jsonl")
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
    sampled = sample_queries(queries, cfg.query_sample, cfg.seed) if queries else []
    counts = {doc.doc_id: doc.n for doc in segdocs}
    eligible, excluded = _eligible_queries(sampled, task, counts)
    if excluded:
        logger.warning(
            "excluded %d of %d sampled queries without usable %s ground truth",
            excluded,
            len(sampled),
            task,
        )
    if not eligible:
        raise ConfigError(f"no queries with usable ground truth for task {task!r}")
    eligible.sort(key=lambda q: q.query_id)

    spec = cfg.embedder
    chunk_corpus = _corpus_chunker(segdocs, cfg.grid, spec)
    kmax = max(cfg.k_list)
    dataset_name = cfg.dataset.name or str(cfg.dataset)
    logger.info(
        "bench task=%s: %d configs x %d queries, k=%s", task, len(cfg.grid), len(eligible), cfg.k_list
    )

    summary: list[MetricRow] = []
    failures: list[dict] = []

    def rows() -> Iterator[dict]:
        """The results.jsonl rows, config by config; fills summary and failures."""
        for config in cfg.grid:
            config_id = canonical_config(config)
            try:
                index = build_index(chunk_corpus(config), spec)
            except Exception as exc:
                failures.extend(_failure(config_id, query, exc) for query in eligible)
                logger.warning("config %s failed outright: %s", config_id, exc)
                continue

            def evaluate(query: QueryRecord) -> list[EvalRecord]:
                hits = retrieve(index, query.text, kmax, spec)
                out = []
                for k in cfg.k_list:
                    top = hits[:k]
                    top_chunks = [index.get(chunk_id) for chunk_id, _ in top]
                    if task == "doc":
                        recall, precision, f1 = doc_metrics(top_chunks, query.relevant_doc_ids)
                    else:
                        recall, precision, f1 = evidence_metrics(top_chunks, set(query.evidence))
                    out.append(
                        EvalRecord(
                            query_id=query.query_id,
                            k=k,
                            retrieved_chunk_ids=tuple(chunk_id for chunk_id, _ in top),
                            recall=recall,
                            precision=precision,
                            f1=f1,
                            chunker_kind=config.kind,
                            config_id=config_id,
                        )
                    )
                return out

            config_json = json.loads(config_id)
            records: list[EvalRecord] = []
            for query in eligible:
                try:
                    evaluated = evaluate(query)
                except Exception as exc:
                    failures.append(_failure(config_id, query, exc))
                    continue
                records.extend(evaluated)
                for record in evaluated:
                    yield {
                        "dataset": dataset_name,
                        "task": task,
                        "chunker": record.chunker_kind,
                        "config": config_json,
                        "query_id": record.query_id,
                        "k": record.k,
                        "retrieved_chunk_ids": list(record.retrieved_chunk_ids),
                        "recall": record.recall,
                        "precision": record.precision,
                        "f1": record.f1,
                    }
            summary.extend(aggregate(records))

    write_jsonl(cfg.out / RESULTS_FILENAME, rows())
    # Each config aggregates on its own; one sort gives aggregate's row order.
    summary.sort(key=lambda row: (row.chunker_kind, row.config_id, row.k))
    _write_summary_csv(cfg.out / SUMMARY_FILENAME, dataset_name, summary)

    if summary:
        best = select_best_config(summary, cfg.k_list)
        best_payload = {fam: config_to_dict(config) for fam, config in best.items()}
        with replacing(cfg.out / BEST_CONFIGS_FILENAME) as fh:
            fh.write(json.dumps(best_payload, sort_keys=True, indent=2) + "\n")

    total_attempts = len(cfg.grid) * len(eligible)
    elapsed = time.perf_counter() - started
    logger.info(
        "bench task=%s done: %d records, %d/%d failed evaluations, %.1fs",
        task,
        sum(row.n_queries for row in summary),
        len(failures),
        total_attempts,
        elapsed,
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
    index = build_index(_corpus_chunker(segdocs, [config], cfg.embedder)(config), cfg.embedder)

    def answer_one(query: QueryRecord) -> dict:
        hits = retrieve(index, query.text, gen_cfg.top_k_context, cfg.embedder)
        texts = [index.get(chunk_id).text for chunk_id, _ in hits]
        answer = generate_answer(gen_cfg, query.text, texts)
        return {
            "query_id": query.query_id,
            "answer": answer,
            "qa_similarity": qa_similarity(query.text, answer, cfg.embedder),
        }

    with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
        futures = [pool.submit(answer_one, query) for query in sampled]
    answers: list[dict] = []
    failures: list[dict] = []
    for query, future in zip(sampled, futures):
        try:
            answers.append(future.result())
        except Exception as exc:
            logger.warning("query %s failed: %s", query.query_id, exc)
            failures.append(_failure(config_id, query, exc))

    write_jsonl(cfg.out / ANSWERS_FILENAME, answers)
    logger.info("generated %d answers -> %s", len(answers), cfg.out / ANSWERS_FILENAME)
    return _failure_budget(cfg.out, failures, len(sampled), "queries")


def _hyperparameters(config: dict, prefix: str = "") -> Iterator[tuple[str, float]]:
    """(trend name, value) for each swept numeric field of a config dict.

    A field is named "<kind>.<field>"; a nested policy names its fields
    after its own kind, as in "breakpoint.percentile.amount".
    """
    prefix += config["kind"]
    for name, value in config.items():
        if isinstance(value, dict):
            yield from _hyperparameters(value, prefix + ".")
        elif isinstance(value, (int, float)) and name not in _UNSWEPT_FIELDS:
            yield f"{prefix}.{name}", value


def cmd_sweep_report(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    results_dir = Path(args.results_dir)
    files = sorted(results_dir.rglob(SUMMARY_FILENAME))
    if not files:
        raise ConfigError(f"no {SUMMARY_FILENAME} files found under {results_dir}")

    rows: list[dict] = []
    for path in files:
        with path.open(encoding="utf-8", newline="") as fh:
            for line in csv.DictReader(fh):
                try:
                    config = config_to_dict(config_from_dict(json.loads(line["config"])))
                    rows.append(
                        {
                            "dataset": line["dataset"],
                            "k": int(line["k"]),
                            "axes": dict(_hyperparameters(config)),
                            "recall": float(line["recall"]),
                            "precision": float(line["precision"]),
                            "f1": float(line["f1"]),
                        }
                    )
                except (KeyError, ValueError) as exc:
                    raise ConfigError(f"{path}: bad summary row: {exc}") from exc

    metrics = ("recall", "precision", "f1")
    # hyperparameter -> value -> {metric sums, count, degenerate flag}
    trends: dict[str, dict[float, dict]] = {}
    for name in sorted({name for row in rows for name in row["axes"]}):
        groups: dict[tuple[str, int], list[tuple[float, dict]]] = {}
        for row in rows:
            if name in row["axes"]:
                groups.setdefault((row["dataset"], row["k"]), []).append((row["axes"][name], row))
        accum = trends.setdefault(name, {})
        for group in groups.values():
            spans = {}
            for metric in metrics:
                values = [row[metric] for _, row in group]
                spans[metric] = (min(values), max(values))
            for value, row in group:
                cell = accum.setdefault(
                    value,
                    {metric: 0.0 for metric in metrics} | {"count": 0, "degenerate": False},
                )
                cell["count"] += 1
                for metric in metrics:
                    lo, hi = spans[metric]
                    if hi == lo:
                        cell[metric] += 0.5
                        cell["degenerate"] = True
                    else:
                        cell[metric] += (row[metric] - lo) / (hi - lo)

    out_path = cfg.out / TRENDS_FILENAME
    with replacing(out_path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["hyperparameter", "value", "recall", "precision", "f1", "degenerate"])
        for name in sorted(trends):
            for value in sorted(trends[name]):
                cell = trends[name][value]
                count = cell["count"]
                writer.writerow(
                    [
                        name,
                        value,
                        f"{cell['recall'] / count:.6f}",
                        f"{cell['precision'] / count:.6f}",
                        f"{cell['f1'] / count:.6f}",
                        1 if cell["degenerate"] else 0,
                    ]
                )
    logger.info("wrote trend report for %d hyperparameters -> %s", len(trends), out_path)
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    cfg = load_run_config(args)
    segdocs, _ = _segmented_corpus(cfg, args.doc_id)

    if args.chunker:
        configs = [_parse_chunker_arg(raw) for raw in args.chunker]
    else:
        configs = [
            config_from_dict({"kind": "fixed_size", "n_chunks": 3, "overlap": 0}),
            config_from_dict(
                {"kind": "breakpoint", "policy": {"kind": "percentile", "amount": 90}}
            ),
            config_from_dict(
                {"kind": "single_linkage", "n_clusters": 3, "positional_weight": 0.5}
            ),
            config_from_dict(
                {"kind": "dbscan", "eps": 0.3, "min_samples": 2, "positional_weight": 0.5}
            ),
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
    common.add_argument("--dataset", type=Path, default=None, help="corpus directory override")
    common.add_argument("--seed", type=int, default=None, help="seed override")
    common.add_argument(
        "--jobs", type=int, default=None, help="gen: concurrent generation requests"
    )
    common.add_argument(
        "--embedder", choices=("remote", "test"), default=None, help="embedder backend override"
    )
    common.add_argument("--out", type=Path, default=None, help="output directory override")
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
    except (ConfigError, CorpusError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
