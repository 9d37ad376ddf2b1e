import csv
import hashlib
import json
import logging
import os
import shutil
import subprocess
import sys
import threading
import weakref
from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chunkbench import cli, embedding, generation, retrieval
from chunkbench.chunkers import (
    FixedSizeConfig,
    canonical_config,
    chunk_document,
    config_from_dict,
    config_to_dict,
    default_grid,
    grid_from_dict,
    read_chunks,
)
from chunkbench.cli import (
    RunConfig,
    build_parser,
    load_run_config,
    main,
    results_head,
    results_body,
    results_tail,
)
from chunkbench.corpus import load_corpus
from chunkbench.embedding import EmbedderSpec, deterministic_embed
from chunkbench.segmenter import segment_document

from conftest import MINI_DATASET, REPO_ROOT, new_process, set_store_row, store_rows
from reference import bench_rows_reference

SMALL_GRID = {
    "fixed_size": {"n_chunks": [3], "overlap": [0, 1]},
    "breakpoint": {"percentile": [50, 90]},
    "single_linkage": {
        "n_clusters": [3],
        "positional_weight": [0.5],
        "stop_distance": 0.5,
    },
    "dbscan": {"eps": [0.3], "min_samples": [2], "positional_weight": [0.5]},
}


def write_config(tmp_path, **overrides):
    payload = {"grid": SMALL_GRID, "k_list": [1, 3], "embedder": {"dimension": 64}}
    payload.update(overrides)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def run(argv):
    return main([str(a) for a in argv])


def write_corpus_dir(tmp_path, queries=None, docs=True):
    """A corpus directory holding data/mini's documents (or an empty
    docs.jsonl) and, when given, these query objects."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    docs_bytes = (MINI_DATASET / "docs.jsonl").read_bytes() if docs else b""
    (corpus / "docs.jsonl").write_bytes(docs_bytes)
    if queries is not None:
        lines = "".join(json.dumps(query) + "\n" for query in queries)
        (corpus / "queries.jsonl").write_text(lines, encoding="utf-8")
    return corpus


def mini_queries():
    lines = (MINI_DATASET / "queries.jsonl").read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines]


class TestExitCodes:
    def test_unknown_config_key_is_a_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"datsaet": "typo"}), encoding="utf-8")
        code = run(
            ["bench", "--task", "doc", "--config", bad, "--dataset", MINI_DATASET,
             "--out", tmp_path / "out"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload, flags, source, message",
        [
            ({"datsaet": "x"}, [], "file", "unknown key 'datsaet'"),
            ({"seed": -1}, [], "file", "seed must be >= 0, got -1"),
            ({"seed": -1}, ["--seed", "-2"], "command line", "seed must be >= 0, got -2"),
            ({}, ["--seed", "-2"], "command line", "seed must be >= 0, got -2"),
            ({"seed": -1}, ["--seed", "3", "--jobs", "0"], "command line", "jobs must be >= 1"),
            ({}, ["--embedder", "remote"], "command line", "embedder: remote backend requires"),
        ],
        ids=["file-key", "file-value", "flag-over-file", "flag", "second-flag", "flag-section"],
    )
    def test_run_config_errors_name_their_source(
        self, tmp_path, capsys, payload, flags, source, message
    ):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(payload), encoding="utf-8")
        code = run(["stitch", "--config", cfg, "--dataset", MINI_DATASET,
                    "--out", tmp_path / "out", *flags])
        assert code == 2
        prefix = f"{cfg}: " if source == "file" else "command line: "
        assert f"error: {prefix}{message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flag, content, message",
        [
            ("--config", None, "cannot read config file {path}: [Errno 21] Is a directory"),
            ("--config", b"\xff{}", "cannot read config file {path}: 'utf-8' codec"),
            ("--config", b"[1]", "{path}: must contain a JSON object"),
            ("--config", b"[1" + b"0" * 5000 + b"]", "{path}: not valid JSON: Exceeds the limit"),
            ("--abbrev", None, "cannot read abbreviation list {path}: [Errno 21] Is a dir"),
            ("--abbrev", b"e.g.\n\xff\n", "cannot read abbreviation list {path}: 'utf-8'"),
        ],
        ids=["config-dir", "config-bytes", "config-list", "config-digits", "abbrev-dir",
             "abbrev-bytes"],
    )
    def test_unreadable_file_names_it(self, tmp_path, capsys, flag, content, message):
        path = tmp_path / "input"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        code = run(["stitch", flag, path, "--dataset", MINI_DATASET, "--out", tmp_path / "out"])
        assert code == 2
        assert f"error: {message.format(path=path)}" in capsys.readouterr().err

    def test_bad_chunker_json(self, tmp_path, capsys):
        code = run(
            ["chunk", "--chunker", "{not json", "--dataset", MINI_DATASET,
             "--out", tmp_path / "out"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_chunker_kind(self, tmp_path, capsys):
        code = run(
            ["chunk", "--chunker", json.dumps({"kind": "semantic_magic"}),
             "--dataset", MINI_DATASET, "--out", tmp_path / "out"]
        )
        assert code == 2

    def test_missing_dataset_directory(self, tmp_path, capsys):
        code = run(
            ["bench", "--task", "doc", "--dataset", tmp_path / "nowhere",
             "--out", tmp_path / "out"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_queries_line_is_a_usage_error(self, tmp_path, capsys):
        (tmp_path / "docs.jsonl").write_text(
            json.dumps({"doc_id": "d1", "text": "One. Two."}) + "\n", encoding="utf-8"
        )
        (tmp_path / "queries.jsonl").write_text(
            json.dumps({"query_id": "q1", "text": "x", "relevant_doc_ids": [["d1"]]}) + "\n",
            encoding="utf-8",
        )
        code = run(["bench", "--task", "doc", "--dataset", tmp_path, "--out", tmp_path / "out"])
        assert code == 2
        assert "error: queries.jsonl:1: relevant_doc_ids[0] must be a string" in (
            capsys.readouterr().err
        )

    def test_unsorted_k_list_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, k_list=[3, 1])
        code = run(
            ["bench", "--task", "doc", "--config", cfg, "--dataset", MINI_DATASET,
             "--out", tmp_path / "out"]
        )
        assert code == 2

    def test_inspect_unknown_doc_id(self, tmp_path, capsys):
        code = run(["inspect", "--doc-id", "missing-doc", "--dataset", MINI_DATASET])
        assert code == 2
        assert "missing-doc" in capsys.readouterr().err

    def test_stitch_bad_target(self, tmp_path, capsys):
        code = run(
            ["stitch", "--target", "0", "--dataset", MINI_DATASET, "--out", tmp_path / "out"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "overrides, chunker, key",
        [
            ({}, {"kind": "fixed_size", "n_chunks": 2, "overlpa": 1}, "overlpa"),
            ({"grid": {"fixed_size": {"n_chunks": [2], "overlaps": [0]}}}, None, "overlaps"),
            ({"embedder": {"dimensions": 64}}, None, "dimensions"),
            ({"generation": {"endpoint": "http://x", "top_k": 3}}, None, "top_k"),
            ({"stitch": {"target": 30}}, None, "target"),
            (
                {},
                {"kind": "breakpoint", "policy": {"kind": "std_dev", "amount": 1, "std_mode": "x"}},
                "std_mode",
            ),
        ],
        ids=["chunker", "grid", "embedder", "generation", "stitch", "policy"],
    )
    def test_unknown_section_key_names_it(self, tmp_path, capsys, overrides, chunker, key):
        cfg = write_config(tmp_path, **overrides)
        chunker = chunker or {"kind": "fixed_size", "n_chunks": 2}
        code = run(
            ["chunk", "--chunker", json.dumps(chunker), "--config", cfg,
             "--dataset", MINI_DATASET, "--out", tmp_path / "out"]
        )
        assert code == 2
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "overrides, key",
        [
            pytest.param({"dataset": 5}, "dataset", id="dataset"),
            pytest.param({"out": 5}, "out", id="out"),
            pytest.param({"seed": -1}, "seed", id="seed"),
            pytest.param({"query_sample": True}, "query_sample", id="query_sample"),
            pytest.param({"jobs": True}, "jobs", id="jobs"),
            pytest.param(
                {"stitch": {"target_sentences": True}}, "stitch.target_sentences", id="stitch"
            ),
        ],
    )
    def test_bad_value_type_names_the_key(self, tmp_path, capsys, overrides, key):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, **{"dataset": str(MINI_DATASET), "out": str(out), **overrides})
        assert run(["stitch", "--config", cfg]) == 2
        assert f"error: {cfg}: {key} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, chunker, key",
        [
            pytest.param({"embedder": {"dimension": 64.0}}, None, "embedder.dimension", id="dim"),
            pytest.param(
                {"embedder": {"batch_size": True}}, None, "embedder.batch_size", id="batch"
            ),
            pytest.param({"embedder": {"model_id": 5}}, None, "embedder.model_id", id="model"),
            pytest.param(
                {"generation": {"endpoint": "http://localhost:1", "max_retries": True}},
                None,
                "generation.max_retries",
                id="retries",
            ),
            pytest.param(
                {"grid": {"fixed_size": {"n_chunks": [True]}}},
                None,
                "fixed_size.n_chunks",
                id="grid-true",
            ),
            pytest.param(
                {"grid": {"fixed_size": {"n_chunks": [2.7]}}},
                None,
                "fixed_size.n_chunks",
                id="grid-float",
            ),
            pytest.param(
                {"grid": {"fixed_size": {"n_chunks": ["3"]}}},
                None,
                "fixed_size.n_chunks",
                id="grid-string",
            ),
            pytest.param(
                {"grid": {"dbscan": {"eps": [True], "min_samples": 2, "positional_weight": 0}}},
                None,
                "dbscan.eps",
                id="grid-eps",
            ),
            pytest.param(
                {}, {"kind": "fixed_size", "n_chunks": True}, "fixed_size.n_chunks", id="chunker"
            ),
        ],
    )
    def test_wrong_typed_value_exits_2_naming_its_key(
        self, tmp_path, capsys, overrides, chunker, key
    ):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, **overrides)
        argv = ["--config", cfg, "--dataset", MINI_DATASET, "--out", out]
        if chunker is None:
            code = run(["bench", "--task", "doc", *argv])
        else:
            code = run(["chunk", "--chunker", json.dumps(chunker), *argv])
        assert code == 2
        assert f"{key} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "number, message",
        [
            ("NaN", "must be a finite number, got nan"),
            ("Infinity", "must be a finite number, got inf"),
            ("-Infinity", "must be a finite number, got -inf"),
            ("1" + "0" * 400, "is too large for a float"),
        ],
        ids=["nan", "inf", "-inf", "huge"],
    )
    @pytest.mark.parametrize("source", ["grid", "chunker"])
    def test_a_number_that_is_not_finite_exits_2_naming_its_source(
        self, tmp_path, capsys, number, message, source
    ):
        out = tmp_path / "out"
        dbscan = f'"eps": {number}, "min_samples": 2, "positional_weight": 0.5'
        argv = ["--dataset", MINI_DATASET, "--out", out]
        if source == "grid":
            cfg = tmp_path / "run.json"
            cfg.write_text(f'{{"grid": {{"dbscan": {{{dbscan}}}}}}}', encoding="utf-8")
            code = run(["bench", "--task", "doc", "--config", cfg, *argv])
            prefix = f"{cfg}: bad grid config: "
        else:
            chunker = f'{{"kind": "dbscan", {dbscan}}}'
            code = run(["chunk", "--chunker", chunker, *argv])
            prefix = f"bad --chunker value {chunker!r}: "
        assert code == 2
        assert f"error: {prefix}dbscan.eps {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "generation, message",
        [
            ({}, "generation.endpoint is required"),
            ({"model_id": "m"}, "generation.endpoint is required"),
            ({"endpoint": ""}, "generation: endpoint must be non-empty"),
            (5, "generation must be an object or null, got 5"),
        ],
        ids=["empty", "model-only", "blank-endpoint", "number"],
    )
    def test_generation_object_must_name_an_endpoint(self, tmp_path, capsys, generation, message):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, generation=generation)
        code = run(
            ["bench", "--task", "doc", "--config", cfg, "--dataset", MINI_DATASET, "--out", out]
        )
        assert code == 2
        assert f"error: {cfg}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_whitespace_only_document_names_file_and_line(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        docs = (MINI_DATASET / "docs.jsonl").read_text(encoding="utf-8").splitlines()
        docs[2] = json.dumps({"doc_id": "blank", "text": "   "})
        (corpus / "docs.jsonl").write_text("\n".join(docs) + "\n", encoding="utf-8")
        code = run(["bench", "--task", "doc", "--dataset", corpus, "--out", tmp_path / "out"])
        assert code == 2
        assert "docs.jsonl:3" in capsys.readouterr().err

    def test_document_that_is_not_utf8_names_file_and_line(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        docs = (MINI_DATASET / "docs.jsonl").read_bytes().splitlines(keepends=True)
        docs[3] = docs[3].replace(b"a", b"\xff", 1)
        (corpus / "docs.jsonl").write_bytes(b"".join(docs))
        code = run(["bench", "--task", "doc", "--dataset", corpus, "--out", tmp_path / "out"])
        assert code == 2
        assert "error: docs.jsonl:4: not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["docs.jsonl", "queries.jsonl"])
    def test_corpus_file_that_cannot_be_read_names_it(self, tmp_path, capsys, name):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for other in ("docs.jsonl", "queries.jsonl"):
            if other != name:
                (corpus / other).write_bytes((MINI_DATASET / other).read_bytes())
        (corpus / name).mkdir()
        code = run(["bench", "--task", "doc", "--dataset", corpus, "--out", tmp_path / "out"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: cannot read {corpus / name}: [Errno 21] Is a directory" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["bench", "--task", "doc"], ["stitch"]])
    def test_corpus_without_documents(self, tmp_path, capsys, command):
        corpus = write_corpus_dir(tmp_path, docs=False)
        out = tmp_path / "out"
        assert run([*command, "--dataset", corpus, "--out", out]) == 2
        assert f"error: corpus at {corpus} has no documents" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("task", ["doc", "evidence"])
    def test_no_query_with_usable_ground_truth(self, tmp_path, capsys, caplog, task):
        # No relevant documents for the doc task, and only out-of-range
        # evidence for the evidence task.
        query = {"query_id": "q1", "text": "Where do bees go?",
                 "evidence": [{"doc_id": "honeybee-hives", "sentence_index": 999}]}
        corpus = write_corpus_dir(tmp_path, [query])
        out = tmp_path / "out"
        with caplog.at_level(logging.WARNING, logger="chunkbench.cli"):
            code = run(["bench", "--task", task, "--dataset", corpus, "--out", out])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: no queries with usable ground truth for task {task!r}" in err
        warnings = [record.getMessage() for record in caplog.records]
        assert f"excluded 1 of 1 sampled queries without usable {task} ground truth" in warnings
        assert not out.exists()

    def test_gen_on_a_corpus_without_queries(self, tmp_path, capsys):
        corpus = write_corpus_dir(tmp_path)
        # Never contacted: the run stops before any request.
        cfg = write_config(tmp_path, generation={"endpoint": "http://127.0.0.1:9/generate"})
        code = run(
            ["gen", "--chunker", json.dumps({"kind": "fixed_size", "n_chunks": 3, "overlap": 0}),
             "--config", cfg, "--dataset", corpus, "--out", tmp_path / "out"]
        )
        assert code == 2
        assert f"error: corpus at {corpus} has no queries" in capsys.readouterr().err

    def test_gen_without_generation_section(self, tmp_path, capsys):
        code = run(
            ["gen", "--chunker", json.dumps({"kind": "fixed_size", "n_chunks": 3, "overlap": 0}),
             "--dataset", MINI_DATASET, "--out", tmp_path / "out"]
        )
        assert code == 2
        assert "generation" in capsys.readouterr().err


class TestRunConfig:
    def test_checked_in_config_file_loads_whole(self):
        # The file spells out the defaults: every init field but grid loads equal
        # to a no-file run's, and grid, which the defaults leave null, expands to
        # the same configs with the same canonical ids.
        path = REPO_ROOT / "configs" / "default.json"
        cfg = load_run_config(
            build_parser().parse_args(["bench", "--task", "doc", "--config", str(path)])
        )
        defaults = load_run_config(build_parser().parse_args(["bench", "--task", "doc"]))
        names = [f.name for f in fields(RunConfig) if f.init and f.name != "grid"]
        for name in names + ["configs"]:
            assert getattr(cfg, name) == getattr(defaults, name), name
        assert [canonical_config(c) for c in cfg.configs] == [
            canonical_config(c) for c in defaults.configs
        ]

    def test_no_file_gives_the_defaults(self):
        cfg = load_run_config(build_parser().parse_args(["bench", "--task", "doc"]))
        assert cfg.configs == default_grid()
        assert cfg.embedder == EmbedderSpec()
        assert cfg.stitch.target_sentences == 100

    def test_command_line_overrides_the_file(self, tmp_path):
        cfg_path = write_config(tmp_path, seed=3, stitch={"target_sentences": 40})
        args = build_parser().parse_args(
            ["stitch", "--config", str(cfg_path), "--seed", "5", "--target", "20",
             "--embedder", "test", "--out", str(tmp_path / "o")]
        )
        cfg = load_run_config(args)
        assert (cfg.seed, cfg.stitch.target_sentences, cfg.out) == (5, 20, tmp_path / "o")
        assert cfg.embedder == EmbedderSpec(backend="test", dimension=64)


class TestStitchCommand:
    def test_writes_corpus_and_map(self, tmp_path):
        out = tmp_path / "stitched"
        code = run(
            ["stitch", "--target", "30", "--seed", "7",
             "--dataset", MINI_DATASET, "--out", out]
        )
        assert code == 0
        documents, queries = load_corpus(out)
        assert documents and queries
        assert all(d.doc_id.startswith("stitched-") for d in documents)
        map_lines = [
            json.loads(line)
            for line in (out / "stitch_map.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        assert {row["doc_id"] for row in map_lines} == {d.doc_id for d in documents}
        sources = [src for row in map_lines for src in row["source_doc_ids"]]
        original_docs, _ = load_corpus(MINI_DATASET)
        assert sorted(sources) == sorted(d.doc_id for d in original_docs)

    def test_deterministic_for_seed(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(
                ["stitch", "--target", "25", "--seed", "11",
                 "--dataset", MINI_DATASET, "--out", out]
            ) == 0
            outs.append((out / "docs.jsonl").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("out", ["corpus", "./corpus"], ids=["same", "dot-spelled"])
    def test_refuses_to_write_over_its_source(self, tmp_path, monkeypatch, capsys, out):
        corpus = tmp_path / "corpus"
        shutil.copytree(MINI_DATASET, corpus)
        before = {path.name: path.read_bytes() for path in corpus.iterdir()}
        monkeypatch.chdir(tmp_path)
        assert run(["stitch", "--dataset", corpus, "--out", out]) == 2
        assert f"would overwrite its source corpus: --out is {corpus}" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in corpus.iterdir()} == before

    @pytest.mark.parametrize("fault", [1, 2, 3], ids=["docs", "queries", "stitch-map"])
    def test_an_interrupted_restitch_leaves_no_older_queries(self, tmp_path, monkeypatch, fault):
        """A re-stitch over an older stitch whose docs, queries or stitch-map rename
        fails leaves the complete new corpus or a corpus without queries, never the
        older stitch's queries, whose evidence would load against the positional ids
        of the new documents."""

        def stitch(out, seed):
            return run(["stitch", "--target", "30", "--seed", seed,
                        "--dataset", MINI_DATASET, "--out", out])

        assert stitch(tmp_path / "new", 8) == 0
        new = load_corpus(tmp_path / "new")
        out = tmp_path / "out"
        assert stitch(out, 7) == 0
        assert load_corpus(out)[1] != new[1]
        renamed, real = [], os.replace

        def replace(src, dst):
            renamed.append(dst)
            if len(renamed) == fault:
                raise OSError(f"cannot replace {dst}")
            real(src, dst)

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", replace)
            assert stitch(out, 8) == 1
        assert len(renamed) == fault
        documents, queries = load_corpus(out)
        if queries:
            assert (documents, queries) == new
        else:
            assert run(["bench", "--task", "doc", "--dataset", out, "--out", tmp_path / "b"]) == 2


class TestChunkCommand:
    def test_writes_chunks_for_every_document(self, tmp_path):
        out = tmp_path / "chunks"
        code = run(
            ["chunk",
             "--chunker", json.dumps({"kind": "fixed_size", "n_chunks": 3, "overlap": 0}),
             "--dataset", MINI_DATASET, "--out", out]
        )
        assert code == 0
        chunks = read_chunks(out / "chunks.jsonl")
        documents, _ = load_corpus(MINI_DATASET)
        assert {c.doc_id for c in chunks} == {d.doc_id for d in documents}
        by_doc = {}
        for chunk in chunks:
            by_doc.setdefault(chunk.doc_id, []).append(chunk)
        assert all(len(v) == 3 for v in by_doc.values())

    def test_breakpoint_chunker_accepted(self, tmp_path):
        out = tmp_path / "bp"
        code = run(
            ["chunk",
             "--chunker", json.dumps(
                 {"kind": "breakpoint", "policy": {"kind": "percentile", "amount": 90}}
             ),
             "--dataset", MINI_DATASET, "--out", out]
        )
        assert code == 0
        assert read_chunks(out / "chunks.jsonl")


class TestBenchCommand:
    def bench(self, tmp_path, task, name):
        cfg = write_config(tmp_path)
        out = tmp_path / name
        code = run(
            ["bench", "--task", task, "--config", cfg, "--seed", "7",
             "--dataset", MINI_DATASET, "--out", out]
        )
        assert code == 0
        return out

    def test_doc_task_outputs(self, tmp_path):
        out = self.bench(tmp_path, "doc", "doc-run")
        rows = [
            json.loads(line)
            for line in (out / "results.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        # 6 grid configs x 10 queries x 2 k values
        assert len(rows) == 6 * 10 * 2
        assert {r["task"] for r in rows} == {"doc"}
        assert {r["k"] for r in rows} == {1, 3}
        sample = rows[0]
        assert set(sample) >= {
            "dataset", "task", "chunker", "config", "query_id", "k",
            "retrieved_chunk_ids", "recall", "precision", "f1",
        }
        for row in rows:
            assert 0.0 <= row["recall"] <= 1.0
            assert 0.0 <= row["precision"] <= 1.0
            assert len(row["retrieved_chunk_ids"]) <= row["k"]

        with (out / "summary.csv").open(encoding="utf-8", newline="") as fh:
            summary = list(csv.DictReader(fh))
        assert len(summary) == 6 * 2
        assert all(row["n_queries"] == "10" for row in summary)

        best = json.loads((out / "best_configs.json").read_text(encoding="utf-8"))
        assert set(best) == {"fixed_size", "breakpoint", "clustering"}
        assert best["clustering"]["kind"] in {"single_linkage", "dbscan"}

    def test_evidence_task_runs(self, tmp_path):
        out = self.bench(tmp_path, "evidence", "ev-run")
        rows = [
            json.loads(line)
            for line in (out / "results.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        assert {r["task"] for r in rows} == {"evidence"}
        assert any(r["recall"] > 0 for r in rows)

    def test_reruns_are_byte_identical(self, tmp_path):
        first = self.bench(tmp_path, "doc", "run-one")
        second = self.bench(tmp_path, "doc", "run-two")
        for name in ("results.jsonl", "summary.csv", "best_configs.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_no_failures_file_on_clean_run(self, tmp_path):
        out = self.bench(tmp_path, "doc", "clean-run")
        # Neither failures.jsonl nor any leftover temp file.
        assert sorted(p.name for p in out.iterdir()) == [
            "best_configs.json", "results.jsonl", "summary.csv"
        ]

    def test_a_run_that_scores_nothing_removes_old_best_configs(self, tmp_path, monkeypatch):
        out = self.bench(tmp_path, "doc", "out")
        assert (out / "best_configs.json").exists()

        def fail(*args, **kwargs):
            raise RuntimeError("index build failed")

        monkeypatch.setattr("chunkbench.cli.build_index", fail)
        assert run(["bench", "--task", "doc", "--config", tmp_path / "run.json",
                    "--dataset", MINI_DATASET, "--out", out]) == 1
        assert sorted(p.name for p in out.iterdir()) == [
            "failures.jsonl", "results.jsonl", "summary.csv"
        ]
        assert (out / "results.jsonl").read_text(encoding="utf-8") == ""

    def test_a_query_that_fails_loses_only_its_rows_at_the_failure_limit(
        self, tmp_path, monkeypatch
    ):
        """One query of ten failing under every config of the default grid is
        218 of 2,180 evaluations, exactly the 10% limit: the run exits 0."""
        victim = mini_queries()[3]
        real = cli.retrieve

        def ranking(index, text, k):
            if text == victim["text"]:
                raise RuntimeError("query ranking failed")
            return real(index, text, k)

        monkeypatch.setattr(cli, "retrieve", ranking)
        cfg = write_config(tmp_path, grid=None, k_list=[1, 3, 5, 10])
        out = tmp_path / "out"
        assert run(["bench", "--task", "doc", "--config", cfg, "--dataset", MINI_DATASET,
                    "--out", out]) == 0
        failures = [
            json.loads(line)
            for line in (out / "failures.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        assert len(failures) == 218
        assert {(f["query_id"], f["error"]) for f in failures} == {
            (victim["query_id"], "query ranking failed")
        }
        assert [f["config"] for f in failures] == [canonical_config(c) for c in default_grid()]
        rows = [
            json.loads(line)
            for line in (out / "results.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        assert len(rows) == 7848
        assert victim["query_id"] not in {row["query_id"] for row in rows}
        with (out / "summary.csv").open(encoding="utf-8", newline="") as fh:
            assert {row["n_queries"] for row in csv.DictReader(fh)} == {"9"}

    def test_close_scores_resolve_exactly_and_keep_the_reference_rows(
        self, tmp_path, monkeypatch
    ):
        """A default-grid data/mini doc run gives 1,274 rows their exact scores,
        and writes the reference loop's rows byte for byte: the exact scores
        order them as its float64 C @ q does there."""
        resolved: list[int] = []
        real = retrieval.ScoreTable.exact

        def exact(table, query, rows):
            resolved.extend(rows)
            return real(table, query, rows)

        monkeypatch.setattr(retrieval.ScoreTable, "exact", exact)
        k_list = [1, 3, 5, 10]
        cfg = write_config(tmp_path, grid=None, k_list=k_list, embedder={})
        out = tmp_path / "out"
        assert run(["bench", "--task", "doc", "--config", cfg, "--dataset", MINI_DATASET,
                    "--out", out]) == 0
        assert len(resolved) == 1274
        dimension = EmbedderSpec().dimension
        expected = bench_rows_reference(MINI_DATASET, "doc", default_grid(), k_list, dimension)
        assert (out / "results.jsonl").read_text(encoding="utf-8") == "".join(
            json.dumps(row, sort_keys=True) + "\n" for row in expected
        )

    def test_a_failed_query_embedding_fails_the_run_and_leaves_the_last(
        self, tmp_path, monkeypatch, capsys
    ):
        """The queries are embedded in one batch as the run's score table is
        made, before any config: like a failed sentence embedding, a failure
        there ends the run with exit 1 and no output file replaced."""
        out = self.bench(tmp_path, "doc", "out")
        names = ("results.jsonl", "summary.csv", "best_configs.json")
        before = {name: (out / name).read_bytes() for name in names}
        texts = {query["text"] for query in mini_queries()}
        real = retrieval.embed_batch

        def embed(spec, batch):
            if texts & set(batch):
                raise embedding.EmbeddingError("embedding backend failed")
            return real(spec, batch)

        monkeypatch.setattr(retrieval, "embed_batch", embed)
        assert run(["bench", "--task", "doc", "--config", tmp_path / "run.json",
                    "--dataset", MINI_DATASET, "--out", out]) == 1
        assert "error: embedding backend failed" in capsys.readouterr().err
        assert {name: (out / name).read_bytes() for name in names} == before
        assert not (out / "failures.jsonl").exists()

    def test_out_of_range_evidence_is_dropped_with_a_warning(self, tmp_path, caplog):
        queries = mini_queries()
        first, second = queries[0], queries[1]
        first["evidence"].append({"doc_id": first["evidence"][0]["doc_id"], "sentence_index": 999})
        second["evidence"] = [{"doc_id": second["evidence"][0]["doc_id"], "sentence_index": 50}]
        corpus = write_corpus_dir(tmp_path, queries)
        cfg = write_config(tmp_path)
        with caplog.at_level(logging.WARNING, logger="chunkbench.cli"):
            assert run(["bench", "--task", "evidence", "--config", cfg, "--dataset", corpus,
                        "--out", tmp_path / "out"]) == 0
        warnings = [record.getMessage() for record in caplog.records]
        dropped = f"({first['evidence'][0]['doc_id']}, 999), index out of range"
        assert f"query {first['query_id']}: dropping evidence {dropped}" in warnings
        assert "excluded 1 of 10 sampled queries without usable evidence ground truth" in warnings

        def rows(out, query_id):
            lines = (out / "results.jsonl").read_text(encoding="utf-8").splitlines()
            found = [json.loads(line) for line in lines]
            return [{**row, "dataset": None} for row in found if row["query_id"] == query_id]

        clean = self.bench(tmp_path, "evidence", "clean")
        # The first query scores on its in-range evidence alone; the second is gone.
        assert rows(tmp_path / "out", first["query_id"]) == rows(clean, first["query_id"])
        assert rows(tmp_path / "out", second["query_id"]) == []
        with (tmp_path / "out" / "summary.csv").open(encoding="utf-8", newline="") as fh:
            assert {row["n_queries"] for row in csv.DictReader(fh)} == {"9"}

    def test_a_fault_outside_the_per_query_try_leaves_the_last_run(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        argv = ["bench", "--task", "doc", "--config", cfg, "--dataset", MINI_DATASET, "--out", out]
        assert run(argv) == 0
        names = ("results.jsonl", "summary.csv", "best_configs.json")
        before = {name: (out / name).read_bytes() for name in names}
        calls = counting(monkeypatch, "aggregate", fail_on=2)
        assert run(argv) == 1
        assert len(calls) == 2
        assert {name: (out / name).read_bytes() for name in names} == before
        assert not list(out.glob("*.tmp"))

    def test_torn_cache_entry_heals(self, tmp_path):
        cache = tmp_path / "c"
        cfg = write_config(tmp_path, embedder={"dimension": 64, "cache_dir": str(cache)})
        outs = [bench_as_a_new_process(cfg, tmp_path / "fill")]
        rows = store_rows(cache)
        victim = sorted(rows)[0]
        set_store_row(cache, victim, rows[victim][:-5])
        outs.append(bench_as_a_new_process(cfg, tmp_path / "torn"))
        for name in ("results.jsonl", "summary.csv", "best_configs.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        assert not (outs[1] / "failures.jsonl").exists()
        assert store_rows(cache) == rows

    @pytest.mark.parametrize("damage", ["garbage", "half"])
    def test_a_vector_store_that_is_not_a_database_heals(self, tmp_path, caplog, damage):
        cache = tmp_path / "c"
        cfg = write_config(tmp_path, embedder={"dimension": 64, "cache_dir": str(cache)})
        outs = [bench_as_a_new_process(cfg, tmp_path / "fill")]
        rows = store_rows(cache)
        store = cache / "vectors.sqlite"
        data = store.read_bytes()
        store.write_bytes(os.urandom(4096) if damage == "garbage" else data[: len(data) // 2])
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="chunkbench"):
            outs.append(bench_as_a_new_process(cfg, tmp_path / "healed"))
        (warning,) = [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert str(store) in warning.getMessage()
        for name in ("results.jsonl", "summary.csv", "best_configs.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        assert store_rows(cache) == rows
        # Unreadable again in the same process: an error that leaves the file
        # alone, not another fresh store.
        embedding._MEMO.clear()
        garbage = os.urandom(4096)
        store.write_bytes(garbage)
        caplog.clear()
        with pytest.raises(embedding.EmbeddingError, match="cannot open vector store"):
            embedding.embed_batch(EmbedderSpec(dimension=64, cache_dir=cache), ["again"])
        assert caplog.records == []
        assert store.read_bytes() == garbage

    def test_two_processes_fill_one_empty_cache_together(self, tmp_path):
        cache = tmp_path / "c"
        cfg = write_config(tmp_path, embedder={"cache_dir": str(cache)})
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "chunkbench", "bench", "--task", "doc", "--config", cfg,
                 "--dataset", MINI_DATASET, "--out", tmp_path / name],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            )
            for name in ("a", "b")
        ]
        errors = [proc.communicate(timeout=120)[1] for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0], errors
        for name in ("results.jsonl", "summary.csv", "best_configs.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert [path.name for path in cache.iterdir()] == ["vectors.sqlite"]
        # Every row is the one a single process writes.
        alone = write_config(tmp_path, embedder={"cache_dir": str(tmp_path / "alone")})
        assert run(["bench", "--task", "doc", "--config", alone, "--dataset", MINI_DATASET,
                    "--out", tmp_path / "alone-out"]) == 0
        assert store_rows(cache) == store_rows(tmp_path / "alone")


def bench_as_a_new_process(cfg, out):
    """Run bench --task doc on data/mini into out, with the embedding memo
    and vector stores of a new process; returns out."""
    new_process()
    assert run(["bench", "--task", "doc", "--config", cfg, "--dataset", MINI_DATASET,
                "--out", out]) == 0
    return out


def counting(monkeypatch, name, fail_on=None, module=cli):
    """Wrap module.<name> (chunkbench.cli's by default) with a call counter;
    call number fail_on raises."""
    calls = []
    real = getattr(module, name)

    def wrapped(*args, **kwargs):
        calls.append(args)
        if len(calls) == fail_on:
            raise RuntimeError(f"{name} failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return calls


def lines_by_config(out):
    """results.jsonl's lines under out, grouped by their config's canonical id."""
    by_config: dict[str, list[str]] = {}
    for line in (out / "results.jsonl").read_text(encoding="utf-8").splitlines(keepends=True):
        config_id = canonical_config(config_from_dict(json.loads(line)["config"]))
        by_config.setdefault(config_id, []).append(line)
    return by_config


class TestIndexReuse:
    @pytest.mark.parametrize("task", ["doc", "evidence"])
    def test_equal_chunkings_share_one_index(self, tmp_path, monkeypatch, task):
        builds = counting(monkeypatch, "build_index")
        retrieves = counting(monkeypatch, "retrieve")
        metrics = counting(monkeypatch, "doc_metrics" if task == "doc" else "evidence_metrics")
        assert run(["bench", "--task", task, "--dataset", MINI_DATASET,
                    "--out", tmp_path / "out"]) == 0
        # With the default run config, the 218 default-grid configs chunk data/mini
        # in 69 distinct ways, each built once.
        assert len(builds) == 69
        assert len(retrieves) == 218 * 10
        # Each distinct chunking scores each of the 10 queries once per k of [1, 3, 5, 10].
        assert len(metrics) == 69 * 10 * 4

    @pytest.mark.parametrize("task", ["doc", "evidence"])
    def test_each_chunk_text_and_query_is_embedded_once_per_run(self, tmp_path, monkeypatch, task):
        builds = counting(monkeypatch, "build_index")
        embeds = counting(monkeypatch, "embed_batch", module=retrieval)
        assert run(["bench", "--task", task, "--dataset", MINI_DATASET,
                    "--out", tmp_path / "out"]) == 0
        assert len(builds) == 69
        queries = {query.text for query in load_corpus(MINI_DATASET)[1]}
        query_embeds = [texts for _, texts in embeds if texts[0] in queries]
        chunk_texts = [text for _, texts in embeds if texts[0] not in queries for text in texts]
        # The 391 distinct chunk texts of the default grid on data/mini, each
        # embedded once however many of the 69 builds hold it.
        assert len(chunk_texts) == len(set(chunk_texts)) == 391
        # Every query in one call, as the run's score table is made.
        assert len(query_embeds) == 1
        assert sorted(query_embeds[0]) == sorted(queries)

    def bench(self, tmp_path, name, n_chunks, overlap=(0,)):
        """bench --task doc on data/mini over a fixed-size grid; its lines by config."""
        grid = {"fixed_size": {"n_chunks": list(n_chunks), "overlap": list(overlap)}}
        out = tmp_path / name
        assert run(["bench", "--task", "doc", "--config", write_config(tmp_path, grid=grid),
                    "--dataset", MINI_DATASET, "--out", out]) == 0
        return lines_by_config(out)

    def test_a_chunking_that_recurs_after_another_reuses_its_index(self, tmp_path, monkeypatch):
        """The data/mini documents have 8 or 9 sentences, so 9 and 10 chunks are
        both one sentence each, and 2 chunks are not."""
        clean = self.bench(tmp_path, "clean", [10])
        builds = counting(monkeypatch, "build_index")
        metrics = counting(monkeypatch, "doc_metrics")
        reused = self.bench(tmp_path, "reused", [9, 2, 10])
        assert len(builds) == 2
        assert len(metrics) == 2 * 10 * 2
        assert list(clean.items()) == list(reused.items())[2:]

    def test_a_chunking_that_recurs_after_eleven_others_is_built_once(
        self, tmp_path, monkeypatch
    ):
        """Sizes 9, 2, 3, 4, 5 and 8, each with and without overlap, chunk data/mini
        in 12 distinct ways; 10 then chunks like 9."""
        clean = self.bench(tmp_path, "clean", [10], overlap=[0, 1])
        builds = counting(monkeypatch, "build_index")
        recurring = self.bench(tmp_path, "recurring", [9, 2, 3, 4, 5, 8, 10], overlap=[0, 1])
        assert len(builds) == 12
        assert list(clean.items()) == list(recurring.items())[12:]

    def test_an_index_is_released_after_its_last_config(self, tmp_path, monkeypatch):
        """9 and 10 chunks chunk data/mini alike, 2 chunks another way: the index of
        2 lives only while config 2 runs, and the one of 9 until config 10 has run."""
        indexes, live = [], []
        real_build, real_aggregate = cli.build_index, cli.aggregate

        def build_index(*args):
            index = real_build(*args)
            indexes.append(weakref.ref(index))
            return index

        def aggregate(*args):
            live.append(sum(ref() is not None for ref in indexes))
            return real_aggregate(*args)

        monkeypatch.setattr(cli, "build_index", build_index)
        monkeypatch.setattr(cli, "aggregate", aggregate)
        self.bench(tmp_path, "released", [9, 2, 10])
        assert len(indexes) == 2
        assert live == [1, 2, 1]

    @pytest.mark.parametrize("failing", [False, True], ids=["clean", "a-chunker-raises"])
    def test_the_chunking_states_are_released_before_the_first_index(
        self, tmp_path, monkeypatch, failing
    ):
        """Every config is chunked before any index is built, and by then no
        document's chunking state is alive, even one a raising chunker saw."""
        states, alive = [], []
        real_state, real_build, real_chunk = (
            cli.DocumentDistances, cli.build_index, cli.chunk_document
        )

        def document_distances(*args):
            state = real_state(*args)
            states.append(weakref.ref(state))
            return state

        def build_index(*args):
            alive.append(sum(ref() is not None for ref in states))
            return real_build(*args)

        def chunk_document(doc, embeddings, config, **kwargs):
            if failing and config.kind == "dbscan":
                raise RuntimeError("chunker failed")
            return real_chunk(doc, embeddings, config, **kwargs)

        monkeypatch.setattr(cli, "DocumentDistances", document_distances)
        monkeypatch.setattr(cli, "build_index", build_index)
        monkeypatch.setattr(cli, "chunk_document", chunk_document)
        run(["bench", "--task", "doc", "--config", write_config(tmp_path),
             "--dataset", MINI_DATASET, "--out", tmp_path / "out"])
        assert len(states) == 12
        assert alive and alive == [0] * len(alive)

    def test_a_config_whose_chunking_raises_fails_in_its_place(
        self, tmp_path, monkeypatch, caplog
    ):
        """Of sizes 2, 3, 4 and 5, the build of 3 fails and the chunking of 4
        raises; the failures and warnings keep grid order, and 2 and 5 write the
        rows of a clean run."""
        clean = self.bench(tmp_path, "clean", [2, 3, 4, 5])
        grid = {"fixed_size": {"n_chunks": [2, 3, 4, 5], "overlap": [0]}}
        b, c = (canonical_config(config) for config in grid_from_dict(grid)[1:3])
        real = cli.chunk_document

        def chunk_document(doc, embeddings, config, **kwargs):
            if canonical_config(config) == c:
                raise RuntimeError("chunker failed")
            return real(doc, embeddings, config, **kwargs)

        monkeypatch.setattr(cli, "chunk_document", chunk_document)
        counting(monkeypatch, "build_index", fail_on=2)
        out = tmp_path / "failed"
        # 20 of 40 evaluations fail, over the failure limit.
        with caplog.at_level(logging.WARNING, logger="chunkbench.cli"):
            assert run(["bench", "--task", "doc", "--config", write_config(tmp_path, grid=grid),
                        "--dataset", MINI_DATASET, "--out", out]) == 1
        lines = (out / "failures.jsonl").read_text(encoding="utf-8").splitlines()
        failures = [json.loads(line) for line in lines]
        queries = sorted(query["query_id"] for query in mini_queries())
        assert [(row["config"], row["query_id"]) for row in failures] == [
            (config_id, query_id) for config_id in (b, c) for query_id in queries
        ]
        assert {row["error"] for row in failures if row["config"] == c} == {"chunker failed"}
        outright = [r.getMessage() for r in caplog.records if "failed outright" in r.getMessage()]
        assert outright == [f"config {b} failed outright: build_index failed",
                            f"config {c} failed outright: chunker failed"]
        assert lines_by_config(out) == {config_id: clean[config_id]
                                        for config_id in clean if config_id not in (b, c)}

    def test_a_failed_build_is_not_kept_for_the_next_config(self, tmp_path, monkeypatch):
        """A chunks data/mini one way; B and C (more chunks than any document has
        sentences) another, alike. B's build fails, so C must build its own index
        rather than reuse A's."""
        cfg = write_config(tmp_path, grid={"fixed_size": {"n_chunks": [3, 40, 60]}})
        a, b, c = grid_from_dict({"fixed_size": {"n_chunks": [3, 40, 60]}})

        def bench(name, code):
            out = tmp_path / name
            assert run(["bench", "--task", "doc", "--config", cfg, "--dataset", MINI_DATASET,
                        "--out", out]) == code
            rows = (out / "results.jsonl").read_text(encoding="utf-8").splitlines()
            by_config: dict[str, list[dict]] = {}
            for row in map(json.loads, rows):
                config_id = canonical_config(config_from_dict(row["config"]))
                by_config.setdefault(config_id, []).append(row)
            return out, by_config

        _, clean = bench("clean", 0)
        builds = counting(monkeypatch, "build_index", fail_on=2)
        # 10 of 30 evaluations fail, over the failure limit.
        out, failed = bench("failed", 1)
        assert len(builds) == 3
        failures = (out / "failures.jsonl").read_text(encoding="utf-8").splitlines()
        assert {json.loads(line)["config"] for line in failures} == {canonical_config(b)}
        assert canonical_config(b) not in failed
        for config in (a, c):
            assert failed[canonical_config(config)] == clean[canonical_config(config)]
        assert clean[canonical_config(b)] == [
            {**row, "config": config_to_dict(b)} for row in clean[canonical_config(c)]
        ]



FIXED_SIZE = {"kind": "fixed_size", "n_chunks": 3, "overlap": 0}
BREAKPOINT = {"kind": "breakpoint", "policy": {"kind": "percentile", "amount": 90}}


class TestSentenceEmbedding:
    """chunk and bench embed each document's sentences in one call, and none
    at all when only fixed-size chunkers run."""

    def check(self, embeds, per_document):
        documents, _ = load_corpus(MINI_DATASET)
        sentences = [segment_document(d.doc_id, d.text).sentence_texts for d in documents]
        assert [list(texts) for _, texts in embeds] == sentences * per_document

    @pytest.mark.parametrize("chunker, per_document", [(FIXED_SIZE, 0), (BREAKPOINT, 1)],
                             ids=["fixed_size", "breakpoint"])
    def test_chunk(self, tmp_path, monkeypatch, chunker, per_document):
        embeds = counting(monkeypatch, "embed_batch")
        assert run(["chunk", "--chunker", json.dumps(chunker), "--dataset", MINI_DATASET,
                    "--out", tmp_path / "out"]) == 0
        self.check(embeds, per_document)

    @pytest.mark.parametrize(
        "grid, per_document",
        [({"fixed_size": {"n_chunks": [2, 3], "overlap": [0, 1]}}, 0),
         ({"fixed_size": {"n_chunks": [3]}, "breakpoint": {"percentile": [50, 90]}}, 1)],
        ids=["fixed_size", "with-breakpoint"],
    )
    def test_bench(self, tmp_path, monkeypatch, grid, per_document):
        embeds = counting(monkeypatch, "embed_batch")
        assert run(["bench", "--task", "doc", "--config", write_config(tmp_path, grid=grid),
                    "--dataset", MINI_DATASET, "--out", tmp_path / "out"]) == 0
        self.check(embeds, per_document)


# Text that JSON must escape: quotes, backslashes, control characters,
# non-ASCII letters and characters outside the Basic Multilingual Plane.
JSON_TEXT = st.text(
    st.characters(exclude_categories=("Cs",)) | st.sampled_from('"\\\x00\x1f\x7f\u2028é😀')
)
METRIC = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, 1.0, 1 / 3, 2 / 3, 0.1, 5e-324, -0.0, 1e16]
)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    dataset=JSON_TEXT,
    task=JSON_TEXT,
    config=st.sampled_from(default_grid()),
    query_id=JSON_TEXT,
    chunk_ids=st.lists(JSON_TEXT, max_size=12),
    k=st.integers(1, 14),
    metrics=st.tuples(METRIC, METRIC, METRIC),
)
@example(
    dataset="mini", task="doc", config=default_grid()[0], query_id='q"\\\n',
    chunk_ids=["d-0000", "é-\x01"], k=1, metrics=(1 / 3, 5e-324, 1.0),
)
def test_a_spliced_results_line_is_the_rows_sorted_json(
    dataset, task, config, query_id, chunk_ids, k, metrics
):
    """The row's keys are spelled out here, so a key results_body adds, drops or
    writes out of sorted order fails this test."""
    recall, precision, f1 = metrics
    row = {
        "dataset": dataset,
        "task": task,
        "chunker": config.kind,
        "config": config_to_dict(config),
        "query_id": query_id,
        "k": k,
        "retrieved_chunk_ids": chunk_ids[:k],
        "recall": recall,
        "precision": precision,
        "f1": f1,
    }
    encoded_ids = [json.dumps(chunk_id) for chunk_id in chunk_ids]
    line = results_head(config, dataset) + results_body(
        json.dumps(query_id),
        k,
        encoded_ids[:k],
        recall,
        precision,
        f1,
        results_tail(task),
    )
    assert line == json.dumps(row, sort_keys=True) + "\n"


@pytest.mark.parametrize("task", ["doc", "evidence"])
def test_every_results_line_of_the_default_grid_re_encodes_to_itself(tmp_path, task):
    cfg = write_config(tmp_path, grid=None, k_list=[1, 3, 5, 10])
    out = tmp_path / "out"
    assert run(["bench", "--task", task, "--config", cfg, "--dataset", MINI_DATASET,
                "--out", out]) == 0
    lines = (out / "results.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(lines) == len(default_grid()) * 10 * 4
    for line in lines:
        assert json.dumps(json.loads(line), sort_keys=True) + "\n" == line


@pytest.mark.parametrize("stitched", [False, True], ids=["mini", "stitched-mini"])
@pytest.mark.parametrize("task", ["doc", "evidence"])
def test_every_results_row_matches_the_reference_loop(tmp_path, task, stitched):
    k_list = [1, 3, 5, 10]
    cfg = write_config(tmp_path, grid=None, k_list=k_list)
    corpus = MINI_DATASET
    if stitched:
        corpus = tmp_path / "stitched"
        assert run(["stitch", "--config", cfg, "--dataset", MINI_DATASET, "--seed", "3",
                    "--out", corpus]) == 0
    out = tmp_path / "out"
    assert run(["bench", "--task", task, "--config", cfg, "--dataset", corpus,
                "--out", out]) == 0
    lines = (out / "results.jsonl").read_text(encoding="utf-8").splitlines()
    expected = list(bench_rows_reference(corpus, task, default_grid(), k_list, 64))
    assert len(lines) == len(expected)
    for line, want in zip(lines, expected):
        where = (canonical_config(config_from_dict(want["config"])), want["query_id"], want["k"])
        assert json.loads(line) == want, where


class TestGenCommand:
    def test_answers_written(self, tmp_path, mock_service):
        mock_service.set_handler(
            lambda payload: (200, {"text": f"echo: {payload['prompt'][:20]}"})
        )
        cfg = write_config(
            tmp_path,
            generation={"endpoint": mock_service.url, "model_id": "gen-test"},
        )
        out = tmp_path / "answers"
        code = run(
            ["gen",
             "--chunker", json.dumps({"kind": "fixed_size", "n_chunks": 3, "overlap": 0}),
             "--config", cfg, "--dataset", MINI_DATASET, "--out", out, "--jobs", "1"]
        )
        assert code == 0
        answers = [
            json.loads(line)
            for line in (out / "answers.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        _, queries = load_corpus(MINI_DATASET)
        assert [a["query_id"] for a in answers] == sorted(q.query_id for q in queries)
        for a in answers:
            assert a["answer"].startswith("echo: ")
            assert -1.0 <= a["qa_similarity"] <= 1.0
        assert all(
            req["payload"]["model"] == "gen-test" for req in mock_service.requests
        )

    def test_service_failure_exits_nonzero(self, tmp_path, mock_service):
        mock_service.set_handler(lambda payload: (500, {"error": "down"}))
        cfg = write_config(
            tmp_path,
            generation={"endpoint": mock_service.url, "model_id": "gen-test", "max_retries": 1},
        )
        code = run(
            ["gen",
             "--chunker", json.dumps({"kind": "fixed_size", "n_chunks": 3, "overlap": 0}),
             "--config", cfg, "--dataset", MINI_DATASET, "--out", tmp_path / "o",
             "--jobs", "1"]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "failing, code", [({"q01"}, 0), ({"q01", "q02"}, 1)], ids=["within-budget", "over-budget"]
    )
    def test_failed_queries_are_recorded(self, tmp_path, mock_service, failing, code):
        _, queries = load_corpus(MINI_DATASET)
        failing_texts = {q.text for q in queries if q.query_id in failing}

        def handler(payload):
            if any(text in payload["prompt"] for text in failing_texts):
                return 400, {"error": "rejected"}
            return 200, {"text": "an answer"}

        mock_service.set_handler(handler)
        cfg = write_config(tmp_path, generation={"endpoint": mock_service.url})
        out = tmp_path / "o"
        chunker = {"kind": "fixed_size", "n_chunks": 3, "overlap": 0}
        assert run(["gen", "--chunker", json.dumps(chunker), "--config", cfg,
                    "--dataset", MINI_DATASET, "--out", out, "--jobs", "2"]) == code
        answers = [
            json.loads(line) for line in (out / "answers.jsonl").read_text("utf-8").splitlines()
        ]
        assert [a["query_id"] for a in answers] == sorted(
            q.query_id for q in queries if q.query_id not in failing
        )
        failures = [
            json.loads(line) for line in (out / "failures.jsonl").read_text("utf-8").splitlines()
        ]
        assert [f["query_id"] for f in failures] == sorted(failing)
        for failure in failures:
            assert json.loads(failure["config"]) == chunker
            assert "400" in failure["error"]


    def test_clean_rerun_removes_old_failures(self, tmp_path, mock_service):
        cfg = write_config(tmp_path, generation={"endpoint": mock_service.url})
        argv = ["gen", "--chunker", json.dumps({"kind": "fixed_size", "n_chunks": 3}),
                "--config", cfg, "--dataset", MINI_DATASET, "--out", tmp_path / "o"]
        mock_service.set_handler(lambda payload: (400, {"error": "rejected"}))
        assert run(argv) == 1
        assert (tmp_path / "o" / "failures.jsonl").exists()
        mock_service.set_handler(lambda payload: (200, {"text": "an answer"}))
        assert run(argv) == 0
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["answers.jsonl"]

    def gen_on_the_mock(self, tmp_path, mock_service, jobs, empty=()):
        """Run gen with the remote embedder and the generator both on the mock;
        the queries whose ids are in empty get an empty answer. Returns
        (exit code, out dir, embedding requests)."""
        _, queries = load_corpus(MINI_DATASET)
        empty_texts = [q.text for q in queries if q.query_id in empty]

        def handler(payload):
            if "texts" in payload:
                vectors = [deterministic_embed(t, 64).tolist() for t in payload["texts"]]
                return 200, {"embeddings": vectors}
            if any(text in payload["prompt"] for text in empty_texts):
                return 200, {"text": ""}
            return 200, {"text": "answer: " + payload["prompt"][-40:]}

        mock_service.set_handler(handler)
        embedding._MEMO.clear()
        del mock_service.requests[:]
        embedder = {"backend": "remote", "endpoint": mock_service.url, "dimension": 64}
        cfg = write_config(tmp_path, embedder=embedder, generation={"endpoint": mock_service.url})
        out = tmp_path / f"jobs{jobs}"
        code = run(["gen", "--chunker", json.dumps({"kind": "fixed_size", "n_chunks": 3}),
                    "--config", cfg, "--dataset", MINI_DATASET, "--out", out, "--jobs", jobs])
        requests = [r for r in mock_service.requests if "texts" in r["payload"]]
        return code, out, requests

    def test_embeds_on_the_main_thread_in_four_requests(
        self, tmp_path, mock_service, monkeypatch
    ):
        threads = []
        for module in (cli, retrieval, generation):

            def recording(spec, texts, real=module.embed_batch):
                threads.append(threading.current_thread())
                return real(spec, texts)

            monkeypatch.setattr(module, "embed_batch", recording)
        code, _, requests = self.gen_on_the_mock(tmp_path, mock_service, 4)
        assert code == 0
        assert threads and set(threads) == {threading.main_thread()}
        # Every query, then the 36 chunk texts in batches of 32 and 4, sent at
        # once so either may reach the service first, then every answer.
        assert len(requests) == 4
        queries, first, second, answers = (r["payload"]["texts"] for r in requests)
        assert sorted([len(first), len(second)]) == [4, 32]
        documents, _ = load_corpus(MINI_DATASET)
        config = FixedSizeConfig(n_chunks=3)
        chunk_texts = [
            chunk.text
            for d in documents
            for chunk in chunk_document(segment_document(d.doc_id, d.text), None, config)
        ]
        assert sorted(first + second) == sorted(chunk_texts)
        assert [len(queries), len(answers)] == [10, 10]

    def test_empty_answer_fails_only_its_query_at_any_jobs(self, tmp_path, mock_service):
        outs = []
        for jobs in (1, 4):
            code, out, _ = self.gen_on_the_mock(tmp_path, mock_service, jobs, empty={"q03"})
            assert code == 0
            outs.append(out)
        for name in ("answers.jsonl", "failures.jsonl"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        answers = (outs[0] / "answers.jsonl").read_text("utf-8").splitlines()
        _, queries = load_corpus(MINI_DATASET)
        assert [json.loads(a)["query_id"] for a in answers] == sorted(
            q.query_id for q in queries if q.query_id != "q03"
        )
        (failure,) = map(json.loads, (outs[0] / "failures.jsonl").read_text("utf-8").splitlines())
        assert failure["query_id"] == "q03"
        assert failure["error"] == 'generation response has an empty "text" field'

    @pytest.mark.parametrize("module", [retrieval, generation], ids=["queries", "answers"])
    def test_a_failed_embedding_batch_fails_each_query(
        self, tmp_path, mock_service, monkeypatch, module
    ):
        def fail(spec, texts):
            raise embedding.EmbeddingError("embedding backend failed")

        # retrieval embeds the query batch as the score table is made, before
        # any chunk; generation embeds the answer batch.
        monkeypatch.setattr(module, "embed_batch", fail)
        mock_service.set_handler(lambda payload: (200, {"text": "an answer"}))
        cfg = write_config(tmp_path, generation={"endpoint": mock_service.url})
        out = tmp_path / "o"
        assert run(["gen", "--chunker", json.dumps({"kind": "fixed_size", "n_chunks": 3}),
                    "--config", cfg, "--dataset", MINI_DATASET, "--out", out]) == 1
        assert (out / "answers.jsonl").read_text("utf-8") == ""
        failures = [
            json.loads(line) for line in (out / "failures.jsonl").read_text("utf-8").splitlines()
        ]
        _, queries = load_corpus(MINI_DATASET)
        assert [f["query_id"] for f in failures] == sorted(q.query_id for q in queries)
        assert {f["error"] for f in failures} == {"embedding backend failed"}


def write_breakpoint_summaries(root, runs):
    """One summary.csv per run under root: breakpoint rows at k=1, each given as
    (dataset, threshold kind, amount, recall, precision, f1)."""
    for name, rows in runs.items():
        (root / name).mkdir(parents=True)
        with (root / name / "summary.csv").open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(
                ["dataset", "chunker", "config", "k", "recall", "precision", "f1", "n_queries"]
            )
            for dataset, kind, amount, *metrics in rows:
                policy = {"kind": "breakpoint", "policy": {"kind": kind, "amount": amount}}
                writer.writerow([dataset, "breakpoint", json.dumps(policy), 1, *metrics, 10])


class TestSweepReportCommand:
    def test_trends_over_bench_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        for task in ("doc", "evidence"):
            assert run(
                ["bench", "--task", task, "--config", cfg, "--seed", "7",
                 "--dataset", MINI_DATASET, "--out", tmp_path / f"runs/{task}"]
            ) == 0
        out = tmp_path / "report"
        code = run(["sweep-report", tmp_path / "runs", "--out", out])
        assert code == 0
        with (out / "trends.csv").open(encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        names = {row["hyperparameter"] for row in rows}
        assert "fixed_size.n_chunks" in names
        assert "breakpoint.percentile.amount" in names
        # The grid holds stop_distance at one value.
        assert "single_linkage.stop_distance" not in names
        for row in rows:
            assert 0.0 <= float(row["f1"]) <= 1.0
        keys = [(row["hyperparameter"], float(row["value"])) for row in rows]
        assert keys == sorted(keys)
        # The bytes of the report on this grid, each run normalised on its own;
        # an independent recomputation from the two summary.csv files agrees.
        assert hashlib.sha256((out / "trends.csv").read_bytes()).hexdigest() == (
            "5248e4df8f32feb1f1767196ee4e47ec934eea2c43e8ac8a336e5ece6b9c3525"
        )

    def test_a_swept_stop_distance_has_its_trend(self, tmp_path):
        grid = {
            "fixed_size": {"n_chunks": [3]},
            "single_linkage": {
                "n_clusters": [3, 4],
                "positional_weight": [0.5],
                "stop_distance": [0.25, 0.5, 0.75],
            },
        }
        cfg = write_config(tmp_path, grid=grid)
        assert run(
            ["bench", "--task", "doc", "--config", cfg, "--dataset", MINI_DATASET,
             "--out", tmp_path / "runs"]
        ) == 0
        out = tmp_path / "report"
        assert run(["sweep-report", tmp_path / "runs", "--out", out]) == 0
        with (out / "trends.csv").open(encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        values = [
            float(row["value"]) for row in rows
            if row["hyperparameter"] == "single_linkage.stop_distance"
        ]
        assert values == [0.25, 0.5, 0.75]

    def test_normalises_per_dataset_and_threshold_kind(self, tmp_path):
        # (dataset, threshold kind, amount, recall, precision, f1)
        runs = {
            "a": [
                ("alpha", "percentile", 50, 0.2, 0.4, 0.1),
                ("alpha", "percentile", 90, 0.6, 0.2, 0.3),
                ("alpha", "std_dev", 1.0, 0.9, 0.9, 0.9),
                ("alpha", "std_dev", 2.0, 0.1, 0.5, 0.5),
            ],
            "b": [
                ("beta", "percentile", 50, 0.4, 0.3, 0.2),
                ("beta", "percentile", 70, 0.5, 0.2, 0.6),
                ("beta", "percentile", 90, 0.8, 0.1, 0.4),
                ("beta", "std_dev", 1.5, 0.3, 0.3, 0.3),
            ],
        }
        write_breakpoint_summaries(tmp_path / "runs", runs)
        out = tmp_path / "report"
        assert run(["sweep-report", tmp_path / "runs", "--out", out]) == 0
        # Each (dataset, threshold kind) group spans 0 to 1 on its own; beta's
        # one std_dev row has no spread, so it scores 0.5 and is degenerate.
        assert (out / "trends.csv").read_text(encoding="utf-8").splitlines() == [
            "hyperparameter,value,recall,precision,f1,degenerate",
            "breakpoint.percentile.amount,50.0,0.000000,1.000000,0.000000,0",
            "breakpoint.percentile.amount,70.0,0.250000,0.500000,1.000000,0",
            "breakpoint.percentile.amount,90.0,1.000000,0.000000,0.750000,0",
            "breakpoint.std_dev.amount,1.0,1.000000,1.000000,1.000000,0",
            "breakpoint.std_dev.amount,1.5,0.500000,0.500000,0.500000,1",
            "breakpoint.std_dev.amount,2.0,0.000000,0.000000,0.000000,0",
        ]

    def test_normalises_each_run_of_one_dataset_apart(self, tmp_path):
        """A doc run and an evidence run of one dataset: each summary.csv spans
        0 to 1 on its own, so the evidence run's lower scores do not pull the
        doc run's configs up the pooled span."""
        write_breakpoint_summaries(
            tmp_path / "runs",
            {
                "doc": [
                    ("mini", "percentile", 50, 0.5, 0.6, 0.5),
                    ("mini", "percentile", 90, 0.7, 0.2, 0.9),
                ],
                "evidence": [
                    ("mini", "percentile", 50, 0.1, 0.3, 0.2),
                    ("mini", "percentile", 90, 0.2, 0.1, 0.4),
                ],
            },
        )
        out = tmp_path / "report"
        assert run(["sweep-report", tmp_path / "runs", "--out", out]) == 0
        # Pooled, recall would span 0.1-0.7 and give 50 a mean of 0.333333.
        assert (out / "trends.csv").read_text(encoding="utf-8").splitlines() == [
            "hyperparameter,value,recall,precision,f1,degenerate",
            "breakpoint.percentile.amount,50.0,0.000000,1.000000,0.000000,0",
            "breakpoint.percentile.amount,90.0,1.000000,0.000000,1.000000,0",
        ]

    @pytest.mark.parametrize("tail", [",1", ",1,0.5,0.5,0.5,10,extra"], ids=["short", "long"])
    def test_summary_row_of_the_wrong_length_names_file_and_line(self, tmp_path, capsys, tail):
        summary = tmp_path / "runs" / "summary.csv"
        summary.parent.mkdir()
        summary.write_text(
            "dataset,chunker,config,k,recall,precision,f1,n_queries\n"
            f'mini,fixed_size,"{{""kind"":""fixed_size"",""n_chunks"":3}}"{tail}\n',
            encoding="utf-8",
        )
        code = run(["sweep-report", tmp_path / "runs", "--out", tmp_path / "r"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {summary}:2: bad summary row: fields do not match the header" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_summary_metric_that_is_not_finite_names_file_and_line(self, tmp_path, capsys, value):
        summary = tmp_path / "runs" / "summary.csv"
        summary.parent.mkdir()
        summary.write_text(
            "dataset,chunker,config,k,recall,precision,f1,n_queries\n"
            'mini,fixed_size,"{""kind"":""fixed_size"",""n_chunks"":3}",1,0.5,0.5,0.5,10\n'
            f'mini,fixed_size,"{{""kind"":""fixed_size"",""n_chunks"":4}}",1,{value},0.5,0.5,10\n',
            encoding="utf-8",
        )
        code = run(["sweep-report", tmp_path / "runs", "--out", tmp_path / "r"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {summary}:3: bad summary row: recall must be a finite number" in err
        assert not (tmp_path / "r").exists()

    def test_summary_that_is_not_utf8_names_the_file(self, tmp_path, capsys):
        summary = tmp_path / "runs" / "summary.csv"
        summary.parent.mkdir()
        summary.write_bytes(b"dataset,chunker,config,k,recall,precision,f1,n_queries\n\xff\n")
        code = run(["sweep-report", tmp_path / "runs", "--out", tmp_path / "r"])
        assert code == 2
        assert f"error: {summary}: not UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_summary_that_is_a_directory_names_the_file(self, tmp_path, capsys):
        summary = tmp_path / "runs" / "summary.csv"
        summary.mkdir(parents=True)
        code = run(["sweep-report", tmp_path / "runs", "--out", tmp_path / "r"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: cannot read {summary}: [Errno 21] Is a directory" in err
        assert not (tmp_path / "r").exists()

    def test_empty_directory_is_an_error(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        code = run(["sweep-report", tmp_path / "empty", "--out", tmp_path / "r"])
        assert code == 2


class TestInspectCommand:
    def test_prints_labeled_sections(self, tmp_path, capsys):
        code = run(["inspect", "--doc-id", "honeybee-hives", "--dataset", MINI_DATASET])
        assert code == 0
        out = capsys.readouterr().out
        headers = [line for line in out.splitlines() if line.startswith("== ")]
        # four default chunkers shown side by side
        assert len(headers) == 4
        assert any("fixed_size" in h for h in headers)
        assert any("dbscan" in h for h in headers)
        assert "sentences" in out

    def test_explicit_chunker_flag(self, tmp_path, capsys):
        code = run(
            ["inspect", "--doc-id", "night-sky", "--dataset", MINI_DATASET,
             "--chunker", json.dumps({"kind": "fixed_size", "n_chunks": 2, "overlap": 0})]
        )
        assert code == 0
        out = capsys.readouterr().out
        headers = [line for line in out.splitlines() if line.startswith("== ")]
        assert len(headers) == 1
