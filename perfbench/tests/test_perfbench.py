"""Tests of the benchmark itself: generator, tracer, oracle and the metric contract."""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import generate  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

MINI = ROOT / "data" / "mini"
OUTPUT_FILES = ("results.jsonl", "summary.csv", "best_configs.json")
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _cli(out: Path, traced: bool = False, spans: Path | None = None) -> float:
    args = ["bench", "--task", "doc", "--dataset", str(MINI), "--out", str(out)]
    if traced:
        argv = [sys.executable, str(BENCH / "tracer.py"), str(spans), *args]
    else:
        argv = [sys.executable, "-m", "chunkbench", *args]
    started = time.perf_counter()
    subprocess.run(argv, env=ENV, cwd=ROOT, check=True, capture_output=True, timeout=120)
    return time.perf_counter() - started


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One untraced and two traced CLI runs on data/mini."""
    base = tmp_path_factory.mktemp("perfbench")
    _cli(base / "plain")
    traced = []
    for i in range(2):
        spans = base / f"spans-{i}.json"
        wall = _cli(base / f"traced-{i}", traced=True, spans=spans)
        traced.append((base / f"traced-{i}", json.loads(spans.read_text("utf-8")), wall))
    return base / "plain", traced


def test_generator_is_deterministic_in_the_seed(tmp_path):
    first = generate.build_corpora(MINI, tmp_path / "a", 2, 100, seed=1)
    again = generate.build_corpora(MINI, tmp_path / "b", 2, 100, seed=1)
    other = generate.build_corpora(MINI, tmp_path / "c", 2, 100, seed=2)
    assert first == again
    assert first["scaled"] != other["scaled"]
    assert first["stitched"] != other["stitched"]


def test_generator_self_check_catches_a_wrong_evidence_index(tmp_path):
    source = generate.load_corpus(MINI)
    docs, queries, sources = generate.scaled_corpus(*source, 2, seed=3)
    query = queries[0]
    doc_id, index = query.evidence[0]
    text = next(d.text for d in docs if d.doc_id == doc_id)
    n = generate.segment_document(doc_id, text).n
    broken = replace(query, evidence=((doc_id, (index + 1) % n),) + query.evidence[1:])
    generate.write_corpus(docs, [broken, *queries[1:]], tmp_path)
    with pytest.raises(generate.GeneratorError):
        generate.check_corpus(tmp_path, sources, *source)


def test_every_seed_is_held_to_recorded_digests():
    recorded = json.loads((BENCH / "digests.json").read_text("utf-8"))
    for name in ("scaled-doc", "stitched-evidence"):
        assert set(recorded["workloads"][name]) == {str(s) for s in run.DIGEST_SEEDS}
        assert set(recorded["corpora"][name]) == {str(s) for s in run.DIGEST_SEEDS}
    runner = SimpleNamespace(name="scaled-doc", digest_key="3", corpus_digest="0" * 64)
    assert run.Checker.against(runner, 3, recorded).problems == [
        "generated corpus digest differs from digests.json for key 3"
    ]
    empty = {"workloads": {}, "corpora": {}}
    assert len(run.Checker.against(runner, 3, empty).problems) == 2


def test_traced_outputs_are_byte_identical_to_untraced(runs):
    plain, traced = runs
    for out, report, _ in traced:
        assert report["exit_code"] == 0
        for name in OUTPUT_FILES:
            assert (out / name).read_bytes() == (plain / name).read_bytes()


def test_self_times_sum_to_at_most_traced_wall_time(runs):
    _, traced = runs
    for _, report, wall in traced:
        own = tracer._self_times(report["spans"])
        assert min(own) >= 0.0
        assert sum(own) <= wall


def test_per_layer_counts_repeat_across_traced_runs(runs):
    _, traced = runs
    counts = [
        {k: v for k, v in tracer.summarize([report]).items() if isinstance(v, int)}
        for _, report, _ in traced
    ]
    assert counts[0] == counts[1]
    assert counts[0]["retrieval.retrieve.calls"] == 218 * 10
    assert counts[0]["chunkers.distinct_chunkings"] == 69
    assert counts[0]["embedding.chunks.distinct_texts"] == 391
    assert counts[0]["trace.missing"] == 0


def test_missing_wrapped_name_is_reported():
    t = tracer.Tracer()
    t.install([("chunkbench.cli", "no_such_function", "cli.none")])
    assert t.missing == ["chunkbench.cli.no_such_function"]
    assert tracer.summarize([t.report(0)])["trace.missing"] == 1


def test_oracle_accepts_real_rows_and_rejects_altered_ones(runs, tmp_path):
    plain, _ = runs
    assert oracle.check_rows(MINI, plain, "doc", seed=5, n_configs=218) is None
    rows = [json.loads(line) for line in (plain / "results.jsonl").read_text("utf-8").splitlines()]
    rows[-1]["f1"] = rows[-1]["f1"] + 1e-9
    (tmp_path / "results.jsonl").write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows), encoding="utf-8"
    )
    assert "differ" in oracle.check_rows(MINI, tmp_path, "doc", seed=5, n_configs=218)


def test_metric_names_and_declared_metrics(runs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    names = [m["name"] for group in ("end_to_end", "per_layer") for m in spec[group]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in names)
    _, traced = runs
    measured = set(tracer.summarize([traced[0][1]]))
    measured |= {"cli.output_bytes", "trace.wall_s", "trace.overhead_s", "host.probe_ms"}
    assert measured == {m["name"] for m in spec["per_layer"]}


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mini-cached", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_probe_scales_wall_time_to_the_reference_speed():
    probe = run.SpeedProbe()
    probe.samples = [(0.0, 0.002), (1.0, 0.002), (2.0, 0.004), (5.0, 0.001)]
    sample = run.Sample(started=0.5, wall_s=2.0, exit_codes=[0], digests={}, evaluations=1, failed=0)
    assert probe.reference_s(sample) == pytest.approx(2.0 * run.REF_PROBE_S / 0.003)
    between = run.Sample(started=2.1, wall_s=0.1, exit_codes=[0], digests={}, evaluations=1, failed=0)
    assert math.isnan(probe.reference_s(between))
    with run.SpeedProbe() as live:
        time.sleep(4 * run.PROBE_EVERY_S)
    assert live.samples and all(cost > 0 for _, cost in live.samples)
