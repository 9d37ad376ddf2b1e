"""The chunkbench benchmark: time full ``chunkbench bench`` sweeps and check their outputs.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists):

- ``scaled-doc``: ``--task doc`` over sentence-shuffled, marker-tagged
  copies of ``data/mini``.
- ``stitched-evidence``: ``--task evidence`` over the same corpus stitched
  to 100 sentences per document.
- ``mini-cached``: ``data/mini``, ``--task doc`` then ``--task evidence``,
  sharing a disk vector cache that starts empty.

The seed only drives the corpus generator; every CLI run uses the default
218-config grid, the test embedder, ``--jobs 1``, and the CLI's default
seed, k list and query sample, written into its config from ``oracle.py``,
which recomputes rows with the same values. The corpus generator gets ``seed % len(DIGEST_SEEDS)``, so every seed
maps to a corpus whose digests are recorded. One process drives all load,
one CLI child at a time (a closed loop with one client), and each child runs
its BLAS calls on one thread, so its timing does not depend on a second
core being free (with default threading it spends about 1.75x its wall
time in CPU on ``stitched-evidence``, on a 2-vCPU host).

With ``--trace 0`` the runner measures set-up (the same command with a
one-config grid, repeated) and then repeats the full sweep until the sweeps
have taken ``--seconds`` in all, and reports the end-to-end metrics. With
``--trace 1`` it alternates untraced sweeps with sweeps run under
``tracer.py`` and reports the per-layer metrics. Every sweep must exit 0,
write byte-identical outputs and match the output and corpus digests that
``digests.json`` records for the seed, and a brute-force oracle recomputes
a sample of result rows. The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Host speed. On a shared host the speed one vCPU gets swings by up to ~1.5x,
in phases of seconds to minutes that differ between vCPUs, so raw wall times
of the same code spread by more than 20% between runs. The runner therefore
pins itself and its CLI children to one CPU, and a ``SpeedProbe`` thread
times a fixed pure-Python loop on that CPU every ``PROBE_EVERY_S`` (in its
own CPU time, about 2% of the CPU). The end-to-end times ``wall_s`` and
``setup_s`` are each sweep's wall time multiplied by ``REF_PROBE_S`` over the
mean probe time during that sweep: wall time at a fixed reference speed of
the host, in seconds. ``evals_per_s`` divides by that time. The probe does
not depend on the code under test, so a change to the program moves these
numbers as it moves wall time. On a 2-vCPU shared host, over 4 minutes of
``scaled-doc`` sweeps, raw sweep time and mean probe time correlated at
0.975, and the quartile spread of 25 s window medians fell from 0.23 of the
median (raw) to 0.07 (scaled). The raw wall times and the probe times are
logged to stderr; traced runs report raw times and ``host.probe_ms``. As
everything runs on one CPU, a change that spreads the CLI's work over more
CPUs cannot show a gain here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
MINI = ROOT / "data" / "mini"
WORK = ROOT / ".perfbench"

COPIES = 3
DIGEST_SEEDS = range(32)  # generator seeds whose digests digests.json records
STITCH_TARGET = 100
SETUP_REPEATS = 9
SETUP_GRID = {"breakpoint": {"percentile": [90]}}
OUTPUT_FILES = ("results.jsonl", "summary.csv", "best_configs.json")
FAILURES_FILE = "failures.jsonl"
CHILD_TIMEOUT_S = 150.0
ORACLE_CONFIGS = 6
PROBE_EVERY_S = 0.05
PROBE_LOOP = 20_000
REF_PROBE_S = 0.001  # mean probe time that defines the reference host speed
# One BLAS thread per CLI child; see the module docstring.
SINGLE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


@dataclass(frozen=True)
class Workload:
    corpus: str  # "scaled", "stitched" or "mini"
    tasks: tuple[str, ...]
    cached: bool = False


WORKLOADS = {
    "scaled-doc": Workload("scaled", ("doc",)),
    "stitched-evidence": Workload("stitched", ("evidence",)),
    "mini-cached": Workload("mini", ("doc", "evidence"), cached=True),
}


@dataclass
class Sample:
    """One run of a workload's CLI command(s)."""

    started: float  # time.perf_counter() at spawn
    wall_s: float
    exit_codes: list[int]
    digests: dict[str, dict[str, str]]  # task -> file -> sha256
    evaluations: int
    failed: int


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def line_count(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(1 for _ in fh)


class Runner:
    """Runs one workload's CLI commands in a fresh work directory."""

    def __init__(self, name: str, seed: int) -> None:
        from generate import build_corpora
        from oracle import QUERY_SAMPLE

        self.name = name
        self.workload = WORKLOADS[name]
        self.work = WORK / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        if self.workload.corpus == "mini":
            self.corpus = MINI
            self.corpus_digest = None
            self.digest_key = "any"  # data/mini does not depend on the seed
        else:
            corpus_seed = seed % len(DIGEST_SEEDS)
            self.digest_key = str(corpus_seed)
            digests = build_corpora(MINI, self.work / "corpus", COPIES, STITCH_TARGET, corpus_seed)
            self.corpus = self.work / "corpus" / self.workload.corpus
            self.corpus_digest = digests[self.workload.corpus]
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **SINGLE_THREAD)
        from chunkbench.chunkers import default_grid
        from chunkbench.corpus import load_corpus

        self.configs = len(default_grid())
        self.queries = min(len(load_corpus(self.corpus)[1]), QUERY_SAMPLE)

    def _config(self, grid: dict | None, cache: Path | None) -> Path:
        from oracle import CLI_SEED, K_LIST, QUERY_SAMPLE

        # The settings the oracle recomputes with, written out rather than
        # left to the CLI's defaults.
        config: dict = {
            "embedder": {"cache_dir": str(cache) if cache else None},
            "seed": CLI_SEED,
            "k_list": list(K_LIST),
            "query_sample": QUERY_SAMPLE,
        }
        if grid is not None:
            config["grid"] = grid
        path = self.work / ("setup.json" if grid else "sweep.json")
        path.write_text(json.dumps(config, sort_keys=True), encoding="utf-8")
        return path

    def _spawn(self, argv: list[str], log_path: Path) -> int:
        with log_path.open("wb") as fh:
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=fh, stderr=subprocess.STDOUT)
            # wait(timeout=...) polls with sleeps of up to 50 ms, which would
            # quantise the timings; a timer kills a hung child instead.
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                return proc.wait()
            finally:
                watchdog.cancel()

    def sweep(self, grid: dict | None = None, traced: bool = False) -> tuple[Sample, list[dict]]:
        """Run every task of the workload once; returns the sample and any trace reports."""
        out = self.work / "out"
        cache = self.work / "cache" if self.workload.cached else None
        shutil.rmtree(out, ignore_errors=True)
        if cache is not None:
            shutil.rmtree(cache, ignore_errors=True)
        config = self._config(grid, cache)
        out.mkdir(parents=True)
        codes, digests, reports = [], {}, []
        failed = 0
        started = time.perf_counter()
        for task in self.workload.tasks:
            cli = ["bench", "--task", task, "--dataset", str(self.corpus), "--out", str(out / task),
                   "--config", str(config)]
            if traced:
                argv = [sys.executable, str(HERE / "tracer.py"), str(out / f"{task}.spans"), *cli]
            else:
                argv = [sys.executable, "-m", "chunkbench", *cli]
            codes.append(self._spawn(argv, out / f"{task}.log"))
        wall = time.perf_counter() - started
        evaluations = (1 if grid else self.configs) * self.queries * len(self.workload.tasks)
        for task, code in zip(self.workload.tasks, codes):
            target = out / task
            if traced and (out / f"{task}.spans").exists():
                reports.append(json.loads((out / f"{task}.spans").read_text("utf-8")))
            if code == 0 and all((target / f).exists() for f in OUTPUT_FILES):
                digests[task] = {f: sha256(target / f) for f in OUTPUT_FILES}
            if (target / FAILURES_FILE).exists():
                failed += line_count(target / FAILURES_FILE)
        if any(codes) or len(digests) != len(self.workload.tasks):
            failed = evaluations
        return Sample(started, wall, codes, digests, evaluations, min(failed, evaluations)), reports


class Checker:
    """Output correctness: identical across samples, recorded digests, oracle rows."""

    def __init__(self, runner: Runner, seed: int, expected: dict | None = None) -> None:
        self.runner = runner
        self.seed = seed
        self.expected = expected  # None only while digests are being recorded
        self.problems: list[str] = []
        self.first: dict | None = None

    @classmethod
    def against(cls, runner: Runner, seed: int, recorded: dict) -> Checker:
        """A checker holding the run to the digests recorded for its corpus."""
        key = runner.digest_key
        checker = cls(runner, seed, recorded["workloads"].get(runner.name, {}).get(key))
        if checker.expected is None:
            checker.problems.append(f"digests.json records no outputs for {runner.name} key {key}")
        if recorded["corpora"].get(runner.name, {}).get(key) != runner.corpus_digest:
            checker.problems.append(f"generated corpus digest differs from digests.json for key {key}")
        return checker

    def check(self, sample: Sample) -> None:
        """Record what is wrong with a sample; a wrong sample counts as all failed."""
        before = len(self.problems)
        if any(sample.exit_codes):
            self.problems.append(f"CLI exit codes {sample.exit_codes}")
        if sample.failed:
            self.problems.append(f"{sample.failed} failed evaluations")
        if self.first is None:
            self.first = sample.digests
            if self.expected is not None and sample.digests != self.expected:
                self.problems.append("outputs differ from the digests recorded in digests.json")
            if sample.digests:
                self.oracle()
        elif sample.digests != self.first:
            self.problems.append("outputs differ between repeated runs")
        if len(self.problems) > before:
            sample.failed = sample.evaluations

    def oracle(self) -> None:
        from oracle import check_rows

        for task in self.runner.workload.tasks:
            error = check_rows(self.runner.corpus, self.runner.work / "out" / task, task,
                               self.seed, ORACLE_CONFIGS)
            if error:
                self.problems.append(f"{task}: {error}")


class SpeedProbe:
    """Times a fixed loop on the runner's CPU every ``PROBE_EVERY_S``; see the module docstring."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (perf_counter at start, CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def __enter__(self) -> SpeedProbe:
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PROBE_EVERY_S):
            at, cpu = time.perf_counter(), time.thread_time()
            total = 0
            for i in range(PROBE_LOOP):
                total += i * i % 7
            self.samples.append((at, time.thread_time() - cpu))

    def mean_during(self, start: float, end: float) -> float:
        """Mean time of the probes started in [start, end]; NaN if none was."""
        during = [cost for at, cost in self.samples if start <= at <= end]
        return statistics.mean(during) if during else float("nan")

    def reference_s(self, sample: Sample) -> float:
        """The sample's wall time at the reference host speed."""
        return sample.wall_s * REF_PROBE_S / self.mean_during(sample.started, sample.started + sample.wall_s)


def run_timed(runner: Runner, checker: Checker, seconds: float) -> tuple[dict, list[Sample]]:
    with SpeedProbe() as probe:
        setups: list[Sample] = []
        for _ in range(SETUP_REPEATS):
            sample, _ = runner.sweep(grid=SETUP_GRID)
            if sample.exit_codes and not any(sample.exit_codes):
                setups.append(sample)
            else:
                checker.problems.append(f"set-up run exit codes {sample.exit_codes}")
        samples: list[Sample] = []
        while sum(s.wall_s for s in samples) < seconds:
            sample, _ = runner.sweep()
            checker.check(sample)
            samples.append(sample)
    walls = [probe.reference_s(s) for s in samples]
    setup_walls = [probe.reference_s(s) for s in setups]
    if any(v != v for v in walls + setup_walls):  # NaN: no probe ran
        checker.problems.append("the speed probe took no samples")
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    for label, group in (("sweeps", samples), ("set-up runs", setups)):
        log(f"{runner.name}: {len(group)} {label}, raw wall s "
            f"{[round(s.wall_s, 4) for s in group]}, probe ms "
            f"{[round(1e3 * probe.mean_during(s.started, s.started + s.wall_s), 4) for s in group]}")
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup_walls) if setup_walls else 0.0,
        "evals_per_s": statistics.median([(s.evaluations - s.failed) / w for s, w in zip(samples, walls)]),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    return metrics, samples


def run_traced(runner: Runner, checker: Checker, seconds: float) -> tuple[dict, list[Sample]]:
    from tracer import summarize

    plain: list[Sample] = []
    traced: list[Sample] = []
    layers: list[dict] = []
    with SpeedProbe() as probe:
        while sum(s.wall_s for s in plain + traced) < seconds:
            sample, _ = runner.sweep()
            checker.check(sample)
            plain.append(sample)
            sample, reports = runner.sweep(traced=True)
            checker.check(sample)
            traced.append(sample)
            layer = summarize(reports)
            layer["cli.output_bytes"] = sum(
                (runner.work / "out" / task / f).stat().st_size
                for task in runner.workload.tasks
                for f in OUTPUT_FILES
                if (runner.work / "out" / task / f).exists()
            )
            layer["trace.wall_s"] = sample.wall_s
            layer["host.probe_ms"] = 1e3 * probe.mean_during(sample.started, sample.started + sample.wall_s)
            layers.append(layer)
    for name in sorted({name for report in reports for name in report["missing"]}):
        log(f"trace: wrapped name {name} no longer exists; its metrics read 0")

    counts = [{k: v for k, v in layer.items() if isinstance(v, int)} for layer in layers]
    if any(c != counts[0] for c in counts[1:]):
        checker.problems.append("per-layer counts differ between traced runs")
    metrics = {name: statistics.median([layer[name] for layer in layers]) for name in layers[0]}
    metrics.update(counts[0])
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median([s.wall_s for s in plain])
    log(f"{runner.name}: {len(traced)} traced and {len(plain)} untraced sweeps")
    return metrics, plain + traced


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chunkbench" / "cli.py").is_file() or not (MINI / "docs.jsonl").is_file():
        log(f"run from the repository root: need src/chunkbench and data/mini under {ROOT}")
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    # One CPU for the runner, its speed probe and its CLI children; see the module docstring.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    runner = Runner(args.workload, args.seed)
    checker = Checker.against(runner, args.seed, json.loads((HERE / "digests.json").read_text("utf-8")))
    measure = run_traced if args.trace else run_timed
    values, samples = measure(runner, checker, args.seconds)

    declared = declared_metrics(bool(args.trace))
    unmeasured = [spec["name"] for spec in declared if spec["name"] not in values]
    if unmeasured:
        log(f"metrics declared in BENCHMARK.json but not measured: {unmeasured}")
        return 1
    metrics = {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]} for spec in declared}
    for problem in checker.problems:
        log(f"check failed: {problem}")
    result = {
        "correct": not checker.problems,
        "attempted": sum(s.evaluations for s in samples),
        "failed": sum(s.failed for s in samples),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
