"""Record what the benchmark checks against and what it measured.

Run from the repository root:

    python3 perfbench/record.py digests
        Run each workload's sweep once per seed of ``run.DIGEST_SEEDS``,
        check it with the oracle, and write the output and corpus digests to
        perfbench/digests.json. Only do this at a commit whose outputs are
        known to be right.

    python3 perfbench/record.py trajectory --label NAME [--out FILE]
        Run perfbench/run.py ``RUNS`` times per workload (seeds 1..RUNS,
        ``--trace 0``) and once with ``--trace 1``, and append the medians,
        quartiles and traced per-layer split to the ``trajectory`` list of
        FILE (default perfbench/baseline.json; created if missing, so a
        change can write its own BENCH_<name>.json without editing perfbench/).
        A metric whose spread (quartile distance over median) exceeds its
        bound is marked ``"resolved": false``: on that workload the runs
        cannot tell a change of the bound's size from noise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

DIGESTS = run.HERE / "digests.json"
BASELINE = run.HERE / "baseline.json"
RUNS = 10


def record_digests() -> int:
    sys.path[:0] = [str(run.SRC), str(run.HERE)]
    table: dict = {"workloads": {}, "corpora": {}}
    for name, workload in run.WORKLOADS.items():
        for seed in run.DIGEST_SEEDS[:1] if workload.corpus == "mini" else run.DIGEST_SEEDS:
            runner = run.Runner(name, seed)
            checker = run.Checker(runner, seed)
            sample, _ = runner.sweep()
            checker.check(sample)
            if checker.problems:
                run.log(f"{name} seed {seed}: {checker.problems}")
                return 1
            table["workloads"].setdefault(name, {})[runner.digest_key] = sample.digests
            if runner.corpus_digest:
                table["corpora"].setdefault(name, {})[runner.digest_key] = runner.corpus_digest
            run.log(f"{name} seed {seed}: recorded")
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def _bench(name: str, seed: int, trace: int, seconds: int) -> dict:
    argv = [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{name} seed {seed}: incorrect run\n{proc.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def record_trajectory(label: str, out: Path) -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))
    seconds = spec["run_seconds"]
    entry: dict = {"label": label, "run_seconds": seconds, "workloads": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        values = [_bench(name, seed, 0, seconds) for seed in range(1, RUNS + 1)]
        row = {}
        for metric in spec["end_to_end"]:
            series = [v[metric["name"]] for v in values]
            q1, q2, q3 = statistics.quantiles(series, n=4)
            row[metric["name"]] = {
                "median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2,
                "bound": metric["bound"], "resolved": (q3 - q1) / q2 <= metric["bound"],
                "runs": len(series), "values": series,
            }
            run.log(f"{name} {metric['name']}: median {q2:.4g} {metric['unit']}, "
                    f"spread {(q3 - q1) / q2:.3f} of bound {metric['bound']}")
        entry["workloads"][name] = {"end_to_end": row, "per_layer": _bench(name, 1, 1, seconds)}
    data = json.loads(out.read_text("utf-8")) if out.exists() else {"trajectory": []}
    data["trajectory"].append(entry)
    out.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("digests")
    p = sub.add_parser("trajectory")
    p.add_argument("--label", required=True)
    p.add_argument("--out", type=Path, default=BASELINE)
    args = parser.parse_args()
    if args.command == "digests":
        return record_digests()
    return record_trajectory(args.label, args.out)


if __name__ == "__main__":
    sys.exit(main())
