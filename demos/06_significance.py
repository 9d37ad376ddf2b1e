"""Compare two chunker configs on the per-query F1 that one `chunkbench bench`
run writes to results.jsonl, and test whether the gap is statistically
meaningful with a paired sign-flip permutation test."""

from pathlib import Path
import json
import logging
import sys
import tempfile

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from chunkbench.chunkers import canonical_config, config_from_dict
from chunkbench.cli import main as chunkbench
from chunkbench.evaluation import paired_permutation_test

DATASET = Path(__file__).resolve().parents[1] / "data" / "mini"
K = 3
# bench runs fixed_size configs before breakpoint ones: left, then right.
GRID = {"fixed_size": {"n_chunks": 3, "overlap": 0}, "breakpoint": {"percentile": 90}}


def main():
    logging.basicConfig(level=logging.WARNING)  # first, so bench's own set-up is a no-op
    with tempfile.TemporaryDirectory() as out:
        config = Path(out, "run.json")
        run = {"dataset": str(DATASET), "k_list": [K], "grid": GRID}
        config.write_text(json.dumps(run), encoding="utf-8")
        if chunkbench(["bench", "--task", "doc", "--config", str(config), "--out", out]):
            sys.exit("bench failed")
        results = Path(out, "results.jsonl").read_text(encoding="utf-8")

    per_query: dict[str, dict[str, float]] = {}  # config -> query_id -> F1@K, in run order
    for row in map(json.loads, results.splitlines()):
        config_id = canonical_config(config_from_dict(row["config"]))
        per_query.setdefault(config_id, {})[row["query_id"]] = row["f1"]
    (left_id, left_f1), (right_id, right_f1) = per_query.items()
    queries = sorted(left_f1.keys() & right_f1.keys())
    left, right = (np.array([f1[query] for query in queries]) for f1 in (left_f1, right_f1))

    print(f"per-query F1@{K} on {len(queries)} queries\n")
    print(f"{'query':<6} {'left':>6} {'right':>6} {'diff':>7}")
    for query, a, b in zip(queries, left, right):
        print(f"{query:<6} {a:>6.3f} {b:>6.3f} {b - a:>+7.3f}")
    print(f"\nleft  = {left_id}\nright = {right_id}")
    print(f"mean  = {left.mean():.3f} vs {right.mean():.3f}")

    # 10 paired scores -> the test enumerates all 2^10 sign flips exactly
    p = paired_permutation_test(left, right, iterations=10000)
    print(f"\ntwo-sided paired permutation test: p = {p:.4f}")
    print(f"the difference {'is' if p < 0.05 else 'is not'} significant at the 0.05 level.")


if __name__ == "__main__":
    main()
