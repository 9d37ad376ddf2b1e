"""Run a small retrieval benchmark end to end with `chunkbench bench`, then read
its summary.csv (mean recall, precision and F1 per config and k) and its
best_configs.json (the best config per chunker family)."""

from pathlib import Path
import csv
import json
import logging
import sys
import tempfile

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from chunkbench.chunkers import canonical_config, config_from_dict
from chunkbench.cli import main as chunkbench

DATASET = Path(__file__).resolve().parents[1] / "data" / "mini"
K_LIST = [1, 3, 5]
GRID = {
    "fixed_size": {"n_chunks": [2, 4, 8], "overlap": 0},
    "breakpoint": {"percentile": [50, 90]},
    "single_linkage": {"n_clusters": 4, "positional_weight": [0, 0.5, 1], "stop_distance": 0.5},
    "dbscan": {"eps": 0.3, "min_samples": 2, "positional_weight": 0.5},
}


def main():
    logging.basicConfig(level=logging.WARNING)  # first, so bench's own set-up is a no-op
    with tempfile.TemporaryDirectory() as out:
        config = Path(out, "run.json")
        run = {"dataset": str(DATASET), "k_list": K_LIST, "grid": GRID}
        config.write_text(json.dumps(run), encoding="utf-8")
        if chunkbench(["bench", "--task", "doc", "--config", str(config), "--out", out]):
            sys.exit("bench failed")
        with open(Path(out, "summary.csv"), encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        best = json.loads(Path(out, "best_configs.json").read_text(encoding="utf-8"))

    print(f"{len(rows) // len(K_LIST)} configs x {rows[0]['n_queries']} queries x k in {K_LIST}\n")
    print(f"{'config':<78} {'k':>2} {'recall':>7} {'prec':>6} {'f1':>6}")
    for row in rows:
        recall, precision, f1 = (float(row[key]) for key in ("recall", "precision", "f1"))
        print(f"{row['config']:<78} {row['k']:>2} {recall:>7.3f} {precision:>6.3f} {f1:>6.3f}")

    print("\nbest config per family (highest mean F1 across k):")
    for family in sorted(best):
        print(f"  {family:<12} {canonical_config(config_from_dict(best[family]))}")


if __name__ == "__main__":
    main()
