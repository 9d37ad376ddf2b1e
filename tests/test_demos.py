"""Every demo script runs to completion, so a change to a library signature
cannot break one silently, and the benchmark demos report pinned results, so a
change to `bench` or to a demo cannot silently alter what they print."""

import subprocess
import sys

import pytest

from conftest import REPO_ROOT

DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))

# Lines each demo prints, with runs of whitespace read as one space.
PINNED = {
    "05_benchmark.py": [
        # The best config per family...
        'breakpoint {"kind":"breakpoint","policy":{"amount":50.0,"kind":"percentile"}}',
        'clustering {"kind":"single_linkage","n_clusters":4,"positional_weight":1.0,'
        '"stop_distance":0.5}',
        'fixed_size {"kind":"fixed_size","n_chunks":4,"overlap":0}',
        # ... and one (config, k) row per family: recall, precision, F1.
        '{"kind":"fixed_size","n_chunks":8,"overlap":0} 5 0.850 0.213 0.339',
        '{"kind":"breakpoint","policy":{"amount":50.0,"kind":"percentile"}} 3 0.950 0.400 0.557',
        '{"kind":"single_linkage","n_clusters":4,"positional_weight":0.0,"stop_distance":0.5}'
        " 3 0.750 0.317 0.440",
        '{"eps":0.3,"kind":"dbscan","min_samples":2,"positional_weight":0.5} 1 0.650 0.700 0.667',
    ],
    "06_significance.py": [
        "q01 0.667 0.500 -0.167",
        "q02 0.500 0.500 +0.000",
        "q03 0.000 0.500 +0.500",
        "q04 0.400 0.400 +0.000",
        "q05 0.667 0.500 -0.167",
        "q06 0.000 0.000 +0.000",
        "q07 0.500 0.500 +0.000",
        "q08 0.667 0.667 +0.000",
        "q09 0.667 0.500 -0.167",
        "q10 1.000 0.500 -0.500",
        "mean = 0.507 vs 0.457",
        "two-sided paired permutation test: p = 0.6250",
    ],
}


def test_demos_are_found():
    assert len(DEMOS) >= 6
    assert set(PINNED) <= {demo.name for demo in DEMOS}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo, tmp_path):
    # Development mode shows a leaked file handle as a ResourceWarning; -W error fails on it.
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", str(demo)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
    # A demo writes nothing where it is run from.
    assert list(tmp_path.iterdir()) == []
    printed = {" ".join(line.split()) for line in proc.stdout.splitlines()}
    assert [line for line in PINNED.get(demo.name, []) if line not in printed] == []
