import ast
import json
import subprocess
import sys

from conftest import MINI_DATASET, REPO_ROOT

SRC = REPO_ROOT / "src" / "chunkbench"
# The one runtime dependency outside the standard library.
ALLOWED = {"numpy"}


def absolute_imports(source: str) -> list[tuple[int, str]]:
    """Each import in source that is not relative, as (line, module), in
    line order; imports inside functions count too."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
    return sorted(found)


def outside_imports(source: str) -> list[str]:
    """Each import in source that is neither relative, numpy, nor part of
    the standard library, as "line: module", in line order."""
    return [
        f"{line}: {module}"
        for line, module in absolute_imports(source)
        if (top := module.split(".")[0]) not in ALLOWED and top not in sys.stdlib_module_names
    ]


def test_package_imports_only_numpy_and_the_standard_library():
    offenders = {
        path.name: found
        for path in sorted(SRC.glob("*.py"))
        if (found := outside_imports(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def test_the_import_guard_sees_each_kind_of_import():
    source = "\n".join(
        [
            "import requests",
            "import os, urllib3.util",
            "from requests.adapters import HTTPAdapter",
            # Relative, numpy and standard-library imports are fine.
            "from __future__ import annotations",
            "from . import files",
            "from .files import replacing",
            "import numpy as np",
            "from numpy.linalg import norm",
            "import urllib.request",
            "from http.client import HTTPException",
        ]
    )
    assert outside_imports(source) == [
        "1: requests",
        "2: urllib3.util",
        "3: requests.adapters",
    ]


def test_the_file_layer_imports_alone():
    # files.py is standard library only so every module may import it; the
    # package root must not drag the other modules, or numpy, in with it.
    code = (
        "import json, sys, chunkbench.files; "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('chunkbench', 'numpy'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(SRC.parent)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert json.loads(proc.stdout) == ["chunkbench", "chunkbench.files"]


def test_only_the_transport_imports_the_network_stack():
    importers = {
        path.name
        for path in SRC.glob("*.py")
        for _, module in absolute_imports(path.read_text(encoding="utf-8"))
        if module.split(".")[0] in ("urllib", "http")
    }
    assert importers == {"transport.py"}


def test_a_test_backend_bench_loads_no_network_stack_thread_pool_or_masked_arrays(tmp_path):
    # The HTTP client and the thread pool load on first send, breakpoint
    # percentiles do not go through np.percentile, which imports numpy.ma,
    # and sqlite3 loads with the first vector store, which needs a cache_dir.
    code = (
        "import json, sys; from chunkbench.cli import main; "
        f"codes = [main(['bench', '--task', task, '--dataset', {str(MINI_DATASET)!r}, "
        f"'--out', {str(tmp_path)!r} + '/' + task]) for task in ('doc', 'evidence')]; "
        "print(json.dumps([codes, sorted(sys.modules)]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(SRC.parent)},
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    codes, modules = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0]
    assert (tmp_path / "evidence" / "results.jsonl").stat().st_size > 0
    unwanted = {
        "http.client",
        "urllib.request",
        "ssl",
        "concurrent.futures",
        "numpy.ma",
        "chunkbench.transport",
        "sqlite3",
        "_sqlite3",
    }
    assert "chunkbench.chunkers" in modules
    assert unwanted.isdisjoint(modules), sorted(unwanted.intersection(modules))
