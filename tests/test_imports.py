import ast
import sys

from conftest import REPO_ROOT

SRC = REPO_ROOT / "src" / "chunkbench"
# The one runtime dependency outside the standard library.
ALLOWED = {"numpy"}


def outside_imports(source: str) -> list[str]:
    """Each import in source that is neither relative, numpy, nor part of
    the standard library, as "line: module", in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        for module in modules:
            top = module.split(".")[0]
            if top not in ALLOWED and top not in sys.stdlib_module_names:
                found.append((node.lineno, module))
    return [f"{line}: {module}" for line, module in sorted(found)]


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

