"""The one file layer: whole-or-nothing writes and the JSON-lines format.

Standard library only, so every module may use it.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterable, Iterator


@contextmanager
def replacing(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """Write to <name>.<pid>.<thread id>.tmp beside path, then rename it over path.

    Creates the parent directory. The temp file is removed on any exit, so an
    interrupted writer leaves path as it was, never half written.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    """Write one sorted-key JSON object per line; records may be a generator."""
    with replacing(path) as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def read_jsonl(path: str | Path, error: type[Exception]) -> Iterator[tuple[str, dict]]:
    """Yield ("<file name>:<line>", object) per non-blank line; raise error,
    naming the file and line, for malformed JSON or a non-object line."""
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path.name}:{lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise error(f"{where}: malformed JSON ({exc.msg})") from exc
            if not isinstance(obj, dict):
                raise error(f"{where}: expected a JSON object")
            yield where, obj
