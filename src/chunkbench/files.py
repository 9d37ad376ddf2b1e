"""The one file layer: whole-or-nothing writes, JSON lines, and the typed reader.

Standard library only, so every module may use it.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import threading
import typing
from contextlib import contextmanager
from dataclasses import MISSING
from pathlib import Path
from types import UnionType
from typing import IO, Any, Callable, Iterable, Iterator


@contextmanager
def replacing(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """Write to <name>.<pid>.<thread id>.tmp beside path, then rename it over path.

    Creates the parent directory when it is missing. The temp file is removed
    when the write or the rename fails, so an interrupted writer leaves path
    as it was, never half written.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    try:
        fh = open(tmp, mode, **text)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(tmp, mode, **text)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    """Write one sorted-key JSON object per line; records may be a generator."""
    with replacing(path) as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def read_jsonl(path: str | Path, cls: type, error: type[Exception]) -> Iterator[tuple[str, Any]]:
    """Yield ("<file name>:<line>", from_json(cls, line)) per non-blank line;
    raise error naming the file when it cannot be opened, and naming the file
    and line for bytes that are not UTF-8, malformed JSON or anything
    from_json rejects."""
    path = Path(path)
    try:
        # Bytes that are not UTF-8 read as lone surrogates, which encode() rejects.
        fh = path.open(encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path.name}:{lineno}"
            try:
                line.encode("utf-8")
                record = from_json(cls, json.loads(line))
            except UnicodeEncodeError as exc:
                raise error(f"{where}: not UTF-8") from exc
            except json.JSONDecodeError as exc:
                raise error(f"{where}: malformed JSON ({exc.msg})") from exc
            except ValueError as exc:
                raise error(f"{where}: {exc}") from exc
            yield where, record


def from_json(cls: type, data: object, name: str = "") -> Any:
    """cls built from the JSON object data, each value checked against its field.

    Each key must name an __init__ field, and each value have the field's
    type: int, float, str, dict, None, a Path (from a string), a list[T] or
    tuple[T, ...] (from a list), a nested dataclass (from an object) or a
    union of these. An int is taken for a float field and becomes a float;
    a float field refuses NaN, ±Infinity and an int too large for a float;
    a bool is never a number. Omitted fields keep their defaults; range
    checks are cls's own. A ValueError names the value by its dotted path
    below name ("embedder.dimension").
    """
    if type(data) is not dict:
        raise ValueError(f"{name or cls.__name__} must be an object, got {data!r}")
    kinds, required = _fields(cls)
    path = f"{name}." if name else ""
    values = {}
    for key, value in data.items():
        if key not in kinds:
            raise ValueError(f"unknown {name + ' ' if name else ''}key {key!r}")
        values[key] = _read(kinds[key], value, path + key)
    for key in required:
        if key not in data:
            raise ValueError(f"{path}{key} is required")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}" if name else exc) from exc


@functools.cache
def _fields(cls: type) -> tuple[dict[str, tuple], list[str]]:
    """(field name -> _kind, fields without a default) of cls, built once per class."""
    hints = typing.get_type_hints(cls)
    init = [f for f in dataclasses.fields(cls) if f.init]
    required = [f.name for f in init if f.default is MISSING and f.default_factory is MISSING]
    return {f.name: _kind(hints[f.name]) for f in init}, required


# What a message calls each JSON type, matched exactly: a bool is no int here.
_JSON_TYPES = {int: "an integer", str: "a string", dict: "an object", type(None): "null"}


def _kind(hint: Any) -> tuple[tuple[type, ...], Callable[[Any, str], Any], str]:
    """(the JSON types a field of type hint takes, their reader, their name)."""
    origin = typing.get_origin(hint) or hint
    if origin in (typing.Union, UnionType):
        kinds = [_kind(arg) for arg in typing.get_args(hint)]
        return (
            sum((kind[0] for kind in kinds), ()),
            lambda value, key: next(r for t, r, _ in kinds if type(value) in t)(value, key),
            " or ".join(dict.fromkeys(kind[2] for kind in kinds)),
        )
    if dataclasses.is_dataclass(hint):
        return (dict,), functools.partial(from_json, hint), "an object"
    if hint is Path:
        return (str,), lambda value, _: Path(value), "a string"
    if origin in (list, tuple):
        item = _kind(typing.get_args(hint)[0])
        return (
            (list,),
            lambda value, key: origin(_read(item, v, f"{key}[{i}]") for i, v in enumerate(value)),
            "a list",
        )
    if hint is float:
        return (int, float), finite, "a number"
    return (hint,), lambda value, _: value, _JSON_TYPES[hint]


def finite(value: Any, key: str) -> float:
    """float(value), or a ValueError naming key when that is not a finite number."""
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"{key} is too large for a float") from None
    if not math.isfinite(number):
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    return number


def _read(kind: tuple, value: Any, key: str) -> Any:
    """The field value that a _kind reads from value, named key in errors."""
    types, read, wanted = kind
    if type(value) not in types:
        raise ValueError(f"{key} must be {wanted}, got {value!r}")
    return read(value, key)
