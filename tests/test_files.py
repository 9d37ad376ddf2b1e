import ast
import itertools
import math
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from chunkbench.chunkers import Chunk, write_chunks
from chunkbench.corpus import Document, QueryRecord, write_corpus
from chunkbench.embedding import EmbedderSpec, embed_batch
from chunkbench.files import from_json, read_jsonl, replacing, write_jsonl

from conftest import REPO_ROOT, store_rows

SRC = REPO_ROOT / "src" / "chunkbench"
# A value json.dumps cannot serialise: a writer meeting it fails partway through.
UNSERIALISABLE = {1, 2}


@dataclass(frozen=True)
class Inner:
    size: int
    weight: float = 0.5

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"size must be >= 1, got {self.size}")


@dataclass(frozen=True)
class Outer:
    where: Path = Path("here")
    label: str | None = None
    sizes: list[int] = field(default_factory=list)
    inner: Inner | None = None
    offsets: tuple[int, ...] = ()


@dataclass(frozen=True)
class Row:
    a: list[int]
    b: int = 0

    def __post_init__(self):
        if self.b < 0:
            raise ValueError(f"b must be >= 0, got {self.b}")


class TestFromJson:
    def test_reads_every_kind_of_field(self):
        outer = from_json(
            Outer,
            {"where": "a/b", "sizes": [1, 2], "inner": {"size": 3, "weight": 1}, "offsets": [4]},
        )
        assert outer == Outer(Path("a/b"), None, [1, 2], Inner(3, 1.0), (4,))
        assert type(outer.inner.weight) is float
        assert type(outer.offsets) is tuple
        assert from_json(Outer, {"inner": None}) == Outer()

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"where": 5}, "where must be a string, got 5"),
            ({"label": True}, "label must be a string or null, got True"),
            ({"sizes": [1, True]}, r"sizes\[1\] must be an integer, got True"),
            ({"sizes": (1,)}, "sizes must be a list, got"),
            ({"inner": {"size": 2.0}}, "inner.size must be an integer, got 2.0"),
            ({"inner": {"size": 1, "weight": "1"}}, "inner.weight must be a number, got '1'"),
            ({"inner": {"size": 1, "weight": False}}, "inner.weight must be a number, got False"),
            ({"inner": {}}, "inner.size is required"),
            ({"inner": {"size": 0}}, "inner: size must be >= 1, got 0"),
            ({"inner": {"size": 1, "sise": 1}}, "unknown inner key 'sise'"),
            ({"inner": []}, r"inner must be an object or null, got \[\]"),
            ({"wher": "x"}, "unknown key 'wher'"),
            ({"offsets": [1, True]}, r"offsets\[1\] must be an integer, got True"),
            ({"offsets": 1}, "offsets must be a list, got 1"),
        ],
    )
    def test_a_bad_value_is_named_by_its_path(self, data, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            from_json(Outer, data)

    @pytest.mark.parametrize(
        "weight, message",
        [
            (math.nan, "inner.weight must be a finite number, got nan"),
            (math.inf, "inner.weight must be a finite number, got inf"),
            (-math.inf, "inner.weight must be a finite number, got -inf"),
            (10**400, "inner.weight is too large for a float"),
            (-(10**400), "inner.weight is too large for a float"),
        ],
        ids=["nan", "inf", "-inf", "huge", "-huge"],
    )
    def test_a_float_field_takes_only_finite_numbers(self, weight, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            from_json(Outer, {"inner": {"size": 1, "weight": weight}})

    def test_a_float_field_takes_the_largest_finite_numbers(self):
        for weight in (2**1023, -(2**1023), 1.7976931348623157e308, 5e-324):
            assert from_json(Inner, {"size": 1, "weight": weight}).weight == float(weight)

    def test_a_non_object_names_the_class_or_the_path(self):
        with pytest.raises(ValueError, match="^Outer must be an object"):
            from_json(Outer, [1])
        with pytest.raises(ValueError, match="^outer must be an object"):
            from_json(Outer, "x", "outer")


class TestReplacing:
    def test_interrupted_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text("complete\n", encoding="utf-8")
        with pytest.raises(KeyboardInterrupt):
            with replacing(path) as fh:
                fh.write("partial")
                raise KeyboardInterrupt
        assert path.read_text(encoding="utf-8") == "complete\n"
        assert [p.name for p in tmp_path.iterdir()] == ["results.jsonl"]

    def test_failed_rename_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "results.jsonl"
        path.write_text("complete\n", encoding="utf-8")

        def refuse(src, dst):
            raise PermissionError(f"cannot replace {dst}")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(PermissionError):
            with replacing(path) as fh:
                fh.write("new\n")
        assert path.read_text(encoding="utf-8") == "complete\n"
        assert [p.name for p in tmp_path.iterdir()] == ["results.jsonl"]

    def test_completed_write_replaces(self, tmp_path):
        path = tmp_path / "summary.csv"
        path.write_text("old\n", encoding="utf-8")
        with replacing(path) as fh:
            fh.write("new\n")
        assert path.read_text(encoding="utf-8") == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["summary.csv"]

    def test_creates_the_parent_directory(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.txt"
        with replacing(path) as fh:
            fh.write("x\n")
        assert path.read_text(encoding="utf-8") == "x\n"

    def test_creates_a_missing_nested_directory_in_binary_mode(self, tmp_path):
        path = tmp_path / "cache" / "deep" / "blob.vec"
        with replacing(path, "wb") as fh:
            fh.write(b"\x01")
        assert path.read_bytes() == b"\x01"
        assert [p.name for p in path.parent.iterdir()] == ["blob.vec"]

    def test_filling_a_cache_directory_makes_it_at_most_once(self, tmp_path, monkeypatch):
        made = []
        real = Path.mkdir

        def mkdir(self, *args, **kwargs):
            made.append(self)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", mkdir)
        spec = EmbedderSpec(backend="test", dimension=16, cache_dir=tmp_path / "cache")
        texts = [f"cache entry {i}" for i in range(200)]
        for start in range(0, 200, 20):
            embed_batch(spec, texts[start : start + 20])
        assert len(store_rows(tmp_path / "cache")) == 200
        assert made == [tmp_path / "cache"]

    def test_binary_mode(self, tmp_path):
        path = tmp_path / "blob.bin"
        with replacing(path, "wb") as fh:
            fh.write(b"\x00\xff")
        assert path.read_bytes() == b"\x00\xff"
        assert [p.name for p in tmp_path.iterdir()] == ["blob.bin"]

    def test_temp_file_is_per_process_and_thread(self, tmp_path):
        path = tmp_path / "out.txt"
        with replacing(path) as fh:
            names = [p.name for p in tmp_path.iterdir()]
        assert names == [f"out.txt.{os.getpid()}.{threading.get_ident()}.tmp"]
        assert fh.closed


class TestJsonLines:
    def test_round_trip_names_lines(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        write_jsonl(path, ({"b": i, "a": [i]} for i in range(3)))
        assert path.read_text(encoding="utf-8").splitlines()[0] == '{"a": [0], "b": 0}'
        assert list(read_jsonl(path, Row, ValueError)) == [
            (f"rows.jsonl:{i + 1}", Row([i], i)) for i in range(3)
        ]

    def test_blank_lines_skipped_but_counted(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": [1]}\n\n  \n{"a": [2]}\n', encoding="utf-8")
        assert [where for where, _ in read_jsonl(path, Row, ValueError)] == [
            "rows.jsonl:1", "rows.jsonl:4"
        ]

    def test_line_endings_number_lines_as_text_mode_does(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_bytes(b'{"a": [1]}\r\n{"a": [2]}\r{"a": [3]}\n\n{"b": "\xff"}\n')
        rows = read_jsonl(path, Row, ValueError)
        assert [where for where, _ in itertools.islice(rows, 3)] == [
            "rows.jsonl:1", "rows.jsonl:2", "rows.jsonl:3"
        ]
        with pytest.raises(ValueError, match="^rows.jsonl:5: not UTF-8$"):
            next(rows)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("{not json", "rows.jsonl:2: malformed JSON"),
            ("[1, 2]", "rows.jsonl:2: Row must be an object"),
            ('{"b": 1}', "rows.jsonl:2: a is required"),
            ('{"a": [1], "c": 2}', "rows.jsonl:2: unknown key 'c'"),
            ('{"a": ["1"]}', r"rows.jsonl:2: a\[0\] must be an integer, got '1'"),
            ('{"a": [], "b": -1}', "rows.jsonl:2: b must be >= 0, got -1"),
            # Written as the single byte 0xff, which is not UTF-8.
            ('{"a": [], "b": "\udcff"}', "rows.jsonl:2: not UTF-8"),
        ],
    )
    def test_bad_line_raises_the_given_error(self, tmp_path, line, message):
        class Custom(Exception):
            pass

        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": [1]}\n' + line + "\n", encoding="utf-8", errors="surrogateescape")
        with pytest.raises(Custom, match=f"^{message}"):
            list(read_jsonl(path, Row, Custom))


    @pytest.mark.parametrize("kind", ["directory", "missing"])
    def test_file_that_cannot_be_opened_raises_the_given_error(self, tmp_path, kind):
        class Custom(Exception):
            pass

        path = tmp_path / "rows.jsonl"
        if kind == "directory":
            path.mkdir()
        with pytest.raises(Custom, match=r"^cannot read .*rows\.jsonl: \[Errno") as info:
            list(read_jsonl(path, Row, Custom))
        assert isinstance(info.value.__cause__, OSError)


class TestInterruptedWriters:
    """A writer that fails partway leaves the previous file whole and no temp file."""

    def assert_untouched(self, directory, before):
        assert {p.name: p.read_bytes() for p in directory.iterdir()} == before

    def test_write_corpus(self, tmp_path):
        docs = [Document("a", "One. Two."), Document("b", "Three.")]
        write_corpus(docs, [QueryRecord("q", "Where?")], tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        bad = [Document("a", "Changed."), Document("b", "Three.", meta={"x": UNSERIALISABLE})]
        with pytest.raises(TypeError):
            write_corpus(bad, [], tmp_path)
        self.assert_untouched(tmp_path, before)

    def test_write_chunks(self, tmp_path):
        path = tmp_path / "chunks.jsonl"
        write_chunks([Chunk("d-0000", "d", (0,), "Old.")], path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        bad = [Chunk("d-0000", "d", (0,), "New."), Chunk("d-0001", "d", (1,), UNSERIALISABLE)]
        with pytest.raises(TypeError):
            write_chunks(bad, path)
        self.assert_untouched(tmp_path, before)


def file_writes(source: str) -> list[str]:
    """Each place in source that writes or renames a file by itself, as "line: what",
    in line order.

    That is os.replace / os.rename, .write_text / .write_bytes, an open() or
    .open() whose mode is not a read-only literal, and a JSON-lines line
    (json.dumps(...) + "\\n" without an indent).
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            left = node.left
            if (
                isinstance(left, ast.Call)
                and ast.unparse(left.func) == "json.dumps"
                and not any(kw.arg == "indent" for kw in left.keywords)
                and isinstance(node.right, ast.Constant)
                and node.right.value == "\n"
            ):
                found.append((node.lineno, "a JSON-lines line"))
        if not isinstance(node, ast.Call):
            continue
        name = ast.unparse(node.func)
        attr = node.func.attr if isinstance(node.func, ast.Attribute) else name
        if name in ("os.replace", "os.rename") or attr in ("write_text", "write_bytes"):
            found.append((node.lineno, name))
        elif attr == "open":
            # open(file, mode) takes the mode second; Path.open(mode) first.
            position = 1 if isinstance(node.func, ast.Name) else 0
            mode = next((kw.value for kw in node.keywords if kw.arg == "mode"), None)
            if mode is None and len(node.args) > position:
                mode = node.args[position]
            if mode is not None and not (
                isinstance(mode, ast.Constant)
                and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+")
            ):
                found.append((node.lineno, f"{name} in mode {ast.unparse(mode)}"))
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_only_the_files_module_writes_files():
    offenders = {
        path.name: found
        for path in sorted(SRC.glob("*.py"))
        if path.name != "files.py" and (found := file_writes(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def test_the_write_guard_sees_each_kind_of_write():
    source = "\n".join(
        [
            "os.replace(a, b)",
            "p.write_text('x')",
            "p.write_bytes(b'x')",
            "open(p, 'w')",
            "open(p, mode='ab')",
            "p.open('r+')",
            "p.open(mode)",
            "fh.write(json.dumps(row, sort_keys=True) + '\\n')",
            # Reads and indented JSON documents are fine.
            "open(p)",
            "p.open(encoding='utf-8')",
            "p.open('rb')",
            "json.dumps(x, indent=2) + '\\n'",
        ]
    )
    assert [entry.split(":")[0] for entry in file_writes(source)] == [
        str(line) for line in range(1, 9)
    ]
