import ast
import os
import threading

import pytest

from chunkbench.chunkers import Chunk, write_chunks
from chunkbench.corpus import Document, QueryRecord, write_corpus
from chunkbench.files import read_jsonl, replacing, write_jsonl

from conftest import REPO_ROOT

SRC = REPO_ROOT / "src" / "chunkbench"
# A value json.dumps cannot serialise: a writer meeting it fails partway through.
UNSERIALISABLE = {1, 2}


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
        assert list(read_jsonl(path, ValueError)) == [
            (f"rows.jsonl:{i + 1}", {"a": [i], "b": i}) for i in range(3)
        ]

    def test_blank_lines_skipped_but_counted(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n\n  \n{"a": 2}\n', encoding="utf-8")
        assert [where for where, _ in read_jsonl(path, ValueError)] == [
            "rows.jsonl:1", "rows.jsonl:4"
        ]

    @pytest.mark.parametrize(
        "line, message",
        [
            ("{not json", "rows.jsonl:2: malformed JSON"),
            ("[1, 2]", "rows.jsonl:2: expected a JSON object"),
        ],
    )
    def test_bad_line_raises_the_given_error(self, tmp_path, line, message):
        class Custom(Exception):
            pass

        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(Custom, match=message):
            list(read_jsonl(path, Custom))


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
