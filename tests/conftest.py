import json
import sqlite3
import threading
from contextlib import closing, contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Iterator

import numpy as np
import pytest

from chunkbench import embedding, evaluation, transport
from chunkbench.embedding import token_bucket
from chunkbench.segmenter import SegmentedDocument, Sentence

REPO_ROOT = Path(__file__).resolve().parent.parent
MINI_DATASET = REPO_ROOT / "data" / "mini"


def make_doc(doc_id: str, texts: list[str]) -> SegmentedDocument:
    """Assemble a SegmentedDocument directly from sentence texts."""
    sentences = []
    offset = 0
    for index, text in enumerate(texts):
        sentences.append(Sentence(index=index, text=text, char_span=(offset, offset + len(text))))
        offset += len(text) + 1
    return SegmentedDocument(doc_id=doc_id, sentences=tuple(sentences))


def pick_disjoint_tokens(count: int, dimension: int) -> list[str]:
    """Synthetic tokens whose hash buckets are pairwise distinct.

    Guarantees exactly orthogonal deterministic embeddings for single-token
    sentences, so fixtures can plant known cosine structure.
    """
    tokens: list[str] = []
    used: set[int] = set()
    candidate = 0
    while len(tokens) < count:
        token = f"tok{candidate}"
        index, _ = token_bucket(token, dimension)
        if index not in used:
            used.add(index)
            tokens.append(token)
        candidate += 1
        if candidate > 100_000:
            raise RuntimeError("could not find disjoint tokens")
    return tokens


class MockService:
    """Thread-safe recording JSON-over-HTTP stub for embed/generate endpoints."""

    def __init__(self) -> None:
        self.requests: list[dict] = []
        self.lock = threading.Lock()
        # fn(payload) -> (status, body) or (status, body, headers): a dict body
        # is sent as JSON, bytes as they are; headers are added to the reply.
        self.handler = None
        self.port = 0

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}/v1"

    def redirect_to(self, status: int, location: str) -> None:
        """Handler answering every request with a redirect to location."""
        self.set_handler(lambda payload: (status, {}, {"Location": location}))

    def set_handler(self, fn) -> None:
        with self.lock:
            self.handler = fn

    def embed_with(self, fn) -> None:
        """Handler answering {"embeddings": [fn(text) for text in texts]}."""

        def handler(payload):
            return 200, {"embeddings": [fn(text) for text in payload["texts"]]}

        self.set_handler(handler)


@contextmanager
def serving(service: MockService) -> Iterator[ThreadingHTTPServer]:
    """Serve service on a free local port until the block exits, then close
    the listening socket."""

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):  # noqa: N802 (http.server API)
            length = int(self.headers.get("Content-Length", 0))
            raw = self.rfile.read(length) if length else b"{}"
            try:
                payload = json.loads(raw)
            except json.JSONDecodeError:
                payload = {}
            with service.lock:
                service.requests.append(
                    {
                        "method": self.command,
                        "path": self.path,
                        "authorization": self.headers.get("Authorization"),
                        "payload": payload,
                    }
                )
                handler = service.handler
            if handler is None:
                status, body, *headers = 500, {"error": "no handler installed"}
            else:
                status, body, *headers = handler(payload)
            data = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            for name, value in (headers[0] if headers else {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(data)

        # A 301/302/303 redirect turns a POST into a GET.
        do_GET = do_POST

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    service.port = server.server_port
    # A short poll interval keeps shutdown() from waiting out the default 0.5 s.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture
def mock_service():
    service = MockService()
    with serving(service):
        yield service


def close_stores() -> None:
    """Close every vector store this process opened, as its exit does."""
    while embedding._STORES:
        embedding._STORES.popitem()[1].close()


def new_process() -> None:
    """Forget what this process embedded and close its vector stores, as a
    new process would start."""
    embedding._MEMO.clear()
    close_stores()
    embedding._HEALED.clear()


@pytest.fixture(autouse=True)
def fresh_embedding_memo():
    """Each test starts with an empty in-process embedding memo, piece memo and
    chunk-bitmask memo, and no vector store open."""
    new_process()
    embedding._piece_buckets.cache_clear()
    evaluation._bits.cache_clear()
    yield
    new_process()
    embedding._piece_buckets.cache_clear()
    evaluation._bits.cache_clear()


def store_rows(cache_dir: Path) -> dict[str, bytes]:
    """Each row of cache_dir's vector store, key -> blob, read after this
    process's stores are closed."""
    close_stores()
    with closing(sqlite3.connect(Path(cache_dir) / "vectors.sqlite")) as db:
        return dict(db.execute("SELECT key, blob FROM vectors"))


def set_store_row(cache_dir: Path, key: str, blob: bytes) -> None:
    """Overwrite one row of cache_dir's vector store, as a torn write would."""
    close_stores()
    with closing(sqlite3.connect(Path(cache_dir) / "vectors.sqlite")) as db, db:
        assert db.execute("UPDATE vectors SET blob = ? WHERE key = ?", (blob, key)).rowcount == 1


@pytest.fixture(autouse=True)
def no_retry_waits(monkeypatch):
    """HTTP clients retry at once; tests of the backoff schedule set it back."""
    monkeypatch.setattr(transport, "_RETRY_BASE_DELAY", 0.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
