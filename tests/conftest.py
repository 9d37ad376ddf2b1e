import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

from chunkbench import embedding
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
        self.handler = None  # fn(payload) -> (status, body_dict)
        self.port = 0

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}/v1"

    def set_handler(self, fn) -> None:
        with self.lock:
            self.handler = fn

    def embed_with(self, fn) -> None:
        """Handler answering {"embeddings": [fn(text) for text in texts]}."""

        def handler(payload):
            return 200, {"embeddings": [fn(text) for text in payload["texts"]]}

        self.set_handler(handler)


@pytest.fixture
def mock_service():
    service = MockService()

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
                        "path": self.path,
                        "authorization": self.headers.get("Authorization"),
                        "payload": payload,
                    }
                )
                handler = service.handler
            if handler is None:
                status, body = 500, {"error": "no handler installed"}
            else:
                status, body = handler(payload)
            data = json.dumps(body).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

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
        yield service
    finally:
        server.shutdown()
        thread.join(timeout=5)


@pytest.fixture(autouse=True)
def fresh_embedding_memo():
    """Each test starts with an empty in-process embedding memo."""
    embedding._MEMO.clear()
    yield
    embedding._MEMO.clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
