"""Pluggable text embedders producing unit-norm float32 vectors, with a SQLite disk cache.

Two backends share one interface: ``remote`` speaks a small JSON wire
contract (POST {"model", "texts"} -> {"embeddings"}), ``test`` is a
deterministic hash-based bag-of-words embedder that needs no network and
gives bit-identical vectors on every platform.
"""

from __future__ import annotations

import atexit
import contextlib
import functools
import hashlib
import itertools
import json
import logging
import re
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

logger = logging.getLogger(__name__)

API_KEY_ENV = "EMBED_API_KEY"
BACKENDS = ("test", "remote")
_RETRY_ATTEMPTS = 3
_REQUEST_TIMEOUT = 30.0
_TOKEN_SPLIT = re.compile(r"[\W_]+")
# Every vector embedded in this process, per spec; see embed_batch. Nothing
# drops a text from it, so memoised_vectors can read back from here every
# vector embed_batch has returned, for the life of the process.
_MEMO: dict[EmbedderSpec, dict[str, np.ndarray]] = {}
# The vector stores' sqlite3 connections, and the stores replaced; see _store.
_STORES: dict = {}
_HEALED: set[Path] = set()


class EmbeddingError(RuntimeError):
    """Backend failure or a response violating the embedding contract."""

    def __init__(self, message: str, status: int | None = None) -> None:
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class EmbedderSpec:
    """Which embedder to use and how to talk to it."""

    backend: str = "test"
    model_id: str = "hash-v1"
    dimension: int = 512
    endpoint: str | None = None
    batch_size: int = 32
    cache_dir: str | Path | None = None
    max_concurrency: int = 4

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {self.backend!r}")
        if self.dimension < 2:
            raise ValueError(f"dimension must be >= 2, got {self.dimension}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_concurrency < 1:
            raise ValueError(f"max_concurrency must be >= 1, got {self.max_concurrency}")
        if self.backend == "remote" and not self.endpoint:
            raise ValueError("remote backend requires an endpoint")


def tokenize(text: str) -> list[str]:
    """Case-fold and split on non-alphanumeric runs."""
    return [t for t in _TOKEN_SPLIT.split(text.casefold()) if t]


@functools.lru_cache(maxsize=1 << 16)
def token_bucket(token: str, dimension: int) -> tuple[int, int]:
    """Coordinate index and sign (+1/-1) a token hashes to.

    Uses blake2b so the mapping is identical across platforms and runs.
    Memoised per (token, dimension) for the life of the process. The memo
    needs one entry per distinct token, about 600 on data/mini, and keeps
    at most 65,536, dropping the least recently used.
    """
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    h = int.from_bytes(digest, "little")
    sign = 1 if h & 1 == 0 else -1
    return (h >> 1) % dimension, sign


def deterministic_embed(text: str, dimension: int) -> np.ndarray:
    """Hash bag-of-words embedding; identical text gives an identical unit vector.

    Text with no tokens at all maps to the first basis vector.
    """
    if dimension < 2:
        raise ValueError(f"dimension must be >= 2, got {dimension}")
    return _hash_embed([text], dimension)[0]


# One token's token_bucket (index, sign), as _piece_buckets packs it.
_BUCKET = np.dtype([("index", np.int64), ("sign", np.int64)])


@functools.lru_cache(maxsize=1 << 16)
def _piece_buckets(piece: str, dimension: int) -> bytes:
    """token_bucket of each token of piece, in order, packed as _BUCKET records.

    Memoised per (piece, dimension) for the life of the process, so a
    sentence that recurs in many chunk texts is tokenized and hashed once.
    The memo needs one entry per distinct piece, 318 on perfbench's seed-3
    stitched corpus (one per sentence), and keeps at most 65,536, dropping
    the least recently used.
    """
    buckets = [token_bucket(t, dimension) for t in tokenize(piece)]
    return np.array(buckets, dtype=_BUCKET).tobytes()


def _hash_embed(texts: Sequence[str], dimension: int) -> np.ndarray:
    """deterministic_embed of each of one or more texts, as the rows of one
    float32 array.

    Each text, less a trailing ``"."``, is split at ``". "`` into one piece
    per sentence, whose token buckets come from the _piece_buckets memo, and
    one bincount over (text, bucket) sums every row's signed token counts.
    The split leaves the tokens unchanged: ``str.casefold`` maps each code
    point on its own (no final-sigma context, unlike ``lower``) and ``.``
    and the space match ``[\\W_]``, so no token spans a joint or a dropped
    ``"."``: ``tokenize(a + ". " + b) == tokenize(a) + tokenize(b)``. The
    sums are small integers, exact in float64 whatever the order, and so
    are the squared norms: each row is what one text alone would give.
    """
    split = (text.removesuffix(".").split(". ") for text in texts)
    pieces = [[_piece_buckets(p, dimension) for p in ps] for ps in split]
    which = np.frombuffer(b"".join(itertools.chain.from_iterable(pieces)), dtype=_BUCKET)
    sizes = [sum(map(len, ps)) // _BUCKET.itemsize for ps in pieces]
    text_of = np.repeat(np.arange(len(texts)), sizes)
    # A bincount of no tokens at all comes back as integers.
    acc = np.bincount(
        text_of * dimension + which["index"],
        weights=which["sign"],
        minlength=len(texts) * dimension,
    ).astype(np.float64, copy=False)
    acc = acc.reshape(len(texts), dimension)
    norms = np.linalg.norm(acc, axis=1)
    tokenless = norms == 0.0
    np.divide(acc, norms[:, None], out=acc, where=~tokenless[:, None])
    out = acc.astype(np.float32)
    out[tokenless, 0] = 1.0
    return out


def embed_batch(spec: EmbedderSpec, texts: Sequence[str]) -> np.ndarray:
    """Embed texts in order; returns a (len(texts), dimension) float32 array.

    Every row is L2-normalized. Vectors are memoised in memory per spec for
    the life of the process, so a text seen before costs neither a cache
    read nor backend work. Behind the memo, with a cache_dir configured,
    vectors are looked up by (model_id, text content) before the backend is
    asked, and fresh results are committed; a second identical call does no
    backend work and returns bit-identical rows. Within one call each
    distinct text is looked up and computed at most once. The returned array
    is always a fresh copy that callers may modify. The memo and the cache
    take no locks, so call this from one thread at a time.
    """
    items = list(texts)
    for t in items:
        if not isinstance(t, str) or not t:
            raise ValueError("texts must be non-empty strings")
    if not items:
        return np.zeros((0, spec.dimension), dtype=np.float32)

    memo = _MEMO.setdefault(spec, {})
    missing = [text for text in dict.fromkeys(items) if text not in memo]
    cache = _VectorCache(spec) if missing and spec.cache_dir else None
    if cache is not None:
        memo.update((text, hit) for text in missing if (hit := cache.get(text)) is not None)
        missing = [text for text in missing if text not in memo]

    if missing:
        fresh = _compute(spec, missing)
        if cache is not None:
            cache.put(missing, fresh)
        memo.update(zip(missing, fresh))
    return np.stack([memo[text] for text in items])


def memoised_vectors(spec: EmbedderSpec, texts: Sequence[str]) -> np.ndarray:
    """The rows embed_batch has returned for texts, read back from the memo:
    for a caller that keeps no copy of the vectors it had embedded. Reading
    them is no embedding work and sends nothing to the backend; a text not
    embedded under spec in this process raises KeyError."""
    memo = _MEMO.get(spec, {})
    return np.stack([memo[text] for text in texts])


def _compute(spec: EmbedderSpec, texts: list[str]) -> np.ndarray:
    if spec.backend == "test":
        return _hash_embed(texts, spec.dimension)
    # Only remote batches use threads, so a test-backend run never loads the pool.
    from concurrent.futures import ThreadPoolExecutor

    batches = [texts[i : i + spec.batch_size] for i in range(0, len(texts), spec.batch_size)]
    with ThreadPoolExecutor(max_workers=min(spec.max_concurrency, len(batches))) as pool:
        return np.vstack(list(pool.map(lambda batch: _remote_batch(spec, batch), batches)))


def _remote_batch(spec: EmbedderSpec, batch: list[str]) -> np.ndarray:
    from .transport import post_with_retries

    body = post_with_retries(
        "embedding",
        spec.endpoint,
        {"model": spec.model_id, "texts": batch},
        EmbeddingError,
        api_key_env=API_KEY_ENV,
        timeout=_REQUEST_TIMEOUT,
        attempts=_RETRY_ATTEMPTS,
    )
    if not isinstance(body, dict) or "embeddings" not in body:
        raise EmbeddingError('embedding response is missing the "embeddings" field')
    try:
        raw = np.asarray(body["embeddings"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise EmbeddingError(f"embedding response is malformed: {exc}") from exc
    if raw.ndim != 2 or raw.shape[0] != len(batch):
        got = raw.shape[0] if raw.ndim >= 1 else 0
        raise EmbeddingError(f"backend returned {got} embeddings for {len(batch)} texts")
    if raw.shape[1] != spec.dimension:
        raise EmbeddingError(
            f"backend returned dimension {raw.shape[1]}, expected {spec.dimension}"
        )
    if not np.all(np.isfinite(raw)):
        raise EmbeddingError("backend returned non-finite embedding values")
    norms = np.linalg.norm(raw, axis=1)
    if np.any(norms == 0.0):
        raise EmbeddingError("backend returned a zero vector")
    return (raw / norms[:, None]).astype(np.float32)


def encode_vectors(matrix: np.ndarray, model_id: str) -> bytes:
    """Serialize vectors as a JSON header plus little-endian float32 payload."""
    mat = np.ascontiguousarray(np.asarray(matrix, dtype=np.float32))
    if mat.ndim != 2:
        raise ValueError("matrix must be 2D")
    header = json.dumps(
        {"count": int(mat.shape[0]), "dimension": int(mat.shape[1]), "model_id": model_id},
        sort_keys=True,
    ).encode("utf-8")
    return struct.pack("<I", len(header)) + header + mat.astype("<f4").tobytes()


def decode_vectors(blob: bytes) -> tuple[dict, np.ndarray]:
    """Inverse of encode_vectors; returns (header, float32 matrix)."""
    if len(blob) < 4:
        raise EmbeddingError("vector blob is truncated")
    (header_len,) = struct.unpack_from("<I", blob, 0)
    if len(blob) < 4 + header_len:
        raise EmbeddingError("vector blob is truncated")
    try:
        header = json.loads(blob[4 : 4 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise EmbeddingError(f"vector blob header is malformed: {exc}") from exc
    if not isinstance(header, dict):
        raise EmbeddingError("vector blob header is not a JSON object")
    for key in ("count", "dimension"):
        value = header.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise EmbeddingError(f"vector blob header has bad {key!r}: {value!r}")
    count, dimension = header["count"], header["dimension"]
    payload = len(blob) - 4 - header_len
    if payload != 4 * count * dimension:
        raise EmbeddingError(
            f"vector blob payload has {payload} bytes, header says {count}x{dimension} float32"
        )
    data = np.frombuffer(blob, dtype="<f4", offset=4 + header_len)
    matrix = data.reshape(count, dimension).astype(np.float32, copy=True)
    return header, matrix


class _VectorCache:
    """cache_dir's vectors.sqlite (WAL, so on a local file system): per sha256
    of (model_id, text), the encode_vectors blob of that text's one vector."""

    def __init__(self, spec: EmbedderSpec) -> None:
        self.path = Path(spec.cache_dir) / "vectors.sqlite"  # type: ignore[arg-type]
        self.db = _STORES.get(self.path) or _store(self.path)
        self.model_id, self.dimension = spec.model_id, spec.dimension

    def key(self, text: str) -> str:
        return hashlib.sha256(f"{self.model_id}\x00{text}".encode("utf-8")).hexdigest()

    def get(self, text: str) -> np.ndarray | None:
        """The cached vector, or None on a miss; a torn row, or one that does
        not hold exactly one vector, counts as a miss."""
        key = self.key(text)
        row = self.db.execute("SELECT blob FROM vectors WHERE key = ?", (key,)).fetchone()
        if row is None:
            return None
        try:
            header, matrix = decode_vectors(row[0])
            if len(matrix) != 1:
                raise EmbeddingError(f"it holds {len(matrix)} vectors, not one")
        except EmbeddingError as exc:
            logger.warning("recomputing unreadable cache row %s of %s (%s)", key, self.path, exc)
            return None
        if header.get("model_id") != self.model_id or header.get("dimension") != self.dimension:
            raise EmbeddingError(
                f"cache row {key} does not match "
                f"model {self.model_id!r} at dimension {self.dimension}"
            )
        return matrix[0]

    def put(self, texts: list[str], vectors: np.ndarray) -> None:
        rows = zip(map(self.key, texts), [encode_vectors(v[None], self.model_id) for v in vectors])
        with self.db:
            self.db.executemany("INSERT OR REPLACE INTO vectors VALUES (?, ?)", rows)


def _store(path: Path):
    """Open this process's one connection to the vector store at path, closed
    at exit. An unreadable file is logged and replaced by a fresh store once
    per path and process; a second failure raises EmbeddingError."""
    import sqlite3  # only a run with a cache_dir loads it

    path.parent.mkdir(parents=True, exist_ok=True)
    db = sqlite3.connect(path, check_same_thread=False)
    try:
        db.execute("PRAGMA synchronous=NORMAL")
        # Busy at once, not after the busy timeout, while another process makes it WAL.
        with contextlib.suppress(sqlite3.OperationalError):
            db.execute("PRAGMA journal_mode=WAL")
        db.execute("CREATE TABLE IF NOT EXISTS vectors (key TEXT PRIMARY KEY, blob BLOB NOT NULL)")
    except sqlite3.DatabaseError as exc:
        db.close()
        # A lock or an unwritable directory (OperationalError) is no fault of the file.
        if isinstance(exc, sqlite3.OperationalError) or path in _HEALED:
            raise EmbeddingError(f"cannot open vector store {path}: {exc}") from exc
        logger.warning("vector store %s is unreadable (%s); starting a fresh one", path, exc)
        _HEALED.add(path)
        for suffix in ("", "-wal", "-shm"):
            Path(f"{path}{suffix}").unlink(missing_ok=True)
        return _store(path)
    atexit.register(db.close)
    return _STORES.setdefault(path, db)
