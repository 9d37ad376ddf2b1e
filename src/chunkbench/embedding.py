"""Pluggable text embedders producing unit-norm float32 vectors, with disk caching.

Two backends share one interface: ``remote`` speaks a small JSON wire
contract (POST {"model", "texts"} -> {"embeddings"}), ``test`` is a
deterministic hash-based bag-of-words embedder that needs no network and
gives bit-identical vectors on every platform.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import logging
import os
import re
import struct
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .files import replacing

logger = logging.getLogger(__name__)

API_KEY_ENV = "EMBED_API_KEY"
BACKENDS = ("test", "remote")
_RETRY_ATTEMPTS = 3
# The wait after the first failed try, in seconds; it doubles after each try.
_RETRY_BASE_DELAY = 0.5
_REQUEST_TIMEOUT = 30.0
_TOKEN_SPLIT = re.compile(r"[\W_]+")
_CACHE_WRITE_LOCK = threading.Lock()
# Every vector embedded in this process, per spec; see embed_batch.
_MEMO: dict[EmbedderSpec, dict[str, np.ndarray]] = {}
_MEMO_LOCK = threading.Lock()


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


def token_bucket(token: str, dimension: int) -> tuple[int, int]:
    """Coordinate index and sign (+1/-1) a token hashes to.

    Uses blake2b so the mapping is identical across platforms and runs.
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
    acc = np.zeros(dimension, dtype=np.float64)
    for token in tokenize(text):
        index, sign = token_bucket(token, dimension)
        acc[index] += sign
    norm = float(np.linalg.norm(acc))
    if norm == 0.0:
        out = np.zeros(dimension, dtype=np.float32)
        out[0] = 1.0
        return out
    return (acc / norm).astype(np.float32)


def embed_batch(spec: EmbedderSpec, texts: Sequence[str]) -> np.ndarray:
    """Embed texts in order; returns a (len(texts), dimension) float32 array.

    Every row is L2-normalized. Vectors are memoised in memory per spec for
    the life of the process, so a text seen before costs neither a cache
    read nor backend work. Behind the memo, with a cache_dir configured,
    vectors are looked up by (model_id, text content) before the backend is
    asked, and fresh results are persisted; a second identical call does no
    backend work and returns bit-identical rows. Within one call each
    distinct text is looked up and computed at most once. The returned array
    is always a fresh copy that callers may modify.
    """
    items = list(texts)
    for t in items:
        if not isinstance(t, str) or not t:
            raise ValueError("texts must be non-empty strings")
    if not items:
        return np.zeros((0, spec.dimension), dtype=np.float32)

    memo = _memo_for(spec)
    cache = _VectorCache(spec) if spec.cache_dir else None
    missing: list[str] = []
    for text in dict.fromkeys(items):
        if text in memo:
            continue
        hit = cache.get(text) if cache is not None else None
        if hit is not None:
            memo[text] = hit
        else:
            missing.append(text)

    if missing:
        fresh = _compute(spec, missing)
        for text, row in zip(missing, fresh):
            if cache is not None:
                cache.put(text, row)
            memo[text] = row
    return np.stack([memo[text] for text in items])


def _memo_for(spec: EmbedderSpec) -> dict[str, np.ndarray]:
    """The process-wide text -> vector memo of one spec.

    Rows only enter it after a successful lookup or computation. Two threads
    missing the same text may both compute it; they store equal rows.
    """
    with _MEMO_LOCK:
        return _MEMO.setdefault(spec, {})


def _compute(spec: EmbedderSpec, texts: list[str]) -> np.ndarray:
    if spec.backend == "test":
        return np.stack([deterministic_embed(t, spec.dimension) for t in texts])
    batches = [texts[i : i + spec.batch_size] for i in range(0, len(texts), spec.batch_size)]
    with ThreadPoolExecutor(max_workers=min(spec.max_concurrency, len(batches))) as pool:
        return np.vstack(list(pool.map(lambda batch: _remote_batch(spec, batch), batches)))


def _remote_batch(spec: EmbedderSpec, batch: list[str]) -> np.ndarray:
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


class _Redirects(urllib.request.HTTPRedirectHandler):
    """Follow 307/308 replies to a POST with the same body, and pass the
    bearer token on only when the scheme and host[:port] stay the same.

    The token is an unredirected header, which urllib never copies to a
    redirect's request, so this handler is the one place that passes it on.
    """

    def redirect_request(self, req, fp, code, msg, headers, newurl):
        if code in (307, 308) and req.get_method() == "POST":
            new = urllib.request.Request(
                newurl,
                data=req.data,
                headers=req.headers,
                origin_req_host=req.origin_req_host,
                unverifiable=True,
                method="POST",
            )
        else:
            new = super().redirect_request(req, fp, code, msg, headers, newurl)
        token = req.unredirected_hdrs.get("Authorization")
        same_origin = urllib.parse.urlsplit(newurl)[:2] == urllib.parse.urlsplit(req.full_url)[:2]
        if new is not None and token and same_origin:
            new.add_unredirected_header("Authorization", token)
        return new


_OPENER = urllib.request.build_opener(_Redirects)


def post_with_retries(
    service: str,
    url: str,
    payload: dict,
    error: Callable[..., Exception],
    *,
    api_key_env: str,
    timeout: float,
    attempts: int,
) -> object:
    """POST payload as JSON and return the decoded JSON body of the first 200 reply.

    A bearer token is sent when the api_key_env variable is set. Connection
    errors and 5xx replies are retried up to attempts tries in all, waiting
    _RETRY_BASE_DELAY seconds and doubling the wait after each try; any other
    status fails at once, and so does a 200 reply whose body is not JSON.
    Failures raise error(message, status=...).
    """
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    api_key = os.environ.get(api_key_env)
    if api_key:
        request.add_unredirected_header("Authorization", f"Bearer {api_key}")
    delay = _RETRY_BASE_DELAY
    last_status: int | None = None
    last_error = "connection failed"
    for attempt in range(attempts):
        try:
            # By keyword: a positional argument of .open() reads as a file mode.
            with _OPENER.open(fullurl=request, timeout=timeout) as resp:
                status, body = resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            status = exc.code
            exc.close()
        except (OSError, http.client.HTTPException) as exc:
            status, last_error = None, str(exc)
        if status == 200:
            try:
                return json.loads(body)
            except ValueError as exc:
                raise error(f"{service} backend returned invalid JSON: {exc}") from exc
        last_status = status
        if status is not None:
            last_error = f"status {status}"
            if status < 500:
                # Client errors will not heal on retry.
                raise error(
                    f"{service} backend rejected the request ({last_error})", status=status
                )
        if attempt < attempts - 1:
            logger.warning("%s request failed (%s), retrying in %.2fs", service, last_error, delay)
            time.sleep(delay)
            delay *= 2.0
    raise error(
        f"{service} backend failed after {attempts} attempts ({last_error})", status=last_status
    )


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
    """Content-addressed vector files keyed by (model_id, text)."""

    def __init__(self, spec: EmbedderSpec) -> None:
        self.directory = Path(spec.cache_dir)  # type: ignore[arg-type]
        self.model_id = spec.model_id
        self.dimension = spec.dimension

    def _path(self, text: str) -> Path:
        digest = hashlib.sha256(f"{self.model_id}\x00{text}".encode("utf-8")).hexdigest()
        return self.directory / f"{digest}.vec"

    def get(self, text: str) -> np.ndarray | None:
        """The cached vector, or None on a miss; a torn entry counts as a miss."""
        path = self._path(text)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return None
        try:
            header, matrix = decode_vectors(blob)
        except EmbeddingError as exc:
            logger.warning("cache entry %s is unreadable (%s); recomputing it", path, exc)
            return None
        if header.get("model_id") != self.model_id or header.get("dimension") != self.dimension:
            raise EmbeddingError(
                f"cache entry {path.name} does not match "
                f"model {self.model_id!r} at dimension {self.dimension}"
            )
        return matrix[0]

    def put(self, text: str, vector: np.ndarray) -> None:
        blob = encode_vectors(vector[None, :], self.model_id)
        with _CACHE_WRITE_LOCK, replacing(self._path(text), "wb") as fh:
            fh.write(blob)
