"""Text encoders, similarity search, k-NN, and class centroids.

Two encoders are provided: a deterministic signed-feature-hashing
bag-of-words encoder (no network, byte-stable across runs and
platforms) and a client for a remote embeddings endpoint
(POST {base}/v1/embeddings, OpenAI-style request/response).
"""

import hashlib
import os
import re
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field

import numpy as np
import requests

_TOKEN_RE = re.compile(r"\w+", re.UNICODE)
_HASH_SALT = b"tagaug-hash-v1"

# Requests each remote client call keeps in flight at once.
MAX_IN_FLIGHT = 4


class EncoderError(RuntimeError):
    """Raised when the remote embeddings endpoint fails permanently."""


@dataclass(frozen=True)
class EmbeddingMatrix:
    """Row-per-node embedding matrix with an encoder tag."""

    vectors: np.ndarray
    encoder_id: str

    def __post_init__(self):
        if self.vectors.ndim != 2 or self.vectors.shape[1] < 1:
            raise ValueError("embedding matrix must be 2-D with positive dimension")

    @property
    def dim(self):
        return self.vectors.shape[1]


@dataclass
class EncoderConfig:
    kind: str = "hashing"  # hashing | remote
    dim: int = 256
    endpoint: str = ""
    model: str = ""
    timeout: float = 30.0
    api_key_env: str = "TAGAUG_API_KEY"
    batch_size: int = 16
    retry_count: int = 3
    retry_backoff: float = 0.5

    def __post_init__(self):
        if self.kind == "hashing" and self.dim < 8:
            raise ValueError("hashing dim must be >= 8")


def _token_hash(token):
    digest = hashlib.blake2b(
        token.encode("utf-8"), digest_size=8, key=_HASH_SALT
    ).digest()
    return int.from_bytes(digest, "big")


def encode_hashing(texts, dim=256):
    """Signed feature hashing over lowercase word tokens, L2-normalized rows.

    Bucket index is hash mod dim, the sign comes from bit 63 of the same
    hash, and empty texts map to the all-zero row.
    """
    if dim < 8:
        raise ValueError("hashing dim must be >= 8")
    out = np.zeros((len(texts), dim), dtype=np.float64)
    for i, text in enumerate(texts):
        for token in _TOKEN_RE.findall(text.lower()):
            h = _token_hash(token)
            sign = -1.0 if (h >> 63) & 1 else 1.0
            out[i, h % dim] += sign
        norm = np.linalg.norm(out[i])
        if norm > 0:
            out[i] /= norm
    return EmbeddingMatrix(vectors=out, encoder_id=f"hashing-{dim}")


def _post_with_retries(url, payload, cfg, error_cls, prefix=""):
    """POST payload as JSON and return the decoded body of a 2xx reply.

    Shared by the embeddings and chat clients. Sends a bearer token when
    the environment variable named by cfg.api_key_env is set, makes
    cfg.retry_count + 1 attempts with a retry_backoff * 2**attempt sleep
    between them, then raises error_cls(prefix + the last failure).
    """
    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(cfg.api_key_env, "")
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    last_error = None
    for attempt in range(cfg.retry_count + 1):
        try:
            resp = requests.post(url, json=payload, headers=headers, timeout=cfg.timeout)
            if resp.status_code // 100 == 2:
                return resp.json()
            last_error = error_cls(f"{prefix}HTTP {resp.status_code}: {resp.text[:200]}")
        except requests.RequestException as exc:
            last_error = error_cls(f"{prefix}transport failure: {exc}")
        if attempt < cfg.retry_count:
            time.sleep(cfg.retry_backoff * (2**attempt))
    raise last_error


def _in_order(call, items):
    """Yield call(item) for each item, in input order; a call that raised
    yields its exception instead of a result.

    The calls run on worker threads, at most MAX_IN_FLIGHT submitted at
    once. Closing the generator cancels the calls not yet started and
    waits for the running ones, so no request outlives the caller.
    """
    limit = MAX_IN_FLIGHT
    pool = ThreadPoolExecutor(max_workers=limit)
    window = deque()
    try:
        for item in items:
            window.append(pool.submit(call, item))
            if len(window) == limit:
                yield _outcome(window.popleft())
        while window:
            yield _outcome(window.popleft())
    finally:
        pool.shutdown(cancel_futures=True)


def _outcome(future):
    error = future.exception()
    return future.result() if error is None else error


def encode_remote(texts, cfg):
    """Encode via the remote embeddings endpoint, batching and preserving
    order; the error raised is the one for the lowest failing batch."""
    url = cfg.endpoint.rstrip("/") + "/v1/embeddings"
    batches = [
        list(texts[start : start + cfg.batch_size])
        for start in range(0, len(texts), cfg.batch_size)
    ]

    def post(batch_index):
        payload = {"model": cfg.model, "input": batches[batch_index]}
        return _post_with_retries(url, payload, cfg, EncoderError, f"batch {batch_index}: ")

    rows = []
    dim = None
    with closing(_in_order(post, range(len(batches)))) as bodies:
        for batch_index, (batch, body) in enumerate(zip(batches, bodies)):
            if isinstance(body, Exception):
                raise body
            items = sorted(body["data"], key=lambda item: item["index"])
            if len(items) != len(batch):
                raise EncoderError(
                    f"batch {batch_index}: expected {len(batch)} rows, got {len(items)}"
                )
            for item in items:
                vec = np.asarray(item["embedding"], dtype=np.float64)
                if dim is None:
                    dim = vec.shape[0]
                elif vec.shape[0] != dim:
                    raise EncoderError(
                        f"batch {batch_index}: dimension mismatch "
                        f"({vec.shape[0]} != {dim})"
                    )
                norm = np.linalg.norm(vec)
                rows.append(vec / norm if norm > 0 else vec)
    return EmbeddingMatrix(
        vectors=np.array(rows).reshape(len(texts), -1) if rows else np.zeros((0, 1)),
        encoder_id=f"remote-{cfg.model}",
    )


def encode_texts(texts, cfg):
    if cfg.kind == "hashing":
        return encode_hashing(texts, cfg.dim)
    if cfg.kind == "remote":
        return encode_remote(texts, cfg)
    raise ValueError(f"unknown encoder kind: {cfg.kind}")


# Outside [_TINY_NORM, _HUGE_NORM] the squares inside np.linalg.norm have
# underflowed (the norm is inexact or 0 for a nonzero vector) or overflowed
# (the norm is inf).
_TINY_NORM = np.sqrt(np.finfo(np.float64).tiny)
_HUGE_NORM = np.sqrt(np.finfo(np.float64).max)


def _norm(x):
    """(x, ||x||), with a nonzero x whose computed norm is tiny, huge or not
    finite divided by max |x| first; cosine ignores the scale, and other x
    keep their bits."""
    norm = np.linalg.norm(x)
    if not _TINY_NORM <= norm <= _HUGE_NORM and np.any(x):
        x = x / np.abs(x).max()
        norm = np.linalg.norm(x)
    return x, norm


def _row_norms(rows):
    """_norm for each row of a matrix."""
    norms = np.linalg.norm(rows, axis=1)
    scaled = np.flatnonzero(~((norms >= _TINY_NORM) & (norms <= _HUGE_NORM)))
    scaled = scaled[rows[scaled].any(axis=1)]
    if len(scaled):
        rows = rows.copy()
        rows[scaled] /= np.abs(rows[scaled]).max(axis=1, keepdims=True)
        norms[scaled] = np.linalg.norm(rows[scaled], axis=1)
    return rows, norms


def cosine_similarity(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    (a, na), (b, nb) = _norm(a), _norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def cosine_matrix(rows_a, rows_b):
    """Pairwise cosine similarities, zero rows mapping to zero similarity."""
    a, na = _row_norms(np.asarray(rows_a, dtype=np.float64))
    b, nb = _row_norms(np.asarray(rows_b, dtype=np.float64))
    na_safe = np.where(na == 0, 1.0, na)
    nb_safe = np.where(nb == 0, 1.0, nb)
    sims = (a / na_safe[:, None]) @ (b / nb_safe[:, None]).T
    sims[na == 0, :] = 0.0
    sims[:, nb == 0] = 0.0
    return sims


def knn_same_class(anchor, k, emb, labels, candidate_idx):
    """k same-label candidates ranked by descending cosine, ties to lower id."""
    same = [cand for cand in candidate_idx if labels[cand] == labels[anchor]]
    return knn_embedding(anchor, k, emb, same)


def knn_embedding(anchor, k, emb, candidate_idx):
    """k nearest candidates by cosine regardless of label, ties to lower id."""
    if k <= 0:
        return []
    anchor_vec = emb.vectors[anchor]
    scored = [
        (-cosine_similarity(anchor_vec, emb.vectors[cand]), cand)
        for cand in candidate_idx
        if cand != anchor
    ]
    scored.sort()
    return [cand for _negsim, cand in scored[:k]]


@dataclass
class Centroids:
    """Per-class mean vectors; classes absent from the subset are undefined."""

    by_class: dict = field(default_factory=dict)

    def require(self, cls):
        if cls not in self.by_class:
            raise KeyError(f"centroid undefined for class {cls}")
        return self.by_class[cls]


def class_centroids(emb, labels):
    sums, counts = {}, {}
    for i, cls in enumerate(labels):
        if cls not in sums:
            sums[cls] = np.zeros(emb.dim)
            counts[cls] = 0
        sums[cls] += emb.vectors[i]
        counts[cls] += 1
    return Centroids(by_class={cls: sums[cls] / counts[cls] for cls in sums})
