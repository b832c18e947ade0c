"""Text encoders, similarity search, k-NN, and class centroids.

Two encoders are provided: a deterministic signed-feature-hashing
bag-of-words encoder (no network, byte-stable across runs and
platforms) and a client for a remote embeddings endpoint
(POST {base}/v1/embeddings, OpenAI-style request/response).
"""

import hashlib
import os
import re
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .schema import check_fields, setting

_TOKEN_RE = re.compile(r"\w+", re.UNICODE)
_HASH_SALT = b"tagaug-hash-v1"

# Requests each remote client call keeps in flight at once.
MAX_IN_FLIGHT = 4

# Texts encode_hashing counts in one np.bincount.
_HASH_BLOCK = 1024

# Scores _best scans at a time when k is smaller.
_CUT_BLOCK = 1 << 16


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
    kind: str = setting("hashing", choices=("hashing", "remote"))
    dim: int = setting(256, within="[1, inf)")
    endpoint: str = ""
    model: str = ""
    timeout: float = setting(30.0, within="(0, inf)")
    api_key_env: str = "TAGAUG_API_KEY"
    batch_size: int = setting(16, within="[1, inf)")
    retry_count: int = setting(3, within="[0, inf)")
    retry_backoff: float = setting(0.5, within="[0, inf)")

    def __post_init__(self):
        check_fields(self)
        if self.kind == "hashing" and self.dim < 8:
            raise ValueError(f"dim must be >= 8 for the hashing encoder, got {self.dim}")


def _token_hash(token):
    digest = hashlib.blake2b(
        token.encode("utf-8"), digest_size=8, key=_HASH_SALT
    ).digest()
    return int.from_bytes(digest, "big")


def _hash_counts(texts, dim, codes):
    """The (len(texts), dim) float64 rows of signed token counts, added up
    in one np.bincount. codes maps each token hashed so far to 2 * column +
    sign bit, and gains this block's new tokens, so each distinct token
    hashes once per encode_hashing call. The block's token arrays are
    freed on return, and encode_hashing normalizes the rows into its output."""
    tokens, counts = [], []
    for text in texts:
        found = _TOKEN_RE.findall(text.lower())
        tokens += found
        counts.append(len(found))
    for token in set(tokens).difference(codes):
        h = _token_hash(token)
        codes[token] = 2 * (h % dim) + (h >> 63)
    code = np.fromiter(map(codes.__getitem__, tokens), dtype=np.int64, count=len(tokens))
    rows = np.repeat(np.arange(len(texts)), counts)
    return np.bincount(rows * dim + (code >> 1), weights=1.0 - 2.0 * (code & 1),
                       minlength=len(texts) * dim).reshape(len(texts), dim)


def encode_hashing(texts, dim=256):
    """Signed feature hashing over lowercase word tokens, L2-normalized rows.

    Bucket index is hash mod dim, the sign comes from bit 63 of the same
    hash, and empty texts map to the all-zero row. Texts are counted and
    normalized _HASH_BLOCK at a time, so beyond the output the peak memory
    does not grow with len(texts).
    """
    if dim < 8:
        raise ValueError("hashing dim must be >= 8")
    out = np.zeros((len(texts), dim), dtype=np.float64)
    codes = {}
    for start in range(0, len(texts), _HASH_BLOCK):
        block = texts[start:start + _HASH_BLOCK]
        counts = _hash_counts(block, dim, codes)
        # the counts are integers, so each norm is exact however it is summed
        norms = np.linalg.norm(counts, axis=1, keepdims=True)
        np.divide(counts, norms, out=out[start:start + len(block)], where=norms > 0)
    return EmbeddingMatrix(vectors=out, encoder_id=f"hashing-{dim}")


def _post_with_retries(url, payload, cfg, error_cls, prefix="", stop=None):
    """POST payload as JSON and return the decoded body of a 2xx reply.

    Shared by the embeddings and chat clients. Sends a bearer token when
    the environment variable named by cfg.api_key_env is set, makes
    cfg.retry_count + 1 attempts with a retry_backoff * 2**attempt wait
    between them, then raises error_cls(prefix + the last failure). Once
    the stop event is set, it makes no further attempt.
    """
    # Imported here, so local runs never load it (about 9 MB of peak RSS).
    import requests

    stop = stop or threading.Event()
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
        if attempt < cfg.retry_count and stop.wait(cfg.retry_backoff * (2**attempt)):
            break
    raise last_error


def _in_order(call, items):
    """Yield call(item, stop) for each item, in input order; a call that
    raised yields its exception instead of a result.

    The calls run on MAX_IN_FLIGHT worker threads, and the window holds the
    oldest result not yet yielded and at most MAX_IN_FLIGHT calls past it,
    so at most one call waits in the pool's queue, to start when any running
    call finishes: a call waiting to retry holds only its own worker.
    Closing the generator sets the stop event, so the running calls end
    after their current attempt, cancels the calls not yet started and
    waits for the running ones, so no request outlives the caller.
    """
    limit = MAX_IN_FLIGHT
    pool = ThreadPoolExecutor(max_workers=limit)
    stop = threading.Event()
    window = deque()
    try:
        for item in items:
            window.append(pool.submit(call, item, stop))
            if len(window) > limit:
                yield _outcome(window.popleft())
        while window:
            yield _outcome(window.popleft())
    finally:
        stop.set()
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

    def post(batch_index, stop):
        payload = {"model": cfg.model, "input": batches[batch_index]}
        return _post_with_retries(url, payload, cfg, EncoderError, f"batch {batch_index}: ", stop)

    rows = []
    dim = None
    with closing(_in_order(post, range(len(batches)))) as bodies:
        for batch_index, (batch, body) in enumerate(zip(batches, bodies)):
            if isinstance(body, Exception):
                raise body
            try:
                by_index = {item["index"]: item["embedding"] for item in body["data"]}
            except (KeyError, TypeError) as exc:
                raise EncoderError(
                    f"batch {batch_index}: reply lacks data[].index/embedding"
                ) from exc
            if len(body["data"]) != len(batch):
                raise EncoderError(
                    f"batch {batch_index}: expected {len(batch)} rows, got {len(body['data'])}"
                )
            if set(by_index) != set(range(len(batch))):
                raise EncoderError(f"batch {batch_index}: indices are not 0..{len(batch) - 1}")
            for index in range(len(batch)):
                vec = _embedding_row(by_index[index], f"batch {batch_index}: row {index}: ")
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


def _embedding_row(value, prefix):
    """value as a float64 vector; EncoderError unless it is a non-empty 1-D
    list of finite numbers."""
    try:
        vec = np.asarray(value) if isinstance(value, list) else None
    except ValueError:  # ragged nesting
        vec = None
    if (vec is None or vec.ndim != 1 or not len(vec) or vec.dtype.kind not in "iuf"
            or not np.isfinite(vec).all()):
        raise EncoderError(f"{prefix}embedding is not a non-empty 1-D list of finite numbers")
    return vec.astype(np.float64, copy=False)


def encode_texts(texts, cfg):
    if cfg.kind == "hashing":
        return encode_hashing(texts, cfg.dim)
    return encode_remote(texts, cfg)


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


def _best(scores, k, tau):
    """The positions of the k >= 1 best of the 1-D scores at or above tau
    (NaN never is), best first, ties to the lower position; all of them
    when k or fewer are.

    The scores are scanned max(k, _CUT_BLOCK) at a time, which keeps the
    partitions' work linear and makes no copy of all of them, keeping the
    positions at or above the running cut, the k-th best score kept so far;
    once k are kept, a later score equal to the cut loses to each of them."""
    step = max(k, _CUT_BLOCK)
    pos, cut = np.zeros(0, dtype=np.int64), tau
    for lo in range(0, len(scores), step):
        block = scores[lo:lo + step]
        joins = block > cut if len(pos) >= k else block >= cut
        pos = np.concatenate([pos, lo + np.flatnonzero(joins)])
        if len(pos) > k:
            cut = np.partition(scores[pos], len(pos) - k)[len(pos) - k]
            pos = pos[scores[pos] >= cut]
    return pos[np.argsort(-scores[pos], kind="stable")[:k]]


def knn_same_class(anchor, k, emb, labels, candidate_idx):
    """k same-label candidates ranked by descending cosine, ties to lower id."""
    same = [cand for cand in candidate_idx if labels[cand] == labels[anchor]]
    return knn_embedding(anchor, k, emb, same)


def knn_embedding(anchor, k, emb, candidate_idx):
    """k nearest candidates by cosine regardless of label, ties to lower id."""
    if k <= 0:
        return []
    cands = np.sort(np.asarray(candidate_idx, dtype=np.int64))
    cands = cands[cands != anchor]
    sims = np.array([cosine_similarity(emb.vectors[anchor], emb.vectors[c]) for c in cands])
    return cands[_best(sims, k, -np.inf)].tolist()


def class_centroids(emb, labels):
    """{class: mean row} over the classes present in labels."""
    labels = np.asarray(labels, dtype=np.int64)
    return {int(c): emb.vectors[labels == c].mean(axis=0) for c in np.unique(labels)}
