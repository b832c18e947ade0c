"""Deterministic stand-in for the embeddings and chat-completions services.

Run as its own process:

    python3 pipebench/stub.py [--port 0]

It prints the port it listens on as the first line of standard output and
serves until it is terminated. It speaks HTTP/1.0 and closes every
connection after one response, so a client that does not reuse
connections never waits on one the server still holds. At most two
connections are handled at once.

Behaviour, all fixed:
- POST /v1/embeddings: sleeps EMBED_DELAY_S, then returns a signed
  feature-hashing vector of EMBED_DIM floats per input text.
- POST /v1/chat/completions: sleeps CHAT_DELAY_S, then returns a
  recombination of the example texts in the prompt. A reply whose body
  digest falls in a fixed share (1 in MISSING_END_EVERY) lacks the <END>
  marker, which the client's lenient parse recovers from.
- Every FAULT_EVERY-th POST (counted over both paths) is answered 503
  before any work, which the client retries.
- GET /stats returns {"served": POSTs answered, "faults": 503s sent}
  since the previous GET /stats, and restarts the count, so the fault
  schedule of a sequential client repeats exactly from one /stats to
  the next.

The response functions are importable, so a caller can compute what the
stub would answer without a network round trip.
"""

import argparse
import hashlib
import json
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

EMBED_DIM = 32
EMBED_DELAY_S = 0.010
CHAT_DELAY_S = 0.040
FAULT_EVERY = 13
MISSING_END_EVERY = 10
MAX_CONNECTIONS = 2

_TOKEN_RE = re.compile(r"\w+")
_EXAMPLE_RE = re.compile(r"<START>(.*?)<END>", re.S)


def _digest(data):
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


def embed_text(text):
    """Signed hashing of lowercase word tokens into EMBED_DIM buckets."""
    vec = [0.0] * EMBED_DIM
    for token in _TOKEN_RE.findall(text.lower()):
        h = _digest(token.encode("utf-8"))
        vec[h % EMBED_DIM] += -1.0 if h >> 63 else 1.0
    if not any(vec):
        vec[0] = 1.0
    return vec


def embeddings_payload(body):
    return {
        "data": [
            {"index": i, "embedding": embed_text(text)}
            for i, text in enumerate(body["input"])
        ]
    }


def chat_reply(body):
    """Keep ~70% of the first example's tokens and ~30% of the second's."""
    blob = json.dumps(body["messages"], sort_keys=True).encode("utf-8")
    seed = _digest(blob)
    examples = [
        m["content"] for m in body["messages"] if m["role"] == "assistant"
    ]
    texts = [_EXAMPLE_RE.search(e).group(1) for e in examples if "<START>" in e]
    first = texts[0].split() if texts else ["empty"]
    second = texts[1].split() if len(texts) > 1 else []
    words = [
        tok for i, tok in enumerate(first) if (seed >> (i % 60)) & 3 != 0
    ] + [tok for i, tok in enumerate(second) if (seed >> (i % 60)) & 3 == 0]
    text = " ".join(words or first)
    end = "" if seed % MISSING_END_EVERY == 0 else "<END>"
    return f"<START>{text}{end}"


def chat_payload(body):
    return {
        "choices": [
            {"message": {"role": "assistant", "content": chat_reply(body)}}
        ]
    }


ROUTES = {
    "/v1/embeddings": (EMBED_DELAY_S, embeddings_payload),
    "/v1/chat/completions": (CHAT_DELAY_S, chat_payload),
}


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address):
        super().__init__(address, StubHandler)
        self.slots = threading.BoundedSemaphore(MAX_CONNECTIONS)
        self.lock = threading.Lock()
        self.posts = 0
        self.faults = 0

    def process_request(self, request, client_address):
        self.slots.acquire()
        try:
            super().process_request(request, client_address)
        except BaseException:
            self.slots.release()
            raise

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            self.slots.release()

    def count_post(self):
        """Count one POST; True when it is the one to fail."""
        with self.lock:
            self.posts += 1
            fault = self.posts % FAULT_EVERY == 0
            self.faults += fault
            return fault


class StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.0"

    def log_message(self, *args):
        pass

    def _send(self, status, payload):
        blob = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(blob)

    def do_GET(self):
        if self.path != "/stats":
            self._send(404, {"error": "not found"})
            return
        with self.server.lock:
            stats = {"served": self.server.posts, "faults": self.server.faults}
            self.server.posts = self.server.faults = 0
        self._send(200, stats)

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if self.path not in ROUTES:
            self._send(404, {"error": "not found"})
            return
        if self.server.count_post():
            self._send(503, {"error": "injected fault"})
            return
        delay, respond = ROUTES[self.path]
        time.sleep(delay)
        self._send(200, respond(body))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, default=0)
    args = parser.parse_args(argv)
    server = StubServer(("127.0.0.1", args.port))
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    sys.exit(main())
