"""Protocol tests against a local stub server: request shapes, batch
order, and retry behavior for the embeddings and chat-completions clients."""

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from tagaug.embedding import EncoderConfig, EncoderError, encode_remote
from tagaug.generation import GeneratorConfig, GeneratorError, RemoteChatGenerator


class StubHandler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        state = self.server.state
        state["requests"].append({"path": self.path, "body": body})

        if state["fail_remaining"] > 0:
            state["fail_remaining"] -= 1
            self.send_response(500)
            self.end_headers()
            self.wfile.write(b"transient")
            return

        if self.path == "/v1/embeddings":
            texts = body["input"]
            data = [
                {"index": i, "embedding": state["embed_fn"](text, i)}
                for i, text in enumerate(texts)
            ]
            if state.get("reverse_index_order"):
                data = list(reversed(data))
            payload = {"data": data}
        elif self.path == "/v1/chat/completions":
            reply = state["chat_fn"](body)
            payload = {"choices": [{"message": {"role": "assistant", "content": reply}}]}
        else:
            self.send_response(404)
            self.end_headers()
            return
        blob = json.dumps(payload).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)


@pytest.fixture()
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), StubHandler)
    server.state = {
        "requests": [],
        "fail_remaining": 0,
        "embed_fn": lambda text, i: [float(len(text)), 1.0],
        "chat_fn": lambda body: "<START>stub generation<END>",
    }
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()


class TestEmbeddingsClient:
    def test_passthrough_unit_row(self, stub_server):
        server, base = stub_server
        server.state["embed_fn"] = lambda text, i: [0.6, 0.8]
        cfg = EncoderConfig(kind="remote", endpoint=base, model="emb-1", batch_size=4)
        emb = encode_remote(["only text"], cfg)
        np.testing.assert_allclose(emb.vectors, [[0.6, 0.8]], atol=1e-12)

    def test_request_body_shape(self, stub_server):
        server, base = stub_server
        cfg = EncoderConfig(kind="remote", endpoint=base, model="emb-1", batch_size=4)
        encode_remote(["a", "b"], cfg)
        req = server.state["requests"][0]
        assert req["path"] == "/v1/embeddings"
        assert set(req["body"].keys()) == {"model", "input"}
        assert req["body"]["model"] == "emb-1"
        assert req["body"]["input"] == ["a", "b"]

    def test_batching_preserves_order(self, stub_server):
        server, base = stub_server
        server.state["embed_fn"] = lambda text, i: [float(len(text)), 1.0]
        cfg = EncoderConfig(kind="remote", endpoint=base, model="m", batch_size=2)
        emb = encode_remote(["x", "yy", "zzz"], cfg)
        assert len(server.state["requests"]) == 2
        assert server.state["requests"][0]["body"]["input"] == ["x", "yy"]
        assert server.state["requests"][1]["body"]["input"] == ["zzz"]
        expected = np.array([[1.0, 1.0], [2.0, 1.0], [3.0, 1.0]])
        expected /= np.linalg.norm(expected, axis=1, keepdims=True)
        np.testing.assert_allclose(emb.vectors, expected, atol=1e-12)

    def test_out_of_order_indices_restored(self, stub_server):
        server, base = stub_server
        server.state["reverse_index_order"] = True
        cfg = EncoderConfig(kind="remote", endpoint=base, model="m", batch_size=8)
        emb = encode_remote(["a", "bb"], cfg)
        # rows re-sorted by the returned index field, not arrival order
        assert emb.vectors[0, 0] < emb.vectors[1, 0]

    def test_retry_then_success(self, stub_server):
        server, base = stub_server
        server.state["fail_remaining"] = 2
        cfg = EncoderConfig(
            kind="remote", endpoint=base, model="m", batch_size=4,
            retry_count=3, retry_backoff=0.01,
        )
        emb = encode_remote(["hello"], cfg)
        assert emb.vectors.shape == (1, 2)
        assert len(server.state["requests"]) == 3

    def test_retries_exhausted_names_batch(self, stub_server):
        server, base = stub_server
        server.state["fail_remaining"] = 99
        cfg = EncoderConfig(
            kind="remote", endpoint=base, model="m", batch_size=4,
            retry_count=1, retry_backoff=0.01,
        )
        with pytest.raises(EncoderError, match="batch 0"):
            encode_remote(["hello"], cfg)

    def test_dimension_mismatch_across_batches(self, stub_server):
        server, base = stub_server
        server.state["embed_fn"] = lambda text, i: (
            [1.0, 0.0] if len(text) == 1 else [1.0, 0.0, 0.0]
        )
        cfg = EncoderConfig(kind="remote", endpoint=base, model="m", batch_size=1,
                            retry_count=0)
        with pytest.raises(EncoderError, match="dimension mismatch"):
            encode_remote(["a", "bb"], cfg)


class TestChatClient:
    def test_request_body_shape_and_parse(self, stub_server):
        server, base = stub_server
        captured = {}

        def chat_fn(body):
            captured.update(body)
            return "<START>generated text<END>"

        server.state["chat_fn"] = chat_fn
        cfg = GeneratorConfig(
            kind="remote", endpoint=base, model="gen-7b", temperature=0.7,
            max_tokens=128,
        )
        messages = [
            {"role": "system", "content": "sys"},
            {"role": "user", "content": "first"},
            {"role": "assistant", "content": "<START>t1<END>"},
            {"role": "user", "content": "second"},
        ]
        out = RemoteChatGenerator(cfg).generate(messages)
        assert out == "<START>generated text<END>"
        req = server.state["requests"][0]
        assert req["path"] == "/v1/chat/completions"
        assert set(req["body"].keys()) == {"model", "messages", "temperature", "max_tokens"}
        assert req["body"]["model"] == "gen-7b"
        assert req["body"]["temperature"] == 0.7
        assert req["body"]["max_tokens"] == 128
        assert req["body"]["messages"] == messages
        assert all(set(m.keys()) == {"role", "content"} for m in req["body"]["messages"])

    def test_retry_then_success(self, stub_server):
        server, base = stub_server
        server.state["fail_remaining"] = 2
        cfg = GeneratorConfig(
            kind="remote", endpoint=base, model="m", retry_count=3,
            retry_backoff=0.01,
        )
        out = RemoteChatGenerator(cfg).generate([{"role": "user", "content": "x"}])
        assert "stub generation" in out
        assert len(server.state["requests"]) == 3

    def test_failure_after_retries(self, stub_server):
        server, base = stub_server
        server.state["fail_remaining"] = 99
        cfg = GeneratorConfig(
            kind="remote", endpoint=base, model="m", retry_count=1,
            retry_backoff=0.01,
        )
        with pytest.raises(GeneratorError, match="HTTP 500"):
            RemoteChatGenerator(cfg).generate([{"role": "user", "content": "x"}])


def test_transport_failure_after_retries():
    # Nothing listens on a port just released, so every attempt of both
    # clients fails to connect.
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        base = f"http://127.0.0.1:{sock.getsockname()[1]}"
    enc = EncoderConfig(
        kind="remote", endpoint=base, model="m", retry_count=1, retry_backoff=0.001
    )
    with pytest.raises(EncoderError, match="batch 0: transport failure"):
        encode_remote(["hello"], enc)
    gen = GeneratorConfig(
        kind="remote", endpoint=base, model="m", retry_count=1, retry_backoff=0.001
    )
    with pytest.raises(GeneratorError, match="transport failure"):
        RemoteChatGenerator(gen).generate([{"role": "user", "content": "x"}])
