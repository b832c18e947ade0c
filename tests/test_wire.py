"""Protocol tests against a local stub server: request shapes, batch
order, retry behavior, malformed replies, requests in flight and their
cancellation for the embeddings and chat-completions clients."""

import json
import logging
import socket
import threading
import time
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from tagaug import embedding
from tagaug.embedding import (
    EncoderConfig,
    EncoderError,
    _in_order,
    _post_with_retries,
    encode_remote,
)
from tagaug.generation import (
    GenCache,
    GeneratorConfig,
    GeneratorError,
    PromptSpec,
    RemoteChatGenerator,
    VicinalPair,
    generate_interpolations,
)
from tagaug.pipeline import RunConfig, run_augment


class StubHandler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def should_fail(self, body):
        state = self.server.state
        if state["fail_remaining"] > 0:
            state["fail_remaining"] -= 1
            return True
        return False

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        state = self.server.state
        state["requests"].append({"path": self.path, "body": body, "headers": dict(self.headers)})

        if self.should_fail(body):
            self.send_response(state.get("fail_status", 500))
            self.end_headers()
            self.wfile.write(b"transient")
            return

        if "payload_fn" in state:  # a reply body sent as is, however malformed
            payload = state["payload_fn"](body)
        elif self.path == "/v1/embeddings":
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
        # batches go out concurrently, so they may arrive in either order
        inputs = sorted(req["body"]["input"] for req in server.state["requests"])
        assert inputs == [["x", "yy"], ["zzz"]]
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


CHAT = [{"role": "user", "content": "x"}]


ROW_1_MALFORMED = "batch 0: row 1: embedding is not a non-empty 1-D list of finite numbers"


def second_row(embedding):
    """An embeddings reply whose row 1 carries the given embedding value."""
    return {"data": [{"index": 0, "embedding": [1.0, 0.0]}, {"index": 1, "embedding": embedding}]}


class TestMalformedReplies:
    """A 2xx reply without the fields the client reads fails that request
    with the client's own error."""

    @pytest.mark.parametrize(
        "payload",
        [
            {"choices": [{"message": {"role": "assistant", "content": None}}]},
            {"choices": []},
            {"id": "no choices"},
        ],
    )
    def test_chat_reply_skips_the_pair(self, stub_server, tmp_path, payload):
        server, base = stub_server
        server.state["payload_fn"] = lambda body: payload
        cfg = GeneratorConfig(kind="remote", endpoint=base, model="m", retry_count=0)
        with pytest.raises(GeneratorError, match=r"no choices\[0\]\.message\.content"):
            RemoteChatGenerator(cfg).generate(CHAT)
        texts = [f"t-{i}" for i in range(3)]
        nodes, stats = run_generation(texts, pair_schedule(2), base, tmp_path / "c.jsonl")
        assert nodes == [] and stats.generated == 0
        assert [(s["anchor"], s["partner"]) for s in stats.skipped] == [(0, 1), (1, 2)]
        assert all("choices[0].message.content" in s["error"] for s in stats.skipped)
        assert not (tmp_path / "c.jsonl").exists()

    @pytest.mark.parametrize(
        "payload, match",
        [
            ({"object": "list"}, "batch 0: reply lacks data"),
            ({"data": [{"embedding": [1.0, 0.0]}]}, "batch 0: reply lacks data"),
            (
                {"data": [{"index": 0, "embedding": [1.0, 0.0]}] * 2},
                r"batch 0: indices are not 0\.\.1",
            ),
            (
                {"data": [{"index": i, "embedding": [1.0, 0.0]} for i in (1, 2)]},
                r"batch 0: indices are not 0\.\.1",
            ),
            (second_row(5), ROW_1_MALFORMED),
            (second_row(["a"]), ROW_1_MALFORMED),
            (second_row([]), ROW_1_MALFORMED),
            (second_row([[1.0, 2.0]]), ROW_1_MALFORMED),
            (second_row([float("nan"), 1.0]), ROW_1_MALFORMED),
            (
                {"data": [{"index": 0, "embedding": [1.0, 0.0]}]},
                "batch 0: expected 2 rows, got 1",
            ),
            (second_row([[1.0], [2.0, 3.0]]), ROW_1_MALFORMED),  # ragged
        ],
    )
    def test_embeddings_reply_names_the_batch(self, stub_server, payload, match):
        server, base = stub_server
        server.state["payload_fn"] = lambda body: payload
        cfg = EncoderConfig(kind="remote", endpoint=base, model="m", batch_size=2, retry_count=0)
        with pytest.raises(EncoderError, match=match):
            encode_remote(["a", "b"], cfg)


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


class TrackingHandler(StubHandler):
    """StubHandler that records the most POSTs it served at once and fails
    every request for which state["fail_fn"](body) holds."""

    def should_fail(self, body):
        return super().should_fail(body) or self.server.state["fail_fn"](body)

    def do_POST(self):
        state = self.server.state
        with state["lock"]:
            state["active"] += 1
            state["peak"] = max(state["peak"], state["active"])
        try:
            super().do_POST()
        finally:
            with state["lock"]:
                state["active"] -= 1


@pytest.fixture()
def tracking_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), TrackingHandler)
    server.daemon_threads = True
    server.state = {
        "requests": [],
        "fail_remaining": 0,
        "fail_fn": lambda body: False,
        "lock": threading.Lock(),
        "active": 0,
        "peak": 0,
        "finished": [],
    }
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    thread.join(timeout=10)
    assert not thread.is_alive()


def text_id(text):
    return int(text.split("-")[1])


def unit_rows(ids):
    rows = np.array([[1.0, float(i)] for i in ids])
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


SPEC = PromptSpec("new documents", "toy", "document", "<START>[New Text]<END>")


def anchor_id(body):
    """The anchor's id in a chat request: its text is the first example."""
    first = next(m["content"] for m in body["messages"] if m["role"] == "assistant")
    return text_id(first[len("<START>") : -len("<END>")])


def run_generation(
    texts, pairs, base, cache_path, retry_count=0, strict_parse=False, retry_backoff=0.01
):
    gen = GeneratorConfig(
        kind="remote", endpoint=base, model="gen", retry_count=retry_count,
        retry_backoff=retry_backoff, strict_parse=strict_parse,
    )
    return generate_interpolations(
        pairs, "S", gen, SPEC, texts, ["a", "b"], cache_path
    )


def pair_schedule(count):
    # anchor i with partner i + 1, all in class 0
    return [VicinalPair(anchor=i, partner=i + 1, label=0, partner_label=0) for i in range(count)]


def first_attempt_fails(item, id_of):
    """A TrackingHandler fail_fn that fails only the first request whose
    id_of(body) is item."""
    failed = []

    def fail_fn(body):
        if id_of(body) == item and not failed:
            failed.append(body)
            return True
        return False

    return fail_fn


def sent_before_retry(requests, item, id_of):
    """The sorted ids of the requests that reached the server before item's
    second attempt."""
    ids = [id_of(req["body"]) for req in requests]
    retry = [at for at, sent in enumerate(ids) if sent == item][1]
    return sorted(ids[:retry])


class TestRequestsInFlight:
    def bind(self, server, delay_of):
        """Answer text "t-<id>" with [1, id] and the chat whose anchor is id
        with "reply to <id>", each after delay_of(id) seconds; note the ids
        in the order their replies finished."""
        state = server.state

        def embed(text, _i):
            time.sleep(delay_of(text_id(text)))
            state["finished"].append(text_id(text))
            return [1.0, float(text_id(text))]

        def chat(body):
            anchor = anchor_id(body)
            time.sleep(delay_of(anchor))
            state["finished"].append(anchor)
            return f"<START>reply to {anchor}<END>"

        state["embed_fn"], state["chat_fn"] = embed, chat

    def test_batches_and_pairs_overlap(self, tracking_server, tmp_path):
        server, base = tracking_server
        self.bind(server, lambda i: 0.05)
        texts = [f"t-{i}" for i in range(9)]
        cfg = EncoderConfig(kind="remote", endpoint=base, model="m", batch_size=1)
        encode_remote(texts[:8], cfg)
        assert 2 <= server.state["peak"] <= embedding.MAX_IN_FLIGHT
        server.state["peak"] = 0
        nodes, stats = run_generation(texts, pair_schedule(8), base, tmp_path / "c.jsonl")
        assert stats.generated == 8
        assert 2 <= server.state["peak"] <= embedding.MAX_IN_FLIGHT

    def test_order_restored_when_later_requests_finish_first(self, tracking_server, tmp_path):
        server, base = tracking_server
        count = 8
        self.bind(server, lambda i: 0.05 * (count - i))
        texts = [f"t-{i}" for i in range(count + 1)]
        cfg = EncoderConfig(kind="remote", endpoint=base, model="m", batch_size=1)
        emb = encode_remote(texts[:count], cfg)
        assert server.state["finished"] != sorted(server.state["finished"])
        np.testing.assert_array_equal(emb.vectors, unit_rows(range(count)))

        server.state["finished"].clear()
        pairs = pair_schedule(count)
        nodes, stats = run_generation(texts, pairs, base, tmp_path / "c.jsonl")
        assert server.state["finished"] != sorted(server.state["finished"])
        assert [node.text for node in nodes] == [f"reply to {i}" for i in range(count)]
        lines = (tmp_path / "c.jsonl").read_text().splitlines()
        assert [json.loads(line)["anchor"] for line in lines] == list(range(count))

    def test_failed_batch_stops_later_batches(self, tracking_server):
        server, base = tracking_server
        self.bind(server, lambda i: 0.02)
        # batches 5 and 6 fail on every attempt; the error names the first

        def fail_fn(body):
            if body.get("input") == ["t-5"]:
                # batch 6 makes both its attempts before batch 5's error stops the rest
                time.sleep(0.2)
                return True
            return body.get("input") == ["t-6"]

        server.state["fail_fn"] = fail_fn
        texts = [f"t-{i}" for i in range(40)]
        cfg = EncoderConfig(
            kind="remote", endpoint=base, model="m", batch_size=1, retry_count=1,
            retry_backoff=0.01,
        )
        with pytest.raises(EncoderError, match="^batch 5: HTTP 500"):
            encode_remote(texts, cfg)
        sent = {text_id(req["body"]["input"][0]) for req in server.state["requests"]}
        assert max(sent) <= 5 + embedding.MAX_IN_FLIGHT
        time.sleep(0.1)  # nothing is still being sent after the call returns
        assert len(server.state["requests"]) == len(sent) + 2  # 5 and 6 retried

    def test_failed_pair_skipped_like_one_request_at_a_time(
        self, tracking_server, tmp_path, monkeypatch, caplog
    ):
        server, base = tracking_server
        self.bind(server, lambda i: 0.01 * (i % 3))
        chat = server.state["chat_fn"]
        # pair 2 fails on every attempt; pair 4's reply lacks <END>
        server.state["fail_fn"] = lambda body: anchor_id(body) == 2
        server.state["chat_fn"] = lambda body: (
            chat(body)[: -len("<END>")] if anchor_id(body) == 4 else chat(body)
        )
        texts = [f"t-{i}" for i in range(11)]
        pairs = pair_schedule(10)
        primed = tmp_path / "primed.jsonl"
        run_generation(texts, pairs[:2], base, primed)

        runs = []
        for in_flight in (embedding.MAX_IN_FLIGHT, 1):
            monkeypatch.setattr(embedding, "MAX_IN_FLIGHT", in_flight)
            cache = tmp_path / f"cache{in_flight}.jsonl"
            cache.write_bytes(primed.read_bytes())
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="tagaug.generation"):
                nodes, stats = run_generation(texts, pairs, base, cache, retry_count=1)
            runs.append((
                [(n.text, n.label, n.provenance) for n in nodes],
                asdict(stats),
                cache.read_bytes(),
                [rec.getMessage() for rec in caplog.records],
            ))
        assert runs[0] == runs[1]
        node_rows, stats, _cache, warnings = runs[0]
        assert [prov["anchor"] for _t, _l, prov in node_rows] == [0, 1, 3, 4, 5, 6, 7, 8, 9]
        assert stats["cache_hits"] == 2 and stats["generated"] == 7
        assert [(s["anchor"], s["partner"]) for s in stats["skipped"]] == [(2, 3)]
        assert "HTTP 500" in stats["skipped"][0]["error"]
        assert len(warnings) == 2
        assert "skipping pair (2, 3)" in warnings[0] and "<END>" in warnings[1]

    def test_retry_wait_holds_back_no_other_batch(self, tracking_server):
        server, base = tracking_server
        self.bind(server, lambda i: 0.02)

        def batch_id(body):
            return text_id(body["input"][0])

        server.state["fail_fn"] = first_attempt_fails(0, batch_id)
        texts = [f"t-{i}" for i in range(12)]
        cfg = EncoderConfig(
            kind="remote", endpoint=base, model="m", batch_size=1, retry_count=1,
            retry_backoff=0.3,
        )
        emb = encode_remote(texts, cfg)
        # while batch 0 waits to retry, the batches behind it keep the
        # workers busy, up to MAX_IN_FLIGHT past it and no further
        limit = embedding.MAX_IN_FLIGHT
        assert sent_before_retry(server.state["requests"], 0, batch_id) == list(range(limit + 1))
        assert server.state["peak"] <= limit
        np.testing.assert_array_equal(emb.vectors, unit_rows(range(len(texts))))

    def test_retry_wait_holds_back_no_other_pair(
        self, tracking_server, tmp_path, monkeypatch, caplog
    ):
        server, base = tracking_server
        self.bind(server, lambda i: 0.02)
        chat = server.state["chat_fn"]
        # pair 0 fails its first attempt; pair 6's reply lacks <END>
        server.state["chat_fn"] = lambda body: (
            chat(body)[: -len("<END>")] if anchor_id(body) == 6 else chat(body)
        )
        texts = [f"t-{i}" for i in range(11)]
        limit = embedding.MAX_IN_FLIGHT
        runs, before_retry = [], []
        for in_flight in (limit, 1):
            monkeypatch.setattr(embedding, "MAX_IN_FLIGHT", in_flight)
            server.state["requests"].clear()
            server.state["fail_fn"] = first_attempt_fails(0, anchor_id)
            cache = tmp_path / f"cache{in_flight}.jsonl"
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="tagaug.generation"):
                nodes, stats = run_generation(
                    texts, pair_schedule(10), base, cache, retry_count=1, retry_backoff=0.3
                )
            runs.append((
                [(n.text, n.label, n.provenance) for n in nodes],
                asdict(stats),
                cache.read_bytes(),
                [rec.getMessage() for rec in caplog.records],
            ))
            before_retry.append(sent_before_retry(server.state["requests"], 0, anchor_id))
        assert before_retry == [list(range(limit + 1)), [0]]
        assert server.state["peak"] <= limit
        assert runs[0] == runs[1]
        node_rows, stats, _cache, warnings = runs[0]
        assert [text for text, _l, _p in node_rows] == [f"reply to {i}" for i in range(10)]
        assert stats["generated"] == 10 and stats["skipped"] == []
        assert len(warnings) == 1 and "<END>" in warnings[0]


@pytest.mark.parametrize("key", ["sk-wire-test-5f3a9c", None])
def test_api_key_is_sent_as_a_bearer_token_and_never_written(
    stub_server, tmp_path, toy_dataset_dir, monkeypatch, caplog, capsys, key
):
    # A whole augment with both remote clients, with the key set and unset.
    server, base = stub_server
    if key is None:
        monkeypatch.delenv("TAGAUG_API_KEY", raising=False)
    else:
        monkeypatch.setenv("TAGAUG_API_KEY", key)
    caplog.set_level(logging.DEBUG)
    cfg = RunConfig(
        dataset_dir=str(toy_dataset_dir), out_dir=str(tmp_path / "run"), seed=0,
        edge_strategy="none",
        encoder=EncoderConfig(kind="remote", endpoint=base, model="emb-1"),
        generator=GeneratorConfig(kind="remote", endpoint=base, model="chat-1"),
    )
    assert run_augment(cfg)["synthetic_count"] > 0
    requests = server.state["requests"]
    assert {req["path"] for req in requests} == {"/v1/embeddings", "/v1/chat/completions"}
    sent = {req["headers"].get("Authorization") for req in requests}
    assert sent == {None if key is None else f"Bearer {key}"}
    if key is not None:
        for path in (tmp_path / "run").rglob("*"):
            assert not path.is_file() or key.encode() not in path.read_bytes(), path
        captured = capsys.readouterr()
        assert key not in caplog.text + captured.out + captured.err


def test_strict_parse_skips_reply_without_end(stub_server, tmp_path):
    server, base = stub_server
    server.state["chat_fn"] = lambda body: "<START>no end marker"
    texts = [f"t-{i}" for i in range(3)]
    strict_nodes, strict = run_generation(
        texts, pair_schedule(2), base, tmp_path / "strict.jsonl", strict_parse=True
    )
    assert strict_nodes == [] and strict.generated == 0
    assert strict.skipped == [
        {"anchor": 0, "partner": 1, "error": "missing <END> marker"},
        {"anchor": 1, "partner": 2, "error": "missing <END> marker"},
    ]
    lenient_nodes, lenient = run_generation(
        texts, pair_schedule(2), base, tmp_path / "lenient.jsonl"
    )
    assert [node.text for node in lenient_nodes] == ["no end marker"] * 2
    assert lenient.generated == 2 and lenient.skipped == []


def test_reply_with_a_lone_surrogate_is_skipped_and_the_cache_reread(stub_server, tmp_path):
    # The stub escapes the reply's lone surrogate as "\ud800" in its JSON.
    server, base = stub_server
    server.state["chat_fn"] = lambda body: (
        "<START>bad \ud800<END>" if anchor_id(body) == 1 else f"<START>to {anchor_id(body)}<END>"
    )
    texts = [f"t-{i}" for i in range(4)]
    cache = tmp_path / "gen_cache.jsonl"
    nodes, stats = run_generation(texts, pair_schedule(3), base, cache)
    assert [node.text for node in nodes] == ["to 0", "to 2"] and stats.generated == 2
    assert stats.skipped == [
        {"anchor": 1, "partner": 2, "error": "generation holds a lone surrogate '\\ud800'"}
    ]
    assert [rec["text"] for rec in GenCache(cache).entries.values()] == ["to 0", "to 2"]
    again, stats = run_generation(texts, pair_schedule(3), base, cache)
    assert again == nodes and stats.cache_hits == 2 and stats.generated == 0
    assert len(stats.skipped) == 1


class TestCancellation:
    """Closing the in-order window stops the retry waits of the calls in
    flight: each ends after its current attempt."""

    BACKOFF = 10.0  # a retry wait that would outlast every bound below

    def failing_server(self, server, succeed):
        state = server.state
        state["fail_status"] = 503
        state["fail_fn"] = lambda body: not succeed(body)
        state["payload_fn"] = lambda body: {"ok": True}

    def wait_for_requests(self, server, count):
        deadline = time.monotonic() + 5
        while len(server.state["requests"]) < count and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(server.state["requests"]) == count

    def test_close_returns_promptly_and_sends_nothing_after(self, tracking_server):
        server, base = tracking_server
        self.failing_server(server, lambda body: body["item"] == 0)
        cfg = EncoderConfig(kind="remote", retry_count=3, retry_backoff=self.BACKOFF)

        def call(item, stop):
            return _post_with_retries(base, {"item": item}, cfg, EncoderError, stop=stop)

        replies = _in_order(call, range(4))
        assert next(replies) == {"ok": True}
        self.wait_for_requests(server, 4)  # items 1-3 got a 503 and now wait to retry
        started = time.monotonic()
        replies.close()
        assert time.monotonic() - started < 2.0
        time.sleep(0.3)
        assert sorted(req["body"]["item"] for req in server.state["requests"]) == [0, 1, 2, 3]

    def test_failed_batch_stops_retries_of_later_batches(self, tracking_server):
        server, base = tracking_server
        self.failing_server(server, lambda body: body["input"] == ["t-0"])
        # batch 0's reply is malformed, batches 1-3 get 503s
        server.state["payload_fn"] = lambda body: {"object": "list"}
        cfg = EncoderConfig(
            kind="remote", endpoint=base, model="m", batch_size=1, retry_count=3,
            retry_backoff=self.BACKOFF,
        )
        started = time.monotonic()
        with pytest.raises(EncoderError, match="^batch 0: reply lacks data"):
            encode_remote([f"t-{i}" for i in range(4)], cfg)
        assert time.monotonic() - started < 2.0
        sent = len(server.state["requests"])
        time.sleep(0.3)
        assert len(server.state["requests"]) == sent <= 4

    def test_chat_client_makes_no_attempt_after_stop(self, tracking_server):
        server, base = tracking_server
        self.failing_server(server, lambda body: False)
        gen = GeneratorConfig(
            kind="remote", endpoint=base, model="m", retry_count=3, retry_backoff=self.BACKOFF
        )
        stop = threading.Event()
        stop.set()
        started = time.monotonic()
        with pytest.raises(GeneratorError, match="HTTP 503"):
            RemoteChatGenerator(gen).generate(CHAT, stop)
        assert time.monotonic() - started < 2.0
        assert len(server.state["requests"]) == 1
