import json
import os
import tempfile
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagaug.embedding import encode_hashing
from tagaug.generation import (
    GenCache,
    GenerationParseError,
    GeneratorConfig,
    PromptSpec,
    VicinalPair,
    build_prompt,
    cache_key,
    default_prompt_spec,
    find_vicinal_twins,
    generate_interpolations,
    mock_generate,
    parse_generation,
    rebalance_targets,
)
from tagaug.graph import DatasetError, LongTailSplit


def cora_spec():
    return default_prompt_spec("Cora")


def split_for(labels, train_idx, tail_classes, head_count=20, ratio=0.1):
    return LongTailSplit(
        train_idx=tuple(train_idx),
        val_idx=(),
        test_idx=(),
        tail_classes=frozenset(tail_classes),
        head_count=head_count,
        imbalance_ratio=ratio,
    )


class FakeEmb:
    def __init__(self, vectors):
        self.vectors = np.asarray(vectors, dtype=np.float64)

    @property
    def dim(self):
        return self.vectors.shape[1]


class TestFindVicinalTwins:
    def test_two_node_class_exhausts(self):
        emb = FakeEmb(np.eye(4))
        labels = [0, 0, 1, 1]
        split = split_for(labels, [0, 1, 2, 3], {0})
        pairs = find_vicinal_twins(split, emb, labels, k=3, variant="S")
        assert [(p.anchor, p.partner) for p in pairs] == [(0, 1), (1, 0)]

    def test_rebalance_target_count(self):
        emb = FakeEmb(np.eye(6))
        labels = [0, 0, 1, 1, 1, 1]
        split = split_for(labels, list(range(6)), {0}, head_count=20)
        targets = rebalance_targets(labels, split)
        assert targets == {0: 18}
        pairs = find_vicinal_twins(split, emb, labels, k=3, target_counts=targets)
        assert len(pairs) == 18
        assert all(p.label == 0 for p in pairs)

    def test_round_robin_matches_enumeration_oracle(self, rng):
        n = 5
        vectors = rng.normal(size=(n, 6))
        emb = FakeEmb(vectors)
        labels = [0] * n
        split = split_for(labels, list(range(n)), {0})
        pairs = find_vicinal_twins(
            split, emb, labels, k=3, target_counts={0: 7}, variant="S"
        )

        def cos(u, v):
            return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

        neighbor_rank = {}
        for anchor in range(n):
            scored = sorted(
                ((-cos(vectors[anchor], vectors[j]), j) for j in range(n) if j != anchor)
            )
            neighbor_rank[anchor] = [j for _s, j in scored[:3]]
        pool = [
            (anchor, neighbor_rank[anchor][rank])
            for rank in range(3)
            for anchor in range(n)
        ]
        oracle = [pool[i % len(pool)] for i in range(7)]
        assert [(p.anchor, p.partner) for p in pairs] == oracle

    def test_singleton_class_falls_back_to_self_pair(self, caplog):
        emb = FakeEmb(np.eye(3))
        labels = [0, 1, 1]
        split = split_for(labels, [0, 1, 2], {0})
        with caplog.at_level("WARNING"):
            pairs = find_vicinal_twins(split, emb, labels, k=3, variant="S")
        assert [(p.anchor, p.partner) for p in pairs] == [(0, 0)]
        assert "self-pair" in caplog.text

    def test_variant_o_self_pairs(self):
        emb = FakeEmb(np.eye(4))
        labels = [0, 0, 1, 1]
        split = split_for(labels, [0, 1, 2, 3], {0})
        pairs = find_vicinal_twins(split, emb, labels, k=3, variant="O")
        assert [(p.anchor, p.partner) for p in pairs] == [(0, 0), (1, 1)]

    def test_variant_m_crosses_classes(self):
        vectors = [[1.0, 0.0], [0.9, 0.1], [1.0, 0.05], [0.0, 1.0]]
        emb = FakeEmb(vectors)
        labels = [0, 1, 0, 1]
        split = split_for(labels, [0, 1, 2, 3], {0})
        pairs = find_vicinal_twins(split, emb, labels, k=2, variant="M")
        partner_labels = {p.partner_label for p in pairs}
        assert 1 in partner_labels  # nearest neighbors include the other class
        assert all(p.label == 0 for p in pairs)


# Exact chat turns for the Cora preset and for the fallback spec ("toy" has
# no preset). Variant O names each item by the dataset task, S and M by the
# text noun.
GOLDEN_PROMPTS = {
    ("Cora", "O"): [
        "You are a helpful AI assistant for generating new academic articles from Cora, "
        "where each new academic articles follows the format "
        "<START>[New Title] : [New Abstract]<END>.",
        "Give me the first new academic articles from Cora with topic Theory.",
        "<START>seed one<END>",
        "Give me the second new academic articles from Cora with topic Theory. "
        "It should be more similar to the first new academic articles.",
    ],
    ("Cora", "S"): [
        "You are a helpful AI assistant for generating new academic articles from Cora, "
        "where each article follows the format <START>[New Title] : [New Abstract]<END>.",
        "Give me the first article from Cora with topic Theory.",
        "<START>seed one<END>",
        "Give me the second article from Cora with topic Theory.",
        "<START>seed two<END>",
        "Give me the third article from Cora with topic Theory. It should be more "
        "similar to the first article and less similar to the second article.",
    ],
    ("Cora", "M"): [
        "You are a helpful AI assistant for generating new academic articles from Cora, "
        "where each article follows the format <START>[New Title] : [New Abstract]<END>.",
        "Give me the first article from Cora with topic Theory.",
        "<START>seed one<END>",
        "Give me the second article from Cora with topic Neural Networks.",
        "<START>seed two<END>",
        "Give me the third article from Cora with topic Theory. It should be more "
        "similar to the first article and less similar to the second article.",
    ],
    ("toy", "O"): [
        "You are a helpful AI assistant for generating new documents from toy, "
        "where each new documents follows the format <START>[New Text]<END>.",
        "Give me the first new documents from toy with topic Theory.",
        "<START>seed one<END>",
        "Give me the second new documents from toy with topic Theory. "
        "It should be more similar to the first new documents.",
    ],
    ("toy", "S"): [
        "You are a helpful AI assistant for generating new documents from toy, "
        "where each document follows the format <START>[New Text]<END>.",
        "Give me the first document from toy with topic Theory.",
        "<START>seed one<END>",
        "Give me the second document from toy with topic Theory.",
        "<START>seed two<END>",
        "Give me the third document from toy with topic Theory. It should be more "
        "similar to the first document and less similar to the second document.",
    ],
    ("toy", "M"): [
        "You are a helpful AI assistant for generating new documents from toy, "
        "where each document follows the format <START>[New Text]<END>.",
        "Give me the first document from toy with topic Theory.",
        "<START>seed one<END>",
        "Give me the second document from toy with topic Neural Networks.",
        "<START>seed two<END>",
        "Give me the third document from toy with topic Theory. It should be more "
        "similar to the first document and less similar to the second document.",
    ],
}


class TestBuildPrompt:
    def test_variant_s_shape_and_topics(self):
        msgs = build_prompt("S", "t one", "t two", "Theory", "Theory", cora_spec())
        assert [m["role"] for m in msgs] == [
            "system", "user", "assistant", "user", "assistant", "user",
        ]
        final = msgs[-1]["content"]
        assert "more similar to the first article" in final
        assert "less similar to the second article" in final
        later_user_turns = msgs[3]["content"] + final
        assert later_user_turns.count("Theory") == 2
        assert "<START>t one<END>" == msgs[2]["content"]

    def test_variant_m_two_distinct_topics(self):
        msgs = build_prompt(
            "M", "t one", "t two", "Theory", "Neural Networks", cora_spec()
        )
        assert len(msgs) == 6
        joined = " ".join(m["content"] for m in msgs)
        assert "Theory" in joined and "Neural Networks" in joined
        # the anchor's class labels the third request
        assert "third article from Cora with topic Theory" in msgs[-1]["content"]

    def test_variant_o_shape(self):
        msgs = build_prompt("O", "seed text", None, "Theory", "Theory", cora_spec())
        assert [m["role"] for m in msgs] == ["system", "user", "assistant", "user"]
        assert "more similar to the first" in msgs[-1]["content"]

    def test_variant_s_class_mismatch_rejected(self):
        with pytest.raises(ValueError, match="share a class"):
            build_prompt("S", "a", "b", "Theory", "Case Based", cora_spec())

    def test_system_message_frames_format(self):
        msgs = build_prompt("S", "a", "b", "x", "x", cora_spec())
        assert "<START>" in msgs[0]["content"] and "<END>" in msgs[0]["content"]

    @pytest.mark.parametrize("key", sorted(GOLDEN_PROMPTS))
    def test_golden_messages(self, key):
        dataset, variant = key
        class2 = "Neural Networks" if variant == "M" else "Theory"
        msgs = build_prompt(
            variant, "seed one", "seed two", "Theory", class2, default_prompt_spec(dataset)
        )
        expected = GOLDEN_PROMPTS[key]
        roles = ["system", *["user", "assistant"] * (len(expected) // 2 - 1), "user"]
        assert msgs == [{"role": r, "content": c} for r, c in zip(roles, expected, strict=True)]

    def test_prompt_spec_requires_markers(self):
        with pytest.raises(ValueError, match="<START>"):
            PromptSpec("t", "d", "n", "no markers here")


class TestParseGeneration:
    def test_basic_block(self):
        assert (
            parse_generation("<START>Title: X\nAbstract: Y<END>")
            == "Title: X\nAbstract: Y"
        )

    def test_first_block_wins(self):
        assert parse_generation("noise <START>a<END> tail <START>b<END>") == "a"

    def test_empty_block_rejected(self):
        with pytest.raises(GenerationParseError, match="empty"):
            parse_generation("<START><END>")

    def test_lenient_without_markers(self, caplog):
        with caplog.at_level("WARNING"):
            assert parse_generation("  plain text  ") == "plain text"
        assert "missing" in caplog.text

    def test_lenient_missing_end(self):
        assert parse_generation("<START>kept tail") == "kept tail"

    def test_strict_mode_errors(self):
        with pytest.raises(GenerationParseError):
            parse_generation("no markers", strict=True)
        with pytest.raises(GenerationParseError):
            parse_generation("<START>unterminated", strict=True)

    @pytest.mark.parametrize("strict", [False, True])
    def test_lone_surrogate_rejected(self, strict):
        # json.loads reads the escape "\ud800" as one; UTF-8 cannot store it
        with pytest.raises(GenerationParseError, match=r"^generation holds a lone surrogate"):
            parse_generation("<START>a \ud800 b<END>", strict=strict)


class TestMockGenerate:
    def test_token_multiset_from_sources(self):
        out = mock_generate("alpha beta", "alpha beta", "cls", seed=5)
        assert set(out.split()) <= {"cls", "alpha", "beta"}
        assert out.split()[0] == "cls"

    def test_deterministic(self):
        a = mock_generate("one two three", "four five", "cls", seed=9)
        b = mock_generate("one two three", "four five", "cls", seed=9)
        assert a == b

    def test_empty_partner_copies_anchor(self):
        assert mock_generate("a b c", "", "cls", seed=1) == "cls a b c"

    def test_order_preserved_within_sources(self):
        out = mock_generate("a1 a2 a3 a4 a5", "b1 b2 b3", "cls", seed=2).split()[1:]
        a_tokens = [t for t in out if t.startswith("a")]
        b_tokens = [t for t in out if t.startswith("b")]
        assert a_tokens == sorted(a_tokens)
        assert b_tokens == sorted(b_tokens)

    def test_seventy_thirty_mix_in_expectation(self):
        t1 = " ".join(f"a{i}" for i in range(40))
        t2 = " ".join(f"b{i}" for i in range(40))
        kept1, kept2 = [], []
        for seed in range(300):
            tokens = mock_generate(t1, t2, "cls", seed).split()[1:]
            kept1.append(sum(t.startswith("a") for t in tokens) / 40)
            kept2.append(sum(t.startswith("b") for t in tokens) / 40)
        assert np.mean(kept1) == pytest.approx(0.7, abs=0.03)
        assert np.mean(kept2) == pytest.approx(0.3, abs=0.03)

    def test_closer_to_anchor_in_majority_of_seeds(self):
        t1 = " ".join(f"a{i}" for i in range(30))
        t2 = " ".join(f"b{i}" for i in range(30))
        emb = encode_hashing([t1, t2], 128)
        wins = 0
        for seed in range(120):
            out = mock_generate(t1, t2, "cls", seed)
            row = encode_hashing([out], 128).vectors[0]
            sim1 = row @ emb.vectors[0]
            sim2 = row @ emb.vectors[1]
            wins += sim1 >= sim2
        assert wins > 60


class TestGenerateInterpolations:
    def make_pairs(self, labels, split, emb, targets):
        return find_vicinal_twins(split, emb, labels, k=3, target_counts=targets)

    def test_cold_cache_then_warm(self, tmp_path):
        texts = [f"tok{i} tok{i + 1} tok{i + 2}" for i in range(6)]
        labels = [0, 0, 1, 1, 1, 1]
        emb = encode_hashing(texts, 32)
        split = split_for(labels, list(range(6)), {0}, head_count=20)
        pairs = self.make_pairs(labels, split, emb, {0: 18})
        gen = GeneratorConfig(kind="mock", seed=3)
        cache = tmp_path / "gen_cache.jsonl"

        nodes, stats = generate_interpolations(
            pairs, "S", gen, cora_spec(), texts, ("c0", "c1"), cache
        )
        assert len(nodes) == 18
        assert stats.generated == 18 and stats.cache_hits == 0
        lines = [l for l in cache.read_text().splitlines() if l.strip()]
        assert len(lines) == 18
        assert len({json.loads(l)["key"] for l in lines}) == 18

        nodes2, stats2 = generate_interpolations(
            pairs, "S", gen, cora_spec(), texts, ("c0", "c1"), cache
        )
        assert stats2.generated == 0
        assert stats2.cache_hits == 18
        assert [n.text for n in nodes2] == [n.text for n in nodes]

    def test_labels_inherit_anchor(self, tmp_path):
        texts = ["a b", "c d", "e f", "g h"]
        labels = [0, 0, 1, 1]
        emb = encode_hashing(texts, 32)
        split = split_for(labels, [0, 1, 2, 3], {0})
        pairs = find_vicinal_twins(split, emb, labels, k=2, variant="M")
        nodes, _ = generate_interpolations(
            pairs, "M", GeneratorConfig(kind="mock"), cora_spec(), texts,
            ("c0", "c1"), tmp_path / "c.jsonl",
        )
        assert all(n.label == 0 for n in nodes)
        assert all(n.provenance["variant"] == "M" for n in nodes)

    def test_a_node_holds_what_generation_made_and_cannot_be_assigned(self, tmp_path):
        texts = ["a b", "c d", "e f", "g h"]
        split = split_for([0, 0, 1, 1], [0, 1, 2, 3], {0})
        pairs = find_vicinal_twins(split, encode_hashing(texts, 32), [0, 0, 1, 1], k=2)
        nodes, _ = generate_interpolations(
            pairs, "S", GeneratorConfig(kind="mock"), cora_spec(), texts,
            ("c0", "c1"), tmp_path / "c.jsonl",
        )
        assert [field.name for field in fields(nodes[0])] == ["text", "label", "provenance"]
        for name in ("text", "label", "provenance", "edges"):
            with pytest.raises(FrozenInstanceError):
                setattr(nodes[0], name, None)

    def test_cache_key_tracks_content(self):
        gen = GeneratorConfig(kind="mock")
        pair_args = dict(class1="c", class2="c", gen=gen, spec=cora_spec())
        pair = VicinalPair(0, 1, 0, 0)
        k1 = cache_key("S", pair, "text one", "text two", **pair_args)
        k2 = cache_key("S", pair, "text one EDITED", "text two", **pair_args)
        assert k1 != k2


class TestGenCache:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.text(max_size=12), min_size=3, max_size=3))
    def test_cut_at_every_byte_offset_resumes(self, texts):
        # A crash mid-append leaves a prefix of the file. Loading it must
        # keep every record whose JSON is complete, and a record appended
        # afterwards must land on a line of its own.
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "gen_cache.jsonl")
            full = GenCache(path)
            full.append("k0", texts[0], "m", "S", 0, 1)
            full.append("k1", texts[1], "m", "S", 1, 0)
            with open(path, "rb") as fh:
                blob = fh.read()
            json_end = {"k0": blob.index(b"\n"), "k1": len(blob) - 1}
            for cut in range(len(blob) + 1):
                with open(path, "wb") as fh:
                    fh.write(blob[:cut])
                kept = [key for key in ("k0", "k1") if cut >= json_end[key]]
                assert sorted(GenCache(path).entries) == kept
                GenCache(path).append("k2", texts[2], "m", "S", 2, 2)
                reloaded = GenCache(path)
                assert sorted(reloaded.entries) == kept + ["k2"]
                assert [reloaded.get(key) for key in kept + ["k2"]] == [
                    texts[int(key[1])] for key in kept + ["k2"]
                ]
                with open(path, "rb") as fh:
                    assert fh.read().endswith(b"\n")

    def test_a_text_utf8_cannot_hold_is_not_kept(self, tmp_path):
        path = tmp_path / "gen_cache.jsonl"
        cache = GenCache(path)
        with pytest.raises(UnicodeEncodeError):
            cache.append("k0", "a\ud800b", "m", "S", 0, 1)
        assert cache.entries == {} and not path.exists()
        cache.append("k1", "fine", "m", "S", 1, 2)
        assert GenCache(path).entries == cache.entries

    def test_only_the_final_line_may_be_torn(self, tmp_path, caplog):
        path = tmp_path / "gen_cache.jsonl"
        whole = json.dumps({"key": "k0", "text": "x"}) + "\n"
        path.write_text(whole + '{"key": "k1", "te', encoding="utf-8")
        with caplog.at_level("WARNING"):
            assert list(GenCache(path).entries) == ["k0"]
        assert "torn final line" in caplog.text and '{"key": "k1", "te' in caplog.text
        path.write_text('{"key": "k1", "te\n' + whole, encoding="utf-8")
        with pytest.raises(DatasetError, match=r"^gen_cache\.jsonl line 1: malformed JSON"):
            GenCache(path)

    def test_malformed_middle_line_is_named(self, tmp_path):
        path = tmp_path / "gen_cache.jsonl"
        whole = json.dumps({"key": "k0", "text": "x"}) + "\n"
        path.write_text(whole + "{oops\n" + whole, encoding="utf-8")
        with pytest.raises(DatasetError, match=r"^gen_cache\.jsonl line 2: malformed JSON"):
            GenCache(path)

    @pytest.mark.parametrize("missing", ["key", "text"])
    @pytest.mark.parametrize("end", ["\n", ""])
    def test_record_without_key_or_text_is_named(self, tmp_path, missing, end):
        # an unterminated final record is checked like any other line
        rec = {"key": "k1", "text": "y"}
        del rec[missing]
        path = tmp_path / "gen_cache.jsonl"
        path.write_text(
            json.dumps({"key": "k0", "text": "x"}) + "\n\n" + json.dumps(rec) + end,
            encoding="utf-8",
        )
        with pytest.raises(DatasetError, match=rf"^gen_cache\.jsonl line 3: missing key '{missing}'"):
            GenCache(path)

    def test_two_objects_joined_by_a_carriage_return_are_malformed(self, tmp_path):
        # Joined with commas, these three lines parse as three valid records
        # (the last with text "p,q"); line by line, line 1 is malformed.
        path = tmp_path / "gen_cache.jsonl"
        path.write_bytes(
            b'{"key": "a", "text": "x"},\r{"key": "b", "text": "y"}\n'
            b'{"key": "c", "text": "p\nq"}\n'
        )
        with pytest.raises(DatasetError, match=r"^gen_cache\.jsonl line 1: malformed JSON"):
            GenCache(path)

    def test_bytes_that_are_not_utf8_are_named(self, tmp_path):
        path = tmp_path / "gen_cache.jsonl"
        whole = json.dumps({"key": "k0", "text": "x"}).encode() + b"\n"
        path.write_bytes(whole + b'{"key": "k1", "text": "\xff"}\n' + whole)
        with pytest.raises(DatasetError, match=r"^gen_cache\.jsonl line 2: not UTF-8"):
            GenCache(path)


def byte_parse(blob):
    """Cache oracle: each complete line parsed on its own from bytes, then a
    final line without its newline, kept only when it parses."""
    body, _, tail = blob.rpartition(b"\n")
    records = [json.loads(line) for line in body.split(b"\n") if line.strip()]
    if tail.strip():
        try:
            records.append(json.loads(tail))
        except ValueError:
            pass
    return {rec["key"]: rec for rec in records}


# Characters str.splitlines breaks on, CR, and the one run that makes the
# joined parse fall back to the line-by-line reader.
# UTF-8 can hold no lone surrogate, and the test writes the cache as UTF-8.
cache_texts = st.lists(
    st.one_of(
        st.characters(codec="utf-8"), st.sampled_from(["\u2028", "\u0085", "\r", "\n", "}, {"])
    ),
    max_size=6,
).map("".join)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from("abc"), cache_texts, st.booleans()), max_size=5),
    st.lists(
        st.sampled_from(["\n", "\r\n", "\n\n", "\n \r\n", "\n\t\n"]), min_size=5, max_size=5
    ),
    st.sampled_from(["terminated", "unterminated", "torn"]),
    st.data(),
)
def test_gen_cache_entries_match_per_line_byte_parse(records, newlines, last, data):
    lines = [
        json.dumps(
            {"key": key, "text": text, "model": "m", "variant": "S", "anchor": 0, "partner": 1},
            ensure_ascii=ascii_only, sort_keys=True,
        ).encode("utf-8")
        for key, text, ascii_only in records
    ]
    blob = b"".join(line + newline.encode() for line, newline in zip(lines, newlines))
    if lines and last != "terminated":
        blob = blob[: -len(newlines[len(lines) - 1].encode())]
        if last == "torn":
            blob = blob[: len(blob) - data.draw(st.integers(1, len(lines[-1]) - 1))]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "gen_cache.jsonl")
        with open(path, "wb") as fh:
            fh.write(blob)
        assert GenCache(path).entries == byte_parse(blob)
