"""Vicinal-twin scheduling, prompt construction, generator clients, output
parsing, caching, and synthetic-node assembly.

Three interpolation variants share the machinery:
  O  self-conditioned rewriting of one seed text
  S  same-class pair interpolation
  M  pair interpolation where the partner may come from another class
     (the anchor's class always labels the output)
"""

import hashlib
import json
import logging
import os
from contextlib import closing
from dataclasses import astuple, dataclass, field

import numpy as np

from .embedding import _in_order, _post_with_retries, knn_embedding, knn_same_class
from .graph import _decode, _encode_record, _jsonl_records, _lone_surrogate, _strings
from .schema import check_fields, setting

logger = logging.getLogger(__name__)

START_MARKER = "<START>"
END_MARKER = "<END>"

VARIANTS = ("O", "S", "M")


class GenerationParseError(ValueError):
    pass


class GeneratorError(RuntimeError):
    pass


@dataclass(frozen=True)
class VicinalPair:
    """Anchor/partner node ids plus their labels; the anchor's label is the
    class of any text generated from the pair."""

    anchor: int
    partner: int
    label: int
    partner_label: int

    def is_self(self):
        return self.anchor == self.partner


@dataclass
class GeneratorConfig:
    kind: str = setting("mock", choices=("mock", "remote"))
    temperature: float = setting(0.7, within="[0, inf)")
    model: str = "mock"
    endpoint: str = ""
    max_tokens: int = setting(512, within="[1, inf)")
    retry_count: int = setting(3, within="[0, inf)")
    retry_backoff: float = setting(0.5, within="[0, inf)")
    timeout: float = setting(60.0, within="(0, inf)")
    seed: int = setting(0, within="[0, inf)")
    api_key_env: str = "TAGAUG_API_KEY"
    strict_parse: bool = False

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class SyntheticNode:
    text: str
    label: int
    provenance: dict


@dataclass(frozen=True)
class PromptSpec:
    """Slot values for the chat templates: what to generate, from which
    corpus, what one item is called, and the output format (framed by the
    literal <START>/<END> markers)."""

    dataset_task: str
    dataset_name: str
    text_noun: str
    format_template: str

    def __post_init__(self):
        if START_MARKER not in self.format_template or END_MARKER not in self.format_template:
            raise ValueError(
                f"format_template must frame the format with {START_MARKER} and {END_MARKER}"
            )

    def digest(self):
        blob = json.dumps(astuple(self))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


_PROMPT_PRESETS = {
    "cora": ("new academic articles", "article", "[New Title] : [New Abstract]"),
    "pubmed": ("new academic articles", "article", "Title: [New Title]\nAbstract: [New Abstract]"),
    "citeseer": ("new academic articles", "article", "[New Title] : [New Abstract]"),
    "photo": ("reviews of products from Amazon", "review", "Review: [New Review]"),
    "computer": ("reviews of products from Amazon", "review", "Review: [New Review]"),
    "children": (
        "new book descriptions",
        "book description",
        "Title: [New Title]\nBook Description: [New Description]",
    ),
}


def default_prompt_spec(dataset_name):
    task, noun, fmt = _PROMPT_PRESETS.get(
        dataset_name.lower(), ("new documents", "document", "[New Text]")
    )
    return PromptSpec(
        dataset_task=task,
        dataset_name=dataset_name,
        text_noun=noun,
        format_template=f"{START_MARKER}{fmt}{END_MARKER}",
    )


def rebalance_targets(labels, split):
    """Synthetic count per tail class that brings its training count up to
    the head count."""
    counts = {cls: 0 for cls in split.tail_classes}
    for i in split.train_idx:
        if labels[i] in counts:
            counts[labels[i]] += 1
    return {
        cls: max(0, split.head_count - have) for cls, have in counts.items()
    }


def find_vicinal_twins(split, emb, labels, k, target_counts=None, variant="S"):
    """Schedule anchor/partner pairs for every tail class.

    Each tail-class training node contributes its k nearest same-class
    training nodes (any-class for variant M, itself for variant O); the
    pool is walked round-robin over anchors, then neighbor rank, and
    cycled until the class target is met. target_counts=None keeps the
    raw pool. A singleton class falls back to self-pairs with a warning.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant: {variant}")
    if k < 1:
        raise ValueError("k must be >= 1")
    train_idx = list(split.train_idx)
    pairs = []
    for cls in sorted(split.tail_classes):
        anchors = sorted(i for i in train_idx if labels[i] == cls)
        if not anchors:
            raise ValueError(f"tail class {cls} has no training nodes")
        partner_lists = []
        for anchor in anchors:
            if variant == "O":
                partners = [anchor]
            elif variant == "S":
                partners = knn_same_class(anchor, k, emb, labels, train_idx)
            else:
                partners = knn_embedding(anchor, k, emb, train_idx)
            if not partners:
                logger.warning(
                    "tail class %d has a single training node; falling back to "
                    "self-pair for node %d",
                    cls,
                    anchor,
                )
                partners = [anchor]
            partner_lists.append(partners)

        pool = []
        for rank in range(max(len(p) for p in partner_lists)):
            for anchor, partners in zip(anchors, partner_lists):
                if rank < len(partners):
                    pool.append(
                        VicinalPair(
                            anchor=anchor,
                            partner=partners[rank],
                            label=cls,
                            partner_label=labels[partners[rank]],
                        )
                    )
        if target_counts is None:
            pairs.extend(pool)
        else:
            want = target_counts.get(cls, 0)
            pairs.extend(pool[i % len(pool)] for i in range(want))
    return pairs


def build_prompt(variant, t1, t2, class1, class2, spec):
    """Chat messages for one generation, per the variant's template."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant: {variant}")
    if variant == "S" and class1 != class2:
        raise ValueError("variant S requires both seeds to share a class")
    # O conditions on the first seed alone and names each item by the task;
    # S and M show both seeds and name each item by the text noun
    noun = spec.dataset_task if variant == "O" else spec.text_noun
    seeds = [(t1, class1)] if variant == "O" else [(t1, class1), (t2, class2)]
    ordinals = ("first", "second", "third")

    def ask(ordinal, topic):
        return f"Give me the {ordinal} {noun} from {spec.dataset_name} with topic {topic}."

    system = (
        f"You are a helpful AI assistant for generating {spec.dataset_task} "
        f"from {spec.dataset_name}, where each {noun} follows the format "
        f"{spec.format_template}."
    )
    messages = [{"role": "system", "content": system}]
    for ordinal, (text, topic) in zip(ordinals, seeds):
        messages.append({"role": "user", "content": ask(ordinal, topic)})
        messages.append({"role": "assistant", "content": f"{START_MARKER}{text}{END_MARKER}"})
    contrast = "" if variant == "O" else f" and less similar to the second {noun}"
    request = f" It should be more similar to the first {noun}{contrast}."
    messages.append({"role": "user", "content": ask(ordinals[len(seeds)], class1) + request})
    return messages


def parse_generation(raw, strict=False):
    """Content of the first <START>...<END> block, outer whitespace trimmed.

    Lenient mode (default) recovers from missing markers: a dropped <END>
    keeps everything after <START>, fully absent markers return the whole
    trimmed string; both log a warning. Strict mode raises instead. An
    empty extraction, or one holding a lone surrogate (a JSON reply may
    escape one as "\\ud800", and UTF-8 cannot store it), is an error in
    either mode.
    """
    start = raw.find(START_MARKER)
    if start >= 0:
        rest = raw[start + len(START_MARKER) :]
        end = rest.find(END_MARKER)
        if end >= 0:
            content = rest[:end]
        elif strict:
            raise GenerationParseError("missing <END> marker")
        else:
            logger.warning("generation missing <END> marker; keeping tail")
            content = rest
    elif strict:
        raise GenerationParseError("missing <START> marker")
    else:
        logger.warning("generation missing <START>/<END> markers; keeping raw text")
        content = raw
    content = content.strip()
    if not content:
        raise GenerationParseError("empty generation")
    if (char := _lone_surrogate(content)) is not None:
        raise GenerationParseError(f"generation holds a lone surrogate {char!r}")
    return content


def mock_generate(t1, t2, class_name, seed):
    """Deterministic stand-in for the text generator.

    Interleaves whitespace tokens of the two seeds, keeping ~70% of the
    first and ~30% of the second in original order, prefixed with the
    class name so outputs separate by class under the hashing encoder.
    An empty partner degenerates to class_name + t1.
    """
    tokens1 = t1.split()
    tokens2 = t2.split()
    if not tokens2:
        return " ".join([class_name, *tokens1]).strip()
    rng = np.random.default_rng(seed)
    kept1 = [tok for tok in tokens1 if rng.random() < 0.7]
    kept2 = [tok for tok in tokens2 if rng.random() < 0.3]
    merged = []
    i = j = 0
    while i < len(kept1) or j < len(kept2):
        rem1, rem2 = len(kept1) - i, len(kept2) - j
        if rem1 and (not rem2 or rng.random() < rem1 / (rem1 + rem2)):
            merged.append(kept1[i])
            i += 1
        else:
            merged.append(kept2[j])
            j += 1
    return " ".join([class_name, *merged]).strip()


def _mock_seed(key):
    """The mock generator's seed for a cache key."""
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big") >> 1


class RemoteChatGenerator:
    """Client for a chat-completions endpoint (POST {base}/v1/chat/completions)."""

    def __init__(self, cfg):
        self.cfg = cfg

    def generate(self, messages, stop=None):
        """The reply's text; a malformed 2xx reply raises GeneratorError."""
        cfg = self.cfg
        payload = {
            "model": cfg.model,
            "messages": messages,
            "temperature": cfg.temperature,
            "max_tokens": cfg.max_tokens,
        }
        url = cfg.endpoint.rstrip("/") + "/v1/chat/completions"
        body = _post_with_retries(url, payload, cfg, GeneratorError, stop=stop)
        try:
            content = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            content = None
        if not isinstance(content, str):
            raise GeneratorError(
                f"reply has no choices[0].message.content string: {json.dumps(body)[:200]}"
            )
        return content


class GenCache:
    """Append-only jsonl cache of generated texts, keyed by content digest.

    A crash mid-append can leave a torn final line: one with no trailing
    newline that does not parse. Loading drops it (with a warning) and the
    next append first truncates the file back to the last newline, so the
    cache stays a valid resume point. A malformed line anywhere else, or a
    record whose "key" or "text" is missing or not a string UTF-8 can
    encode, raises DatasetError naming the line.
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        self._truncate_to = None  # byte offset of a torn final line
        self._unterminated = False  # the final record lacks its newline
        blob = b""
        if os.path.exists(self.path):
            with open(self.path, "rb") as fh:
                blob = fh.read()
        body, _, tail = blob.rpartition(b"\n")
        if tail.strip():
            try:
                json.loads(tail)
                body = blob
                self._unterminated = True
            except ValueError:
                logger.warning(
                    "%s: dropping torn final line (%d bytes): %r",
                    self.path, len(tail), tail[:200],
                )
                self._truncate_to = len(blob) - len(tail)
        name = "gen_cache.jsonl"
        records, _ = _jsonl_records(
            _decode(body, name), name, ("key", "text"), (_strings("key"), _strings("text"))
        )
        self.entries = {rec["key"]: rec for rec in records}

    def get(self, key):
        rec = self.entries.get(key)
        return rec["text"] if rec else None

    def append(self, key, text, model, variant, anchor, partner):
        rec = {
            "key": key,
            "text": text,
            "model": model,
            "variant": variant,
            "anchor": anchor,
            "partner": partner,
        }
        # Encoded first: a text UTF-8 cannot hold raises before the record
        # is kept, so entries and the file stay the same.
        line = (_encode_record(rec) + "\n").encode("utf-8")
        self.entries[key] = rec
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        if self._truncate_to is not None:
            os.truncate(self.path, self._truncate_to)
            self._truncate_to = None
        lead = b"\n" if self._unterminated else b""
        self._unterminated = False
        with open(self.path, "ab") as fh:
            fh.write(lead + line)


def cache_key(variant, pair, t1, t2, class1, class2, gen, spec, attempt=0):
    material = {
        "variant": variant,
        "anchor": pair.anchor,
        "partner": pair.partner,
        "anchor_text": t1,
        "partner_text": t2,
        "class1": class1,
        "class2": class2,
        "model": gen.model,
        "temperature": gen.temperature,
        "prompt_spec": spec.digest(),
        "attempt": attempt,
        "generator_seed": gen.seed if gen.kind == "mock" else None,
    }
    blob = json.dumps(material, ensure_ascii=False, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class GenerationStats:
    pairs_total: int = 0
    cache_hits: int = 0
    generated: int = 0
    skipped: list = field(default_factory=list)


def generate_interpolations(pairs, variant, gen, spec, texts, class_names, cache_path):
    """Run the generator over the pair schedule, reading/writing the cache.

    Returns (synthetic nodes in input-pair order, stats). Generator
    failures after retries skip the pair and are recorded, not raised.
    The remote generator keeps up to MAX_IN_FLIGHT requests in flight;
    replies are parsed and appended to the cache in schedule order.
    """
    cache = GenCache(cache_path)
    stats = GenerationStats(pairs_total=len(pairs))
    schedule = []
    misses = []
    attempts = {}
    for pair in pairs:
        t1 = texts[pair.anchor]
        use_partner = variant != "O" and not pair.is_self()
        t2 = texts[pair.partner] if use_partner else ""
        class1 = class_names[pair.label]
        class2 = class_names[pair.partner_label] if use_partner else class1
        # a pair scheduled twice draws a fresh sample: the attempt index
        # makes the key (and the mock seed) distinct per occurrence
        occurrence = attempts.get((pair.anchor, pair.partner), 0)
        attempts[(pair.anchor, pair.partner)] = occurrence + 1
        key = cache_key(
            variant, pair, t1, t2, class1, class2, gen, spec, attempt=occurrence
        )
        text = cache.get(key)
        schedule.append((pair, key, text))
        if text is None:
            # a self-pair (singleton-class fallback) prompts like variant O
            misses.append((key, variant if use_partner else "O", t1, t2, class1, class2))

    if gen.kind == "mock":
        replies = (
            f"{START_MARKER}{mock_generate(t1, t2, class1, _mock_seed(key))}{END_MARKER}"
            for key, _prompt_variant, t1, t2, class1, _class2 in misses
        )
    else:
        prompts = [
            build_prompt(prompt_variant, t1, t2, class1, class2, spec)
            for _key, prompt_variant, t1, t2, class1, class2 in misses
        ]
        replies = _in_order(RemoteChatGenerator(gen).generate, prompts)

    nodes = []
    with closing(replies):
        for pair, key, text in schedule:
            if text is not None:
                stats.cache_hits += 1
            else:
                raw = next(replies)
                try:
                    if isinstance(raw, Exception):
                        raise raw
                    text = parse_generation(raw, strict=gen.strict_parse)
                except (GeneratorError, GenerationParseError) as exc:
                    logger.warning(
                        "skipping pair (%d, %d): %s", pair.anchor, pair.partner, exc
                    )
                    stats.skipped.append(
                        {"anchor": pair.anchor, "partner": pair.partner, "error": str(exc)}
                    )
                    continue
                cache.append(key, text, gen.model, variant, pair.anchor, pair.partner)
                stats.generated += 1
            nodes.append(
                SyntheticNode(
                    text=text,
                    label=pair.label,
                    provenance={
                        "variant": variant,
                        "anchor": pair.anchor,
                        "partner": pair.partner,
                        "generator": gen.model,
                        "cache_key": key,
                    },
                )
            )
    return nodes, stats
