"""O(E) seeded text-attributed graph sampler for the large workloads.

It keeps the structure of ``tagaug.fixtures.make_toy_tag``: each class owns
a token vocabulary, every tail class borrows a share of its head "parent"
class's tokens, and tail nodes link to parent nodes almost as often as to
their own class. ``make_toy_tag`` tests every node pair, which is O(n^2)
and unusable at 10k nodes. Here the edge count of each class pair is drawn
from a binomial, and then that many distinct endpoint pairs are drawn, so
the cost is O(nodes + edges). Everything is a pure function of the seed.
"""

import numpy as np

from tagaug.graph import TextGraph


def default_parents(class_sizes):
    """Smallest half of the classes are tails; tail i borrows from head i."""
    order = sorted(range(len(class_sizes)), key=lambda c: (class_sizes[c], c))
    half = len(class_sizes) // 2
    tails, heads = order[:half], order[half:]
    return {t: heads[i % len(heads)] for i, t in enumerate(tails)}


def _texts(rng, labels, class_count, parent_of, vocab_per_class, tokens_per_text,
           mix_prob, tail_overlap):
    n = len(labels)
    shape = (n, tokens_per_text)
    own = np.repeat(labels[:, None], tokens_per_text, axis=1)
    parent = np.array([parent_of.get(c, c) for c in range(class_count)])[own]
    borrow = np.isin(own, list(parent_of)) & (rng.random(shape) < tail_overlap)
    token_class = np.where(borrow, parent, own)
    mixed = rng.random(shape) < mix_prob
    token_class = np.where(mixed, rng.integers(class_count, size=shape), token_class)
    token_index = rng.integers(vocab_per_class, size=shape)
    vocab = [
        [f"w{c}t{i}" for i in range(vocab_per_class)] for c in range(class_count)
    ]
    return tuple(
        " ".join(vocab[c][i] for c, i in zip(row_c, row_i))
        for row_c, row_i in zip(token_class.tolist(), token_index.tolist())
    )


def _pair_edges(rng, members_a, members_b, count, same):
    """`count` distinct undirected pairs, u from members_a and v from members_b."""
    found = np.empty((0, 2), dtype=np.int64)
    while len(found) < count:
        need = count - len(found)
        u = rng.choice(members_a, size=need)
        v = rng.choice(members_b, size=need)
        if same:
            keep = u != v
            u, v = u[keep], v[keep]
        pairs = np.column_stack([np.minimum(u, v), np.maximum(u, v)])
        found = np.unique(np.vstack([found, pairs]), axis=0)
    return found


def sample_tag(
    class_sizes,
    avg_degree=9.4,
    parent_ratio=0.75,
    inter_ratio=0.025,
    vocab_per_class=10,
    tokens_per_text=30,
    mix_prob=0.1,
    tail_overlap=0.4,
    seed=0,
):
    """Seeded graph with `class_sizes` nodes per class.

    Link probabilities keep make_toy_tag's proportions: parent/tail pairs
    link at `parent_ratio` and unrelated pairs at `inter_ratio` times the
    intra-class probability, which is scaled so the expected mean degree
    is `avg_degree`.
    """
    rng = np.random.default_rng(seed)
    class_count = len(class_sizes)
    parent_of = default_parents(class_sizes)
    labels = np.repeat(np.arange(class_count), class_sizes)
    n = len(labels)
    texts = _texts(rng, labels, class_count, parent_of, vocab_per_class,
                   tokens_per_text, mix_prob, tail_overlap)

    def relation(a, b):
        if a == b:
            return 1.0
        if parent_of.get(a) == b or parent_of.get(b) == a:
            return parent_ratio
        return inter_ratio

    sizes = np.asarray(class_sizes, dtype=np.int64)
    blocks = []
    for a in range(class_count):
        for b in range(a, class_count):
            pairs = sizes[a] * (sizes[a] - 1) // 2 if a == b else sizes[a] * sizes[b]
            blocks.append((a, b, int(pairs), relation(a, b)))
    weighted = sum(pairs * rel for _a, _b, pairs, rel in blocks)
    intra_prob = avg_degree * n / 2 / weighted

    starts = np.concatenate([[0], np.cumsum(sizes)])
    edges = []
    for a, b, pairs, rel in blocks:
        count = int(rng.binomial(pairs, min(1.0, intra_prob * rel)))
        if count:
            edges.append(_pair_edges(
                rng, np.arange(starts[a], starts[a + 1]),
                np.arange(starts[b], starts[b + 1]), count, a == b,
            ))
    edges = np.unique(np.vstack(edges), axis=0)
    return TextGraph(
        node_count=n,
        texts=texts,
        labels=tuple(labels.tolist()),
        class_names=tuple(f"topic{c}" for c in range(class_count)),
        edges=tuple(map(tuple, edges.tolist())),
    ), parent_of
