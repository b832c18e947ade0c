"""Seeded synthetic text-attributed graphs for tests and offline demos.

Each class owns a token vocabulary. Every tail class is tied to a head
"parent" class two ways: its texts borrow a share of the parent's tokens,
and its nodes link to parent nodes almost as often as to their own class.
With only a couple of labeled tail nodes, message passing folds the tail
into its parent; that is the failure mode augmentation is meant to fix.
Everything is deterministic per seed.
"""

import numpy as np

from .graph import TextGraph


# Two head classes of 60 nodes and two tail classes of 25; tail class t
# borrows tokens from, and links to, head class PARENT_OF[t].
CLASS_SIZES = (60, 60, 25, 25)
PARENT_OF = {2: 0, 3: 1}
VOCAB_PER_CLASS = 10
TOKENS_PER_TEXT = 30
MIX_PROB = 0.1  # chance a token comes from a uniformly drawn class
TAIL_OVERLAP = 0.4  # chance a tail token comes from the parent class
INTRA_EDGE_PROB = 0.12
PARENT_EDGE_PROB = 0.09
INTER_EDGE_PROB = 0.003


def make_toy_tag(seed):
    rng = np.random.default_rng(seed)
    class_count = len(CLASS_SIZES)

    labels = []
    for cls, size in enumerate(CLASS_SIZES):
        labels.extend([cls] * size)
    n = len(labels)

    def token(cls):
        return f"w{cls}t{int(rng.integers(VOCAB_PER_CLASS))}"

    texts = []
    for lab in labels:
        tokens = []
        for _ in range(TOKENS_PER_TEXT):
            if rng.random() < MIX_PROB:
                tokens.append(token(int(rng.integers(class_count))))
            elif lab in PARENT_OF and rng.random() < TAIL_OVERLAP:
                tokens.append(token(PARENT_OF[lab]))
            else:
                tokens.append(token(lab))
        texts.append(" ".join(tokens))

    def link_prob(a, b):
        if a == b:
            return INTRA_EDGE_PROB
        if PARENT_OF.get(a) == b or PARENT_OF.get(b) == a:
            return PARENT_EDGE_PROB
        return INTER_EDGE_PROB

    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < link_prob(labels[u], labels[v]):
                edges.append((u, v))

    return TextGraph(
        node_count=n,
        texts=tuple(texts),
        labels=tuple(labels),
        class_names=tuple(f"topic{c}" for c in range(class_count)),
        edges=edges,
    )
