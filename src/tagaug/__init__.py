"""tagaug: augmentation for long-tailed text-attributed graphs.

Synthesizes tail-class nodes by interpolating between nearby same-class
texts, attaches them to the graph through confidence-scored top-k edge
selection (noisy generations stay isolated), retrains a GCN on the
augmented graph, and ships the metric and theory-check suite used to
validate the whole construction.
"""

__version__ = "0.1.0"

from .baselines import mixup_interpolate, numeric_augment, smote_interpolate
from .edges import (
    ConfidenceNet,
    EdgeAssignConfig,
    assign_edges,
    duplicate_edges,
    score_edges,
    select_topk_global,
    train_confidence,
    wire_nodes,
)
from .embedding import (
    EmbeddingMatrix,
    EncoderConfig,
    class_centroids,
    cosine_similarity,
    encode_hashing,
    encode_remote,
    encode_texts,
    knn_same_class,
)
from .generation import (
    GeneratorConfig,
    PromptSpec,
    SyntheticNode,
    VicinalPair,
    build_prompt,
    default_prompt_spec,
    find_vicinal_twins,
    generate_interpolations,
    mock_generate,
    parse_generation,
    rebalance_targets,
)
from .graph import (
    LongTailSplit,
    NormalizedAdjacency,
    TextGraph,
    graph_stats,
    load_dataset,
    make_longtail_split,
    merge_augmented,
    normalized_adjacency,
    write_dataset,
)
from .metrics import (
    ManifoldIndex,
    bcr,
    bps,
    build_manifold_index,
    check_margin_bound,
    classification_metrics,
    confusion_matrix,
    dist_to_manifold,
    head_tail_gap,
    icr,
    margins,
    vicinal_risk,
)
from .neural import (
    ClassifierModel,
    DenseLayer,
    TrainConfig,
    aggregate_layer,
    gradient_check,
    predict,
    train_classifier,
)
from .pipeline import RunConfig, run_augment, run_train_eval, run_verify
