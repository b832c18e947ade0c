"""tagaug: augmentation for long-tailed text-attributed graphs.

Synthesizes tail-class nodes by interpolating between nearby same-class
texts, attaches them to the graph through confidence-scored top-k edge
selection (noisy generations stay isolated), retrains a GCN on the
augmented graph, and ships the metric and theory-check suite used to
validate the whole construction.

The package re-exports nothing; import its modules (tagaug.pipeline,
tagaug.graph, ...) directly.
"""

__version__ = "0.1.0"
