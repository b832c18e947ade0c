"""Spans around tagaug's layers, recorded from outside the package.

``install()`` wraps every public function defined in the traced tagaug
modules, plus ``requests.post`` as the ``http`` layer, and rebinds each
wrapper in every tagaug namespace that holds the original under any name
(``from .kernels import csr_matmul`` leaves a copy in ``tagaug.graph``;
``from .edges import assign_edges`` one in ``tagaug.pipeline``). A span
that missed such a copy would undercount silently, so the benchmark's
tests pin exact call counts. A traced module that no longer exists, or a
counted function that is gone, makes ``install()`` raise; the names it
wrapped are kept in ``Tracer.wrapped``, so the benchmark can tell a span
that was never called (0) from one that has nothing left to wrap.

Spans follow the OpenTelemetry trace model reduced to what one process
needs: a name, a start, an end and the index of the parent span. They
stay in memory; ``Tracer.summary()`` folds them into per-name inclusive
time, self time (duration minus the time its direct children cover) and
call counts, and ``Tracer.counters`` holds counts taken at the same
boundaries (rows encoded, candidates scored, HTTP retries...).

This module must be installed in a process of its own: the rebinding is
not undone.
"""

import importlib
import inspect
import sys
import time

PACKAGE = "tagaug"
TRACED_MODULES = (
    "graph",
    "embedding",
    "generation",
    "edges",
    "neural",
    "kernels",
    "metrics",
    "pipeline",
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.counters = {}
        self.wrapped = set()

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, func, hook=None):
        self.wrapped.add(name)

        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.perf_counter(), None, self.stack[-1] if self.stack else -1]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def summary(self):
        """{name: {"s": inclusive, "self_s": self, "calls": n}}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _parent), inner in zip(self.spans, child):
            entry = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            entry["s"] += end - start
            entry["self_s"] += end - start - inner
            entry["calls"] += 1
        return out

    def top_level_s(self):
        return sum(end - start for _n, start, end, parent in self.spans if parent < 0)


def _csr_matmul_hook(tracer, args, kwargs, result):
    indptr, indices, data, dense = args[:4]
    tracer.count("kernels.csr_matmul.flops", 2 * len(indices) * dense.shape[1])
    tracer.count(
        "kernels.csr_matmul.bytes",
        sum(a.nbytes for a in (indptr, indices, data, dense, result)),
    )


def _encode_texts_hook(tracer, args, kwargs, result):
    tracer.count("embedding.encode_texts.rows", len(args[0]))


def _score_edges_hook(tracer, args, kwargs, result):
    synthetic_rows, emb = args[:2]
    tracer.count("edges.candidates", len(synthetic_rows) * len(emb.vectors))


def _assign_edges_hook(tracer, args, kwargs, result):
    summary = result[1]
    tracer.count("edges.edges_added", summary["edges_added"])
    tracer.count("edges.isolated", summary["isolated"])


def _generate_hook(tracer, args, kwargs, result):
    stats = result[1]
    tracer.count("generation.pairs_total", stats.pairs_total)
    tracer.count("generation.cache_hits", stats.cache_hits)


HOOKS = {
    "kernels.csr_matmul": _csr_matmul_hook,
    "embedding.encode_texts": _encode_texts_hook,
    "edges.score_edges": _score_edges_hook,
    "edges.assign_edges": _assign_edges_hook,
    "generation.generate_interpolations": _generate_hook,
}


def _wrap_http(tracer, requests_module):
    post = requests_module.post

    def counted_post(*args, **kwargs):
        tracer.count("http.attempts")
        try:
            response = post(*args, **kwargs)
        except Exception:
            tracer.count("http.retried")
            raise
        if response.status_code // 100 != 2:
            tracer.count("http.retried")
        return response

    requests_module.post = tracer.wrap("http.post", counted_post)


def package_namespaces():
    """The package and every submodule of it imported so far."""
    return [
        module
        for name, module in list(sys.modules.items())
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    ]


def rebind(modules, original, replacement):
    """Point every name bound to `original` in `modules` at `replacement`."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install():
    """Wrap the traced modules' public functions; return the Tracer.

    Raises ModuleNotFoundError for a traced module that is gone, and
    LookupError for a counted function (a HOOKS key) that is gone.
    """
    tracer = Tracer()
    layers = [importlib.import_module(f"{PACKAGE}.{name}") for name in TRACED_MODULES]
    namespaces = package_namespaces()
    for module in layers:
        layer = module.__name__.rsplit(".", 1)[1]
        for attr, value in list(vars(module).items()):
            if (
                attr.startswith("_")
                or not inspect.isfunction(value)
                or value.__module__ != module.__name__
            ):
                continue
            span = f"{layer}.{attr}"
            rebind(namespaces, value, tracer.wrap(span, value, HOOKS.get(span)))
    missing = sorted(set(HOOKS) - tracer.wrapped)
    if missing:
        raise LookupError(f"counted functions no longer in {PACKAGE}: {missing}")
    import requests

    _wrap_http(tracer, requests)
    return tracer
