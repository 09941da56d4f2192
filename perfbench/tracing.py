"""Spans and counts recorded from outside the program.

``install`` wraps the public functions of every ``biblio`` module, including
the names one module imports from another (``synthesis.global_cnci`` is the
normalization function seen through the synthesis namespace), plus the public
methods and properties of ``Corpus``. A wrapped call records a span: name,
start, end, parent span and operation id. Functions called once per paper,
value or draw only bump a counter, so tracing does not swamp the work it
measures; rounding helpers are counted too, and the time of the outermost
rounding call is summed as render time. Spans stay in memory until
``write_spans`` is called at the end of the run.
"""
from __future__ import annotations

import gc
import importlib
import inspect
import json
import time
from contextlib import contextmanager

LAYERS = (
    "cli", "io", "corpus", "ranking", "normalization", "excellence", "synthesis", "rounding",
)

# Called once per paper, per rendered value or per sampled category.
COUNTED = frozenset({
    "corpus.Corpus.citations",
    "corpus.Corpus.citation_counts",
    "corpus.Corpus.paper_fields",
    "corpus.Corpus.categories_of",
    "corpus.Corpus.entity_attribution",
    "normalization.cnci_paper",
    "ranking.quartile_partition",
    "ranking.quartile_of_rank",
    "ranking.percentile",
})


class Tracer:
    """In-memory span store. Span rows are [id, parent, op, name, start, end]."""

    def __init__(self):
        self.spans: list[list] = []
        # Time of outermost rounding calls, per enclosing span, moved to "rounding".
        self.rendered_in: dict[int, float] = {}
        self.counts: dict[str, int] = {}
        self.op = 0
        self.render_s = 0.0
        self.gc_s = 0.0
        self.gc_collections = 0
        self._stack: list[int] = []
        self._render_depth = 0
        self._gc_start = 0.0

    def begin(self, name: str) -> list:
        row = [len(self.spans), self._stack[-1] if self._stack else -1, self.op, name,
               time.perf_counter(), 0.0]
        self.spans.append(row)
        self._stack.append(row[0])
        return row

    def end(self, row: list) -> None:
        row[5] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        row = self.begin(name)
        try:
            yield row
        finally:
            self.end(row)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1


def _spanned(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        row = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(row)
    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    counts = tracer.counts

    def wrapper(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)
    return wrapper


def _rendering(tracer: Tracer, name: str, fn):
    counts = tracer.counts

    def wrapper(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        if tracer._render_depth:
            return fn(*args, **kwargs)
        tracer._render_depth = 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            tracer.render_s += elapsed
            tracer._render_depth = 0
            if tracer._stack:
                parent = tracer._stack[-1]
                tracer.rendered_in[parent] = tracer.rendered_in.get(parent, 0.0) + elapsed
    return wrapper


def install(tracer: Tracer):
    """Wrap every public biblio function; returns a callable that undoes it."""
    package = importlib.import_module("biblio")
    modules = [package] + [importlib.import_module(f"biblio.{m}") for m in LAYERS]
    corpus_cls = importlib.import_module("biblio.corpus").Corpus
    made: dict[int, object] = {}
    undo: list[tuple[object, str, object]] = []

    def wrapped(fn, name: str):
        if id(fn) not in made:
            if name.startswith("rounding."):
                kind = _rendering
            elif name in COUNTED:
                kind = _counted
            else:
                kind = _spanned
            made[id(fn)] = kind(tracer, name, fn)
        return made[id(fn)]

    for module in modules:
        for attr, value in list(vars(module).items()):
            home = getattr(value, "__module__", "") or ""
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            if not home.startswith("biblio."):
                continue
            undo.append((module, attr, value))
            setattr(module, attr, wrapped(value, f"{home[len('biblio.'):]}.{value.__name__}"))

    for attr, value in list(vars(corpus_cls).items()):
        if attr.startswith("_"):
            continue
        name = f"corpus.Corpus.{attr}"
        if inspect.isfunction(value):
            replacement = wrapped(value, name)
        elif isinstance(value, property):
            replacement = property(wrapped(value.fget, name))
        else:
            continue
        undo.append((corpus_cls, attr, value))
        setattr(corpus_cls, attr, replacement)

    gc.callbacks.append(tracer.on_gc)

    def uninstall() -> None:
        gc.callbacks.remove(tracer.on_gc)
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return head if head in LAYERS else "bench"


def self_times(spans: list[list], rendered_in: dict[int, float]) -> dict[str, float]:
    """Per-layer self time: each span's duration minus its child spans' durations.

    Rounding helpers are not spans; the time of their outermost calls is taken
    out of the enclosing span and given to the "rounding" layer.
    """
    child = [0.0] * len(spans)
    for sid, parent, _op, _name, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {"rounding": sum(rendered_in.values())}
    for sid, _parent, _op, name, start, end in spans:
        layer = layer_of(name)
        own = (end - start) - child[sid] - rendered_in.get(sid, 0.0)
        out[layer] = out.get(layer, 0.0) + own
    return out


def inclusive_times(spans: list[list]) -> dict[str, tuple[float, int]]:
    """Total duration and call count per span name."""
    out: dict[str, tuple[float, int]] = {}
    for _sid, _parent, _op, name, start, end in spans:
        total, calls = out.get(name, (0.0, 0))
        out[name] = (total + end - start, calls + 1)
    return out


def write_spans(path, spans: list[list]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sid, parent, op, name, start, end in spans:
            fh.write(json.dumps({
                "id": sid, "parent": parent if parent >= 0 else None,
                "op": op, "name": name, "start": start, "end": end,
            }, separators=(",", ":")) + "\n")
