"""Spans for the traced run, recorded from outside the program.

The traced run wraps the public functions of each layer (the names the
program's own callers look up) in a timing wrapper that records one span
per call.  Nothing under ``src/`` changes; the wrappers are installed
for traced rounds only and removed afterwards.

A span is ``(span_id, parent_id, request_id, name, start, end)``.  Spans
opened on one thread nest through a per-thread stack.  A span opened on
a serving worker thread, whose stack is empty, is attached to the
request whose trace id the service activated on that thread: the client
mints that trace id itself and passes it as the request's
``traceparent``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time

from repro.obs.trace import current_trace_id

#: (module, attribute path, span name): the public calls the traced run
#: times.  Module-level functions are patched in the module that *calls*
#: them, because that is where the caller looks the name up.
PATCHES = (
    ("repro.api", "Engine.compile", "core.compile"),
    ("repro.core.transform", "compile_stylesheet", "xslt.compile"),
    ("repro.core.pipeline", "infer_view_structure", "rdb.infer"),
    ("repro.core.pipeline", "partially_evaluate", "core.partial_eval"),
    ("repro.core.xquery_gen", "XQueryGenerator.generate", "core.xquery_gen"),
    ("repro.core.sql_rewrite", "SqlRewriter.rewrite_module",
     "core.sql_merge"),
    ("repro.rdb.database", "Database.optimize", "rdb.optimize"),
    ("repro.api", "execute_compiled", "core.execute"),
    ("repro.serve.service", "execute_compiled", "core.execute"),
    ("repro.rdb.plan", "Query.execute", "rdb.execute"),
    ("repro.rdb.storage", "ObjectRelationalStorage.materialize",
     "rdb.materialize"),
    ("repro.rdb.storage", "ClobStorage.materialize", "rdb.materialize"),
    ("repro.xslt.vm", "XsltVM.transform_document", "xslt.vm"),
    ("repro.serve.service", "source_fingerprint", "serve.fingerprint"),
    ("repro.serve.service", "stylesheet_key", "serve.stylesheet_key"),
    ("repro.serve.cache", "PlanCache.get_or_compile", "serve.plan_cache"),
    ("repro.obs.recorder", "FlightRecorder.record", "obs.record"),
)

ROOT = "request"


class SpanRecorder:
    """Keeps spans in memory; ``write`` puts them in a JSON-lines file."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._by_trace = {}

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, request_id=None, trace_id=None):
        """Open a span; returns the handle ``close`` takes.  A span with
        ``request_id`` is a request root; ``trace_id`` registers it so
        spans on other threads of that trace attach to it."""
        stack = self._stack()
        if request_id is not None:
            parent = None
        elif stack:
            parent = stack[-1]
            request_id = parent[2]
        else:
            with self._lock:
                parent = self._by_trace.get(current_trace_id())
            request_id = parent[2] if parent is not None else None
        span = [next(self._ids), parent[0] if parent else None, request_id,
                name, time.perf_counter(), None]
        if trace_id is not None:
            with self._lock:
                self._by_trace[trace_id] = span
        stack.append(span)
        return span

    def close(self, span):
        span[5] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(tuple(span))

    def span(self, name):
        return _SpanContext(self, name)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, request, name, start, end in self.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "request": request,
                    "name": name, "start": start, "end": end,
                }) + "\n")


class _SpanContext:
    __slots__ = ("recorder", "name", "handle")

    def __init__(self, recorder, name):
        self.recorder = recorder
        self.name = name

    def __enter__(self):
        self.handle = self.recorder.open(self.name)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.recorder.close(self.handle)
        return False


def _wrap(function, name, recorder):
    @functools.wraps(function)
    def traced(*args, **kwargs):
        span = recorder.open(name)
        try:
            return function(*args, **kwargs)
        finally:
            recorder.close(span)
    return traced


class Instrumentation:
    """Installs the ``PATCHES`` wrappers; ``remove`` restores the
    originals.  Install and remove only while no request is running."""

    def __init__(self, recorder):
        self.recorder = recorder
        self._saved = []

    def install(self):
        for module_name, path, span_name in PATCHES:
            owner = importlib.import_module(module_name)
            *outer, attribute = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, _wrap(original, span_name,
                                            self.recorder))

    def remove(self):
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


# -- analysis ----------------------------------------------------------------------


def _union(intervals):
    """Total length covered by a set of [start, end] intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


class SpanReport:
    """Per-request layer durations, self times and coverage."""

    def __init__(self, spans):
        by_id = {span[0]: span for span in spans}
        children = {}
        for span in spans:
            if span[1] is not None:
                children.setdefault(span[1], []).append((span[4], span[5]))
        #: request id -> {layer name -> summed duration of outermost spans}
        self.layer_seconds = {}
        #: layer name -> summed self time over all spans
        self.self_seconds = {}
        covered = total = 0.0
        for span_id, parent, request, name, start, end in spans:
            kids = children.get(span_id, ())
            self.self_seconds[name] = self.self_seconds.get(name, 0.0) + (
                end - start - _union(kids))
            if parent is None:
                if name == ROOT:
                    total += end - start
                    covered += _union(kids)
                continue
            if _inside_same_layer(by_id, parent, name):
                continue  # a nested call of the layer is counted once
            per_request = self.layer_seconds.setdefault(request, {})
            per_request[name] = per_request.get(name, 0.0) + end - start
        #: share of request time the layer spans cover
        self.coverage = covered / total if total else 0.0

    def duration(self, request_id, name):
        """Seconds the request spent in the layer (None if never)."""
        return self.layer_seconds.get(request_id, {}).get(name)


def _inside_same_layer(by_id, parent, name):
    while parent is not None:
        span = by_id[parent]
        if span[3] == name:
            return True
        parent = span[1]
    return False
