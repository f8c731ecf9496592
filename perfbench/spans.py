"""Spans recorded from outside the pipeline, around calls into each layer.

Nothing here patches a module or a class.  Every wrapper is an instance
attribute set on an object the benchmark itself created (a ``Study``, a
``CrawlStore``, an ``AggregateStore``, a ``RunWriter`` such a store hands
back, or the result study of a server the benchmark booted), or a span
opened around a call the benchmark makes.  Progress-hook events and the
SSE events a client receives become spans the same way.

A span's *self time* is its duration minus the time its child spans
cover.  Each layer's self time is the sum over its spans; the ``op``
span that brackets one whole operation keeps, as its self time, the
wall time no layer claims (``unattributed_s``).  Spans opened on a
thread with nothing open yet (an HTTP handler thread serving the
client's request) attach to the innermost span open on the main thread,
which is the request the client is blocked on.
"""

from __future__ import annotations

import functools
import gc
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

perf = time.perf_counter

#: Accessors timed as ``core.<name>_s``, in the fixed order the traced
#: operations call them (before rendering, so ``reporting.render_s``
#: measures rendering over memoized analyses).
CORE_ACCESSORS = ("owners", "table2", "table3", "figure3", "cookie_stats",
                  "cookie_sync", "fingerprinting", "https_report", "malware",
                  "geography", "banners", "policies")

#: Study accessors that run a whole pipeline stage rather than an analysis.
CRAWLER_ACCESSORS = ("corpus", "inspections")

#: Intermediate analyses wrapped so their time lands in ``core`` even
#: when rendering pulls them first.
CORE_INTERNALS = ("popularity", "crawled_popularity", "porn_labels",
                  "regular_labels", "porn_ats", "regular_ats",
                  "ats_classifier", "porn_attribution", "regular_attribution")

STORE_READS = ("load_log", "stored_config", "find_run", "run_manifests",
               "run_site_counts", "site_event_rows", "event_rows_in_range",
               "count_events", "count_successful_visits", "get_artifact")
STORE_WRITES = ("open_run", "finish_run", "put_artifact")
STORE_CURSORS = ("iter_visits", "iter_requests", "iter_cookies",
                 "iter_js_calls")
AGGREGATE_METHODS = ("get", "get_many", "put", "put_many", "persist_stats")


class Span:
    """One open span.  ``child`` is the time its child spans cover;
    ``foreign`` the part of that spent in *other* layers (at any depth
    below a chain of same-layer children)."""

    __slots__ = ("id", "layer", "name", "start", "child", "foreign",
                 "parent", "thread", "attrs")

    def __init__(self, span_id: int, layer: str, name: str,
                 parent: Optional["Span"], attrs: Dict) -> None:
        self.id = span_id
        self.layer = layer
        self.name = name
        self.parent = parent
        self.child = 0.0
        self.foreign = 0.0
        self.thread = threading.get_ident()
        self.attrs = attrs
        self.start = perf()


class Recorder:
    """Spans and per-layer self time for one traced operation."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._main_stack: List[Span] = []
        self._main = threading.main_thread()
        self._lock = threading.Lock()
        self._next_id = 0
        self.origin = perf()
        #: Closed spans as Chrome trace events (written out at the end).
        self.events: List[Dict] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.name_self_s: Dict[str, float] = defaultdict(float)
        #: Per span name: time spent in the span's own layer, nested
        #: same-layer spans included (``core.table2`` keeps the labels it
        #: computes first, but not the crawl it triggers).
        self.name_layer_s: Dict[str, float] = defaultdict(float)
        self.name_total_s: Dict[str, List[float]] = defaultdict(list)
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0
        #: Wrappers record only while the operation runs, not when the
        #: benchmark reads figures off the same objects afterwards.
        self.active = False

    # -- spans ------------------------------------------------------------

    def _stack(self) -> List[Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: List[Span]) -> Optional[Span]:
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else None

    def open(self, layer: str, name: str, **attrs) -> Span:
        stack = self._stack()
        parent = self._parent(stack)
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        span = Span(span_id, layer, name, parent, attrs)
        stack.append(span)
        return span

    def close(self, span: Span) -> float:
        end = perf()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)
        duration = end - span.start
        own = max(0.0, duration - span.child)
        with self._lock:
            parent = span.parent
            if parent is not None:
                parent.child += duration
                parent.foreign += (span.foreign if parent.layer == span.layer
                                   else duration)
            self.self_s[span.layer] += own
            self.name_self_s[span.name] += own
            self.name_layer_s[span.name] += duration - span.foreign
            self.name_total_s[span.name].append(duration)
            self.events.append({
                "name": span.name, "cat": span.layer, "ph": "X",
                "ts": round((span.start - self.origin) * 1e6, 1),
                "dur": round(duration * 1e6, 1), "pid": 1,
                "tid": span.thread,
                "args": dict(span.attrs, id=span.id,
                             parent=parent.id if parent else None),
            })
        return duration

    def add_child_time(self, layer: str, name: str, seconds: float) -> None:
        """Time spent in ``layer`` too fine-grained for its own spans
        (cursor row fetches): charged to the innermost open span."""
        parent = self._parent(self._stack())
        with self._lock:
            if parent is not None:
                parent.child += seconds
                if parent.layer != layer:
                    parent.foreign += seconds
            self.self_s[layer] += seconds
            self.name_self_s[name] += seconds

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self.open(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
        return traced

    # -- garbage collector ------------------------------------------------

    def _on_gc(self, phase: str, info: Dict) -> None:
        if phase == "start":
            self._gc_start = perf()
        else:
            self.gc_s += perf() - self._gc_start
            self.gc_collections += 1

    def __enter__(self) -> "Recorder":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._on_gc)


# ----------------------------------------------------------------------
# Wrappers installed on objects the benchmark owns
# ----------------------------------------------------------------------

def _wrap_methods(rec: Recorder, obj, layer: str, prefix: str,
                  names) -> None:
    for name in names:
        setattr(obj, name,
                rec.wrap(layer, f"{prefix}.{name}", getattr(obj, name)))


def instrument_study(rec: Recorder, study) -> None:
    _wrap_methods(rec, study, "core", "core", CORE_ACCESSORS)
    _wrap_methods(rec, study, "core", "core", CORE_INTERNALS)
    _wrap_methods(rec, study, "crawler", "crawler", CRAWLER_ACCESSORS)


def _timed_cursor(rec: Recorder, name: str, rows):
    """Yield from a store cursor, charging each fetch to ``datastore``."""
    spent = 0.0
    try:
        while True:
            start = perf()
            try:
                row = next(rows)
            except StopIteration:
                spent += perf() - start
                return
            spent += perf() - start
            yield row
    finally:
        if rec.active:
            rec.add_child_time("datastore", name, spent)


def instrument_store(rec: Recorder, store) -> None:
    _wrap_methods(rec, store, "datastore", "datastore.read", STORE_READS)
    _wrap_methods(rec, store, "datastore", "datastore.write", STORE_WRITES)
    for name in STORE_CURSORS:
        method = getattr(store, name)

        def cursor(*args, _method=method, _name=name, **kwargs):
            return _timed_cursor(rec, f"datastore.read.{_name}",
                                 _method(*args, **kwargs))
        setattr(store, name, cursor)
    make_writer = store.run_writer

    def run_writer(*args, **kwargs):
        writer = make_writer(*args, **kwargs)
        writer.checkpoint = rec.wrap("datastore", "datastore.checkpoint",
                                     writer.checkpoint)
        _wrap_methods(rec, writer, "datastore", "datastore.splice",
                      ("splice", "splice_many"))
        return writer
    store.run_writer = run_writer


def instrument_aggregates(rec: Recorder, cache) -> None:
    _wrap_methods(rec, cache, "aggregates", "aggregates", AGGREGATE_METHODS)


class ProgressTracer:
    """Turns crawl progress events into crawler and browser spans.

    Used both as the ``progress=`` hook of a study the benchmark runs
    and as the sink for the progress events a service client reads off
    its SSE stream.  A run span covers ``run_started``..``run_finished``;
    a site span covers ``site_started``..``site_finished`` of a visited
    site.  A delta crawl announces a whole group of spliced sites before
    splicing them, so a span opened for a site that turns out spliced is
    re-labelled as ``datastore`` splice work and kept out of the
    per-site browser times.
    """

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self.runs: List[Span] = []
        self.site: Optional[Span] = None
        self.site_ms: List[float] = []
        self.analyses: List[Span] = []

    def __call__(self, event: str, **fields) -> None:
        rec = self.rec
        if event == "run_started":
            kind = fields.get("kind", "")
            name = ("regular" if kind.endswith("regular")
                    else f"porn_{fields.get('country')}")
            self.runs.append(rec.open("crawler", f"crawler.run.{name}"))
        elif event == "run_finished" and self.runs:
            if self.site is not None:
                rec.close(self.site)
                self.site = None
            rec.close(self.runs.pop())
        elif event == "site_started":
            if self.site is None:
                self.site = rec.open("browser", "browser.site",
                                     domain=fields.get("domain"))
                self.site.attrs["spliced"] = False
        elif event == "site_spliced":
            if self.site is not None:
                self.site.attrs["spliced"] = True
        elif event == "site_finished":
            site = self.site
            if site is not None and site.attrs.get("domain") == \
                    fields.get("domain"):
                if site.attrs["spliced"]:
                    site.layer, site.name = "datastore", "datastore.splice"
                seconds = rec.close(site)
                if not site.attrs["spliced"]:
                    self.site_ms.append(seconds * 1000.0)
                self.site = None
        elif event == "analysis_started":
            self.analyses.append(
                rec.open("core", _analysis_span(fields.get("name", ""))))
        elif event == "analysis_finished" and self.analyses:
            rec.close(self.analyses.pop())


def _analysis_span(task: str) -> str:
    """``core.<accessor>`` for a service job's analysis task name."""
    name = task.split(":", 1)[0]
    return "core." + {"https": "https_report"}.get(name, name)
