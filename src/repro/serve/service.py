"""`TransformService`: concurrent ``XMLTransform()`` with plan reuse.

The paper's function runs inside a database server, where many sessions
transform concurrently and the same (stylesheet, source) pair repeats.
:class:`TransformService` is that serving tier in front of the existing
pipeline:

* a fixed **worker pool** drains a **bounded admission queue** —
  overload fails fast with :class:`ServiceOverloadedError` instead of
  queueing without bound;
* requests carry **deadlines** (enforced at dequeue: a request that
  waited past its deadline never executes), and can be **cancelled**
  while still queued;
* the compile half (:func:`repro.core.transform.compile_transform`) goes
  through a shared :class:`~repro.serve.cache.PlanCache`, keyed by
  stylesheet content hash + source structural fingerprint, so a cache
  hit pays only :func:`repro.core.transform.execute_compiled` — its
  trace contains *no* compile spans at all;
* a failed rewrite is cached too (negative caching): every execution of
  that artifact replays the categorized functional fallback through the
  exact accounting ``xml_transform`` would produce;
* each request runs under its **own** :class:`~repro.obs.trace.Tracer`
  (the tracer keeps a plain span stack and is not thread-safe), with a
  ``serve.request`` root span recording queue wait, cache hit and
  strategy, and a ``serve.execute`` child around plan/VM execution.

Metrics (``repro.obs``): ``serve.requests``, ``serve.completed``
(labelled by strategy and cache hit), ``serve.rejected{reason}``,
``serve.timeouts``, ``serve.cancelled``, ``serve.errors`` and the
``serve.queue_wait_seconds`` / ``serve.execute_seconds`` /
``serve.request_seconds`` histograms, plus
``serve.request.latency{cache=hit|miss}`` — the one end-to-end
(admission→response) latency definition the load generator and the
benches report — and the cache's own ``serve.cache.*`` family.  With a
``feedback_policy``, distrusted plans are evicted under
``serve.cache.evictions{reason="recost"}`` (total in ``serve.recost``).
"""

from __future__ import annotations

import hashlib
import queue
import threading
import time

from repro.api import Engine, TransformOptions, warn_legacy
from repro.core.transform import execute_compiled, execute_compiled_stream
from repro.errors import ReproError
from repro.obs import InMemorySink, Tracer, global_metrics
from repro.obs.feedback import FeedbackPolicy
from repro.obs.ops import OpsServer
from repro.obs.recorder import FlightRecorder, stage_seconds as _stage_seconds
from repro.obs.trace import (
    TraceContext,
    current_trace_context,
    new_trace_id,
    parse_traceparent,
    use_trace_context,
)
from repro.serve.cache import EVICT_RECOST, PlanCache
from repro.xslt.stylesheet import Stylesheet

_UNSET = object()


class ServeError(ReproError):
    """Base class for serving-layer failures."""


class ServiceOverloadedError(ServeError):
    """The admission queue is full — the request was rejected."""


class ServiceClosedError(ServeError):
    """The service no longer accepts requests."""


class RequestTimeoutError(ServeError):
    """The request's deadline passed before (or while) it ran."""


class RequestCancelledError(ServeError):
    """The request was cancelled before a worker picked it up."""


_PENDING = "pending"
_RUNNING = "running"
_DONE = "done"
_CANCELLED = "cancelled"


class ServeFuture:
    """Handle to one submitted request.

    ``result(timeout)`` blocks for the :class:`ServeResult` (re-raising
    the request's failure); ``cancel()`` succeeds only while the request
    is still queued.
    """

    __slots__ = ("_event", "_lock", "_state", "_value", "_error",
                 "trace_id")

    def __init__(self, trace_id=None):
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._state = _PENDING
        self._value = None
        self._error = None
        #: trace id assigned at admission — usable to look the request
        #: up in the flight recorder (``/debug/trace/<id>``) even before
        #: (or without) a result
        self.trace_id = trace_id

    # -- caller side -------------------------------------------------------------

    def cancel(self):
        """Cancel if still queued; True when the request will not run."""
        with self._lock:
            if self._state == _PENDING:
                self._state = _CANCELLED
                self._error = RequestCancelledError("request cancelled")
                self._event.set()
            return self._state == _CANCELLED

    def cancelled(self):
        return self._state == _CANCELLED

    def done(self):
        return self._event.is_set()

    def result(self, timeout=None):
        if not self._event.wait(timeout):
            raise RequestTimeoutError(
                "no result within %.3fs" % timeout
            )
        if self._error is not None:
            raise self._error
        return self._value

    def exception(self, timeout=None):
        if not self._event.wait(timeout):
            raise RequestTimeoutError(
                "no result within %.3fs" % timeout
            )
        return self._error

    # -- worker side -------------------------------------------------------------

    def _claim(self):
        """Transition pending→running; False when already cancelled."""
        with self._lock:
            if self._state != _PENDING:
                return False
            self._state = _RUNNING
            return True

    def _resolve(self, value):
        with self._lock:
            self._state = _DONE
            self._value = value
        self._event.set()

    def _fail(self, error):
        with self._lock:
            self._state = _DONE
            self._error = error
        self._event.set()


class ServeResult:
    """A :class:`~repro.core.transform.TransformResult` plus the serving
    metadata for this request: cache behaviour and queue/execute/total
    latency split."""

    __slots__ = ("transform", "cache_hit", "queue_wait_seconds",
                 "execute_seconds", "total_seconds", "trace", "trace_id")

    def __init__(self, transform, cache_hit, queue_wait_seconds,
                 execute_seconds, total_seconds, trace=None,
                 trace_id=None):
        #: the underlying TransformResult (rows, strategy, ledger, ...)
        self.transform = transform
        #: True when the compiled plan came from the cache
        self.cache_hit = cache_hit
        self.queue_wait_seconds = queue_wait_seconds
        self.execute_seconds = execute_seconds
        self.total_seconds = total_seconds
        #: root span of this request's private trace
        self.trace = trace
        #: trace id shared by every span of this request (set even when
        #: per-request tracing is off)
        self.trace_id = trace_id

    @property
    def strategy(self):
        return self.transform.strategy

    @property
    def rows(self):
        return self.transform.rows

    def serialized_rows(self, method="xml"):
        return self.transform.serialized_rows(method=method)

    def report(self):
        return self.transform.report()

    def explain(self, rewrite=False):
        # legacy text shim: the historical string carried no
        # execution/feedback sections (see TransformResult.explain)
        report = self.transform.explain_report(
            include_decisions=bool(rewrite)
        )
        report.stats = None
        report.feedback = None
        return report.render()

    def explain_report(self, include_decisions=True):
        return self.transform.explain_report(
            include_decisions=include_decisions
        )

    def __getstate__(self):
        """Results cross process boundaries; the live span tree holds
        tracer handles (thread-locals) and is process-local, so only the
        trace *id* survives serialization — the flight recorder keeps
        the span dicts."""
        state = {name: getattr(self, name) for name in self.__slots__}
        state["trace"] = None
        return state

    def __setstate__(self, state):
        for name in self.__slots__:
            setattr(self, name, state.get(name))


class _Request:
    __slots__ = ("future", "source", "stylesheet", "options", "params",
                 "deadline", "submitted_at", "context", "started_wall")

    def __init__(self, future, source, stylesheet, options, params,
                 deadline, submitted_at, context=None, started_wall=None):
        self.future = future
        self.source = source
        self.stylesheet = stylesheet
        self.options = options  # always a TransformOptions
        self.params = params
        self.deadline = deadline
        self.submitted_at = submitted_at
        #: TraceContext minted (or adopted) at admission — activated on
        #: the worker thread so every span joins this request's trace
        self.context = context
        #: wall-clock admission time (``time.time``), for the recorder
        self.started_wall = started_wall


_SHUTDOWN = object()


def source_fingerprint(source):
    """The cache-key component describing a source's structural shape.

    Uses the source's own ``fingerprint()`` (storages, views, queries)
    when it has one; anything else gets a per-object token, which makes
    equal-but-distinct anonymous sources miss rather than alias."""
    fingerprint = getattr(source, "fingerprint", None)
    if callable(fingerprint):
        return fingerprint()
    return "anon:%x" % id(source)


def stylesheet_key(stylesheet):
    """Content hash for text; identity for pre-compiled objects (the
    cached artifact keeps the object alive, so its id cannot be
    reused while the entry is live).  Only content-hash keys
    (``ss-text:``) are stable across processes — the cluster tier and
    the persistent artifact store require them."""
    if isinstance(stylesheet, Stylesheet):
        return "ss-obj:%x" % id(stylesheet)
    return "ss-text:%s" % hashlib.sha256(
        stylesheet.encode("utf-8")
    ).hexdigest()


#: backwards-compatible alias (pre-cluster internal name)
_stylesheet_key = stylesheet_key


def _sink_spans(tracer):
    """Flattened span records of a per-request tracer's in-memory sink
    (empty when tracing is off)."""
    for sink in tracer.sinks:
        spans = getattr(sink, "spans", None)
        if spans is not None:
            return [span.to_dict() for span in spans]
    return []


def _request_name(request):
    """Short human label for a flight record: the stylesheet key's tail
    (content-hash prefix or object id)."""
    return _stylesheet_key(request.stylesheet)[:24]


def _request_detail(transform):
    """The slow-request diagnosis the recorder retains: the full report
    (stats, span tree, EXPLAIN ANALYZE, Q-error) plus EXPLAIN REWRITE
    (the decision ledger anchored into the plan)."""
    return "%s\n\nEXPLAIN REWRITE:\n%s" % (
        transform.report(), transform.explain_report().render()
    )


def options_key(options):
    """Cache-key component of a request's options — only the
    compile-relevant fields (see :meth:`TransformOptions.cache_key`)."""
    if options is None:
        return ""
    if isinstance(options, TransformOptions):
        return options.cache_key()
    if isinstance(options, dict):
        return repr(sorted(options.items()))
    return repr(options)


#: backwards-compatible alias (pre-cluster internal name)
_options_key = options_key


class TransformService:
    """Concurrent transformation service over one database.

    :param db: the :class:`~repro.rdb.database.Database` to serve from.
    :param workers: worker-thread count.
    :param queue_size: admission-queue bound; a full queue rejects with
        :class:`ServiceOverloadedError`.
    :param cache: a :class:`~repro.serve.cache.PlanCache` (one is created
        when omitted — ``cache_capacity``/``cache_ttl_seconds`` configure
        it).
    :param default_timeout: per-request deadline in seconds applied when
        ``submit``/``transform`` don't pass one (None = no deadline).
    :param trace_requests: give each request a private tracer so
        ``ServeResult.trace`` carries its span tree; turn off to shave
        per-request overhead.
    :param feedback_policy: enable the database's Q-error feedback loop
        for requests served here — a
        :class:`~repro.obs.feedback.FeedbackPolicy`, or True for the
        default thresholds.  When the loop distrusts a plan, the service
        evicts the cached artifact (``serve.cache.evictions`` reason
        ``recost``) so the next request re-costs against the corrected
        statistics.  None leaves the controller as configured on the
        database (observe-only by default).
    :param recorder: the flight recorder keeping the last N requests for
        the ``/debug`` endpoints — a
        :class:`~repro.obs.recorder.FlightRecorder`, True (the default)
        for one with default retention, or False/None to disable.
    :param ops_port: when not None, start an
        :class:`~repro.obs.ops.OpsServer` on this port (0 = ephemeral;
        read it back from ``service.ops.port``) wired to this service's
        metrics, recorder and health; closed with the service.
    :param artifact_store: a persistent second cache tier — an
        :class:`~repro.serve.artifact.ArtifactStore` or a directory
        path.  On a tier-1 miss the compiled plan is looked up on disk
        (keyed by stylesheet content hash + source fingerprint + catalog
        fingerprint + options + stats version) before compiling, and
        every fresh compile is persisted — so a restarted service (or a
        sibling process pointing at the same directory) serves repeats
        warm, without recompiling.  Only content-keyed stylesheets
        (markup text) participate; pre-compiled Stylesheet objects are
        identity-keyed and stay tier-1-only.
    """

    def __init__(self, db, workers=4, queue_size=64, cache=None,
                 cache_capacity=128, cache_ttl_seconds=None,
                 default_timeout=None, metrics=None, trace_requests=True,
                 feedback_policy=None, recorder=True, ops_port=None,
                 artifact_store=None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.db = db
        self.metrics = metrics or global_metrics()
        if isinstance(artifact_store, str):
            from repro.serve.artifact import ArtifactStore

            artifact_store = ArtifactStore(artifact_store,
                                           metrics=self.metrics)
        self.artifact_store = artifact_store
        if recorder is True:
            recorder = FlightRecorder()
        elif recorder is False:
            recorder = None
        self.recorder = recorder
        # explicit None test: an empty PlanCache is falsy (len() == 0)
        self.cache = cache if cache is not None else PlanCache(
            capacity=cache_capacity, ttl_seconds=cache_ttl_seconds,
            metrics=self.metrics,
        )
        self.default_timeout = default_timeout
        self.trace_requests = trace_requests
        self._feedback_controller = getattr(db, "feedback", None)
        if feedback_policy is not None and self._feedback_controller \
                is not None:
            if feedback_policy is True:
                feedback_policy = FeedbackPolicy()
            self._feedback_controller.enable(feedback_policy)
        if self._feedback_controller is not None:
            # subscribe regardless of who enabled the policy, so a
            # controller enabled directly on the database still re-costs
            # this service's cache
            self._feedback_controller.add_listener(self._on_feedback)
        self._queue = queue.Queue(maxsize=queue_size)
        self._closed = False
        self._close_lock = threading.Lock()
        # queue occupancy gauges: depth/capacity plus their ratio, the
        # saturation signal /healthz and /readyz report
        self._gauge_depth = self.metrics.gauge("serve.queue.depth")
        self._gauge_capacity = self.metrics.gauge("serve.queue.capacity")
        self._gauge_saturation = self.metrics.gauge("serve.queue.saturation")
        self._gauge_capacity.set(queue_size)
        self._update_queue_gauges()
        self._workers = []
        for n in range(workers):
            worker = threading.Thread(
                target=self._worker_loop,
                name="repro-serve-%d" % n,
                daemon=True,
            )
            worker.start()
            self._workers.append(worker)
        self.ops = None
        if ops_port is not None:
            self.ops = OpsServer(
                metrics=self.metrics, recorder=self.recorder,
                health_fn=self.health, ready_fn=self.ready, port=ops_port,
            ).start()

    def _update_queue_gauges(self):
        depth = self._queue.qsize()
        capacity = self._queue.maxsize
        self._gauge_depth.set(depth)
        self._gauge_saturation.set(
            (depth / float(capacity)) if capacity else 0.0
        )

    # -- client API --------------------------------------------------------------

    def _effective_options(self, entry_point, options, rewrite, timeout):
        """Normalize ``options`` plus the deprecated loose kwargs into
        one :class:`TransformOptions`."""
        opts = TransformOptions.coerce(options, entry_point=entry_point)
        if rewrite is not _UNSET:
            warn_legacy(entry_point, "rewrite=")
            opts = opts.replace(rewrite=bool(rewrite))
        if timeout is not _UNSET:
            warn_legacy(entry_point, "timeout=")
            opts = opts.replace(deadline=timeout)
        return opts

    def _ingress_context(self, traceparent):
        """The trace context a request is admitted under: the caller's
        ``traceparent`` header when given and valid, else the ambient
        context (an in-process caller already inside a trace), else a
        freshly minted trace id.  Every span of the request — across
        admission, worker and stream-drain threads — joins it."""
        context = parse_traceparent(traceparent) if traceparent else None
        if context is None:
            context = current_trace_context()
        if context is None:
            context = TraceContext(new_trace_id())
        return context

    def submit(self, source, stylesheet, rewrite=_UNSET, options=None,
               params=None, timeout=_UNSET, traceparent=None):
        """Enqueue one request; returns a :class:`ServeFuture`.

        ``options.deadline`` (seconds, default ``default_timeout``)
        bounds the request's *total* life: a request still queued past
        its deadline fails with :class:`RequestTimeoutError` instead of
        executing.  ``traceparent`` is an optional W3C trace-context
        header from an upstream caller — the request joins that trace
        (``future.trace_id``) instead of minting its own.  The loose
        ``rewrite=``/``timeout=`` kwargs are deprecated shims over
        :class:`repro.api.TransformOptions`.
        """
        opts = self._effective_options("TransformService.submit", options,
                                       rewrite, timeout)
        return self._submit(source, stylesheet, opts, params,
                            traceparent=traceparent)

    def _submit(self, source, stylesheet, opts, params, traceparent=None):
        if self._closed:
            raise ServiceClosedError("service is closed")
        deadline_s = opts.deadline if opts.deadline is not None \
            else self.default_timeout
        context = self._ingress_context(traceparent)
        now = time.perf_counter()
        request = _Request(
            ServeFuture(trace_id=context.trace_id), source, stylesheet,
            opts, params,
            deadline=(now + deadline_s) if deadline_s else None,
            submitted_at=now, context=context, started_wall=time.time(),
        )
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            self.metrics.counter("serve.rejected", reason="queue-full").inc()
            self._update_queue_gauges()
            self._record_request(
                request, status="rejected",
                error="admission queue full (%d pending)"
                % self._queue.maxsize,
            )
            raise ServiceOverloadedError(
                "admission queue full (%d pending)" % self._queue.maxsize
            )
        self.metrics.counter("serve.requests").inc()
        self._update_queue_gauges()
        return request.future

    def transform(self, source, stylesheet, rewrite=_UNSET, options=None,
                  params=None, timeout=_UNSET, traceparent=None):
        """Synchronous submit+wait; returns the :class:`ServeResult`."""
        opts = self._effective_options("TransformService.transform", options,
                                       rewrite, timeout)
        future = self._submit(source, stylesheet, opts, params,
                              traceparent=traceparent)
        # A deadline bounds queue wait + execution, both on the worker
        # side; the caller waits without its own limit so in-flight
        # execution can finish.
        return future.result()

    def transform_stream(self, source, stylesheet, options=None,
                         params=None, traceparent=None):
        """Streaming transform: returns a
        :class:`~repro.core.transform.TransformStream` of serialized
        output chunks.

        Runs on the *caller's* thread (the worker pool stays free for
        materialized requests — a slow chunk consumer must not occupy a
        worker), but shares the compiled-plan cache, so a hot
        (stylesheet, source) pair streams without compiling anything.
        The compile and the chunk drain run under one trace
        (``stream.trace_id``) — joined to the upstream ``traceparent``
        when given — and the drained request lands in the flight
        recorder like a materialized one.
        """
        if self._closed:
            raise ServiceClosedError("service is closed")
        opts = TransformOptions.coerce(
            options, entry_point="TransformService.transform_stream"
        )
        self.metrics.counter("serve.stream_requests").inc()
        context = self._ingress_context(traceparent)
        started = time.perf_counter()
        started_wall = time.time()
        tracer = Tracer(sinks=[InMemorySink()]) if self.trace_requests \
            else Tracer(enabled=False)
        with use_trace_context(context):
            with tracer.span("serve.stream.compile") as compile_span:
                compiled, hit = self._compiled_for(
                    source, stylesheet, opts, tracer
                )
                compile_span.set_attr(cache_hit=hit)
        self.metrics.counter(
            "serve.stream_cache", cache="hit" if hit else "miss"
        ).inc()
        stream = execute_compiled_stream(
            self.db, source, compiled, params=params, tracer=tracer,
            metrics=self.metrics, chunk_chars=opts.chunk_chars,
            feedback=opts.feedback,
        )
        stream.trace_id = context.trace_id
        stream._chunks = self._drained(stream, stream._chunks, context,
                                       tracer, hit, started, started_wall)
        return stream

    def _drained(self, stream, chunks, context, tracer, cache_hit,
                 started, started_wall):
        """Wrap a stream's chunk iterator so the drain — which may run
        on any thread, any time after submission — happens under the
        request's trace (a ``serve.stream.drain`` span joined by trace
        id) and the finished request lands in the flight recorder."""
        status = "ok"
        error = None
        bytes_out = 0
        try:
            with use_trace_context(context):
                with tracer.span("serve.stream.drain") as span:
                    for chunk in chunks:
                        bytes_out += len(chunk)
                        yield chunk
                    span.set_attr(bytes_out=bytes_out,
                                  strategy=stream.strategy)
        except BaseException as exc:
            status = "error"
            error = "%s: %s" % (type(exc).__name__, exc)
            self.metrics.counter("serve.errors").inc()
            raise
        finally:
            total = time.perf_counter() - started
            if self.recorder is not None:
                stats = stream.stats
                self.recorder.record(
                    context.trace_id, name="stream",
                    status=status, error=error, strategy=stream.strategy,
                    cache_hit=cache_hit,
                    fallback_category=stream.fallback_category,
                    execute_seconds=(
                        stats.elapsed_seconds if stats is not None else None
                    ),
                    total_seconds=total,
                    rows=(stats.output_rows if stats is not None else None),
                    bytes_out=bytes_out,
                    q_error_max=(
                        stream.feedback.max_q_error
                        if stream.feedback is not None else None
                    ),
                    q_error_triggered=(
                        stream.feedback is not None
                        and stream.feedback.triggered
                    ),
                    stages=_stage_seconds(_sink_spans(tracer)),
                    spans=_sink_spans(tracer),
                    started_at=started_wall,
                )

    def invalidate(self, source=None, key=None, tag=None):
        """Evict cached plans: every plan compiled against ``source``'s
        current fingerprint, or by exact key/tag.  Call after DDL that
        changes a source's schema, view definition or indexes."""
        if source is not None:
            return self.cache.invalidate(
                fingerprint=source_fingerprint(source)
            )
        return self.cache.invalidate(key=key, tag=tag)

    def stats(self):
        """Cache statistics plus queue/worker occupancy."""
        stats = self.cache.stats().as_dict()
        stats["queue_depth"] = self._queue.qsize()
        stats["queue_capacity"] = self._queue.maxsize
        stats["queue_saturation"] = (
            self._queue.qsize() / float(self._queue.maxsize)
            if self._queue.maxsize else 0.0
        )
        stats["workers"] = len(self._workers)
        return stats

    def health(self):
        """The ``/healthz`` body: liveness status plus the saturation
        and cache signals an operator triages overload with."""
        depth = self._queue.qsize()
        capacity = self._queue.maxsize
        body = {
            "status": "closed" if self._closed else "ok",
            "workers": len(self._workers),
            "queue": {
                "depth": depth,
                "capacity": capacity,
                "saturation": (depth / float(capacity)) if capacity else 0.0,
            },
            "cache": self.cache.stats().as_dict(),
            "rejected": self.metrics.counter_total("serve.rejected"),
        }
        if self.recorder is not None:
            body["recorder"] = self.recorder.stats()
        return body

    def ready(self):
        """The ``/readyz`` verdict: ``(ready, body)`` — not ready once
        closed or when the admission queue is (near) saturated, so a
        load balancer stops routing before requests start bouncing."""
        body = self.health()
        ready = (body["status"] == "ok"
                 and body["queue"]["saturation"] < 1.0)
        return ready, body

    def _on_feedback(self, event):
        """Feedback-loop listener: re-cost by evicting every cached
        artifact the loop distrusted — the one that just executed
        (``event.compiled``) and any other whose recorded Q-error
        triggered the policy.  The next request for them recompiles
        under the post-ANALYZE statistics version."""
        def distrusted(value):
            if value is event.compiled:
                return True
            feedback = getattr(value, "feedback", None)
            return feedback is not None and feedback.triggered

        removed = self.cache.invalidate_where(distrusted,
                                              reason=EVICT_RECOST)
        if removed:
            self.metrics.counter("serve.recost").inc(removed)
        return removed

    def close(self, wait=True):
        """Stop accepting requests; drain queued work, stop workers."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        if self._feedback_controller is not None:
            self._feedback_controller.remove_listener(self._on_feedback)
        for _ in self._workers:
            self._queue.put(_SHUTDOWN)
        if wait:
            for worker in self._workers:
                worker.join()
        if self.ops is not None:
            self.ops.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # -- worker side -------------------------------------------------------------

    def _worker_loop(self):
        while True:
            item = self._queue.get()
            try:
                if item is _SHUTDOWN:
                    return
                self._handle(item)
            finally:
                self._queue.task_done()

    def _handle(self, request):
        started = time.perf_counter()
        self._update_queue_gauges()
        future = request.future
        if request.deadline is not None and started >= request.deadline:
            self.metrics.counter("serve.timeouts").inc()
            message = ("deadline exceeded after %.3fs in queue"
                       % (started - request.submitted_at))
            self._record_request(request, status="timeout", error=message,
                                 queue_wait_seconds=started
                                 - request.submitted_at)
            future._fail(RequestTimeoutError(message))
            return
        if not future._claim():
            self.metrics.counter("serve.cancelled").inc()
            self._record_request(request, status="cancelled",
                                 queue_wait_seconds=started
                                 - request.submitted_at)
            return
        queue_wait = started - request.submitted_at
        self.metrics.histogram("serve.queue_wait_seconds").record(queue_wait)
        tracer = Tracer(sinks=[InMemorySink()]) if self.trace_requests \
            else Tracer(enabled=False)
        try:
            with use_trace_context(request.context):
                result = self._execute(request, tracer, queue_wait)
        except BaseException as exc:
            self.metrics.counter("serve.errors").inc()
            self._record_request(
                request, status="error",
                error="%s: %s" % (type(exc).__name__, exc),
                queue_wait_seconds=queue_wait,
                total_seconds=time.perf_counter() - request.submitted_at,
                spans=_sink_spans(tracer),
            )
            future._fail(exc)
            return
        total = time.perf_counter() - request.submitted_at
        result.total_seconds = total
        self.metrics.histogram("serve.request_seconds").record(total)
        # the one end-to-end latency definition (admission -> response)
        # shared by BENCH_serve and BENCH_feedback, split by cache outcome
        self.metrics.histogram(
            "serve.request.latency",
            cache="hit" if result.cache_hit else "miss",
        ).record(total)
        self.metrics.counter(
            "serve.completed",
            strategy=result.strategy,
            cache="hit" if result.cache_hit else "miss",
        ).inc()
        if self.recorder is not None:
            transform = result.transform
            feedback = transform.feedback
            spans = _sink_spans(tracer)
            self.recorder.record(
                request.context.trace_id,
                name=_request_name(request),
                status="ok", strategy=result.strategy,
                cache_hit=result.cache_hit,
                fallback_category=transform.fallback_category,
                queue_wait_seconds=queue_wait,
                execute_seconds=result.execute_seconds,
                total_seconds=total,
                rows=len(transform.rows),
                q_error_max=(feedback.max_q_error
                             if feedback is not None else None),
                q_error_triggered=(feedback is not None
                                   and feedback.triggered),
                stages=_stage_seconds(spans), spans=spans,
                detail_fn=lambda: _request_detail(transform),
                started_at=request.started_wall,
            )
        future._resolve(result)

    def _record_request(self, request, status, error=None,
                        queue_wait_seconds=None, total_seconds=None,
                        spans=None):
        """Flight-record a request that never produced a ServeResult
        (rejected / timed out / cancelled / errored)."""
        if self.recorder is None:
            return
        self.recorder.record(
            request.context.trace_id, name=_request_name(request),
            status=status, error=error,
            queue_wait_seconds=queue_wait_seconds,
            total_seconds=total_seconds,
            stages=_stage_seconds(spans) if spans else None,
            spans=spans, started_at=request.started_wall,
        )

    def _execute(self, request, tracer, queue_wait):
        opts = request.options
        with tracer.span(
            "serve.request",
            rewrite=opts.effective_rewrite(),
            queue_wait_ms=round(queue_wait * 1000.0, 3),
        ) as root:
            compiled, hit = self._compiled_for(
                request.source, request.stylesheet, opts, tracer
            )
            execute_start = time.perf_counter()
            with tracer.span("serve.execute"):
                transform = execute_compiled(
                    self.db, request.source, compiled,
                    params=request.params, tracer=tracer,
                    metrics=self.metrics, root=root,
                    profile_plan=opts.profile_plan,
                    feedback=opts.feedback,
                )
            execute_seconds = time.perf_counter() - execute_start
            self.metrics.histogram("serve.execute_seconds").record(
                execute_seconds
            )
            root.set_attr(cache_hit=hit, strategy=transform.strategy)
        if root:
            transform.trace = root
        return ServeResult(
            transform, hit,
            queue_wait_seconds=queue_wait,
            execute_seconds=execute_seconds,
            total_seconds=None,  # stamped by _handle once resolved
            trace=root if root else None,
            trace_id=request.context.trace_id,
        )

    def _compiled_for(self, source, stylesheet, opts, tracer):
        """The request's CompiledTransform, through the plan cache.

        The compile (leader-only, stampede-suppressed) runs under *this*
        request's tracer, so compile spans appear exactly once — in the
        leader's trace — and cache-hit traces contain none.  With an
        ``artifact_store``, a tier-1 miss consults the persistent tier
        before compiling, and every fresh compile is persisted.
        """
        fingerprint = source_fingerprint(source)
        ss_key = stylesheet_key(stylesheet)
        stats_version = self.db.stats_version()
        key = (
            ss_key,
            fingerprint,
            opts.effective_rewrite(),
            options_key(opts),
            # ANALYZE (or DML invalidating analyzed stats) bumps this, so
            # plans chosen under stale statistics are never served again
            "stats:%d" % stats_version,
        )
        engine = Engine(self.db, tracer=tracer, metrics=self.metrics)
        store = self.artifact_store
        # identity-keyed (pre-compiled Stylesheet) entries are not
        # stable across processes — keep them out of the disk tier
        if store is not None and not ss_key.startswith("ss-text:"):
            store = None
        catalog = self.db.fingerprint() if store is not None else None
        disk_key = None
        if store is not None:
            from repro.serve.artifact import artifact_key

            disk_key = artifact_key(ss_key, fingerprint, catalog,
                                    options_key(opts),
                                    "stats:%d" % stats_version)

        def compile_fn():
            if store is not None:
                with tracer.span("serve.cache.disk_lookup") as span:
                    compiled, _header = store.get(
                        disk_key, fingerprint=fingerprint, catalog=catalog,
                        stats_version=stats_version,
                    )
                    span.set_attr(hit=compiled is not None)
                if compiled is not None:
                    return compiled
            if opts.effective_rewrite():
                self.metrics.counter("transform.rewrite_attempts").inc()
            compiled = engine.compile(source, stylesheet, options=opts)
            if store is not None:
                store.put(disk_key, compiled, fingerprint=fingerprint,
                          catalog=catalog, stats_version=stats_version)
            return compiled

        return self.cache.get_or_compile(
            key, compile_fn, fingerprint=fingerprint,
            tags=("src:%x" % id(source),),
        )
