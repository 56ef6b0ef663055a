"""The four workloads: set-up, seeded request plan and request execution.

Each workload runs in one process.  ``setup()`` builds everything the
timed requests need and returns it with the raw time of each set-up
phase; ``plan()`` is the fixed, seeded list of request rounds; the
single-client workloads execute one request at a time through
``perform()``, and ``serve-ingest`` runs its own rounds of two client
threads against a :class:`TransformService` with writes at quiescent
barriers between rounds.

Output checks never run inside a timed interval: single-client requests
are hashed after their clock stops, serve reads are checked at the
barrier that follows their round.
"""

from __future__ import annotations

import contextlib
import random
import threading
import time

from repro.api import Engine
from repro.core.transform import STRATEGY_SQL, execute_compiled_stream
from repro.errors import SchemaError
from repro.rdb.database import Database
from repro.rdb.storage import ClobStorage, ObjectRelationalStorage
from repro.schema import schema_from_dtd
from repro.serve.service import TransformService
from repro.xmlmodel.parser import parse_document
from repro.xmlmodel.serializer import serialize
from repro.xsltmark.cases import ALL_CASES, get_case

from reference import (COLD_SIZE, FALLBACK_CASES, FALLBACK_SIZE,
                       REWRITE_CASES, REWRITE_SIZE, digest,
                       functional_output, key)

_now = time.perf_counter
_NO_SPAN = contextlib.nullcontext()


def _span(recorder, name):
    """A span of the traced run, or nothing when the round is untraced."""
    return recorder.span(name) if recorder is not None else _NO_SPAN


class Phases:
    """Time spent in each set-up phase, plus the per-document load times
    and cold-request latencies observed while setting up.  Raw timings
    go in through ``add``/``load``/``cold_request``; the calibrated
    values (reference seconds) arrive when the calibrator closes the
    block they were taken in."""

    NAMES = ("generate", "ingest", "index", "warm_compile")

    def __init__(self, calibrator):
        self.calibrator = calibrator
        self.raw = dict.fromkeys(self.NAMES, 0.0)
        self.seconds = dict.fromkeys(self.NAMES, 0.0)
        self.loads = []
        self.cold = []

    def add(self, name, raw):
        self.raw[name] += raw

        def calibrated(factor):
            self.seconds[name] += raw * factor
        self.calibrator.defer(calibrated)

    def load(self, raw):
        self.calibrator.defer(lambda factor: self.loads.append(raw * factor))

    def cold_request(self, raw):
        self.calibrator.defer(lambda factor: self.cold.append(raw * factor))

    def tick(self):
        self.calibrator.tick()

    def total(self):
        return sum(self.seconds.values())


class Sample:
    """What one timed operation produced (raw times, in seconds)."""

    __slots__ = ("latency", "first", "factor", "traced", "request_id",
                 "ok", "kind", "output_bytes", "rows_scanned",
                 "index_probes", "docs_materialized", "instructions",
                 "templates", "rewritten", "compiled", "cache_hit",
                 "queue_wait", "execute_seconds")

    def __init__(self, kind, request_id, traced):
        self.kind = kind
        self.request_id = request_id
        self.traced = traced
        self.latency = self.first = None
        self.factor = None
        self.ok = False
        self.output_bytes = 0
        self.rows_scanned = self.index_probes = 0
        self.docs_materialized = 0
        self.instructions = self.templates = 0
        self.rewritten = self.compiled = False
        self.cache_hit = None
        self.queue_wait = self.execute_seconds = None

    def calibrate(self, factor):
        self.factor = factor


def _read_counters(sample, stats, vm_stats):
    if stats is not None:
        sample.rows_scanned = stats.rows_scanned
        sample.index_probes = stats.index_probes
        sample.docs_materialized = stats.docs_materialized
    if vm_stats:
        sample.instructions = vm_stats["instructions_executed"]
        sample.templates = vm_stats["templates_dispatched"]


def _build_source(db, case, document, name, phases):
    """Shred ``document`` the way the xsltmark runner does: object-relational
    storage with the case's value indexes, or CLOB storage when the
    schema is recursive or absent."""
    started = _now()
    storage = None
    if case.dtd.strip():
        try:
            storage = ObjectRelationalStorage(
                db, schema_from_dtd(case.dtd), name,
                column_types=case.column_types,
            )
        except SchemaError:
            storage = None
    if storage is None:
        storage = ClobStorage(db, name)
    load_started = _now()
    storage.load(document)
    ended = _now()
    phases.load(ended - load_started)
    phases.add("ingest", ended - started)
    started = _now()
    if isinstance(storage, ObjectRelationalStorage):
        for element_name in case.indexed_elements:
            storage.create_value_index(element_name)
    phases.add("index", _now() - started)
    return storage


def compile_chain_problem(db, storage, stylesheet, label):
    """Run the compile chain's public stages in order, as the traced run
    times them, and compare the SQL they produce with what
    ``Engine.compile`` produces.  Returns a problem string or None."""
    from repro.core.partial_eval import partially_evaluate
    from repro.core.sql_rewrite import SqlRewriter
    from repro.core.xquery_gen import XQueryGenerator
    from repro.errors import ReproError
    from repro.rdb.infer import infer_view_structure
    from repro.xslt.stylesheet import compile_stylesheet

    compiled = Engine(db).compile(storage, stylesheet)
    expected = compiled.query.to_sql() if compiled.is_rewritten else None
    staged = None
    if isinstance(storage, ObjectRelationalStorage):
        try:
            view = storage.make_view_query()
            structure = infer_view_structure(view)
            partial = partially_evaluate(compile_stylesheet(stylesheet),
                                         structure.schema)
            module = XQueryGenerator(partial).generate()
            merged = SqlRewriter(view, structure).rewrite_module(module)
            staged = db.optimize(merged).to_sql()
        except ReproError:
            staged = None  # the chain stops where the rewrite falls back
    if staged != expected:
        return "%s: the staged compile chain's SQL differs from " \
               "Engine.compile's" % label
    return None


class _Prepared:
    """One case's database, storage and compiled artefact."""

    __slots__ = ("case", "db", "storage", "engine", "compiled", "expected")

    def __init__(self, case, db, storage, engine, compiled, expected):
        self.case = case
        self.db = db
        self.storage = storage
        self.engine = engine
        self.compiled = compiled
        self.expected = expected


class Workload:
    """A single-client closed loop over one prepared database per case."""

    name = None
    #: xsltmark case names and rows per document
    cases = ()
    size = None
    #: request shapes each case is sent in, once per round
    shapes = ("materialized",)
    #: nominal rounds per second of ``--seconds`` (fixes the request count)
    rounds_per_second = 1.0
    #: set-up repetitions per run; ``setup_s`` is their median
    setup_repeats = 3

    def __init__(self, seed, seconds, digests):
        self.seed = seed
        self.seconds = seconds
        self.digests = digests

    def round_count(self, traced):
        rounds = max(2, int(round(self.seconds * self.rounds_per_second)))
        if traced and rounds % 2:
            rounds += 1  # traced runs alternate traced/untraced rounds
        return rounds

    def plan(self, traced):
        """Rounds of request specs: every (case, shape) once per round, in
        an order drawn from the seed.  The multiset is the same in every
        round and for every seed; only the order changes."""
        rng = random.Random(self.seed)
        base = [(index, shape) for index in range(len(self.cases))
                for shape in self.shapes]
        rounds = []
        for _ in range(self.round_count(traced)):
            order = list(base)
            rng.shuffle(order)
            rounds.append(order)
        return rounds

    # -- set-up -------------------------------------------------------------------

    def setup(self, phases):
        prepared = []
        cold_outputs = []
        for index, name in enumerate(self.cases):
            case = get_case(name)
            started = _now()
            document = case.make_document(self.size)
            phases.add("generate", _now() - started)
            db = Database()
            storage = _build_source(db, case, document, "bm", phases)
            engine = Engine(db)
            # the first request of a case pays the compile: a plan-cache
            # miss, and the warm-up the timed requests do not include
            started = _now()
            compiled, text = self.warm(engine, storage, case)
            elapsed = _now() - started
            phases.add("warm_compile", elapsed)
            phases.cold_request(elapsed)
            prepared.append(_Prepared(
                case, db, storage, engine, compiled,
                self.digests[key(name, self.size)],
            ))
            cold_outputs.append(text)
            phases.tick()
        return prepared, cold_outputs

    def warm(self, engine, storage, case):
        """The first request of a case: compile it, run it once.  Returns
        the compiled artefact the timed requests reuse, and the output."""
        compiled = engine.compile(storage, case.stylesheet)
        result = engine.execute(storage, compiled)
        return compiled, "".join(result.serialized_rows())

    #: whether the cases' compiled artefacts must be rewritten ones
    expects_rewrite = True

    def check_setup(self, prepared, cold_outputs):
        """Failures found in set-up: wrong cold output or wrong strategy."""
        problems = []
        for item, text in zip(prepared, cold_outputs):
            if digest(text) != item.expected:
                problems.append("%s: cold output differs from the VM"
                                % item.case.name)
            compiled = item.compiled
            if compiled is not None \
                    and compiled.is_rewritten != self.expects_rewrite:
                problems.append("%s: unexpected strategy %s"
                                % (item.case.name, compiled.strategy))
        return problems

    # -- one request --------------------------------------------------------------

    def perform(self, prepared, spec, sample, recorder):
        """Run one request; returns its output text.  ``sample.first`` is
        set to the time the first output was in hand, raw seconds from
        the request start."""
        item = prepared[spec[0]]
        started = _now()
        if spec[1] == "streamed":
            chunks = []
            with _span(recorder, "core.execute_stream"):
                stream = execute_compiled_stream(
                    item.db, item.storage, item.compiled,
                    tracer=item.engine.tracer, metrics=item.engine.metrics,
                )
                for chunk in stream:
                    if not chunks:
                        sample.first = _now() - started
                    chunks.append(chunk)
            text = "".join(chunks)
            sample.latency = _now() - started
            if sample.first is None:
                sample.first = sample.latency
            _read_counters(sample, stream.stats, stream.vm_stats)
            sample.rewritten = stream.strategy == STRATEGY_SQL
        else:
            result = item.engine.execute(item.storage, item.compiled)
            with _span(recorder, "xmlmodel.serialize"):
                text = "".join(result.serialized_rows())
            sample.latency = sample.first = _now() - started
            _read_counters(sample, result.stats, result.vm_stats)
            sample.rewritten = result.strategy == STRATEGY_SQL
        sample.output_bytes = len(text)
        return text

    def expected(self, prepared, spec):
        return prepared[spec[0]].expected

    def chain_inputs(self, prepared):
        """(database, source, stylesheet, label) for the compile-chain
        check of the traced run."""
        return [(item.db, item.storage, item.case.stylesheet, item.case.name)
                for item in prepared]


class RewriteReport(Workload):
    name = "rewrite-report"
    cases = REWRITE_CASES
    size = REWRITE_SIZE
    shapes = ("materialized", "streamed")
    rounds_per_second = 1.3
    setup_repeats = 5


class FallbackVM(Workload):
    name = "fallback-vm"
    cases = FALLBACK_CASES
    size = FALLBACK_SIZE
    rounds_per_second = 2.6
    setup_repeats = 7
    expects_rewrite = False


class CompileCold(Workload):
    """Every request compiles a stylesheet text no earlier request used."""

    name = "compile-cold"
    cases = tuple(case.name for case in ALL_CASES)
    size = COLD_SIZE
    rounds_per_second = 18.0
    setup_repeats = 11

    def variant(self, text, serial):
        """A semantically neutral stylesheet variant: one unused global
        variable whose name carries the seed and the request serial."""
        return text.replace(
            "</xsl:stylesheet>",
            '<xsl:variable name="pb%d_%d" select="%d"/></xsl:stylesheet>'
            % (self.seed, serial, serial),
        )

    def warm(self, engine, storage, case):
        """Nothing is kept compiled: every request compiles."""
        result = engine.transform(storage, case.stylesheet)
        return None, "".join(result.serialized_rows())

    def perform(self, prepared, spec, sample, recorder):
        item = prepared[spec[0]]
        # request ids are unique in a run and follow the seeded plan
        stylesheet = self.variant(item.case.stylesheet, sample.request_id)
        started = _now()
        result = item.engine.transform(item.storage, stylesheet)
        with _span(recorder, "xmlmodel.serialize"):
            text = "".join(result.serialized_rows())
        sample.latency = sample.first = _now() - started
        _read_counters(sample, result.stats, result.vm_stats)
        sample.compiled = True
        sample.rewritten = result.strategy == STRATEGY_SQL
        sample.output_bytes = len(text)
        return text


# -- serve-ingest ----------------------------------------------------------------------

#: (case, source) pairs the service reads; each source is its own
#: object-relational storage in one shared database
SERVE_CASES = ("avts", "creation", "dbtail", "chart", "metric", "stringsort",
               "vocab", "workbook")
SERVE_SIZE = 40
#: rows per document a write loads
WRITE_SIZE = 2


class _Source:
    __slots__ = ("case", "storage", "text", "expected")

    def __init__(self, case, storage, text):
        self.case = case
        self.storage = storage
        self.text = text
        self.expected = None


class ServeState:
    def __init__(self, db, sources, service, engine):
        self.db = db
        self.sources = sources
        self.service = service
        self.engine = engine

    def refresh_reference(self, source):
        source.expected = digest(functional_output(
            self.engine, source.storage, source.case.stylesheet))

    def close(self):
        self.service.close()


class ServeIngest(Workload):
    """Two closed-loop clients against ``TransformService(workers=2)``,
    with document loads and ANALYZE at barriers between rounds."""

    name = "serve-ingest"
    #: set-up is small, so it is repeated more often for a steady median
    setup_repeats = 15
    reads_per_round = 128
    #: documents loaded at each barrier; every source is written once per
    #: cycle of len(SERVE_CASES) // writes_per_barrier barriers
    writes_per_barrier = 2
    rounds_per_second = 4.0
    clients = 2

    def plan(self, traced):
        """Per round: the read order (each source read equally often) and
        the sources written at the barrier after it (each cycle of
        barriers writes every source once).  The mix is the same for
        every seed; only the order changes."""
        rng = random.Random(self.seed)
        per_source = self.reads_per_round // len(SERVE_CASES)
        base = [index for index in range(len(SERVE_CASES))
                for _ in range(per_source)]
        cycle = []
        rounds = []
        for _ in range(self.round_count(traced)):
            order = list(base)
            rng.shuffle(order)
            if not cycle:
                cycle = list(range(len(SERVE_CASES)))
                rng.shuffle(cycle)
            written = cycle[:self.writes_per_barrier]
            del cycle[:self.writes_per_barrier]
            rounds.append((order, written))
        return rounds

    def setup(self, phases):
        db = Database()
        sources = []
        for index, name in enumerate(SERVE_CASES):
            case = get_case(name)
            started = _now()
            document = case.make_document(SERVE_SIZE)
            text = serialize(case.make_document(WRITE_SIZE))
            phases.add("generate", _now() - started)
            storage = _build_source(db, case, document, "s%d" % index,
                                    phases)
            sources.append(_Source(case, storage, text))
            phases.tick()
        service = TransformService(db, workers=2)
        outputs = []
        for source in sources:
            started = _now()
            result = service.transform(source.storage, source.case.stylesheet)
            outputs.append("".join(result.serialized_rows()))
            elapsed = _now() - started
            phases.add("warm_compile", elapsed)
            phases.cold_request(elapsed)
            phases.tick()
        return ServeState(db, sources, service, Engine(db)), outputs

    def chain_inputs(self, state):
        return [(state.db, source.storage, source.case.stylesheet,
                 source.case.name) for source in state.sources]

    def check_setup(self, state, outputs):
        problems = []
        for source, text in zip(state.sources, outputs):
            state.refresh_reference(source)
            if digest(text) != source.expected:
                problems.append("%s: warm read differs from the VM"
                                % source.case.name)
        return problems

    def write(self, state, source, recorder, sample):
        """Load one more document into ``source``: parse its text, shred
        it."""
        started = _now()
        with _span(recorder, "xmlmodel.parse"):
            document = parse_document(source.text)
        with _span(recorder, "rdb.load"):
            source.storage.load(document)
        sample.latency = sample.first = _now() - started

    def analyze(self, state, sources, recorder, sample):
        """ANALYZE the tables of ``sources``.  That bumps the statistics
        version, so every cached plan misses on its next read; so does
        each later write into an analyzed table."""
        started = _now()
        for source in sources:
            for table in source.storage.tables:
                with _span(recorder, "rdb.analyze"):
                    state.db.analyze(table.table_name)
        sample.latency = sample.first = _now() - started

    def read_round(self, state, order, samples, recorder, failures):
        """Run one round of reads on two client threads; returns the raw
        wall time of the round and the outputs to check."""
        outputs = [None] * len(order)
        service = state.service

        def client(offset):
            for position in range(offset, len(order), self.clients):
                sample = samples[position]
                source = state.sources[order[position]]
                root = traceparent = None
                try:
                    if recorder is not None:
                        trace_id = "%032x" % (sample.request_id + 1)
                        traceparent = "00-%s-%016x-01" % (
                            trace_id, sample.request_id + 1)
                        root = recorder.open("request",
                                             request_id=sample.request_id,
                                             trace_id=trace_id)
                    started = _now()
                    result = service.transform(
                        source.storage, source.case.stylesheet,
                        traceparent=traceparent,
                    )
                    with _span(recorder, "xmlmodel.serialize"):
                        text = "".join(result.serialized_rows())
                    sample.latency = sample.first = _now() - started
                    if root is not None:
                        recorder.close(root)
                    outputs[position] = text
                    sample.cache_hit = result.cache_hit
                    sample.compiled = not result.cache_hit
                    sample.queue_wait = result.queue_wait_seconds
                    sample.execute_seconds = result.execute_seconds
                    sample.rewritten = result.strategy == STRATEGY_SQL
                    sample.output_bytes = len(text)
                    _read_counters(sample, result.transform.stats,
                                   result.transform.vm_stats)
                except Exception as exc:  # counted, never fatal
                    failures.append("%s read: %s: %s" % (
                        source.case.name, type(exc).__name__, exc))

        threads = [threading.Thread(target=client, args=(offset,),
                                    name="perfbench-client-%d" % offset)
                   for offset in range(self.clients)]
        started = _now()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return _now() - started, outputs
