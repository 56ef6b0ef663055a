"""The timed loops, the metrics and the run record behind ``run.py``.

``run.py`` pins the hash seed and puts the program's sources on the
path before importing this module; see ``README.md`` for what each
workload and metric means.
"""

from __future__ import annotations

import gc
import json
import logging
import os
import platform
import resource
import statistics
import time

import workloads
from calibrate import KERNEL_NOMINAL_S, Calibrator
from reference import digest, load_digests
from tracing import Instrumentation, SpanRecorder, SpanReport

#: kernel passes at each serving barrier (about a tenth of a round)
BARRIER_PASSES = 4

#: set-up phase -> the per-layer metric reporting it
SETUP_METRICS = {
    "generate": "xsltmark.generate_s",
    "ingest": "rdb.ingest_s",
    "index": "rdb.index_build_s",
    "warm_compile": "core.warm_compile_s",
}

WORKLOADS = {
    "rewrite-report": workloads.RewriteReport,
    "fallback-vm": workloads.FallbackVM,
    "compile-cold": workloads.CompileCold,
    "serve-ingest": workloads.ServeIngest,
}


def _log_to_file(path):
    """Send the program's log records (fallback warnings included) and
    Python warnings to ``path`` instead of the terminal."""
    handler = logging.FileHandler(path, mode="w", encoding="utf-8")
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s %(message)s"))
    logging.captureWarnings(True)
    for name in ("repro", "py.warnings"):
        logger = logging.getLogger(name)
        logger.addHandler(handler)
        logger.propagate = False


# -- statistics ------------------------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else 0.0


def _p90(values):
    """90th percentile and the number of samples above it."""
    if len(values) < 2:
        value = values[0] if values else 0.0
        return value, 0
    value = statistics.quantiles(values, n=10)[-1]
    return value, sum(1 for item in values if item > value)


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _per_case(setups, attribute):
    """Set-up timings of unlike cases, in ms, as one value: the mean over
    cases of each case's median over the set-up repetitions.  (The median
    of a mix of unlike cases jumps between them; the per-case median
    drops a collection pause that hit one repetition.)"""
    per_repeat = [getattr(setup, attribute) for setup in setups]
    value = _mean([statistics.median(values) * 1000.0
                   for values in zip(*per_repeat)])
    return value, sum(len(values) for values in per_repeat)


# -- the timed loops -------------------------------------------------------------------


class Run:
    """Everything one invocation measured."""

    def __init__(self, workload, traced):
        self.workload = workload
        self.traced = traced
        self.calibrator = Calibrator()
        self.recorder = SpanRecorder() if traced else None
        self.instrumentation = Instrumentation(self.recorder) \
            if traced else None
        self.samples = []
        self.writes = []
        self.failures = []
        self.checks = 0  # checks made outside requests (set-up, compile chain)
        self.failed_checks = 0
        self.setups = []      # per repeat: calibrated phases + totals
        self.round_seconds = []  # (calibrated wall, traced) per serve round
        self.cache_delta = None
        self.setup_compiles = (0, 0)  # (rewritten, attempted)
        self._ids = 0

    def _check(self, label, problems):
        """Count one check made outside the requests; record what failed."""
        self.checks += 1
        self.failures.extend("%s: %s" % (label, text) for text in problems)
        self.failed_checks += bool(problems)

    def check_compile_chain(self, state):
        """Traced runs: the stages the run times are the stages compile
        runs — their SQL must equal ``Engine.compile``'s."""
        for inputs in self.workload.chain_inputs(state):
            problem = workloads.compile_chain_problem(*inputs)
            self._check("compile chain", [problem] if problem else [])

    def next_id(self):
        self._ids += 1
        return self._ids

    # -- set-up ---------------------------------------------------------------------

    def set_up(self):
        workload, cal = self.workload, self.calibrator
        state = None
        for _ in range(workload.setup_repeats):
            if state is not None:
                _close(state)
                state = None
                gc.collect()
            phases = workloads.Phases(cal)
            cal.close()
            state, outputs = workload.setup(phases)
            cal.close()
            self.setups.append(phases)
            self._check("set-up", workload.check_setup(state, outputs))
            del outputs
        if isinstance(state, list):
            compiled = [item.compiled for item in state
                        if item.compiled is not None]
            self.setup_compiles = (
                sum(1 for item in compiled if item.is_rewritten),
                len(compiled))
        return state

    # -- single client ----------------------------------------------------------------

    def run_single(self, state):
        workload, cal, recorder = self.workload, self.calibrator, \
            self.recorder
        cal.close()
        for number, specs in enumerate(workload.plan(self.traced)):
            tracing = self.traced and number % 2 == 0
            if tracing:
                self.instrumentation.install()
            try:
                for spec in specs:
                    sample = workloads.Sample(spec[1], self.next_id(), tracing)
                    root = None
                    try:
                        if tracing:
                            root = recorder.open("request",
                                                 request_id=sample.request_id)
                        text = workload.perform(state, spec, sample,
                                                recorder if tracing else None)
                    except Exception as exc:  # counted, never fatal
                        self.failures.append("%s: %s: %s" % (
                            state[spec[0]].case.name, type(exc).__name__,
                            exc))
                        text = None
                    finally:
                        if root is not None:
                            recorder.close(root)
                    if text is not None:
                        sample.ok = digest(text) == workload.expected(
                            state, spec)
                        if not sample.ok:
                            self.failures.append(
                                "%s (%s): output differs from the VM"
                                % (state[spec[0]].case.name, spec[1]))
                    self.samples.append(sample)
                    cal.defer(sample.calibrate)
                    cal.tick()
            finally:
                if tracing:
                    self.instrumentation.remove()
        cal.close()

    # -- serve-ingest ------------------------------------------------------------------

    def run_serve(self, state):
        workload, cal, recorder = self.workload, self.calibrator, \
            self.recorder
        before = state.service.cache.stats()
        cal.close()
        cal.passes(BARRIER_PASSES)
        for number, (order, written) in enumerate(
                workload.plan(self.traced)):
            tracing = self.traced and number % 2 == 0
            samples = [workloads.Sample("read", self.next_id(), tracing)
                       for _ in order]
            if tracing:
                self.instrumentation.install()
            try:
                wall, outputs = workload.read_round(
                    state, order, samples, recorder if tracing else None,
                    self.failures)
            finally:
                if tracing:
                    self.instrumentation.remove()
            # quiescent barrier: both clients joined, the workers are idle
            for sample in samples:
                cal.defer(sample.calibrate)
            cal.defer(lambda factor, wall=wall, tracing=tracing:
                      self.round_seconds.append((wall * factor, tracing)))
            cal.passes(BARRIER_PASSES)
            cal.close(keep=BARRIER_PASSES)
            for position, sample in enumerate(samples):
                text = outputs[position]
                if text is None:
                    continue
                source = state.sources[order[position]]
                sample.ok = digest(text) == source.expected
                if not sample.ok:
                    self.failures.append("%s read: output differs from the "
                                         "VM" % source.case.name)
            self.samples.extend(samples)
            # barrier operations run with the layer wrappers removed; in
            # a traced run their explicit spans are always recorded
            sources = [state.sources[index] for index in written]
            for source in sources:
                self._write(state, source, self.traced)
            self._analyze(state, sources, self.traced)
        cal.passes(BARRIER_PASSES)
        cal.close()
        after = state.service.cache.stats()
        self.cache_delta = {
            "hits": after.hits - before.hits,
            "misses": after.misses - before.misses,
            "compiles": after.compiles - before.compiles,
        }

    def _barrier_operation(self, kind, tracing, operation, label):
        """Run one write-side operation at a quiescent barrier as its own
        traced root; failures are counted, never fatal."""
        recorder = self.recorder
        sample = workloads.Sample(kind, self.next_id(), tracing)
        self.calibrator.defer(sample.calibrate)
        root = None
        try:
            if tracing:
                root = recorder.open(kind, request_id=sample.request_id)
            operation(recorder if tracing else None, sample)
            sample.ok = True
        except Exception as exc:  # counted, never fatal
            self.failures.append("%s %s: %s: %s" % (
                label, kind, type(exc).__name__, exc))
        finally:
            if root is not None:
                recorder.close(root)
        self.writes.append(sample)
        return sample

    def _write(self, state, source, tracing):
        self._barrier_operation(
            "write", tracing,
            lambda recorder, sample: self.workload.write(
                state, source, recorder, sample),
            source.case.name)
        state.refresh_reference(source)

    def _analyze(self, state, sources, tracing):
        self._barrier_operation(
            "analyze", tracing,
            lambda recorder, sample: self.workload.analyze(
                state, sources, recorder, sample),
            "+".join(source.case.name for source in sources))


def _close(state):
    close = getattr(state, "close", None)
    if close is not None:
        close()


# -- metrics ---------------------------------------------------------------------------


def _reads(run):
    return [sample for sample in run.samples if sample.latency is not None]


def end_to_end(run):
    """name -> (value, unit, sample count)."""
    workload = run.workload
    reads = _reads(run)
    latency = [s.latency * s.factor * 1000.0 for s in reads]
    p90, beyond = _p90(latency)
    if workload.name == "rewrite-report":
        first = [s.first * s.factor * 1000.0 for s in reads
                 if s.kind == "streamed"]
    else:
        first = [s.first * s.factor * 1000.0 for s in reads]
    if workload.name == "compile-cold":
        miss = (_median(latency), len(latency))
    elif workload.name == "serve-ingest":
        values = [s.latency * s.factor * 1000.0 for s in reads
                  if s.cache_hit is False]
        miss = (_median(values), len(values))
    else:
        miss = _per_case(run.setups, "cold")
    if run.writes:
        values = [s.latency * s.factor * 1000.0 for s in run.writes
                  if s.kind == "write" and s.latency is not None]
        writes = (_median(values), len(values))
    else:
        writes = _per_case(run.setups, "loads")
    if run.round_seconds:
        busy = sum(wall for wall, _ in run.round_seconds)
    else:
        busy = sum(s.latency * s.factor for s in reads)
    attempted, failed = attempted_failed(run)
    setup_totals = [setup.total() for setup in run.setups]
    return {
        "setup_s": (_median(setup_totals), "s", len(setup_totals)),
        "throughput_rps": (len(reads) / busy if busy else 0.0, "1/s",
                           len(reads)),
        "latency_p50_ms": (_median(latency), "ms", len(latency)),
        "latency_p90_ms": (p90, "ms", len(latency), beyond),
        "first_chunk_p50_ms": (_median(first), "ms", len(first)),
        "miss_latency_p50_ms": (miss[0], "ms", miss[1]),
        "write_p50_ms": (writes[0], "ms", writes[1]),
        "success_ratio": ((attempted - failed) / attempted, "ratio",
                          attempted),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB", 1),
    }


def attempted_failed(run):
    """Operations and outside checks attempted, and how many failed."""
    operations = run.samples + run.writes
    attempted = len(operations) + run.checks
    failed = sum(1 for sample in operations if not sample.ok) \
        + run.failed_checks
    return max(attempted, 1), failed


def per_layer(run):
    """name -> (value, unit, sample count) from the traced rounds."""
    report = SpanReport(run.recorder.spans)
    reads = _reads(run)
    traced = [s for s in reads if s.traced]
    writes = [s for s in run.writes
              if s.kind == "write" and s.traced and s.latency is not None]
    analyzes = [s for s in run.writes
                if s.kind == "analyze" and s.traced and s.latency is not None]
    metrics = {}

    def layer(metric, span_name, samples=traced):
        values = []
        for sample in samples:
            seconds = report.duration(sample.request_id, span_name)
            if seconds is not None:
                values.append(seconds * sample.factor * 1000.0)
        metrics[metric] = (_median(values), "ms", len(values))

    layer("xslt.compile_ms", "xslt.compile")
    layer("rdb.infer_ms", "rdb.infer")
    layer("core.partial_eval_ms", "core.partial_eval")
    layer("core.xquery_gen_ms", "core.xquery_gen")
    layer("core.sql_merge_ms", "core.sql_merge")
    layer("rdb.optimize_ms", "rdb.optimize")
    layer("rdb.execute_ms", "rdb.execute")
    layer("xmlmodel.serialize_ms", "xmlmodel.serialize")
    layer("rdb.materialize_ms", "rdb.materialize")
    layer("xslt.vm_ms", "xslt.vm")
    layer("serve.fingerprint_ms", "serve.fingerprint")
    layer("xmlmodel.parse_ms", "xmlmodel.parse", writes)
    layer("rdb.load_ms", "rdb.load", writes)
    layer("rdb.analyze_ms", "rdb.analyze", analyzes)

    overhead = []
    for sample in traced:
        outer = report.duration(sample.request_id, "core.execute")
        inner = report.duration(sample.request_id, "rdb.execute")
        if outer is not None and inner is not None:
            overhead.append((outer - inner) * sample.factor * 1000.0)
    metrics["core.execute_overhead_ms"] = (_median(overhead), "ms",
                                           len(overhead))

    compiles = [s for s in reads if s.compiled]
    if compiles:
        rewritten, attempted = (sum(1 for s in compiles if s.rewritten),
                                len(compiles))
    else:
        rewritten, attempted = run.setup_compiles
    metrics["core.rewrite_ratio"] = (
        rewritten / attempted if attempted else 0.0, "ratio", attempted)

    counted = (("rdb.rows_scanned", "rows_scanned", "count"),
               ("rdb.index_probes", "index_probes", "count"),
               ("rdb.docs_materialized", "docs_materialized", "count"),
               ("xmlmodel.output_bytes", "output_bytes", "bytes"),
               ("xslt.instructions", "instructions", "count"),
               ("xslt.templates_dispatched", "templates", "count"))
    for metric, attribute, unit in counted:
        metrics[metric] = (_mean([getattr(s, attribute) for s in reads]),
                           unit, len(reads))

    served = [s for s in traced if s.queue_wait is not None]
    metrics["serve.queue_wait_ms"] = (
        _median([s.queue_wait * s.factor * 1000.0 for s in served]), "ms",
        len(served))
    metrics["serve.overhead_ms"] = (
        _median([(s.latency - s.execute_seconds) * s.factor * 1000.0
                 for s in served]), "ms", len(served))
    delta = run.cache_delta or {"hits": 0, "misses": 0, "compiles": 0}
    lookups = delta["hits"] + delta["misses"]
    metrics["serve.hit_ratio"] = (delta["hits"] / lookups if lookups else 0.0,
                                  "ratio", lookups)
    metrics["serve.compiles"] = (float(delta["compiles"]), "count", lookups)

    for phase, metric in SETUP_METRICS.items():
        values = [setup.seconds[phase] for setup in run.setups]
        metrics[metric] = (_median(values), "s", len(values))

    if run.round_seconds:
        on = sum(wall for wall, tracing in run.round_seconds if tracing)
        off = sum(wall for wall, tracing in run.round_seconds if not tracing)
    else:
        on = sum(s.latency * s.factor for s in reads if s.traced)
        off = sum(s.latency * s.factor for s in reads if not s.traced)
    metrics["obs.trace_overhead_pct"] = (
        (on / off - 1.0) * 100.0 if off else 0.0, "%", len(reads))
    metrics["obs.span_coverage_pct"] = (report.coverage * 100.0, "%",
                                        len(traced))
    return metrics, report


# -- main ------------------------------------------------------------------------------


def main(args, out_dir):
    """Set up, run and check one workload; print the metrics and, as the
    last line, the result object.  Returns the exit code."""
    os.makedirs(out_dir, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    _log_to_file(os.path.join(out_dir, stem + ".log"))
    workload = WORKLOADS[args.workload](args.seed, args.seconds,
                                        load_digests())
    run = Run(workload, traced=bool(args.trace))
    started = time.perf_counter()
    state = run.set_up()
    try:
        if args.workload == "serve-ingest":
            run.run_serve(state)
        else:
            run.run_single(state)
        if run.traced:
            run.check_compile_chain(state)
    finally:
        _close(state)
    elapsed = time.perf_counter() - started

    if args.trace:
        metrics, report = per_layer(run)
        run.recorder.write(os.path.join(out_dir, stem + ".spans.jsonl"))
        self_ms = {name: seconds * 1000.0 for name, seconds in
                   sorted(report.self_seconds.items())}
    else:
        metrics = end_to_end(run)
        self_ms = None
    attempted, failed = attempted_failed(run)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "hash_seed": os.environ.get("PYTHONHASHSEED"),
        },
        "kernel": {
            "nominal_s": KERNEL_NOMINAL_S,
            "median_s": run.calibrator.median(),
            "samples": len(run.calibrator.samples),
            "share_of_run": run.calibrator.seconds / elapsed,
            "values_s": run.calibrator.samples,
        },
        "setups": [{"raw_s": setup.raw, "calibrated_s": setup.seconds}
                   for setup in run.setups],
        "raw_latency_ms": [round(s.latency * 1000.0, 4)
                           for s in _reads(run)],
        "metrics": {name: {"value": values[0], "unit": values[1],
                           "samples": values[2],
                           **({"beyond": values[3]} if len(values) > 3
                              else {})}
                    for name, values in metrics.items()},
        "self_time_ms": self_ms,
        "attempted": attempted, "failed": failed,
        "failures": run.failures[:50],
    }
    with open(os.path.join(out_dir, stem + ".json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    for name, values in metrics.items():
        print("%-28s %14.4f %-6s n=%d%s" % (
            name, values[0], values[1], values[2],
            " beyond=%d" % values[3] if len(values) > 3 else ""))
    if self_ms:
        print("self time (ms): " + ", ".join(
            "%s=%.1f" % item for item in self_ms.items()))
    for failure in run.failures[:10]:
        print("FAILED " + failure)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[0], "unit": values[1]}
                    for name, values in metrics.items()},
    }))
    return 0
