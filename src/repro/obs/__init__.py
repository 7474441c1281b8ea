"""Observability for the SMART advisor stack.

Three cooperating pieces:

* :mod:`repro.obs.trace` — hierarchical wall-time spans and point events
  (``span("advise") > span("size") > span("gp_solve")``), JSONL export and
  tree rendering.  Disabled by default with a no-op null tracer.
* :mod:`repro.obs.metrics` — a process-global registry of counters, gauges
  and histograms (GP solves, STA node visits, path counts per pruning pass,
  refinement residuals), with :func:`~repro.obs.metrics.metrics_scope` for
  test isolation.
* :mod:`repro.obs.log` — ``logging`` under the ``repro`` namespace:
  diagnostics on stderr (``-v`` / ``-vv``), CLI-facing output on stdout via
  :func:`~repro.obs.log.emit`.
* :mod:`repro.obs.stream` — live trace streaming: the
  :class:`~repro.obs.stream.TraceSubscriber` callback interface, an
  incremental JSONL stream writer, and the ``repro perf watch`` tail view.
* :mod:`repro.obs.perf` — the performance observatory: append-only run
  ledger, span-tree attribution (self-time rollups, kernel hot-spots,
  critical path) and Chrome/speedscope flame-graph exports.
* :mod:`repro.obs.jsonl` — the one tolerant JSONL reader and the one
  appender behind the run ledger and every store in :mod:`repro.cache`.

Typical instrumented call-site::

    from repro.obs import metrics, trace

    with trace.span("gp_solve") as sp:
        solution = gp.solve(...)
        sp.set_attrs(status=solution.status)
    metrics.counter("gp.solves").inc()

and typical test::

    with trace.tracing_scope() as tracer, metrics.metrics_scope() as reg:
        run()
        assert [s.name for s in tracer.spans].count("gp_solve") == reg.counter("gp.solves").value
"""

from . import metrics, perf, stream, trace
from .inspect import inspect_file, render_trace_report
from .perf import (
    RunLedger,
    attribution,
    get_ledger,
    install_ledger,
    ledger_scope,
    record_run,
)
from .stream import CollectingSubscriber, JsonlStreamWriter, TraceSubscriber
from .log import configure_logging, emit, get_logger, log
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metrics_scope,
)
from .trace import (
    EventRecord,
    NullTracer,
    SpanRecord,
    TraceDump,
    Tracer,
    add_attrs,
    event,
    get_tracer,
    json_sanitize,
    load_jsonl,
    span,
    tracing_scope,
)

__all__ = [
    "trace",
    "metrics",
    "perf",
    "stream",
    "TraceSubscriber",
    "CollectingSubscriber",
    "JsonlStreamWriter",
    "RunLedger",
    "attribution",
    "get_ledger",
    "install_ledger",
    "ledger_scope",
    "record_run",
    "Tracer",
    "NullTracer",
    "SpanRecord",
    "EventRecord",
    "TraceDump",
    "span",
    "event",
    "add_attrs",
    "get_tracer",
    "tracing_scope",
    "json_sanitize",
    "load_jsonl",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metrics_scope",
    "configure_logging",
    "emit",
    "get_logger",
    "log",
    "inspect_file",
    "render_trace_report",
]
