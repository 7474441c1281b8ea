"""Hierarchical span tracing for the SMART advisor flow.

The Figure-4 loop's dynamics — how many GP⇄STA round-trips a macro needs,
where the wall-time goes between path extraction, pruning, the convex solve
and the timing analysis — are operational claims of the paper, so they must
be observable.  This module provides:

* :class:`Tracer` — records nested :class:`SpanRecord` spans (wall-time,
  depth, arbitrary attributes) plus point-in-time :class:`EventRecord`
  events, exportable as JSONL and as a rendered tree;
* :class:`NullTracer` — the default, whose every operation is a no-op so
  that un-traced runs pay (benchmarked) negligible overhead;
* module-level :func:`span` / :func:`event` / :func:`add_attrs` that
  dispatch to the process-global active tracer, and :func:`tracing_scope`
  for temporary activation (tests, CLI ``--trace`` / ``--profile``).

JSONL schema (one object per line)::

    {"type": "trace", "version": 1, "unix_time": ...}        # header
    {"type": "span", "id": 2, "parent": 1, "name": "gp_solve",
     "depth": 2, "t0": 0.0123, "t1": 0.0456, "dur": 0.0333,
     "attrs": {...}}
    {"type": "event", "span": 2, "name": "iteration_record",
     "t": 0.034, "attrs": {"iteration": 0, "residual": 1.2}}

Spans are written in *completion* order (children before parents); readers
reconstruct the hierarchy from ``parent`` ids.

Live observation: a :class:`Tracer` accepts *subscribers* (see
:mod:`repro.obs.stream`) whose callbacks fire as spans open/close and events
land — the same records, delivered incrementally instead of after exit.
The JSONL stream a subscriber writes is byte-identical to the post-hoc
:meth:`Tracer.write_jsonl` export because both routes serialize through
:func:`record_line`.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union


def json_sanitize(obj: Any) -> Any:
    """Replace non-finite floats with string sentinels, recursively.

    ``json.dumps`` happily emits ``Infinity``/``NaN``, which are *not* JSON —
    strict parsers (``json.loads(..., parse_constant=...)``, ``jq``, most
    non-Python consumers) reject them.  Engine telemetry legitimately carries
    such values (``worst_violation=inf`` before the first measurement,
    ``gp_objective=nan`` on an infeasible retarget), so every JSON export
    boundary routes through this sanitizer.  Sentinels are strings — the sign
    and NaN-ness survive a round trip — and finite payloads pass unchanged.
    """
    if isinstance(obj, float):
        if math.isnan(obj):
            return "NaN"
        if obj == math.inf:
            return "Infinity"
        if obj == -math.inf:
            return "-Infinity"
        return obj
    if isinstance(obj, dict):
        return {key: json_sanitize(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_sanitize(value) for value in obj]
    return obj


@dataclass
class SpanRecord:
    """One completed (or in-flight) span."""

    span_id: int
    parent_id: Optional[int]
    name: str
    depth: int
    t_start: float                     # seconds since the tracer's epoch
    t_end: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return (self.t_end - self.t_start) if self.t_end is not None else 0.0

    def set_attrs(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    def to_json(self) -> Dict[str, Any]:
        # ``dur`` is derived from the *rounded* endpoints (not the raw
        # duration) so that export -> load -> re-export is byte-identical:
        # a loaded record carries the rounded times, and rounding is
        # idempotent.
        t0 = round(self.t_start, 6)
        t1 = round(self.t_end, 6) if self.t_end is not None else None
        return {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "depth": self.depth,
            "t0": t0,
            "t1": t1,
            "dur": round(t1 - t0, 6) if t1 is not None else 0.0,
            "attrs": self.attrs,
        }


@dataclass
class EventRecord:
    """A point-in-time event attached to the span active when it fired."""

    name: str
    t: float
    span_id: Optional[int]
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {
            "type": "event",
            "span": self.span_id,
            "name": self.name,
            "t": round(self.t, 6),
            "attrs": self.attrs,
        }


def header_line(unix_time: float) -> str:
    """The JSONL header record (shared by export and streaming)."""
    return json.dumps(
        {"type": "trace", "version": 1, "unix_time": unix_time}
    )


def record_line(record: Union[SpanRecord, EventRecord]) -> str:
    """One JSONL line for a span/event record.

    Both the post-hoc exporter (:meth:`Tracer.jsonl_lines`) and the live
    stream writer (:class:`repro.obs.stream.JsonlStreamWriter`) serialize
    through this function, which is what makes streamed output byte-identical
    to the after-the-fact export.
    """
    return json.dumps(json_sanitize(record.to_json()), default=str)


class _NullSpan:
    """Shared no-op span: context manager + attribute sink."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None

    def set_attrs(self, **attrs: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer — every call returns immediately.

    ``span()`` hands back one shared singleton context manager, so a
    disabled trace point costs one method call and nothing else (the
    ≤2 %-overhead budget of the convergence benchmark).
    """

    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        return None

    def add_attrs(self, **attrs: Any) -> None:
        return None

    def graft(
        self,
        spans: Sequence["SpanRecord"],
        events: Sequence["EventRecord"] = (),
        *,
        epoch_unix: float,
    ) -> None:
        return None

    def current(self) -> _NullSpan:
        return _NULL_SPAN

    def subscribe(self, subscriber: Any) -> Any:
        return subscriber

    def unsubscribe(self, subscriber: Any) -> None:
        return None


class _SpanContext:
    """Context manager tying a :class:`SpanRecord` to the tracer's stack."""

    __slots__ = ("_tracer", "record")

    def __init__(self, tracer: "Tracer", record: SpanRecord):
        self._tracer = tracer
        self.record = record

    def __enter__(self) -> SpanRecord:
        return self.record

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if exc_type is not None:
            self.record.attrs.setdefault("error", repr(exc))
        self._tracer._close(self.record)


class Tracer:
    """Records hierarchical spans and events against a perf-counter epoch."""

    enabled = True

    def __init__(self) -> None:
        self.epoch_unix = time.time()
        self._epoch = time.perf_counter()
        self._next_id = 1
        self._stack: List[SpanRecord] = []
        #: spans in completion order + events in firing order
        self.spans: List[SpanRecord] = []
        self.events: List[EventRecord] = []
        self._order: List[Union[SpanRecord, EventRecord]] = []
        self._subscribers: List[Any] = []

    # -- subscribers -------------------------------------------------------

    def subscribe(self, subscriber: Any) -> Any:
        """Attach a live subscriber (see :mod:`repro.obs.stream`).

        The subscriber's ``on_span_open`` / ``on_span_close`` / ``on_event``
        callbacks fire synchronously as the run executes; any of them may be
        absent.  A subscriber exception is logged and detaches nothing —
        observability must never sink the run it observes.  Returns the
        subscriber (for ``writer = tracer.subscribe(JsonlStreamWriter(p))``
        one-liners).
        """
        self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: Any) -> None:
        """Detach a subscriber; unknown subscribers are ignored."""
        try:
            self._subscribers.remove(subscriber)
        except ValueError:
            pass

    def _notify(self, callback: str, record: Any) -> None:
        for subscriber in self._subscribers:
            hook = getattr(subscriber, callback, None)
            if hook is None:
                continue
            try:
                hook(record)
            except Exception:  # pragma: no cover - defensive
                import logging

                logging.getLogger("repro.obs.trace").exception(
                    "trace subscriber %r failed in %s", subscriber, callback
                )

    # -- recording ---------------------------------------------------------

    def _now(self) -> float:
        return time.perf_counter() - self._epoch

    def span(self, name: str, **attrs: Any) -> _SpanContext:
        parent = self._stack[-1] if self._stack else None
        record = SpanRecord(
            span_id=self._next_id,
            parent_id=parent.span_id if parent else None,
            name=name,
            depth=len(self._stack),
            t_start=self._now(),
            attrs=dict(attrs),
        )
        self._next_id += 1
        self._stack.append(record)
        if self._subscribers:
            self._notify("on_span_open", record)
        return _SpanContext(self, record)

    def _close(self, record: SpanRecord) -> None:
        record.t_end = self._now()
        # Pop through abandoned children so an exception cannot corrupt
        # sibling nesting.
        while self._stack:
            top = self._stack.pop()
            if top is record:
                break
        self.spans.append(record)
        self._order.append(record)
        if self._subscribers:
            self._notify("on_span_close", record)

    def event(self, name: str, **attrs: Any) -> None:
        record = EventRecord(
            name=name,
            t=self._now(),
            span_id=self._stack[-1].span_id if self._stack else None,
            attrs=dict(attrs),
        )
        self.events.append(record)
        self._order.append(record)
        if self._subscribers:
            self._notify("on_event", record)

    def add_attrs(self, **attrs: Any) -> None:
        """Attach attributes to the innermost open span (no-op at root)."""
        if self._stack:
            self._stack[-1].attrs.update(attrs)

    def current(self) -> Union[SpanRecord, _NullSpan]:
        return self._stack[-1] if self._stack else _NULL_SPAN

    def graft(
        self,
        spans: Sequence[SpanRecord],
        events: Sequence[EventRecord] = (),
        *,
        epoch_unix: float,
    ) -> None:
        """Merge a subtrace recorded by *another* tracer (typically a worker
        process) under the innermost open span.

        Span ids are re-numbered into this tracer's id space; subtrace roots
        are re-parented onto the current span; depths are offset to nest
        correctly.

        Worker spans carry times relative to *their own* perf-counter epoch,
        so they are re-based onto the parent's axis by the wall-clock skew
        between the worker tracer's ``epoch_unix`` and this one's — fork/join
        skew is recovered exactly and concurrent workers land at their true
        positions.
        """
        spans = list(spans)
        events = list(events)
        if not spans and not events:
            return
        anchor = self._stack[-1] if self._stack else None
        anchor_id = anchor.span_id if anchor else None
        depth0 = len(self._stack)
        offset = self._next_id
        ids = {s.span_id for s in spans}
        shift = epoch_unix - self.epoch_unix
        for s in spans:
            record = SpanRecord(
                span_id=s.span_id + offset,
                parent_id=(
                    s.parent_id + offset if s.parent_id in ids else anchor_id
                ),
                name=s.name,
                depth=s.depth + depth0,
                t_start=s.t_start + shift,
                t_end=s.t_end + shift if s.t_end is not None else None,
                attrs=dict(s.attrs),
            )
            self.spans.append(record)
            self._order.append(record)
            if self._subscribers:
                self._notify("on_span_close", record)
        for e in events:
            record = EventRecord(
                name=e.name,
                t=e.t + shift,
                span_id=(
                    e.span_id + offset if e.span_id in ids else anchor_id
                ),
                attrs=dict(e.attrs),
            )
            self.events.append(record)
            self._order.append(record)
            if self._subscribers:
                self._notify("on_event", record)
        self._next_id = offset + (max(ids) + 1 if ids else 0)

    # -- export ------------------------------------------------------------

    def jsonl_lines(self) -> Iterator[str]:
        yield header_line(self.epoch_unix)
        for record in self._order:
            yield record_line(record)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for line in self.jsonl_lines():
                fh.write(line + "\n")

    def render_tree(self) -> str:
        return render_span_tree(self.spans)


# ---------------------------------------------------------------------------
# process-global active tracer
# ---------------------------------------------------------------------------

NULL_TRACER = NullTracer()
_active: Union[Tracer, NullTracer] = NULL_TRACER


def get_tracer() -> Union[Tracer, NullTracer]:
    """The currently active tracer (the shared null tracer when disabled)."""
    return _active


def install(tracer: Optional[Tracer]) -> Union[Tracer, NullTracer]:
    """Install ``tracer`` as the process-global tracer (``None`` disables).

    Returns the now-active tracer.
    """
    global _active
    _active = tracer if tracer is not None else NULL_TRACER
    return _active


@contextmanager
def tracing_scope(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Activate a tracer for the duration of a ``with`` block.

    The previous tracer (usually the null tracer) is restored on exit, so
    tests cannot leak tracing state into each other.
    """
    global _active
    previous = _active
    active = tracer or Tracer()
    _active = active
    try:
        yield active
    finally:
        _active = previous


def span(name: str, **attrs: Any):
    """Open a span on the active tracer (no-op when tracing is disabled)."""
    return _active.span(name, **attrs)


def event(name: str, **attrs: Any) -> None:
    """Record a point event on the active tracer."""
    _active.event(name, **attrs)


def add_attrs(**attrs: Any) -> None:
    """Attach attributes to the innermost open span of the active tracer."""
    _active.add_attrs(**attrs)


def enabled() -> bool:
    return _active.enabled


# ---------------------------------------------------------------------------
# JSONL loading + rendering (shared by the tracer and ``smart-advisor
# inspect``, which replays a file written by an earlier process)
# ---------------------------------------------------------------------------


def load_jsonl(path: str) -> "TraceDump":
    """Parse a trace JSONL file back into span/event records.

    The dump preserves the file's record interleaving (``records``), so a
    replayed trace re-exports byte-identically via
    :meth:`TraceDump.jsonl_lines`.
    """
    spans: List[SpanRecord] = []
    events: List[EventRecord] = []
    records: List[Union[SpanRecord, EventRecord]] = []
    unix_time: Optional[float] = None
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: not valid JSON ({exc})")
            kind = obj.get("type")
            if kind == "trace":
                unix_time = obj.get("unix_time")
            elif kind == "span":
                record = SpanRecord(
                    span_id=obj["id"],
                    parent_id=obj.get("parent"),
                    name=obj["name"],
                    depth=obj.get("depth", 0),
                    t_start=obj["t0"],
                    t_end=obj.get("t1"),
                    attrs=obj.get("attrs", {}),
                )
                spans.append(record)
                records.append(record)
            elif kind == "event":
                record = EventRecord(
                    name=obj["name"],
                    t=obj["t"],
                    span_id=obj.get("span"),
                    attrs=obj.get("attrs", {}),
                )
                events.append(record)
                records.append(record)
            else:
                raise ValueError(
                    f"{path}:{line_no}: unknown record type {kind!r}"
                )
    return TraceDump(
        spans=spans, events=events, unix_time=unix_time, records=records
    )


@dataclass
class TraceDump:
    """A trace loaded from JSONL (what ``smart-advisor inspect`` replays)."""

    spans: List[SpanRecord]
    events: List[EventRecord]
    unix_time: Optional[float] = None
    #: spans + events in original file order (completion/firing order);
    #: ``None`` for hand-built dumps, in which case re-export emits spans
    #: then events.
    records: Optional[List[Union[SpanRecord, EventRecord]]] = None

    def render_tree(self) -> str:
        return render_span_tree(self.spans)

    def jsonl_lines(self) -> Iterator[str]:
        """Re-export the dump in the exact format :class:`Tracer` writes."""
        yield header_line(
            self.unix_time if self.unix_time is not None else 0.0
        )
        ordered: Sequence[Union[SpanRecord, EventRecord]] = (
            self.records
            if self.records is not None
            else [*self.spans, *self.events]
        )
        for record in ordered:
            yield record_line(record)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for line in self.jsonl_lines():
                fh.write(line + "\n")


def _format_attrs(attrs: Dict[str, Any], limit: int = 5) -> str:
    parts = []
    for key, value in list(attrs.items())[:limit]:
        if isinstance(value, float):
            parts.append(f"{key}={value:.4g}")
        else:
            parts.append(f"{key}={value}")
    if len(attrs) > limit:
        parts.append("...")
    return " ".join(parts)


def render_span_tree(spans: Sequence[SpanRecord]) -> str:
    """Indented tree of spans in start order, with durations and attrs."""
    if not spans:
        return "(empty trace)"
    children: Dict[Optional[int], List[SpanRecord]] = {}
    by_id = {s.span_id: s for s in spans}
    for s in spans:
        parent = s.parent_id if s.parent_id in by_id else None
        children.setdefault(parent, []).append(s)
    for siblings in children.values():
        siblings.sort(key=lambda s: s.t_start)

    lines: List[str] = []

    def walk(span: SpanRecord, indent: int) -> None:
        attrs = _format_attrs(span.attrs)
        label = "  " * indent + span.name
        lines.append(
            f"{label:<44} {span.duration_s * 1e3:>10.2f} ms"
            + (f"  {attrs}" if attrs else "")
        )
        for child in children.get(span.span_id, []):
            walk(child, indent + 1)

    for root in children.get(None, []):
        walk(root, 0)
    return "\n".join(lines)
