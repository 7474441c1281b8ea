"""The performance observatory: run ledger, attribution, flame graphs.

Whole-benchmark numbers ("per-bit sizing takes 2.6 s") say *that* a kernel
is hot, not *why*.  This module answers "where did the time go" for one run
with three layers, backing ``repro perf report``/``export`` and
``repro inspect`` (speed claims across changes are made by the repeated-round
medians of ``benchmarks/perf/run.py compare``, not here):

1. **Run ledger** (:class:`RunLedger`, :func:`record_run`) — every advisor /
   sizer / sweep / lint invocation appends one machine-readable record to an
   append-only JSONL store, keyed the same way as :mod:`repro.cache`
   (``circuit_fp`` / ``context_fp`` / ``spec_fp``): per-phase wall/self
   times derived from the span tree, GP iteration counts and residuals,
   cache hit/near-hit/miss stats, parallel worker utilization.

2. **Attribution** (:func:`attribution`, :func:`kernel_hotspots`,
   :func:`critical_path`) — span-tree analysis at function granularity:
   self-time rollups (a span's wall minus its children's), per-kernel
   hot-spot tables (what dominates *inside* each sizing run), and the
   critical path through the trace.  Self-times are an exact partition of
   the tree: for a sequential trace they sum to the root wall-time, which is
   the reconciliation invariant ``repro perf report`` prints and tests
   assert to within 1 %.

3. **Flame-graph exports** (:func:`to_chrome_trace`, :func:`to_speedscope`)
   — the same span tree as Chrome ``trace_event`` JSON (load in
   ``chrome://tracing`` / Perfetto) and as a speedscope evented profile
   (https://speedscope.app).

The ledger is process-global and opt-in, mirroring the tracer:
:func:`install_ledger` / :func:`ledger_scope` activate it; instrumented
entry points call :func:`record_run`, which is a no-op when no ledger is
active (so un-observed runs pay one ``is None`` check).
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .jsonl import append_record, read_records
from .trace import SpanRecord, json_sanitize

LEDGER_FORMAT = "smart-perf-ledger/1"

#: Minimal shape a ledger line must have to be accepted on load.
_REQUIRED_FIELDS = ("format", "kind", "name", "wall_s")


def payload_digest(payload: Any) -> str:
    """Canonical sha256 of a JSON-serializable payload (sanitized first)."""
    blob = json.dumps(
        json_sanitize(payload),
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Attribution: self-time rollups, kernels, critical path
# ---------------------------------------------------------------------------


def _closed(spans: Sequence[SpanRecord]) -> List[SpanRecord]:
    return [s for s in spans if s.t_end is not None]


def self_times(spans: Sequence[SpanRecord]) -> Dict[int, float]:
    """Per-span self time: duration minus the duration of direct children.

    The values partition the tree — for a sequential trace they sum exactly
    to the total root wall-time.  Spans grafted from *concurrent* workers
    can overlap their anchor, driving the anchor's self time negative; it is
    floored at zero (and utilization > 1 shows up in the parallel block of
    the run record instead).
    """
    closed = _closed(spans)
    child_sum: Dict[Optional[int], float] = {}
    for s in closed:
        child_sum[s.parent_id] = child_sum.get(s.parent_id, 0.0) + s.duration_s
    return {
        s.span_id: max(0.0, s.duration_s - child_sum.get(s.span_id, 0.0))
        for s in closed
    }


def root_wall(spans: Sequence[SpanRecord]) -> float:
    """Total wall-time of the trace's root spans (parent outside the set)."""
    closed = _closed(spans)
    ids = {s.span_id for s in closed}
    return sum(s.duration_s for s in closed if s.parent_id not in ids)


@dataclass
class AttributionRow:
    """One span name's aggregate in the self-time rollup."""

    name: str
    calls: int
    total_s: float      # inclusive wall (children included)
    self_s: float       # exclusive wall (children excluded)
    share: float        # self_s / root wall

    def to_json(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "calls": self.calls,
            "total_s": round(self.total_s, 6),
            "self_s": round(self.self_s, 6),
            "share": round(self.share, 6),
        }


def attribution(spans: Sequence[SpanRecord]) -> List[AttributionRow]:
    """Self-time rollup by span name, heaviest self-time first."""
    closed = _closed(spans)
    selfs = self_times(closed)
    wall = root_wall(closed)
    totals: Dict[str, List[float]] = {}
    for s in closed:
        bucket = totals.setdefault(s.name, [0.0, 0.0, 0.0])
        bucket[0] += 1
        bucket[1] += s.duration_s
        bucket[2] += selfs[s.span_id]
    rows = [
        AttributionRow(
            name=name,
            calls=int(calls),
            total_s=total,
            self_s=self_s,
            share=(self_s / wall) if wall else 0.0,
        )
        for name, (calls, total, self_s) in totals.items()
    ]
    rows.sort(key=lambda r: (-r.self_s, r.name))
    return rows


def reconcile(spans: Sequence[SpanRecord]) -> Tuple[float, float]:
    """``(root_wall, sum_of_self_times)`` — equal for a sequential trace.

    ``repro perf report`` prints the pair; tests assert agreement to within
    1 %.  Disagreement beyond that means either clock skew in a graft or
    genuinely concurrent subtrees (utilization > 1).
    """
    closed = _closed(spans)
    return root_wall(closed), sum(self_times(closed).values())


def collect_subtree(
    spans: Sequence[SpanRecord], root_id: int, include_root: bool = True
) -> List[SpanRecord]:
    """All spans at/under ``root_id``, in the order they appear in ``spans``."""
    children: Dict[Optional[int], List[SpanRecord]] = {}
    for s in spans:
        children.setdefault(s.parent_id, []).append(s)
    keep: set = set()
    stack = [root_id]
    while stack:
        node = stack.pop()
        keep.add(node)
        stack.extend(c.span_id for c in children.get(node, ()))
    return [
        s
        for s in spans
        if s.span_id in keep and (include_root or s.span_id != root_id)
    ]


#: The span names that mark a sizing kernel's root in the trace.
KERNEL_SPAN_NAMES = ("size",)


@dataclass
class KernelRow:
    """One sizing kernel's aggregate across a trace."""

    kernel: str                      # circuit name (the kernel identity)
    calls: int
    wall_s: float
    hotspots: List[AttributionRow] = field(default_factory=list)

    def to_json(self) -> Dict[str, Any]:
        return {
            "kernel": self.kernel,
            "calls": self.calls,
            "wall_s": round(self.wall_s, 6),
            "hotspots": [r.to_json() for r in self.hotspots],
        }


def kernel_hotspots(
    spans: Sequence[SpanRecord], top: int = 8
) -> List[KernelRow]:
    """Per-kernel hot-spot tables: what dominates *inside* each sizing run.

    A kernel is one circuit's ``size`` span; multiple sizings of the same
    circuit aggregate.  Each row carries the kernel's inner self-time
    rollup, answering "what dominates per-bit sizing" at function (span
    name) granularity.
    """
    closed = _closed(spans)
    by_kernel: Dict[str, List[SpanRecord]] = {}
    calls: Dict[str, int] = {}
    wall: Dict[str, float] = {}
    for s in closed:
        if s.name not in KERNEL_SPAN_NAMES:
            continue
        kernel = str(s.attrs.get("circuit", s.name))
        calls[kernel] = calls.get(kernel, 0) + 1
        wall[kernel] = wall.get(kernel, 0.0) + s.duration_s
        by_kernel.setdefault(kernel, []).extend(
            collect_subtree(closed, s.span_id)
        )
    rows = [
        KernelRow(
            kernel=kernel,
            calls=calls[kernel],
            wall_s=wall[kernel],
            hotspots=attribution(subtree)[:top],
        )
        for kernel, subtree in by_kernel.items()
    ]
    rows.sort(key=lambda r: -r.wall_s)
    return rows


def critical_path(spans: Sequence[SpanRecord]) -> List[SpanRecord]:
    """The heaviest chain root -> leaf: at each level, the child with the
    largest inclusive duration.  "Where does the time actually go" in one
    list instead of a tree."""
    closed = _closed(spans)
    if not closed:
        return []
    ids = {s.span_id for s in closed}
    children: Dict[Optional[int], List[SpanRecord]] = {}
    for s in closed:
        parent = s.parent_id if s.parent_id in ids else None
        children.setdefault(parent, []).append(s)
    path: List[SpanRecord] = []
    node = max(children.get(None, []), key=lambda s: s.duration_s, default=None)
    while node is not None:
        path.append(node)
        node = max(
            children.get(node.span_id, []),
            key=lambda s: s.duration_s,
            default=None,
        )
    return path


def render_attribution_report(spans: Sequence[SpanRecord]) -> str:
    """The ``repro perf report`` body for a trace: rollup, kernels, path."""
    closed = _closed(spans)
    if not closed:
        return "perf report: (no completed spans)"
    lines: List[str] = []
    wall, self_sum = reconcile(closed)
    rows = attribution(closed)

    lines.append("self-time attribution (exclusive of children):")
    lines.append(
        f"{'span':<28} {'calls':>6} {'total ms':>10} {'self ms':>10} "
        f"{'share':>7}"
    )
    for row in rows:
        lines.append(
            f"{row.name:<28} {row.calls:>6d} {row.total_s * 1e3:>10.2f} "
            f"{row.self_s * 1e3:>10.2f} {row.share:>6.1%}"
        )
    reconciled = (self_sum / wall) if wall else 1.0
    lines.append(
        f"self-time total {self_sum * 1e3:.2f} ms vs root wall "
        f"{wall * 1e3:.2f} ms ({reconciled:.1%} reconciled)"
    )

    kernels = kernel_hotspots(closed)
    if kernels:
        lines.append("")
        lines.append("kernel hot-spots (per sized circuit):")
        for row in kernels:
            lines.append(
                f"  {row.kernel}  x{row.calls}  {row.wall_s * 1e3:.2f} ms"
            )
            for hot in row.hotspots[:5]:
                lines.append(
                    f"    {hot.name:<26} {hot.self_s * 1e3:>10.2f} ms "
                    f"{hot.share:>6.1%}"
                )

    path = critical_path(closed)
    if path:
        lines.append("")
        lines.append("critical path (heaviest chain):")
        for depth, s in enumerate(path):
            lines.append(
                f"  {'  ' * depth}{s.name:<30} {s.duration_s * 1e3:>10.2f} ms"
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Flame-graph exports
# ---------------------------------------------------------------------------


def to_chrome_trace(
    spans: Sequence[SpanRecord],
    events: Sequence[Any] = (),
    unix_time: Optional[float] = None,
) -> Dict[str, Any]:
    """Chrome ``trace_event`` JSON (``chrome://tracing`` / Perfetto).

    Spans become complete (``ph: "X"``) events with microsecond timestamps;
    point events become instant (``ph: "i"``) events.
    """
    trace_events: List[Dict[str, Any]] = []
    for s in _closed(spans):
        trace_events.append(
            {
                "ph": "X",
                "name": s.name,
                "cat": "span",
                "ts": round(s.t_start * 1e6, 3),
                "dur": round(s.duration_s * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": json_sanitize(s.attrs),
            }
        )
    for e in events:
        trace_events.append(
            {
                "ph": "i",
                "name": e.name,
                "cat": "event",
                "ts": round(e.t * 1e6, 3),
                "s": "t",
                "pid": 1,
                "tid": 1,
                "args": json_sanitize(e.attrs),
            }
        )
    trace_events.sort(key=lambda ev: (ev["ts"], -ev.get("dur", 0.0)))
    payload: Dict[str, Any] = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
    }
    if unix_time is not None:
        payload["otherData"] = {"unix_time": unix_time}
    return payload


def to_speedscope(
    spans: Sequence[SpanRecord], name: str = "repro trace"
) -> Dict[str, Any]:
    """Speedscope "evented" profile of the span tree (speedscope.app).

    Open/close events must nest exactly, so children are clamped into their
    parent's interval (grafted worker spans can overhang by clock skew).
    """
    closed = _closed(spans)
    frames: List[Dict[str, str]] = []
    frame_index: Dict[str, int] = {}

    def frame(frame_name: str) -> int:
        if frame_name not in frame_index:
            frame_index[frame_name] = len(frames)
            frames.append({"name": frame_name})
        return frame_index[frame_name]

    ids = {s.span_id for s in closed}
    children: Dict[Optional[int], List[SpanRecord]] = {}
    for s in closed:
        parent = s.parent_id if s.parent_id in ids else None
        children.setdefault(parent, []).append(s)
    for siblings in children.values():
        siblings.sort(key=lambda s: s.t_start)

    profile_events: List[Dict[str, Any]] = []
    end_value = 0.0

    def walk(span: SpanRecord, lo: float, hi: float) -> None:
        nonlocal end_value
        t0 = min(max(span.t_start, lo), hi)
        t1 = min(max(span.t_end or t0, t0), hi)
        profile_events.append(
            {"type": "O", "frame": frame(span.name), "at": t0}
        )
        cursor = t0
        for child in children.get(span.span_id, []):
            walk(child, cursor, t1)
            cursor = max(cursor, min(max(child.t_end or cursor, cursor), t1))
        profile_events.append(
            {"type": "C", "frame": frame_index[span.name], "at": t1}
        )
        end_value = max(end_value, t1)

    for root in children.get(None, []):
        walk(root, root.t_start, root.t_end or root.t_start)

    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "evented",
                "name": name,
                "unit": "seconds",
                "startValue": 0.0,
                "endValue": end_value,
                "events": profile_events,
            }
        ],
        "name": name,
        "exporter": "repro.obs.perf",
    }


# ---------------------------------------------------------------------------
# Run ledger
# ---------------------------------------------------------------------------


class RunLedger:
    """Append-only JSONL store of run records.

    Read by :func:`repro.obs.jsonl.read_records` (corrupt/foreign lines
    are skipped and counted) and appended by
    :func:`repro.obs.jsonl.append_record`, like every store in
    :mod:`repro.cache`.  ``path=None`` keeps records in memory only (tests,
    ephemeral gating).
    """

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self.records, self.skipped_lines = read_records(path, _is_record)

    def append(self, record: dict) -> None:
        if not _is_record(record):
            raise ValueError(
                f"ledger record missing required fields {_REQUIRED_FIELDS}"
            )
        self.records.append(record)
        if self.path:
            append_record(self.path, json_sanitize(record))

    def __len__(self) -> int:
        return len(self.records)


def _is_record(record: Mapping[str, Any]) -> bool:
    return all(f in record for f in _REQUIRED_FIELDS)


_active_ledger: Optional[RunLedger] = None


def get_ledger() -> Optional[RunLedger]:
    """The process-global run ledger, or ``None`` when observation is off."""
    return _active_ledger


def install_ledger(ledger: Optional[RunLedger]) -> Optional[RunLedger]:
    """Install ``ledger`` as the process-global ledger (``None`` disables)."""
    global _active_ledger
    _active_ledger = ledger
    return _active_ledger


class ledger_scope:
    """Activate a ledger for a ``with`` block (tests, CLI commands)."""

    def __init__(self, ledger: Optional[Union[RunLedger, str]] = None):
        if isinstance(ledger, str):
            ledger = RunLedger(ledger)
        # NOT ``ledger or RunLedger()`` — an empty ledger is falsy via
        # ``__len__`` and must still be honored.
        self.ledger = ledger if ledger is not None else RunLedger()
        self._previous: Optional[RunLedger] = None

    def __enter__(self) -> RunLedger:
        self._previous = get_ledger()
        install_ledger(self.ledger)
        return self.ledger

    def __exit__(self, *exc: Any) -> None:
        install_ledger(self._previous)


def phase_rollup(
    spans: Sequence[SpanRecord], wall_s: Optional[float] = None
) -> Dict[str, Dict[str, float]]:
    """Per-phase (span-name) wall/self aggregates for a run record."""
    rollup: Dict[str, Dict[str, float]] = {}
    for row in attribution(spans):
        rollup[row.name] = {
            "calls": row.calls,
            "wall_s": round(row.total_s, 6),
            "self_s": round(row.self_s, 6),
        }
    if wall_s is not None and spans:
        top_level = root_wall(spans)
        leftover = max(0.0, wall_s - top_level)
        if leftover > 0:
            rollup["(untraced)"] = {
                "calls": 1,
                "wall_s": round(leftover, 6),
                "self_s": round(leftover, 6),
            }
    return rollup


def gp_rollup(spans: Sequence[SpanRecord]) -> Dict[str, Any]:
    """GP work derived from the span tree: solves, iterations, residuals."""
    solves = 0
    iterations = 0
    fallbacks = 0
    residual: Optional[float] = None
    for s in _closed(spans):
        if s.name == "gp_solve":
            solves += 1
        elif s.name == "iteration":
            iterations += 1
            if s.attrs.get("gp_status") == "infeasible-retarget":
                fallbacks += 1
            value = s.attrs.get("residual")
            if isinstance(value, (int, float)) and math.isfinite(value):
                residual = float(value)
    return {
        "solves": solves,
        "iterations": iterations,
        "fallbacks": fallbacks,
        "final_residual_ps": residual,
    }


def parallel_rollup(
    spans: Sequence[SpanRecord], workers: int, wall_s: float
) -> Dict[str, Any]:
    """Worker utilization: grafted worker busy-time over the worker-slots
    budget.  ``busy_s`` sums the *root* spans of grafted subtrees (the
    per-task worker wall), so utilization is busy / (workers x wall)."""
    busy = root_wall(spans)
    budget = max(1, workers) * wall_s
    return {
        "workers": max(1, workers),
        "busy_s": round(busy, 6),
        "utilization": round(busy / budget, 6) if budget > 0 else 0.0,
    }


def build_run_record(
    kind: str,
    name: str,
    *,
    wall_s: float,
    spans: Sequence[SpanRecord] = (),
    circuit_fp: Optional[str] = None,
    context_fp: Optional[str] = None,
    spec_fp: Optional[str] = None,
    gp: Optional[Mapping[str, Any]] = None,
    cache: Optional[Mapping[str, Any]] = None,
    parallel: Optional[Mapping[str, Any]] = None,
    extra: Optional[Mapping[str, Any]] = None,
) -> dict:
    """One ledger record.  ``spans`` (this run's subtree) drives the phase
    and GP rollups; fingerprints key the record like a cache entry."""
    spans = _closed(spans)
    record: Dict[str, Any] = {
        "format": LEDGER_FORMAT,
        "kind": kind,
        "name": name,
        "unix_time": time.time(),
        "wall_s": round(float(wall_s), 6),
        "circuit_fp": circuit_fp,
        "context_fp": context_fp,
        "spec_fp": spec_fp,
        "phases": phase_rollup(spans, wall_s=wall_s),
        "gp": dict(gp) if gp is not None else gp_rollup(spans),
    }
    if cache is not None:
        record["cache"] = json_sanitize(dict(cache))
    if parallel is not None:
        record["parallel"] = json_sanitize(dict(parallel))
    if extra:
        for key, value in extra.items():
            record.setdefault(key, json_sanitize(value))
    return json_sanitize(record)


def record_run(kind: str, name: str, **kwargs: Any) -> Optional[dict]:
    """Build a run record and append it to the active ledger.

    No-op (returns ``None``) when no ledger is installed — the instrumented
    entry points call this unconditionally and un-observed runs pay one
    ``is None`` check.
    """
    ledger = get_ledger()
    if ledger is None:
        return None
    record = build_run_record(kind, name, **kwargs)
    ledger.append(record)
    return record


def rule_rollup(
    records: Sequence[Mapping[str, Any]], top: int = 10
) -> List[Dict[str, Any]]:
    """Aggregate ``kind="rule"`` ledger records into a slowest-rules table.

    One row per rule ID: total/max wall over fresh executions, plus how
    often the incremental engine replayed it instead.  Sorted by total
    wall descending — the "which rule is eating lint time" answer.
    """
    totals: Dict[str, Dict[str, Any]] = {}
    for record in records:
        if record.get("kind") != "rule":
            continue
        rule_id = str(record.get("name", "?"))
        row = totals.setdefault(
            rule_id,
            {"rule": rule_id, "wall_s": 0.0, "max_s": 0.0,
             "executed": 0, "replayed": 0},
        )
        wall = float(record.get("wall_s", 0.0))
        status = record.get("status", "executed")
        if status == "replayed":
            row["replayed"] += 1
        else:
            row["executed"] += 1
            row["wall_s"] += wall
            row["max_s"] = max(row["max_s"], wall)
    ranked = sorted(
        totals.values(), key=lambda r: (-r["wall_s"], r["rule"])
    )
    return ranked[:top]


def render_ledger_summary(records: Sequence[Mapping[str, Any]]) -> str:
    """The ``repro perf report`` body for a ledger file."""
    if not records:
        return "ledger: (no run records)"
    rule_records = [r for r in records if r.get("kind") == "rule"]
    elec_records = [r for r in records if r.get("kind") == "electrical"]
    main_records = [
        r for r in records if r.get("kind") not in ("rule", "electrical")
    ]
    lines = [
        f"run ledger: {len(records)} records"
        + (f" ({len(rule_records)} per-rule)" if rule_records else ""),
        f"{'kind':<8} {'name':<34} {'wall s':>9} {'gp it':>6} "
        f"{'residual':>9} {'cache':<12}",
    ]
    for record in main_records:
        gp = record.get("gp") or {}
        residual = gp.get("final_residual_ps")
        rendered_residual = (
            f"{residual:9.2f}"
            if isinstance(residual, (int, float))
            else f"{'-':>9}"
        )
        cache = record.get("cache") or {}
        hit = cache.get("hit") or cache.get("hit_rate")
        cache_txt = f"{hit}" if hit not in (None, "") else "-"
        lines.append(
            f"{str(record.get('kind', '?')):<8} "
            f"{str(record.get('name', '?')):<34} "
            f"{float(record.get('wall_s', 0.0)):>9.3f} "
            f"{int(gp.get('iterations', 0) or 0):>6d} "
            f"{rendered_residual} {cache_txt:<12}"
        )
    if rule_records:
        lines.append("")
        lines.append("slowest lint rules (fresh executions):")
        lines.append(
            f"{'rule':<8} {'total s':>9} {'max s':>9} "
            f"{'runs':>6} {'replayed':>9}"
        )
        for row in rule_rollup(rule_records):
            lines.append(
                f"{row['rule']:<8} {row['wall_s']:>9.4f} "
                f"{row['max_s']:>9.4f} {row['executed']:>6d} "
                f"{row['replayed']:>9d}"
            )
    if elec_records:
        lines.append("")
        lines.append("electrical noise margins (NSA6xx, post-sizing):")
        lines.append(f"{'circuit':<34} {'margin':>9} {'wall s':>9}")
        for record in elec_records:
            margin = record.get("noise_margin")
            rendered = (
                f"{margin:+9.1%}"
                if isinstance(margin, (int, float))
                else f"{'-':>9}"
            )
            lines.append(
                f"{str(record.get('name', '?')):<34} {rendered} "
                f"{float(record.get('wall_s', 0.0)):>9.3f}"
            )
    total = sum(float(r.get("wall_s", 0.0)) for r in main_records)
    lines.append(f"total recorded wall {total:.3f} s")
    return "\n".join(lines)
