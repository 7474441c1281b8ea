"""Replay a JSONL trace into a human-readable report.

Backs ``smart-advisor inspect TRACE``: loads a trace written by a previous
run's ``--trace FILE`` and renders, in the plain aligned-text style of
:mod:`repro.sim.report_fmt`:

* the span tree with wall-times and attributes;
* a Figure-4 convergence table per sizing run (one row per GP⇄STA
  refinement iteration, with GP status/objective and the realized
  residual);
* the self-time attribution of :func:`repro.obs.perf.render_attribution_report`
  (per-span-name rollup reconciled to the root wall, kernel hot-spots,
  critical path).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from .perf import render_attribution_report
from .trace import EventRecord, SpanRecord, TraceDump, load_jsonl


def _enclosing_sizing(
    event: EventRecord, by_id: Dict[int, SpanRecord]
) -> Optional[SpanRecord]:
    """The nearest ancestor span that is a sizing run (``size`` span)."""
    span = by_id.get(event.span_id) if event.span_id is not None else None
    while span is not None:
        if span.name == "size":
            return span
        span = by_id.get(span.parent_id) if span.parent_id else None
    return None


def render_convergence(dump: TraceDump) -> str:
    """Per-sizing-run iteration tables from ``iteration_record`` events."""
    by_id = {s.span_id: s for s in dump.spans}
    runs: Dict[Optional[int], List[EventRecord]] = {}
    for event in dump.events:
        if event.name != "iteration_record":
            continue
        owner = _enclosing_sizing(event, by_id)
        runs.setdefault(owner.span_id if owner else None, []).append(event)
    if not runs:
        return "convergence: (no iteration records in trace)"

    lines: List[str] = ["convergence:"]
    for owner_id, events in runs.items():
        owner = by_id.get(owner_id) if owner_id is not None else None
        circuit = owner.attrs.get("circuit", "?") if owner else "?"
        header = f"  sizing run: {circuit}"
        if owner is not None:
            header += f"  ({owner.duration_s * 1e3:.1f} ms)"
        lines.append(header)
        lines.append(
            f"  {'iter':>4} {'gp status':<20} {'objective':>12} "
            f"{'residual ps':>12}  worst constraint"
        )
        for event in sorted(events, key=lambda e: e.t):
            attrs = event.attrs
            objective = attrs.get("gp_objective")
            rendered_obj = (
                f"{objective:12.2f}"
                if isinstance(objective, (int, float))
                and objective == objective  # filter NaN
                else f"{'-':>12}"
            )
            residual = attrs.get("residual")
            rendered_res = (
                f"{residual:12.2f}"
                if isinstance(residual, (int, float))
                else f"{'-':>12}"
            )
            lines.append(
                f"  {attrs.get('iteration', '?'):>4} "
                f"{str(attrs.get('gp_status', '?')):<20} "
                f"{rendered_obj} {rendered_res}  "
                f"{attrs.get('worst_constraint', '')}"
            )
    return "\n".join(lines)


def render_trace_report(dump: TraceDump, path: str = "") -> str:
    """The full ``smart-advisor inspect`` report."""
    lines: List[str] = []
    title = f"trace report: {path}" if path else "trace report"
    if dump.unix_time:
        recorded = time.strftime(
            "%Y-%m-%d %H:%M:%S", time.localtime(dump.unix_time)
        )
        title += f"  (recorded {recorded})"
    lines.append(title)
    lines.append(
        f"{len(dump.spans)} spans, {len(dump.events)} events"
    )
    lines.append("")
    lines.append("span tree:")
    lines.append(dump.render_tree())
    lines.append("")
    lines.append(render_convergence(dump))
    lines.append("")
    lines.append(render_attribution_report(dump.spans))
    return "\n".join(lines)


def inspect_file(path: str) -> str:
    """Load ``path`` and render the full report (CLI entry)."""
    return render_trace_report(load_jsonl(path), path=path)
