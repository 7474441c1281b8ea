"""Spec-grid sweeps: one advisor run per (macro, width, delay) point.

A sweep answers the designer's real question — "across my datapath's macro
instances, which topology wins where, and at what cost?" — by fanning a
grid of specs across the candidate-sizing process pool with a shared
sizing cache.  Within one sweep the same topology is sized at many delay
targets, so near-hit warm starts kick in even on a cold cache; a second
sweep against the same backing file is almost entirely exact hits.

Artifact format ``smart-sweep/1`` (see :meth:`SweepResult.to_json`).
"""

from __future__ import annotations

import concurrent.futures
import pickle
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..cache.store import CacheStats, SizingCache
from ..core.constraints import DesignConstraints
from ..macros.base import MacroSpec
from ..obs import metrics, perf, trace
from ..obs.log import get_logger
from ..obs.trace import EventRecord, SpanRecord
from .pool import _WORKER, _init_worker, _mp_context

log = get_logger(__name__)

__all__ = [
    "PointResult",
    "SweepPoint",
    "SweepResult",
    "build_grid",
    "run_sweep",
]

FORMAT = "smart-sweep/1"


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: a macro instance and its delay budget."""

    macro: str
    width: int
    delay: float


def build_grid(
    macros: Sequence[str],
    widths: Sequence[int],
    delays: Sequence[float],
) -> List[SweepPoint]:
    """The full cross product, in deterministic (macro, width, delay) order."""
    return [
        SweepPoint(macro=macro, width=int(width), delay=float(delay))
        for macro in macros
        for width in widths
        for delay in delays
    ]


@dataclass(frozen=True)
class _SweepTask:
    point: SweepPoint
    output_load: float
    input_slope: float
    cost: str
    tolerance: float


@dataclass
class PointResult:
    """One grid point's advisor outcome, flattened for the artifact."""

    macro: str
    width: int
    delay: float
    best_topology: Optional[str] = None
    best_scalar: Optional[float] = None
    best_area: Optional[float] = None
    best_clock_load: Optional[float] = None
    best_power: Optional[float] = None
    feasible: int = 0
    candidates: int = 0
    runtime_s: float = 0.0
    error: str = ""

    def to_json(self) -> Dict[str, object]:
        return {
            "macro": self.macro,
            "width": self.width,
            "delay_ps": self.delay,
            "best": self.best_topology,
            "scalar": self.best_scalar,
            "area": self.best_area,
            "clock_load": self.best_clock_load,
            "power": self.best_power,
            "feasible": self.feasible,
            "candidates": self.candidates,
            "runtime_s": round(self.runtime_s, 6),
            "error": self.error,
        }


@dataclass
class _PointOutcome:
    result: Optional[PointResult] = None
    spans: List[SpanRecord] = field(default_factory=list)
    events: List[EventRecord] = field(default_factory=list)
    cache_entries: List[dict] = field(default_factory=list)
    cache_stats: Dict[str, float] = field(default_factory=dict)
    error: str = ""
    # Wall-clock anchor of the worker tracer's perf-counter origin (see
    # CandidateOutcome.epoch_unix).
    epoch_unix: float = 0.0


@dataclass
class SweepResult:
    """Everything a sweep produced, plus the performance accounting."""

    points: List[PointResult]
    metric: str
    workers: int
    wall_s: float
    cache_stats: Dict[str, float] = field(default_factory=dict)

    @property
    def solve_s(self) -> float:
        """Sum of per-point advisor runtimes (the sequential-equivalent
        cost; ``wall_s`` beats this when the pool overlaps points)."""
        return sum(p.runtime_s for p in self.points)

    @property
    def complete(self) -> bool:
        """True when every point found a feasible best and none errored."""
        return all(p.best_topology and not p.error for p in self.points)

    def to_json(self) -> Dict[str, object]:
        return {
            "format": FORMAT,
            "created_unix": time.time(),
            "metric": self.metric,
            "workers": self.workers,
            "points": [p.to_json() for p in self.points],
            "wall_s": round(self.wall_s, 6),
            "solve_s": round(self.solve_s, 6),
            "cache": dict(self.cache_stats),
        }

    def render(self) -> str:
        lines = [
            f"sweep: {len(self.points)} points, metric={self.metric}, "
            f"workers={self.workers}",
            f"{'macro':<8} {'width':>5} {'delay':>8} {'best':<30} "
            f"{'scalar':>10} {'feas':>5} {'time s':>8}",
        ]
        for p in self.points:
            if p.best_topology:
                lines.append(
                    f"{p.macro:<8} {p.width:>5d} {p.delay:>8.1f} "
                    f"{p.best_topology:<30} {p.best_scalar:>10.1f} "
                    f"{p.feasible:>5d} {p.runtime_s:>8.3f}"
                )
            else:
                reason = p.error.strip().splitlines()[-1] if p.error else (
                    "no feasible topology"
                )
                lines.append(
                    f"{p.macro:<8} {p.width:>5d} {p.delay:>8.1f} "
                    f"{'-':<30} {'-':>10} {p.feasible:>5d} "
                    f"{p.runtime_s:>8.3f}  {reason}"
                )
        lines.append(
            f"wall {self.wall_s:.3f} s vs {self.solve_s:.3f} s of solve time"
        )
        if self.cache_stats:
            lines.append(
                "cache: "
                + ", ".join(
                    f"{k}={v}" for k, v in sorted(self.cache_stats.items())
                )
            )
        return "\n".join(lines)


def _summarize(task: _SweepTask, report, runtime_s: float) -> PointResult:
    point = task.point
    result = PointResult(
        macro=point.macro,
        width=point.width,
        delay=point.delay,
        feasible=len(report.feasible),
        candidates=len(report.candidates),
        runtime_s=runtime_s,
    )
    best = report.best
    if best is not None and best.cost is not None:
        result.best_topology = best.topology
        result.best_scalar = best.cost.scalar
        result.best_area = best.cost.area
        result.best_clock_load = best.cost.clock_load
        result.best_power = best.cost.power
    return result


def _advise_point(advisor, task: _SweepTask):
    spec = MacroSpec(
        task.point.macro, task.point.width, output_load=task.output_load
    )
    constraints = DesignConstraints(
        delay=task.point.delay,
        input_slope=task.input_slope,
        cost=task.cost,
    )
    return advisor.advise(
        spec, constraints, sizing_tolerance=task.tolerance, workers=1
    )


def _run_point(task: _SweepTask) -> _PointOutcome:
    advisor = _WORKER["advisor"]
    outcome = _PointOutcome()
    try:
        t0 = time.perf_counter()
        with trace.tracing_scope() as tracer:
            if advisor.cache is not None:
                advisor.cache.stats = CacheStats()
            report = _advise_point(advisor, task)
        outcome.result = _summarize(task, report, time.perf_counter() - t0)
        outcome.spans = list(tracer.spans)
        outcome.events = list(tracer.events)
        outcome.epoch_unix = tracer.epoch_unix
        if advisor.cache is not None:
            outcome.cache_entries = advisor.cache.drain_new()
            outcome.cache_stats = advisor.cache.stats.as_dict()
    except Exception:
        outcome.error = traceback.format_exc()
    return outcome


def run_sweep(
    points: Sequence[SweepPoint],
    *,
    workers: int = 1,
    cache: Optional[SizingCache] = None,
    database=None,
    tech=None,
    output_load: float = 20.0,
    input_slope: float = 30.0,
    cost: str = "area",
    tolerance: float = 2.0,
) -> SweepResult:
    """Advise every grid point; parallel across points when ``workers > 1``.

    Each point runs the full Figure-1 flow.  The cache is shared across the
    whole sweep: workers carry a read-only snapshot and the parent merges
    their new entries between collections, so later points hit earlier
    points' results even within a single cold run.
    """
    from ..core.advisor import SmartAdvisor
    from ..macros.registry import default_database
    from ..models.technology import Technology

    database = database or default_database()
    tech = tech or Technology()
    tasks = [
        _SweepTask(
            point=point,
            output_load=output_load,
            input_slope=input_slope,
            cost=cost,
            tolerance=tolerance,
        )
        for point in points
    ]

    t0 = time.perf_counter()
    with trace.span(
        "sweep", points=len(tasks), workers=max(1, workers)
    ) as sweep_span:
        outcomes = None
        if workers > 1 and len(tasks) > 1:
            outcomes = _run_pool(tasks, workers, database, tech, cache)
        if outcomes is None:
            advisor = SmartAdvisor(database=database, tech=tech, cache=cache)
            outcomes = []
            for task in tasks:
                outcome = _PointOutcome()
                try:
                    t_point = time.perf_counter()
                    report = _advise_point(advisor, task)
                    outcome.result = _summarize(
                        task, report, time.perf_counter() - t_point
                    )
                except Exception:
                    outcome.error = traceback.format_exc()
                outcomes.append(outcome)

        results: List[PointResult] = []
        tracer = trace.get_tracer()
        for task, outcome in zip(tasks, outcomes):
            if outcome.spans or outcome.events:
                tracer.graft(
                    outcome.spans,
                    outcome.events,
                    epoch_unix=outcome.epoch_unix,
                )
            if cache is not None:
                if outcome.cache_entries:
                    cache.merge_entries(outcome.cache_entries)
                if outcome.cache_stats:
                    cache.stats.absorb(outcome.cache_stats)
            if outcome.result is not None:
                results.append(outcome.result)
            else:
                point = task.point
                first_line = (
                    outcome.error.strip().splitlines()[-1]
                    if outcome.error
                    else "no result returned"
                )
                log.warning(
                    "sweep point %s[%d]@%.0fps failed: %s",
                    point.macro, point.width, point.delay, first_line,
                )
                results.append(
                    PointResult(
                        macro=point.macro,
                        width=point.width,
                        delay=point.delay,
                        error=first_line,
                    )
                )
        wall_s = time.perf_counter() - t0
        sweep_span.set_attrs(
            wall_s=round(wall_s, 4),
            solved=sum(1 for r in results if r.best_topology),
        )

    stats = cache.stats.as_dict() if cache is not None else {}
    metrics.counter("sweep.points").inc(len(results))
    metrics.counter("sweep.points_solved").inc(
        sum(1 for r in results if r.best_topology)
    )
    metrics.histogram("sweep.wall_s").observe(wall_s)
    if cache is not None:
        metrics.counter("sweep.cache_exact_hits").inc(cache.stats.exact_hits)
        metrics.counter("sweep.cache_warm_hits").inc(cache.stats.warm_hits)
        metrics.counter("sweep.cache_misses").inc(cache.stats.misses)
        metrics.histogram("sweep.cache_wall_saved_s").observe(
            cache.stats.wall_saved_s
        )
    result = SweepResult(
        points=results,
        metric=cost,
        workers=max(1, workers),
        wall_s=wall_s,
        cache_stats=stats,
    )
    if perf.get_ledger() is not None:
        tracer = trace.get_tracer()
        subtree = (
            perf.collect_subtree(tracer.spans, sweep_span.span_id)
            if isinstance(tracer, trace.Tracer)
            else []
        )
        inner = [s for s in subtree if s.span_id != sweep_span.span_id]
        perf.record_run(
            "sweep",
            f"{len(results)}pts-{cost}",
            wall_s=wall_s,
            spans=subtree,
            spec_fp=perf.payload_digest(
                [[p.macro, p.width, p.delay] for p in points]
            ),
            cache=stats or None,
            parallel=perf.parallel_rollup(inner, max(1, workers), wall_s),
            extra={
                "points": len(results),
                "solved": sum(1 for r in results if r.best_topology),
            },
        )
    log.info(
        "sweep done: %d/%d points solved in %.2f s wall (%.2f s solve)",
        sum(1 for r in results if r.best_topology), len(results),
        wall_s, result.solve_s,
    )
    return result


def _run_pool(
    tasks: Sequence[_SweepTask],
    workers: int,
    database,
    tech,
    cache: Optional[SizingCache],
) -> Optional[List[_PointOutcome]]:
    try:
        pickle.dumps((database, tech, list(tasks)))
    except Exception as exc:
        log.warning("sweep pool unavailable: not picklable (%s)", exc)
        return None
    seed = cache.entries() if cache is not None else None
    outcomes: List[_PointOutcome] = []
    try:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=max(1, min(workers, len(tasks))),
            mp_context=_mp_context(),
            initializer=_init_worker,
            initargs=(database, tech, seed),
        ) as pool:
            futures = [pool.submit(_run_point, task) for task in tasks]
            for future in futures:
                try:
                    outcomes.append(future.result())
                except Exception:
                    outcomes.append(
                        _PointOutcome(error=traceback.format_exc())
                    )
    except (OSError, concurrent.futures.process.BrokenProcessPool) as exc:
        log.warning("sweep pool unavailable: %s", exc)
        return None
    return outcomes
