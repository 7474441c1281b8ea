"""Process-pool execution of advisor candidate sizing.

One task per candidate topology; each worker owns a full
:class:`~repro.core.advisor.SmartAdvisor` (built once per worker by the pool
initializer) and runs the same gate pipeline the inline path runs.  The
parent reassembles everything deterministically:

* **ordering** — outcomes are collected in task submission order, so
  ``workers=4`` produces the same candidate list as ``workers=1``;
* **traces** — each worker records its spans/events into a private tracer
  whose records ship back over the pool and are grafted into the parent's
  trace (:meth:`repro.obs.trace.Tracer.graft`);
* **cache** — workers get the parent cache's snapshot as an in-memory
  cache, with an in-memory copy of its solution-certificate store when it
  has one; new entries, the certificates the sized results
  carry and hit/miss stats return with each outcome, and the parent (the
  single writer) merges and persists them.

``run_candidates`` returns ``None`` instead of raising when the pool cannot
be used at all — unpicklable inputs or a broken pool — and the caller falls
back to inline execution.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import pickle
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..cache.store import CacheStats, SizingCache
from ..core.constraints import DesignConstraints
from ..core.report import CandidateResult
from ..macros.base import MacroSpec
from ..obs import trace
from ..obs.log import get_logger
from ..obs.trace import EventRecord, SpanRecord

log = get_logger(__name__)

__all__ = [
    "CandidateOutcome",
    "CandidateTask",
    "absorb_outcomes",
    "run_candidates",
]


@dataclass(frozen=True)
class CandidateTask:
    """One unit of pool work: size one topology against one spec."""

    topology: str
    spec: MacroSpec
    constraints: DesignConstraints
    tolerance: float = 2.0


@dataclass
class CandidateOutcome:
    """What a worker ships back for one :class:`CandidateTask`."""

    topology: str
    candidate: Optional[CandidateResult] = None
    spans: List[SpanRecord] = field(default_factory=list)
    events: List[EventRecord] = field(default_factory=list)
    cache_entries: List[dict] = field(default_factory=list)
    cache_stats: Dict[str, float] = field(default_factory=dict)
    error: str = ""
    # Wall-clock anchor of the worker tracer's perf-counter origin; lets the
    # parent re-base grafted timestamps onto its own epoch (fork/join skew).
    epoch_unix: float = 0.0


# Worker-process state, populated once by the pool initializer.
_WORKER: Dict[str, Any] = {}


def _init_worker(
    database,
    tech,
    cache_seed: Optional[List[dict]],
    certify: bool = False,
    certificate_seed: Optional[List[dict]] = None,
) -> None:
    from ..core.advisor import SmartAdvisor
    from ..lint.solution.certificate import (
        SolutionCertificate, SolutionCertificateStore,
    )

    cache = None
    if cache_seed is not None:
        cache = SizingCache()
        cache.seed(cache_seed)
        if certificate_seed is not None:
            cache.certificates = SolutionCertificateStore()
            for payload in certificate_seed:
                cache.certificates.put(
                    SolutionCertificate.from_payload(payload)
                )
    _WORKER["advisor"] = SmartAdvisor(
        database=database, tech=tech, cache=cache, certify=certify
    )


def _run_task(task: CandidateTask) -> CandidateOutcome:
    advisor = _WORKER["advisor"]
    outcome = CandidateOutcome(topology=task.topology)
    try:
        with trace.tracing_scope() as tracer:
            if advisor.cache is not None:
                advisor.cache.stats = CacheStats()
            generator = advisor.database.generator(task.topology)
            outcome.candidate = advisor._try_topology(
                generator, task.spec, task.constraints, task.tolerance
            )
        outcome.spans = list(tracer.spans)
        outcome.events = list(tracer.events)
        outcome.epoch_unix = tracer.epoch_unix
        if advisor.cache is not None:
            outcome.cache_entries = advisor.cache.drain_new()
            outcome.cache_stats = advisor.cache.stats.as_dict()
    except Exception:
        outcome.error = traceback.format_exc()
    return outcome


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0]
    )


def run_candidates(
    tasks: Sequence[CandidateTask],
    *,
    workers: int,
    database,
    tech,
    cache: Optional[SizingCache] = None,
    certify: bool = False,
) -> Optional[List[CandidateOutcome]]:
    """Run tasks across a process pool; outcomes in task order.

    Returns ``None`` when pool execution is impossible (unpicklable inputs,
    pool bring-up failure) so the caller can fall back to inline sizing.
    A task whose *worker* fails mid-run still yields an outcome — with
    ``error`` set — so one bad topology cannot sink the batch.
    """
    try:
        pickle.dumps((database, tech, list(tasks)))
    except Exception as exc:
        log.warning("pool unavailable: inputs not picklable (%s)", exc)
        return None

    seed = cache.entries() if cache is not None else None
    certificates = getattr(cache, "certificates", None)
    certificate_seed = (
        certificates.entries() if certificates is not None else None
    )
    outcomes: List[CandidateOutcome] = []
    try:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=max(1, min(workers, len(tasks))),
            mp_context=_mp_context(),
            initializer=_init_worker,
            initargs=(database, tech, seed, certify, certificate_seed),
        ) as pool:
            futures = [pool.submit(_run_task, task) for task in tasks]
            for task, future in zip(tasks, futures):
                try:
                    outcomes.append(future.result())
                except Exception:
                    outcomes.append(
                        CandidateOutcome(
                            topology=task.topology,
                            error=traceback.format_exc(),
                        )
                    )
    except (OSError, concurrent.futures.process.BrokenProcessPool) as exc:
        log.warning("pool unavailable: %s", exc)
        return None
    return outcomes


def absorb_outcomes(
    outcomes: Sequence[CandidateOutcome],
    cache: Optional[SizingCache] = None,
) -> List[CandidateResult]:
    """Fold worker outcomes back into the parent process.

    Grafts each worker's trace under the parent's current span, merges new
    cache entries, the solution certificates the sized results carry (the
    parent is the single writer) and hit/miss stats, and returns the
    candidate list in task order.  A worker error becomes an
    infeasible :class:`CandidateResult` rather than an exception.
    """
    tracer = trace.get_tracer()
    candidates: List[CandidateResult] = []
    for outcome in outcomes:
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
            sizing = outcome.candidate and outcome.candidate.sizing
            if cache.certificates is not None and sizing and sizing.certificate:
                from ..lint.solution.certificate import SolutionCertificate

                cache.certificates.put(
                    SolutionCertificate.from_payload(sizing.certificate)
                )
        if outcome.candidate is not None:
            candidates.append(outcome.candidate)
        else:
            first_line = (
                outcome.error.strip().splitlines()[-1]
                if outcome.error
                else "no result returned"
            )
            log.warning(
                "worker failed on %s: %s", outcome.topology, first_line
            )
            candidates.append(
                CandidateResult(
                    topology=outcome.topology,
                    description="",
                    feasible=False,
                    reason=f"worker error: {first_line}",
                )
            )
    return candidates
