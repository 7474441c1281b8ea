"""Per-layer self time and work counts, measured from outside the program.

:func:`install` wraps each layer's public entry points (class methods and
module functions of ``repro``) with a timing wrapper that lives in this
file, so the traced run needs no edits under ``src/``.  A wrapper's *self*
time is its wall time minus the wall time of wrapped calls nested inside
it; the time of the job that no wrapper covers is ``unattributed``.

Counts are read from the wrapped call's return value (a
``PruneResult``'s stats, a ``ConstraintSet``'s length, a ``GPSolution``'s
iterations and status, a ``LintReport``'s executed rules), never
estimated.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class LayerTracer:
    """Self/inclusive time and counters per layer for one traced run."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Inclusive time of the outermost call per layer (re-entrant
        #: calls of the same layer are not counted twice).
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        #: Wall time spent inside wrapped calls that had no wrapped caller.
        self.covered_s = 0.0
        self._stack: List[List[float]] = []
        self._depth: Dict[str, int] = defaultdict(int)
        self.wrapped_calls = 0

    def wrap(self, layer: str, fn: Callable, count: Optional[Callable] = None):
        """Return ``fn`` wrapped so its time is charged to ``layer``.

        ``count(counts, result)`` adds work counts read from the call's
        return value; it is skipped when ``fn`` raises.
        """
        # Report every wrapped layer, including those a workload never calls.
        self.self_s[layer] += 0.0
        self.incl_s[layer] += 0.0
        self.calls[layer] += 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack = self._stack
            stack.append(frame)
            self._depth[layer] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._account(layer, frame, t0)
                self.counts[layer + ".raised"] += 1
                raise
            self._account(layer, frame, t0)
            if count is not None:
                count(self.counts, result)
            return result

        return wrapper

    def _account(self, layer: str, frame: List[float], t0: float) -> None:
        elapsed = time.perf_counter() - t0
        self._stack.pop()
        self._depth[layer] -= 1
        self.self_s[layer] += elapsed - frame[0]
        self.calls[layer] += 1
        self.wrapped_calls += 1
        if self._depth[layer] == 0:
            self.incl_s[layer] += elapsed
        if self._stack:
            self._stack[-1][0] += elapsed
        else:
            self.covered_s += elapsed


def _patch_method(tracer: LayerTracer, cls, name: str, layer: str, count=None):
    original = cls.__dict__[name]
    setattr(cls, name, tracer.wrap(layer, original, count))


def _patch_function(tracer: LayerTracer, module, name: str, layer: str, count=None):
    """Wrap ``module.name`` and every other loaded ``repro`` module's
    binding of the same function object (``from x import f`` copies)."""
    original = getattr(module, name)
    wrapped = tracer.wrap(layer, original, count)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] != "repro" or mod is None:
            continue
        if getattr(mod, name, None) is original:
            setattr(mod, name, wrapped)


def _add(counts, key, value):
    counts[key] += value


def install(tracer: LayerTracer) -> None:
    """Wrap every layer's public entry points (see README.md's table)."""
    from repro.cache.store import SizingCache
    from repro.core.advisor import SmartAdvisor
    from repro.lint import electrical, rules_gp, runner
    from repro.lint.dataflow import interval
    from repro.lint.solution.audit import SolutionAudit
    from repro.lint.solution.certificate import SolutionCertificateStore
    from repro.macros.base import MacroGenerator
    from repro.sim.timing import StaticTimingAnalyzer
    from repro.sizing import collapse, constraints, engine, gp, paths, pruning

    _patch_method(tracer, MacroGenerator, "generate", "macros")

    _patch_method(
        tracer, paths.PathExtractor, "count", "sizing.paths",
        lambda c, r: _add(c, "sizing.paths.raw_paths", r),
    )
    _patch_method(tracer, paths.PathExtractor, "extract", "sizing.paths")
    _patch_method(
        tracer, paths.PathExtractor, "extract_representative", "sizing.paths"
    )
    _patch_function(
        tracer, pruning, "prune_paths", "sizing.pruning",
        lambda c, r: _add(c, "sizing.pruning.kept_paths", r.stats.final),
    )
    _patch_method(
        tracer, constraints.ConstraintGenerator, "generate",
        "sizing.constraints",
        lambda c, r: _add(
            c, "sizing.constraints.timing_constraints", len(r.timing)
        ),
    )

    def gp_counts(c, solution):
        c["sizing.gp.variables"] += len(solution.env)
        c["sizing.gp.solver_iterations"] += solution.iterations
        c["sizing.gp.nonoptimal"] += solution.status != "optimal"

    _patch_method(tracer, gp.GeometricProgram, "solve", "sizing.gp", gp_counts)

    def engine_counts(c, result):
        c["sizing.engine.outer_iterations"] += result.iterations
        c["sizing.engine.gp_fallbacks"] += result.gp_fallback_count

    _patch_method(tracer, engine.SmartSizer, "size", "sizing.engine", engine_counts)
    _patch_method(
        tracer, collapse.RegularityCollapsedSizer, "size", "sizing.collapse"
    )

    _patch_method(tracer, StaticTimingAnalyzer, "analyze", "sim.timing.analyze")
    _patch_method(
        tracer, StaticTimingAnalyzer, "path_delay", "sim.timing.path_delay"
    )

    def lint_counts(c, report):
        fresh, replayed = runner.executed_counts(report.executed)
        c["lint.runner.rules_executed"] += fresh
        c["lint.runner.rules_replayed"] += replayed

    _patch_function(tracer, runner, "lint_circuit", "lint.runner", lint_counts)
    _patch_function(tracer, rules_gp, "lint_gp", "lint.rules_gp")
    _patch_function(
        tracer, interval, "screen_feasibility", "lint.dataflow.interval",
        lambda c, r: _add(c, "lint.dataflow.interval.infeasible", r.infeasible),
    )
    _patch_function(tracer, electrical, "screen_electrical", "lint.electrical")
    _patch_function(tracer, electrical, "worst_noise_margin", "lint.electrical")
    _patch_method(
        tracer, SolutionAudit, "certify", "lint.solution",
        lambda c, cert: _add(c, "lint.solution.rejected", not cert.ok),
    )

    for name in ("get", "nearest", "put"):
        _patch_method(tracer, SizingCache, name, "cache")
    for name in ("get", "put"):
        _patch_method(tracer, SolutionCertificateStore, name, "cache")

    _patch_method(tracer, SmartAdvisor, "advise", "core.advisor")

    for name in (
        "sizing.paths.raw_paths", "sizing.pruning.kept_paths",
        "sizing.constraints.timing_constraints", "sizing.gp.variables",
        "sizing.gp.solver_iterations", "sizing.gp.nonoptimal",
        "sizing.gp.raised", "sizing.engine.outer_iterations",
        "sizing.engine.gp_fallbacks",
        "lint.runner.rules_executed", "lint.runner.rules_replayed",
        "lint.dataflow.interval.infeasible", "lint.solution.rejected",
    ):
        tracer.counts[name] += 0


def wrapper_cost_s(samples: int = 20000) -> float:
    """Measured extra wall time one wrapped call costs over a bare call."""
    probe = LayerTracer()

    def bare(x):
        return x

    wrapped = probe.wrap("probe", bare, lambda c, r: _add(c, "probe.n", 1))
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for i in range(samples):
            bare(i)
        t_bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for i in range(samples):
            wrapped(i)
        t_wrapped = time.perf_counter() - t0
        best = min(best, (t_wrapped - t_bare) / samples)
    return max(best, 0.0)
