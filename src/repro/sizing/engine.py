"""The SMART sizing engine — the full Figure-4 loop.

    unsized schematic -> path extraction -> pruning -> constraint generation
    -> GP solve -> netlist update -> timing analysis -> (mismatch?) ->
    new delay specification -> iterate until convergence

The GP chains slopes posynomially along each path from the designer's input
slope; the static timing analyzer then measures the realized netlist with
true slope propagation, where a slow sibling path can degrade the edge a
path sees at a merge point.  When a constrained path's realized delay misses
its spec, the engine creates a "new delay specification" (Figure 4) for the
next GP round by scaling that constraint's budget by the observed mismatch.
Convergence is declared when every realized path delay is within
``tolerance`` of its spec — the paper reports solutions "within a few
pico-seconds" of the original design's timing.

Constraint kinds wired into the GP (Figure 4's constraint taxonomy):

* performance constraints — path delay budgets (data/control/evaluate/
  precharge/segment);
* reliability constraints — slope limits on internal and output nets;
* device size constraints — per-label width bounds from the size table;
* connectivity constraints — implicit in the netlist (loads are posynomials
  of exactly the fanout the stage graph records).
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..cache.fingerprint import (
    CacheKey,
    check_negative_entry,
    make_entry,
    make_negative_entry,
    sizing_cache_key,
)
from ..cache.store import SizingCache
from ..models.gates import ModelLibrary
from ..netlist.circuit import Circuit
from ..netlist.memo import circuit_memo
from ..obs import metrics, perf, trace
from ..obs.log import get_logger
from ..posy import Posynomial, posy_sum
from ..posy.rows import evaluate_rows
from ..sim.power import PowerEstimator
from ..sim.timing import StaticTimingAnalyzer, TimingReport
from .constraints import (
    ConstraintGenerator, ConstraintSet, DelaySpec, TimingConstraint,
)
from .gp import GeometricProgram, GPInfeasibleError
from .pruning import PruneResult, PruneStats, prune_paths

log = get_logger(__name__)


class SizingError(Exception):
    """Raised when no feasible sizing exists for the given constraints.

    ``certificate`` is phase 1's infeasibility record (see
    :class:`~repro.sizing.gp.GPSolution`) when a certified GP infeasibility
    caused the error, ``None`` otherwise.
    """

    def __init__(self, message: str, certificate: Optional[dict] = None):
        super().__init__(message)
        self.certificate = certificate

    def __reduce__(self):
        return (type(self), (str(self), self.certificate))


#: The :class:`~repro.sizing.pruning.PruneStats` fields a cache entry stores.
_PRUNE_FIELDS = tuple(f.name for f in dataclasses.fields(PruneStats))


def _stored_prune_stats(raw: object) -> Optional[PruneStats]:
    """The pruning counts a cache entry stored, or ``None`` when it has
    none (an entry written before they were stored) or they are malformed."""
    if not isinstance(raw, Mapping):
        return None
    try:
        return PruneStats(**{name: int(raw[name]) for name in _PRUNE_FIELDS})
    except (KeyError, TypeError, ValueError):
        return None


def _float_map(raw: object) -> Optional[Dict[str, float]]:
    """A non-empty ``{name: float}`` copy of ``raw``, or ``None``."""
    if not isinstance(raw, Mapping) or not raw:
        return None
    try:
        return {str(name): float(value) for name, value in raw.items()}
    except (TypeError, ValueError):
        return None


def nominal_delay(
    circuit,
    library: ModelLibrary,
    input_slope: float = 30.0,
    widths: Optional[Mapping[str, float]] = None,
) -> float:
    """Worst output arrival at nominal (geometric-mid) label widths, ps.

    Callers use this to pick *feasible* delay budgets for a topology — e.g.
    ``spec = DelaySpec(data=0.8 * nominal_delay(c, lib))`` asks SMART to beat
    the nominal sizing by 20%.
    """
    analyzer = StaticTimingAnalyzer(circuit, library)
    env = dict(widths) if widths else circuit.size_table.default_env()
    report = analyzer.analyze(env, input_slope=input_slope)
    return report.worst(circuit.primary_outputs)


@dataclass
class IterationRecord:
    """One trip around the Figure-4 loop."""

    iteration: int
    gp_status: str
    gp_objective: float
    worst_violation: float
    worst_constraint: str


@dataclass
class SizingResult:
    """Outcome of :meth:`SmartSizer.size`."""

    circuit_name: str
    widths: Dict[str, float]          # free-label assignment (GP variables)
    resolved: Dict[str, float]        # every label's width
    converged: bool
    iterations: int
    area: float                       # total transistor width, µm
    clock_load: float                 # gate width on clocks, µm
    worst_violation: float            # ps over spec (<= tolerance if converged)
    realized: Dict[str, float]        # constraint name -> realized delay, ps
    specs: Dict[str, float]           # constraint name -> spec, ps
    history: List[IterationRecord] = field(default_factory=list)
    prune_stats: Optional[object] = None
    runtime_s: float = 0.0            # wall-time of the whole Figure-4 loop
    gp_fallback_count: int = 0        # infeasible-retarget GP recoveries
    cache_hit: str = ""               # "" | "exact" | "exact-cert" | "warm"
    #: ``smart-solution-certificate/1`` payload of ``widths``; set whenever
    #: the sizer's cache carries a certificate store (see
    #: :meth:`SmartSizer.publish`) and on a certified collapsed result,
    #: ``None`` otherwise.
    certificate: Optional[dict] = None

    @property
    def worst_slack(self) -> float:
        """Most negative slack across constraints, ps."""
        return -self.worst_violation

    def realized_delay(self, kind_prefix: Optional[str] = None) -> float:
        values = [
            v
            for name, v in self.realized.items()
            if kind_prefix is None or name.endswith(kind_prefix)
        ]
        return max(values) if values else 0.0


@dataclass
class Measurement:
    """STA measurement of a constraint set at one sizing (see
    :func:`measure_constraints`)."""

    realized: Dict[str, float]        # constraint name -> realized delay, ps
    worst_violation: float            # max realized - spec, ps (-inf if none)
    worst_constraint: str
    report: TimingReport


def measure_constraints(
    analyzer: StaticTimingAnalyzer,
    timing: Sequence[TimingConstraint],
    widths: Mapping[str, float],
    input_slope: float,
) -> Measurement:
    """The Figure-4 loop's measurement, shared by sizing, cache
    re-verification and certification: one full STA at ``widths``, then
    every constraint's path re-timed where each hop sees the worst of its
    chained slope and the slope the STA recorded for the edge it receives.
    All of it reads the circuit's arc table at one width point, so each arc
    is evaluated once however many constraints cross it.
    """
    with trace.span("sta"):
        report = analyzer.analyze(widths, input_slope=input_slope)
    slopes = {key: event.slope for key, event in report.arrivals.items()}
    realized: Dict[str, float] = {}
    worst = -math.inf
    worst_name = ""
    with trace.span("measure_paths", constraints=len(timing)):
        for constraint in timing:
            measured = analyzer.path_delay(
                constraint.hops, widths, input_slope=input_slope,
                net_slopes=slopes,
            )
            realized[constraint.name] = measured
            violation = measured - constraint.spec
            if violation > worst:
                worst, worst_name = violation, constraint.name
    return Measurement(realized, worst, worst_name, report)


def measure_class_delays(
    circuit,
    library: ModelLibrary,
    widths: Mapping[str, float],
    input_slope: float = 30.0,
) -> Dict[str, float]:
    """Worst realized delay per constraint class at a given sizing.

    The Section-6.1 protocol needs "the same topology and performance": SMART
    is handed, per class (data / control / evaluate / precharge / segment),
    exactly the delay the original design achieves.  This measures those
    numbers with the timing analyzer over the same constraint machinery the
    sizer uses.
    """
    sizer = SmartSizer(circuit, library)
    timing = sizer._front_end(
        DelaySpec(data=1.0, input_slope=input_slope)
    )[1].timing
    realized = measure_constraints(
        sizer.analyzer, timing, widths, input_slope
    ).realized
    worst: Dict[str, float] = {}
    for constraint in timing:
        worst[constraint.kind] = max(
            worst.get(constraint.kind, 0.0), realized[constraint.name]
        )
    return worst


def measure_slopes(
    circuit,
    library: ModelLibrary,
    widths: Mapping[str, float],
    input_slope: float = 30.0,
) -> Tuple[float, float]:
    """(worst output slope, worst internal slope) of a sized circuit, ps.

    The savings protocol hands SMART the *original design's* realized slopes
    as its reliability limits — same performance, same edge rates."""
    analyzer = StaticTimingAnalyzer(circuit, library)
    report = analyzer.analyze(widths, input_slope=input_slope)
    outputs = set(circuit.primary_outputs)
    worst_out, worst_int = 0.0, 0.0
    for (net, _trans), event in report.arrivals.items():
        if net in outputs:
            worst_out = max(worst_out, event.slope)
        elif net not in circuit.primary_inputs:
            worst_int = max(worst_int, event.slope)
    return worst_out, worst_int


def spec_from_measurement(
    class_delays: Mapping[str, float],
    input_slope: float = 30.0,
    slack: float = 1.0,
    max_output_slope: float = 150.0,
    max_internal_slope: float = 350.0,
    precharge_slack: float = 2.5,
) -> DelaySpec:
    """A :class:`DelaySpec` matching a measured design's per-class delays.

    ``slack`` > 1 loosens everything uniformly.  ``precharge_slack`` loosens
    only the precharge budget: precharge must merely complete within the
    clock's low phase, so matching the original's (typically over-driven)
    precharge speed would forbid exactly the precharge downsizing that
    produces the paper's domino clock-load savings.
    """
    if not class_delays:
        raise ValueError("no measured classes")
    data = class_delays.get("data", max(class_delays.values()))
    return DelaySpec(
        data=data * slack,
        control=(
            class_delays["control"] * slack if "control" in class_delays else None
        ),
        evaluate=(
            class_delays["evaluate"] * slack if "evaluate" in class_delays else None
        ),
        precharge=(
            class_delays["precharge"] * slack * precharge_slack
            if "precharge" in class_delays
            else None
        ),
        phase_budget=(
            class_delays["segment"] * slack if "segment" in class_delays else None
        ),
        input_slope=input_slope,
        max_output_slope=max_output_slope,
        max_internal_slope=max_internal_slope,
    )


class SmartSizer:
    """Automatic transistor sizer for one macro instance.

    Parameters
    ----------
    circuit:
        The unsized (labeled) circuit.
    library:
        Component model library (defines the technology).
    objective:
        ``"area"`` (total transistor width — the paper's headline metric),
        ``"power"`` (activity-weighted switched capacitance), ``"clock"``
        (clock load plus a small area tiebreak), or ``"area+clock"``.
    otb_borrow:
        Opportunistic-time-borrowing window in ps for multi-phase domino
        paths (0 disables OTB).
    pre_screen:
        Run the interval-STA screen
        (:func:`repro.lint.dataflow.interval.screen_feasibility`) before
        each solve and raise :class:`SizingError` without extracting a
        single path when the spec is provably unreachable over the whole
        size box.  Sound: the screen only rejects specs whose first GP
        round is mathematically infeasible.
    cache:
        Optional :class:`repro.cache.SizingCache`, looked up before path
        extraction.  Exact hits (same circuit/context/spec fingerprints)
        are admitted on a re-checked solution certificate or re-verified
        against the STA before reuse; near hits (same circuit and context,
        different spec) warm-start the GP.  Converged results are stored
        back, and so is an iteration-0 refusal (GP2xx pre-solve lint, or a
        certified phase-1 infeasibility) as a negative entry that a repeat
        re-raises without a GP.
    """

    def __init__(
        self,
        circuit: Circuit,
        library: ModelLibrary,
        objective: str = "area",
        otb_borrow: float = 0.0,
        analysis_library: Optional[ModelLibrary] = None,
        pre_screen: bool = True,
        cache: Optional[SizingCache] = None,
    ):
        self.circuit = circuit
        self.library = library
        self.objective = objective
        self.otb_borrow = otb_borrow
        self.pre_screen = pre_screen
        self.cache = cache
        #: The "timing analysis tool" may use different (more accurate)
        #: models than the GP's — the paper's PathMill-vs-posynomial split.
        #: Defaults to the GP's own library.
        self.analyzer = StaticTimingAnalyzer(circuit, analysis_library or library)
        self._analysis_library = analysis_library
        self._cache_key: Optional[CacheKey] = None
        self._cache_hit_runtime = 0.0

    def cache_key(self, spec: DelaySpec, tolerance: float = 2.0) -> CacheKey:
        """Content address of the :meth:`size` problem this sizer would solve
        for ``spec`` at ``tolerance`` (see :mod:`repro.cache.fingerprint`)."""
        return sizing_cache_key(
            self.circuit,
            self.library,
            spec,
            analysis_library=self._analysis_library,
            objective=self.objective,
            otb_borrow=self.otb_borrow,
            tolerance=tolerance,
        )

    # -- objective -----------------------------------------------------------

    def objective_posynomial(self) -> Posynomial:
        area = self.circuit.area_posynomial()
        if self.objective == "area":
            return area
        if self.objective == "clock":
            clock = self.circuit.clock_load_posynomial()
            if len(clock) == 0:
                return area
            return clock + 0.01 * area
        if self.objective == "area+clock":
            clock = self.circuit.clock_load_posynomial()
            return area + clock if len(clock) else area
        if self.objective == "power":
            return self._power_posynomial()
        raise ValueError(f"unknown objective {self.objective!r}")

    def _power_posynomial(self) -> Posynomial:
        """Activity-weighted switched capacitance (arbitrary consistent
        units; only relative values matter to the optimum)."""
        estimator = PowerEstimator(self.circuit, self.library)
        table = self.circuit.size_table
        parts: List[Posynomial] = []
        for net in self.circuit.nets.values():
            if net.kind.value in ("supply", "ground"):
                continue
            activity = estimator.net_activity(net.name)
            cap = Posynomial.zero()
            for stage, pin in self.circuit.fanout_of(net.name):
                cap = cap + self.library.input_cap(stage, pin, table)
            driver = self.circuit.driver_of(net.name)
            if driver is not None:
                cap = cap + self.library.output_parasitic(driver, table)
            if len(cap):
                parts.append(activity * cap)
        total = posy_sum(parts)
        if len(total) == 0:
            return self.circuit.area_posynomial()
        return total

    # -- main entry -----------------------------------------------------------

    def size(
        self,
        spec: DelaySpec,
        tolerance: float = 2.0,
        max_outer_iterations: int = 8,
        initial: Optional[Mapping[str, float]] = None,
    ) -> SizingResult:
        """Run the Figure-4 loop to convergence.

        Raises :class:`SizingError` when the GP is infeasible at the original
        spec (the topology cannot meet the constraints at any size).
        """
        with trace.span(
            "size", circuit=self.circuit.name, objective=self.objective
        ) as run_span:
            t_start = time.perf_counter()
            result = self._size_traced(
                spec, tolerance, max_outer_iterations, initial
            )
            result.runtime_s = time.perf_counter() - t_start
            self._cache_settle(result, spec, tolerance)
            run_span.set_attrs(
                converged=result.converged,
                iterations=result.iterations,
                worst_violation=round(result.worst_violation, 4),
                area=round(result.area, 3),
                gp_fallbacks=result.gp_fallback_count,
            )
            metrics.histogram("engine.runtime_s").observe(result.runtime_s)
            self._record_run(result, spec, tolerance, run_span)
            log.info(
                "sized %s: converged=%s iterations=%d residual=%.2f ps "
                "area=%.1f um (%.3f s)",
                self.circuit.name, result.converged, result.iterations,
                result.worst_violation, result.area, result.runtime_s,
            )
            return result

    def _record_run(
        self,
        result: SizingResult,
        spec: DelaySpec,
        tolerance: float,
        run_span,
    ) -> None:
        """Append one run-ledger record for this sizing invocation.

        Fingerprints and span rollups are only computed when a ledger is
        active, so un-observed runs pay a single ``is None`` check.
        """
        if perf.get_ledger() is None:
            return
        key = self._cache_key or self.cache_key(spec, tolerance)
        tracer = trace.get_tracer()
        subtree = (
            perf.collect_subtree(tracer.spans, run_span.span_id)
            if isinstance(tracer, trace.Tracer)
            else []
        )
        perf.record_run(
            "size",
            self.circuit.name,
            wall_s=result.runtime_s,
            spans=subtree,
            circuit_fp=key.circuit_fp,
            context_fp=key.context_fp,
            spec_fp=key.spec_fp,
            gp={
                "solves": sum(
                    1 for s in subtree if s.name == "gp_solve"
                ),
                "iterations": result.iterations,
                "fallbacks": result.gp_fallback_count,
                "final_residual_ps": (
                    result.worst_violation
                    if math.isfinite(result.worst_violation)
                    else None
                ),
                "converged": result.converged,
            },
            cache={"hit": result.cache_hit or "miss"},
            extra={
                "objective": self.objective,
                "area": result.area,
            },
        )

    def _cache_settle(
        self, result: SizingResult, spec: DelaySpec, tolerance: float
    ) -> None:
        """Post-run cache bookkeeping: publish a fresh result
        (:meth:`publish`), or credit the wall-time an exact hit saved
        (cached solve time minus the re-verification pass — near-zero for
        certificate-admitted hits).  A certificate-admitted hit already
        carries the certificate it was admitted on; an STA-verified hit is
        certified here."""
        if self.cache is None:
            return
        if not result.cache_hit.startswith("exact"):
            self.publish(result, spec, tolerance)
            return
        saved = max(0.0, self._cache_hit_runtime - result.runtime_s)
        self.cache.stats.wall_saved_s += saved
        metrics.histogram("cache.wall_saved_s").observe(saved)
        if result.cache_hit == "exact":
            self._certify(result, spec, tolerance, self._cache_key.key)

    def publish(
        self,
        result: SizingResult,
        spec: DelaySpec,
        tolerance: float,
        certificate: Optional[object] = None,
    ) -> None:
        """Store a freshly sized ``result`` under this problem's content
        address: the cache entry when it converged, and — when the cache
        carries a certificate store — the solution certificate of its
        widths, which is also attached as ``result.certificate``.
        ``certificate`` is one the caller already issued for
        ``result.widths`` (the collapsed sizer's replication audit);
        without it the certificate is issued here."""
        if self.cache is None:
            return
        key = self._cache_key or self.cache_key(spec, tolerance)
        if result.converged:
            # A caller-issued result (the collapsed sizer's) pruned another
            # circuit's paths, so only this engine's own counts are stored.
            stats = result.prune_stats
            self.cache.put(
                make_entry(
                    key,
                    circuit_name=self.circuit.name,
                    objective=self.objective,
                    spec_data=spec.data,
                    tolerance=tolerance,
                    env=result.widths,
                    iterations=result.iterations,
                    area=result.area,
                    runtime_s=result.runtime_s,
                    prune_stats=(
                        dataclasses.asdict(stats)
                        if certificate is None and isinstance(stats, PruneStats)
                        else None
                    ),
                )
            )
            metrics.counter("cache.stores").inc()
        self._certify(result, spec, tolerance, key.key, certificate)

    def _certify(
        self,
        result: SizingResult,
        spec: DelaySpec,
        tolerance: float,
        key: str,
        certificate: Optional[object] = None,
    ) -> None:
        """Attach the solution certificate of ``result.widths`` and keep it
        in the cache's certificate store (no-op without one).  A
        caller-issued ``certificate`` is stored as is; otherwise a stored
        certificate that still binds these widths is reused, and any other
        is replaced by a fresh ``SolutionAudit.certify(..., with_kkt=False)``.
        Never-fail:
        certification problems leave ``result.certificate`` ``None`` (exact
        hits then re-verify via STA), not a sizing error."""
        cert_store = getattr(self.cache, "certificates", None)
        if cert_store is None:
            return
        try:
            if certificate is None:
                from ..lint.solution.audit import SolutionAudit
                from ..lint.solution.certificate import check_certificate
                from ..netlist.fingerprint import facet_fingerprints

                stored = cert_store.get(key)
                if stored is not None and check_certificate(
                    stored,
                    key=key,
                    env=result.widths,
                    tolerance=tolerance,
                    facets=facet_fingerprints(self.circuit),
                )[0]:
                    result.certificate = stored
                    return
                certificate = SolutionAudit(
                    self.circuit,
                    self.library,
                    spec,
                    tolerance=tolerance,
                    otb_borrow=self.otb_borrow,
                    objective=self.objective,
                    analysis_library=self._analysis_library,
                ).certify(result.widths, cache_key=key, with_kkt=False)
            result.certificate = cert_store.put(certificate)
        except Exception as exc:  # pragma: no cover - defensive
            log.warning(
                "%s: solution-certificate issuance failed (%s); exact hits "
                "will re-verify via STA", self.circuit.name, exc,
            )

    def _extract(self) -> PruneResult:
        """Path extraction + Section-5.2 reduction: the whole path space
        pruned in one walk of the stage graph
        (:func:`~repro.sizing.pruning.prune_paths` without a path list)."""
        with trace.span("path_extraction") as extract_span:
            prune_result = prune_paths(self.circuit)
            extract_span.set_attrs(
                raw_paths=prune_result.stats.initial,
                kept_paths=len(prune_result.paths),
            )
        return prune_result

    def pre_solve_lint(self, spec: DelaySpec):
        """Build this circuit's constraint set and GP for ``spec`` and run
        the ``GP2xx`` pre-solve rules, without solving.

        Returns a :class:`repro.lint.LintReport`; the same screen gates
        every :meth:`size` run.
        """
        return self._lint_gp(self._build_gp(self._front_end(spec)[1], {}))

    def _interval_screen(self, spec: DelaySpec):
        """Interval-STA verdict for ``spec``, or ``None`` if the screen
        itself errors (the screen must never turn a solvable run into a
        crash — lint analyses import lazily and may be mid-bootstrap)."""
        try:
            from ..lint.dataflow.interval import screen_feasibility

            return screen_feasibility(
                self.circuit, self.library, spec, otb_borrow=self.otb_borrow
            )
        except ImportError:  # pragma: no cover - partial-init bootstrap
            return None

    def _lint_gp(self, gp: GeometricProgram):
        """The ``GP2xx`` screen of ``gp``, over the compilation its solve
        then reuses."""
        from ..lint.rules_gp import lint_gp

        report = lint_gp(gp, self.circuit.size_table)
        report.subject = f"{self.circuit.name}:gp"
        return report

    def _front_end(self, spec: DelaySpec) -> Tuple[PruneResult, ConstraintSet]:
        """Path extraction, pruning and constraint generation for ``spec``
        (the Figure-4 front end); raises :class:`SizingError` when no
        timing constraint comes out.

        The result is a pure function of the circuit's structure, its
        size-table state, the library content, ``spec`` and the OTB
        window, so it is kept in the circuit's memo
        (:func:`~repro.netlist.memo.circuit_memo`) under those: every
        sizer and audit of the same circuit state reads one front end, and
        a pin, a tie or an in-place edit gets a fresh one.  Callers must
        not modify it.
        """
        memo = circuit_memo(self.circuit)
        key = (
            "front_end", self.circuit.size_table.state(),
            self.library.content_key(), spec, self.otb_borrow,
        )
        front = memo.get(key)
        if front is None:
            prune_result = self._extract()
            generator = ConstraintGenerator(
                self.circuit, self.library, spec, otb_borrow=self.otb_borrow
            )
            with trace.span("constraint_generation") as gen_span:
                constraints = generator.generate(prune_result.paths)
                gen_span.set_attrs(
                    timing=len(constraints.timing),
                    slopes=len(constraints.slopes),
                    noise=len(constraints.noise),
                )
            if not constraints.timing:
                raise SizingError(
                    f"{self.circuit.name}: no timing constraints were generated"
                )
            front = memo[key] = (prune_result, constraints)
        stats = front[0].stats
        metrics.gauge("paths.initial").set(stats.initial)
        metrics.gauge("paths.final").set(stats.final)
        log.debug(
            "%s: %d raw paths -> %d after pruning (%.0fx)",
            self.circuit.name, stats.initial, stats.final,
            stats.reduction_factor if stats.final else 0.0,
        )
        return front

    def _size_traced(
        self,
        spec: DelaySpec,
        tolerance: float,
        max_outer_iterations: int,
        initial: Optional[Mapping[str, float]],
    ) -> SizingResult:
        if self.pre_screen:
            screen = self._interval_screen(spec)
            if screen is not None and screen.infeasible:
                metrics.counter("engine.pre_screen_rejects").inc()
                raise SizingError(
                    f"{self.circuit.name}: spec {spec.data:.1f} ps provably "
                    f"infeasible before GP — {screen.summary()}"
                )

        # The cache is consulted before the front end: an admitted negative
        # entry or certificate-admitted exact hit needs no paths at all.
        cache_mode = ""
        self._cache_key = None
        self._cache_hit_runtime = 0.0
        entry = None
        if self.cache is not None:
            self._cache_key = key = self.cache_key(spec, tolerance)
            entry = self.cache.get(key.key)
            if entry is not None and "negative" in entry:
                self._replay_negative(entry, key)
                entry = None
            if entry is not None:
                hit = self._exact_hit(entry, key, spec, tolerance)
                if hit is not None:
                    return hit
                self.cache.stats.verify_failures += 1
                metrics.counter("cache.verify_failures").inc()
                log.warning(
                    "%s: cached sizing failed STA re-verification; "
                    "re-solving from scratch",
                    self.circuit.name,
                )
        prune_result, constraints = self._front_end(spec)

        multipliers: Dict[str, float] = {}
        env: Optional[Dict[str, float]] = dict(initial) if initial else None
        history: List[IterationRecord] = []
        if self.cache is not None:
            if env is None:
                near = self.cache.nearest(
                    key.circuit_fp, key.context_fp, spec.data
                )
                if near is not None:
                    cache_mode = "warm"
                    # Tolerant conversion: the GP's _initial_point drops
                    # anything unusable, so a partly-bad cached env still
                    # warm-starts with whatever survives.
                    env = {}
                    for name, value in dict(near.get("env", {})).items():
                        try:
                            env[str(name)] = float(value)
                        except (TypeError, ValueError):
                            continue
                    self.cache.stats.warm_hits += 1
                    metrics.counter("cache.warm_hits").inc()
                    trace.add_attrs(cache_hit="warm")
                    log.debug(
                        "%s: warm-starting GP from cached env for spec "
                        "%.1f ps",
                        self.circuit.name, float(near.get("spec_data", 0.0)),
                    )
                else:
                    self.cache.stats.misses += 1
                    metrics.counter("cache.misses").inc()
            else:
                self.cache.stats.misses += 1
                metrics.counter("cache.misses").inc()

        # GP pre-solve gate: fail fast on malformed or trivially-infeasible
        # programs instead of burning solver iterations on them.  Iteration
        # 0 solves the program the gate linted.
        objective = self.objective_posynomial()
        gp = self._build_gp(constraints, {}, objective)
        gp_lint = self._lint_gp(gp)
        for diag in gp_lint.warnings:
            log.debug("gp lint %s: %s", self.circuit.name, diag.format())
        if not gp_lint.ok:
            metrics.counter("engine.gp_lint_failures").inc()
            details = "; ".join(d.format() for d in gp_lint.errors[:3])
            more = len(gp_lint.errors) - 3
            if more > 0:
                details += f" (+{more} more)"
            self._refuse(
                spec, tolerance, "gp_lint",
                f"GP pre-solve lint failed: {details}",
            )

        realized: Dict[str, float] = {}
        worst_violation = math.inf
        worst_name = ""
        converged = False
        damping = 1.0
        gp_fallbacks = 0

        def record_iteration(record: IterationRecord) -> None:
            history.append(record)
            trace.event(
                "iteration_record",
                iteration=record.iteration,
                gp_status=record.gp_status,
                gp_objective=record.gp_objective,
                residual=record.worst_violation,
                worst_constraint=record.worst_constraint,
            )
            metrics.counter("engine.iterations").inc()
            if math.isfinite(record.worst_violation):
                metrics.histogram("engine.residual_ps").observe(
                    record.worst_violation
                )

        for iteration in range(max_outer_iterations):
            with trace.span("iteration", iteration=iteration) as iter_span:
                if iteration:
                    gp = self._build_gp(constraints, multipliers, objective)
                try:
                    with trace.span("gp_solve") as gs:
                        solution = gp.solve(
                            initial=env or self.circuit.size_table.default_env()
                        )
                        gs.set_attrs(
                            status=solution.status,
                            solver_iterations=solution.iterations,
                        )
                except GPInfeasibleError as exc:
                    if iteration == 0:
                        reason = (
                            f"constraints infeasible at spec {spec.data:.1f} "
                            f"ps ({exc})"
                        )
                        certificate = (
                            exc.solution.certificate
                            if exc.solution is not None else None
                        )
                        if certificate is None:
                            raise SizingError(
                                f"{self.circuit.name}: {reason}"
                            ) from exc
                        # Certified: no start point could have done better,
                        # so the verdict is a function of the cache key.
                        self._refuse(
                            spec, tolerance, "phase1", reason, certificate
                        )
                    # A retargeted budget over-tightened: halve the mismatch
                    # correction and try again.
                    gp_fallbacks += 1
                    metrics.counter("engine.gp_fallbacks").inc()
                    log.info(
                        "%s iteration %d: retargeted GP infeasible, "
                        "halving mismatch correction",
                        self.circuit.name, iteration,
                    )
                    damping *= 0.5
                    multipliers = {
                        name: 1.0 - (1.0 - mult) * 0.5
                        for name, mult in multipliers.items()
                    }
                    record_iteration(
                        IterationRecord(
                            iteration=iteration,
                            gp_status="infeasible-retarget",
                            gp_objective=float("nan"),
                            worst_violation=worst_violation,
                            worst_constraint=worst_name,
                        )
                    )
                    iter_span.set_attrs(gp_status="infeasible-retarget")
                    continue
                if solution.status == "infeasible" and iteration == 0:
                    raise SizingError(
                        f"{self.circuit.name}: constraints infeasible at spec "
                        f"{spec.data:.1f} ps (GP reported {solution.message})"
                    )
                env = solution.env
                if solution.status != "infeasible":
                    # Back inside the feasible region: restore full mismatch
                    # correction so one bad retarget doesn't slow every
                    # remaining iteration.
                    damping = 1.0

                measurement = measure_constraints(
                    self.analyzer, constraints.timing, env, spec.input_slope
                )
                realized = measurement.realized
                worst_violation = measurement.worst_violation
                worst_name = measurement.worst_constraint

                record_iteration(
                    IterationRecord(
                        iteration=iteration,
                        gp_status=solution.status,
                        gp_objective=solution.objective,
                        worst_violation=worst_violation,
                        worst_constraint=worst_name,
                    )
                )
                iter_span.set_attrs(
                    gp_status=solution.status,
                    residual=round(worst_violation, 4),
                    worst_constraint=worst_name,
                )

                if worst_violation <= tolerance:
                    converged = True
                    break
                if (
                    len(history) >= 2
                    and history[-2].gp_status == "optimal"
                    and abs(history[-2].worst_violation - worst_violation) < 0.1
                ):
                    # Stalled at a floor the models agree on: the spec is not
                    # reachable for this topology; report honestly.
                    log.info(
                        "%s iteration %d: stalled at residual %.2f ps, "
                        "spec unreachable for this topology",
                        self.circuit.name, iteration, worst_violation,
                    )
                    break

                multipliers = self._retarget(
                    constraints, realized, env, damping
                )

        resolved = self.circuit.size_table.resolve(env)
        area, clock_load = self.circuit.width_totals(resolved)
        return SizingResult(
            circuit_name=self.circuit.name,
            widths=dict(env),
            resolved=resolved,
            converged=converged,
            iterations=len(history),
            area=area,
            clock_load=clock_load,
            worst_violation=max(0.0, worst_violation),
            realized=realized,
            specs={c.name: c.spec for c in constraints.timing},
            history=history,
            prune_stats=prune_result.stats,
            gp_fallback_count=gp_fallbacks,
            cache_hit=cache_mode,
        )

    # -- helpers -----------------------------------------------------------------

    def _refuse(
        self,
        spec: DelaySpec,
        tolerance: float,
        kind: str,
        reason: str,
        certificate: Optional[dict] = None,
    ) -> None:
        """Raise the iteration-0 :class:`SizingError` ``reason``, first
        storing it as a negative cache entry under this problem's key."""
        if self.cache is not None:
            from ..netlist.fingerprint import facet_fingerprints

            self.cache.put(
                make_negative_entry(
                    self._cache_key,
                    circuit_name=self.circuit.name,
                    objective=self.objective,
                    spec_data=spec.data,
                    tolerance=tolerance,
                    kind=kind,
                    reason=reason,
                    facets=facet_fingerprints(self.circuit),
                    certificate=certificate,
                )
            )
            metrics.counter("cache.negative_stores").inc()
        raise SizingError(f"{self.circuit.name}: {reason}", certificate)

    def _replay_negative(self, entry: Mapping[str, object], key: CacheKey) -> None:
        """Re-raise the :class:`SizingError` a negative entry stored, when
        :func:`~repro.cache.fingerprint.check_negative_entry` admits it
        against this circuit's live facet fingerprints; return (a miss:
        the caller re-solves) when it does not."""
        from ..netlist.fingerprint import facet_fingerprints

        ok, why = check_negative_entry(
            entry, key=key.key, facets=facet_fingerprints(self.circuit)
        )
        if not ok:
            metrics.counter("cache.negative_rejects").inc()
            log.info(
                "%s: negative cache entry rejected (%s); re-solving",
                self.circuit.name, why,
            )
            return
        negative = entry["negative"]
        self.cache.stats.negative_hits += 1
        metrics.counter("cache.negative_hits").inc()
        trace.add_attrs(cache_hit="negative")
        log.info(
            "%s: negative cache entry admitted, re-raising without a GP",
            self.circuit.name,
        )
        raise SizingError(
            f"{self.circuit.name}: {negative['reason']}",
            negative["certificate"],
        )

    def _exact_hit(
        self,
        entry: Mapping[str, object],
        key: CacheKey,
        spec: DelaySpec,
        tolerance: float,
    ) -> Optional[SizingResult]:
        """The sizing an exact cache hit stands for, or ``None`` when the
        entry cannot be admitted and the caller re-solves (the cache is an
        accelerator, never an oracle).

        The entry's env must be finite, positive and cover every free
        label.  It is then admitted on its verified solution certificate
        (:meth:`_admit_certified`, no STA) or, absent one, by the engine's
        own convergence criterion: every timing constraint's realized
        delay, measured with true slope propagation, within ``tolerance``
        of its spec.  A certificate-admitted hit takes its specs from the
        certificate and its pruning counts from the entry, so it reads
        :meth:`_front_end` (path extraction and constraint generation) only
        when either record predates those fields.
        """
        raw = entry.get("env")
        if not isinstance(raw, Mapping):
            return None
        widths: Dict[str, float] = {}
        for name, value in raw.items():
            try:
                width = float(value)  # type: ignore[arg-type]
            except (TypeError, ValueError):
                return None
            if not math.isfinite(width) or width <= 0.0:
                return None
            widths[str(name)] = width
        free = sorted(self.circuit.size_table.free_names())
        if not set(free).issubset(widths):
            return None
        env = {name: widths[name] for name in free}
        certificate = self._admit_certified(env, key, tolerance)
        if certificate is not None:
            mode = "exact-cert"
            realized = {
                str(name): float(value)
                for name, value in certificate.get("realized", {}).items()
            }
            worst = float(certificate.get("worst_residual_ps", 0.0))
            specs = _float_map(certificate.get("specs"))
            prune_stats = _stored_prune_stats(entry.get("prune_stats"))
            if specs is None or prune_stats is None:
                prune_result, constraints = self._front_end(spec)
                specs = {c.name: c.spec for c in constraints.timing}
                prune_stats = prune_result.stats
            self.cache.stats.cert_hits += 1
            metrics.counter("cache.cert_hits").inc()
            log.info(
                "%s: cache hit admitted on solution certificate "
                "(residual %.2f ps), skipping GP loop and STA re-verify",
                self.circuit.name, worst,
            )
        else:
            prune_result, constraints = self._front_end(spec)
            with trace.span("cache_verify", key=key.key[:12]):
                measurement = measure_constraints(
                    self.analyzer, constraints.timing, env, spec.input_slope
                )
            if measurement.worst_violation > tolerance:
                return None
            mode = "exact"
            realized = measurement.realized
            worst = measurement.worst_violation
            specs = {c.name: c.spec for c in constraints.timing}
            prune_stats = prune_result.stats
            metrics.counter("cache.exact_hits").inc()
            log.info(
                "%s: cache hit verified (residual %.2f ps), skipping GP loop",
                self.circuit.name, worst,
            )
        self.cache.stats.exact_hits += 1
        self._cache_hit_runtime = float(entry.get("runtime_s", 0.0))
        trace.add_attrs(cache_hit=mode)
        resolved = self.circuit.size_table.resolve(env)
        area, clock_load = self.circuit.width_totals(resolved)
        return SizingResult(
            circuit_name=self.circuit.name,
            widths=env,
            resolved=resolved,
            converged=True,
            iterations=0,
            area=area,
            clock_load=clock_load,
            worst_violation=max(0.0, worst),
            realized=realized,
            specs=specs,
            history=[],
            prune_stats=prune_stats,
            cache_hit=mode,
            certificate=certificate,
        )

    def _admit_certified(
        self,
        env: Mapping[str, float],
        key: CacheKey,
        tolerance: float,
    ) -> Optional[dict]:
        """The stored solution certificate that admits ``env`` as an exact
        hit without the STA re-run, or ``None``.

        Looks up the ``smart-solution-certificate/1`` record stored under the
        same content address as the cache entry and re-checks its bindings at
        lookup time via :func:`repro.lint.solution.check_certificate`: key,
        widths digest against ``env``, ``ok`` flag, residual within
        tolerance, and freshness against this circuit's live facet
        fingerprints.  Returns ``None`` — absent store, absent or stale
        certificate, or any failed binding — and the caller falls back to
        the STA check.  Certificate admission is strictly an accelerator:
        it can only skip work the certificate already proved.
        """
        cert_store = getattr(self.cache, "certificates", None)
        if cert_store is None:
            return None
        try:
            from ..lint.solution.certificate import check_certificate
            from ..netlist.fingerprint import facet_fingerprints
        except ImportError:  # pragma: no cover - partial-init bootstrap
            return None
        cert = cert_store.get(key.key)
        if cert is None:
            return None
        ok, reason = check_certificate(
            cert,
            key=key.key,
            env=env,
            tolerance=tolerance,
            facets=facet_fingerprints(self.circuit),
        )
        if not ok:
            log.info(
                "%s: solution certificate rejected (%s); falling back to "
                "STA re-verify", self.circuit.name, reason,
            )
            metrics.counter("cache.cert_rejects").inc()
            return None
        return cert

    def _build_gp(
        self,
        constraints: ConstraintSet,
        multipliers: Mapping[str, float],
        objective: Optional[Posynomial] = None,
    ) -> GeometricProgram:
        gp = GeometricProgram(
            self.objective_posynomial() if objective is None else objective
        )
        for constraint in constraints.timing:
            budget = constraint.spec * multipliers.get(constraint.name, 1.0)
            gp.add_upper_bound(constraint.row, budget, constraint.name)
        for slope in constraints.slopes:
            gp.add_upper_bound(slope.slope, slope.limit, slope.name)
        for noise in constraints.noise:
            gp.add_inequality(noise.expr, noise.name)
        for size_var in self.circuit.size_table:
            if size_var.free:
                gp.set_bounds(size_var.name, size_var.lower, size_var.upper)
        return gp

    def _retarget(
        self,
        constraints: ConstraintSet,
        realized: Mapping[str, float],
        env: Mapping[str, float],
        damping: float,
    ) -> Dict[str, float]:
        """The "create new delay specification" box.

        The GP prediction and the STA measurement of a path differ by the
        model error ``delta`` (chiefly slopes the GP's per-path chaining
        cannot see); the next GP round gets budget ``spec - damping*delta``
        so that meeting the model budget means meeting the true spec.
        Multipliers are recomputed fresh each iteration (not accumulated)
        because ``delta`` is measured against the unscaled constraint
        posynomial at the current point.
        """
        multipliers: Dict[str, float] = {}
        predicted_delays = evaluate_rows(
            [constraint.row for constraint in constraints.timing], env
        ).tolist()
        for constraint, predicted in zip(constraints.timing, predicted_delays):
            measured = realized.get(constraint.name)
            if measured is None or measured <= 0:
                continue
            delta = measured - predicted
            if abs(delta) < 1e-9:
                continue
            target = constraint.spec - damping * delta
            mult = target / constraint.spec
            multipliers[constraint.name] = min(1.5, max(0.3, mult))
        return multipliers
