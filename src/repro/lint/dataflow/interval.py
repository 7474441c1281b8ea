"""Interval STA (``DFA303``): a sound pre-GP feasibility prover.

GP204 screens each *generated constraint* with a per-monomial box bound;
this analysis proves the same kind of certificate at the *path* level
without ever extracting paths or building a GP.  It propagates, per net,

* a **witness lower pair** ``(arr_lo, slope_lo)``: a lower bound on the
  box-minimum delay/slope of one concrete structural path reaching the net
  (joins pick one incoming candidate wholly, so the pair stays
  path-consistent — the sum of per-hop minima of a single real path);
* an **envelope upper pair** ``(arr_hi, slope_hi)``: element-wise maxima
  over all paths and transition arcs, an upper bound on every path's delay
  at every point of the box;

enclosing the generator's hop model
(:meth:`StaticTimingAnalyzer.arc_posynomials`, Elmore wire terms included)
hop by hop as :meth:`ConstraintGenerator.path_delay_posynomial` chains it:
``arr' = arr + delay + slope_sensitivity * slope`` and
``slope' = slope_out + SLOPE_LEAK * slope``, with the designer's input
slope (halved on clock nets) entering the first hop.

**Soundness** (see DESIGN.md for the full argument):

* ``provably-infeasible`` — some sink's ``arr_lo`` exceeds every budget a
  constraint over that sink could carry (the max over its possible path
  classes, times the summed segment budget for multi-phase paths), or a
  slope/noise constraint's box lower bound exceeds its limit.  Every
  sizing in the box then violates a generated iteration-0 constraint, so
  the engine's first GP solve must be infeasible: the screen can never
  reject a spec the sizer would have met.
* ``provably-feasible`` — a second propagation with the box collapsed to
  the nominal point (the geometric mean the solver starts from) satisfies
  every timing, slope, and noise budget on the ``hi`` side.  Only claimed
  for single-phase circuits: multi-phase segment budgets cannot be checked
  against a hulled whole-path value without splitting it unsoundly.
* ``unknown`` — everything else, including any circuit the solver had to
  widen (cyclic structures).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Dict, List, Tuple

from ...models.gates import SLOPE_LEAK, ModelLibrary
from ...netlist.circuit import Circuit
from ...netlist.memo import circuit_memo
from ...netlist.nets import NetKind, PinClass
from ...netlist.sizing_vars import DEFAULT_BOUNDS
from ...netlist.stages import Stage, StageKind
from ...obs import metrics, trace
from ...sim.timing import StaticTimingAnalyzer, stage_arcs
from ...sizing.constraints import ConstraintGenerator
from ..diagnostics import Diagnostic, LintReport, Location, Severity
from ..registry import Rule, register
from .framework import ForwardAnalysis, SolveResult, solve_forward

DFA303 = register(Rule(
    "DFA303", "interval-STA infeasibility", "dataflow", Severity.ERROR,
    doc=(
        "Interval propagation of the posynomial delay/slope models over "
        "the sizing-variable box proves a path, slope, or noise budget "
        "unreachable by any sizing — the path-level generalization of "
        "GP204, issued before any path extraction or GP solve.  Driven by "
        "repro.lint.dataflow.interval.screen_feasibility (the advisor and "
        "engine pre-GP screens, and repro lint --dataflow)."
    ),
    facets=("topology", "sizing", "phases"),
))

#: Relative slack applied before claiming infeasibility, absorbing float
#: round-off in the box bounds (same spirit as GP204's ``1e-9``).
_EPS = 1e-6

#: Marker class meaning "still on the clock net, no hop taken yet".
_CLOCK_MARK = "clock"


@dataclass(frozen=True)
class TimingValue:
    """Abstract timing state of one net."""

    reached: bool = False
    widened: bool = False
    moved: bool = False          # at least one stage hop behind this value
    arr_lo: float = 0.0
    slope_lo: float = 0.0
    arr_hi: float = 0.0
    slope_hi: float = 0.0
    #: Clocked (D1) phase boundaries crossed (max over joined paths).
    boundaries: int = 0
    #: A domino stage appeared after the last boundary (blocks the
    #: generator's trailing-segment merge).
    domino_after: bool = False
    #: Constraint kinds some path reaching this net may classify as.
    classes: frozenset = field(default_factory=frozenset)

    def segments(self) -> int:
        """Phase-segment count of the generator for the worst joined path
        (mirrors ``ConstraintGenerator.phase_segments`` + trailing merge)."""
        if self.boundaries == 0:
            return 1
        return self.boundaries + (1 if self.domino_after else 0)


_BOTTOM = TimingValue()
_TOP = TimingValue(reached=True, widened=True, moved=True)


def box_bounds(circuit: Circuit) -> Callable[[str], Tuple[float, float]]:
    """Per-variable width bounds over the circuit's sizing box; variables
    the size table does not declare get :data:`DEFAULT_BOUNDS`."""
    table = circuit.size_table

    def bounds(name: str) -> Tuple[float, float]:
        if name in table:
            var = table[name]
            return (var.lower, var.upper)
        return DEFAULT_BOUNDS

    return bounds


def box_intervals(
    circuit: Circuit, library: ModelLibrary, input_slope: float
) -> SolveResult:
    """The interval propagation of ``circuit`` over its whole sizing box
    (:func:`box_bounds`) at ``input_slope``, computed once per circuit.

    Every box reader shares it: the DFA303 screen, NSA604's aggressor
    slopes (so also :func:`~repro.lint.electrical.worst_noise_margin`) and
    the contract derivation.  The result lives in the circuit's memo
    (:func:`~repro.netlist.memo.circuit_memo`) under the library content,
    the size-table state, the box bounds and the input slope — everything
    the propagation reads besides the circuit's structure, whose in-place
    edits :func:`~repro.netlist.memo.forget` the memo.  Its ``values`` are
    read-only.
    """
    table = circuit.size_table
    key = (
        "box_intervals",
        library.content_key(),
        table.state(),
        tuple((var.lower, var.upper) for var in table),
        input_slope,
    )
    memo = circuit_memo(circuit)
    result = memo.get(key)
    if result is not None:
        metrics.counter("lint.dataflow.interval.reused").inc()
        trace.add_attrs(interval_reused=True)
        return result
    result = solve_forward(
        circuit,
        IntervalAnalysis(circuit, library, input_slope, box_bounds(circuit)),
    )
    result.values = MappingProxyType(result.values)
    memo[key] = result
    return result


class IntervalAnalysis(ForwardAnalysis):
    """Delay/slope interval propagation over a sizing-variable box."""

    name = "interval"

    def __init__(
        self,
        circuit: Circuit,
        library: ModelLibrary,
        input_slope: float,
        bounds: Callable[[str], Tuple[float, float]],
    ):
        self.library = library
        self.input_slope = input_slope
        self.bounds = bounds
        self.analyzer = StaticTimingAnalyzer(circuit, library)
        self._hop_cache: Dict[Tuple[str, str], Tuple[float, float, float, float]] = {}

    # -- lattice -----------------------------------------------------------

    def bottom(self) -> TimingValue:
        return _BOTTOM

    def widen(self, old: TimingValue, new: TimingValue) -> TimingValue:
        return _TOP

    def source_value(self, circuit: Circuit, net_name: str) -> TimingValue:
        if circuit.net(net_name).kind is NetKind.CLOCK:
            # The generator halves the designer slope on clock starts.
            slope = self.input_slope * 0.5
            classes = frozenset((_CLOCK_MARK,))
        else:
            slope = self.input_slope
            classes = frozenset(("data",))
        return TimingValue(
            reached=True,
            slope_lo=slope,
            slope_hi=slope,
            classes=classes,
        )

    def join(self, a: TimingValue, b: TimingValue) -> TimingValue:
        if not a.reached:
            return b
        if not b.reached:
            return a
        if a.widened or b.widened:
            return _TOP
        # Witness pair: adopt one candidate wholly so (arr_lo, slope_lo)
        # remains the per-hop-minima sum of a single structural path.
        lo_src = a if (a.arr_lo, a.slope_lo) >= (b.arr_lo, b.slope_lo) else b
        return TimingValue(
            reached=True,
            moved=a.moved or b.moved,
            arr_lo=lo_src.arr_lo,
            slope_lo=lo_src.slope_lo,
            arr_hi=max(a.arr_hi, b.arr_hi),
            slope_hi=max(a.slope_hi, b.slope_hi),
            boundaries=max(a.boundaries, b.boundaries),
            domino_after=a.domino_after or b.domino_after,
            classes=a.classes | b.classes,
        )

    # -- model bounds ------------------------------------------------------

    def _hop_bounds(self, stage: Stage, pin) -> Tuple[float, float, float, float]:
        """(d_lo, d_hi, s_lo, s_hi): delay and base-slope hulls over every
        transition arc through ``pin`` (arc minima may mix arcs — the lo
        side only needs to stay a lower bound)."""
        key = (stage.name, pin.name)
        cached = self._hop_cache.get(key)
        if cached is not None:
            return cached
        d_lo = s_lo = float("inf")
        d_hi = s_hi = 0.0
        for _in_trans, out_trans in stage_arcs(stage, pin):
            delay, slope = self.analyzer.arc_posynomials(stage, pin, out_trans)
            lo, hi = delay.enclose(self.bounds)
            d_lo, d_hi = min(d_lo, lo), max(d_hi, hi)
            lo, hi = slope.enclose(self.bounds)
            s_lo, s_hi = min(s_lo, lo), max(s_hi, hi)
        if d_lo == float("inf"):  # no arcs through this pin
            d_lo = s_lo = 0.0
        result = (d_lo, d_hi, s_lo, s_hi)
        self._hop_cache[key] = result
        return result

    # -- transfer ----------------------------------------------------------

    def _advance(self, stage: Stage, pin, value: TimingValue) -> TimingValue:
        d_lo, d_hi, s_lo, s_hi = self._hop_bounds(stage, pin)
        sens = self.library.tech.slope_sensitivity
        arr_lo = value.arr_lo + d_lo + sens * value.slope_lo
        arr_hi = value.arr_hi + d_hi + sens * value.slope_hi
        slope_lo = s_lo + SLOPE_LEAK * value.slope_lo
        slope_hi = s_hi + SLOPE_LEAK * value.slope_hi

        classes = set(value.classes)
        if _CLOCK_MARK in classes:
            # First hop off the clock net decides the class, exactly like
            # ConstraintGenerator.classify does on the first arc.
            classes.discard(_CLOCK_MARK)
            if (
                stage.kind is StageKind.DOMINO
                and pin.pin_class is PinClass.CLOCK
            ):
                classes.add("precharge")
                if stage.clocked:
                    classes.add("evaluate")
            else:
                classes.add("data")
        if stage.kind is StageKind.DOMINO:
            classes.add("evaluate")
        if pin.pin_class is PinClass.SELECT and stage.kind in (
            StageKind.PASSGATE, StageKind.TRISTATE
        ):
            classes.add("control")

        boundaries = value.boundaries
        domino_after = value.domino_after
        if stage.kind is StageKind.DOMINO:
            if stage.clocked:
                boundaries += 1
                domino_after = False
            elif boundaries:
                domino_after = True

        return TimingValue(
            reached=True,
            moved=True,
            arr_lo=arr_lo,
            slope_lo=slope_lo,
            arr_hi=arr_hi,
            slope_hi=slope_hi,
            boundaries=boundaries,
            domino_after=domino_after,
            classes=frozenset(classes),
        )

    def transfer(
        self, circuit: Circuit, stage: Stage, inputs: Dict[str, TimingValue]
    ) -> TimingValue:
        out = _BOTTOM
        for pin in stage.inputs:
            value = inputs[pin.name]
            if not value.reached:
                continue
            if value.widened:
                return _TOP
            out = self.join(out, self._advance(stage, pin, value))
        return out


# ---------------------------------------------------------------------------
# the screen
# ---------------------------------------------------------------------------


@dataclass
class IntervalScreenResult:
    """Outcome of :func:`screen_feasibility`."""

    verdict: str                       # provably-infeasible / provably-feasible / unknown
    report: LintReport                 # DFA303 findings backing an infeasible verdict
    circuit_name: str
    sinks: int = 0
    widened: bool = False
    runtime_s: float = 0.0

    @property
    def infeasible(self) -> bool:
        return self.verdict == "provably-infeasible"

    @property
    def feasible(self) -> bool:
        return self.verdict == "provably-feasible"

    def summary(self) -> str:
        if self.report.diagnostics:
            first = self.report.diagnostics[0]
            extra = len(self.report.diagnostics) - 1
            more = f" (+{extra} more)" if extra else ""
            return f"{self.verdict}: {first.text}{more}"
        return self.verdict


def _budget_for(spec, value: TimingValue, otb_borrow: float) -> float:
    """The loosest budget any iteration-0 constraint over a path joined
    into ``value`` could carry; ``arr_lo`` beyond this violates *every*
    candidate constraint."""
    kinds = [k for k in value.classes if k != _CLOCK_MARK]
    budget = max((spec.for_kind(k) for k in kinds), default=spec.data)
    segments = value.segments()
    if segments >= 2:
        # Multi-phase paths are constrained per segment at
        # phase (+ OTB window); their total is implied <= that times the
        # segment count.
        budget = max(
            budget, (spec.for_kind("segment") + otb_borrow) * segments
        )
    return budget


def _min_budget(spec, value: TimingValue) -> float:
    kinds = [k for k in value.classes if k != _CLOCK_MARK]
    return min((spec.for_kind(k) for k in kinds), default=spec.data)


def _sink_nets(circuit: Circuit) -> List[str]:
    outs = set(circuit.primary_outputs)
    return [
        name
        for name in circuit.nets
        if name in outs or not circuit.fanout_of(name)
    ]


def screen_feasibility(
    circuit: Circuit,
    library: ModelLibrary,
    spec,
    otb_borrow: float = 0.0,
) -> IntervalScreenResult:
    """Interval-STA pre-GP screen.  Never falsely claims either verdict:
    ``provably-infeasible`` implies the engine's first GP solve fails,
    ``provably-feasible`` implies it has a feasible point.
    """
    bounds = box_bounds(circuit)
    report = LintReport(subject=f"{circuit.name}:interval-sta")

    def emit(message: str, **loc) -> None:
        report.add(Diagnostic(
            rule_id=DFA303.id,
            severity=DFA303.severity,
            message=message,
            location=Location(**loc),
        ))

    with trace.span("interval_screen", circuit=circuit.name) as span:
        generator = ConstraintGenerator(circuit, library, spec)
        result = box_intervals(circuit, library, spec.input_slope)
        widened = bool(result.widened)

        sink_values = {
            name: result.values[name]
            for name in _sink_nets(circuit)
            if result.values[name].reached and result.values[name].moved
        }

        # -- infeasibility proofs (sound for any box) ----------------------
        for name in sorted(sink_values):
            value = sink_values[name]
            if value.widened:
                continue
            budget = _budget_for(spec, value, otb_borrow)
            if value.arr_lo > budget * (1.0 + _EPS):
                kinds = sorted(k for k in value.classes if k != _CLOCK_MARK)
                emit(
                    f"fastest possible arrival {value.arr_lo:.1f} ps already "
                    f"exceeds the {'/'.join(kinds)} budget {budget:.1f} ps "
                    "over the whole size box — no sizing can meet this path",
                    net=name,
                )
        # The generator's slope and noise constraints, one per stage (no
        # regularity dedupe: every failing stage is named).
        for slope in generator.slope_constraints():
            lo, _ = slope.slope.enclose(bounds)
            if lo > slope.limit * (1.0 + _EPS):
                emit(
                    f"minimum achievable slope {lo:.1f} ps exceeds the "
                    f"{slope.limit:.1f} ps limit over the whole size box",
                    net=slope.net,
                    constraint=slope.name,
                )
        for noise in generator.noise_constraints():
            lo, _ = noise.expr.enclose(bounds)
            if lo > 1.0 + _EPS:
                emit(
                    f"charge-sharing ratio is at least {lo:.2f}x the allowed "
                    "limit over the whole size box",
                    stage=noise.stage,
                    constraint=noise.name,
                )

        if report.diagnostics:
            verdict = "provably-infeasible"
        elif widened or not sink_values:
            verdict = "unknown"
        else:
            verdict = _try_prove_feasible(
                circuit, library, spec, sink_values, bounds, generator
            )

        span.set_attrs(verdict=verdict, sinks=len(sink_values))
        metrics.counter(
            f"lint.interval_screen.{verdict.replace('provably-', '')}"
        ).inc()
        return IntervalScreenResult(
            verdict=verdict,
            report=report,
            circuit_name=circuit.name,
            sinks=len(sink_values),
            widened=widened,
            runtime_s=result.runtime_s,
        )


def _try_prove_feasible(
    circuit: Circuit,
    library: ModelLibrary,
    spec,
    sink_values,
    bounds,
    generator: ConstraintGenerator,
) -> str:
    """Point certificate: rerun the propagation with the box collapsed to
    the nominal sizing and check every budget's ``hi`` side."""
    if any(v.segments() > 1 for v in sink_values.values()):
        # Multi-phase: per-segment budgets cannot be certified from a
        # whole-path hull without unsoundly splitting it.
        return "unknown"
    env = circuit.size_table.default_env()

    def point_bounds(name: str) -> Tuple[float, float]:
        width = env.get(name)
        if width is None:
            lower, upper = bounds(name)
            width = (lower * upper) ** 0.5
        return (width, width)

    analysis = IntervalAnalysis(
        circuit, library, spec.input_slope, point_bounds
    )
    analysis.analyzer = generator.analyzer
    result = solve_forward(circuit, analysis)
    if result.widened:
        return "unknown"
    for name in sink_values:
        value = result.values[name]
        if not value.reached or value.widened:
            return "unknown"
        if value.arr_hi > _min_budget(spec, value):
            return "unknown"
    for slope in generator.slope_constraints():
        _, hi = slope.slope.enclose(point_bounds)
        if hi > slope.limit:
            return "unknown"
    for noise in generator.noise_constraints():
        _, hi = noise.expr.enclose(point_bounds)
        if hi > 1.0:
            return "unknown"
    return "provably-feasible"
