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

mirroring :meth:`ConstraintGenerator.path_delay_posynomial` hop by hop:
``arr' = arr + delay(input_slope=0) + slope_sensitivity * slope`` and
``slope' = output_slope(input_slope=0) + 0.1 * slope`` (plus the Elmore
wire terms), with the first hop's slope frozen at the designer's input
slope (halved on clock nets) exactly as the generator's iteration-0
``slope_map`` fallback does.

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
from typing import Callable, Dict, List, Tuple

from ...models.gates import LN2, ModelLibrary
from ...netlist.circuit import Circuit
from ...netlist.nets import NetKind, PinClass
from ...netlist.sizing_vars import DEFAULT_BOUNDS
from ...netlist.stages import Stage, StageKind
from ...obs import metrics, trace
from ...sim.timing import StaticTimingAnalyzer, stage_arcs
from ..diagnostics import Diagnostic, LintReport, Location, Severity
from ..registry import Rule, register
from .framework import ForwardAnalysis, solve_forward

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
        self._analyzer = StaticTimingAnalyzer(circuit, library)
        self._load_cache: Dict[str, object] = {}
        self._hop_cache: Dict[Tuple[str, str], Tuple[float, float, float, float]] = {}
        self._wire_cache: Dict[str, Tuple[float, float]] = {}

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

    def _load_of(self, circuit: Circuit, net_name: str):
        if net_name not in self._load_cache:
            self._load_cache[net_name] = self._analyzer.load_posynomial(net_name)
        return self._load_cache[net_name]

    def _hop_bounds(self, circuit: Circuit, stage: Stage, pin) -> Tuple[float, float, float, float]:
        """(d_lo, d_hi, s_lo, s_hi): delay and base-slope hulls over every
        transition arc through ``pin`` (arc minima may mix arcs — the lo
        side only needs to stay a lower bound)."""
        key = (stage.name, pin.name)
        cached = self._hop_cache.get(key)
        if cached is not None:
            return cached
        load = self._load_of(circuit, stage.output.name)
        table = circuit.size_table
        d_lo = s_lo = float("inf")
        d_hi = s_hi = 0.0
        for _in_trans, out_trans in stage_arcs(stage, pin, self.library):
            delay = self.library.delay(
                stage, pin, out_trans, load, table, input_slope=0.0
            )
            lo, hi = delay.enclose(self.bounds)
            d_lo, d_hi = min(d_lo, lo), max(d_hi, hi)
            slope = self.library.output_slope(
                stage, pin, out_trans, load, table, input_slope=0.0
            )
            lo, hi = slope.enclose(self.bounds)
            s_lo, s_hi = min(s_lo, lo), max(s_hi, hi)
        if d_lo == float("inf"):  # no arcs through this pin
            d_lo = s_lo = 0.0
        result = (d_lo, d_hi, s_lo, s_hi)
        self._hop_cache[key] = result
        return result

    def _wire_bounds(self, circuit: Circuit, net_name: str) -> Tuple[float, float]:
        if net_name not in self._wire_cache:
            wire = self._analyzer.far_cap_posynomial(net_name)
            self._wire_cache[net_name] = wire.enclose(self.bounds)
        return self._wire_cache[net_name]

    # -- transfer ----------------------------------------------------------

    def _advance(
        self, circuit: Circuit, stage: Stage, pin, value: TimingValue
    ) -> TimingValue:
        d_lo, d_hi, s_lo, s_hi = self._hop_bounds(circuit, stage, pin)
        sens = self.library.tech.slope_sensitivity
        arr_lo = value.arr_lo + d_lo + sens * value.slope_lo
        arr_hi = value.arr_hi + d_hi + sens * value.slope_hi
        slope_lo = s_lo + 0.1 * value.slope_lo
        slope_hi = s_hi + 0.1 * value.slope_hi
        wire_res = stage.output.wire_res
        if wire_res > 0.0:
            far_lo, far_hi = self._wire_bounds(circuit, stage.output.name)
            arr_lo += LN2 * wire_res * far_lo
            arr_hi += LN2 * wire_res * far_hi
            gain = self.library.tech.slope_gain
            slope_lo += gain * wire_res * far_lo
            slope_hi += gain * wire_res * far_hi

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
            out = self.join(out, self._advance(circuit, stage, pin, value))
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


def _slope_surface(circuit: Circuit, library: ModelLibrary, spec, analysis):
    """Yield the generator's iteration-0 slope constraints as
    ``(name, posynomial, limit, net)`` — same dedupe/order as
    ``ConstraintGenerator._add_slope_constraints`` with an empty slope map.
    """
    table = circuit.size_table
    outputs = set(circuit.primary_outputs)
    for stage in circuit.stages:
        net = stage.output.name
        limit = (
            spec.max_output_slope if net in outputs else spec.max_internal_slope
        )
        covered = set()
        for pin in stage.inputs:
            for _in_trans, out_trans in stage_arcs(stage, pin, library):
                if out_trans in covered:
                    continue
                covered.add(out_trans)
                slope = library.output_slope(
                    stage,
                    pin,
                    out_trans,
                    analysis._load_of(circuit, net),
                    table,
                    input_slope=spec.input_slope,
                )
                if stage.output.wire_res > 0.0:
                    slope = slope + (
                        library.tech.slope_gain
                        * stage.output.wire_res
                        * analysis._analyzer.far_cap_posynomial(net)
                    )
                yield (
                    f"slope.{stage.name}.{out_trans.value}",
                    slope,
                    limit,
                    net,
                )


def _noise_surface(circuit: Circuit, library: ModelLibrary, spec):
    """Yield the generator's charge-sharing constraints as
    ``(name, posynomial, stage)`` with limit 1 (mirrors
    ``ConstraintGenerator._add_noise_constraints``)."""
    ratio = spec.charge_sharing_ratio
    if ratio is None:
        return
    table = circuit.size_table
    tech = library.tech
    for stage in circuit.stages:
        if stage.kind is not StageKind.DOMINO:
            continue
        model = library.model(stage)
        internal = model.internal_charge_cap(stage, table)
        if len(internal) == 0:
            continue
        keeper = float(stage.params.get("keeper", 0.0))
        allowed = (
            ratio
            * (1.0 + 2.0 * keeper)
            * tech.c_diff
            * table.monomial(stage.label("precharge"))
        )
        yield (f"noise.{stage.name}", internal / allowed, stage.name)


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
        analysis = IntervalAnalysis(
            circuit, library, spec.input_slope, bounds
        )
        result = solve_forward(circuit, analysis)
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
        for cname, slope, limit, net in _slope_surface(
            circuit, library, spec, analysis
        ):
            lo, _ = slope.enclose(bounds)
            if lo > limit * (1.0 + _EPS):
                emit(
                    f"minimum achievable slope {lo:.1f} ps exceeds the "
                    f"{limit:.1f} ps limit over the whole size box",
                    net=net,
                    constraint=cname,
                )
        for cname, expr, stage_name in _noise_surface(circuit, library, spec):
            lo, _ = expr.enclose(bounds)
            if lo > 1.0 + _EPS:
                emit(
                    f"charge-sharing ratio is at least {lo:.2f}x the allowed "
                    "limit over the whole size box",
                    stage=stage_name,
                    constraint=cname,
                )

        if report.diagnostics:
            verdict = "provably-infeasible"
        elif widened or not sink_values:
            verdict = "unknown"
        else:
            verdict = _try_prove_feasible(
                circuit, library, spec, sink_values, bounds
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
    circuit: Circuit, library: ModelLibrary, spec, sink_values, bounds
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
    result = solve_forward(circuit, analysis)
    if result.widened:
        return "unknown"
    for name in sink_values:
        value = result.values[name]
        if not value.reached or value.widened:
            return "unknown"
        if value.arr_hi > _min_budget(spec, value):
            return "unknown"
    for _name, slope, limit, _net in _slope_surface(
        circuit, library, spec, analysis
    ):
        _, hi = slope.enclose(point_bounds)
        if hi > limit:
            return "unknown"
    for _name, expr, _stage in _noise_surface(circuit, library, spec):
        _, hi = expr.enclose(point_bounds)
        if hi > 1.0:
            return "unknown"
    return "provably-feasible"
