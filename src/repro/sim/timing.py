"""Static timing analysis over the stage graph — the PathMill substitute.

The paper measures every design with PathMill before and after sizing and
closes the Figure-4 loop on the measured/spec mismatch.  This analyzer plays
that role: it propagates arrival times *and transition times (slopes)* through
the stage graph using the same component equations as the model library, but —
unlike the GP, which freezes input slopes — with real slope propagation, so GP
predictions and STA measurements genuinely differ and the refinement loop has
work to do.

Timing graph nodes are ``(net, transition)`` pairs.  Stage arcs:

* static inverting gates: input FALL -> output RISE and vice versa;
* pass gates: non-inverting data arcs, select-RISE -> both output transitions;
* tri-states: inverting data arcs, select-RISE -> both output transitions;
* domino nodes: data-RISE -> node FALL (evaluate), clock RISE -> node FALL
  (D1 evaluate via the foot), clock FALL -> node RISE (precharge).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..models.gates import LN2, ModelLibrary, Transition
from ..netlist.circuit import Circuit
from ..netlist.nets import NetKind, Pin, PinClass
from ..netlist.stages import Stage, StageKind
from ..obs import metrics, trace
from ..posy import Posynomial, posy_sum

#: A hop along a timing path: (stage name, input pin name, output transition).
Hop = Tuple[str, str, Transition]


@dataclass(frozen=True)
class ArrivalEvent:
    """Latest arrival of a transition at a net."""

    net: str
    transition: Transition
    time: float
    slope: float
    from_stage: Optional[str] = None
    from_pin: Optional[str] = None
    #: timing-graph key of the predecessor event (net, transition)
    src_key: Optional[Tuple[str, Transition]] = None


@dataclass
class TimingReport:
    """Full result of one STA run."""

    arrivals: Dict[Tuple[str, Transition], ArrivalEvent]
    circuit_name: str

    def arrival(self, net: str, transition: Transition) -> Optional[ArrivalEvent]:
        return self.arrivals.get((net, transition))

    def _events(self, net: str) -> List[ArrivalEvent]:
        """The arrival events at ``net``, rise first (empty if never
        reached)."""
        return [
            event
            for event in (self.arrivals.get((net, trans)) for trans in Transition)
            if event is not None
        ]

    def net_delay(self, net: str) -> float:
        """Worst arrival over both transitions at ``net`` (0 if never reached)."""
        return max((event.time for event in self._events(net)), default=0.0)

    def worst(self, nets: Sequence[str]) -> float:
        """Worst arrival over a set of nets (the realized circuit delay)."""
        return max((self.net_delay(n) for n in nets), default=0.0)

    def critical_path(self, net: str) -> List[ArrivalEvent]:
        """Chain of arrival events ending at the worst transition of ``net``."""
        candidates = self._events(net)
        if not candidates:
            return []
        event = max(candidates, key=lambda e: e.time)
        chain = [event]
        while event.src_key is not None:
            prev = self.arrivals.get(event.src_key)
            if prev is None or prev is event:
                break
            chain.append(prev)
            event = prev
        chain.reverse()
        return chain


def arc_input_transition(
    stage: Stage, pin: Pin, out_transition: Transition
) -> Transition:
    """The input transition that causes ``out_transition`` through ``pin``.

    Unique for every arc our stage kinds define (select pins always fire on
    their rising edge).  Raises ``KeyError`` when no such arc exists.
    """
    for in_trans, out_trans in stage_arcs(stage, pin):
        if out_trans is out_transition:
            return in_trans
    raise KeyError(
        f"stage {stage.name} pin {pin.name}: no arc producing "
        f"{out_transition.value}"
    )


def stage_arcs(stage: Stage, pin: Pin) -> List[Tuple[Transition, Transition]]:
    """(input transition, output transition) arcs through ``pin``."""
    arcs: List[Tuple[Transition, Transition]] = []
    if stage.kind is StageKind.DOMINO:
        if pin.pin_class is PinClass.CLOCK:
            if stage.clocked:
                arcs.append((Transition.RISE, Transition.FALL))  # evaluate
            arcs.append((Transition.FALL, Transition.RISE))      # precharge
        else:
            arcs.append((Transition.RISE, Transition.FALL))      # evaluate
        return arcs
    if pin.pin_class is PinClass.SELECT:
        # Turning the gate on (select rising) can launch either output edge
        # — the paper's four control-port constraints (Section 5.3).
        return [(Transition.RISE, Transition.RISE), (Transition.RISE, Transition.FALL)]
    if stage.inverting:
        return [
            (Transition.FALL, Transition.RISE),
            (Transition.RISE, Transition.FALL),
        ]
    return [
        (Transition.RISE, Transition.RISE),
        (Transition.FALL, Transition.FALL),
    ]


class StaticTimingAnalyzer:
    """Propagates arrivals/slopes through a circuit at concrete widths."""

    def __init__(self, circuit: Circuit, library: ModelLibrary):
        self.circuit = circuit
        self.library = library
        # Posynomial memos: the circuit's size table must not change while
        # this analyzer is in use (collapse re-ties it between sizers).
        self._loads: Dict[str, Posynomial] = {}
        self._arcs: Dict[Tuple[str, str, Transition], Tuple[Posynomial, Posynomial]] = {}

    # -- loads ---------------------------------------------------------------

    def net_load(self, net_name: str, widths: Mapping[str, float]) -> float:
        """Total capacitance on a net at concrete widths, fF: fanout gate
        caps + wire/external + every driver's own output diffusion (so shared
        pass-gate/tri-state merge nodes count all their parasitics)."""
        net = self.circuit.net(net_name)
        total = net.fixed_cap
        table = self.circuit.size_table
        for stage, pin in self.circuit.fanout_of(net_name):
            total += self.library.input_cap(stage, pin, table).evaluate(widths)
        for driver in self.circuit.drivers_of(net_name):
            total += self.library.output_parasitic(driver, table).evaluate(widths)
        return total

    def load_posynomial(self, net_name: str) -> Posynomial:
        """Same total load as a posynomial (memoized)."""
        total = self._loads.get(net_name)
        if total is not None:
            return total
        net = self.circuit.net(net_name)
        table = self.circuit.size_table
        parts = [
            self.library.input_cap(stage, pin, table)
            for stage, pin in self.circuit.fanout_of(net_name)
        ]
        parts.extend(
            self.library.output_parasitic(driver, table)
            for driver in self.circuit.drivers_of(net_name)
        )
        total = posy_sum(parts)
        if net.fixed_cap > 0:
            total = total + net.fixed_cap
        self._loads[net_name] = total
        return total

    def arc_posynomials(
        self, stage: Stage, pin: Pin, out_trans: Transition
    ) -> Tuple[Posynomial, Posynomial]:
        """``(delay, slope)`` of one arc at zero input slope, Elmore wire
        terms included (memoized) — the hop model every posynomial timing
        consumer shares.  A hop entered with input slope ``s_in`` costs
        ``delay + slope_sensitivity * s_in`` and launches
        ``slope + SLOPE_LEAK * s_in`` (equations (1)/(2))."""
        key = (stage.name, pin.name, out_trans)
        arc = self._arcs.get(key)
        if arc is not None:
            return arc
        out = stage.output
        load = self.load_posynomial(out.name)
        table = self.circuit.size_table
        delay = self.library.delay(stage, pin, out_trans, load, table)
        slope = self.library.output_slope(stage, pin, out_trans, load, table)
        if out.wire_res > 0.0:
            far = self.far_cap_posynomial(out.name)
            delay = delay + LN2 * out.wire_res * far
            slope = slope + self.library.tech.slope_gain * out.wire_res * far
        arc = self._arcs[key] = (delay, slope)
        return arc

    def far_cap(self, net_name: str, widths: Mapping[str, float]) -> float:
        """Capacitance on the *far* side of a net's wire resistance, fF:
        fanout gates, external load, and half the distributed wire cap."""
        net = self.circuit.net(net_name)
        table = self.circuit.size_table
        total = net.external_load + net.wire_cap / 2.0
        for stage, pin in self.circuit.fanout_of(net_name):
            total += self.library.input_cap(stage, pin, table).evaluate(widths)
        return total

    def far_cap_posynomial(self, net_name: str) -> Posynomial:
        net = self.circuit.net(net_name)
        table = self.circuit.size_table
        parts = [
            self.library.input_cap(stage, pin, table)
            for stage, pin in self.circuit.fanout_of(net_name)
        ]
        total = posy_sum(parts)
        fixed = net.external_load + net.wire_cap / 2.0
        if fixed > 0:
            total = total + fixed
        return total

    def wire_delay(self, net_name: str, widths: Mapping[str, float]) -> float:
        """Elmore delay of the net's interconnect, ps (0 for short wires)."""
        return self._wire_terms(net_name, widths)[0]

    def _wire_terms(
        self, net_name: str, resolved: Mapping[str, float]
    ) -> Tuple[float, float]:
        """(Elmore delay, slope degradation) of the net's interconnect at
        concrete widths, ps — both 0 for short wires."""
        wire_res = self.circuit.net(net_name).wire_res
        if wire_res <= 0.0:
            return 0.0, 0.0
        far = self.far_cap(net_name, resolved)
        return (
            LN2 * wire_res * far,
            self.library.tech.slope_gain * wire_res * far,
        )

    def _resolve(self, widths: Mapping[str, float]) -> Dict[str, float]:
        """Every label's width from a free-variable or full assignment."""
        table = self.circuit.size_table
        if all(n in widths for n in table.names()):
            return dict(widths)
        return table.resolve(widths)

    # -- analysis --------------------------------------------------------------

    def analyze(
        self,
        widths: Mapping[str, float],
        input_arrivals: Optional[Mapping[str, float]] = None,
        input_slope: float = 30.0,
        clock_arrival: float = 0.0,
    ) -> TimingReport:
        """Run STA.

        Parameters
        ----------
        widths:
            Free-variable assignment or full label->width mapping.
        input_arrivals:
            Arrival time per primary input net (default 0 for all, both
            transitions).
        input_slope:
            Transition time assumed at primary inputs, ps.
        clock_arrival:
            Arrival of both clock edges.
        """
        resolved = self._resolve(widths)
        arrivals: Dict[Tuple[str, Transition], ArrivalEvent] = {}

        input_arrivals = dict(input_arrivals or {})
        for net_name in self.circuit.primary_inputs:
            t0 = input_arrivals.get(net_name, 0.0)
            for trans in Transition:
                arrivals[(net_name, trans)] = ArrivalEvent(
                    net_name, trans, t0, input_slope
                )
        for clk in self.circuit.clock_nets():
            for trans in Transition:
                arrivals[(clk, trans)] = ArrivalEvent(
                    clk, trans, clock_arrival, input_slope * 0.5
                )

        table = self.circuit.size_table
        # Arc relaxations are counted locally and flushed to the metrics
        # registry once per run, keeping the inner loop free of lookups.
        visits = 0
        for stage in self.circuit.topological_stages():
            out = stage.output.name
            load = self.net_load(out, resolved)
            wire_extra, wire_slope = self._wire_terms(out, resolved)
            for pin in stage.inputs:
                for in_trans, out_trans in stage_arcs(stage, pin):
                    src = arrivals.get((pin.net.name, in_trans))
                    if src is None:
                        continue
                    visits += 1
                    delay = wire_extra + self.library.delay(
                        stage, pin, out_trans, load, table, input_slope=src.slope
                    ).evaluate(resolved)
                    slope = wire_slope + self.library.output_slope(
                        stage, pin, out_trans, load, table, input_slope=src.slope
                    ).evaluate(resolved)
                    time = src.time + delay
                    key = (out, out_trans)
                    existing = arrivals.get(key)
                    if existing is None or time > existing.time:
                        arrivals[key] = ArrivalEvent(
                            out,
                            out_trans,
                            time,
                            slope,
                            stage.name,
                            pin.name,
                            src_key=(pin.net.name, in_trans),
                        )
        metrics.counter("sta.analyses").inc()
        metrics.counter("sta.node_visits").inc(visits)
        trace.add_attrs(sta_node_visits=visits)
        return TimingReport(arrivals=arrivals, circuit_name=self.circuit.name)

    def path_delay(
        self,
        hops: Sequence[Hop],
        widths: Mapping[str, float],
        input_slope: float = 30.0,
        net_slopes: Optional[Mapping[Tuple[str, Transition], float]] = None,
    ) -> float:
        """Realized delay along one explicit path.

        Slopes propagate along the path; when ``net_slopes`` (worst slope per
        ``(net, transition)`` from a full analysis) is supplied, each hop
        instead sees the *worst* of the chained and recorded slopes for the
        edge it actually receives — a slow sibling path can degrade the edge
        this path sees at a merge point, the effect the GP's per-path chaining
        cannot see, and the reason the Figure-4 loop has residual mismatch to
        close.  Keying by transition matters: a domino buffer's lazy
        precharge edge must not poison its critical evaluate edge.
        """
        metrics.counter("sta.path_delays").inc()
        resolved = self._resolve(widths)
        table = self.circuit.size_table
        total = 0.0
        chained = input_slope
        if hops:
            first_pin = self.circuit.stage(hops[0][0]).pin(hops[0][1])
            if first_pin.net.kind is NetKind.CLOCK:
                chained = input_slope * 0.5
        for stage_name, pin_name, out_trans in hops:
            stage = self.circuit.stage(stage_name)
            pin = stage.pin(pin_name)
            out = stage.output.name
            load = self.net_load(out, resolved)
            slope_in = chained
            if net_slopes is not None:
                in_trans = arc_input_transition(stage, pin, out_trans)
                recorded = net_slopes.get((pin.net.name, in_trans))
                if recorded is not None:
                    slope_in = max(recorded, chained)
            wire_delay, wire_slope = self._wire_terms(out, resolved)
            total += wire_delay + self.library.delay(
                stage, pin, out_trans, load, table, input_slope=slope_in
            ).evaluate(resolved)
            chained = wire_slope + self.library.output_slope(
                stage, pin, out_trans, load, table, input_slope=slope_in
            ).evaluate(resolved)
        return total
