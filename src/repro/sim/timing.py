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

Each circuit's arcs are compiled once into an :class:`ArcTable` of
posynomials that every analyzer, the constraint generator and the interval
screen share; a measurement evaluates each arc once per sizing and then
walks the graph with float arithmetic.  The constraint generator reads the
same arcs as arrays (:class:`ArcProgram`), built once per table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..models.gates import LN2, SLOPE_LEAK, ModelLibrary, Transition
from ..netlist.circuit import Circuit
from ..netlist.memo import circuit_memo
from ..netlist.nets import NetKind, Pin, PinClass
from ..netlist.stages import Stage, StageKind
from ..obs import metrics, trace
from ..posy import Posynomial, posy_sum
from ..posy.rows import MonomialIndex

#: A hop along a timing path: (stage name, input pin name, output transition).
Hop = Tuple[str, str, Transition]
#: A timing-graph node: (net name, transition).
NetKey = Tuple[str, Transition]
#: One arc at one sizing: (delay, slope) at zero input slope, ps, and the
#: node the arc leaves from.
ArcValue = Tuple[float, float, NetKey]
#: An evaluation point: (widths as given, every label's width, arc values).
Point = Tuple[Dict[str, float], Dict[str, float], Dict[Hop, ArcValue]]


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


class ArcProgram:
    """Every arc of an :class:`ArcTable` as term segments over one
    :class:`~repro.posy.rows.MonomialIndex`.

    ``arc_ids`` numbers the arcs in schedule order.  Arc ``a``'s delay
    terms are ``term_ids`` / ``term_coeffs`` over
    ``delay_start[a] : delay_start[a] + delay_len[a]`` in the delay
    posynomial's insertion order, and likewise its slope terms;
    ``constant_slot`` is one extra entry, the constant monomial with
    coefficient 1.
    """

    __slots__ = (
        "index", "arc_ids", "term_ids", "term_coeffs", "delay_start",
        "delay_len", "slope_start", "slope_len", "constant_slot",
    )

    def __init__(
        self,
        hops: Sequence[Hop],
        arcs: Sequence[Tuple[Posynomial, Posynomial]],
    ):
        self.index = MonomialIndex(
            sig for pair in arcs for posy in pair for sig, _ in posy.items()
        )
        ids = self.index.ids
        self.arc_ids = {hop: a for a, hop in enumerate(hops)}
        term_ids: List[int] = []
        term_coeffs: List[float] = []
        bounds: List[int] = []
        for pair in arcs:
            for posy in pair:
                bounds.append(len(term_ids))
                for sig, coeff in posy.items():
                    term_ids.append(ids[sig])
                    term_coeffs.append(coeff)
        bounds.append(len(term_ids))
        self.constant_slot = len(term_ids)
        term_ids.append(ids[()])
        term_coeffs.append(1.0)
        self.term_ids = np.array(term_ids, dtype=np.intp)
        self.term_coeffs = np.array(term_coeffs)
        edges = np.array(bounds, dtype=np.intp)
        lengths = np.diff(edges)
        self.delay_start = edges[:-1:2]
        self.delay_len = lengths[::2]
        self.slope_start = edges[1:-1:2]
        self.slope_len = lengths[1::2]


class ArcTable:
    """The compiled hop model of one circuit under one size-table state.

    Filled on first use and then only read: per arc ``(stage, pin, output
    transition)`` the ``(delay, slope)`` posynomials at zero input slope,
    Elmore wire terms included, plus the timing-graph node the arc leaves
    from; the load posynomial per net and, per wired net, the far-side
    capacitance of its Elmore term; and
    ``schedule``, every arc in topological stage order, for :meth:`analyze
    <StaticTimingAnalyzer.analyze>`.  It also keeps the numeric arc values
    of the latest width point, so an ``analyze`` followed by any number of
    ``path_delay`` calls at the same widths evaluates each arc once.

    One table per circuit, library content
    (:meth:`~repro.models.gates.ModelLibrary.content_key`) and size-table
    state lives in the circuit's memo
    (:func:`~repro.netlist.memo.circuit_memo`): every analyzer over that
    circuit shares it, whichever library object it was given; it dies
    with the circuit, and an in-place edit drops it
    (:func:`~repro.netlist.memo.forget`).  A table holds names,
    posynomials and floats only — never the circuit.  ``program``, the
    array form of every arc, is built on first use by
    :meth:`StaticTimingAnalyzer.arc_program`.
    """

    __slots__ = ("arcs", "loads", "far_caps", "schedule", "point", "program")

    def __init__(self) -> None:
        #: hop -> (delay, slope, (input net, input transition))
        self.arcs: Dict[Hop, Tuple[Posynomial, Posynomial, NetKey]] = {}
        self.loads: Dict[str, Posynomial] = {}
        #: wired net -> capacitance beyond its wire resistance
        self.far_caps: Dict[str, Posynomial] = {}
        #: (hop, source node, output node) per arc, stages in topological
        #: order; built by the first ``analyze``.
        self.schedule: Optional[List[Tuple[Hop, NetKey, NetKey]]] = None
        #: The latest evaluation: (widths as given, resolved widths,
        #: {hop: (delay, slope, source node)}).
        self.point: Optional[Point] = None
        self.program: Optional[ArcProgram] = None


class StaticTimingAnalyzer:
    """Propagates arrivals/slopes through a circuit at concrete widths.

    Every analyzer reads the circuit's shared :class:`ArcTable`; a hop
    entered with input slope ``s_in`` costs ``d0 + slope_sensitivity·s_in``
    and launches ``s0 + SLOPE_LEAK·s_in``, with ``(d0, s0)`` the arc's
    posynomials evaluated at the widths (equations (1)/(2)).
    """

    def __init__(self, circuit: Circuit, library: ModelLibrary):
        self.circuit = circuit
        self.library = library
        #: (circuit memo, size-variable snapshot, table) of the last lookup.
        self._bound: Optional[Tuple[dict, tuple, ArcTable]] = None

    # -- the shared arc table --------------------------------------------------

    def _lookup(self) -> Tuple[ArcTable, bool]:
        """This circuit's table for the current size-table state, and
        whether this call built it.  Collapse's ties and designer pins
        replace :class:`SizeVar` objects, so an unchanged snapshot of them
        (compared by identity first) means an unchanged state."""
        memo = circuit_memo(self.circuit)
        snapshot = tuple(self.circuit.size_table)
        bound = self._bound
        if bound is not None and bound[0] is memo and bound[1] == snapshot:
            return bound[2], False
        key = (
            ArcTable,
            self.library.content_key(),
            self.circuit.size_table.state(),
        )
        table = memo.get(key)
        built = table is None
        if built:
            table = memo[key] = ArcTable()
            metrics.counter("sta.arc_tables").inc()
        self._bound = (memo, snapshot, table)
        return table, built

    def _arc(
        self, table: ArcTable, hop: Hop
    ) -> Tuple[Posynomial, Posynomial, NetKey]:
        arc = table.arcs.get(hop)
        if arc is not None:
            return arc
        stage_name, pin_name, out_trans = hop
        stage = self.circuit.stage(stage_name)
        pin = stage.pin(pin_name)
        out = stage.output
        delay, slope = self.library.arc(
            stage, pin, out_trans, self._load(table, out.name),
            self.circuit.size_table,
        )
        if out.wire_res > 0.0:
            far = self._far_cap(table, out.name)
            delay = delay + LN2 * out.wire_res * far
            slope = slope + self.library.tech.slope_gain * out.wire_res * far
        source = (pin.net.name, arc_input_transition(stage, pin, out_trans))
        arc = table.arcs[hop] = (delay, slope, source)
        return arc

    def _load(self, table: ArcTable, net_name: str) -> Posynomial:
        total = table.loads.get(net_name)
        if total is not None:
            return total
        net = self.circuit.net(net_name)
        size_table = self.circuit.size_table
        parts = [
            self.library.input_cap(stage, pin, size_table)
            for stage, pin in self.circuit.fanout_of(net_name)
        ]
        parts.extend(
            self.library.output_parasitic(driver, size_table)
            for driver in self.circuit.drivers_of(net_name)
        )
        total = posy_sum(parts)
        if net.fixed_cap > 0:
            total = total + net.fixed_cap
        table.loads[net_name] = total
        return total

    def _far_cap(self, table: ArcTable, net_name: str) -> Posynomial:
        total = table.far_caps.get(net_name)
        if total is not None:
            return total
        net = self.circuit.net(net_name)
        size_table = self.circuit.size_table
        total = posy_sum(
            self.library.input_cap(stage, pin, size_table)
            for stage, pin in self.circuit.fanout_of(net_name)
        )
        fixed = net.external_load + net.wire_cap / 2.0
        if fixed > 0:
            total = total + fixed
        table.far_caps[net_name] = total
        return total

    def _schedule(self, table: ArcTable) -> List[Tuple[Hop, NetKey, NetKey]]:
        if table.schedule is None:
            schedule = []
            for stage in self.circuit.topological_stages():
                out = stage.output.name
                for pin in stage.inputs:
                    for in_trans, out_trans in stage_arcs(stage, pin):
                        schedule.append((
                            (stage.name, pin.name, out_trans),
                            (pin.net.name, in_trans),
                            (out, out_trans),
                        ))
            table.schedule = schedule
        return table.schedule

    def _point(self, table: ArcTable, widths: Mapping[str, float]) -> Point:
        """The table's latest point when its widths equal ``widths``, else
        a new one (arc values filled lazily by :meth:`_evaluate`)."""
        point = table.point
        if point is None or point[0] != widths:
            point = table.point = (dict(widths), self._resolve(widths), {})
        return point

    def _evaluate(self, table: ArcTable, point: Point, hop: Hop) -> ArcValue:
        """Evaluate one arc at ``point`` and record it there."""
        delay, slope, source = self._arc(table, hop)
        resolved = point[1]
        value = point[2][hop] = (
            delay.evaluate(resolved), slope.evaluate(resolved), source
        )
        return value

    # -- posynomial views ----------------------------------------------------

    def load_posynomial(self, net_name: str) -> Posynomial:
        """Total capacitance on a net, fF: fanout gate caps + wire/external
        + every driver's own output diffusion (so shared pass-gate/tri-state
        merge nodes count all their parasitics)."""
        return self._load(self._lookup()[0], net_name)

    def far_cap_posynomial(self, net_name: str) -> Posynomial:
        """Capacitance on the *far* side of a net's wire resistance, fF:
        fanout gates, external load, and half the distributed wire cap."""
        return self._far_cap(self._lookup()[0], net_name)

    def arc_posynomials(
        self, stage: Stage, pin: Pin, out_trans: Transition
    ) -> Tuple[Posynomial, Posynomial]:
        """``(delay, slope)`` of one arc at zero input slope, Elmore wire
        terms included — the hop model every timing consumer shares.  A hop
        entered with input slope ``s_in`` costs ``delay +
        slope_sensitivity * s_in`` and launches ``slope + SLOPE_LEAK *
        s_in`` (equations (1)/(2))."""
        return self.path_arcs([(stage.name, pin.name, out_trans)])[0]

    def path_arcs(
        self, hops: Sequence[Hop]
    ) -> List[Tuple[Posynomial, Posynomial]]:
        """:meth:`arc_posynomials` of every hop of a path."""
        table = self._lookup()[0]
        return [self._arc(table, hop)[:2] for hop in hops]

    def arc_program(self) -> ArcProgram:
        """The shared table's :class:`ArcProgram`, every arc of the circuit
        compiled on the first call."""
        table = self._lookup()[0]
        if table.program is None:
            hops = [hop for hop, _source, _node in self._schedule(table)]
            table.program = ArcProgram(
                hops, [self._arc(table, hop)[:2] for hop in hops]
            )
        return table.program

    def net_load(self, net_name: str, widths: Mapping[str, float]) -> float:
        """:meth:`load_posynomial` at concrete widths, fF."""
        return self.load_posynomial(net_name).evaluate(self._resolve(widths))

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
        table, built = self._lookup()
        point = self._point(table, widths)
        values = point[2]
        # node -> (time, slope, arc, source node); events are built at the end
        latest: Dict[NetKey, tuple] = {}
        input_arrivals = dict(input_arrivals or {})
        for net_name in self.circuit.primary_inputs:
            t0 = input_arrivals.get(net_name, 0.0)
            for trans in Transition:
                latest[(net_name, trans)] = (t0, input_slope, None, None)
        for clk in self.circuit.clock_nets():
            for trans in Transition:
                latest[(clk, trans)] = (clock_arrival, input_slope * 0.5, None, None)

        sens = self.library.tech.slope_sensitivity
        # Work is counted locally and flushed to the metrics registry once
        # per run, keeping the inner loop free of lookups.
        visits = evaluations = 0
        for hop, source, node in self._schedule(table):
            src = latest.get(source)
            if src is None:
                continue
            visits += 1
            value = values.get(hop)
            if value is None:
                value = self._evaluate(table, point, hop)
                evaluations += 1
            time = src[0] + value[0] + sens * src[1]
            existing = latest.get(node)
            if existing is None or time > existing[0]:
                latest[node] = (
                    time, value[1] + SLOPE_LEAK * src[1], hop, source
                )
        arrivals = {
            node: ArrivalEvent(
                node[0], node[1], time, slope,
                hop[0] if hop else None, hop[1] if hop else None,
                src_key=source,
            )
            for node, (time, slope, hop, source) in latest.items()
        }
        metrics.counter("sta.analyses").inc()
        metrics.counter("sta.node_visits").inc(visits)
        metrics.counter("sta.arc_evaluations").inc(evaluations)
        trace.add_attrs(
            sta_node_visits=visits,
            sta_arc_tables=int(built),
            sta_arc_evaluations=evaluations,
        )
        return TimingReport(arrivals=arrivals, circuit_name=self.circuit.name)

    def path_delay(
        self,
        hops: Sequence[Hop],
        widths: Mapping[str, float],
        input_slope: float = 30.0,
        net_slopes: Optional[Mapping[NetKey, float]] = None,
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
        table, _built = self._lookup()
        point = self._point(table, widths)
        values = point[2]
        sens = self.library.tech.slope_sensitivity
        evaluations = 0
        total = 0.0
        chained = input_slope
        for index, hop in enumerate(hops):
            value = values.get(hop)
            if value is None:
                value = self._evaluate(table, point, hop)
                evaluations += 1
            delay, slope, source = value
            if index == 0 and self.circuit.net(source[0]).kind is NetKind.CLOCK:
                chained = input_slope * 0.5
            slope_in = chained
            if net_slopes is not None:
                recorded = net_slopes.get(source)
                if recorded is not None and recorded > chained:
                    slope_in = recorded
            total += delay + sens * slope_in
            chained = slope + SLOPE_LEAK * slope_in
        if evaluations:
            metrics.counter("sta.arc_evaluations").inc(evaluations)
        return total
