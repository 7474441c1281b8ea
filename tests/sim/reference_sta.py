"""A slow, independent static timing analyzer: the oracle for the arc table.

This is the per-hop walk :class:`repro.sim.timing.StaticTimingAnalyzer`
used before the arc table.  At every hop it rebuilds the model's delay and
slope at a *float* net load (fanout gate caps, wire/external load, every
driver's diffusion), adds the Elmore wire terms from a separately summed
far-side capacitance, and applies the input-slope terms of equations
(1)/(2) itself.  It shares nothing with the analyzer but the arc
definitions (``stage_arcs``), so a disagreement points at the compiled
table, not at the model.
"""

from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.models.gates import LN2, SLOPE_LEAK, Transition
from repro.netlist.nets import NetKind
from repro.sim.timing import arc_input_transition, stage_arcs

Node = Tuple[str, Transition]


class ReferenceSTA:
    def __init__(self, circuit, library):
        self.circuit = circuit
        self.library = library
        self.tech = library.tech

    def resolve(self, widths: Mapping[str, float]) -> Dict[str, float]:
        table = self.circuit.size_table
        if all(n in widths for n in table.names()):
            return dict(widths)
        return table.resolve(widths)

    def net_load(self, net_name: str, resolved: Mapping[str, float]) -> float:
        net = self.circuit.net(net_name)
        table = self.circuit.size_table
        total = net.fixed_cap
        for stage, pin in self.circuit.fanout_of(net_name):
            total += self.library.input_cap(stage, pin, table).evaluate(resolved)
        for driver in self.circuit.drivers_of(net_name):
            total += self.library.output_parasitic(driver, table).evaluate(resolved)
        return total

    def far_cap(self, net_name: str, resolved: Mapping[str, float]) -> float:
        net = self.circuit.net(net_name)
        table = self.circuit.size_table
        total = net.external_load + net.wire_cap / 2.0
        for stage, pin in self.circuit.fanout_of(net_name):
            total += self.library.input_cap(stage, pin, table).evaluate(resolved)
        return total

    def wire_terms(self, net_name: str, resolved) -> Tuple[float, float]:
        """(Elmore delay, slope degradation) of the net's wire, ps."""
        wire_res = self.circuit.net(net_name).wire_res
        if wire_res <= 0.0:
            return 0.0, 0.0
        far = self.far_cap(net_name, resolved)
        return LN2 * wire_res * far, self.tech.slope_gain * wire_res * far

    def hop(self, stage, pin, out_trans, resolved, slope_in) -> Tuple[float, float]:
        """(delay, output slope) of one hop entered with ``slope_in``."""
        out = stage.output.name
        load = self.net_load(out, resolved)
        table = self.circuit.size_table
        wire_delay, wire_slope = self.wire_terms(out, resolved)
        delay = self.library.delay(stage, pin, out_trans, load, table)
        slope = self.library.output_slope(stage, pin, out_trans, load, table)
        return (
            wire_delay + delay.evaluate(resolved)
            + self.tech.slope_sensitivity * slope_in,
            wire_slope + slope.evaluate(resolved) + SLOPE_LEAK * slope_in,
        )

    def analyze(
        self, widths, input_slope: float = 30.0
    ) -> Dict[Node, Tuple[float, float]]:
        """``(arrival, slope)`` per reached timing-graph node."""
        resolved = self.resolve(widths)
        arrivals: Dict[Node, Tuple[float, float]] = {}
        for net_name in self.circuit.primary_inputs:
            for trans in Transition:
                arrivals[(net_name, trans)] = (0.0, input_slope)
        for clk in self.circuit.clock_nets():
            for trans in Transition:
                arrivals[(clk, trans)] = (0.0, input_slope * 0.5)
        for stage in self.circuit.topological_stages():
            out = stage.output.name
            for pin in stage.inputs:
                for in_trans, out_trans in stage_arcs(stage, pin):
                    src = arrivals.get((pin.net.name, in_trans))
                    if src is None:
                        continue
                    delay, slope = self.hop(stage, pin, out_trans, resolved, src[1])
                    time = src[0] + delay
                    existing = arrivals.get((out, out_trans))
                    if existing is None or time > existing[0]:
                        arrivals[(out, out_trans)] = (time, slope)
        return arrivals

    def path_delay(
        self,
        hops: Sequence,
        widths,
        input_slope: float = 30.0,
        net_slopes: Optional[Mapping[Node, float]] = None,
    ) -> float:
        """Delay along one path; each hop sees the worst of its chained and
        its recorded (``net_slopes``) input slope."""
        resolved = self.resolve(widths)
        total = 0.0
        chained = input_slope
        if hops:
            first = self.circuit.stage(hops[0][0]).pin(hops[0][1])
            if first.net.kind is NetKind.CLOCK:
                chained = input_slope * 0.5
        for stage_name, pin_name, out_trans in hops:
            stage = self.circuit.stage(stage_name)
            pin = stage.pin(pin_name)
            slope_in = chained
            if net_slopes is not None:
                in_trans = arc_input_transition(stage, pin, out_trans)
                recorded = net_slopes.get((pin.net.name, in_trans))
                if recorded is not None:
                    slope_in = max(recorded, chained)
            delay, chained = self.hop(stage, pin, out_trans, resolved, slope_in)
            total += delay
        return total
