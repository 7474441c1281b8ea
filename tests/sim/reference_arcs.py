"""The posynomial arc build: the oracle for the array-compiled arc program.

This is how :class:`repro.sim.timing.StaticTimingAnalyzer` compiled a
circuit's arcs before it built them as arrays: per arc, the
:meth:`ModelLibrary.arc <repro.models.gates.ModelLibrary.arc>` posynomials
at the net's total load posynomial, plus the Elmore wire terms at the
far-side capacitance; then every posynomial read back, term by term in
insertion order, into one :class:`~repro.posy.rows.MonomialIndex` and the
``ArcProgram`` segment arrays.  It sums its own loads, so it shares nothing
with the compiler but the model pieces and the arc definitions.
"""

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.models.gates import LN2
from repro.posy import Posynomial, posy_sum
from repro.posy.rows import MonomialIndex
from repro.sim.timing import ArcProgram, Hop, arc_input_transition


class PosynomialArcs:
    """Per-arc ``(delay, slope)`` posynomials of one circuit."""

    def __init__(self, circuit, library):
        self.circuit = circuit
        self.library = library
        self._loads: Dict[str, Posynomial] = {}
        self._far: Dict[str, Posynomial] = {}

    def load(self, net_name: str) -> Posynomial:
        if net_name not in self._loads:
            circuit = self.circuit
            table = circuit.size_table
            total = posy_sum(
                [
                    self.library.input_cap(stage, pin, table)
                    for stage, pin in circuit.fanout_of(net_name)
                ]
                + [
                    self.library.output_parasitic(driver, table)
                    for driver in circuit.drivers_of(net_name)
                ]
            )
            net = circuit.net(net_name)
            if net.fixed_cap > 0:
                total = total + net.fixed_cap
            self._loads[net_name] = total
        return self._loads[net_name]

    def far_cap(self, net_name: str) -> Posynomial:
        if net_name not in self._far:
            circuit = self.circuit
            table = circuit.size_table
            total = posy_sum(
                self.library.input_cap(stage, pin, table)
                for stage, pin in circuit.fanout_of(net_name)
            )
            net = circuit.net(net_name)
            fixed = net.external_load + net.wire_cap / 2.0
            if fixed > 0:
                total = total + fixed
            self._far[net_name] = total
        return self._far[net_name]

    def arc(self, hop: Hop) -> Tuple[Posynomial, Posynomial]:
        stage_name, pin_name, out_trans = hop
        stage = self.circuit.stage(stage_name)
        pin = stage.pin(pin_name)
        out = stage.output
        delay, slope = self.library.arc(
            stage, pin, out_trans, self.load(out.name), self.circuit.size_table
        )
        if out.wire_res > 0.0:
            far = self.far_cap(out.name)
            delay = delay + LN2 * out.wire_res * far
            slope = slope + self.library.tech.slope_gain * out.wire_res * far
        return delay, slope

    def source(self, hop: Hop):
        stage = self.circuit.stage(hop[0])
        pin = stage.pin(hop[1])
        return (pin.net.name, arc_input_transition(stage, pin, hop[2]))


def posynomial_program(
    circuit, library, hops: Sequence[Hop]
) -> Tuple[ArcProgram, List[Tuple[Posynomial, Posynomial]]]:
    """The ``ArcProgram`` over ``hops`` read back from the posynomial build,
    and the posynomials themselves."""
    build = PosynomialArcs(circuit, library)
    arcs = [build.arc(hop) for hop in hops]
    index = MonomialIndex(
        sig for pair in arcs for posy in pair for sig, _ in posy.items()
    )
    term_ids: List[int] = []
    term_coeffs: List[float] = []
    for pair in arcs:
        for posy in pair:
            for sig, coeff in posy.items():
                term_ids.append(index.ids[sig])
                term_coeffs.append(coeff)
    program = ArcProgram(
        hops,
        [build.source(hop) for hop in hops],
        index,
        np.array(term_ids, dtype=np.intp),
        np.array(term_coeffs, dtype=float),
        np.array([len(delay) for delay, _ in arcs], dtype=np.intp),
        np.array([len(slope) for _, slope in arcs], dtype=np.intp),
    )
    return program, arcs
