"""Seeded wiring mutants for the SVC4xx corpus.

The SVC4xx rules are only credible if they catch real generator bugs, so
the corpus plants one per macro family: it takes the shipped circuit,
swaps or rebinds a single select/data connection, and pins the exact SVC
rule set the mutant must fire.  The helpers perform such surgical rewires
on an already-built :class:`~repro.netlist.circuit.Circuit` while keeping
its fanout index consistent.

They are *test instrumentation*, not a design API — nothing in the product
path mutates built circuits.
"""

from __future__ import annotations

from typing import Iterator

from ...macros.base import MacroSpec
from ...macros.registry import default_database
from ...models.technology import Technology
from ...netlist.circuit import Circuit
from ...netlist.memo import forget
from ..corpus import Mutant


def rebind_pin(circuit: Circuit, stage_name: str, pin_name: str, net_name: str) -> None:
    """Reconnect one input pin of ``stage_name`` to ``net_name``."""
    stage = circuit.stage(stage_name)
    for pin in stage.inputs:
        if pin.name == pin_name:
            old = pin.net.name
            pin.net = circuit.net(net_name)
            _refresh_fanout(circuit, old, net_name)
            forget(circuit)
            return
    raise KeyError(f"stage {stage_name} has no pin {pin_name}")


def swap_pins(circuit: Circuit, stage_name: str, pin_a: str, pin_b: str) -> None:
    """Swap the nets of two input pins of one stage (one crossed wire)."""
    stage = circuit.stage(stage_name)
    pins = {pin.name: pin for pin in stage.inputs}
    if pin_a not in pins or pin_b not in pins:
        raise KeyError(f"stage {stage_name} lacks pins {pin_a}/{pin_b}")
    a, b = pins[pin_a], pins[pin_b]
    a.net, b.net = b.net, a.net
    _refresh_fanout(circuit, a.net.name, b.net.name)
    forget(circuit)


def _refresh_fanout(circuit: Circuit, *net_names: str) -> None:
    """Rebuild the fanout index entries touched by a rewire."""
    for name in set(net_names):
        circuit._fanout[name] = [
            (stage, pin)
            for stage in circuit.stages
            for pin in stage.inputs
            if pin.net.name == name
        ]


#: ``(label, topology, macro, width, params, rewire, expected)``: one
#: swapped or rebound select/data connection per macro family and the SVC
#: rules it fires.  A wrong function is always SVC401; rewired selects also
#: float or short the bus they steer.
MUTATIONS = (
    ("mux", "mux/strong_mutex_passgate", "mux", 4, (),
     lambda c: rebind_pin(c, "pass0", "s", "s1"),
     {"SVC401", "SVC403", "SVC404"}),
    ("mux-domino", "mux/unsplit_domino", "mux", 4, (),
     # Cross-leg swap: in-leg swaps are AND-commutative no-ops.
     lambda c: swap_pins(c, "dom", "l0s1", "l1s1"),
     {"SVC401"}),
    ("adder", "adder/static_ripple", "adder", 4, (),
     lambda c: rebind_pin(c, "hx0", "in1", "a0"),
     {"SVC401"}),
    ("incrementor", "incrementor/ripple", "incrementor", 4, (),
     lambda c: rebind_pin(c, "cnand0", "in1", "a0"),
     {"SVC401"}),
    ("decrementor", "decrementor/ripple", "decrementor", 4, (),
     lambda c: rebind_pin(c, "cnand0", "in1", "ab0"),
     {"SVC401"}),
    ("zero_detect", "zero_detect/static_tree", "zero_detect", 4, (),
     lambda c: rebind_pin(c, "lgate0_0", "in3", "a0"),
     {"SVC401"}),
    ("decoder", "decoder/flat_static", "decoder", 3, (),
     lambda c: rebind_pin(c, "mnand1", "in0", "ab0"),
     {"SVC401"}),
    ("encoder", "encoder/static_tree", "encoder", 3, (),
     lambda c: rebind_pin(c, "b0gate0_0", "in0", "i0"),
     {"SVC401"}),
    ("comparator", "comparator/xorsum2", "comparator", 32, (),
     lambda c: rebind_pin(c, "outgate", "in0", "paireq0"),
     {"SVC401"}),
    ("shifter", "shifter/passgate_barrel", "shifter", 4, (),
     lambda c: rebind_pin(c, "r0rot0", "s", "shb0"),
     {"SVC401", "SVC403", "SVC404", "SVC405"}),
    ("register_file", "register_file/tristate_bitline", "register_file", 2,
     (("registers", 4),),
     lambda c: rebind_pin(c, "bit0reg0", "en", "o1"),
     {"SVC401", "SVC402", "SVC403"}),
)


def mutants(tech=None) -> Iterator[Mutant]:
    """The seeded wiring-mutant corpus."""
    tech = tech or Technology()
    database = default_database()
    for label, topology, macro, width, params, rewire, expected in MUTATIONS:
        circuit = database.generate(
            topology, MacroSpec(macro, width, params=params), tech
        )
        rewire(circuit)
        yield Mutant(label, circuit, frozenset(expected))
