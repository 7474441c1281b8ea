"""Macro editing — designer modifications to database schematics.

Section 2: "In a real design, a macro may not always be realized in exactly
the same way it exists in the database.  A few structural changes to the
schematic (e.g., merging in of a few gates of condition logic) may have to be
performed to match RTL ... the designer should be allowed to control
transistor sizes of portions of the macro while letting the automatic sizer
size the rest."

Supported edits:

* :func:`merge_condition_gate` — splice a condition gate (NAND/NOR/INV) in
  front of a macro input, replacing that primary input with the gate's new
  inputs;
* :func:`pin_sizes` / :func:`unpin_sizes` — designer size control per label;
* :func:`retarget_load` — change an output's external load in place.

Every edit re-validates the circuit.  Structural edits call
:func:`~repro.netlist.memo.forget`, dropping the circuit's memoized
analyses (timing arc tables, switch-level extraction); pins only touch
the size table, whose state the timing tables are keyed on.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from ..netlist.circuit import Circuit
from ..netlist.memo import forget
from ..netlist.nets import Net, NetKind, Pin, PinClass
from ..netlist.stages import Stage, StageKind
from ..netlist.validate import validate_circuit

_CONDITION_KINDS = {
    "nand": StageKind.NAND,
    "nor": StageKind.NOR,
    "inv": StageKind.INV,
}


def merge_condition_gate(
    circuit: Circuit,
    input_net: str,
    kind: str,
    new_inputs: Sequence[str],
    pull_up_label: str,
    pull_down_label: str,
    stage_name: Optional[str] = None,
) -> Stage:
    """Drive former primary input ``input_net`` from a new condition gate.

    ``new_inputs`` become primary inputs; ``input_net`` becomes internal.
    Labels are declared with default bounds if new.
    """
    if input_net not in circuit.primary_inputs:
        raise ValueError(f"{input_net} is not a primary input of {circuit.name}")
    try:
        stage_kind = _CONDITION_KINDS[kind]
    except KeyError:
        raise ValueError(f"condition gate kind must be one of {sorted(_CONDITION_KINDS)}")
    if stage_kind is StageKind.INV and len(new_inputs) != 1:
        raise ValueError("an inverter condition gate takes exactly one input")
    if stage_kind is not StageKind.INV and len(new_inputs) < 2:
        raise ValueError(f"{kind} condition gate needs >= 2 inputs")

    circuit.primary_inputs.remove(input_net)
    pins = []
    for name in new_inputs:
        net = circuit.add_net(name, NetKind.SIGNAL)
        circuit.mark_input(name)
        pins.append(Pin(f"in{len(pins)}", net, PinClass.DATA))

    for label in (pull_up_label, pull_down_label):
        if label not in circuit.size_table:
            circuit.size_table.declare(label)

    stage = Stage(
        name=stage_name or f"cond_{input_net}",
        kind=stage_kind,
        inputs=pins,
        output=circuit.net(input_net),
        size_vars={"pull_up": pull_up_label, "pull_down": pull_down_label},
    )
    circuit.add_stage(stage)
    forget(circuit)
    validate_circuit(circuit).raise_if_failed()
    return stage


def pin_sizes(circuit: Circuit, sizes: Mapping[str, float]) -> None:
    """Fix the given labels at designer-chosen widths (the sizer will not
    move them)."""
    for label, width in sizes.items():
        circuit.size_table.pin(label, width)


def unpin_sizes(circuit: Circuit, labels: Sequence[str]) -> None:
    """Return the given labels to the automatic sizer."""
    for label in labels:
        circuit.size_table.unpin(label)


def add_keeper(circuit: Circuit, stage_name: str, ratio: float = 0.1) -> None:
    """Retrofit a half-latch keeper onto a domino stage.

    The Section-2 noise-immunity knob: "on a particularly noisy portion of
    the chip, the designer may like to manually tune certain transistor
    sizes".  ``ratio`` is the keeper width as a fraction of the precharge
    device; the timing models automatically charge the evaluate path with
    the keeper's contention.
    """
    stage = circuit.stage(stage_name)
    if stage.kind is not StageKind.DOMINO:
        raise ValueError(f"{stage_name} is not a domino stage")
    if ratio < 0:
        raise ValueError("keeper ratio must be nonnegative")
    stage.params["keeper"] = float(ratio)
    forget(circuit)
    validate_circuit(circuit).raise_if_failed()


def retarget_load(circuit: Circuit, output_net: str, new_load: float) -> None:
    """Change the external load on a primary output, fF."""
    if output_net not in circuit.primary_outputs:
        raise ValueError(f"{output_net} is not a primary output of {circuit.name}")
    old = circuit.net(output_net)
    replacement = Net(old.name, old.kind, old.wire_cap, new_load, old.wire_res)
    circuit.nets[output_net] = replacement
    circuit._rebind_net(replacement)
    forget(circuit)
