"""Transistor-level netlist substrate: nets, stages, circuits, SPICE I/O."""

from .circuit import Circuit, CircuitError
from .devices import Polarity, Transistor
from .nets import Net, NetKind, Pin, PinClass, PinSpeed
from .memo import circuit_memo, forget
from .sizing_vars import SizeTable, SizeVar
from .spice import circuit_ports, export_circuit, read_spice, write_spice
from .stages import LogicFamily, Stage, StageKind, VDD, VSS
from .validate import ValidationReport, validate_circuit

__all__ = [
    "Circuit",
    "CircuitError",
    "Transistor",
    "Polarity",
    "Net",
    "NetKind",
    "Pin",
    "PinClass",
    "PinSpeed",
    "SizeTable",
    "SizeVar",
    "Stage",
    "StageKind",
    "LogicFamily",
    "VDD",
    "VSS",
    "ValidationReport",
    "validate_circuit",
    "write_spice",
    "read_spice",
    "export_circuit",
    "circuit_ports",
    "circuit_memo",
    "forget",
]
