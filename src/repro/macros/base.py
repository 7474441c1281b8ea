"""Macro database infrastructure.

Section 4: the SMART design database holds "many of the frequently used
implementations of various macros", unsized, with designer-chosen size labels
and hierarchy.  Here:

* :class:`MacroSpec` — what the designer asks for (macro type, width, extras);
* :class:`MacroGenerator` — one topology: can it implement a spec, and the
  parameterized unsized schematic it produces;
* :class:`MacroDatabase` — the expandable registry ("whenever a designer comes
  up with an implementation not available in the database, it can be
  incorporated");
* :class:`MacroBuilder` — authoring helper that keeps generator code close to
  schematic-entry granularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..models.technology import Technology
from ..netlist.circuit import Circuit
from ..netlist.funcspec import FunctionalSpec
from ..netlist.nets import Net, NetKind, Pin, PinClass, PinSpeed
from ..netlist.stages import Stage, StageKind
from ..netlist.validate import validate_circuit


@dataclass(frozen=True)
class MacroSpec:
    """A designer's request for a macro instance.

    Attributes
    ----------
    macro_type:
        Family name: ``"mux"``, ``"incrementor"``, ``"decrementor"``,
        ``"zero_detect"``, ``"decoder"``, ``"adder"``, ``"comparator"``.
    width:
        Bit width (datapath macros) or input count (muxes).
    output_load:
        External load each output drives, fF.
    params:
        Extra family-specific knobs as a tuple of (key, value) pairs so the
        spec stays hashable.
    """

    macro_type: str
    width: int
    output_load: float = 20.0
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"macro width must be >= 1, got {self.width}")
        if self.output_load < 0:
            raise ValueError("output load must be nonnegative")

    def param(self, key: str, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default

    def with_params(self, **extra) -> "MacroSpec":
        merged = dict(self.params)
        merged.update(extra)
        return MacroSpec(
            self.macro_type,
            self.width,
            self.output_load,
            tuple(sorted(merged.items())),
        )


class MacroGenerator:
    """One topology in the database.  Subclasses set ``name``/``macro_type``
    and implement :meth:`applicable` + :meth:`build`."""

    #: Unique topology name, e.g. ``"mux/strong_mutex_passgate"``.
    name: str = ""
    #: Macro family this topology implements.
    macro_type: str = ""
    #: One-line description shown in advisor reports.
    description: str = ""

    def applicable(self, spec: MacroSpec) -> bool:
        """Can this topology implement ``spec``?"""
        return spec.macro_type == self.macro_type

    def build(self, spec: MacroSpec, tech: Technology) -> Circuit:
        raise NotImplementedError

    def functional_spec(self, spec: MacroSpec) -> Optional[FunctionalSpec]:
        """The golden function of the macro this generator builds for
        ``spec``, or None when the topology has no reference semantics.

        All topologies of one macro family must return specs with the same
        ``golden`` marker — the switch-level verifier (SVC401) proves each
        of them equivalent to that *single* reference function, which is
        what makes the database's topology choices interchangeable.  The
        built-in generators return one shared (frozen) spec object per
        golden-function arguments, so its memoized facet digest serves
        every circuit built for the same request.
        """
        return None

    def generate(self, spec: MacroSpec, tech: Technology) -> Circuit:
        """Build + validate.  All macros come out of the database clean."""
        if not self.applicable(spec):
            raise ValueError(f"{self.name} cannot implement {spec}")
        circuit = self.build(spec, tech)
        circuit.functional_spec = self.functional_spec(spec)
        validate_circuit(circuit).raise_if_failed()
        return circuit


class MacroDatabase:
    """The expandable topology registry."""

    def __init__(self) -> None:
        self._generators: Dict[str, MacroGenerator] = {}

    def register(self, generator: MacroGenerator) -> MacroGenerator:
        if not generator.name or not generator.macro_type:
            raise ValueError("generator needs name and macro_type")
        if generator.name in self._generators:
            raise ValueError(f"duplicate topology name {generator.name}")
        self._generators[generator.name] = generator
        return generator

    def __contains__(self, name: str) -> bool:
        return name in self._generators

    def __len__(self) -> int:
        return len(self._generators)

    def generator(self, name: str) -> MacroGenerator:
        try:
            return self._generators[name]
        except KeyError:
            raise KeyError(
                f"no topology {name!r}; known: {sorted(self._generators)}"
            )

    def topologies(self, macro_type: Optional[str] = None) -> List[MacroGenerator]:
        gens = self._generators.values()
        if macro_type is None:
            return sorted(gens, key=lambda g: g.name)
        return sorted(
            (g for g in gens if g.macro_type == macro_type), key=lambda g: g.name
        )

    def applicable(self, spec: MacroSpec) -> List[MacroGenerator]:
        """Topology choices for a spec (the entry point of Figure 1)."""
        return [g for g in self.topologies(spec.macro_type) if g.applicable(spec)]

    def generate(self, name: str, spec: MacroSpec, tech: Technology) -> Circuit:
        return self.generator(name).generate(spec, tech)


class MacroBuilder:
    """Schematic-entry helper used by the generators.

    Wraps a :class:`Circuit` with size-label declaration and one-liner stage
    constructors so generator code reads like the Figure-2 schematics.
    """

    def __init__(self, name: str, tech: Technology):
        self.circuit = Circuit(name)
        self.tech = tech

    # -- nets ------------------------------------------------------------------

    def input(
        self, name: str, wire_cap: float = 0.0, phase: Optional[str] = None
    ) -> Net:
        net = self.circuit.add_net(name, NetKind.SIGNAL, wire_cap)
        self.circuit.mark_input(name)
        if phase is not None:
            self.circuit.declare_input_phase(name, phase)
        return net

    def output(self, name: str, load: float = 0.0, wire_res: float = 0.0) -> Net:
        self.circuit.add_net(name, NetKind.SIGNAL)
        self.circuit.mark_output(name, external_load=load)
        if wire_res > 0.0:
            old = self.circuit.net(name)
            replacement = Net(
                old.name, old.kind, old.wire_cap, old.external_load, wire_res
            )
            self.circuit.nets[name] = replacement
            self.circuit._rebind_net(replacement)
        return self.circuit.net(name)

    def clock(self, name: str = "clk") -> Net:
        return self.circuit.add_net(name, NetKind.CLOCK)

    def wire(self, name: str, wire_cap: float = 0.0, wire_res: float = 0.0) -> Net:
        net = self.circuit.add_net(name, NetKind.SIGNAL, wire_cap)
        if wire_res > 0.0:
            replacement = Net(net.name, net.kind, net.wire_cap, 0.0, wire_res)
            self.circuit.nets[name] = replacement
            self.circuit._rebind_net(replacement)
            return replacement
        return net

    # -- size labels -------------------------------------------------------------

    def size(
        self,
        label: str,
        lower: Optional[float] = None,
        upper: Optional[float] = None,
        pinned: Optional[float] = None,
        ratio_of: Optional[Tuple[str, float]] = None,
    ) -> str:
        self.circuit.size_table.declare(
            label,
            lower if lower is not None else self.tech.min_width,
            upper if upper is not None else self.tech.max_width,
            pinned,
            ratio_of,
        )
        return label

    # -- stages ---------------------------------------------------------------------

    def _stage(
        self,
        name: str,
        kind: StageKind,
        pins: Sequence[Pin],
        out: Net,
        size_vars: Mapping[str, str],
        params: Optional[Mapping[str, object]] = None,
    ) -> Stage:
        stage = Stage(
            name=name,
            kind=kind,
            inputs=list(pins),
            output=out,
            size_vars=dict(size_vars),
            params=dict(params or {}),
        )
        self.circuit.add_stage(stage)
        return stage

    def inv(
        self,
        name: str,
        data: Net,
        out: Net,
        pull_up: str,
        pull_down: str,
        skew: Optional[str] = None,
    ) -> Stage:
        params = {"skew": skew} if skew else {}
        return self._stage(
            name,
            StageKind.INV,
            [Pin("a", data)],
            out,
            {"pull_up": pull_up, "pull_down": pull_down},
            params,
        )

    def gate(
        self,
        name: str,
        kind: StageKind,
        inputs: Sequence[Net],
        out: Net,
        pull_up: str,
        pull_down: str,
        speeds: Optional[Sequence[Optional[PinSpeed]]] = None,
        params: Optional[Mapping[str, object]] = None,
    ) -> Stage:
        """A static NAND/NOR/AOI/XOR stage."""
        speeds = speeds or [None] * len(inputs)
        pins = [
            Pin(f"in{i}", net, PinClass.DATA, speed)
            for i, (net, speed) in enumerate(zip(inputs, speeds))
        ]
        return self._stage(
            name, kind, pins, out, {"pull_up": pull_up, "pull_down": pull_down}, params
        )

    def nand(self, name: str, inputs: Sequence[Net], out: Net, pull_up: str,
             pull_down: str, **kw) -> Stage:
        return self.gate(name, StageKind.NAND, inputs, out, pull_up, pull_down, **kw)

    def nor(self, name: str, inputs: Sequence[Net], out: Net, pull_up: str,
            pull_down: str, **kw) -> Stage:
        return self.gate(name, StageKind.NOR, inputs, out, pull_up, pull_down, **kw)

    def xor(self, name: str, a: Net, b: Net, out: Net, pull_up: str,
            pull_down: str) -> Stage:
        return self.gate(name, StageKind.XOR, [a, b], out, pull_up, pull_down)

    def passgate(
        self,
        name: str,
        data: Net,
        select: Net,
        out: Net,
        pass_label: str,
        sel_inv_label: str,
        mutex: str = "strong",
    ) -> Stage:
        pins = [
            Pin("d", data, PinClass.DATA),
            Pin("s", select, PinClass.SELECT),
        ]
        return self._stage(
            name,
            StageKind.PASSGATE,
            pins,
            out,
            {"pass": pass_label, "sel_inv": sel_inv_label},
            {"mutex": mutex},
        )

    def tristate(
        self,
        name: str,
        data: Net,
        enable: Net,
        out: Net,
        pull_up: str,
        pull_down: str,
    ) -> Stage:
        pins = [
            Pin("d", data, PinClass.DATA),
            Pin("en", enable, PinClass.SELECT),
        ]
        return self._stage(
            name,
            StageKind.TRISTATE,
            pins,
            out,
            {"pull_up": pull_up, "pull_down": pull_down},
        )

    def domino(
        self,
        name: str,
        legs: Sequence[Sequence[Tuple[Net, PinClass]]],
        clock: Net,
        out: Net,
        precharge: str,
        data: str,
        evaluate: Optional[str] = None,
        speeds: Optional[Mapping[str, PinSpeed]] = None,
    ) -> Stage:
        """A domino node.  ``legs`` is a list of legs, each a list of
        ``(net, pin_class)`` from the node downward; legs may have different
        series depths (carry-lookahead nodes).  ``evaluate=None`` makes the
        node D2 (footless)."""
        if not legs or any(not leg for leg in legs):
            raise ValueError(f"domino {name}: needs nonempty legs")
        leg_sizes = tuple(len(leg) for leg in legs)
        leg_series = max(leg_sizes)
        speeds = dict(speeds or {})
        pins = [Pin("clk", clock, PinClass.CLOCK)]
        for li, leg in enumerate(legs):
            for si, (net, pin_class) in enumerate(leg):
                pin_name = f"l{li}s{si}"
                pins.append(
                    Pin(pin_name, net, pin_class, speeds.get(net.name))
                )
        size_vars = {"precharge": precharge, "data": data}
        clocked = evaluate is not None
        if clocked:
            size_vars["evaluate"] = evaluate
        return self._stage(
            name,
            StageKind.DOMINO,
            pins,
            out,
            size_vars,
            {
                "clocked": clocked,
                "leg_series": leg_series,
                "legs": len(legs),
                "leg_sizes": leg_sizes,
            },
        )

    def done(self) -> Circuit:
        return self.circuit
