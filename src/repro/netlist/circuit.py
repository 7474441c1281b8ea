"""Circuit container: stage graph + flat transistor expansion.

A :class:`Circuit` is what a macro generator emits and everything downstream
consumes: the sizer and static timing analyzer walk its *stage graph*; area,
power, SPICE export and the transient simulator use the flat transistor view
from :meth:`Circuit.expand_transistors`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

import networkx as nx

from ..posy import Monomial, Posynomial, posy_sum
from .devices import Transistor
from .nets import Net, NetKind, Pin
from .sizing_vars import SizeTable, SizeVar
from .stages import Stage, StageKind, VDD, VSS


class CircuitError(Exception):
    """Structural problem in a circuit."""


#: Behaviors a designer may declare for a primary input (Section 4's "the
#: macro cells carry usage rules" — the interface half of those rules).
#: ``mono_rise``/``mono_fall`` promise a monotone edge during evaluate and a
#: known precharge level; ``steady`` promises stability across the whole
#: clock cycle; ``async`` promises nothing (may glitch at any time).
INPUT_PHASES = ("mono_rise", "mono_fall", "steady", "async")


class Circuit:
    """A hierarchically named, stage-level circuit with shared size labels."""

    def __init__(self, name: str):
        self.name = name
        self.nets: Dict[str, Net] = {}
        self.stages: List[Stage] = []
        self.size_table = SizeTable()
        self.primary_inputs: List[str] = []
        self.primary_outputs: List[str] = []
        #: Declared input behavior per primary-input net (see
        #: :data:`INPUT_PHASES`).  Inputs without a declaration are treated
        #: conservatively by analyses (unknown static level).
        self.input_phases: Dict[str, str] = {}
        self.clock: Optional[str] = None
        #: Golden :class:`~repro.netlist.funcspec.FunctionalSpec` attached
        #: by the macro generator (None for hand-built circuits).  The
        #: switch-level verifier (SVC401) checks the extracted behavior
        #: against it.
        self.functional_spec = None
        self._stage_by_name: Dict[str, Stage] = {}
        self._drivers: Dict[str, Stage] = {}
        self._all_drivers: Dict[str, List[Stage]] = {}
        self._fanout: Dict[str, List[Tuple[Stage, Pin]]] = {}

    # -- construction ------------------------------------------------------

    def add_net(
        self,
        name: str,
        kind: NetKind = NetKind.SIGNAL,
        wire_cap: float = 0.0,
        external_load: float = 0.0,
    ) -> Net:
        """Create (or fetch an identical existing) net."""
        if name in self.nets:
            net = self.nets[name]
            if net.kind is not kind:
                raise CircuitError(f"net {name} redeclared with kind {kind}")
            return net
        net = Net(name, kind, wire_cap, external_load)
        self.nets[name] = net
        if kind is NetKind.CLOCK and self.clock is None:
            self.clock = name
        return net

    def net(self, name: str) -> Net:
        return self.nets[name]

    def _add_net_like(self, template: Net, name: str) -> Net:
        """Add a net copying every electrical property of ``template``."""
        if name in self.nets:
            return self.nets[name]
        net = Net(
            name,
            template.kind,
            template.wire_cap,
            template.external_load,
            template.wire_res,
        )
        self.nets[name] = net
        if template.kind is NetKind.CLOCK and self.clock is None:
            self.clock = name
        return net

    def add_stage(self, stage: Stage) -> Stage:
        if stage.name in self._stage_by_name:
            raise CircuitError(f"duplicate stage name {stage.name}")
        out_name = stage.output.name
        if out_name in self._drivers and stage.kind is not StageKind.TRISTATE and (
            self._drivers[out_name].kind is not StageKind.TRISTATE
        ):
            if stage.kind is not StageKind.PASSGATE or (
                self._drivers[out_name].kind is not StageKind.PASSGATE
            ):
                raise CircuitError(
                    f"net {out_name} driven by both {self._drivers[out_name].name} "
                    f"and {stage.name}"
                )
        self.stages.append(stage)
        self._stage_by_name[stage.name] = stage
        self._drivers.setdefault(out_name, stage)
        self._all_drivers.setdefault(out_name, []).append(stage)
        for pin in stage.inputs:
            self._fanout.setdefault(pin.net.name, []).append((stage, pin))
        return stage

    def mark_input(self, net_name: str) -> None:
        if net_name not in self.nets:
            raise CircuitError(f"unknown net {net_name}")
        if net_name not in self.primary_inputs:
            self.primary_inputs.append(net_name)

    def declare_input_phase(self, net_name: str, phase: str) -> None:
        """Declare a primary input's clocking behavior (see
        :data:`INPUT_PHASES`).  The dataflow analyses seed their lattices
        from these declarations, which also lets ERC101 resolve inversion
        parity through a primary input instead of bailing out."""
        if net_name not in self.nets:
            raise CircuitError(f"unknown net {net_name}")
        if phase not in INPUT_PHASES:
            raise CircuitError(
                f"net {net_name}: unknown input phase {phase!r} "
                f"(expected one of {INPUT_PHASES})"
            )
        self.input_phases[net_name] = phase

    def input_phase(self, net_name: str) -> Optional[str]:
        return self.input_phases.get(net_name)

    def mark_output(self, net_name: str, external_load: float = 0.0) -> None:
        if net_name not in self.nets:
            raise CircuitError(f"unknown net {net_name}")
        if net_name not in self.primary_outputs:
            self.primary_outputs.append(net_name)
        if external_load:
            old = self.nets[net_name]
            self.nets[net_name] = Net(
                old.name, old.kind, old.wire_cap, external_load, old.wire_res
            )
            self._rebind_net(self.nets[net_name])

    def _rebind_net(self, net: Net) -> None:
        """Point every stage pin/output at a replacement Net object."""
        for stage in self.stages:
            if stage.output.name == net.name:
                stage.output = net
            for pin in stage.inputs:
                if pin.net.name == net.name:
                    pin.net = net

    # -- queries -----------------------------------------------------------

    def stage(self, name: str) -> Stage:
        return self._stage_by_name[name]

    def driver_of(self, net_name: str) -> Optional[Stage]:
        """The stage driving a net (first driver for shared tri-state buses)."""
        return self._drivers.get(net_name)

    def drivers_of(self, net_name: str) -> List[Stage]:
        return list(self._all_drivers.get(net_name, ()))

    def fanout_of(self, net_name: str) -> List[Tuple[Stage, Pin]]:
        """(stage, pin) pairs loading a net."""
        return list(self._fanout.get(net_name, ()))

    def stage_graph(self) -> "nx.DiGraph":
        """Directed stage graph: edge A->B when A's output feeds a pin of B."""
        graph = nx.DiGraph()
        graph.add_nodes_from(s.name for s in self.stages)
        for stage in self.stages:
            for sink, pin in self.fanout_of(stage.output.name):
                graph.add_edge(stage.name, sink.name, pin=pin.name)
        return graph

    def topological_stages(self) -> List[Stage]:
        """Stages in topological order (raises on combinational loops,
        naming the stages on one detected cycle)."""
        graph = self.stage_graph()
        try:
            order = list(nx.topological_sort(graph))
        except nx.NetworkXUnfeasible as exc:
            try:
                cycle = [edge[0] for edge in nx.find_cycle(graph)]
            except nx.NetworkXNoCycle:  # pragma: no cover - unfeasible => cycle
                cycle = []
            through = (
                " through stages " + " -> ".join(cycle + cycle[:1])
                if cycle
                else ""
            )
            raise CircuitError(
                f"{self.name}: combinational loop{through}"
            ) from exc
        return [self._stage_by_name[n] for n in order]

    def clock_nets(self) -> List[str]:
        return [n.name for n in self.nets.values() if n.kind is NetKind.CLOCK]

    # -- size/area accounting -----------------------------------------------

    def expand_transistors(self, widths: Mapping[str, float]) -> List[Transistor]:
        """Flat transistor list at the given *label* widths.

        ``widths`` may be a free-variable assignment (it is resolved through
        the size table) or a full label->width mapping.
        """
        resolved = self._resolve_widths(widths)
        devices: List[Transistor] = []
        for stage in self.stages:
            devices.extend(stage.expand(resolved))
        return devices

    def _resolve_widths(self, widths: Mapping[str, float]) -> Dict[str, float]:
        if all(name in widths for name in self.size_table.names()):
            return dict(widths)
        return self.size_table.resolve(widths)

    def width_totals(self, widths: Mapping[str, float]) -> Tuple[float, float]:
        """``(total transistor width, gate width on clock nets)``, µm, from
        one expansion: the paper's area proxy and the clock load."""
        clock_nets = set(self.clock_nets())
        area: List[float] = []
        clock: List[float] = []
        for t in self.expand_transistors(widths):
            area.append(t.width)
            if t.gate in clock_nets:
                clock.append(t.width)
        return sum(area), sum(clock)

    def total_width(self, widths: Mapping[str, float]) -> float:
        """Total transistor width, µm — the paper's area proxy."""
        return self.width_totals(widths)[0]

    def transistor_count(self) -> int:
        return sum(stage.transistor_count() for stage in self.stages)

    def area_posynomial(self) -> Posynomial:
        """Total transistor width as a posynomial in the free size labels."""
        terms: List[Monomial] = []
        for stage in self.stages:
            dummy = {label: 1.0 for label in stage.size_vars.values()}
            for device in stage.expand(dummy):
                terms.append(device.factor * self.size_table.monomial(device.label))
        return posy_sum(terms)

    def clock_load_posynomial(self) -> Posynomial:
        """Total gate width hanging on clock nets (clock power proxy)."""
        clock_nets = set(self.clock_nets())
        if not clock_nets:
            return Posynomial.zero()
        terms: List[Monomial] = []
        for stage in self.stages:
            dummy = {label: 1.0 for label in stage.size_vars.values()}
            for device in stage.expand(dummy):
                if device.gate in clock_nets:
                    terms.append(device.factor * self.size_table.monomial(device.label))
        return posy_sum(terms)

    def clock_load_width(self, widths: Mapping[str, float]) -> float:
        """Gate width on clock nets, µm."""
        return self.width_totals(widths)[1]

    # -- composition ---------------------------------------------------------

    def merge(
        self,
        other: "Circuit",
        prefix: str = "",
        port_map: Optional[Dict[str, str]] = None,
    ) -> Dict[str, str]:
        """Instantiate ``other`` inside this circuit.

        Stage and internal-net names get ``prefix/`` prepended; nets that
        already exist in ``self`` under the *unprefixed* name are shared
        (that is how callers wire sub-circuits together: create the boundary
        nets first, then merge).  ``port_map`` explicitly binds nets of
        ``other`` (by their local names, usually its primary I/O) to nets of
        ``self`` — the block-composition hook: a mapped port joins the
        target net *as it exists here* (the target's caps/loads win over the
        sub-circuit's characterization loads), and the sub-circuit's input
        phase declaration for a mapped port is dropped: a connected port's
        behavior is whatever its block-level driver provides, not what the
        macro was characterized against.  Returns the net-name mapping used.
        """
        sep = f"{prefix}/" if prefix else ""
        port_map = dict(port_map or {})
        mapping: Dict[str, str] = {}
        for net in other.nets.values():
            if net.name in port_map:
                target = port_map[net.name]
                mapping[net.name] = target
                if target not in self.nets:
                    self._add_net_like(net, target)
            elif net.name in (VDD, VSS) or net.name in self.nets:
                mapping[net.name] = net.name
                if net.name not in self.nets:
                    self._add_net_like(net, net.name)
            else:
                new_name = f"{sep}{net.name}"
                mapping[net.name] = new_name
                self._add_net_like(net, new_name)
        for net_name, phase in other.input_phases.items():
            if net_name in port_map:
                continue
            self.input_phases.setdefault(mapping[net_name], phase)
        for size_var in other.size_table:
            renamed = self._rename_var(size_var, sep)
            self.size_table.add(renamed)
        for stage in other.stages:
            new_inputs = [
                Pin(
                    pin.name,
                    self.nets[mapping[pin.net.name]],
                    pin.pin_class,
                    pin.speed,
                    pin.inverted,
                )
                for pin in stage.inputs
            ]
            new_stage = Stage(
                name=f"{sep}{stage.name}",
                kind=stage.kind,
                inputs=new_inputs,
                output=self.nets[mapping[stage.output.name]],
                size_vars={
                    role: f"{sep}{label}" for role, label in stage.size_vars.items()
                },
                params=dict(stage.params),
            )
            self.add_stage(new_stage)
        return mapping

    @staticmethod
    def _rename_var(size_var: SizeVar, sep: str) -> SizeVar:
        ratio = size_var.ratio_of
        if ratio is not None:
            ratio = (f"{sep}{ratio[0]}", ratio[1])
        return SizeVar(
            f"{sep}{size_var.name}",
            size_var.lower,
            size_var.upper,
            size_var.pinned,
            ratio,
        )

    def __repr__(self) -> str:
        return (
            f"Circuit({self.name!r}, stages={len(self.stages)}, "
            f"nets={len(self.nets)}, labels={len(self.size_table)})"
        )
