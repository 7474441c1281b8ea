"""Automatic path extraction (the "Automatic Path Extraction" box of Figure 4).

SMART specifies timing constraints "on the topological paths through the
network" (Section 5.2).  This module enumerates those paths over the stage
graph: a *structural path* starts at a source net (primary input or clock),
steps through ``(stage, input pin)`` hops, and ends at a primary output or an
unloaded net.  Constraint generation later expands each structural path into
rise/fall (and precharge/evaluate, data/control) transition constraints per
Section 5.3.

A combinational circuit can have an enormous path count — the paper measures
>32,000 on a 64-bit adder — so extraction supports both full enumeration
(with a safety cap) and counting via dynamic programming without
materialization.  The sizer reads neither: it prunes the whole path space
in one walk of the stage graph (:func:`repro.sizing.pruning.prune_paths`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from ..netlist.circuit import Circuit
from ..netlist.nets import NetKind, Pin, PinClass
from ..obs import metrics, trace


class PathExplosionError(Exception):
    """Raised when enumeration would exceed the configured cap."""


@dataclass(frozen=True)
class PathStep:
    """One hop: entering ``stage_name`` through ``pin_name``."""

    stage_name: str
    pin_name: str


@dataclass(frozen=True)
class StructuralPath:
    """A topological path from a source net through stages to an end net."""

    start_net: str
    steps: Tuple[PathStep, ...]
    end_net: str

    def __len__(self) -> int:
        return len(self.steps)

    def stages(self, circuit: Circuit):
        return [circuit.stage(s.stage_name) for s in self.steps]

    def pins(self, circuit: Circuit) -> List[Pin]:
        return [
            circuit.stage(s.stage_name).pin(s.pin_name) for s in self.steps
        ]

    def enters_via_select(self, circuit: Circuit) -> bool:
        return any(p.pin_class is PinClass.SELECT for p in self.pins(circuit))

    def starts_at_clock(self, circuit: Circuit) -> bool:
        return circuit.net(self.start_net).kind is NetKind.CLOCK


class PathExtractor:
    """Enumerates/counts structural paths of a circuit."""

    def __init__(self, circuit: Circuit, max_paths: int = 2_000_000):
        self.circuit = circuit
        self.max_paths = max_paths

    # -- sources and sinks -----------------------------------------------------

    def source_nets(self, include_clock: bool = True) -> List[str]:
        sources = list(self.circuit.primary_inputs)
        if include_clock:
            sources.extend(
                c for c in self.circuit.clock_nets() if c not in sources
            )
        return sources

    def _is_sink(self, net_name: str) -> bool:
        if net_name in self.circuit.primary_outputs:
            return True
        return not self.circuit.fanout_of(net_name)

    # -- enumeration ---------------------------------------------------------

    def extract(self, include_clock: bool = True) -> List[StructuralPath]:
        """All structural paths (raises :class:`PathExplosionError` past the
        cap — callers wanting just the size should use :meth:`count`)."""
        with trace.span("extract_enumerate") as sp:
            paths = []
            for path in self.iter_paths(include_clock=include_clock):
                paths.append(path)
                if len(paths) > self.max_paths:
                    raise PathExplosionError(
                        f"{self.circuit.name}: more than {self.max_paths} paths"
                    )
            sp.set_attrs(paths=len(paths))
            metrics.counter("paths.enumerated").inc(len(paths))
        return paths

    def iter_paths(self, include_clock: bool = True) -> Iterator[StructuralPath]:
        for source in self.source_nets(include_clock):
            yield from self._walk(source, source, ())

    def extract_representative(self, include_clock: bool = True) -> List[StructuralPath]:
        """Enumerate only *representative* paths by applying the Section-5.2
        reductions during extraction instead of after it.

        Nets are condensed into *regularity classes* (same driver kind +
        size-label signature); each class is represented by its maximum-fanout
        member (fanout dominance, on the representative's real loading), and
        the distinct downstream continuations of a class are computed once and
        shared (regularity merging).  Within a stage, FAST pins are skipped
        when a SLOW pin of the same class exists (pin precedence), and
        equivalent pins of one stage (same class/speed — the model's delay
        does not depend on leg position) collapse to one.

        For wide regular macros (the 64-bit adder) this yields roughly one
        path per distinct class sequence — the paper's "small set of
        meaningful paths" — while the raw space is combinatorial.

        Unsound as a constraint set: the class graph can be cyclic (a
        carry chain's nets share one class), and the recursion guard
        that breaks those cycles drops the deep carry-chain paths, so a
        sizing over these paths can miss its spec on the full STA.  The
        sizer prunes exactly instead (:func:`~repro.sizing.pruning.prune_paths`);
        this sampler has no caller in the package.
        """
        from .pruning import precedence_pins, stage_keys

        circuit = self.circuit
        keys = stage_keys(circuit)
        prunable = precedence_pins(circuit)

        def net_class(net_name: str) -> Tuple:
            driver = circuit.driver_of(net_name)
            if driver is not None:
                return ("drv",) + keys[driver.name]
            net = circuit.net(net_name)
            if net.kind is NetKind.CLOCK:
                return ("clk",)
            profile = tuple(
                sorted(
                    keys[stage.name] + (pin.pin_class.value,)
                    for stage, pin in circuit.fanout_of(net_name)
                )
            )
            return ("in", profile)

        # Representative (max fanout) net per class.
        rep: Dict[Tuple, str] = {}
        for net_name in circuit.nets:
            if circuit.net(net_name).kind in (NetKind.SUPPLY, NetKind.GROUND):
                continue
            cls = net_class(net_name)
            best = rep.get(cls)
            if best is None or len(circuit.fanout_of(net_name)) > len(
                circuit.fanout_of(best)
            ):
                rep[cls] = net_name

        memo: Dict[Tuple, List[Tuple[Tuple[PathStep, ...], str]]] = {}
        in_progress: set = set()

        def suffixes(cls: Tuple) -> List[Tuple[Tuple[PathStep, ...], str]]:
            if cls in memo:
                return memo[cls]
            if cls in in_progress:
                return []  # class-level cycle artifact; the stage graph is acyclic
            in_progress.add(cls)
            net = rep[cls]
            result: List[Tuple[Tuple[PathStep, ...], str]] = []
            fanout = circuit.fanout_of(net)
            if self._is_sink(net) or net in circuit.primary_outputs:
                result.append(((), net))
            taken = set()
            for stage, pin in fanout:
                if pin.name in prunable.get(stage.name, ()):
                    continue
                branch_key = keys[stage.name] + (
                    pin.pin_class.value,
                    getattr(pin.speed, "value", None),
                )
                if branch_key in taken:
                    continue
                taken.add(branch_key)
                step = PathStep(stage.name, pin.name)
                for tail, end in suffixes(net_class(stage.output.name)):
                    result.append(((step,) + tail, end))
            in_progress.discard(cls)
            memo[cls] = result
            return result

        with trace.span("extract_representative") as sp:
            paths: List[StructuralPath] = []
            seen_classes = set()
            for source in self.source_nets(include_clock):
                cls = net_class(source)
                if cls in seen_classes:
                    continue
                seen_classes.add(cls)
                start = rep[cls]
                for steps, end in suffixes(cls):
                    if steps:
                        paths.append(
                            StructuralPath(
                                start_net=start, steps=steps, end_net=end
                            )
                        )
            sp.set_attrs(paths=len(paths), classes=len(rep))
            metrics.counter("paths.representative").inc(len(paths))
        return paths

    def _walk(
        self, start: str, net: str, steps: Tuple[PathStep, ...]
    ) -> Iterator[StructuralPath]:
        # Outputs that also feed other logic still end a constraint path.
        if steps and self._is_sink(net):
            yield StructuralPath(start_net=start, steps=steps, end_net=net)
        for stage, pin in self.circuit.fanout_of(net):
            step = PathStep(stage.name, pin.name)
            yield from self._walk(start, stage.output.name, steps + (step,))

    # -- counting without materialization ----------------------------------------

    def count(self, include_clock: bool = True) -> int:
        """Path count by DP over the (acyclic) stage graph:
        ``len(self.extract(include_clock))`` without materialization."""
        memo: Dict[str, int] = {}

        def paths_from(net: str) -> int:
            if net in memo:
                return memo[net]
            total = 1 if self._is_sink(net) else 0
            for stage, _pin in self.circuit.fanout_of(net):
                total += paths_from(stage.output.name)
            memo[net] = total
            return total

        count = 0
        for source in self.source_nets(include_clock):
            # Source itself contributes only paths with >= 1 step.
            for stage, _pin in self.circuit.fanout_of(source):
                count += paths_from(stage.output.name)
        return count


def longest_path_length(circuit: Circuit) -> int:
    """Depth of the circuit in stages (for diagnostics and budgets)."""
    depth: Dict[str, int] = {}
    best = 0
    for stage in circuit.topological_stages():
        d = 1 + max(
            (depth.get(pin.net.name, 0) for pin in stage.inputs), default=0
        )
        depth[stage.output.name] = max(depth.get(stage.output.name, 0), d)
        best = max(best, d)
    return best
