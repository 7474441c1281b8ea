"""Bryant-style switch-level steady-state solver, bit-parallel over inputs.

The verifier needs transistor-level truth, not stage-level truth: a mux with
swapped select wiring has a perfectly healthy stage graph, and only the
conducting-path structure of its pull-up / pull-down / pass networks reveals
the wrong function (or the drive fight).  This module computes, for a set of
boolean assignments of the primary inputs, the steady-state value of every
net of a flat transistor netlist — the core of Bryant's MOSSIM switch-level
model, specialized to the two strengths this corpus needs (driven > stored
charge) and a two-phase clock protocol for domino circuits.

Model
-----

* A transistor is a switch between ``drain`` and ``source``: an NMOS
  conducts when its gate is 1, a PMOS when its gate is 0; an unknown gate
  value makes the switch state unknown (it is then neither traversed for
  value propagation nor trusted to block).
* ``vdd``/``vss`` and the primary inputs (plus the clock) are *fixed*
  sources: they hold their value regardless of what conducts into them, and
  conducting paths are not traced *through* them (an ideal voltage source
  clamps its node).
* A net with a definitely-conducting path to a 1-source and none to a
  0-source is 1 (symmetrically 0).  Paths to both polarities make the net a
  **conflict** (X) — the raw material for the drive-fight (SVC402) and
  sneak-path (SVC404) rules.
* A net with no conducting path to any source keeps its *stored charge*
  (the value it held at the end of the previous phase) — this is how a
  domino dynamic node stays high through evaluate when no leg conducts.
  With no stored charge either, the net **floats** (Z) — SVC403's domain.
* Keeper devices (the half-latch PMOS and its feedback inverter emitted by
  the domino expander) are *weak*: they sustain a floating node but never
  win a fight against the strong network, so ratioed keeper contention is
  not misreported as a drive fight.

Evaluation is a fixpoint: gate values feed switch states feed net values
feed gate values.  Values only become *more* defined per iteration except
through feedback loops, which the iteration cap resolves to X.

Bit-parallel form
-----------------

All assignments are solved at once, in the parallel-pattern style of logic
fault simulation: bit ``k`` of every mask is assignment ``k``.  Each net
carries two Python-int masks, *known-1* and *known-0* (neither bit set is
X/Z); a switch is on where its gate's known-1 mask (NMOS) or known-0 mask
(PMOS) is set.  The reachability walk of one round is a mask worklist
fixpoint, ``reach[other] |= reach[net] & on[switch]``, run once for four
lanes packed side by side in one integer: strong drive to 1, strong drive
to 0, and the same two with the weak keepers admitted.  A fixed net is a
source only in the bits where its value matches the lane's polarity and is
never expanded.  Every operation is bitwise, so each assignment follows
exactly the fixpoint it would follow alone: rounds repeat until no bit
moves, and after ``max_rounds`` the bits still moving are demoted to X.
Conflict witnesses are rebuilt for one assignment at a time from the final
round's switch masks (:meth:`PhaseMasks.witness`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from ...netlist.circuit import Circuit
from ...netlist.devices import Transistor
from ...netlist.memo import circuit_memo
from ...netlist.stages import VDD, VSS, StageKind
from ...obs import metrics

#: Device-name suffixes of the weak keeper devices in the domino expander.
_KEEPER_SUFFIXES = (".mkeep",)

#: Rounds after which nets still moving (non-convergent feedback) are X.
MAX_ROUNDS = 60


@dataclass(frozen=True)
class Switch:
    """One transistor viewed as a gated switch between two channel nets."""

    name: str
    a: str          # drain
    b: str          # source
    gate: str
    on_value: bool  # gate value that makes it conduct (NMOS: 1, PMOS: 0)
    stage: str
    weak: bool = False


class ChannelGraph:
    """The channel-connected switch network of one circuit.

    Built once per circuit from the flat expansion at unit widths (the
    boolean behavior is width-independent; :func:`channel_graph` keeps it
    in the circuit's memo), then solved over a whole set of input
    assignments at once (:meth:`solve_masks`).  It holds names and
    indices only, never the circuit.
    """

    def __init__(self, circuit: Circuit):
        widths = {label: 1.0 for label in circuit.size_table.names()}
        devices = circuit.expand_transistors(widths)
        self.switches: List[Switch] = [self._switch(d) for d in devices]
        #: net -> indices of switches with a channel terminal on it
        self.channels: Dict[str, List[int]] = {}
        for idx, sw in enumerate(self.switches):
            self.channels.setdefault(sw.a, []).append(idx)
            self.channels.setdefault(sw.b, []).append(idx)
        #: Stage kind per stage name (for conflict classification).
        self.stage_kinds: Dict[str, StageKind] = {
            s.name: s.kind for s in circuit.stages
        }
        self.clock_nets: FrozenSet[str] = frozenset(circuit.clock_nets())
        self.input_nets: Tuple[str, ...] = tuple(circuit.primary_inputs)
        #: Declared input phase per primary input (precharge-phase values).
        self.input_phases: Dict[str, Optional[str]] = {
            name: circuit.input_phase(name) for name in self.input_nets
        }
        #: Every net name appearing in the flat view (includes expander
        #: internals like stack midpoints that have no Net object).
        names: Set[str] = {VDD, VSS}
        names.update(circuit.nets)
        for sw in self.switches:
            names.update((sw.a, sw.b, sw.gate))
        self.net_names: FrozenSet[str] = frozenset(names)
        #: The solver's net numbering: ``net_names`` in iteration order.
        self.net_order: Tuple[str, ...] = tuple(self.net_names)
        self.index: Dict[str, int] = {
            name: i for i, name in enumerate(self.net_order)
        }
        #: Per switch: (gate net index, conducts on 1, weak).
        self._gates: List[Tuple[int, bool, bool]] = [
            (self.index[sw.gate], sw.on_value, sw.weak) for sw in self.switches
        ]
        #: Per net index: (switch index, other channel net index).
        self._adjacent: List[List[Tuple[int, int]]] = [[] for _ in names]
        for idx, sw in enumerate(self.switches):
            a, b = self.index[sw.a], self.index[sw.b]
            self._adjacent[a].append((idx, b))
            self._adjacent[b].append((idx, a))

    @staticmethod
    def _switch(device: Transistor) -> Switch:
        weak = any(device.name.endswith(sfx) for sfx in _KEEPER_SUFFIXES)
        return Switch(
            name=device.name,
            a=device.drain,
            b=device.source,
            gate=device.gate,
            on_value=device.is_nmos,
            stage=device.stage,
            weak=weak,
        )

    # -- solving ------------------------------------------------------------

    def solve_masks(
        self,
        width: int,
        inputs: Mapping[str, int],
        clock: Optional[bool],
        charge: Optional[Tuple[Sequence[int], Sequence[int]]] = None,
        max_rounds: int = MAX_ROUNDS,
    ) -> "PhaseMasks":
        """Steady state of one clock phase under ``width`` assignments.

        ``inputs`` maps each primary input to the mask of assignments in
        which it is 1; ``charge`` is the stored charge per net index as
        (known-1, known-0) masks, e.g. a precharge phase's final values.
        """
        metrics.counter("lint.symbolic.phase_solves").inc()
        full = (1 << width) - 1
        index = self.index
        # The clamped source nets, as 1-masks: rails, inputs, clock.
        fixed: Dict[int, int] = {index[VDD]: full, index[VSS]: 0}
        for name in self.input_nets:
            fixed[index[name]] = inputs[name] & full
        if clock is not None:
            for name in self.clock_nets:
                fixed[index[name]] = full if clock else 0
        n = len(self.net_order)
        is_fixed = [False] * n
        for i in fixed:
            is_fixed[i] = True
        free = [i for i in range(n) if not is_fixed[i]]
        # Channel edges into fixed nets never carry anything: sources clamp.
        adjacent = [
            [(s, j) for s, j in edges if not is_fixed[j]]
            for edges in self._adjacent
        ]
        w2, w3 = 2 * width, 3 * width
        #: Lane-packed source masks: 1-lanes where the value is 1, 0-lanes
        #: where it is 0, in both the strong and the weak half.
        sources = {}
        for i, v1 in fixed.items():
            both = v1 | ((full ^ v1) << width)
            sources[i] = both | (both << w2)
        c1, c0 = charge if charge is not None else ([0] * n, [0] * n)
        one = [fixed[i] if is_fixed[i] else c1[i] for i in range(n)]
        zero = [full ^ fixed[i] if is_fixed[i] else c0[i] for i in range(n)]
        gates = self._gates

        def settle(on: List[int]):
            """Net values (and conflict/floating masks) given the switch
            on-masks: the second half of one round."""
            lanes = []
            for (_g, _nmos, weak), mask in zip(gates, on):
                both = mask | (mask << width)
                lanes.append(both << w2 if weak else both | (both << w2))
            reach = [0] * n
            for i, src in sources.items():
                reach[i] = src
            pending = list(sources)
            queued = [False] * n
            while pending:
                i = pending.pop()
                queued[i] = False
                here = reach[i]
                for s, j in adjacent[i]:
                    add = here & lanes[s]
                    if add:
                        old = reach[j]
                        new = old | add
                        if new != old:
                            reach[j] = new
                            if not queued[j]:
                                queued[j] = True
                                pending.append(j)
            new_one = one[:]
            new_zero = zero[:]
            conflict = [0] * n
            floating = [0] * n
            for i in free:
                r = reach[i]
                in1 = r & full
                in0 = (r >> width) & full
                fight = in1 & in0
                v1 = in1 ^ fight
                v0 = in0 ^ fight
                undriven = full ^ (in1 | in0)
                if undriven:
                    weak1 = (r >> w2) & full
                    weak0 = r >> w3
                    held1 = weak1 & ~weak0
                    held0 = weak0 & ~weak1
                    v1 |= undriven & held1
                    v0 |= undriven & held0
                    rest = undriven & ~(held1 | held0)
                    if rest:
                        v1 |= rest & c1[i]
                        v0 |= rest & c0[i]
                        floating[i] = rest & ~(c1[i] | c0[i])
                new_one[i] = v1
                new_zero[i] = v0
                conflict[i] = fight
            return new_one, new_zero, conflict, floating

        # One round: switch states from the values, then ``settle``.  The
        # values are a function of the switch states alone, so a round
        # whose states repeat the previous round's reproduces the values.
        on: Optional[List[int]] = None
        for _ in range(max_rounds):
            new_on = [one[g] if nmos else zero[g] for g, nmos, _weak in gates]
            if new_on == on:
                break
            on = new_on
            new_one, new_zero, conflict, floating = settle(on)
            if new_one == one and new_zero == zero:
                break
            one, zero = new_one, new_zero
        else:
            # Non-convergent feedback: demote every bit still moving to X.
            new_on = [one[g] if nmos else zero[g] for g, nmos, _weak in gates]
            if new_on != on:
                on = new_on
                final_one, final_zero, conflict, floating = settle(on)
                one, zero = one[:], zero[:]
                for i in free:
                    moving = (final_one[i] ^ one[i]) | (final_zero[i] ^ zero[i])
                    if moving:
                        one[i] &= ~moving
                        zero[i] &= ~moving
        return PhaseMasks(
            graph=self,
            width=width,
            one=one,
            zero=zero,
            conflict=conflict,
            floating=floating,
            on=on,
            fixed={self.net_order[i]: v for i, v in fixed.items()},
        )

    def _conflict(
        self,
        net: str,
        states: Sequence[Optional[bool]],
        fixed: Mapping[str, bool],
    ) -> "Conflict":
        """Witness paths for a net driven from both polarities."""
        path1 = self._path_to_source(net, True, states, fixed)
        path0 = self._path_to_source(net, False, states, fixed)
        stages: List[str] = []
        pass_stages: Set[str] = set()
        for sw in path1 + path0:
            if sw.stage not in stages:
                stages.append(sw.stage)
            if self.stage_kinds.get(sw.stage) is StageKind.PASSGATE:
                pass_stages.add(sw.stage)
        return Conflict(
            net=net,
            pull_up_path=tuple(sw.name for sw in path1),
            pull_down_path=tuple(sw.name for sw in path0),
            stages=tuple(stages),
            pass_stages=frozenset(pass_stages),
        )

    def _path_to_source(
        self,
        net: str,
        polarity: bool,
        states: Sequence[Optional[bool]],
        fixed: Mapping[str, bool],
    ) -> List[Switch]:
        """One conducting switch path from ``net`` back to a source of
        ``polarity`` (BFS parent reconstruction; empty when none)."""
        parent: Dict[str, Tuple[str, Switch]] = {}
        frontier = [net]
        seen = {net}
        while frontier:
            here = frontier.pop(0)
            for idx in self.channels.get(here, ()):
                if states[idx] is not True or self.switches[idx].weak:
                    continue
                sw = self.switches[idx]
                other = sw.b if sw.a == here else sw.a
                if other in seen:
                    continue
                seen.add(other)
                parent[other] = (here, sw)
                if fixed.get(other) == polarity:
                    path = [sw]
                    node = here
                    while node != net:
                        node, via = parent[node]
                        path.append(via)
                    return path
                if other not in fixed:
                    frontier.append(other)
        return []


def channel_graph(circuit: Circuit) -> ChannelGraph:
    """The :class:`ChannelGraph` of ``circuit``, built once and kept in its
    memo (:func:`~repro.netlist.memo.circuit_memo`) under the input-phase
    declarations it copied; the SVC extraction, NSA601 and ERC103 share
    it."""
    key = (ChannelGraph, tuple(sorted(circuit.input_phases.items())))
    memo = circuit_memo(circuit)
    graph = memo.get(key)
    if graph is None:
        graph = memo[key] = ChannelGraph(circuit)
    return graph


@dataclass(frozen=True)
class Conflict:
    """A net conducting to both rails: the drive-fight/sneak-path witness."""

    net: str
    pull_up_path: Tuple[str, ...]
    pull_down_path: Tuple[str, ...]
    stages: Tuple[str, ...]
    pass_stages: FrozenSet[str]

    @property
    def is_sneak_path(self) -> bool:
        """Both-rail conduction routed through two or more distinct
        pass-gate stages — a sneak path through the bidirectional pass
        network rather than a plain PU/PD overlap."""
        return len(self.pass_stages) >= 2


@dataclass
class PhaseMasks:
    """Steady state of one phase over ``width`` assignments.

    Lists are indexed like :attr:`ChannelGraph.net_order`; bit ``k`` of a
    mask is assignment ``k``.  ``one``/``zero`` are the known-1/known-0
    masks (neither = X or Z), ``conflict`` and ``floating`` the bits where
    the final round found the net driven to both rails or to none with no
    stored charge, ``on`` the conducting mask of each switch in that round,
    ``fixed`` the 1-mask of each clamped source net.
    """

    graph: ChannelGraph
    width: int
    one: List[int]
    zero: List[int]
    conflict: List[int]
    floating: List[int]
    on: List[int]
    fixed: Dict[str, int]

    def value(self, index: int, bit: int) -> Optional[bool]:
        if self.one[index] >> bit & 1:
            return True
        if self.zero[index] >> bit & 1:
            return False
        return None

    def witness(self, net: str, bit: int) -> Conflict:
        """The conflict witness of ``net`` in assignment ``bit``, traced
        over that assignment's final switch states."""
        states = [bool(mask >> bit & 1) for mask in self.on]
        fixed = {name: bool(v >> bit & 1) for name, v in self.fixed.items()}
        return self.graph._conflict(net, states, fixed)

    def solution(self, bit: int) -> "PhaseSolution":
        """Assignment ``bit`` alone, as a :class:`PhaseSolution`."""
        order = self.graph.net_order
        return PhaseSolution(
            values={name: self.value(i, bit) for i, name in enumerate(order)},
            conflicts={
                name: self.witness(name, bit)
                for i, name in enumerate(order)
                if self.conflict[i] >> bit & 1
            },
            floating=frozenset(
                {name for i, name in enumerate(order) if self.floating[i] >> bit & 1}
            ),
        )


@dataclass
class PhaseSolution:
    """Steady state of one phase: net values + anomalies."""

    values: Dict[str, Optional[bool]]
    conflicts: Dict[str, Conflict] = field(default_factory=dict)
    floating: FrozenSet[str] = frozenset()

    def value(self, net: str) -> Optional[bool]:
        return self.values.get(net)


@dataclass
class EvalResult:
    """Result of evaluating one input assignment end to end."""

    env: Dict[str, bool]
    evaluate: PhaseSolution
    precharge: Optional[PhaseSolution] = None

    def output(self, net: str) -> Optional[bool]:
        return self.evaluate.value(net)


def input_masks(
    inputs: Sequence[str], envs: Sequence[Mapping[str, bool]]
) -> Dict[str, int]:
    """Per input, the mask of the assignments (bit ``k`` = ``envs[k]``) in
    which it is 1."""
    return {
        name: int(
            "".join("1" if env[name] else "0" for env in reversed(envs)) or "0",
            2,
        )
        for name in inputs
    }


def solve_assignments(
    graph: ChannelGraph, width: int, inputs: Mapping[str, int]
) -> Tuple[Optional[PhaseMasks], PhaseMasks]:
    """``(precharge, evaluate)`` steady states of ``width`` assignments.

    Clocked circuits run the two-phase protocol: settle at clk=0 (the
    precharge phase charges the dynamic nodes), then solve clk=1 with the
    precharge steady state as stored charge, bit by bit.  Static circuits
    solve a single phase with no charge memory (``precharge`` is None).
    """
    metrics.counter("lint.symbolic.assignments").inc(width)
    if not graph.clock_nets:
        return None, graph.solve_masks(width, inputs, clock=None)
    full = (1 << width) - 1
    pre_inputs: Dict[str, int] = {}
    for name in graph.input_nets:
        declared = graph.input_phases[name]
        if declared == "mono_rise":
            pre_inputs[name] = 0
        elif declared == "mono_fall":
            pre_inputs[name] = full
        else:
            pre_inputs[name] = inputs[name]
    pre = graph.solve_masks(width, pre_inputs, clock=False)
    evaluate = graph.solve_masks(
        width, inputs, clock=True, charge=(pre.one, pre.zero)
    )
    return pre, evaluate


def evaluate_assignment(
    graph: ChannelGraph, env: Mapping[str, bool]
) -> EvalResult:
    """Solve one input assignment (the one-bit case of
    :func:`solve_assignments`)."""
    env = {name: bool(env[name]) for name in graph.input_nets}
    pre, evaluate = solve_assignments(
        graph, 1, input_masks(graph.input_nets, [env])
    )
    return EvalResult(
        env=env,
        evaluate=evaluate.solution(0),
        precharge=pre.solution(0) if pre is not None else None,
    )
