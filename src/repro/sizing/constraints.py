"""Constraint generation (the "Constraint Generator" box of Figure 4).

Expands pruned structural paths into posynomial timing constraints following
Section 5.3's family rules:

* **static** paths: two constraints (output rise and fall);
* **pass logic**: paths through the *data* port give two constraints like a
  static path; paths through the *control* port give two paths x two
  constraints (the select edge that turns the gate on can launch either
  output transition, and downstream directions differ);
* **dynamic** stages: separate *precharge* (clock fall -> node rise) and
  *evaluate* (clock rise / data rise -> node fall) constraints, split at
  clocked-evaluate (D1) phase boundaries; D2 stages evaluate off their data
  inputs alone.

Slope (transition-time) constraints are generated for every driven net —
"important for timing and reliability" — against separate internal/output
limits.  Every constraint is built from one hop model,
:meth:`StaticTimingAnalyzer.arc_posynomials`: slopes chain posynomially along
a path from the designer's input slope (halved on clock nets), and each slope
constraint sees the designer's input slope on the stage input.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, List, Optional, Sequence, Tuple

from ..models.gates import SLOPE_LEAK, ModelLibrary, Transition
from ..netlist.circuit import Circuit
from ..netlist.nets import NetKind, PinClass
from ..netlist.stages import StageKind
from ..posy import Posynomial, as_posynomial
from ..sim.timing import StaticTimingAnalyzer, stage_arcs
from .paths import StructuralPath

Hop = Tuple[str, str, Transition]


@dataclass(frozen=True)
class DelaySpec:
    """Designer-provided constraints for one macro instance (Figure 1:
    "delays, slopes and loads").

    All times in ps.  ``None`` fields default to ``data``.
    """

    data: float
    control: Optional[float] = None
    evaluate: Optional[float] = None
    precharge: Optional[float] = None
    phase_budget: Optional[float] = None
    input_slope: float = 30.0
    max_output_slope: float = 150.0
    max_internal_slope: float = 350.0
    #: Domino charge-sharing (noise) limit: legs' internal diffusion must
    #: not exceed ``ratio x`` the precharge device's own node diffusion.
    #: ``None`` disables the reliability constraint (the designer may prefer
    #: manual keeper tuning — Section 2's noise-immunity override).
    charge_sharing_ratio: Optional[float] = None

    def for_kind(self, kind: str) -> float:
        if kind == "control":
            return self.control if self.control is not None else self.data
        if kind == "evaluate":
            return self.evaluate if self.evaluate is not None else self.data
        if kind == "precharge":
            return self.precharge if self.precharge is not None else self.data
        if kind == "segment":
            return self.phase_budget if self.phase_budget is not None else self.data
        return self.data

    def tightened(self, factor: float) -> "DelaySpec":
        """Uniformly scaled copy (used by tradeoff sweeps)."""
        scale = lambda v: None if v is None else v * factor
        return replace(
            self,
            data=self.data * factor,
            control=scale(self.control),
            evaluate=scale(self.evaluate),
            precharge=scale(self.precharge),
            phase_budget=scale(self.phase_budget),
        )


@dataclass
class TimingConstraint:
    """One posynomial path constraint ``delay <= spec``."""

    name: str
    delay: Posynomial
    spec: float
    kind: str           # data / control / evaluate / precharge / segment
    hops: Tuple[Hop, ...]


@dataclass
class SlopeConstraint:
    """One posynomial slope constraint ``slope <= limit`` at a net."""

    name: str
    slope: Posynomial
    limit: float
    net: str


@dataclass
class NoiseConstraint:
    """Charge-sharing reliability constraint ``expr <= 1`` on a domino node
    (internal leg diffusion over allowed node charge)."""

    name: str
    expr: Posynomial
    stage: str


@dataclass
class ConstraintSet:
    timing: List[TimingConstraint] = field(default_factory=list)
    slopes: List[SlopeConstraint] = field(default_factory=list)
    noise: List[NoiseConstraint] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.timing) + len(self.slopes) + len(self.noise)


class ConstraintGenerator:
    """Builds a :class:`ConstraintSet` from pruned structural paths."""

    def __init__(
        self,
        circuit: Circuit,
        library: ModelLibrary,
        spec: DelaySpec,
        otb_borrow: float = 0.0,
    ):
        self.circuit = circuit
        self.library = library
        self.spec = spec
        #: Opportunistic time borrowing window, ps (Section 5.3 / [12]):
        #: how far an evaluate segment may overrun its phase boundary.
        self.otb_borrow = otb_borrow
        self.analyzer = StaticTimingAnalyzer(circuit, library)

    # -- transition expansion ----------------------------------------------------

    def transition_paths(self, path: StructuralPath) -> List[Tuple[Hop, ...]]:
        """Expand a structural path into chained transition paths."""
        start_net = self.circuit.net(path.start_net)
        results: List[Tuple[Hop, ...]] = []

        def extend(
            i: int, incoming: Transition, hops: Tuple[Hop, ...]
        ) -> None:
            if i == len(path.steps):
                results.append(hops)
                return
            step = path.steps[i]
            stage = self.circuit.stage(step.stage_name)
            pin = stage.pin(step.pin_name)
            for in_trans, out_trans in stage_arcs(stage, pin):
                if in_trans is incoming:
                    extend(i + 1, out_trans, hops + ((stage.name, pin.name, out_trans),))

        for start in (Transition.RISE, Transition.FALL):
            extend(0, start, ())
        return results

    # -- classification -----------------------------------------------------------

    def classify(self, path: StructuralPath, hops: Tuple[Hop, ...]) -> str:
        circuit = self.circuit
        first_stage = circuit.stage(hops[0][0])
        first_pin = first_stage.pin(hops[0][1])
        starts_at_clock = circuit.net(path.start_net).kind is NetKind.CLOCK
        if starts_at_clock and first_pin.pin_class is PinClass.CLOCK:
            # The first domino arc tells precharge from evaluate.
            if hops[0][2] is Transition.RISE:
                return "precharge"
            return "evaluate"
        for stage_name, pin_name, _ in hops:
            stage = circuit.stage(stage_name)
            pin = stage.pin(pin_name)
            # Select pins of pass/tri-state stages make a *control* path
            # (Section 5.3's "constraints through the control port").  Domino
            # select inputs are ordinary evaluate legs.
            if pin.pin_class is PinClass.SELECT and stage.kind in (
                StageKind.PASSGATE,
                StageKind.TRISTATE,
            ):
                return "control"
        if any(
            circuit.stage(s).kind is StageKind.DOMINO for s, _, _ in hops
        ):
            return "evaluate"
        return "data"

    # -- phase segmentation ---------------------------------------------------------

    def phase_segments(self, hops: Tuple[Hop, ...]) -> List[Tuple[Hop, ...]]:
        """Split a transition path at D1 (clocked domino) stage outputs —
        the phase boundaries opportunistic time borrowing plays against.

        A boundary only exists when *another* dynamic stage follows it: a
        single-phase macro (one domino level plus its static buffer) is one
        evaluate path, not two phases.
        """
        segments: List[Tuple[Hop, ...]] = []
        current: List[Hop] = []
        for hop in hops:
            current.append(hop)
            stage = self.circuit.stage(hop[0])
            if stage.kind is StageKind.DOMINO and stage.clocked:
                segments.append(tuple(current))
                current = []
        if current:
            segments.append(tuple(current))
        # Merge a trailing segment with no dynamic stage into its phase.
        while len(segments) > 1 and not any(
            self.circuit.stage(h[0]).kind is StageKind.DOMINO
            for h in segments[-1]
        ):
            tail = segments.pop()
            segments[-1] = segments[-1] + tail
        return segments

    # -- delay assembly ----------------------------------------------------------------

    def path_delay_posynomial(self, hops: Sequence[Hop]) -> Posynomial:
        """Path delay with *posynomial slope chaining*.

        The input slope of each stage along the path is the previous stage's
        output slope — itself a posynomial of upstream widths — so the GP
        sees the slope/size coupling instead of a frozen constant (equation
        (1)'s ``t_in_slope`` term stays inside the optimization).  Only the
        very first hop uses a constant: the designer's input slope, halved
        on clock nets.

        Hop ``k`` of ``n`` enters with ``LEAK^k·start + Σ_{j<k}
        LEAK^(k-1-j)·s_j`` (``s_j`` the arc slopes), so the chained sum is
        ``Σ d_k + Σ_j w_j·s_j + w_start·start`` with ``w_j = sens·Σ_{m <
        n-1-j} LEAK^m``.  The weights run back to front (``w_{n-1} = 0``,
        ``w_j = sens + LEAK·w_{j+1}``, ``w_start`` one step past ``w_0``)
        and :meth:`Posynomial.weighted_sum` adds every term once, linear in
        the path length.
        """
        sens = self.library.tech.slope_sensitivity
        start = self.spec.input_slope
        if hops:
            first_pin = self.circuit.stage(hops[0][0]).pin(hops[0][1])
            if first_pin.net.kind is NetKind.CLOCK:
                start *= 0.5
        pairs = []
        weight = 0.0
        for delay, slope in reversed(self.analyzer.path_arcs(hops)):
            pairs.append((1.0, delay))
            pairs.append((weight, slope))
            weight = sens + SLOPE_LEAK * weight
        if hops:
            pairs.append((weight * start, as_posynomial(1.0)))
        return Posynomial.weighted_sum(pairs)

    # -- top level -------------------------------------------------------------------

    def generate(self, paths: Sequence[StructuralPath]) -> ConstraintSet:
        constraints = ConstraintSet()
        seen: set = set()
        for p_index, path in enumerate(paths):
            for t_index, hops in enumerate(self.transition_paths(path)):
                if not hops:
                    continue
                kind = self.classify(path, hops)
                if kind in ("data", "evaluate", "control"):
                    segments = self.phase_segments(hops)
                    if len(segments) > 1:
                        self._add_phase_constraints(
                            constraints, p_index, t_index, kind, hops, segments, seen
                        )
                        continue
                self._add_constraint(
                    constraints,
                    f"p{p_index}.t{t_index}.{kind}",
                    kind,
                    hops,
                    self.spec.for_kind(kind),
                    seen,
                )
        # Regularity dedupe: stages with identical slope posynomials and the
        # same limit produce one constraint (the adder's 64 bit-slices
        # collapse to a handful); likewise identical noise expressions.
        slopes: dict = {}
        for slope in self.slope_constraints():
            slopes.setdefault((slope.slope, slope.limit), slope)
        noise: dict = {}
        for item in self.noise_constraints():
            noise.setdefault(item.expr, item)
        constraints.slopes = list(slopes.values())
        constraints.noise = list(noise.values())
        return constraints

    def noise_constraints(self) -> Iterator[NoiseConstraint]:
        """Section 5's "noise" constraints, one per exposed domino stage
        (no regularity dedupe): bound each domino node's charge-sharing
        exposure.

        GP form: ``C_internal(W_data) / (ratio * C_pre(W_pre)) <= 1`` — the
        precharge device's node diffusion is the monomial anchor for the
        allowed charge, a conservative stand-in for the full node
        capacitance (which, being posynomial, cannot appear in a GP
        denominator).
        """
        ratio = self.spec.charge_sharing_ratio
        if ratio is None:
            return
        table = self.circuit.size_table
        tech = self.library.tech
        for stage in self.circuit.stages:
            if stage.kind is not StageKind.DOMINO:
                continue
            model = self.library.model(stage)
            internal = model.internal_charge_cap(stage, table)
            if len(internal) == 0:
                continue
            # A keeper actively replenishes the node: credit its strength.
            keeper = float(stage.params.get("keeper", 0.0))
            allowed = (
                ratio
                * (1.0 + 2.0 * keeper)
                * tech.c_diff
                * table.monomial(stage.label("precharge"))
            )
            yield NoiseConstraint(
                name=f"noise.{stage.name}",
                expr=internal / allowed,
                stage=stage.name,
            )

    def slope_constraints(self) -> Iterator[SlopeConstraint]:
        """One slope constraint per (stage, output transition), with the
        designer's input slope on the stage input (no regularity dedupe)."""
        outputs = set(self.circuit.primary_outputs)
        leak = SLOPE_LEAK * self.spec.input_slope
        for stage in self.circuit.stages:
            net = stage.output.name
            limit = (
                self.spec.max_output_slope
                if net in outputs
                else self.spec.max_internal_slope
            )
            covered = set()
            for pin in stage.inputs:
                for _in_trans, out_trans in stage_arcs(stage, pin):
                    if out_trans in covered:
                        continue
                    covered.add(out_trans)
                    _delay, slope = self.analyzer.arc_posynomials(
                        stage, pin, out_trans
                    )
                    yield SlopeConstraint(
                        name=f"slope.{stage.name}.{out_trans.value}",
                        slope=slope + leak,
                        limit=limit,
                        net=net,
                    )

    def _add_phase_constraints(
        self,
        constraints: ConstraintSet,
        p_index: int,
        t_index: int,
        kind: str,
        hops: Tuple[Hop, ...],
        segments: List[Tuple[Hop, ...]],
        seen: set,
    ) -> None:
        phase = self.spec.for_kind("segment")
        if self.otb_borrow > 0.0:
            # OTB: whole path gets the summed phase budget; each segment may
            # overrun its boundary by the borrow window.
            self._add_constraint(
                constraints,
                f"p{p_index}.t{t_index}.{kind}.otb",
                kind,
                hops,
                phase * len(segments),
                seen,
            )
            segment_budget = phase + self.otb_borrow
        else:
            segment_budget = phase
        for s_index, segment in enumerate(segments):
            self._add_constraint(
                constraints,
                f"p{p_index}.t{t_index}.s{s_index}.segment",
                "segment",
                segment,
                segment_budget,
                seen,
            )

    def _add_constraint(
        self,
        constraints: ConstraintSet,
        name: str,
        kind: str,
        hops: Tuple[Hop, ...],
        spec: float,
        seen: set,
    ) -> None:
        key = (hops, kind, round(spec, 6))
        if key in seen:
            return
        seen.add(key)
        delay = self.path_delay_posynomial(hops)
        if len(delay) == 0:
            return
        constraints.timing.append(
            TimingConstraint(name=name, delay=delay, spec=spec, kind=kind, hops=hops)
        )

