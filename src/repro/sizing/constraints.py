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

A path constraint's delay is compiled straight from the arc table's arrays
(:class:`PathRows`) into a :class:`~repro.posy.rows.PosyRow`, the form the
GP compiles, on first read, and its posynomial
(:attr:`TimingConstraint.delay`) is built from that row only when read.  No
constraint holds the circuit, so a constraint set can live in the
circuit's memo.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..models.gates import SLOPE_LEAK, ModelLibrary, Transition
from ..netlist.circuit import Circuit
from ..netlist.nets import NetKind, PinClass
from ..netlist.stages import StageKind
from ..posy import Posynomial
from ..posy.rows import PosyRow, gather_positions
from ..sim.timing import ArcProgram, StaticTimingAnalyzer, stage_arcs
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


class PathRows:
    """Compiles path delays to :class:`~repro.posy.rows.PosyRow` form over
    one :class:`~repro.sim.timing.ArcProgram` (see :meth:`row`).

    It holds the arc program and the hop weights, never the circuit, so
    constraints that keep it for lazy compilation can live in the
    circuit's memo (:func:`~repro.netlist.memo.circuit_memo`).
    """

    __slots__ = ("program", "_sens", "_weights")

    def __init__(self, program: ArcProgram, slope_sensitivity: float):
        self.program = program
        self._sens = slope_sensitivity
        #: Hop weights ``w_0 = 0``, ``w_{k+1} = sens + LEAK·w_k``, grown on
        #: demand.
        self._weights: List[float] = [0.0]

    def _hop_weights(self, n: int) -> List[float]:
        weights = self._weights
        while len(weights) <= n:
            weights.append(self._sens + SLOPE_LEAK * weights[-1])
        return weights

    def row(self, hops: Sequence[Hop], start: float) -> PosyRow:
        """Path delay with *posynomial slope chaining*, the first hop
        entered at input slope ``start``.

        The input slope of each stage along the path is the previous stage's
        output slope — itself a posynomial of upstream widths — so the GP
        sees the slope/size coupling instead of a frozen constant (equation
        (1)'s ``t_in_slope`` term stays inside the optimization).  Only the
        very first hop uses a constant, ``start``.

        Hop ``k`` of ``n`` enters with ``LEAK^k·start + Σ_{j<k}
        LEAK^(k-1-j)·s_j`` (``s_j`` the arc slopes), so the chained sum is
        ``Σ d_k + Σ_j w_j·s_j + w_start·start`` with ``w_j = sens·Σ_{m <
        n-1-j} LEAK^m``.  The weights run back to front (``w_{n-1} = 0``,
        ``w_j = sens + LEAK·w_{j+1}``, ``w_start`` one step past ``w_0``).

        The row gathers, last hop first, each hop's delay segment and its
        weighted slope segment, then the weighted start slope, and merges
        like terms with one ``bincount``: every coefficient is summed in
        the order :meth:`Posynomial.weighted_sum` over the same
        ``(weight, posynomial)`` pairs sums it, so the coefficients and the
        insertion order are bit for bit that sum's.
        """
        program = self.program
        n = len(hops)
        if n == 0:
            empty = np.zeros(0, dtype=np.intp)
            return PosyRow(program.index, empty, np.zeros(0))
        weights = self._hop_weights(n)
        arc_ids = program.arc_ids
        arcs = np.array([arc_ids[hop] for hop in reversed(hops)], dtype=np.intp)
        seg_start = np.empty(2 * n + 1, dtype=np.intp)
        seg_len = np.empty(2 * n + 1, dtype=np.intp)
        seg_weight = np.empty(2 * n + 1)
        seg_start[0:2 * n:2] = program.delay_start[arcs]
        seg_len[0:2 * n:2] = program.delay_len[arcs]
        seg_weight[0:2 * n:2] = 1.0
        seg_start[1:2 * n:2] = program.slope_start[arcs]
        seg_len[1:2 * n:2] = program.slope_len[arcs]
        seg_weight[1:2 * n:2] = weights[:n]
        seg_start[2 * n] = program.constant_slot
        seg_len[2 * n] = 1
        seg_weight[2 * n] = weights[n] * start
        # weighted_sum skips zero weights: the last hop's slope always.
        keep = seg_weight != 0.0
        seg_start = seg_start[keep]
        seg_len = seg_len[keep]
        seg_weight = seg_weight[keep]
        positions = gather_positions(seg_start, seg_len)
        ids = program.term_ids[positions]
        values = program.term_coeffs[positions] * np.repeat(seg_weight, seg_len)
        merged = np.bincount(ids, weights=values, minlength=len(program.index))
        unique, first = np.unique(ids, return_index=True)
        return PosyRow(program.index, unique, merged[unique], np.argsort(first))


class TimingConstraint:
    """One posynomial path constraint ``delay <= spec``.

    :attr:`row`, the path's compiled delay, is built by ``rows`` on first
    read, the first hop entered at input slope ``start``; :attr:`delay`,
    the posynomial, is built from the row on first read.
    """

    __slots__ = (
        "name", "spec", "kind", "hops", "_rows", "_start", "_row", "_delay",
    )

    def __init__(
        self,
        name: str,
        spec: float,
        kind: str,                # data / control / evaluate / precharge / segment
        hops: Tuple[Hop, ...],
        rows: PathRows,
        start: float,
    ):
        self.name = name
        self.spec = spec
        self.kind = kind
        self.hops = hops
        self._rows = rows
        self._start = start
        self._row: Optional[PosyRow] = None
        self._delay: Optional[Posynomial] = None

    @property
    def row(self) -> PosyRow:
        """The compiled path delay."""
        if self._row is None:
            self._row = self._rows.row(self.hops, self._start)
        return self._row

    @property
    def delay(self) -> Posynomial:
        """Path delay posynomial (ps), built from :attr:`row` on first read."""
        if self._delay is None:
            self._delay = self.row.posynomial()
        return self._delay

    def __repr__(self) -> str:
        return (
            f"TimingConstraint({self.name!r}, spec={self.spec!r}, "
            f"kind={self.kind!r}, hops={len(self.hops)})"
        )


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
        #: (stage, pin) -> [(input transition, hop, output transition)]
        self._step_arcs: Dict[Tuple[str, str], list] = {}
        self._rows: Optional[PathRows] = None
        #: (stage, pin) -> :meth:`_pin_flags`
        self._flags: Dict[Tuple[str, str], Tuple[bool, bool, bool, bool]] = {}

    # -- transition expansion ----------------------------------------------------

    def _arcs_of(self, stage_name: str, pin_name: str) -> list:
        arcs = self._step_arcs.get((stage_name, pin_name))
        if arcs is None:
            stage = self.circuit.stage(stage_name)
            pin = stage.pin(pin_name)
            arcs = self._step_arcs[(stage_name, pin_name)] = [
                (in_trans, (stage.name, pin.name, out_trans), out_trans)
                for in_trans, out_trans in stage_arcs(stage, pin)
            ]
        return arcs

    def transition_paths(self, path: StructuralPath) -> List[Tuple[Hop, ...]]:
        """Expand a structural path into chained transition paths, rising
        start first, each step's arcs in :func:`stage_arcs` order.

        Walks the steps once, extending every live partial path; a partial
        path is a ``(hop, parent)`` chain, so each result is materialized
        once instead of being re-copied at every step.
        """
        live = [(Transition.RISE, None), (Transition.FALL, None)]
        for step in path.steps:
            arcs = self._arcs_of(step.stage_name, step.pin_name)
            live = [
                (out_trans, (hop, chain))
                for incoming, chain in live
                for in_trans, hop, out_trans in arcs
                if in_trans is incoming
            ]
        results: List[Tuple[Hop, ...]] = []
        for _trans, chain in live:
            hops: List[Hop] = []
            while chain is not None:
                hop, chain = chain
                hops.append(hop)
            hops.reverse()
            results.append(tuple(hops))
        return results

    # -- classification -----------------------------------------------------------

    def _pin_flags(
        self, stage_name: str, pin_name: str
    ) -> Tuple[bool, bool, bool, bool]:
        """``(control, domino, clocked domino, clock pin)`` of one step."""
        flags = self._flags.get((stage_name, pin_name))
        if flags is None:
            stage = self.circuit.stage(stage_name)
            pin = stage.pin(pin_name)
            domino = stage.kind is StageKind.DOMINO
            flags = self._flags[(stage_name, pin_name)] = (
                # Select pins of pass/tri-state stages make a *control*
                # path (Section 5.3's "constraints through the control
                # port").  Domino select inputs are ordinary evaluate legs.
                pin.pin_class is PinClass.SELECT
                and stage.kind in (StageKind.PASSGATE, StageKind.TRISTATE),
                domino,
                domino and stage.clocked,
                pin.pin_class is PinClass.CLOCK,
            )
        return flags

    def _shape(self, steps: Sequence[Tuple[str, str]]) -> Tuple[bool, bool, list]:
        """What classification and phase segmentation read of a path's
        steps, which every transition path of it shares: whether a control
        pin or a domino stage is on it, and the ``(start, end)`` step
        ranges of its phase segments (see :meth:`phase_segments`)."""
        flags = [self._pin_flags(stage, pin) for stage, pin in steps]
        ranges = []
        start = 0
        for i, (_control, _domino, clocked, _clock) in enumerate(flags):
            if clocked:
                ranges.append((start, i + 1))
                start = i + 1
        if start < len(flags):
            ranges.append((start, len(flags)))
        # Merge a trailing segment with no dynamic stage into its phase.
        while len(ranges) > 1 and not any(
            flags[i][1] for i in range(*ranges[-1])
        ):
            _tail_start, tail_end = ranges.pop()
            ranges[-1] = (ranges[-1][0], tail_end)
        return (
            any(f[0] for f in flags), any(f[1] for f in flags), ranges,
        )

    def _kind(
        self, path: StructuralPath, hops: Tuple[Hop, ...], control: bool, domino: bool
    ) -> str:
        """The constraint class of one transition path of ``path``, given
        :meth:`_shape`'s ``control`` and ``domino`` flags."""
        if (
            self.circuit.net(path.start_net).kind is NetKind.CLOCK
            and self._pin_flags(hops[0][0], hops[0][1])[3]
        ):
            # The first domino arc tells precharge from evaluate.
            if hops[0][2] is Transition.RISE:
                return "precharge"
            return "evaluate"
        if control:
            return "control"
        if domino:
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
        _control, _domino, ranges = self._shape([hop[:2] for hop in hops])
        return [hops[start:end] for start, end in ranges]

    # -- delay assembly ----------------------------------------------------------------

    def path_delay_posynomial(self, hops: Sequence[Hop]) -> Posynomial:
        """Path delay with posynomial slope chaining: the dict form of
        :meth:`path_row`."""
        return self.path_row(hops).posynomial()

    def _start_slope(self, hops: Sequence[Hop]) -> float:
        """The designer's input slope, halved on clock nets: the constant
        slope a path's first hop is entered with."""
        start = self.spec.input_slope
        first_pin = self.circuit.stage(hops[0][0]).pin(hops[0][1])
        if first_pin.net.kind is NetKind.CLOCK:
            start *= 0.5
        return start

    def path_rows(self) -> PathRows:
        """The :class:`PathRows` over this circuit's arc program
        (:meth:`StaticTimingAnalyzer.arc_program`), built on first use."""
        if self._rows is None:
            self._rows = PathRows(
                self.analyzer.arc_program(),
                self.library.tech.slope_sensitivity,
            )
        return self._rows

    def path_row(self, hops: Sequence[Hop]) -> PosyRow:
        """Path delay with posynomial slope chaining, compiled from the arc
        table's arrays (:meth:`PathRows.row`), entered at the designer's
        input slope (halved on clock nets)."""
        start = self._start_slope(hops) if hops else self.spec.input_slope
        return self.path_rows().row(hops, start)

    # -- top level -------------------------------------------------------------------

    def generate(self, paths: Sequence[StructuralPath]) -> ConstraintSet:
        constraints = ConstraintSet()
        seen: set = set()
        for p_index, path in enumerate(paths):
            control, domino, ranges = self._shape(
                [(step.stage_name, step.pin_name) for step in path.steps]
            )
            for t_index, hops in enumerate(self.transition_paths(path)):
                if not hops:
                    continue
                kind = self._kind(path, hops, control, domino)
                if kind in ("data", "evaluate", "control") and len(ranges) > 1:
                    segments = [hops[start:end] for start, end in ranges]
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
        # Every hop's delay has terms (the driver's own load), so no path
        # delay is empty.
        constraints.timing.append(
            TimingConstraint(
                name, spec, kind, hops, self.path_rows(),
                self._start_slope(hops),
            )
        )

