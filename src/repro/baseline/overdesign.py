"""The "manual designer under schedule pressure" baseline.

Section 2(c): "Tight schedule constraints limit design space exploration,
thus resulting in over-design.  This implies wastage of silicon area and
power."  The paper's Figure-5/Table-1 savings are measured against hand-sized
production circuits we cannot have; this sizer reproduces the method such
circuits were actually sized with — and its characteristic waste:

* a single **uniform stage effort** everywhere (the classic logical-effort
  hand rule: pick a fanout, taper every stage to it), chosen conservatively:
  ``effort = NOMINAL_EFFORT / margin`` — every stage is ``margin``x stronger
  than the uniform-effort rule needs;
* **symmetric P/N skew** on every static gate, even where only one edge
  matters (domino buffers!);
* **full-strength precharge and evaluate devices** on domino nodes — the
  clock-load waste Table 1's domino rows quantify;
* shared labels take the width of their *worst* instance (regular layout,
  sized for the worst case);
* **no slack reallocation**: a stage on a path with 3x slack is sized exactly
  like its critical twin.

SMART, given the *same realized performance* as its spec, recovers all of
that: single-edge skews, minimum precharge that still meets the precharge
budget, and slack-aware per-label widths.

The experiment protocol matches Section 6.1: measure the baseline's realized
per-class delays with the timing analyzer, hand SMART the same topology and
*those* delays as its spec, and compare total transistor width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..models.gates import ModelLibrary
from ..netlist.circuit import Circuit
from ..netlist.stages import Stage, StageKind
from ..obs import metrics, trace
from ..obs.log import get_logger
from ..sim.timing import StaticTimingAnalyzer

log = get_logger(__name__)

#: The stage effort (output load / input capacitance) an unhurried designer
#: would taper to; dividing by the margin makes every stage proportionally
#: stronger than that.
NOMINAL_EFFORT = 4.0


@dataclass
class BaselineResult:
    """Outcome of the over-design sizing."""

    widths: Dict[str, float]       # free-label assignment
    resolved: Dict[str, float]     # every label
    area: float                    # total transistor width, µm
    clock_load: float              # gate width on clock nets, µm
    realized_delay: float          # worst output arrival per STA, ps


class OverdesignSizer:
    """Schedule-pressure manual sizing heuristic (uniform-effort taper).

    Parameters
    ----------
    margin:
        Over-drive factor on every stage (1.0 = the clean uniform-effort
        design; production over-design under schedule pressure is ~1.3-1.8).
    """

    def __init__(
        self,
        circuit: Circuit,
        library: ModelLibrary,
        margin: float = 1.5,
    ):
        if margin <= 0:
            raise ValueError("margin must be positive")
        self.circuit = circuit
        self.library = library
        self.tech = library.tech
        self.margin = margin
        self.analyzer = StaticTimingAnalyzer(circuit, library)

    def size(
        self,
        target_delay: Optional[float] = None,
        input_slope: float = 30.0,
    ) -> BaselineResult:
        """Run the backward uniform-effort pass.

        ``target_delay`` is accepted for API symmetry but the hand rule does
        not use it: the taper *determines* the achieved delay, which the
        caller measures from the returned result (the Section-6.1 protocol
        hands that measurement to SMART as the spec).
        """
        with trace.span(
            "baseline_size", circuit=self.circuit.name, margin=self.margin
        ) as sp:
            result = self._size_traced(input_slope)
            sp.set_attrs(
                area=round(result.area, 3),
                realized_delay=round(result.realized_delay, 2),
            )
        metrics.counter("baseline.runs").inc()
        log.debug(
            "baseline %s: area=%.1f um realized=%.1f ps (margin %.2f)",
            self.circuit.name, result.area, result.realized_delay, self.margin,
        )
        return result

    def _size_traced(self, input_slope: float) -> BaselineResult:
        effort = NOMINAL_EFFORT / self.margin
        table = self.circuit.size_table
        tech = self.tech

        label_width: Dict[str, float] = {
            v.name: v.lower for v in table if v.free
        }

        for stage in reversed(self.circuit.topological_stages()):
            resolved_now = table.resolve(label_width)
            # The hand rule drives the *external* load; a stage's own output
            # diffusion is self-loading and must not feed back into its own
            # width (with shared labels that feedback runs away).
            load = self.analyzer.net_load(stage.output.name, resolved_now)
            load -= self.library.output_parasitic(stage, table).evaluate(
                resolved_now
            )
            load = max(load, 0.0)
            # The hand habit for pass networks: treat the pass gate as
            # transparent and size the driver for everything behind it.
            fanout_pins = self.circuit.fanout_of(stage.output.name)
            for sink, pin in fanout_pins:
                if sink.kind is StageKind.PASSGATE and pin.name == "d":
                    load += self.analyzer.net_load(sink.output.name, resolved_now)
            # High-fanout nets are knowingly driven at higher effort (no
            # designer tapers a 32-sink net to fanout-of-3); the tolerated
            # effort grows with fanout beyond 4.
            effective_effort = effort * max(1.0, len(fanout_pins) / 4.0)
            cin = max(tech.c_gate * 2.0 * tech.min_width, load / effective_effort)
            for role, width in self._role_widths(stage, cin).items():
                label = stage.size_vars.get(role)
                if label is None:
                    continue
                var = table[label]
                if not var.free:
                    continue
                clamped = min(var.upper, max(var.lower, width))
                label_width[label] = max(label_width[label], clamped)

        resolved = table.resolve(label_width)
        report = self.analyzer.analyze(label_width, input_slope=input_slope)
        realized = report.worst(self.circuit.primary_outputs)
        area, clock_load = self.circuit.width_totals(resolved)
        return BaselineResult(
            widths=dict(label_width),
            resolved=resolved,
            area=area,
            clock_load=clock_load,
            realized_delay=realized,
        )

    # -- the hand rule, per stage kind ---------------------------------------------

    def _role_widths(self, stage: Stage, cin: float) -> Dict[str, float]:
        """Device widths so the stage presents roughly ``cin`` of input
        capacitance, with the designer's symmetric-edge habits."""
        tech = self.tech
        beta = tech.beta

        if stage.kind is StageKind.DOMINO:
            # Data devices sized for the evaluate pull; stack compensation.
            stack = max(1, stage.series_n)
            w_data = max(
                tech.min_width, stack * cin / (tech.c_gate * 2.0)
            )
            # Full-strength precharge and a fat evaluate foot: the safe,
            # clock-hungry habits SMART's Table-1 clock savings come from.
            return {
                "precharge": 1.5 * w_data,
                "data": w_data,
                "evaluate": 2.5 * w_data,
            }

        if stage.kind is StageKind.PASSGATE:
            # Inverter-equivalent conductance for ``cin`` — without credit
            # for the parallel PMOS (the safe hand habit).
            w_pass = max(
                tech.min_width,
                cin / ((1.0 + beta) * tech.c_gate),
            )
            return {"pass": w_pass}

        if stage.kind is StageKind.TRISTATE:
            w_n = 1.2 * cin / (tech.c_gate * (1.0 + beta))
            return {"pull_up": beta * w_n, "pull_down": w_n}

        per_pin = 2.0 if stage.kind is StageKind.XOR else 1.0
        w_n = cin / (per_pin * tech.c_gate * (1.0 + beta))
        w_n *= max(1, stage.series_n) ** 0.5  # partial stack compensation
        # Symmetric edges everywhere — including skewed positions where only
        # one edge matters.
        return {"pull_up": beta * w_n, "pull_down": w_n}
