"""Cost metrics the advisor compares sized topologies with.

The paper's metrics: total transistor width (area, and a direct proxy for
power), clock load (domino topologies), and simulated power (PowerMill; our
substitute is :class:`~repro.sim.power.PowerEstimator`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..models.gates import ModelLibrary
from ..netlist.circuit import Circuit
from ..sim.power import PowerEstimator


@dataclass(frozen=True)
class CostBreakdown:
    """All metrics for one sized candidate, plus the scalar used for
    ranking."""

    area: float          # total transistor width, µm
    clock_load: float    # gate width on clock nets, µm
    power: float         # estimated dynamic power, µW
    scalar: float        # the ranked value (depends on the chosen metric)

    def normalized_to(self, other: "CostBreakdown") -> "CostBreakdown":
        """This breakdown with every field divided by ``other``'s (for the
        paper-style normalized tables)."""
        def ratio(x: float, y: float) -> float:
            return x / y if y else float("inf") if x else 1.0

        return CostBreakdown(
            area=ratio(self.area, other.area),
            clock_load=ratio(self.clock_load, other.clock_load),
            power=ratio(self.power, other.power),
            scalar=ratio(self.scalar, other.scalar),
        )


def evaluate_cost(
    circuit: Circuit,
    library: ModelLibrary,
    widths: Mapping[str, float],
    metric: str = "area",
) -> CostBreakdown:
    """Compute every metric for a sized circuit and select the ranking
    scalar per ``metric``."""
    resolved = circuit.size_table.resolve(widths) if not all(
        n in widths for n in circuit.size_table.names()
    ) else dict(widths)
    area, clock_load = circuit.width_totals(resolved)
    power = PowerEstimator(circuit, library).estimate(resolved).total
    if metric == "area":
        scalar = area
    elif metric == "power":
        scalar = power
    elif metric == "clock":
        scalar = clock_load
    elif metric == "area+clock":
        scalar = area + clock_load
    else:
        raise ValueError(f"unknown cost metric {metric!r}")
    return CostBreakdown(area=area, clock_load=clock_load, power=power, scalar=scalar)
