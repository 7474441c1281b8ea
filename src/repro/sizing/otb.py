"""Opportunistic time borrowing (OTB) analysis for multi-phase domino paths.

Section 5.3: "An interesting feature of SMART sizer for dynamic circuits is
that the problem formulation automatically takes into account OTB
(Opportunistic Time Borrowing).  This allows its application on even some of
the most critical circuits."

The *formulation* hook lives in the constraint generator (see
``ConstraintGenerator.phase_segments`` and the ``otb_borrow`` window): with
OTB enabled, a path crossing a D1 phase boundary is constrained on its *total*
budget while each phase segment may overrun its boundary by the borrow window.
This module provides the companion analysis: given a sized circuit, how much
does each evaluate segment actually borrow across its phase boundary?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional

from ..models.gates import ModelLibrary
from ..netlist.circuit import Circuit
from ..netlist.stages import StageKind
from ..sim.timing import StaticTimingAnalyzer
from .constraints import ConstraintGenerator, DelaySpec
from .paths import StructuralPath
from .pruning import prune_paths


@dataclass
class BorrowRecord:
    """Borrowing of one phase segment: positive means the segment ran past
    its phase budget and borrowed from the next phase."""

    path_name: str
    segment_index: int
    segment_delay: float
    phase_budget: float

    @property
    def borrowed(self) -> float:
        return max(0.0, self.segment_delay - self.phase_budget)


@dataclass
class OTBReport:
    records: List[BorrowRecord]

    @property
    def max_borrowed(self) -> float:
        return max((r.borrowed for r in self.records), default=0.0)

    @property
    def any_borrowing(self) -> bool:
        return self.max_borrowed > 0.0

    def borrowers(self) -> List[BorrowRecord]:
        return [r for r in self.records if r.borrowed > 0.0]


def analyze_borrowing(
    circuit: Circuit,
    library: ModelLibrary,
    widths: Mapping[str, float],
    spec: DelaySpec,
    paths: Optional[List[StructuralPath]] = None,
) -> OTBReport:
    """Measure per-segment delays of every multi-phase path at ``widths``.

    Only meaningful for circuits with clocked (D1) domino stages; the report
    is empty otherwise.
    """
    if not any(
        s.kind is StageKind.DOMINO and s.clocked for s in circuit.stages
    ):
        return OTBReport(records=[])

    if paths is None:
        paths = prune_paths(circuit).paths
    generator = ConstraintGenerator(circuit, library, spec)
    analyzer = StaticTimingAnalyzer(circuit, library)
    phase_budget = spec.for_kind("segment")

    records: List[BorrowRecord] = []
    for p_index, path in enumerate(paths):
        for hops in generator.transition_paths(path):
            segments = generator.phase_segments(hops)
            if len(segments) < 2:
                continue
            for s_index, segment in enumerate(segments):
                delay = analyzer.path_delay(
                    segment, widths, input_slope=spec.input_slope
                )
                records.append(
                    BorrowRecord(
                        path_name=f"p{p_index}",
                        segment_index=s_index,
                        segment_delay=delay,
                        phase_budget=phase_budget,
                    )
                )
    return OTBReport(records=records)
