"""Result containers and rendering for advisor runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..sizing.engine import SizingResult
from .cost import CostBreakdown


@dataclass
class CandidateResult:
    """One topology's outcome in an advisor run."""

    topology: str
    description: str
    feasible: bool
    sizing: Optional[SizingResult] = None
    cost: Optional[CostBreakdown] = None
    reason: str = ""
    #: Rejected by the interval-STA screen before any GP solve was attempted
    #: (a provably-infeasible certificate, not a solver failure).
    screened: bool = False
    #: Worst post-sizing electrical noise margin (NSA6xx, fraction of VDD)
    #: at the solved widths; ``None`` when the topology has no
    #: noise-sensitive nodes or sizing failed.  Negative means some node
    #: dips past its budget at the chosen sizing.
    noise_margin: Optional[float] = None
    #: The sizing's ``smart-solution-certificate/1`` payload
    #: (``sizing.certificate``, issued or cache-admitted by the sizer) when
    #: the advisor runs with ``certify=True``; ``None`` when certification
    #: is off or its issuance failed.
    certificate: Optional[dict] = None

    @property
    def converged(self) -> bool:
        return bool(self.sizing and self.sizing.converged)


@dataclass
class AdvisorReport:
    """Ranked comparison of every explored topology (the "Comparison Result"
    box of Figure 1)."""

    macro: str
    metric: str
    candidates: List[CandidateResult] = field(default_factory=list)

    @property
    def feasible(self) -> List[CandidateResult]:
        return [c for c in self.candidates if c.feasible and c.converged]

    @property
    def best(self) -> Optional[CandidateResult]:
        """Lowest-cost converged candidate; the designer may override."""
        ranked = self.feasible
        if not ranked:
            return None
        return min(ranked, key=lambda c: c.cost.scalar)

    def ranked(self) -> List[CandidateResult]:
        feasible = sorted(self.feasible, key=lambda c: c.cost.scalar)
        rest = [c for c in self.candidates if c not in feasible]
        return feasible + rest

    def render(self) -> str:
        """Plain-text comparison table."""
        lines = [
            f"SMART advisor report: {self.macro} (metric: {self.metric})",
            f"{'topology':<34} {'status':<12} {'area':>10} {'clock':>10} "
            f"{'power':>10} {'iters':>6} {'time s':>8} {'gp-fb':>5}",
        ]
        for cand in self.ranked():
            if cand.feasible and cand.sizing is not None and cand.cost is not None:
                status = "ok" if cand.converged else "no-conv"
                lines.append(
                    f"{cand.topology:<34} {status:<12} "
                    f"{cand.cost.area:>10.1f} {cand.cost.clock_load:>10.1f} "
                    f"{cand.cost.power:>10.1f} {cand.sizing.iterations:>6d} "
                    f"{cand.sizing.runtime_s:>8.3f} "
                    f"{cand.sizing.gp_fallback_count:>5d}"
                )
            else:
                lines.append(
                    f"{cand.topology:<34} {'infeasible':<12} "
                    f"{'-':>10} {'-':>10} {'-':>10} {'-':>6} {'-':>8} "
                    f"{'-':>5}  {cand.reason}"
                )
        screened = sum(1 for c in self.candidates if c.screened)
        if screened:
            lines.append(
                f"interval-STA screen: {screened} topolog"
                f"{'y' if screened == 1 else 'ies'} proven infeasible "
                "before any GP solve"
            )
        margins = [
            c for c in self.candidates if c.noise_margin is not None
        ]
        if margins:
            worst = min(margins, key=lambda c: c.noise_margin)
            lines.append(
                f"electrical margins (NSA6xx): worst {worst.noise_margin:+.1%}"
                f" of VDD on {worst.topology}"
                + ("" if worst.noise_margin >= 0 else " — budget exceeded")
            )
        best = self.best
        if best is not None:
            lines.append(f"best: {best.topology} (scalar {best.cost.scalar:.1f})")
        return "\n".join(lines)
