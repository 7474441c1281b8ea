"""Regularity-collapsed sizing: solve one representative slice, replicate,
certify (ROADMAP's "solve one slice, replicate N", made sound).

The paper's Section 5.2 merges *paths* by regularity signature; this module
merges *variables*: free size labels that are structurally equivalent under
the label-blind bounded-radius WL refinement of
:func:`repro.lint.symbolic.isomorphism.label_equivalence_classes` are tied
to one representative each (a ratio tie of factor 1.0), so the GP the
engine builds has one variable — and, because regularity pruning dedupes
the now-identical paths, one constraint set — per equivalence class.  The
cross-slice boundary-load coupling constraints survive the collapse
automatically: a boundary path's delay posynomial simply mentions two
representatives instead of two per-slice labels.

The WL classes are a *heuristic proposal* (delay is a radius-unbounded
function of the whole circuit), so the collapse is only adopted behind a
proof: after the collapsed solve, the representative widths are replicated
onto the original free labels and the full original circuit is re-audited
at the replicated point by :class:`repro.lint.solution.audit.SolutionAudit`
(OPT703 replication soundness + OPT701 primal feasibility, full-STA
measured).  Certificate rejection — or a collapsed solve that fails to
converge — falls back to the ordinary full solve, so the collapse can
never produce a worse answer than not collapsing, only a faster one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..models.gates import ModelLibrary
from ..netlist.circuit import Circuit
from ..netlist.sizing_vars import SizeVar
from ..obs import metrics, perf, trace
from ..obs.log import get_logger
from ..cache.store import SizingCache
from .constraints import DelaySpec
from .engine import SizingError, SizingResult, SmartSizer

log = get_logger(__name__)


@dataclass
class CollapsedSizingResult:
    """Outcome of :meth:`RegularityCollapsedSizer.size`.

    ``result`` is always a full-circuit :class:`SizingResult` — either the
    certified replication of the collapsed solve, or (``fallback=True``)
    the ordinary full solve that replaced a rejected collapse.
    """

    result: SizingResult
    classes: List[List[str]] = field(default_factory=list)
    full_free: int = 0
    collapsed_free: int = 0
    certificate: Optional[object] = None   # SolutionCertificate when issued
    fallback: bool = False
    fallback_reason: str = ""
    collapsed_runtime_s: float = 0.0       # wall of the collapsed solve
    certify_runtime_s: float = 0.0         # wall of the post-hoc audit

    @property
    def merged_labels(self) -> int:
        return self.full_free - self.collapsed_free


class RegularityCollapsedSizer:
    """Slice-collapsed front end over :class:`SmartSizer` (see module
    docstring for the soundness story).

    Parameters mirror :class:`SmartSizer`; additionally ``radius`` bounds
    the WL refinement (3 separates every distinct boundary role in the
    macro corpus while still collapsing the interior), and ``cache``
    receives the certified full-circuit result under the *full problem's*
    content address (:meth:`SmartSizer.publish`) — with the issued
    certificate, when ``cache.certificates`` is set, so later exact hits
    can be admitted without an STA re-run.
    """

    def __init__(
        self,
        circuit: Circuit,
        library: ModelLibrary,
        objective: str = "area",
        radius: int = 3,
        otb_borrow: float = 0.0,
        analysis_library: Optional[ModelLibrary] = None,
        cache: Optional[SizingCache] = None,
        with_kkt: bool = True,
    ):
        self.circuit = circuit
        self.library = library
        self.objective = objective
        self.radius = radius
        self.otb_borrow = otb_borrow
        self.analysis_library = analysis_library
        self.cache = cache
        #: Annotate the certificate with the OPT702 optimality-gap bound.
        #: The NNLS fit is O(labels x constraints) — worth skipping on very
        #: wide circuits where the gap annotation is not needed (it is
        #: never a veto; see SolutionAudit.certify).
        self.with_kkt = with_kkt

    # -- collapse mechanics -------------------------------------------------

    def equivalence_classes(self) -> List[List[str]]:
        """WL label classes (lazy import — lint loads the netlist package)."""
        from ..lint.symbolic.isomorphism import label_equivalence_classes

        return label_equivalence_classes(self.circuit, radius=self.radius)

    def _tie(self, classes: Sequence[Sequence[str]]) -> List[SizeVar]:
        """Install factor-1.0 ratio ties member -> representative; returns
        the displaced :class:`SizeVar` objects for :meth:`_untie`."""
        table = self.circuit.size_table
        undo: List[SizeVar] = []
        for members in classes:
            rep = members[0]
            for member in members[1:]:
                original = table[member]
                undo.append(original)
                table._vars[member] = SizeVar(
                    member, original.lower, original.upper,
                    ratio_of=(rep, 1.0),
                )
        return undo

    def _untie(self, undo: Sequence[SizeVar]) -> None:
        table = self.circuit.size_table
        for original in undo:
            table._vars[original.name] = original

    def _full_sizer(self) -> SmartSizer:
        return SmartSizer(
            self.circuit,
            self.library,
            objective=self.objective,
            otb_borrow=self.otb_borrow,
            analysis_library=self.analysis_library,
            cache=self.cache,
        )

    # -- main entry ---------------------------------------------------------

    def size(
        self,
        spec: DelaySpec,
        tolerance: float = 2.0,
        max_outer_iterations: int = 8,
    ) -> CollapsedSizingResult:
        """Collapse, solve, replicate, certify — or fall back to the full
        solve when the proof does not go through."""
        t_start = time.perf_counter()
        full_free = len(self.circuit.size_table.free_names())
        classes = self.equivalence_classes()
        merged = sum(len(c) - 1 for c in classes)
        if merged == 0:
            return self._fallback(
                spec, tolerance, max_outer_iterations, classes,
                full_free, t_start,
                reason="no label regularity to collapse",
            )
        with trace.span(
            "collapsed_size",
            circuit=self.circuit.name,
            classes=len(classes),
            merged=merged,
        ):
            undo = self._tie(classes)
            try:
                collapsed_sizer = SmartSizer(
                    self.circuit,
                    self.library,
                    objective=self.objective,
                    otb_borrow=self.otb_borrow,
                    analysis_library=self.analysis_library,
                )
                t_solve = time.perf_counter()
                try:
                    collapsed = collapsed_sizer.size(
                        spec,
                        tolerance=tolerance,
                        max_outer_iterations=max_outer_iterations,
                    )
                except SizingError as exc:
                    # The ties are extra constraints: a collapsed-infeasible
                    # spec may still be solvable in full.
                    return self._fallback(
                        spec, tolerance, max_outer_iterations, classes,
                        full_free, t_start,
                        reason=f"collapsed GP infeasible ({exc})",
                        collapsed_runtime_s=(
                            time.perf_counter() - t_solve
                        ),
                    )
                collapsed_wall = time.perf_counter() - t_solve
                # Resolve through the tied table *before* untying: this is
                # the replication step — every member inherits its
                # representative's width through the factor-1.0 ratio.
                resolved_tied = self.circuit.size_table.resolve(
                    collapsed.widths
                )
            finally:
                self._untie(undo)
        replicated = {
            name: resolved_tied[name]
            for name in self.circuit.size_table.free_names()
        }
        if not collapsed.converged:
            return self._fallback(
                spec, tolerance, max_outer_iterations, classes,
                full_free, t_start,
                reason=(
                    f"collapsed solve did not converge (residual "
                    f"{collapsed.worst_violation:.2f} ps)"
                ),
                collapsed_runtime_s=collapsed_wall,
            )

        # Post-hoc certification on the original circuit (lazy import:
        # the audit pulls in the lint package).
        from ..lint.solution.audit import SolutionAudit

        t_certify = time.perf_counter()
        audit = SolutionAudit(
            self.circuit, self.library, spec,
            tolerance=tolerance,
            otb_borrow=self.otb_borrow,
            objective=self.objective,
            analysis_library=self.analysis_library,
        )
        full_sizer = self._full_sizer()
        cache_key = full_sizer.cache_key(spec, tolerance)
        certificate = audit.certify(
            replicated,
            cache_key=cache_key.key,
            classes=classes,
            representative_env=collapsed.widths,
            with_kkt=self.with_kkt,
        )
        certify_wall = time.perf_counter() - t_certify
        if not certificate.ok:
            failed = sorted(
                rule_id
                for rule_id, check in certificate.checks.items()
                if not check.get("ok", True)
            )
            metrics.counter("collapse.cert_rejections").inc()
            return self._fallback(
                spec, tolerance, max_outer_iterations, classes,
                full_free, t_start,
                reason=(
                    f"certificate rejected ({', '.join(failed)}; residual "
                    f"{certificate.worst_residual_ps:.2f} ps)"
                ),
                collapsed_runtime_s=collapsed_wall,
                certify_runtime_s=certify_wall,
            )

        _constraints, realized, worst, _name = audit.measure(replicated)
        resolved = self.circuit.size_table.resolve(replicated)
        area, clock_load = self.circuit.width_totals(resolved)
        result = SizingResult(
            circuit_name=self.circuit.name,
            widths=replicated,
            resolved=resolved,
            converged=True,
            iterations=collapsed.iterations,
            area=area,
            clock_load=clock_load,
            worst_violation=max(0.0, worst),
            realized=realized,
            specs=dict(certificate.specs),
            history=collapsed.history,
            prune_stats=collapsed.prune_stats,
            runtime_s=time.perf_counter() - t_start,
            gp_fallback_count=collapsed.gp_fallback_count,
            certificate=certificate.to_payload(),
        )
        full_sizer.publish(result, spec, tolerance, certificate)
        outcome = CollapsedSizingResult(
            result=result,
            classes=[list(c) for c in classes],
            full_free=full_free,
            collapsed_free=full_free - merged,
            certificate=certificate,
            collapsed_runtime_s=collapsed_wall,
            certify_runtime_s=certify_wall,
        )
        self._record(outcome, spec)
        log.info(
            "collapsed sizing %s: %d -> %d free vars, certified "
            "(residual %.2f ps, solve %.3f s + certify %.3f s)",
            self.circuit.name, full_free, outcome.collapsed_free,
            result.worst_violation, collapsed_wall, certify_wall,
        )
        return outcome

    # -- helpers ------------------------------------------------------------

    def _fallback(
        self,
        spec: DelaySpec,
        tolerance: float,
        max_outer_iterations: int,
        classes: Sequence[Sequence[str]],
        full_free: int,
        t_start: float,
        reason: str,
        collapsed_runtime_s: float = 0.0,
        certify_runtime_s: float = 0.0,
    ) -> CollapsedSizingResult:
        log.info(
            "collapsed sizing %s falling back to full solve: %s",
            self.circuit.name, reason,
        )
        metrics.counter("collapse.fallbacks").inc()
        result = self._full_sizer().size(
            spec, tolerance=tolerance,
            max_outer_iterations=max_outer_iterations,
        )
        result.runtime_s = time.perf_counter() - t_start
        outcome = CollapsedSizingResult(
            result=result,
            classes=[list(c) for c in classes],
            full_free=full_free,
            collapsed_free=full_free,
            fallback=True,
            fallback_reason=reason,
            collapsed_runtime_s=collapsed_runtime_s,
            certify_runtime_s=certify_runtime_s,
        )
        self._record(outcome, spec)
        return outcome

    def _record(self, outcome: CollapsedSizingResult, spec: DelaySpec) -> None:
        if perf.get_ledger() is None:
            return
        perf.record_run(
            "collapse",
            self.circuit.name,
            wall_s=outcome.result.runtime_s,
            extra={
                "full_free": outcome.full_free,
                "collapsed_free": outcome.collapsed_free,
                "classes": len(outcome.classes),
                "fallback": outcome.fallback,
                "fallback_reason": outcome.fallback_reason,
                "certified": (
                    bool(getattr(outcome.certificate, "ok", False))
                ),
                "collapsed_runtime_s": round(
                    outcome.collapsed_runtime_s, 6
                ),
                "certify_runtime_s": round(outcome.certify_runtime_s, 6),
                "spec_data": round(spec.data, 6),
            },
        )
