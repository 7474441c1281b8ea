"""The SMART advisor — the Figure-1 flow end to end.

Given a macro instance (spec) and its local design constraints, the advisor:

1. pulls the topology choices from the design database;
2. applies *simple pruning of the design space*: a cheap feasibility screen
   (quick STA at nominal sizes) drops topologies that cannot come near the
   delay target at any size;
3. generates each surviving topology's netlist;
4. runs the automated sizer on each (objective = the designer's cost metric);
5. compares the sized solutions and reports — "it can automatically pick the
   best solution based on a specified cost function (area, power) or let the
   designer make his/her own choice".
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, Iterable, List, Optional

from ..cache.fingerprint import library_payload
from ..cache.store import SizingCache
from ..macros.base import MacroDatabase, MacroGenerator, MacroSpec
from ..macros.registry import default_database
from ..models.gates import ModelLibrary
from ..models.technology import Technology
from ..netlist.fingerprint import canonical_digest
from ..obs import metrics, perf, trace
from ..obs.log import get_logger
from ..sim.timing import StaticTimingAnalyzer
from ..sizing.engine import SizingError, SmartSizer
from .constraints import DesignConstraints
from .cost import evaluate_cost
from .report import AdvisorReport, CandidateResult

log = get_logger(__name__)

#: A topology whose nominal-size delay exceeds the budget by this factor is
#: pruned without sizing (the Figure-1 "Simple Pruning of Design Space" box).
PRUNE_FACTOR = 4.0


class SmartAdvisor:
    """Top-level designer-facing entry point.

    ``cache`` (a :class:`repro.cache.SizingCache`) is threaded into every
    sizer the advisor creates: exact hits skip the GP loop after an STA
    re-verification (or a verified solution certificate), near hits
    warm-start it.  ``certify=True`` adds a post-solve gate: every sized
    candidate carries the OPT70x solution certificate the sizer issued
    (or admitted a cache hit on) for its widths, and is marked infeasible
    when that certificate is not ok — the solved point provably fails a
    constraint the solver claimed satisfied.  The sizer certifies only
    when the cache carries a certificate store, so ``certify=True``
    attaches an in-memory
    :class:`~repro.lint.solution.SolutionCertificateStore` when the cache
    has none, and an in-memory cache when ``cache`` is ``None``.
    """

    def __init__(
        self,
        database: Optional[MacroDatabase] = None,
        tech: Optional[Technology] = None,
        library: Optional[ModelLibrary] = None,
        cache: Optional[SizingCache] = None,
        certify: bool = False,
    ):
        self.database = database or default_database()
        self.library = library or ModelLibrary(tech or Technology())
        self.tech = self.library.tech
        if certify:
            from ..lint.solution.certificate import SolutionCertificateStore

            if cache is None:
                cache = SizingCache()
            if cache.certificates is None:
                cache.certificates = SolutionCertificateStore()
        self.cache = cache
        self.certify = certify
        #: Lazily created per-advisor incremental lint result cache; it also
        #: replays the DFA303 interval screen (:meth:`_screen_gate`).
        self._lint_cache = None
        #: Nominal-size delay estimates under their screen keys (see
        #: :meth:`_screen_key`): a repeated request skips the point STA too.
        self._estimates: Dict[str, float] = {}

    def cache_stats(self) -> Dict[str, float]:
        """The sizing cache's hit/miss stats (when the advisor has a cache)
        plus ``screen_replays`` and ``margin_replays``, the DFA303 screens
        and noise margins replayed from the lint cache — the counts the run
        ledger and the CLI ``cache:`` line show."""
        stats: Dict[str, float] = (
            self.cache.stats.as_dict() if self.cache is not None else {}
        )
        lint = self._lint_cache.stats if self._lint_cache is not None else None
        stats["screen_replays"] = lint.screen_replays if lint else 0
        stats["margin_replays"] = lint.margin_replays if lint else 0
        return stats

    # -- design-space pruning ---------------------------------------------------

    def quick_delay_estimate(self, circuit, constraints: DesignConstraints) -> float:
        """Worst output arrival at nominal (geometric-mid) sizes — a cheap
        upper-bound screen, not a promise."""
        analyzer = StaticTimingAnalyzer(circuit, self.library)
        report = analyzer.analyze(
            circuit.size_table.default_env(), input_slope=constraints.input_slope
        )
        return report.worst(circuit.primary_outputs)

    # -- the flow ------------------------------------------------------------------

    def advise(
        self,
        spec: MacroSpec,
        constraints: DesignConstraints,
        topologies: Optional[Iterable[str]] = None,
        sizing_tolerance: float = 2.0,
        workers: int = 1,
    ) -> AdvisorReport:
        """Run the full Figure-1 flow; returns the comparison report.

        ``workers > 1`` sizes the candidate topologies in a process pool
        (one task per topology, results in deterministic database order,
        worker trace spans grafted into this process's trace).  Falls back
        to the inline path when the inputs cannot cross a process boundary.
        """
        if topologies is None:
            generators = self.database.applicable(spec)
        else:
            generators = [self.database.generator(name) for name in topologies]
        report = AdvisorReport(
            macro=f"{spec.macro_type}[{spec.width}]", metric=constraints.cost
        )
        t_start = time.perf_counter()
        with trace.span(
            "advise",
            macro=report.macro,
            metric=constraints.cost,
            candidates=len(generators),
            workers=max(1, workers),
        ) as sp:
            candidates = None
            if workers > 1 and len(generators) > 1:
                candidates = self._advise_parallel(
                    generators, spec, constraints, sizing_tolerance, workers
                )
            if candidates is None:
                candidates = [
                    self._try_topology(
                        generator, spec, constraints, sizing_tolerance
                    )
                    for generator in generators
                ]
            report.candidates.extend(candidates)
            best = report.best
            sp.set_attrs(
                feasible=len(report.feasible),
                best=best.topology if best else None,
            )
        self._record_run(
            report, spec, constraints, sp,
            wall_s=time.perf_counter() - t_start,
            workers=max(1, workers),
        )
        log.info(
            "advise %s: %d/%d topologies feasible, best=%s",
            report.macro, len(report.feasible), len(report.candidates),
            best.topology if best else "none",
        )
        return report

    def size_topology(
        self,
        topology: str,
        spec: MacroSpec,
        constraints: DesignConstraints,
        tolerance: float = 2.0,
    ):
        """Size one named topology; returns ``(circuit, SizingResult)``."""
        with trace.span("size_topology", topology=topology):
            generator = self.database.generator(topology)
            circuit = generator.generate(spec, self.tech)
            self._apply_pins(circuit, constraints)
            lint_errors = self._lint_gate(circuit)
            if lint_errors:
                raise SizingError(f"{circuit.name}: {lint_errors}")
            sizer = SmartSizer(
                circuit,
                self.library,
                objective=constraints.cost,
                otb_borrow=constraints.otb_borrow,
                cache=self.cache,
            )
            result = sizer.size(constraints.to_delay_spec(), tolerance=tolerance)
        return circuit, result

    # -- internals --------------------------------------------------------------------

    def _record_run(
        self,
        report: AdvisorReport,
        spec: MacroSpec,
        constraints: DesignConstraints,
        advise_span,
        *,
        wall_s: float,
        workers: int,
    ) -> None:
        """Append one run-ledger record for this advise invocation.

        Everything here (fingerprints, span rollups) is only computed when a
        ledger is active — the default path pays one ``is None`` check.
        """
        if perf.get_ledger() is None:
            return
        tracer = trace.get_tracer()
        subtree = (
            perf.collect_subtree(tracer.spans, advise_span.span_id)
            if isinstance(tracer, trace.Tracer)
            and advise_span is not trace._NULL_SPAN
            else []
        )
        inner = [s for s in subtree if s.span_id != advise_span.span_id]
        best = report.best
        perf.record_run(
            "advise",
            report.macro,
            wall_s=wall_s,
            spans=subtree,
            spec_fp=perf.payload_digest(dataclasses.asdict(spec)),
            context_fp=perf.payload_digest(dataclasses.asdict(constraints)),
            cache=self.cache_stats(),
            parallel=perf.parallel_rollup(
                [s for s in inner if s.name in ("topology", "advise")],
                workers,
                wall_s,
            ),
            extra={
                "metric": constraints.cost,
                "candidates": len(report.candidates),
                "feasible": len(report.feasible),
                "best": best.topology if best else None,
            },
        )

    def _advise_parallel(
        self,
        generators: List[MacroGenerator],
        spec: MacroSpec,
        constraints: DesignConstraints,
        tolerance: float,
        workers: int,
    ) -> Optional[List["CandidateResult"]]:
        """Fan candidate topologies across a process pool.

        Returns ``None`` when the pool cannot be used (unpicklable inputs,
        no fork support) — the caller then runs the inline path.  Imported
        lazily: :mod:`repro.parallel.pool` imports this module at top level.
        """
        from ..parallel.pool import (
            CandidateTask,
            absorb_outcomes,
            run_candidates,
        )

        tasks = [
            CandidateTask(
                topology=generator.name,
                spec=spec,
                constraints=constraints,
                tolerance=tolerance,
            )
            for generator in generators
        ]
        outcomes = run_candidates(
            tasks,
            workers=workers,
            database=self.database,
            tech=self.tech,
            cache=self.cache,
            certify=self.certify,
        )
        if outcomes is None:
            log.info(
                "advise %s: process pool unavailable, sizing inline",
                f"{spec.macro_type}[{spec.width}]",
            )
            return None
        return absorb_outcomes(outcomes, cache=self.cache)

    def _lint_gate(self, circuit) -> Optional[str]:
        """Pre-sizing lint gate: structural + family ERC rules, plus the
        switch-level SVC4xx group (at the lint's default enumeration
        budgets) and the NSA6xx group when the generator attached a golden
        functional spec; the NSA6xx rules evaluate against the advisor's
        library.

        Returns a one-line failure reason when the circuit has lint errors
        (fail fast — an electrically broken candidate would only waste GP
        iterations), ``None`` when clean.  Warnings are logged through
        ``repro.obs`` and do not block sizing.

        The gate is incremental: an advisor-lifetime
        :class:`~repro.lint.incremental.RuleResultCache` replays rule
        results for candidates whose input facets are unchanged, so
        re-gating the same topology across widths/targets only pays for
        the rules an edit actually invalidated.
        """
        return self._lint_failure(self._lint_report(circuit))

    def _lint_report(self, circuit):
        """The gate's :class:`~repro.lint.LintReport` (see
        :meth:`_lint_gate`); its ``facets`` are the circuit's facet
        fingerprints, which :meth:`_screen_gate` reuses."""
        from ..lint.runner import ALL_CIRCUIT_GROUPS, CIRCUIT_GROUPS, lint_circuit

        if self._lint_cache is None:
            from ..lint.incremental import RuleResultCache

            self._lint_cache = RuleResultCache()
        groups = (
            ALL_CIRCUIT_GROUPS
            if getattr(circuit, "functional_spec", None) is not None
            else CIRCUIT_GROUPS
        )
        with trace.span("lint_gate", circuit=circuit.name) as sp:
            report = lint_circuit(
                circuit, groups=groups, cache=self._lint_cache,
                library=self.library,
            )
            sp.set_attrs(
                errors=len(report.errors), warnings=len(report.warnings)
            )
        for diag in report.warnings:
            log.debug("lint %s: %s", circuit.name, diag.format())
        if report.warnings:
            log.info(
                "lint %s: %d warning(s) (first: %s)",
                circuit.name, len(report.warnings),
                report.warnings[0].rule_id,
            )
        return report

    @staticmethod
    def _lint_failure(report) -> Optional[str]:
        if report.ok:
            return None
        metrics.counter("advisor.topologies_lint_failed").inc()
        first = report.errors[0].format()
        more = len(report.errors) - 1
        return (
            f"lint failed: {first}" + (f" (+{more} more)" if more else "")
        )

    def _screen_key(
        self, facets: Dict[str, str], constraints: DesignConstraints
    ) -> str:
        """Content address of the pre-GP screens of one candidate: DFA303's
        declared facets of the circuit (``topology``/``sizing``/``phases``,
        as fingerprinted by the lint gate), the delay spec, the OTB window
        and the library — everything :func:`screen_feasibility` and
        :meth:`quick_delay_estimate` read."""
        from ..lint.dataflow.interval import DFA303

        return self._lint_cache.key(
            DFA303,
            facets,
            {
                "spec": dataclasses.asdict(constraints.to_delay_spec()),
                "otb_borrow": constraints.otb_borrow,
                "library": library_payload(self.library),
            },
        )

    def _screen_gate(
        self, circuit, constraints: DesignConstraints, key: str
    ) -> Optional[str]:
        """Interval-STA gate: prove the budget unreachable over the whole
        size box *before* path extraction or GP solving.

        Unlike :meth:`quick_delay_estimate` (a point heuristic with a 4x
        fudge factor), this is a certificate — it only rejects topologies
        whose first GP round is mathematically infeasible, so no topology
        the sizer could have sized is ever lost here.

        The DFA303 findings are stored in the advisor's lint cache under
        ``key`` (:meth:`_screen_key`), so a repeated request replays them
        instead of re-propagating intervals; the verdict is infeasible
        exactly when there are any.
        """
        from ..lint.dataflow.interval import (
            DFA303,
            IntervalScreenResult,
            screen_feasibility,
        )
        from ..lint.diagnostics import LintReport

        with trace.span("interval_screen_gate", circuit=circuit.name) as sp:
            findings = self._lint_cache.lookup(key)
            if findings is None:
                t_start = time.perf_counter()
                screen = screen_feasibility(
                    circuit,
                    self.library,
                    constraints.to_delay_spec(),
                    otb_borrow=constraints.otb_borrow,
                )
                wall = time.perf_counter() - t_start
                findings = screen.report.diagnostics
                self._lint_cache.note_executed(wall)
                self._lint_cache.record(key, DFA303, findings, wall)
                sp.set_attrs(verdict=screen.verdict)
            else:
                self._lint_cache.stats.screen_replays += 1
                metrics.counter("advisor.screens_replayed").inc()
                sp.set_attrs(replayed=True)
        if not findings:
            return None
        summary = IntervalScreenResult(
            verdict="provably-infeasible",
            report=LintReport(
                subject=f"{circuit.name}:interval-sta",
                diagnostics=list(findings),
            ),
            circuit_name=circuit.name,
        ).summary()
        metrics.counter("advisor.topologies_screened_infeasible").inc()
        log.debug("screened %s: %s", circuit.name, summary)
        return summary

    def _electrical_options(
        self, constraints: DesignConstraints
    ) -> Dict[str, float]:
        options: Dict[str, float] = {
            "electrical_input_slope": constraints.input_slope,
        }
        if constraints.charge_sharing_ratio is not None:
            options["electrical_charge_ratio"] = (
                constraints.charge_sharing_ratio
            )
        return options

    def _electrical_gate(
        self, circuit, constraints: DesignConstraints
    ) -> Optional[str]:
        """NSA6xx box pre-screen: prove the noise budgets unreachable over
        the whole size box *before* any GP is built.

        Runs only when the designer asked for a charge-sharing limit
        (``constraints.charge_sharing_ratio``); like :meth:`_screen_gate`
        it rejects on a box-wide certificate, never on a point estimate,
        so no topology the sizer could have saved is lost here.
        """
        if constraints.charge_sharing_ratio is None:
            return None
        from ..lint.electrical import screen_electrical

        with trace.span("electrical_screen_gate", circuit=circuit.name) as sp:
            screen = screen_electrical(
                circuit,
                self.library,
                options=self._electrical_options(constraints),
            )
            sp.set_attrs(verdict=screen.verdict)
        if not screen.infeasible:
            return None
        metrics.counter("advisor.topologies_noise_infeasible").inc()
        log.debug("noise-screened %s: %s", circuit.name, screen.summary())
        return screen.summary()

    def _noise_margin(
        self, circuit, constraints: DesignConstraints, sizing, screen_key: str
    ) -> Optional[float]:
        """Worst NSA6xx margin at the solved widths (for the report).

        Stored in the advisor's lint cache beside the DFA303 findings, under
        the screen key plus the electrical options and the widths' digest
        (everything :func:`worst_noise_margin` reads), so a repeated
        request replays it.  A failed computation is logged, not stored.
        """
        from ..lint.electrical import worst_noise_margin
        from ..lint.solution.certificate import widths_digest

        options = self._electrical_options(constraints)
        key = canonical_digest({
            "noise_margin": screen_key,
            "electrical": options,
            "widths": widths_digest(sizing.resolved),
        })
        entry = self._lint_cache.get(key)
        if entry is not None:
            self._lint_cache.stats.margin_replays += 1
            metrics.counter("advisor.noise_margins_replayed").inc()
            return entry["noise_margin"]
        t_start = time.perf_counter()
        try:
            margin = worst_noise_margin(
                circuit, self.library, options=options, env=sizing.resolved
            )
        except Exception as exc:  # never fail a sized candidate on this
            log.warning(
                "noise margin for %s skipped (%s)", circuit.name, exc
            )
            return None
        self._lint_cache.put(key, {"noise_margin": margin})
        perf.record_run(
            "electrical",
            circuit.name,
            wall_s=time.perf_counter() - t_start,
            extra={"noise_margin": margin},
        )
        return margin

    def _certificate_gate(self, cert: Optional[dict]) -> str:
        """Post-solve OPT70x gate of a sized candidate (``certify=True``):
        the rejection reason when its certificate is not ok, else ``""``.

        A result without a certificate (issuance failed in the sizer)
        passes — the same never-fail pattern as :meth:`_noise_margin`; a
        certificate that comes back not-ok fails the candidate, because
        the point provably fails a constraint.
        """
        if cert is None or cert["ok"]:
            return ""
        failed = sorted(
            check for check, verdict in cert["checks"].items()
            if not verdict.get("ok", True)
        )
        return (
            f"solution certificate rejected ({', '.join(failed)}): "
            f"worst residual {cert['worst_residual_ps']:.2f} ps vs "
            f"tolerance {cert['tolerance']:.2f} ps"
        )

    def _apply_pins(self, circuit, constraints: DesignConstraints) -> None:
        for label, width in (constraints.pinned_sizes or {}).items():
            if label in circuit.size_table:
                circuit.size_table.pin(label, width)

    def _try_topology(
        self,
        generator: MacroGenerator,
        spec: MacroSpec,
        constraints: DesignConstraints,
        tolerance: float,
    ) -> CandidateResult:
        with trace.span("topology", topology=generator.name) as sp:
            candidate = self._size_candidate(
                generator, spec, constraints, tolerance
            )
            sp.set_attrs(feasible=candidate.feasible)
            if not candidate.feasible:
                sp.set_attrs(reason=candidate.reason)
        return candidate

    def _size_candidate(
        self,
        generator: MacroGenerator,
        spec: MacroSpec,
        constraints: DesignConstraints,
        tolerance: float,
    ) -> CandidateResult:
        try:
            circuit = generator.generate(spec, self.tech)
        except ValueError as exc:
            return CandidateResult(
                topology=generator.name,
                description=generator.description,
                feasible=False,
                reason=f"generation failed: {exc}",
            )
        self._apply_pins(circuit, constraints)

        gate = self._lint_report(circuit)
        lint_errors = self._lint_failure(gate)
        if lint_errors:
            return CandidateResult(
                topology=generator.name,
                description=generator.description,
                feasible=False,
                reason=lint_errors,
            )

        screen_key = self._screen_key(gate.facets, constraints)
        screen_reason = self._screen_gate(circuit, constraints, screen_key)
        if screen_reason:
            return CandidateResult(
                topology=generator.name,
                description=generator.description,
                feasible=False,
                reason=screen_reason,
                screened=True,
            )

        noise_reason = self._electrical_gate(circuit, constraints)
        if noise_reason:
            return CandidateResult(
                topology=generator.name,
                description=generator.description,
                feasible=False,
                reason=noise_reason,
                screened=True,
            )

        with trace.span("feasibility_screen"):
            estimate = self._estimates.get(screen_key)
            if estimate is None:
                estimate = self._estimates[screen_key] = (
                    self.quick_delay_estimate(circuit, constraints)
                )
        if estimate > PRUNE_FACTOR * constraints.delay:
            metrics.counter("advisor.topologies_pruned").inc()
            log.debug(
                "pruned %s: nominal delay %.0f ps vs budget %.0f ps",
                generator.name, estimate, constraints.delay,
            )
            return CandidateResult(
                topology=generator.name,
                description=generator.description,
                feasible=False,
                reason=(
                    f"pruned: nominal-size delay {estimate:.0f} ps >> "
                    f"budget {constraints.delay:.0f} ps"
                ),
            )

        sizer = SmartSizer(
            circuit,
            self.library,
            objective=constraints.cost,
            otb_borrow=constraints.otb_borrow,
            pre_screen=False,  # the advisor already ran the interval screen
            cache=self.cache,
        )
        try:
            sizing = sizer.size(constraints.to_delay_spec(), tolerance=tolerance)
        except SizingError as exc:
            metrics.counter("advisor.topologies_infeasible").inc()
            return CandidateResult(
                topology=generator.name,
                description=generator.description,
                feasible=False,
                reason=str(exc),
            )
        metrics.counter("advisor.topologies_sized").inc()
        certificate = sizing.certificate if self.certify else None
        reject_reason = self._certificate_gate(certificate)
        if reject_reason:
            metrics.counter("advisor.certificates_rejected").inc()
            return CandidateResult(
                topology=generator.name,
                description=generator.description,
                feasible=False,
                sizing=sizing,
                reason=reject_reason,
                certificate=certificate,
            )
        cost = evaluate_cost(circuit, self.library, sizing.resolved, constraints.cost)
        return CandidateResult(
            topology=generator.name,
            description=generator.description,
            feasible=True,
            sizing=sizing,
            cost=cost,
            noise_margin=self._noise_margin(
                circuit, constraints, sizing, screen_key
            ),
            certificate=certificate,
        )
