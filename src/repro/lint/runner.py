"""Circuit lint driver: runs the structural/family rule groups.

With a :class:`~repro.lint.incremental.RuleResultCache` attached, the
driver becomes incremental: before executing a rule it content-addresses
the rule's declared input facets (plus the options mapping) and replays
the recorded diagnostics on a hit — see :mod:`repro.lint.incremental` for
the soundness argument.  Every execution (fresh or replayed) is recorded
per rule in :attr:`LintReport.executed`, and — when a run ledger is
installed — as one ``kind="rule"`` ledger record each, so ``perf report``
can attribute wall time to individual rules.
"""

from __future__ import annotations

import time
from typing import Iterable, Mapping, Optional, Sequence, Tuple

from ..cache.fingerprint import library_payload
from ..models.gates import ModelLibrary
from ..netlist.circuit import Circuit
from ..netlist.fingerprint import facet_fingerprints
from ..obs import metrics, perf, trace
from ..obs.log import get_logger
from .diagnostics import Diagnostic, LintReport, Location, Severity
from .incremental import RuleResultCache
from .registry import Rule, rules_in_groups
from .waivers import Waiver, apply_waivers

log = get_logger(__name__)

#: Rule groups that run on a :class:`Circuit` by default.
CIRCUIT_GROUPS = ("structural", "family", "dataflow")

#: All circuit-level groups.  ``symbolic`` (the SVC4xx switch-level
#: verifier), ``electrical`` (the NSA6xx noise-safety certificates) and
#: ``solution`` (the OPT7xx post-solve certificate audits) are opt-in:
#: the first enumerates the input space, the latter two consume the
#: sizing output and are only meaningful post-sizing.  The ``contracts``
#: group (CTR5xx) is block-level and driven by :mod:`repro.lint.hier`,
#: never by this per-circuit driver.
ALL_CIRCUIT_GROUPS = CIRCUIT_GROUPS + ("symbolic", "electrical", "solution")


class LintContext:
    """What one rule's checker sees: the circuit plus an ``emit`` sink."""

    def __init__(
        self,
        circuit: Circuit,
        rule_obj: Rule,
        report: LintReport,
        options: Optional[Mapping[str, object]] = None,
        library: Optional[ModelLibrary] = None,
    ):
        self.circuit = circuit
        self.rule = rule_obj
        #: Free-form per-run tuning knobs (e.g. the symbolic group's
        #: enumeration budgets); rules read them with ``.get`` + defaults.
        self.options: Mapping[str, object] = options or {}
        #: The model library the electrical rules evaluate against (None:
        #: a default-technology library).
        self.library = library
        self._report = report

    def emit(
        self,
        message: str,
        stage: Optional[str] = None,
        net: Optional[str] = None,
        pin: Optional[str] = None,
        severity: Optional[Severity] = None,
    ) -> Diagnostic:
        """Record one finding for the rule being run.

        ``severity`` defaults to the rule's registered severity; rules that
        grade findings (e.g. deep vs. very deep pass chains) may override.
        """
        diag = Diagnostic(
            rule_id=self.rule.id,
            severity=severity or self.rule.severity,
            message=message,
            location=Location(stage=stage, net=net, pin=pin),
        )
        self._report.add(diag)
        return diag


def _record_rule(
    rule_obj: Rule, circuit: Circuit, wall_s: float, status: str
) -> None:
    """One ledger record per rule execution (satellite: per-rule wall-time
    attribution, aggregated into a slowest-rules table by ``perf report``)."""
    perf.record_run(
        "rule",
        rule_obj.id,
        wall_s=wall_s,
        extra={"circuit": circuit.name, "status": status},
    )


def lint_circuit(
    circuit: Circuit,
    groups: Sequence[str] = CIRCUIT_GROUPS,
    waivers: Iterable[Waiver] = (),
    only: Optional[Iterable[str]] = None,
    options: Optional[Mapping[str, object]] = None,
    cache: Optional[RuleResultCache] = None,
    replay: bool = True,
    library: Optional[ModelLibrary] = None,
) -> LintReport:
    """Run the circuit rule groups over ``circuit``.

    Parameters
    ----------
    groups:
        Which rule groups to run (subset of :data:`ALL_CIRCUIT_GROUPS`;
        the default leaves out the opt-in ``symbolic`` group).
    waivers:
        Suppressions to apply; waived findings stay in the report, marked.
    only:
        Optional allow-list of rule IDs (for targeted re-checks).
    options:
        Per-run tuning knobs handed to every rule via
        :attr:`LintContext.options` (e.g. ``symbolic_exact_budget``).
    cache:
        Optional incremental result cache.  Every fresh execution is
        recorded into it; with ``replay`` (the default) rules whose
        declared facets are unchanged are served from it without running.
    replay:
        Set False to force every rule to execute while still refreshing
        the cache — the cold/refresh pass of a cold/warm CI pair.
    library:
        The model library the NSA6xx rules evaluate against
        (:attr:`LintContext.library`); ``None`` means a default-technology
        library.  A given library's :func:`library_payload` joins the
        options in every cache key, so results never replay across
        technologies.
    """
    bad = set(groups) - set(ALL_CIRCUIT_GROUPS)
    if bad:
        raise ValueError(
            f"lint_circuit runs only {ALL_CIRCUIT_GROUPS}, got {sorted(bad)}"
        )
    report = LintReport(subject=circuit.name)
    wanted = set(only) if only is not None else None
    facets = report.facets = (
        facet_fingerprints(circuit) if cache is not None else None
    )
    key_options = options
    if cache is not None and library is not None:
        key_options = dict(options or {}, library=library_payload(library))
    t_start = time.perf_counter()
    for rule_obj in rules_in_groups(groups):
        if rule_obj.check is None:
            continue
        if wanted is not None and rule_obj.id not in wanted:
            continue
        key = None
        if cache is not None:
            key = cache.key(rule_obj, facets, key_options)
            if replay:
                hit = cache.lookup(key)
                if hit is not None:
                    for diag in hit:
                        report.add(diag)
                    report.executed.append((rule_obj.id, 0.0, "replayed"))
                    metrics.counter("lint.rules_replayed").inc()
                    _record_rule(rule_obj, circuit, 0.0, "replayed")
                    continue
        before = len(report.diagnostics)
        t_rule = time.perf_counter()
        with trace.span("lint_rule", rule=rule_obj.id, circuit=circuit.name):
            rule_obj.check(
                LintContext(circuit, rule_obj, report, options, library)
            )
        wall = time.perf_counter() - t_rule
        report.executed.append((rule_obj.id, wall, "executed"))
        metrics.counter("lint.rules_executed").inc()
        _record_rule(rule_obj, circuit, wall, "executed")
        if cache is not None:
            cache.note_executed(wall)
            cache.record(key, rule_obj, report.diagnostics[before:], wall)
    report.diagnostics = apply_waivers(report.diagnostics, waivers)
    metrics.counter("lint.runs").inc()
    if report.errors:
        metrics.counter("lint.errors").inc(len(report.errors))
    if report.warnings:
        metrics.counter("lint.warnings").inc(len(report.warnings))
    if perf.get_ledger() is not None:
        extra = {
            "groups": sorted(groups),
            "errors": len(report.errors),
            "warnings": len(report.warnings),
            "rules_executed": sum(
                1 for _, _, status in report.executed if status == "executed"
            ),
            "rules_replayed": sum(
                1 for _, _, status in report.executed if status == "replayed"
            ),
        }
        perf.record_run(
            "lint",
            circuit.name,
            wall_s=time.perf_counter() - t_start,
            circuit_fp=perf.payload_digest(
                [circuit.name, sorted(groups)]
            ),
            cache=cache.stats.as_dict() if cache is not None else None,
            extra=extra,
        )
    return report


def executed_counts(
    executed: Iterable[Tuple[str, float, str]],
) -> Tuple[int, int]:
    """(fresh, replayed) totals of one or more ``LintReport.executed``
    streams chained together."""
    fresh = replayed = 0
    for _, _, status in executed:
        if status == "replayed":
            replayed += 1
        else:
            fresh += 1
    return fresh, replayed
