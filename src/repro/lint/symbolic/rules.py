"""The SVC4xx rule group: switch-level symbolic verification.

All five rules share one :func:`~repro.lint.symbolic.extract.extract_cached`
run per circuit (the enumeration is the expensive part; the rules are just
different views of its result):

* **SVC401** — functional equivalence: the extracted transistor-level
  behavior must match the golden :class:`~repro.netlist.funcspec.FunctionalSpec`
  attached to the circuit on every valid input assignment.  The message
  carries the verdict strength (``proved`` for exact cofactor enumeration,
  ``tested`` for seeded sampling past the input budget).
* **SVC402** — drive fight: some observable net conducts to both rails
  under a valid assignment (keeper devices are weak and never count).
* **SVC403** — floating output: an observable net is neither driven nor
  holding precharge-phase charge during evaluate.  Nets the DFA301 phase
  analysis proves precharge-clamped are exempt (their evaluate value is
  charge by design; a solver charge-tracking gap must not misfire here).
* **SVC404** — sneak path: a both-rail conflict whose witness paths thread
  two or more distinct pass-gate stages, i.e. a backward path through the
  bidirectional pass network rather than a plain pull-up/pull-down overlap.
* **SVC405** — slice isomorphism: outputs that share one size-label
  multiset (and therefore one merged GP constraint set under regularity
  pruning) must have isomorphic input cones.

Tuning knobs read from :attr:`LintContext.options`:

``symbolic_exact_budget``
    Max primary inputs for exact enumeration (default 10).
``symbolic_samples``
    Seeded sample count past the budget (default 64).
``symbolic_seed``
    RNG seed for the sampling path (default 20260806).
"""

from __future__ import annotations

from typing import Tuple

from ...netlist.funcspec import FunctionalSpec
from ..dataflow.phase import Phase, solve_phases
from ..diagnostics import Severity
from ..registry import rule
from .extract import (
    DEFAULT_EXACT_BUDGET,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    Extraction,
    extract_cached,
)
from .isomorphism import slice_certificate

#: Witnesses reported per rule per circuit before summarizing.
_MAX_WITNESSES = 4

#: Phases under which a net is precharge-clamped: its evaluate value rides
#: on stored charge by design, so SVC403 must not call it floating.
_PRECHARGED = (Phase.LOW_PRE, Phase.HIGH_PRE)


def _extraction(ctx) -> Extraction:
    opts = ctx.options
    spec = getattr(ctx.circuit, "functional_spec", None)
    if spec is not None and not isinstance(spec, FunctionalSpec):
        spec = None
    return extract_cached(
        ctx.circuit,
        spec,
        exact_budget=int(opts.get("symbolic_exact_budget", DEFAULT_EXACT_BUDGET)),
        samples=int(opts.get("symbolic_samples", DEFAULT_SAMPLES)),
        seed=int(opts.get("symbolic_seed", DEFAULT_SEED)),
    )


def _env_str(env: Tuple[Tuple[str, bool], ...]) -> str:
    return " ".join(f"{name}={int(value)}" for name, value in env)


@rule(
    "SVC401",
    "circuit behavior must match its golden functional spec",
    group="symbolic",
    severity=Severity.ERROR,
    facets=("topology", "phases", "funcspec"),
)
def check_functional_equivalence(ctx) -> None:
    """Switch-level extraction vs. the golden spec.

    Enumerates the valid input space (exact up to the input budget, seeded
    samples beyond), solves every assignment through the Bryant-style
    switch-level model, and compares each primary output against the
    :class:`FunctionalSpec` the generator attached.  A circuit with no
    attached spec is skipped — attach-coverage is enforced separately by
    the macro-database tests, not per circuit here.
    """
    spec = getattr(ctx.circuit, "functional_spec", None)
    if not isinstance(spec, FunctionalSpec):
        return
    ex = _extraction(ctx)
    for miss in ex.mismatches[:_MAX_WITNESSES]:
        ctx.emit(
            f"output {miss.output} = {int(miss.actual)}, golden spec"
            f"{f' ({spec.golden})' if spec.golden else ''} requires"
            f" {int(miss.expected)} under {miss.witness()}"
            f" [{ex.verdict}, {ex.n_assignments} assignments]",
            net=miss.output,
        )
    hidden = len(ex.mismatches) - _MAX_WITNESSES
    if hidden > 0:
        ctx.emit(
            f"{hidden} further spec mismatches suppressed"
            f" ({len(ex.mismatches)} total over {ex.n_assignments}"
            " assignments)"
        )
    for miss in ex.undefined[:_MAX_WITNESSES]:
        ctx.emit(
            f"output {miss.output} is undefined (X/Z) under {miss.witness()}"
            f" where the golden spec requires {int(miss.expected)}",
            net=miss.output,
        )


@rule(
    "SVC402",
    "no net may conduct to both rails (drive fight)",
    group="symbolic",
    severity=Severity.ERROR,
    facets=("topology", "phases", "funcspec"),
)
def check_drive_fight(ctx) -> None:
    """Both-rail conduction on an observable net under a valid assignment.

    The witness names one conducting pull-up path and one pull-down path.
    Keeper devices are modeled weak, so ratioed keeper contention on domino
    nodes never fires this rule.  Conflicts routed through two or more
    pass-gate stages are classified as sneak paths and reported by SVC404
    instead.
    """
    ex = _extraction(ctx)
    for net, (conflict, env) in sorted(ex.conflicts.items()):
        if conflict.is_sneak_path:
            continue
        ctx.emit(
            f"net {net} conducts to both rails under [{_env_str(env)}]:"
            f" up via {'/'.join(conflict.pull_up_path) or '?'},"
            f" down via {'/'.join(conflict.pull_down_path) or '?'}"
            f" [{ex.verdict}]",
            net=net,
            stage=conflict.stages[0] if conflict.stages else None,
        )


@rule(
    "SVC403",
    "observable nets must not float during evaluate",
    group="symbolic",
    severity=Severity.ERROR,
    facets=("topology", "phases", "funcspec"),
)
def check_floating(ctx) -> None:
    """High-Z on an output or gate net during the evaluate phase.

    A net counts as floating only when it has no conducting path to any
    source *and* no stored charge from the precharge phase.  Nets the phase
    analysis (DFA301's lattice) proves precharge-clamped are exempt: their
    evaluate-phase value legitimately rides on stored charge.
    """
    ex = _extraction(ctx)
    if not ex.floating:
        return
    phases = solve_phases(ctx.circuit).values if ctx.circuit.clock_nets() else {}
    for net, info in sorted(ex.floating.items()):
        value = phases.get(net)
        if value is not None and value.phase in _PRECHARGED:
            continue
        ctx.emit(
            f"net {net} floats (no drive, no stored charge) under"
            f" {info.witness()} [{ex.verdict}]",
            net=net,
        )


@rule(
    "SVC404",
    "no sneak paths through bidirectional pass networks",
    group="symbolic",
    severity=Severity.ERROR,
    facets=("topology", "phases", "funcspec"),
)
def check_sneak_path(ctx) -> None:
    """Both-rail conduction threading >= 2 distinct pass-gate stages.

    Pass transistors conduct both ways; a mux whose selects are not mutex
    (or are miswired) lets one leg's driver discharge backward through
    another leg.  Such conflicts are structurally different from a plain
    pull-up/pull-down overlap — the fix is in the select discipline, not in
    the fighting drivers — so they get their own rule.
    """
    ex = _extraction(ctx)
    for net, (conflict, env) in sorted(ex.conflicts.items()):
        if not conflict.is_sneak_path:
            continue
        ctx.emit(
            f"sneak path onto net {net} through pass stages"
            f" {'/'.join(sorted(conflict.pass_stages))} under"
            f" [{_env_str(env)}]: up via"
            f" {'/'.join(conflict.pull_up_path) or '?'}, down via"
            f" {'/'.join(conflict.pull_down_path) or '?'} [{ex.verdict}]",
            net=net,
            stage=next(iter(sorted(conflict.pass_stages))),
        )


@rule(
    "SVC405",
    "label-sharing bit slices must be isomorphic",
    group="symbolic",
    severity=Severity.WARNING,
    facets=("topology", "sizing"),
)
def check_slice_isomorphism(ctx) -> None:
    """Certify the structural-regularity assumption behind merging.

    Outputs whose input cones use the same multiset of size labels are, by
    that sharing, claimed to be copies of one bit slice — regularity
    pruning keeps a single representative path per signature and the sizing
    cache fingerprints them identically.  This rule canonicalizes each cone
    (name-blind Weisfeiler-Leman refinement) and warns when cones inside
    one label group are *not* isomorphic: the merge would then transfer
    constraints between structurally different slices.
    """
    cert = slice_certificate(ctx.circuit)
    for group in cert.violations:
        distinct = len(set(group.cone_hashes))
        ctx.emit(
            f"outputs {', '.join(group.outputs)} share size labels but"
            f" split into {distinct} non-isomorphic cone classes;"
            " regularity merging over these slices is unsound",
            net=group.outputs[0],
        )
