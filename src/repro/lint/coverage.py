"""Constraint-coverage verification (``CST101``–``CST103``).

The Section-5.2 pruning passes take the 64-bit adder's >32,000 extracted
paths down to a couple hundred; the GP then only ever sees the survivors.
That is sound *iff* every dropped path really is dominated by a surviving
constrained path.  :func:`verify_pruning` re-checks the
:class:`~repro.sizing.pruning.PruningCertificate` a ``certify=True`` prune
run emits — with its own signature computations and fanout counts, sharing
no intermediate state with the passes it audits:

* **CST101** — an extracted path is neither surviving nor witnessed;
* **CST102** — a drop witness doesn't hold (the claimed FAST pin isn't a
  fast pin with a slow sibling, or the claimed survivor's signature
  differs);
* **CST103** — a fanout-dominance claim names a stage that is not actually
  fanout-maximal in its regularity group.

This module imports :mod:`repro.sizing.pruning` and must therefore be
imported lazily from anything reachable by ``repro.sizing.__init__``.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from ..netlist.circuit import Circuit
from ..netlist.nets import PinSpeed
from ..sizing.paths import StructuralPath
from ..sizing.pruning import PruningCertificate, _stage_key
from .diagnostics import Diagnostic, LintReport, Location, Severity
from .registry import Rule, register

CST101 = register(Rule(
    "CST101", "uncovered extracted path", "coverage", Severity.ERROR,
    doc=(
        "An extracted path is neither in the surviving set nor claimed by "
        "any drop witness: the GP would never constrain it, so its timing "
        "is unchecked."
    ),
))

CST102 = register(Rule(
    "CST102", "invalid pruning witness", "coverage", Severity.ERROR,
    doc=(
        "A drop witness does not hold up to independent re-checking — the "
        "claimed fast pin is not FAST-with-a-SLOW-sibling, or the claimed "
        "survivor is absent or has a different path signature."
    ),
))

CST103 = register(Rule(
    "CST103", "invalid dominance claim", "coverage", Severity.ERROR,
    doc=(
        "The fanout-dominance pass claimed a stage as its regularity "
        "group's maximum-fanout member, but recounting fanouts disagrees."
    ),
))


def _describe(path: StructuralPath) -> str:
    return (
        f"path {path.start_net} -> {path.end_net} "
        f"({len(path.steps)} stages)"
    )


def _signature(circuit: Circuit, path: StructuralPath) -> Tuple:
    """:func:`~repro.sizing.pruning.path_signature`, recomputed from the
    :func:`~repro.sizing.pruning._stage_key` formula stage by stage — not
    from the stage-key table the pruning passes read."""
    steps = []
    for step in path.steps:
        stage = circuit.stage(step.stage_name)
        pin = stage.pin(step.pin_name)
        steps.append(_stage_key(circuit, stage) + (pin.pin_class.value,))
    return (circuit.net(path.start_net).kind.value, tuple(steps))


def verify_pruning(
    circuit: Circuit,
    raw_paths: Sequence[StructuralPath],
    certificate: PruningCertificate,
    max_findings: int = 50,
) -> LintReport:
    """Independently re-verify a pruning certificate against the raw paths.

    ``max_findings`` caps the per-rule diagnostic count (a broken
    certificate on a 100k-path corpus would otherwise drown the report);
    the summary diagnostic states how many more were suppressed.
    """
    report = LintReport(subject=f"{circuit.name}:pruning")
    suppressed: Dict[str, int] = {}

    def emit(rule_obj: Rule, message: str, **loc) -> None:
        if len(report.by_rule(rule_obj.id)) >= max_findings:
            suppressed[rule_obj.id] = suppressed.get(rule_obj.id, 0) + 1
            return
        report.add(Diagnostic(
            rule_id=rule_obj.id,
            severity=rule_obj.severity,
            message=message,
            location=Location(**loc),
        ))

    surviving = set(certificate.surviving)
    surviving_sigs = {_signature(circuit, p) for p in surviving}

    # CST103 — recount fanouts for every dominance claim.
    groups: Dict[Tuple, list] = {}
    for stage in circuit.stages:
        groups.setdefault(_stage_key(circuit, stage), []).append(stage)
    for key, claimed_name in certificate.dominant.items():
        members = groups.get(key)
        if members is None or claimed_name not in {s.name for s in members}:
            emit(
                CST103,
                f"dominance claim names {claimed_name}, which is not in "
                "the claimed regularity group",
                stage=claimed_name,
            )
            continue
        fanouts = {
            s.name: len(circuit.fanout_of(s.output.name)) for s in members
        }
        if fanouts[claimed_name] < max(fanouts.values()):
            emit(
                CST103,
                f"stage {claimed_name} claimed dominant with fanout "
                f"{fanouts[claimed_name]}, but its group reaches "
                f"{max(fanouts.values())}",
                stage=claimed_name,
            )

    # CST101/CST102 — account for every raw path.
    for path in raw_paths:
        if path in surviving:
            continue
        witness = certificate.dropped.get(path)
        if witness is None:
            emit(
                CST101,
                f"{_describe(path)} is neither surviving nor witnessed",
                net=path.start_net,
            )
            continue
        if witness.reason == "precedence":
            if not _precedence_holds(circuit, path, witness):
                emit(
                    CST102,
                    f"precedence witness ({witness.stage}, {witness.pin}) "
                    f"does not justify dropping {_describe(path)}",
                    stage=witness.stage,
                    pin=witness.pin,
                )
        else:
            survivor = witness.survivor
            if survivor is None or survivor not in surviving:
                emit(
                    CST102,
                    f"{witness.reason} witness for {_describe(path)} names "
                    "no surviving path",
                    net=path.start_net,
                )
            elif (
                _signature(circuit, survivor)
                != _signature(circuit, path)
            ):
                emit(
                    CST102,
                    f"{witness.reason} witness for {_describe(path)} has a "
                    "different path signature — the survivor does not "
                    "constrain the same stage/pin sequence",
                    net=path.start_net,
                )
            elif _signature(circuit, path) not in surviving_sigs:
                emit(  # pragma: no cover - unreachable if survivor checked
                    CST101,
                    f"{_describe(path)} signature not covered",
                    net=path.start_net,
                )

    for rule_id, count in sorted(suppressed.items()):
        report.add(Diagnostic(
            rule_id=rule_id,
            severity=Severity.ERROR,
            message=f"... and {count} more {rule_id} finding(s) suppressed",
        ))
    return report


def _precedence_holds(circuit, path, witness) -> bool:
    """The claimed step exists on the path, enters through a FAST pin, and
    the stage has a SLOW pin of the same class whose path subsumes it."""
    if not any(
        s.stage_name == witness.stage and s.pin_name == witness.pin
        for s in path.steps
    ):
        return False
    try:
        stage = circuit.stage(witness.stage)
        pin = stage.pin(witness.pin)
    except (KeyError, ValueError):
        return False
    if pin.speed is not PinSpeed.FAST:
        return False
    return any(
        p.speed is PinSpeed.SLOW and p.pin_class is pin.pin_class
        for p in stage.inputs
    )
