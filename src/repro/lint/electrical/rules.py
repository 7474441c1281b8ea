"""NSA6xx — quantitative electrical noise-safety rules (DESIGN §12).

Every rule here consumes the *output* of sizing: findings carry a numeric
margin against a documented budget, a concrete witness, and (where the dip
is provably unavoidable anywhere in the sizing box) an upgraded ERROR
severity.  Regular columns collapse to one finding per isomorphism class —
NSA601/602/603 aggregate by stage shape, NSA604 by the SVC405 slice
certificate — so an N-bit datapath is analyzed once and replicated.

Facets: all four rules read the netlist topology *and* the size table
(widths, loads, wire caps), so a width-only edit re-runs them while
topology-only rules replay from the incremental cache, and vice versa.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..diagnostics import Severity
from ..registry import rule
from ..symbolic.isomorphism import slice_certificate
from .model import (
    ChargeShareCert,
    CouplingCert,
    charge_share_certificates,
    coupling_certificates,
    keeper_certificates,
    pass_chain_certificates,
)


def _witness(names: Tuple[str, ...], limit: int = 4) -> str:
    if not names:
        return "-"
    shown = ",".join(names[:limit])
    if len(names) > limit:
        shown += f",+{len(names) - limit}"
    return shown


@rule(
    "NSA601",
    "charge-sharing dip certificate",
    "electrical",
    Severity.WARNING,
    facets=("topology", "sizing"),
)
def nsa601_charge_share(ctx) -> None:
    """Worst-case charge-sharing dip on each dynamic node, enumerated on the
    switch-level channel graph: every pull-down switch that does not open a
    DC path to ground turns ON, exposing discharged internal diffusion to
    the dynamic node.  Flags nodes whose dip exceeds the (keeper-credited)
    budget; ERROR when the dip exceeds it everywhere in the sizing box."""
    certs = charge_share_certificates(
        ctx.circuit, ctx.library, options=ctx.options
    )
    flagged = [c for c in certs if c.violated]
    groups: Dict[tuple, List[ChargeShareCert]] = {}
    for cert in flagged:
        stage = ctx.circuit.stage(cert.stage)
        key = (
            tuple(stage.leg_sizes),
            stage.labels(),
            round(cert.dip, 6),
            round(cert.allowed, 6),
            cert.provable,
        )
        groups.setdefault(key, []).append(cert)
    for key in sorted(groups):
        members = groups[key]
        example = min(members, key=lambda c: c.stage)
        count = (
            f"{len(members)} nodes like {example.node}"
            if len(members) > 1 else example.node
        )
        scope = (
            "over the whole sizing box" if example.provable
            else "at the point sizing"
        )
        ctx.emit(
            f"worst-case charge-sharing dip {example.dip:.1%} of VDD exceeds "
            f"budget {example.allowed:.1%} {scope} "
            f"(margin {example.margin:+.1%}; witness OFF "
            f"{_witness(example.witness_off)}, "
            f"exposed {_witness(example.exposed)}): {count}",
            stage=example.stage,
            net=example.node,
            severity=Severity.ERROR if example.provable else Severity.WARNING,
        )


@rule(
    "NSA602",
    "keeper contention / restore margin",
    "electrical",
    Severity.WARNING,
    facets=("topology", "sizing"),
)
def nsa602_keeper_fight(ctx) -> None:
    """Ratioed-fight proofs for every kept domino node: the keeper must hold
    the node against the worst-case leakage attack (restore margin) without
    fighting the evaluate pull-down hard enough to stall it (contention).
    ERROR when the violation holds everywhere in the sizing box."""
    for cert in keeper_certificates(
        ctx.circuit, ctx.library, options=ctx.options
    ):
        if cert.restore_violated:
            ctx.emit(
                f"keeper restore margin {cert.restore:.2f}x below required "
                f"{cert.restore_limit:.2f}x — keeper strength "
                f"{cert.keeper:g} cannot hold the node against the "
                f"worst-case leakage attack",
                stage=cert.stage,
                net=cert.node,
                severity=(
                    Severity.ERROR if cert.restore_provable
                    else Severity.WARNING
                ),
            )
        if cert.fight_violated:
            ctx.emit(
                f"keeper contention {cert.contention:.2f} exceeds limit "
                f"{cert.contention_limit:.2f} — the half-latch fights the "
                f"evaluate pull-down (keeper strength {cert.keeper:g})",
                stage=cert.stage,
                net=cert.node,
                severity=(
                    Severity.ERROR if cert.fight_provable
                    else Severity.WARNING
                ),
            )


@rule(
    "NSA603",
    "pass-chain level degradation",
    "electrical",
    Severity.WARNING,
    facets=("topology", "sizing"),
)
def nsa603_pass_chain(ctx) -> None:
    """Elmore RC certificate per maximal unrestored pass-transistor chain:
    delay grows quadratically with chain length, so long runs degrade the
    restored level past its noise budget.  ERROR when the budget is blown
    at the optimistic end of the sizing box."""
    for cert in pass_chain_certificates(
        ctx.circuit, ctx.library, options=ctx.options
    ):
        if not cert.violated:
            continue
        ctx.emit(
            f"unrestored pass chain {'>'.join(cert.stages)}: Elmore delay "
            f"{cert.tau:.0f} ps exceeds budget {cert.limit:.0f} ps "
            f"(margin {cert.margin:+.0f} ps)",
            stage=cert.stages[0],
            net=cert.nets[-1],
            severity=Severity.ERROR if cert.provable else Severity.WARNING,
        )


@rule(
    "NSA604",
    "coupling noise screen",
    "electrical",
    Severity.WARNING,
    facets=("topology", "sizing", "phases"),
)
def nsa604_coupling(ctx) -> None:
    """Aggressor/victim coupling screen for noise-sensitive nets with routed
    wire capacitance: a fraction of the victim's wire cap couples to the
    fastest adjacent aggressor (slope from the DFA303 interval propagation;
    unknown slopes assume a full-strength attack).  Victims of the same
    SVC405 isomorphism class collapse to one finding."""
    certs = coupling_certificates(
        ctx.circuit, ctx.library, options=ctx.options
    )
    flagged = [c for c in certs if c.violated]
    if not flagged:
        return
    cone_hash = slice_certificate(ctx.circuit).cone_hash
    groups: Dict[tuple, List[CouplingCert]] = {}
    for cert in flagged:
        stage = ctx.circuit.stage(cert.stage)
        shape = cone_hash.get(
            cert.net, f"{stage.kind.value}:{'/'.join(stage.labels())}"
        )
        key = (shape, round(cert.dip, 6), round(cert.allowed, 6))
        groups.setdefault(key, []).append(cert)
    for key in sorted(groups):
        members = groups[key]
        example = min(members, key=lambda c: c.net)
        count = (
            f"{len(members)} nets like {example.net}"
            if len(members) > 1 else example.net
        )
        aggressor = example.aggressor or "uncharacterized aggressor"
        ctx.emit(
            f"coupling dip {example.dip:.1%} of VDD exceeds "
            f"{example.family} margin {example.allowed:.1%} "
            f"(margin {example.margin:+.1%}; attack {example.attack:.2f} "
            f"from {aggressor}): {count}",
            stage=example.stage,
            net=example.net,
            severity=Severity.ERROR if example.provable else Severity.WARNING,
        )
