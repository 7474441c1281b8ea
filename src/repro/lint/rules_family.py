"""Circuit-family ERC rules (``ERC101``–``ERC107``) — Section 4 semantics.

The paper's macro database mixes three circuit families (static CMOS,
pass/tristate, domino); each carries usage rules that a purely structural
check cannot see.  These rules encode the family discipline the Section-2
editing workflow can silently break:

* domino inputs must be *monotone rising* during evaluate (odd inversion
  parity back to the upstream dynamic node);
* footless (D2) dominos must be fed from clocked domino trees so their
  inputs are guaranteed low during precharge;
* deep unkept evaluate stacks are charge-sharing hazards;
* pass-gate chains need restoring stages;
* shared-driver nets (tristate buses, pass muxes) need distinct — and for
  encoded pairs, complementary — select nets;
* clocks should not wander into data cones.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..netlist.circuit import Circuit
from ..netlist.nets import NetKind, PinClass
from ..netlist.stages import Stage, StageKind
from .diagnostics import Severity
from .registry import rule

#: Longest run of pass gates allowed without a restoring (actively driven)
#: stage.  RC delay grows quadratically with the run length; the macros in
#: the database restore after every rank.
MAX_PASS_CHAIN = 2

#: Evaluate stacks at least this deep with no keeper get a charge-sharing
#: hazard warning (internal stack nodes share charge with the dynamic node).
CHARGE_SHARE_DEPTH = 3


def _domino_cone_roots(
    circuit: Circuit, net_name: str
) -> List[Tuple[str, int, Optional[Stage]]]:
    """Trace a domino data input back through static/pass stages.

    Returns the cone's roots as ``(net, inversion_parity, driver_stage)``
    tuples, where ``driver_stage`` is the root's driver (a domino stage) or
    ``None`` for primary inputs / undriven nets.  XOR stages are reported as
    roots with parity ``-1`` (non-monotone — no parity exists).
    """
    roots: List[Tuple[str, int, Optional[Stage]]] = []
    seen: Set[Tuple[str, int]] = set()
    stack: List[Tuple[str, int]] = [(net_name, 0)]
    while stack:
        net, parity = stack.pop()
        if (net, parity) in seen:
            continue
        seen.add((net, parity))
        drivers = circuit.drivers_of(net)
        if not drivers:
            roots.append((net, parity, None))
            continue
        for driver in drivers:
            if driver.kind is StageKind.DOMINO:
                roots.append((net, parity, driver))
            elif driver.kind is StageKind.XOR:
                roots.append((net, -1, driver))
            else:
                step = 0 if driver.kind is StageKind.PASSGATE else 1
                for pin in driver.data_pins():
                    stack.append((pin.net.name, parity + step))
    return roots


@rule("ERC101", "domino monotonicity", "family", Severity.ERROR,
      facets=("topology", "phases"))
def check_domino_monotonicity(ctx) -> None:
    """A domino evaluate network only sees monotone-rising inputs when the
    static chain from the upstream dynamic node carries an *odd* number of
    inversions (the dynamic node itself falls; the output buffer restores
    the rising sense).  Even parity feeds the evaluate NMOS a falling edge —
    the classic monotonicity violation; an XOR in the cone is non-monotone
    outright.

    Cones rooting at a primary input are judged by the input's *declared*
    phase (:meth:`~repro.netlist.circuit.Circuit.declare_input_phase`): a
    ``mono_rise`` input needs even parity to stay rising, ``mono_fall`` odd,
    and ``async`` is never safe.  Undeclared (or ``steady``) inputs are
    assumed quiet during evaluate, the rule's historical behavior."""
    for stage in ctx.circuit.stages:
        if stage.kind is not StageKind.DOMINO:
            continue
        for pin in stage.data_pins():
            for root_net, parity, driver in _domino_cone_roots(
                ctx.circuit, pin.net.name
            ):
                if driver is None:
                    declared = ctx.circuit.input_phase(root_net)
                    if parity >= 0 and (
                        (declared == "mono_rise" and parity % 2 == 1)
                        or (declared == "mono_fall" and parity % 2 == 0)
                    ):
                        ctx.emit(
                            f"primary input {root_net} is declared "
                            f"{declared} but reaches this evaluate input "
                            f"through {parity} inversion(s) — it falls "
                            "during evaluate",
                            stage=stage.name,
                            pin=pin.name,
                        )
                    elif declared == "async":
                        ctx.emit(
                            f"primary input {root_net} is declared async "
                            "(non-monotone) and reaches a domino evaluate "
                            "input",
                            stage=stage.name,
                            pin=pin.name,
                        )
                    continue  # steady/undeclared: quiet during evaluate
                if parity == -1:
                    ctx.emit(
                        f"non-monotone XOR stage {driver.name} in the input "
                        "cone of a domino evaluate network",
                        stage=stage.name,
                        pin=pin.name,
                    )
                elif driver.kind is StageKind.DOMINO and parity % 2 == 0:
                    ctx.emit(
                        f"domino output {root_net} reaches this evaluate "
                        f"input through {parity} inversion(s) — even parity "
                        "is non-monotone",
                        stage=stage.name,
                        pin=pin.name,
                    )


@rule("ERC102", "D2 precharge discipline", "family", Severity.ERROR,
      facets=("topology",))
def check_d2_ordering(ctx) -> None:
    """A footless (D2) domino has no clocked evaluate transistor, so its
    inputs must be *guaranteed low* while the clock is low — which holds
    only when every input cone roots at a (buffered) domino output.  A D2
    fed by raw primary inputs or pass logic can short the precharge path."""
    for stage in ctx.circuit.stages:
        if stage.kind is not StageKind.DOMINO or stage.clocked:
            continue
        for pin in stage.data_pins():
            for root_net, parity, driver in _domino_cone_roots(
                ctx.circuit, pin.net.name
            ):
                if driver is not None:
                    continue  # domino-rooted cones are ERC101's business
                ctx.emit(
                    f"footless (D2) domino input cone roots at {root_net}, "
                    "which is not a clocked domino output — not guaranteed "
                    "low during precharge",
                    stage=stage.name,
                    pin=pin.name,
                )


@rule("ERC103", "charge-sharing hazard", "family", Severity.WARNING,
      facets=("topology", "sizing"))
def check_charge_sharing(ctx) -> None:
    """Deep evaluate stacks without a keeper are charge-sharing hazards:
    internal stack nodes redistribute the dynamic node's charge when lower
    transistors turn on first.  The depth/keeper trigger is unchanged from
    the original heuristic (so existing waivers keep matching), but the
    message now carries the quantitative worst-case dip computed by the
    NSA601 certificate engine (:mod:`repro.lint.electrical`) — this rule is
    a thin facade over that analysis.  Findings aggregate per regularity
    group so a 64-bit datapath reports each shape once."""
    groups: Dict[Tuple, List[Stage]] = {}
    for stage in ctx.circuit.stages:
        if stage.kind is not StageKind.DOMINO:
            continue
        depth = max(stage.leg_sizes) if stage.leg_sizes else 0
        if depth < CHARGE_SHARE_DEPTH or stage.params.get("keeper"):
            continue
        key = (stage.kind.value, depth, tuple(sorted(stage.labels())))
        groups.setdefault(key, []).append(stage)
    if not groups:
        return
    from .electrical.model import charge_share_certificates

    certs = {
        cert.stage: cert
        for cert in charge_share_certificates(
            ctx.circuit, ctx.library, options=ctx.options
        )
    }
    for (_, depth, _), members in sorted(groups.items()):
        example = min(members, key=lambda s: s.name)
        count = (
            f"{len(members)} stages like {example.name}"
            if len(members) > 1
            else example.name
        )
        quantified = ""
        cert = certs.get(example.name)
        if cert is not None:
            quantified = (
                f" — worst-case dip {cert.dip:.1%} of VDD vs budget "
                f"{cert.allowed:.1%} (margin {cert.margin:+.1%})"
            )
        ctx.emit(
            f"evaluate stack depth {depth} with no keeper "
            f"(charge-sharing hazard): {count}{quantified}",
            stage=example.name,
        )


@rule("ERC104", "pass-gate chain depth", "family", Severity.ERROR,
      facets=("topology",))
def check_pass_chain_depth(ctx) -> None:
    """Runs of pass gates longer than ``MAX_PASS_CHAIN`` without a restoring
    stage degrade quadratically (distributed RC) and lose level; the macro
    library buffers after every rank.  Reported once per maximal chain."""
    depth: Dict[str, int] = {}

    def chain_depth(stage: Stage, visiting: Set[str]) -> int:
        if stage.name in depth:
            return depth[stage.name]
        if stage.name in visiting:  # cyclic pass structure: ERC009 territory
            return 1
        visiting.add(stage.name)
        upstream = 0
        for pin in stage.data_pins():
            for driver in ctx.circuit.drivers_of(pin.net.name):
                if driver.kind is StageKind.PASSGATE:
                    upstream = max(upstream, chain_depth(driver, visiting))
        visiting.discard(stage.name)
        depth[stage.name] = upstream + 1
        return depth[stage.name]

    for stage in ctx.circuit.stages:
        if stage.kind is StageKind.PASSGATE:
            chain_depth(stage, set())
    for stage_name, chain in sorted(depth.items()):
        if chain <= MAX_PASS_CHAIN:
            continue
        # Only flag chain-maximal gates: skip if some downstream pass gate
        # extends this chain (it will be flagged instead).
        stage = ctx.circuit.stage(stage_name)
        extended = any(
            consumer.kind is StageKind.PASSGATE
            and pin.pin_class is PinClass.DATA
            for consumer, pin in ctx.circuit.fanout_of(stage.output.name)
        )
        if not extended:
            ctx.emit(
                f"pass-gate chain of depth {chain} without a restoring "
                f"stage (max {MAX_PASS_CHAIN})",
                stage=stage_name,
            )


@rule("ERC105", "shared-driver select distinctness", "family",
      Severity.ERROR, facets=("topology",))
def check_shared_driver_selects(ctx) -> None:
    """Tristate buses and weak/encoded pass-gate merges rely on at most one
    driver being enabled; two drivers steered by the *same* select net are
    enabled together and fight.  (Strong-mutex pass muxes are ERC008.)"""
    tristate_groups: Dict[str, List[Stage]] = {}
    pass_groups: Dict[str, List[Stage]] = {}
    for stage in ctx.circuit.stages:
        if stage.kind is StageKind.TRISTATE:
            tristate_groups.setdefault(stage.output.name, []).append(stage)
        elif (
            stage.kind is StageKind.PASSGATE
            and stage.params.get("mutex") != "strong"
        ):
            pass_groups.setdefault(stage.output.name, []).append(stage)

    def check_group(out: str, gates: List[Stage], noun: str) -> None:
        if len(gates) < 2:
            return
        selects = []
        for gate in gates:
            pins = gate.select_pins()
            if not pins:
                ctx.emit(
                    f"shared-driver {noun} has no select/enable pin",
                    stage=gate.name,
                )
                continue
            selects.append(pins[0].net.name)
        if len(set(selects)) != len(selects):
            ctx.emit(
                f"{noun}s driving a shared net are steered by the same "
                "select net",
                net=out,
            )

    for out, gates in sorted(tristate_groups.items()):
        check_group(out, gates, "tristate")
    for out, gates in sorted(pass_groups.items()):
        check_group(out, gates, "pass gate")


@rule("ERC106", "clock in data cone", "family", Severity.WARNING,
      facets=("topology",))
def check_clock_as_data(ctx) -> None:
    """A clock-kind net feeding a DATA or SELECT pin usually means a hookup
    mistake (the reverse of ERC005); legitimate clock gating is rare enough
    in a datapath macro to deserve a flag."""
    for stage in ctx.circuit.stages:
        for pin in stage.inputs:
            if (
                pin.net.kind is NetKind.CLOCK
                and pin.pin_class is not PinClass.CLOCK
            ):
                ctx.emit(
                    f"clock net {pin.net.name} used as "
                    f"{pin.pin_class.value} input",
                    stage=stage.name,
                    pin=pin.name,
                )


@rule("ERC107", "encoded pair complement", "family", Severity.WARNING,
      facets=("topology",))
def check_encoded_complement(ctx) -> None:
    """An encoded-select pass pair (Figure 2c) is mutex only because its two
    selects are complements; the structural witness is an inverter between
    the two select nets (in either direction).  Pairs whose complement is
    not derivable inside the macro get a warning, not an error."""
    groups: Dict[str, List[Stage]] = {}
    for stage in ctx.circuit.stages:
        if (
            stage.kind is StageKind.PASSGATE
            and stage.params.get("mutex") == "encoded"
        ):
            groups.setdefault(stage.output.name, []).append(stage)

    def inverter_between(a: str, b: str) -> bool:
        for driver in ctx.circuit.drivers_of(b):
            if driver.kind is StageKind.INV and any(
                p.net.name == a for p in driver.data_pins()
            ):
                return True
        return False

    for out, gates in sorted(groups.items()):
        if len(gates) != 2:
            ctx.emit(
                f"encoded pass-gate group has {len(gates)} gate(s), "
                "expected a complementary pair",
                net=out,
            )
            continue
        pins = [g.select_pins() for g in gates]
        if not all(pins):
            ctx.emit("encoded pass gate has no select pin", net=out)
            continue
        s0, s1 = pins[0][0].net.name, pins[1][0].net.name
        if not (inverter_between(s0, s1) or inverter_between(s1, s0)):
            ctx.emit(
                f"encoded pair selects {s0}/{s1} are not inverter "
                "complements of each other",
                net=out,
            )
