"""Quantitative electrical-safety models behind the NSA6xx rules (DESIGN §12).

This is the first analysis layer that consumes the *output* of sizing: every
certificate below is a posynomial in the size labels, evaluated either at a
point sizing (the GP solution, or the size table's default environment) or
soundly over the whole sizing box via the outward-rounded enclosure DFA303
uses (:meth:`repro.posy.Posynomial.enclose`, widened by an ulp argument so
the bounds hold under floating point).

Soundness direction
-------------------
Every certificate errs toward *over-reporting*:

* **Charge sharing (NSA601)** — the worst-case exposed capacitance turns on
  every pull-down switch that does not open a DC path to ground, in every
  leg simultaneously.  When legs share gate nets the joint state may not be
  reachable, so the dip is an upper bound; the witness is still a concrete
  switch assignment drawn from the SVC channel graph.
* **Interval evaluation** — the dip supremum pairs the exposed-cap upper
  bound with the node-cap lower bound (and vice versa for the infimum), so
  ``dip_lo > allowed`` proves *no* sizing in the box is safe, while
  ``dip_hi <= allowed`` proves every sizing is (``dip_hi`` is rounded up,
  and the comparison takes no slack on that side).
* **Coupling (NSA604)** — an unknown aggressor slope degrades to full
  (attack factor 1.0), never to zero.

A certificate may therefore flag a circuit that detailed simulation would
pass; it never passes a circuit the model can prove unsafe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple

from ...models.gates import ModelLibrary
from ...netlist.circuit import Circuit
from ...netlist.nets import PinClass
from ...netlist.stages import VDD, VSS, Stage, StageKind
from ...posy import as_posynomial, posy_sum
from ...sim.timing import StaticTimingAnalyzer
from ..dataflow.interval import box_bounds, box_intervals
from ..symbolic.switchlevel import ChannelGraph, Switch, channel_graph

_EPS = 1e-9

#: Natural-log-2 factor turning an Elmore RC sum into a 50% delay.
_LN2 = math.log(2.0)

#: Tunable thresholds, overridable through the lint ``options`` mapping (and
#: therefore hashed into the rule-cache options digest).
DEFAULT_OPTIONS: Dict[str, float] = {
    # Allowed charge-sharing / coupling dip on a keeper-less dynamic node,
    # as a fraction of VDD; a keeper of strength k credits (1 + 2k)×.
    "electrical_charge_ratio": 0.15,
    # Keeper-vs-pulldown contention: keeper drive as a fraction of the
    # evaluate pull-down drive above which the fight is flagged.
    "electrical_contention_limit": 0.5,
    # Worst-case leakage/noise attack on a held node, as a fraction of the
    # full-ON conductance of the parallel legs.
    "electrical_leak_fraction": 0.01,
    # Required keeper-restore overdrive (keeper current / attack current).
    "electrical_restore_limit": 1.0,
    # Elmore delay budget for an unrestored pass-transistor chain, ps.
    "electrical_pass_delay_limit": 45.0,
    # Fraction of a victim's routed wire capacitance assumed to couple to
    # neighbors instead of ground.
    "electrical_coupling_fraction": 0.3,
    # Aggressor edges slower than this, ps, attenuate coupling linearly.
    "electrical_slope_ref": 60.0,
    # Allowed dip on an unrestored pass/tri-state output, fraction of VDD.
    "electrical_pass_margin": 0.35,
    # Input slope assumed for the NSA604 slope-interval propagation, ps.
    "electrical_input_slope": 30.0,
}


def option(options: Optional[Mapping[str, object]], key: str) -> float:
    """One threshold: the lint options mapping, else the documented default."""
    if options and key in options:
        return float(options[key])  # type: ignore[arg-type]
    return DEFAULT_OPTIONS[key]


def point_environment(
    circuit: Circuit, env: Optional[Mapping[str, float]] = None
) -> Dict[str, float]:
    """The point sizing to certify: solved widths if given, else the size
    table's default (geometric-mean) environment."""
    point = dict(circuit.size_table.default_env())
    if env:
        point.update(env)
    return point


def _keeper_strength(stage: Stage) -> float:
    return float(stage.params.get("keeper", 0.0) or 0.0)


def _stack_r(per_width: float, stack: int, derate: float) -> float:
    """Series-stack resistance coefficient (mirrors the gate models)."""
    if stack <= 1:
        return per_width
    return per_width * stack * derate


# ---------------------------------------------------------------------------
# NSA601 — charge-sharing certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChargeShareCert:
    """Worst-case charge-sharing certificate for one dynamic node."""

    stage: str
    node: str
    keeper: float
    #: Allowed dip as a fraction of VDD (ratio, credited for the keeper).
    allowed: float
    #: Dip fraction at the point sizing.
    dip: float
    #: Infimum / supremum of the dip over the whole sizing box.
    dip_lo: float
    dip_hi: float
    #: Switch names driven ON in the witness state (flat expansion names).
    witness_on: Tuple[str, ...]
    #: Switch names that must stay OFF to block the DC path to ground.
    witness_off: Tuple[str, ...]
    #: Internal nets exposed to the dynamic node in the witness state.
    exposed: Tuple[str, ...]

    @property
    def margin(self) -> float:
        return self.allowed - self.dip

    @property
    def violated(self) -> bool:
        return self.dip > self.allowed + _EPS

    @property
    def provable(self) -> bool:
        """No sizing anywhere in the box meets the budget."""
        return self.dip_lo > self.allowed + _EPS

    @property
    def safe_over_box(self) -> bool:
        """Every sizing in the box meets the budget (no slack: ``dip_hi``
        is already rounded up)."""
        return self.dip_hi <= self.allowed


def _ratio_up(num: float, den_sum: float) -> float:
    """An upper bound on ``num / den_sum`` where ``den_sum`` is a rounded
    float sum: shrink the denominator one ulp, then step the quotient up
    one, so neither rounding can land the ratio below the true value."""
    return math.nextafter(num / math.nextafter(den_sum, 0.0), math.inf)


def _worst_pass_state(
    graph: ChannelGraph, stage_name: str, out: str
) -> Tuple[Tuple[str, ...], Tuple[str, ...], Tuple[str, ...]]:
    """Worst-case evaluate-phase switch state for one dynamic node.

    Grows the channel-connected region from the dynamic node through the
    stage's strong pull-down switches, turning ON every switch whose far
    terminal does not complete a DC path to ground and recording the
    blocking switches as the OFF part of the witness.  Nets held at ground
    during evaluate (VSS plus anything a clock-gated foot device clamps)
    bound the region.  Returns ``(on, off, exposed_nets)``.
    """
    pulldown: List[Switch] = [
        sw for sw in graph.switches
        if sw.stage == stage_name and sw.on_value and not sw.weak
    ]
    by_net: Dict[str, List[Switch]] = {}
    for sw in pulldown:
        by_net.setdefault(sw.a, []).append(sw)
        by_net.setdefault(sw.b, []).append(sw)

    grounded: Set[str] = {VSS}
    frontier = [VSS]
    while frontier:
        net = frontier.pop()
        for sw in by_net.get(net, ()):
            if sw.gate not in graph.clock_nets:
                continue
            far = sw.b if sw.a == net else sw.a
            if far not in grounded:
                grounded.add(far)
                frontier.append(far)

    on: List[str] = []
    off: Set[str] = set()
    seen: Set[str] = {out}
    frontier = [out]
    while frontier:
        net = frontier.pop()
        for sw in sorted(by_net.get(net, ()), key=lambda s: s.name):
            if sw.gate in graph.clock_nets:
                continue
            far = sw.b if sw.a == net else sw.a
            if far in grounded or far == VDD:
                off.add(sw.name)
            elif far not in seen:
                seen.add(far)
                on.append(sw.name)
                frontier.append(far)
    exposed = tuple(sorted(seen - {out}))
    return tuple(sorted(on)), tuple(sorted(off)), exposed


def charge_share_certificates(
    circuit: Circuit,
    library: Optional[ModelLibrary] = None,
    *,
    options: Optional[Mapping[str, object]] = None,
    env: Optional[Mapping[str, float]] = None,
    graph: Optional[ChannelGraph] = None,
) -> List[ChargeShareCert]:
    """One :class:`ChargeShareCert` per domino stage with exposed internal
    charge, worst state enumerated on the SVC channel graph."""
    dominos = [s for s in circuit.stages if s.kind is StageKind.DOMINO]
    if not dominos:
        return []
    library = library or ModelLibrary()
    tech = library.tech
    ratio = option(options, "electrical_charge_ratio")
    graph = graph or channel_graph(circuit)
    table = circuit.size_table
    unit = {label: 1.0 for label in table.names()}
    devices = {d.name: d for d in circuit.expand_transistors(unit)}
    analyzer = StaticTimingAnalyzer(circuit, library)
    bounds = box_bounds(circuit)
    point = point_environment(circuit, env)

    certs: List[ChargeShareCert] = []
    for stage in dominos:
        out = stage.output.name
        on, off, exposed = _worst_pass_state(graph, stage.name, out)
        if not exposed:
            continue
        # Every channel terminal parked on an exposed net contributes its
        # diffusion capacitance, symbolically in the size labels.
        parts = []
        for net in exposed:
            for idx in graph.channels.get(net, ()):
                dev = devices[graph.switches[idx].name]
                parts.append(
                    tech.c_diff * dev.factor
                    * as_posynomial(table.monomial(dev.label))
                )
        share = posy_sum(parts)
        node = analyzer.load_posynomial(out)
        s_pt = share.evaluate(point)
        n_pt = node.evaluate(point)
        s_lo, s_hi = share.enclose(bounds)
        n_lo, n_hi = node.enclose(bounds)
        keeper = _keeper_strength(stage)
        certs.append(ChargeShareCert(
            stage=stage.name,
            node=out,
            keeper=keeper,
            allowed=ratio * (1.0 + 2.0 * keeper),
            dip=s_pt / (n_pt + s_pt),
            dip_lo=s_lo / (n_hi + s_lo) if s_lo > 0 else 0.0,
            dip_hi=_ratio_up(s_hi, n_lo + s_hi) if s_hi > 0 else 0.0,
            witness_on=on,
            witness_off=off,
            exposed=exposed,
        ))
    return certs


# ---------------------------------------------------------------------------
# NSA602 — keeper ratioed-fight / restore-margin certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KeeperCert:
    """Keeper-vs-pulldown contention and restore-margin proof for one
    kept domino node."""

    stage: str
    node: str
    keeper: float
    #: Keeper drive as a fraction of the evaluate pull-down drive.
    contention: float
    contention_lo: float
    contention_hi: float
    contention_limit: float
    #: Keeper current over the worst-case leakage attack (>= limit holds).
    restore: float
    restore_lo: float
    restore_hi: float
    restore_limit: float

    @property
    def fight_violated(self) -> bool:
        return self.contention > self.contention_limit + _EPS

    @property
    def fight_provable(self) -> bool:
        return self.contention_lo > self.contention_limit + _EPS

    @property
    def restore_violated(self) -> bool:
        return self.restore < self.restore_limit - _EPS

    @property
    def restore_provable(self) -> bool:
        """No sizing anywhere in the box can hold the node."""
        return self.restore_hi < self.restore_limit - _EPS


def keeper_certificates(
    circuit: Circuit,
    library: Optional[ModelLibrary] = None,
    *,
    options: Optional[Mapping[str, object]] = None,
    env: Optional[Mapping[str, float]] = None,
) -> List[KeeperCert]:
    """One :class:`KeeperCert` per domino stage that declares a keeper."""
    library = library or ModelLibrary()
    tech = library.tech
    contention_limit = option(options, "electrical_contention_limit")
    leak = option(options, "electrical_leak_fraction")
    restore_limit = option(options, "electrical_restore_limit")
    table = circuit.size_table
    point = point_environment(circuit, env)
    bounds = box_bounds(circuit)

    certs: List[KeeperCert] = []
    for stage in circuit.stages:
        if stage.kind is not StageKind.DOMINO:
            continue
        keeper = _keeper_strength(stage)
        if keeper <= 0.0:
            continue
        leg_sizes = stage.leg_sizes or (1,)
        leg_series = max(leg_sizes)
        n_legs = len(leg_sizes)
        w_pre = as_posynomial(table.monomial(stage.label("precharge")))
        w_data = table.monomial(stage.label("data"))
        stack = _stack_r(tech.r_nmos, leg_series, tech.stack_derate)
        # Mirrors the DominoModel contention term: the half-latch keeper
        # fights the pull-down for the whole evaluate transition.
        contention = keeper * (stack / tech.r_pmos) * w_pre / w_data
        # Restore proof: keeper current vs the worst-case leakage/noise
        # attack of every leg leaking in parallel.
        restore = (
            (keeper * tech.r_nmos) / (tech.r_pmos * leak * n_legs)
        ) * w_pre / w_data
        c_pt = contention.evaluate(point)
        r_pt = restore.evaluate(point)
        c_lo, c_hi = contention.enclose(bounds)
        r_lo, r_hi = restore.enclose(bounds)
        certs.append(KeeperCert(
            stage=stage.name,
            node=stage.output.name,
            keeper=keeper,
            contention=c_pt,
            contention_lo=c_lo,
            contention_hi=c_hi,
            contention_limit=contention_limit,
            restore=r_pt,
            restore_lo=r_lo,
            restore_hi=r_hi,
            restore_limit=restore_limit,
        ))
    return certs


# ---------------------------------------------------------------------------
# NSA603 — pass-chain level-degradation certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PassChainCert:
    """Elmore RC certificate for one maximal unrestored pass chain."""

    stages: Tuple[str, ...]
    nets: Tuple[str, ...]
    #: Elmore 50% delay through the chain at the point sizing, ps.
    tau: float
    tau_lo: float
    tau_hi: float
    limit: float

    @property
    def margin(self) -> float:
        return self.limit - self.tau

    @property
    def violated(self) -> bool:
        return self.tau > self.limit + _EPS

    @property
    def provable(self) -> bool:
        return self.tau_lo > self.limit + _EPS


def _pass_chains(circuit: Circuit) -> List[List[Stage]]:
    """Maximal root-to-leaf runs of pass gates connected data-to-output."""
    def pass_driven(net_name: str) -> bool:
        return any(
            d.kind is StageKind.PASSGATE for d in circuit.drivers_of(net_name)
        )

    heads = [
        stage for stage in circuit.stages
        if stage.kind is StageKind.PASSGATE
        and not any(
            pass_driven(pin.net.name) for pin in stage.data_pins()
        )
    ]
    chains: List[List[Stage]] = []

    def extend(path: List[Stage]) -> None:
        successors = [
            consumer
            for consumer, pin in circuit.fanout_of(path[-1].output.name)
            if consumer.kind is StageKind.PASSGATE
            and pin.pin_class is PinClass.DATA
        ]
        if not successors:
            chains.append(path)
            return
        for nxt in successors:
            extend(path + [nxt])

    for head in sorted(heads, key=lambda s: s.name):
        extend([head])
    return chains


def pass_chain_certificates(
    circuit: Circuit,
    library: Optional[ModelLibrary] = None,
    *,
    options: Optional[Mapping[str, object]] = None,
    env: Optional[Mapping[str, float]] = None,
) -> List[PassChainCert]:
    """One :class:`PassChainCert` per maximal pass chain of length >= 2."""
    library = library or ModelLibrary()
    tech = library.tech
    limit = option(options, "electrical_pass_delay_limit")
    analyzer = StaticTimingAnalyzer(circuit, library)
    table = circuit.size_table
    point = point_environment(circuit, env)
    bounds = box_bounds(circuit)

    certs: List[PassChainCert] = []
    for chain in _pass_chains(circuit):
        if len(chain) < 2:
            continue
        resistances = []
        tau = as_posynomial(0.0)
        for stage in chain:
            resistances.append(
                as_posynomial(tech.pass_parallel * tech.r_nmos)
                / table.monomial(stage.label("pass"))
            )
            r_cum = posy_sum(resistances)
            tau = tau + r_cum * analyzer.load_posynomial(stage.output.name)
        tau = _LN2 * tau
        t_lo, t_hi = tau.enclose(bounds)
        certs.append(PassChainCert(
            stages=tuple(s.name for s in chain),
            nets=tuple(s.output.name for s in chain),
            tau=tau.evaluate(point),
            tau_lo=t_lo,
            tau_hi=t_hi,
            limit=limit,
        ))
    return certs


# ---------------------------------------------------------------------------
# NSA604 — coupling-interval noise screens
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CouplingCert:
    """Aggressor/victim coupling estimate for one noise-sensitive net."""

    stage: str
    net: str
    family: str                     # "domino" | "pass"
    aggressor: Optional[str]        # fastest adjacent aggressor net
    #: Coupling attack factor in (0, 1]; 1.0 = full-speed aggressor (or
    #: unknown slope, degraded conservatively).
    attack: float
    dip: float
    dip_lo: float
    dip_hi: float
    allowed: float

    @property
    def margin(self) -> float:
        return self.allowed - self.dip

    @property
    def violated(self) -> bool:
        return self.dip > self.allowed + _EPS

    @property
    def provable(self) -> bool:
        return self.dip_lo > self.allowed + _EPS


def coupling_certificates(
    circuit: Circuit,
    library: Optional[ModelLibrary] = None,
    *,
    options: Optional[Mapping[str, object]] = None,
    env: Optional[Mapping[str, float]] = None,
) -> List[CouplingCert]:
    """Coupling certificates for noise-sensitive nets with routed wire cap.

    Victims are dynamic (domino) nodes and unrestored pass/tri-state merge
    nets; statically driven nets recover and are skipped.  A fraction of the
    victim's wire capacitance is assumed to couple to the fastest adjacent
    aggressor (nets sharing a consumer or feeding the victim's driver), with
    the attack attenuated linearly for aggressor edges slower than the
    reference slope — unknown slopes degrade to a full-strength attack.
    """
    library = library or ModelLibrary()
    frac = option(options, "electrical_coupling_fraction")
    slope_ref = option(options, "electrical_slope_ref")
    ratio = option(options, "electrical_charge_ratio")
    pass_margin = option(options, "electrical_pass_margin")

    victims: List[Tuple[Stage, str, float]] = []
    for stage in circuit.stages:
        if stage.kind is StageKind.DOMINO:
            allowed = ratio * (1.0 + 2.0 * _keeper_strength(stage))
            family = "domino"
        elif stage.kind in (StageKind.PASSGATE, StageKind.TRISTATE):
            allowed = pass_margin
            family = "pass"
        else:
            continue
        if circuit.net(stage.output.name).wire_cap <= 0.0:
            continue
        victims.append((stage, family, allowed))
    if not victims:
        return []

    timing = box_intervals(
        circuit, library, option(options, "electrical_input_slope")
    ).values
    analyzer = StaticTimingAnalyzer(circuit, library)
    clocks = set(circuit.clock_nets())
    point = point_environment(circuit, env)
    bounds = box_bounds(circuit)

    certs: List[CouplingCert] = []
    for stage, family, allowed in victims:
        out = stage.output.name
        neighbors: Set[str] = set()
        for consumer, _pin in circuit.fanout_of(out):
            neighbors.update(p.net.name for p in consumer.inputs)
        neighbors.update(p.net.name for p in stage.inputs)
        neighbors -= {out}
        neighbors -= clocks
        attack, aggressor = 1.0, None
        for net in sorted(neighbors):
            value = timing.get(net)
            if value is None or not value.reached or value.widened:
                continue
            slope_lo = max(value.slope_lo, _EPS)
            candidate = min(1.0, slope_ref / slope_lo)
            if aggressor is None or candidate > attack:
                attack, aggressor = candidate, net
        if aggressor is None:
            attack = 1.0  # no characterized aggressor: assume the worst

        couple = frac * circuit.net(out).wire_cap
        total = analyzer.load_posynomial(out)
        n_pt = total.evaluate(point)
        n_lo, n_hi = total.enclose(bounds)
        certs.append(CouplingCert(
            stage=stage.name,
            net=out,
            family=family,
            aggressor=aggressor,
            attack=attack,
            dip=attack * couple / n_pt,
            dip_lo=attack * couple / n_hi,
            dip_hi=attack * couple / n_lo,
            allowed=allowed,
        ))
    return certs


# ---------------------------------------------------------------------------
# Advisor integration: the box screen and the point margin
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ElectricalScreen:
    """Sizing-box electrical pre-screen verdict (mirrors the DFA303 screen)."""

    circuit_name: str
    verdict: str                    # "provably-unsafe" | "inconclusive" | "safe"
    reasons: Tuple[str, ...]
    runtime_s: float

    @property
    def infeasible(self) -> bool:
        return self.verdict == "provably-unsafe"

    def summary(self) -> str:
        if self.infeasible:
            return (
                "electrical screen: provably noise-unsafe over the whole "
                f"sizing box — {'; '.join(self.reasons)}"
            )
        return f"electrical screen: {self.verdict}"


def screen_electrical(
    circuit: Circuit,
    library: Optional[ModelLibrary] = None,
    *,
    options: Optional[Mapping[str, object]] = None,
) -> ElectricalScreen:
    """Prove, where possible, that no sizing in the box is noise-safe.

    Used by the advisor to reject a topology before any GP is built when
    the charge-sharing, keeper-restore, or pass-chain certificates violate
    their budgets at the *optimistic* end of the sizing box.
    """
    import time

    t0 = time.perf_counter()
    reasons: List[str] = []
    all_safe = True
    for cert in charge_share_certificates(circuit, library, options=options):
        if cert.provable:
            reasons.append(
                f"{cert.node}: charge-sharing dip >= {cert.dip_lo:.1%} of VDD "
                f"everywhere in the box (budget {cert.allowed:.1%})"
            )
        if not cert.safe_over_box:
            all_safe = False
    for kc in keeper_certificates(circuit, library, options=options):
        if kc.restore_provable:
            reasons.append(
                f"{kc.node}: keeper restore <= {kc.restore_hi:.2f}x "
                f"everywhere in the box (needs {kc.restore_limit:.2f}x)"
            )
        if kc.fight_provable:
            reasons.append(
                f"{kc.node}: keeper contention >= {kc.contention_lo:.2f} "
                f"everywhere in the box (limit {kc.contention_limit:.2f})"
            )
        if kc.restore_violated or kc.fight_violated:
            all_safe = False
    for pc in pass_chain_certificates(circuit, library, options=options):
        if pc.provable:
            reasons.append(
                f"chain {'>'.join(pc.stages)}: Elmore delay >= "
                f"{pc.tau_lo:.0f} ps everywhere in the box "
                f"(budget {pc.limit:.0f} ps)"
            )
        if pc.violated:
            all_safe = False
    if reasons:
        verdict = "provably-unsafe"
    elif all_safe:
        verdict = "safe"
    else:
        verdict = "inconclusive"
    return ElectricalScreen(
        circuit_name=circuit.name,
        verdict=verdict,
        reasons=tuple(reasons),
        runtime_s=time.perf_counter() - t0,
    )


def worst_noise_margin(
    circuit: Circuit,
    library: Optional[ModelLibrary] = None,
    *,
    options: Optional[Mapping[str, object]] = None,
    env: Optional[Mapping[str, float]] = None,
) -> Optional[float]:
    """Smallest noise margin (fraction of VDD) at a point sizing.

    Spans the charge-sharing and coupling certificates — both measured as
    allowed-minus-actual dip.  ``None`` when the circuit has no
    noise-sensitive node.
    """
    margins = [
        cert.margin
        for cert in charge_share_certificates(
            circuit, library, options=options, env=env
        )
    ]
    margins.extend(
        cert.margin
        for cert in coupling_certificates(
            circuit, library, options=options, env=env
        )
    )
    if not margins:
        return None
    return min(margins)


#: Per-port noise facts for interface contracts (CTR506).
def port_noise_margin(
    circuit: Circuit,
    port: str,
    *,
    options: Optional[Mapping[str, object]] = None,
) -> Optional[float]:
    """Allowed dip (fraction of VDD) of the most sensitive stage an input
    port directly feeds; ``None`` when every consumer restores."""
    ratio = option(options, "electrical_charge_ratio")
    pass_margin = option(options, "electrical_pass_margin")
    margins: List[float] = []
    for consumer, pin in circuit.fanout_of(port):
        if pin.pin_class is PinClass.CLOCK:
            continue
        if consumer.kind is StageKind.DOMINO:
            margins.append(ratio * (1.0 + 2.0 * _keeper_strength(consumer)))
        elif consumer.kind in (StageKind.PASSGATE, StageKind.TRISTATE):
            margins.append(pass_margin)
    if not margins:
        return None
    return min(margins)
