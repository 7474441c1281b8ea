"""Seeded noise mutants for the NSA6xx electrical corpus.

Each builder returns a small circuit engineered to violate exactly one
NSA6xx budget — and *only* that one — so the corpus gate
(:mod:`repro.lint.corpus`) can assert that every mutant is flagged by its
intended rule with a quantitative margin and witness, while no other NSA
rule cross-fires.
"""

from __future__ import annotations

from typing import Iterator

from ...macros.base import MacroBuilder
from ...models.technology import GENERIC_180, Technology
from ...netlist.circuit import Circuit
from ...netlist.nets import PinClass
from ..corpus import Mutant


def undersized_keeper(tech: Technology = GENERIC_180) -> Circuit:
    """A kept domino node whose keeper is far too weak to hold the node
    against the worst-case leakage attack -> NSA602 (restore margin).

    The single 1-deep leg leaves no internal diffusion, so NSA601 stays
    quiet; there is no pass chain and no routed wire cap.
    """
    builder = MacroBuilder("mut_undersized_keeper", tech)
    clk = builder.clock()
    a = builder.input("a")
    out = builder.output("out", load=20.0)
    builder.size("PC")
    builder.size("D")
    builder.size("E")
    stage = builder.domino(
        "d0", [[(a, PinClass.DATA)]], clk, out, "PC", "D", "E"
    )
    stage.params["keeper"] = 0.01
    return builder.done()


def overlong_pass_chain(
    tech: Technology = GENERIC_180, length: int = 5
) -> Circuit:
    """A run of pass gates with no restoring stage between the ranks ->
    NSA603 (Elmore budget).  No domino nodes, no routed wire cap."""
    builder = MacroBuilder("mut_overlong_pass_chain", tech)
    data = builder.input("a")
    for i in range(length):
        sel = builder.input(f"s{i}")
        nxt = (
            builder.output("out", load=20.0)
            if i == length - 1 else builder.wire(f"m{i}")
        )
        builder.size(f"P{i}")
        builder.size(f"SI{i}")
        builder.passgate(f"pg{i}", data, sel, nxt, f"P{i}", f"SI{i}")
        data = nxt
    return builder.done()


def floating_internal_node(tech: Technology = GENERIC_180) -> Circuit:
    """A deep keeper-less evaluate stack with its device widths pinned ->
    NSA601 at ERROR severity (the internal nodes float during evaluate and
    the dip exceeds the budget everywhere in the collapsed sizing box)."""
    builder = MacroBuilder("mut_floating_internal", tech)
    clk = builder.clock()
    nets = [builder.input(f"a{i}") for i in range(4)]
    out = builder.output("out", load=4.0)
    builder.size("PC", pinned=2.0)
    builder.size("D", pinned=8.0)
    builder.size("E", pinned=8.0)
    builder.domino(
        "d0", [[(net, PinClass.DATA) for net in nets]], clk, out,
        "PC", "D", "E",
    )
    return builder.done()


def coupled_victim(tech: Technology = GENERIC_180) -> Circuit:
    """A healthily-kept dynamic node on a long routed wire with wide fanout
    -> NSA604 (coupling dip past the keeper-credited margin).

    The 1-deep leg keeps NSA601 quiet and the 0.25 keeper passes the
    NSA602 restore/contention proofs; only the coupling screen fires.
    """
    builder = MacroBuilder("mut_coupled_victim", tech)
    clk = builder.clock()
    a = builder.input("a")
    out = builder.output("out", load=4.0)
    builder.size("PC")
    builder.size("D")
    builder.size("E")
    stage = builder.domino(
        "d0", [[(a, PinClass.DATA)]], clk, out, "PC", "D", "E"
    )
    stage.params["keeper"] = 0.25
    # Wide fanout off the victim wire (small receivers, long route).
    for i in range(2):
        q = builder.wire(f"q{i}")
        builder.size(f"FP{i}", pinned=0.6)
        builder.size(f"FN{i}", pinned=0.6)
        builder.inv(f"f{i}", out, q, f"FP{i}", f"FN{i}")
        builder.circuit.mark_output(f"q{i}")
    circuit = builder.done()
    circuit.net("out").wire_cap = 120.0
    return circuit


def mutants(tech: Technology = GENERIC_180) -> Iterator[Mutant]:
    """The seeded noise-mutant corpus, labeled with the intended rule."""
    for label, build, rule in (
        ("undersized_keeper", undersized_keeper, "NSA602"),
        ("overlong_pass_chain", overlong_pass_chain, "NSA603"),
        ("floating_internal_node", floating_internal_node, "NSA601"),
        ("coupled_victim", coupled_victim, "NSA604"),
    ):
        yield Mutant(label, build(tech), frozenset({rule}))
