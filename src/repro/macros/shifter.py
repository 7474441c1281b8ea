"""Barrel shifter/rotator macros.

Shifters head the paper's list of datapath macros ("multiplexors (muxes),
shifters, adders, ...").  A barrel rotator is log2(N) ranks of 2:1
pass-gate muxes: rank ``s`` rotates by ``2^s`` when its select bit is high.
Rotation (not shift) keeps the macro constant-free; a datapath wraps it with
masking when a logical shift is needed.

Topologies:

* **pass-gate** — each rank is an encoded-select 2:1 pass mux per bit with a
  regenerating inverter (the classic structure; select inverter per rank).
* **tristate** — each rank steers through tri-state pairs; preferred when
  ranks are separated by long wires.

Labels are shared per rank (straight/rotated legs identical), the Section-4
regularity discipline.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List

from ..models.technology import Technology
from ..netlist.circuit import Circuit
from ..netlist.funcspec import Env, FunctionalSpec
from ..netlist.nets import Net
from .base import MacroBuilder, MacroGenerator, MacroSpec


def _log2(n: int) -> int:
    bits = n.bit_length() - 1
    if 1 << bits != n:
        raise ValueError(f"barrel shifter width must be a power of two, got {n}")
    return bits


@lru_cache(maxsize=None)
def shifter_golden_spec(n: int) -> FunctionalSpec:
    """``out_i = in_{(i + amount) mod n}`` with ``amount = Σ sh_s · 2^s`` —
    a right rotate by the binary shift amount, total over all inputs."""
    ranks = _log2(n)

    def amount(env: Env) -> int:
        return sum(1 << s for s in range(ranks) if env[f"sh{s}"])

    outputs = {
        f"out{i}": (lambda env, i=i: bool(env[f"in{(i + amount(env)) % n}"]))
        for i in range(n)
    }
    return FunctionalSpec(
        outputs=outputs,
        golden="shifter",
        notes=f"{n}-bit barrel rotate",
    )


class _ShifterGenerator(MacroGenerator):
    """Shared golden-spec hook for the barrel-rotator topologies."""

    def functional_spec(self, spec: MacroSpec) -> FunctionalSpec:
        return shifter_golden_spec(spec.width)


class PassgateBarrelRotator(_ShifterGenerator):
    """log2(N) ranks of encoded-select pass-gate muxes."""

    name = "shifter/passgate_barrel"
    macro_type = "shifter"
    description = "pass-gate barrel rotator (log2 N ranks of 2:1 muxes)"

    def applicable(self, spec: MacroSpec) -> bool:
        return (
            spec.macro_type == "shifter"
            and spec.width >= 4
            and (spec.width & (spec.width - 1)) == 0
        )

    def build(self, spec: MacroSpec, tech: Technology) -> Circuit:
        n = spec.width
        ranks = _log2(n)
        builder = MacroBuilder(f"shift{n}_passgate_barrel", tech)
        data: List[Net] = [builder.input(f"in{i}") for i in range(n)]
        selects = [builder.input(f"sh{s}") for s in range(ranks)]

        # Each rank's regenerating buffer inverts once, so the shifted data
        # arrives complemented after an odd number of ranks; a final
        # polarity-restoring inverter rank is needed then.
        fixup = ranks % 2 == 1
        current = data
        for s in range(ranks):
            amount = 1 << s
            pass_lbl = builder.size(f"N{s}p")
            builder.size(f"N{s}pi", ratio_of=(f"N{s}p", 0.5))
            inv_up = builder.size(f"P{s}b")
            inv_dn = builder.size(f"N{s}b")
            sel_up = builder.size(f"P{s}s")
            sel_dn = builder.size(f"N{s}s")
            sel = selects[s]
            sel_b = builder.wire(f"shb{s}")
            builder.inv(f"selinv{s}", sel, sel_b, sel_up, sel_dn)
            next_rank: List[Net] = []
            for i in range(n):
                merge = builder.wire(f"r{s}m{i}")
                is_last = s == ranks - 1
                if is_last and not fixup:
                    out = builder.output(f"out{i}", load=spec.output_load)
                else:
                    out = builder.wire(f"r{s}b{i}")
                builder.passgate(
                    f"r{s}straight{i}", current[i], sel_b, merge,
                    f"N{s}p", f"N{s}pi", mutex="encoded",
                )
                builder.passgate(
                    f"r{s}rot{i}", current[(i + amount) % n], sel, merge,
                    f"N{s}p", f"N{s}pi", mutex="encoded",
                )
                builder.inv(f"r{s}buf{i}", merge, out, inv_up, inv_dn)
                next_rank.append(out)
            current = next_rank
        if fixup:
            fix_up = builder.size("Pfix")
            fix_dn = builder.size("Nfix")
            for i in range(n):
                out = builder.output(f"out{i}", load=spec.output_load)
                builder.inv(f"fix{i}", current[i], out, fix_up, fix_dn)
        return builder.done()


class TristateBarrelRotator(_ShifterGenerator):
    """Tri-state ranks for long-wire shifter placements."""

    name = "shifter/tristate_barrel"
    macro_type = "shifter"
    description = "tri-state barrel rotator"

    def applicable(self, spec: MacroSpec) -> bool:
        return (
            spec.macro_type == "shifter"
            and spec.width >= 4
            and (spec.width & (spec.width - 1)) == 0
        )

    def build(self, spec: MacroSpec, tech: Technology) -> Circuit:
        n = spec.width
        ranks = _log2(n)
        builder = MacroBuilder(f"shift{n}_tristate_barrel", tech)
        data: List[Net] = [builder.input(f"in{i}") for i in range(n)]
        selects = [builder.input(f"sh{s}") for s in range(ranks)]

        current = data
        for s in range(ranks):
            amount = 1 << s
            up = builder.size(f"P{s}t")
            dn = builder.size(f"N{s}t")
            sel_up = builder.size(f"P{s}s")
            sel_dn = builder.size(f"N{s}s")
            buf_up = builder.size(f"P{s}b")
            buf_dn = builder.size(f"N{s}b")
            sel = selects[s]
            sel_b = builder.wire(f"shb{s}")
            builder.inv(f"selinv{s}", sel, sel_b, sel_up, sel_dn)
            next_rank: List[Net] = []
            for i in range(n):
                merge = builder.wire(f"r{s}m{i}", wire_cap=1.0)
                if s == ranks - 1:
                    out = builder.output(f"out{i}", load=spec.output_load)
                else:
                    out = builder.wire(f"r{s}b{i}")
                builder.tristate(
                    f"r{s}straight{i}", current[i], sel_b, merge, up, dn
                )
                builder.tristate(
                    f"r{s}rot{i}", current[(i + amount) % n], sel, merge, up, dn
                )
                builder.inv(f"r{s}buf{i}", merge, out, buf_up, buf_dn)
                next_rank.append(out)
            current = next_rank
        return builder.done()


ALL_SHIFTER_GENERATORS = (
    PassgateBarrelRotator(),
    TristateBarrelRotator(),
)
