"""Zero-detect macros (Figure 5(b) corpus).

``zero = NOR(a_0 .. a_{n-1})`` — three topologies:

* **static tree**: a NOR4 first rank followed by alternating NAND4/NOR4
  ranks.  Input pins of every tree gate are annotated fast/slow (the first
  pin of each gate is the designated *slow* pin), which is what the Section
  5.2 pin-precedence pruning keys on.
* **domino**: one wide domino OR node (any bit high pulls the node low
  during evaluate), a high-skew inverter, and an output inverter.
* **split domino**: the wide node split in half, recombined with a NAND2 —
  same trade as the partitioned domino mux.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List

from ..models.technology import Technology
from ..netlist.circuit import Circuit
from ..netlist.funcspec import Env, FunctionalSpec
from ..netlist.nets import Net, PinClass, PinSpeed
from ..netlist.stages import StageKind
from .base import MacroBuilder, MacroGenerator, MacroSpec

#: Max fan-in of one static tree gate.
TREE_ARITY = 4


@lru_cache(maxsize=None)
def zero_detect_golden_spec(width: int) -> FunctionalSpec:
    """``zero = NOR(a_0 .. a_{n-1})`` — total over the full input space."""

    def zero(env: Env) -> bool:
        return not any(env[f"a{i}"] for i in range(width))

    return FunctionalSpec(
        outputs={"zero": zero},
        golden="zero_detect",
        notes=f"{width}-bit zero detect",
    )


class _ZeroDetectGenerator(MacroGenerator):
    """Shared golden-spec hook for the zero-detect topologies."""

    def functional_spec(self, spec: MacroSpec) -> FunctionalSpec:
        return zero_detect_golden_spec(spec.width)


def _speeds(count: int) -> List[PinSpeed]:
    """First pin slow, the rest fast — the static precedence partition."""
    return [PinSpeed.SLOW] + [PinSpeed.FAST] * (count - 1)


def _chunk_sizes(n: int) -> List[int]:
    """Partition ``n >= 2`` inputs into gate fan-ins between 2 and 4 (no
    1-input leftovers, so every tree level inverts uniformly)."""
    sizes = []
    remaining = n
    while remaining > 0:
        if remaining == 5:
            sizes.extend([3, 2])
            remaining = 0
        elif remaining >= 4:
            sizes.append(4)
            remaining -= 4
        elif remaining >= 2:
            sizes.append(remaining)
            remaining = 0
        else:  # remaining == 1: steal one from the last chunk
            sizes[-1] -= 1
            sizes.append(2)
            remaining = 0
    return sizes


class StaticTreeZeroDetect(_ZeroDetectGenerator):
    """Alternating NOR/NAND reduction tree."""

    name = "zero_detect/static_tree"
    macro_type = "zero_detect"
    description = "static NOR4/NAND4 reduction tree"

    def applicable(self, spec: MacroSpec) -> bool:
        return spec.macro_type == "zero_detect" and spec.width >= 2

    def build(self, spec: MacroSpec, tech: Technology) -> Circuit:
        n = spec.width
        builder = MacroBuilder(f"zdet{n}_static", tech)
        bits: List[Net] = [builder.input(f"a{i}") for i in range(n)]
        out = builder.output("zero", load=spec.output_load)

        level = 0
        current = bits
        # Level parity: even levels NOR (current signals active-high "bit
        # set"), odd levels NAND.  The tree output is "all zero" when the
        # total inversion count keeps the sense right; a final inverter rank
        # fixes parity when needed.
        while len(current) > 1:
            kind = StageKind.NOR if level % 2 == 0 else StageKind.NAND
            pu = builder.size(f"PT{level}")
            pd = builder.size(f"NT{level}")
            merged: List[Net] = []
            start = 0
            for gi, size in enumerate(_chunk_sizes(len(current))):
                chunk = current[start:start + size]
                start += size
                gate_out = builder.wire(f"l{level}_g{gi}")
                builder.gate(
                    f"lgate{level}_{gi}",
                    kind,
                    chunk,
                    gate_out,
                    pu,
                    pd,
                    speeds=_speeds(len(chunk)),
                )
                merged.append(gate_out)
            current = merged
            level += 1

        # Sense of the tree root: positive ("1 == all zero") after an odd
        # number of inverting levels.  Buffer to the output accordingly.
        pu = builder.size("POUT")
        pd = builder.size("NOUT")
        if level % 2 == 1:
            mid = builder.wire("rootb")
            builder.inv("outinv0", current[0], mid, pu, pd)
            pu2 = builder.size("POUT2")
            pd2 = builder.size("NOUT2")
            builder.inv("outinv1", mid, out, pu2, pd2)
        else:
            builder.inv("outinv0", current[0], out, pu, pd)
        return builder.done()


class DominoZeroDetect(_ZeroDetectGenerator):
    """Single wide domino OR node."""

    name = "zero_detect/domino"
    macro_type = "zero_detect"
    description = "un-split domino zero detect (wide OR node)"

    def applicable(self, spec: MacroSpec) -> bool:
        return spec.macro_type == "zero_detect" and spec.width >= 2

    def build(self, spec: MacroSpec, tech: Technology) -> Circuit:
        n = spec.width
        builder = MacroBuilder(f"zdet{n}_domino", tech)
        bits = [builder.input(f"a{i}") for i in range(n)]
        out = builder.output("zero", load=spec.output_load)
        clk = builder.clock()
        builder.size("P1"), builder.size("N1"), builder.size("N2")
        builder.size("P3"), builder.size("N3")
        builder.size("P4"), builder.size("N4")
        node = builder.wire("dyn", wire_cap=0.4 * n)
        legs = [[(bit, PinClass.DATA)] for bit in bits]
        builder.domino("dom", legs, clk, node, "P1", "N1", evaluate="N2")
        nonzero = builder.wire("nonzero")
        builder.inv("nzinv", node, nonzero, "P3", "N3", skew="high")
        builder.inv("outinv", nonzero, out, "P4", "N4")
        return builder.done()


class SplitDominoZeroDetect(_ZeroDetectGenerator):
    """Two half-width domino nodes recombined with a NAND2."""

    name = "zero_detect/split_domino"
    macro_type = "zero_detect"
    description = "split domino zero detect (two half nodes + NAND2)"

    def applicable(self, spec: MacroSpec) -> bool:
        return spec.macro_type == "zero_detect" and spec.width >= 8

    def build(self, spec: MacroSpec, tech: Technology) -> Circuit:
        n = spec.width
        m = n // 2
        builder = MacroBuilder(f"zdet{n}_split_domino", tech)
        bits = [builder.input(f"a{i}") for i in range(n)]
        out = builder.output("zero", load=spec.output_load)
        clk = builder.clock()
        builder.size("P1"), builder.size("N1"), builder.size("N2")
        builder.size("P5"), builder.size("N5")
        node_top = builder.wire("dyn_top", wire_cap=0.4 * m)
        node_bot = builder.wire("dyn_bot", wire_cap=0.4 * (n - m))
        builder.domino(
            "dom_top",
            [[(bit, PinClass.DATA)] for bit in bits[:m]],
            clk,
            node_top,
            "P1",
            "N1",
            evaluate="N2",
        )
        builder.domino(
            "dom_bot",
            [[(bit, PinClass.DATA)] for bit in bits[m:]],
            clk,
            node_bot,
            "P1",
            "N1",
            evaluate="N2",
        )
        # Both nodes stay high iff every bit is zero: zero = AND of the nodes.
        nonzero_b = builder.wire("zero_nand")
        builder.nand("combine", [node_top, node_bot], nonzero_b, "P5", "N5")
        builder.size("P6"), builder.size("N6")
        builder.inv("outinv", nonzero_b, out, "P6", "N6")
        return builder.done()


ALL_ZERO_DETECT_GENERATORS = (
    StaticTreeZeroDetect(),
    DominoZeroDetect(),
    SplitDominoZeroDetect(),
)
