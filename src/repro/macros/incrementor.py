"""Incrementor / decrementor macros (Figure 5(a) corpus).

Two topologies per family:

* **ripple** — carry chain: ``c0 = cin``, ``c_{i+1} = a_i AND c_i`` (NAND +
  inverter per bit), ``sum_i = a_i XOR c_i``.  Minimal area, linear depth.
* **prefix** — logarithmic AND-prefix tree (carry into bit i is the AND of
  all lower bits), NAND2/INV pairs per tree node.  The high-performance
  choice at wide bit-widths.

A decrementor is the same machine on complemented inputs (borrow ripples
where the bit is 0), realized by an input inverter rank.

Labeling follows Section 4's regularity discussion: by default bits share
labels in groups (``label_group`` bits per group, default 8), giving layout
regularity and a small GP; ``label_group=1`` gives the per-bit "least total
width" labeling, and very large groups give fully shared labels.  The
labeling-granularity ablation benchmark sweeps this knob.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List

from ..models.technology import Technology
from ..netlist.circuit import Circuit
from ..netlist.funcspec import Env, FunctionalSpec
from ..netlist.nets import Net
from .base import MacroBuilder, MacroGenerator, MacroSpec


@lru_cache(maxsize=None)
def increment_golden_spec(width: int, invert_inputs: bool) -> FunctionalSpec:
    """``{sum, cout} = a + cin`` — or, for the decrementor machine, the same
    ripple over the complemented input rank (borrow propagates where the bit
    is 0; the outputs are literally that machine's outputs, Section 4's
    "same schematic on inverted rails")."""

    def total(env: Env) -> int:
        value = 0
        for i in range(width):
            if bool(env[f"a{i}"]) != invert_inputs:
                value |= 1 << i
        return value + int(bool(env["cin"]))

    outputs = {
        f"sum{i}": (lambda env, i=i: bool((total(env) >> i) & 1))
        for i in range(width)
    }
    outputs["cout"] = lambda env: bool((total(env) >> width) & 1)
    return FunctionalSpec(
        outputs=outputs,
        golden="decrementor" if invert_inputs else "incrementor",
        notes=f"{width}-bit {'decrement' if invert_inputs else 'increment'}",
    )


def _group_label(builder: MacroBuilder, base: str, bit: int, group: int) -> str:
    """Declare-and-return the shared label for ``bit`` in granularity
    ``group``."""
    return builder.size(f"{base}g{bit // group}")


def _input_rank(
    builder: MacroBuilder, spec: MacroSpec, invert: bool, group: int
) -> List[Net]:
    """Primary inputs, optionally complemented through a driver rank (the
    decrementor's borrow logic runs on complemented bits)."""
    width = spec.width
    raw = [builder.input(f"a{i}") for i in range(width)]
    if not invert:
        return raw
    nets = []
    for i, net in enumerate(raw):
        pu = _group_label(builder, "PIN", i, group)
        pd = _group_label(builder, "NIN", i, group)
        inverted = builder.wire(f"ab{i}")
        builder.inv(f"inpinv{i}", net, inverted, pu, pd)
        nets.append(inverted)
    return nets


class RippleIncrementor(MacroGenerator):
    """Linear carry chain incrementor."""

    name = "incrementor/ripple"
    macro_type = "incrementor"
    description = "ripple-carry incrementor (NAND+INV chain, XOR sums)"

    #: Set by the decrementor subclass.
    invert_inputs = False

    def applicable(self, spec: MacroSpec) -> bool:
        return spec.macro_type == self.macro_type and spec.width >= 2

    def functional_spec(self, spec: MacroSpec) -> FunctionalSpec:
        return increment_golden_spec(spec.width, self.invert_inputs)

    def build(self, spec: MacroSpec, tech: Technology) -> Circuit:
        width = spec.width
        group = int(spec.param("label_group", 8))
        builder = MacroBuilder(f"{self.macro_type}{width}_ripple", tech)
        bits = _input_rank(builder, spec, self.invert_inputs, group)
        carry = builder.input("cin")
        for i in range(width):
            px = _group_label(builder, "PX", i, group)
            nx = _group_label(builder, "NX", i, group)
            out = builder.output(f"sum{i}", load=spec.output_load)
            builder.xor(f"sumx{i}", bits[i], carry, out, px, nx)
            if i < width - 1:
                pn = _group_label(builder, "PN", i, group)
                nn = _group_label(builder, "NN", i, group)
                pi = _group_label(builder, "PI", i, group)
                ni = _group_label(builder, "NI", i, group)
                carry_b = builder.wire(f"cb{i + 1}")
                next_carry = builder.wire(f"c{i + 1}")
                builder.nand(f"cnand{i}", [bits[i], carry], carry_b, pn, nn)
                builder.inv(f"cinv{i}", carry_b, next_carry, pi, ni)
                carry = next_carry
        cout = builder.output("cout", load=spec.output_load)
        pn = _group_label(builder, "PN", width - 1, group)
        nn = _group_label(builder, "NN", width - 1, group)
        pi = _group_label(builder, "PI", width - 1, group)
        ni = _group_label(builder, "NI", width - 1, group)
        cout_b = builder.wire("coutb")
        builder.nand("coutnand", [bits[width - 1], carry], cout_b, pn, nn)
        builder.inv("coutinv", cout_b, cout, pi, ni)
        return builder.done()


class RippleDecrementor(RippleIncrementor):
    name = "decrementor/ripple"
    macro_type = "decrementor"
    description = "ripple-borrow decrementor (complemented-input ripple chain)"
    invert_inputs = True


class PrefixIncrementor(MacroGenerator):
    """Logarithmic AND-prefix (carry-lookahead) incrementor."""

    name = "incrementor/prefix"
    macro_type = "incrementor"
    description = "prefix-tree (carry-lookahead) incrementor"

    invert_inputs = False

    def applicable(self, spec: MacroSpec) -> bool:
        return spec.macro_type == self.macro_type and spec.width >= 4

    def functional_spec(self, spec: MacroSpec) -> FunctionalSpec:
        return increment_golden_spec(spec.width, self.invert_inputs)

    def build(self, spec: MacroSpec, tech: Technology) -> Circuit:
        width = spec.width
        group = int(spec.param("label_group", 8))
        builder = MacroBuilder(f"{self.macro_type}{width}_prefix", tech)
        bits = _input_rank(builder, spec, self.invert_inputs, group)
        cin = builder.input("cin")

        # prefix[i] = AND(cin, a_0 .. a_{i-1}) = carry into bit i.
        # Sklansky-style tree of AND2 (NAND2 + INV) nodes, one label pair per
        # tree level so every level stays regular.
        prefix: List[Net] = [cin] + list(bits)  # prefix over inputs incl. cin
        level = 0
        stride = 1
        values = list(prefix)
        while stride < len(values):
            pu_n = builder.size(f"PTn{level}")
            pd_n = builder.size(f"NTn{level}")
            pu_i = builder.size(f"PTi{level}")
            pd_i = builder.size(f"NTi{level}")
            merged: List[Net] = []
            for i, net in enumerate(values):
                if i < stride:
                    merged.append(net)
                    continue
                nand_out = builder.wire(f"t{level}_{i}b")
                and_out = builder.wire(f"t{level}_{i}")
                builder.nand(
                    f"tnand{level}_{i}", [net, values[i - stride]], nand_out, pu_n, pd_n
                )
                builder.inv(f"tinv{level}_{i}", nand_out, and_out, pu_i, pd_i)
                merged.append(and_out)
            values = merged
            stride *= 2
            level += 1

        # values[i] now equals AND(prefix[0..i]); carry into bit i is
        # values[i] (the AND through cin and bits 0..i-1).
        for i in range(width):
            px = _group_label(builder, "PX", i, group)
            nx = _group_label(builder, "NX", i, group)
            out = builder.output(f"sum{i}", load=spec.output_load)
            builder.xor(f"sumx{i}", bits[i], values[i], out, px, nx)
        cout = builder.output("cout", load=spec.output_load)
        pu = builder.size("PCO")
        pd = builder.size("NCO")
        builder.inv("coutbuf", values[width], builder.wire("coutb"), pu, pd)
        pu2 = builder.size("PCO2")
        pd2 = builder.size("NCO2")
        builder.inv("coutbuf2", builder.circuit.net("coutb"), cout, pu2, pd2)
        return builder.done()


class PrefixDecrementor(PrefixIncrementor):
    name = "decrementor/prefix"
    macro_type = "decrementor"
    description = "prefix-tree decrementor (complemented-input prefix chain)"
    invert_inputs = True


ALL_INCREMENTOR_GENERATORS = (
    RippleIncrementor(),
    PrefixIncrementor(),
    RippleDecrementor(),
    PrefixDecrementor(),
)
