"""Decoder macros (Figure 5(c) corpus): n-to-2^n one-hot decoders.

Three topologies:

* **flat static** — complement rank, then one NAND-n + inverter per output.
* **predecoded** — inputs split into groups of 2-3 bits, each predecoded to
  a one-hot bundle; outputs combine one line per bundle through a small NAND.
  The standard choice at 6:64 and 7:128.
* **domino** — one D1 domino AND node per output plus a high-skew driver.
  Fast, but every output carries precharge clock load.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence, Tuple

from ..models.technology import Technology
from ..netlist.circuit import Circuit
from ..netlist.funcspec import Env, FunctionalSpec
from ..netlist.nets import Net, PinClass
from .base import MacroBuilder, MacroGenerator, MacroSpec


@lru_cache(maxsize=None)
def decoder_golden_spec(n: int) -> FunctionalSpec:
    """``o_code = (a == code)`` — total over the full input space."""

    def address(env: Env) -> int:
        return sum(1 << bit for bit in range(n) if env[f"a{bit}"])

    outputs = {
        f"o{code}": (lambda env, code=code: address(env) == code)
        for code in range(1 << n)
    }
    return FunctionalSpec(
        outputs=outputs,
        golden="decoder",
        notes=f"{n}:{1 << n} one-hot decode",
    )


class _DecoderGenerator(MacroGenerator):
    """Shared golden-spec hook for the decoder topologies."""

    def functional_spec(self, spec: MacroSpec) -> FunctionalSpec:
        return decoder_golden_spec(spec.width)


def _complement_rank(
    builder: MacroBuilder, bits: Sequence[Net]
) -> List[Tuple[Net, Net]]:
    """(true, complement) rails per input, complement through a shared-label
    inverter rank."""
    pu = builder.size("PINV")
    pd = builder.size("NINV")
    rails = []
    for i, bit in enumerate(bits):
        comp = builder.wire(f"ab{i}")
        builder.inv(f"cmp{i}", bit, comp, pu, pd)
        rails.append((bit, comp))
    return rails


def _minterm_nets(rails: Sequence[Tuple[Net, Net]], code: int) -> List[Net]:
    """The input rail (true/complement) each bit contributes to minterm
    ``code``."""
    nets = []
    for bit, (true_rail, comp_rail) in enumerate(rails):
        nets.append(true_rail if (code >> bit) & 1 else comp_rail)
    return nets


class FlatStaticDecoder(_DecoderGenerator):
    """One wide NAND per output."""

    name = "decoder/flat_static"
    macro_type = "decoder"
    description = "flat static decoder (NAND-n + INV per output)"

    def applicable(self, spec: MacroSpec) -> bool:
        return spec.macro_type == "decoder" and 2 <= spec.width <= 7

    def build(self, spec: MacroSpec, tech: Technology) -> Circuit:
        n = spec.width
        builder = MacroBuilder(f"dec{n}to{1 << n}_flat", tech)
        bits = [builder.input(f"a{i}") for i in range(n)]
        rails = _complement_rank(builder, bits)
        pu_nand = builder.size("PNAND")
        pd_nand = builder.size("NNAND")
        pu_out = builder.size("POUT")
        pd_out = builder.size("NOUT")
        for code in range(1 << n):
            nand_out = builder.wire(f"m{code}b")
            out = builder.output(f"o{code}", load=spec.output_load)
            builder.nand(
                f"mnand{code}", _minterm_nets(rails, code), nand_out, pu_nand, pd_nand
            )
            builder.inv(f"mout{code}", nand_out, out, pu_out, pd_out)
        return builder.done()


class PredecodedDecoder(_DecoderGenerator):
    """Two-level decode through one-hot predecode bundles."""

    name = "decoder/predecoded"
    macro_type = "decoder"
    description = "predecoded decoder (group one-hot bundles + NAND combine)"

    def applicable(self, spec: MacroSpec) -> bool:
        return spec.macro_type == "decoder" and spec.width >= 4

    @staticmethod
    def _groups(n: int) -> List[int]:
        """Split n bits into predecode groups of 2-3."""
        groups = []
        remaining = n
        while remaining > 0:
            if remaining in (2, 4):
                groups.append(2)
                remaining -= 2
            else:
                groups.append(min(3, remaining))
                remaining -= min(3, remaining)
        return groups

    def build(self, spec: MacroSpec, tech: Technology) -> Circuit:
        n = spec.width
        builder = MacroBuilder(f"dec{n}to{1 << n}_predec", tech)
        bits = [builder.input(f"a{i}") for i in range(n)]
        rails = _complement_rank(builder, bits)

        pu_pre = builder.size("PPRE")
        pd_pre = builder.size("NPRE")
        pu_buf = builder.size("PPBUF")
        pd_buf = builder.size("NPBUF")

        bundles: List[List[Net]] = []
        start = 0
        for g_index, g_size in enumerate(self._groups(n)):
            group_rails = rails[start:start + g_size]
            lines: List[Net] = []
            for code in range(1 << g_size):
                nand_out = builder.wire(f"p{g_index}_{code}b")
                line = builder.wire(f"p{g_index}_{code}")
                builder.nand(
                    f"pnand{g_index}_{code}",
                    _minterm_nets(group_rails, code),
                    nand_out,
                    pu_pre,
                    pd_pre,
                )
                builder.inv(f"pbuf{g_index}_{code}", nand_out, line, pu_buf, pd_buf)
                lines.append(line)
            bundles.append(lines)
            start += g_size

        pu_nand = builder.size("PNAND")
        pd_nand = builder.size("NNAND")
        pu_out = builder.size("POUT")
        pd_out = builder.size("NOUT")
        group_sizes = self._groups(n)
        for code in range(1 << n):
            chosen: List[Net] = []
            shift = 0
            for bundle, g_size in zip(bundles, group_sizes):
                local = (code >> shift) & ((1 << g_size) - 1)
                chosen.append(bundle[local])
                shift += g_size
            nand_out = builder.wire(f"m{code}b")
            out = builder.output(f"o{code}", load=spec.output_load)
            builder.nand(f"mnand{code}", chosen, nand_out, pu_nand, pd_nand)
            builder.inv(f"mout{code}", nand_out, out, pu_out, pd_out)
        return builder.done()


class DominoDecoder(_DecoderGenerator):
    """One domino AND node per output."""

    name = "decoder/domino"
    macro_type = "decoder"
    description = "domino decoder (D1 AND node + high-skew driver per output)"

    def applicable(self, spec: MacroSpec) -> bool:
        return spec.macro_type == "decoder" and 2 <= spec.width <= 7

    def build(self, spec: MacroSpec, tech: Technology) -> Circuit:
        n = spec.width
        builder = MacroBuilder(f"dec{n}to{1 << n}_domino", tech)
        bits = [builder.input(f"a{i}") for i in range(n)]
        clk = builder.clock()
        rails = _complement_rank(builder, bits)
        builder.size("P1"), builder.size("N1"), builder.size("N2")
        builder.size("P3"), builder.size("N3")
        for code in range(1 << n):
            node = builder.wire(f"dyn{code}")
            out = builder.output(f"o{code}", load=spec.output_load)
            leg = [(net, PinClass.DATA) for net in _minterm_nets(rails, code)]
            builder.domino(
                f"dom{code}", [leg], clk, node, "P1", "N1", evaluate="N2"
            )
            builder.inv(f"drv{code}", node, out, "P3", "N3", skew="high")
        return builder.done()


ALL_DECODER_GENERATORS = (
    FlatStaticDecoder(),
    PredecodedDecoder(),
    DominoDecoder(),
)
