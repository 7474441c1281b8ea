"""Register-file read-port macros.

Register files close the paper's macro list ("decoders, encoders,
zero-detects, register files etc.").  The timing-critical piece — what SMART
would size — is the *read path*: address decode plus per-bit bitline muxing
of the selected word.  Storage cells hold state between clock edges and are
not part of the combinational sizing problem, so the word outputs enter the
macro as data inputs ``d{reg}_{bit}``.

Topologies:

* **domino bitline** — a flat static decoder produces one-hot word lines;
  each bit's bitline is a clocked domino node with one [wordline, data] leg
  per register plus a high-skew sense inverter (the local-bitline structure
  of real register files).  Built compositionally: the decoder sub-circuit
  is instantiated with :meth:`Circuit.merge`.
* **tristate bitline** — word lines enable per-register tri-states onto a
  shared bitline; the static choice for small register counts.
"""

from __future__ import annotations

from functools import lru_cache

from ..models.technology import Technology
from ..netlist.circuit import Circuit
from ..netlist.funcspec import Env, FunctionalSpec
from ..netlist.nets import PinClass
from .base import MacroBuilder, MacroGenerator, MacroSpec
from .decoder import FlatStaticDecoder

#: Bitline wire capacitance per register tap, fF.
BITLINE_CAP_PER_REG = 0.8


def _address_bits(registers: int) -> int:
    bits = (registers - 1).bit_length()
    if 1 << bits != registers:
        raise ValueError(f"register count must be a power of two, got {registers}")
    return max(1, bits)


@lru_cache(maxsize=None)
def register_file_golden_spec(bits: int, regs: int) -> FunctionalSpec:
    """``q_b = d[addr]_b`` — the read port returns the addressed word."""
    abits = _address_bits(regs)

    def address(env: Env) -> int:
        return sum(1 << a for a in range(abits) if env[f"a{a}"])

    outputs = {
        f"q{b}": (lambda env, b=b: bool(env[f"d{address(env)}_{b}"]))
        for b in range(bits)
    }
    return FunctionalSpec(
        outputs=outputs,
        golden="register_file",
        notes=f"{regs}x{bits} read port",
    )


class _ReadPortGenerator(MacroGenerator):
    """Shared golden-spec hook for the read-port topologies."""

    def functional_spec(self, spec: MacroSpec) -> FunctionalSpec:
        return register_file_golden_spec(
            spec.width, int(spec.param("registers", 8))
        )


class DominoBitlineReadPort(_ReadPortGenerator):
    """Decoder + clocked domino bitline per bit."""

    name = "register_file/domino_bitline"
    macro_type = "register_file"
    description = "read port: flat decoder + domino bitline per bit"

    def applicable(self, spec: MacroSpec) -> bool:
        regs = int(spec.param("registers", 8))
        return (
            spec.macro_type == "register_file"
            and spec.width >= 1
            and 2 <= regs <= 128
            and (regs & (regs - 1)) == 0
        )

    def build(self, spec: MacroSpec, tech: Technology) -> Circuit:
        bits = spec.width
        regs = int(spec.param("registers", 8))
        abits = _address_bits(regs)
        builder = MacroBuilder(f"rf{regs}x{bits}_domino_read", tech)
        circuit = builder.circuit
        clk = builder.clock()

        # Address inputs and word-line nets exist before the merge so the
        # decoder sub-circuit binds to them by name.
        for a in range(abits):
            builder.input(f"a{a}")
        for code in range(regs):
            builder.wire(f"o{code}")

        decoder = FlatStaticDecoder().generate(
            MacroSpec("decoder", abits, output_load=0.0), tech
        )
        circuit.merge(decoder, prefix="dec")

        builder.size("P1"), builder.size("N1"), builder.size("E1")
        builder.size("P2"), builder.size("N2")
        for b in range(bits):
            legs = []
            for r in range(regs):
                data = builder.input(f"d{r}_{b}")
                legs.append(
                    [
                        (circuit.net(f"o{r}"), PinClass.SELECT),
                        (data, PinClass.DATA),
                    ]
                )
            bitline = builder.wire(
                f"bl{b}", wire_cap=BITLINE_CAP_PER_REG * regs
            )
            out = builder.output(f"q{b}", load=spec.output_load)
            builder.domino(
                f"bitmux{b}", legs, clk, bitline, "P1", "N1", evaluate="E1"
            )
            builder.inv(f"sense{b}", bitline, out, "P2", "N2", skew="high")
        return builder.done()


class TristateBitlineReadPort(_ReadPortGenerator):
    """Decoder + tri-state bitline per bit (static alternative)."""

    name = "register_file/tristate_bitline"
    macro_type = "register_file"
    description = "read port: flat decoder + tri-state bitline per bit"

    def applicable(self, spec: MacroSpec) -> bool:
        regs = int(spec.param("registers", 8))
        return (
            spec.macro_type == "register_file"
            and spec.width >= 1
            and 2 <= regs <= 32
            and (regs & (regs - 1)) == 0
        )

    def build(self, spec: MacroSpec, tech: Technology) -> Circuit:
        bits = spec.width
        regs = int(spec.param("registers", 8))
        abits = _address_bits(regs)
        builder = MacroBuilder(f"rf{regs}x{bits}_tristate_read", tech)
        circuit = builder.circuit

        for a in range(abits):
            builder.input(f"a{a}")
        for code in range(regs):
            builder.wire(f"o{code}")

        decoder = FlatStaticDecoder().generate(
            MacroSpec("decoder", abits, output_load=0.0), tech
        )
        circuit.merge(decoder, prefix="dec")

        builder.size("P1"), builder.size("N1")
        builder.size("P2"), builder.size("N2")
        for b in range(bits):
            bitline = builder.wire(
                f"bl{b}", wire_cap=BITLINE_CAP_PER_REG * regs
            )
            out = builder.output(f"q{b}", load=spec.output_load)
            for r in range(regs):
                data = builder.input(f"d{r}_{b}")
                builder.tristate(
                    f"bit{b}reg{r}", data, circuit.net(f"o{r}"), bitline,
                    "P1", "N1",
                )
            builder.inv(f"sense{b}", bitline, out, "P2", "N2")
        return builder.done()


ALL_REGISTER_FILE_GENERATORS = (
    DominoBitlineReadPort(),
    TristateBitlineReadPort(),
)
