"""Encoder macros: 2^N-to-N binary encoders (the paper's "encoders" entry).

``out_b = OR of all one-hot inputs whose index has bit b set`` — assuming a
one-hot (strongly mutexed) input vector, the standard partner of the decoder
in datapath control.

Topologies:

* **static tree** — per output bit, an OR tree over its 2^(N-1) member
  inputs (NOR/NAND alternation, fast/slow pin annotations like the
  zero-detect trees);
* **domino** — per output bit, one wide domino OR node + high-skew driver;
  the flat, fast, clock-hungry choice.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List

from ..models.technology import Technology
from ..netlist.circuit import Circuit
from ..netlist.funcspec import Env, FunctionalSpec
from ..netlist.nets import Net, PinClass
from ..netlist.stages import StageKind
from .base import MacroBuilder, MacroGenerator, MacroSpec
from .zero_detect import _chunk_sizes, _speeds


@lru_cache(maxsize=None)
def encoder_golden_spec(n: int) -> FunctionalSpec:
    """``o_b = OR of inputs whose index has bit b set``.

    Total over the full input space — both topologies are plain OR
    structures, so the proof does not need the one-hot usage restriction
    (under which ``o`` reads back the hot index in binary)."""

    outputs = {}
    for b in range(n):
        members = [k for k in range(1 << n) if (k >> b) & 1]

        def bit(env: Env, members=tuple(members)) -> bool:
            return any(env[f"i{k}"] for k in members)

        outputs[f"o{b}"] = bit
    return FunctionalSpec(
        outputs=outputs,
        golden="encoder",
        notes=f"{1 << n}:{n} binary encode",
    )


class _EncoderGenerator(MacroGenerator):
    """Shared golden-spec hook for the encoder topologies."""

    def functional_spec(self, spec: MacroSpec) -> FunctionalSpec:
        return encoder_golden_spec(spec.width)


class StaticTreeEncoder(_EncoderGenerator):
    """Per-bit OR reduction trees."""

    name = "encoder/static_tree"
    macro_type = "encoder"
    description = "2^N:N binary encoder (static OR trees per output bit)"

    def applicable(self, spec: MacroSpec) -> bool:
        return spec.macro_type == "encoder" and 2 <= spec.width <= 6

    def build(self, spec: MacroSpec, tech: Technology) -> Circuit:
        n = spec.width
        builder = MacroBuilder(f"enc{1 << n}to{n}_static", tech)
        inputs = [builder.input(f"i{k}") for k in range(1 << n)]

        for b in range(n):
            members = [inputs[k] for k in range(1 << n) if (k >> b) & 1]
            out = builder.output(f"o{b}", load=spec.output_load)
            # OR tree: NOR first level (inverted), NAND next, alternating;
            # track the sense and fix it at the output buffer.
            current: List[Net] = members
            level = 0
            while len(current) > 1:
                kind = StageKind.NOR if level % 2 == 0 else StageKind.NAND
                pu = builder.size(f"PT{b}_{level}")
                pd = builder.size(f"NT{b}_{level}")
                merged: List[Net] = []
                start = 0
                for gi, size in enumerate(_chunk_sizes(len(current))):
                    chunk = current[start:start + size]
                    start += size
                    gate_out = builder.wire(f"b{b}l{level}g{gi}")
                    builder.gate(
                        f"b{b}gate{level}_{gi}", kind, chunk, gate_out,
                        pu, pd, speeds=_speeds(len(chunk)),
                    )
                    merged.append(gate_out)
                current = merged
                level += 1
            pu = builder.size(f"PO{b}")
            pd = builder.size(f"NO{b}")
            if level % 2 == 1:
                # Root is active-low NOR-of-members == NOT(OR): one inverter
                # restores OR.
                builder.inv(f"obuf{b}", current[0], out, pu, pd)
            else:
                mid = builder.wire(f"ob{b}")
                builder.inv(f"obuf{b}a", current[0], mid, pu, pd)
                pu2 = builder.size(f"PO{b}x")
                pd2 = builder.size(f"NO{b}x")
                builder.inv(f"obuf{b}b", mid, out, pu2, pd2)
        return builder.done()


class DominoEncoder(_EncoderGenerator):
    """Per-bit wide domino OR nodes."""

    name = "encoder/domino"
    macro_type = "encoder"
    description = "2^N:N binary encoder (domino OR node per output bit)"

    def applicable(self, spec: MacroSpec) -> bool:
        return spec.macro_type == "encoder" and 2 <= spec.width <= 6

    def build(self, spec: MacroSpec, tech: Technology) -> Circuit:
        n = spec.width
        builder = MacroBuilder(f"enc{1 << n}to{n}_domino", tech)
        inputs = [builder.input(f"i{k}") for k in range(1 << n)]
        clk = builder.clock()
        builder.size("P1"), builder.size("N1"), builder.size("E1")
        builder.size("P2"), builder.size("N2")
        for b in range(n):
            members = [inputs[k] for k in range(1 << n) if (k >> b) & 1]
            node = builder.wire(f"dyn{b}", wire_cap=0.4 * len(members))
            out = builder.output(f"o{b}", load=spec.output_load)
            builder.domino(
                f"dom{b}",
                [[(net, PinClass.DATA)] for net in members],
                clk,
                node,
                "P1",
                "N1",
                evaluate="E1",
            )
            builder.inv(f"drv{b}", node, out, "P2", "N2", skew="high")
        return builder.done()


ALL_ENCODER_GENERATORS = (
    StaticTreeEncoder(),
    DominoEncoder(),
)
