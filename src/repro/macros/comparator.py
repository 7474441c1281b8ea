"""32-bit two-stage dynamic (D1-D2) equality comparators — the Figure-7
topology-exploration corpus.

``equal = NOR over all bits of (a_i XOR b_i)``, computed in two domino
phases.  The three published alternatives differ in how the XOR terms are
lumped and how the wide NOR is decomposed:

=========================  =============================================
``comparator/xorsum2``     D1: Xorsum2 x16, NAND2 x8 | D2: NOR4 x2, NAND2
(the "original" Merced     (the topology the paper's designers chose; the
topology)                  SMART exploration confirms it wins)
``comparator/xorsum1``     D1: Xorsum1 x32, NAND2 x16 | D2: NOR8 x2, NAND2
``comparator/xorsum4``     D1: Xorsum4 x8, NAND2 x4 | D2: NOR4 x1, INV
=========================  =============================================

An "XorsumK" D1 gate is a clocked domino node with ``2K`` legs of series 2 —
one leg per mismatch minterm ``a_i b̄_i`` / ``ā_i b_i`` over its K bit pairs —
whose buffered output rises when *any* of its K pairs differ.  NAND2s pair
the difference signals (static, inverting, so the D2 NOR sees active-low
"pair group equal" signals); the D2 domino NOR combines them; a final static
gate restores the ``equal`` sense.

The generator is parameterized by ``(k, nor_width, final)`` so new
alternatives are one registry entry away, matching how a designer would
explore with SMART.
"""

from __future__ import annotations

from functools import lru_cache
import random
from typing import Dict, List

from ..models.technology import Technology
from ..netlist.circuit import Circuit
from ..netlist.funcspec import Env, FunctionalSpec
from ..netlist.nets import Net, PinClass
from .base import MacroBuilder, MacroGenerator, MacroSpec


@lru_cache(maxsize=None)
def comparator_golden_spec(width: int) -> FunctionalSpec:
    """``equal = (a == b)`` with a sampler biased toward (near-)equal
    operands: uniform sampling at width 32 would essentially never exercise
    the equal case, leaving half of the truth table untested."""

    def equal(env: Env) -> bool:
        return all(bool(env[f"a{i}"]) == bool(env[f"b{i}"]) for i in range(width))

    def sampler(rng: random.Random) -> Dict[str, bool]:
        env = {f"a{i}": bool(rng.getrandbits(1)) for i in range(width)}
        mode = rng.randrange(3)
        for i in range(width):
            env[f"b{i}"] = env[f"a{i}"] if mode else bool(rng.getrandbits(1))
        if mode == 2:  # near miss: exactly one differing bit
            flip = rng.randrange(width)
            env[f"b{flip}"] = not env[f"b{flip}"]
        return env

    return FunctionalSpec(
        outputs={"equal": equal},
        sampler=sampler,
        golden="comparator",
        notes=f"{width}-bit equality",
    )


class TwoPhaseDominoComparator(MacroGenerator):
    """Parameterized D1-D2 domino equality comparator."""

    #: bits per D1 xorsum gate
    k = 2
    #: fan-in of the D2 NOR rank
    nor_width = 4
    #: "nand2" or "inv" final output gate
    final = "nand2"

    name = "comparator/xorsum2"
    macro_type = "comparator"
    description = "D1: Xorsum2 + Nand2, D2: Nor4 + Nand2 (original topology)"

    def applicable(self, spec: MacroSpec) -> bool:
        if spec.macro_type != "comparator":
            return False
        width = spec.width
        n_xorsum = width // self.k
        if width % self.k:
            return False
        n_pairs = n_xorsum // 2
        if n_xorsum % 2:
            return False
        n_nor = n_pairs // self.nor_width
        if n_pairs % self.nor_width:
            return False
        if self.final == "nand2":
            return n_nor == 2
        return n_nor == 1

    def functional_spec(self, spec: MacroSpec) -> FunctionalSpec:
        return comparator_golden_spec(spec.width)

    def build(self, spec: MacroSpec, tech: Technology) -> Circuit:
        width = spec.width
        builder = MacroBuilder(
            f"cmp{width}_xorsum{self.k}_nor{self.nor_width}", tech
        )
        a = [builder.input(f"a{i}") for i in range(width)]
        b = [builder.input(f"b{i}") for i in range(width)]
        out = builder.output("equal", load=spec.output_load)
        clk = builder.clock()

        # Complement rails (shared labels).
        pu_in = builder.size("P_in")
        pd_in = builder.size("N_in")
        a_b, b_b = [], []
        for i in range(width):
            an = builder.wire(f"an{i}")
            bn = builder.wire(f"bn{i}")
            builder.inv(f"ainv{i}", a[i], an, pu_in, pd_in)
            builder.inv(f"binv{i}", b[i], bn, pu_in, pd_in)
            a_b.append(an)
            b_b.append(bn)

        # D1 rank: XorsumK domino nodes ("pairs differ").
        builder.size("P1"), builder.size("N1"), builder.size("E1")
        builder.size("PI1"), builder.size("NI1")
        diffs: List[Net] = []
        for gi in range(width // self.k):
            legs = []
            for bit in range(gi * self.k, (gi + 1) * self.k):
                legs.append([(a[bit], PinClass.DATA), (b_b[bit], PinClass.DATA)])
                legs.append([(a_b[bit], PinClass.DATA), (b[bit], PinClass.DATA)])
            node = builder.wire(f"xs{gi}_dyn")
            diff = builder.wire(f"diff{gi}")
            builder.domino(f"xs{gi}", legs, clk, node, "P1", "N1", evaluate="E1")
            builder.inv(f"xsbuf{gi}", node, diff, "PI1", "NI1", skew="high")
            diffs.append(diff)

        # Static NAND2 rank closing D1: "both groups equal", active low...
        # nand(diff_i, diff_j) is high unless both differ; to keep the logic
        # monotonic for D2 we instead NOR pairs of diff signals: high when
        # neither group differs.  The paper's label is Nand2; with active-low
        # difference rails the same gate count and loading results, so we
        # keep the published NOR-equivalent structure under the Nand2 name.
        builder.size("P2"), builder.size("N2")
        pair_eq: List[Net] = []
        for pi in range(0, len(diffs), 2):
            eq = builder.wire(f"paireq{pi // 2}")
            builder.nor(
                f"pairgate{pi // 2}", [diffs[pi], diffs[pi + 1]], eq, "P2", "N2"
            )
            pair_eq.append(eq)

        # D2 rank: domino NOR over "pair equal" signals.  The node falls when
        # any pair_eq is low?  Domino pulls down on *high* inputs, so gate the
        # legs with the complement sense: re-invert pair_eq locally.
        builder.size("P2i"), builder.size("N2i")
        pair_ne: List[Net] = []
        for i, eq in enumerate(pair_eq):
            ne = builder.wire(f"pairne{i}")
            builder.inv(f"pairinv{i}", eq, ne, "P2i", "N2i")
            pair_ne.append(ne)

        builder.size("P3"), builder.size("N3")
        builder.size("PI3"), builder.size("NI3")
        nor_nodes: List[Net] = []
        for ni in range(0, len(pair_ne), self.nor_width):
            chunk = pair_ne[ni:ni + self.nor_width]
            node = builder.wire(f"nor{ni}_dyn")
            buffered = builder.wire(f"anydiff{ni}")
            builder.domino(
                f"nor{ni}",
                [[(net, PinClass.DATA)] for net in chunk],
                clk,
                node,
                "P3",
                "N3",
            )
            builder.inv(f"norbuf{ni}", node, buffered, "PI3", "NI3", skew="high")
            nor_nodes.append(buffered)

        # Final gate restores "equal": no group saw a difference.
        builder.size("P4"), builder.size("N4")
        if self.final == "nand2" and len(nor_nodes) == 2:
            builder.nor("outgate", nor_nodes, out, "P4", "N4")
        else:
            builder.inv("outgate", nor_nodes[0], out, "P4", "N4")
        return builder.done()


class Xorsum1Comparator(TwoPhaseDominoComparator):
    k = 1
    nor_width = 8
    final = "nand2"
    name = "comparator/xorsum1"
    description = "D1: Xorsum1 + Nand2, D2: Nor8 + Nand2 (alternative 1)"


class Xorsum4Comparator(TwoPhaseDominoComparator):
    k = 4
    nor_width = 4
    final = "inv"
    name = "comparator/xorsum4"
    description = "D1: Xorsum4 + Nand2, D2: Nor4 + INV (alternative 2)"


ALL_COMPARATOR_GENERATORS = (
    TwoPhaseDominoComparator(),
    Xorsum1Comparator(),
    Xorsum4Comparator(),
)
