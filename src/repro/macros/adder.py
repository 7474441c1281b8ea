"""Adder macros — headlined by the 64-bit dual-rail carry-lookahead domino
adder of Section 6.2.

**Dual-rail domino CLA** (``adder/dual_rail_domino_cla``): the high-
performance topology the paper sizes for the Figure-6 area-delay curve.
Domino logic is non-inverting, so both polarity rails of every signal are
computed explicitly ("dual-rail"):

* level 1 (D1, clocked): per bit, four domino nodes — generate
  ``g = a·b``, kill ``k = ā·b̄``, propagate ``p = a⊕b`` and its complement
  ``p̄`` — each buffered by a high-skew inverter;
* level 2 (D2): per 4-bit group, lookahead nodes
  ``G = g3 + p3 g2 + p3 p2 g1 + p3 p2 p1 g0``,
  ``A = k3 + p3 k2 + p3 p2 k1 + p3 p2 p1 k0`` (the *absorb* rail
  ``A = Ḡ·P̄`` — no generate and not all-propagate; the complement-carry
  recursion is ``c̄_out = A + P·c̄_in``, so the zero-carry-in all-propagate
  term is added only where a complement carry is actually formed),
  ``P = p3 p2 p1 p0`` and ``P̄ = p̄3 + p̄2 + p̄1 + p̄0``;
* level 3 (D2): the same equations over 4 groups per supergroup;
* level 4 (D2): carry ripple-of-lookahead — carries into each supergroup,
  group and bit on both rails;
* sum (D2): ``sum_i = p_i c̄_i + p̄_i c_i`` domino XOR, then an output driver.

Size labels are shared per level and rail type (the Section-4 regularity
labeling), so the GP stays small even at 64 bits while the raw path space is
huge — this macro is the paper's Section-5.2 path-reduction example.

**Static ripple adder** (``adder/static_ripple``): the database's low-cost
alternative; NAND-majority carry chain plus XOR sums.
"""

from __future__ import annotations

from functools import lru_cache
import random
from typing import Dict, List, Sequence, Tuple

from ..models.technology import Technology
from ..netlist.circuit import Circuit
from ..netlist.funcspec import Env, FunctionalSpec
from ..netlist.nets import Net, PinClass
from .base import MacroBuilder, MacroGenerator, MacroSpec

GROUP = 4          # bits per lookahead group
SUPER = 4     # groups per supergroup


@lru_cache(maxsize=None)
def adder_golden_spec(width: int, has_cin: bool) -> FunctionalSpec:
    """``{sum, cout} = a + b (+ cin)`` — the golden adder function.  The CLA
    topology has no carry input (``has_cin=False``); both topologies carry
    the same ``golden`` marker since cin-less addition is the same function
    restricted to ``cin = 0``."""

    def total(env: Env) -> int:
        a = sum(1 << i for i in range(width) if env[f"a{i}"])
        b = sum(1 << i for i in range(width) if env[f"b{i}"])
        cin = int(bool(env["cin"])) if has_cin else 0
        return a + b + cin

    outputs = {
        f"sum{i}": (lambda env, i=i: bool((total(env) >> i) & 1))
        for i in range(width)
    }
    outputs["cout"] = lambda env: bool((total(env) >> width) & 1)

    def sampler(rng: random.Random) -> Dict[str, bool]:
        # Bias toward long-carry operands: all-propagate (a XOR b per bit)
        # half the time, else uniform.
        env: Dict[str, bool] = {}
        if rng.getrandbits(1):
            for i in range(width):
                env[f"a{i}"] = bool(rng.getrandbits(1))
                env[f"b{i}"] = not env[f"a{i}"]
            flip = rng.randrange(width)
            env[f"b{flip}"] = env[f"a{flip}"]
        else:
            for i in range(width):
                env[f"a{i}"] = bool(rng.getrandbits(1))
                env[f"b{i}"] = bool(rng.getrandbits(1))
        if has_cin:
            env["cin"] = bool(rng.getrandbits(1))
        return env

    return FunctionalSpec(
        outputs=outputs,
        sampler=sampler,
        golden="adder",
        notes=f"{width}-bit add{' with cin' if has_cin else ''}",
    )


class DualRailDominoCLA(MacroGenerator):
    """64-bit (any multiple of 16) dual-rail domino carry-lookahead adder."""

    name = "adder/dual_rail_domino_cla"
    macro_type = "adder"
    description = "dual-rail domino carry-lookahead adder (Sec 6.2)"

    def applicable(self, spec: MacroSpec) -> bool:
        return (
            spec.macro_type == "adder"
            and spec.width >= 16
            and spec.width % 16 == 0
        )

    def functional_spec(self, spec: MacroSpec) -> FunctionalSpec:
        return adder_golden_spec(spec.width, has_cin=False)

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _domino_pair(
        builder: MacroBuilder,
        name: str,
        legs: List[List[Tuple[Net, PinClass]]],
        clk: Net,
        labels: Tuple[str, str, str, str, str],
        clocked: bool,
        skew_inv: bool = True,
    ) -> Net:
        """One domino node + high-skew buffer; returns the buffered net.

        ``labels`` = (precharge, data, evaluate, inv pull-up, inv pull-down);
        evaluate ignored when ``clocked`` is False.
        """
        node = builder.wire(f"{name}_dyn")
        buffered = builder.wire(f"{name}")
        builder.domino(
            f"{name}_dom",
            legs,
            clk,
            node,
            labels[0],
            labels[1],
            evaluate=labels[2] if clocked else None,
        )
        builder.inv(
            f"{name}_buf", node, buffered, labels[3], labels[4],
            skew="high" if skew_inv else None,
        )
        return buffered

    def _level_labels(self, builder: MacroBuilder, tag: str, clocked: bool):
        labels = (
            builder.size(f"P_{tag}"),
            builder.size(f"N_{tag}"),
            builder.size(f"E_{tag}") if clocked else "",
            builder.size(f"PI_{tag}"),
            builder.size(f"NI_{tag}"),
        )
        return labels

    @staticmethod
    def _lookahead_legs(
        g: Sequence[Net], p: Sequence[Net]
    ) -> List[List[Tuple[Net, PinClass]]]:
        """``G = g3 + p3 g2 + p3 p2 g1 + p3 p2 p1 g0`` legs (msb first)."""
        n = len(g)
        legs = []
        for j in range(n - 1, -1, -1):
            leg = [(p[i], PinClass.DATA) for i in range(n - 1, j, -1)]
            leg.append((g[j], PinClass.DATA))
            legs.append(leg)
        return legs

    @staticmethod
    def _kill_legs(
        k: Sequence[Net], p: Sequence[Net]
    ) -> List[List[Tuple[Net, PinClass]]]:
        """Zero-carry-in complement legs: the G-form over absorbs plus the
        all-propagate leg (``c̄ = A + P·c̄_in`` with ``c̄_in = 1``).

        Only valid where the incoming carry is the constant 0 (the adder's
        own carry-in).  Mid-chain complement rails must use
        :meth:`_lookahead_legs` over absorbs and gate the all-propagate leg
        with the upstream complement carry instead — folding the
        all-propagate term into the stored rail asserts "no carry" whenever
        a group merely propagates, which drives both carry rails high when
        an upstream group generates."""
        legs = DualRailDominoCLA._lookahead_legs(k, p)
        legs.append([(net, PinClass.DATA) for net in reversed(p)])
        return legs

    @staticmethod
    def _carry_legs(
        gen: Sequence[Net],
        prop: Sequence[Net],
        upstream: Net = None,
    ) -> List[List[Tuple[Net, PinClass]]]:
        """Carry into a position: lookahead over the *preceding* gen/prop
        (lists are the preceding positions, lsb..msb), plus an all-propagate
        leg carrying ``upstream`` when given."""
        legs = DualRailDominoCLA._lookahead_legs(gen, prop)
        if upstream is not None:
            leg = [(net, PinClass.DATA) for net in reversed(prop)]
            leg.append((upstream, PinClass.DATA))
            legs.append(leg)
        return legs

    # -- construction --------------------------------------------------------------

    def build(self, spec: MacroSpec, tech: Technology) -> Circuit:
        width = spec.width
        n_groups = width // GROUP
        n_supers = n_groups // SUPER
        builder = MacroBuilder(f"adder{width}_dual_rail_domino_cla", tech)
        clk = builder.clock()

        a = [builder.input(f"a{i}") for i in range(width)]
        b = [builder.input(f"b{i}") for i in range(width)]

        # Complement rails through a shared-label inverter rank.
        pu_in = builder.size("P_in")
        pd_in = builder.size("N_in")
        a_b = []
        b_b = []
        for i in range(width):
            an = builder.wire(f"an{i}")
            bn = builder.wire(f"bn{i}")
            builder.inv(f"ainv{i}", a[i], an, pu_in, pd_in)
            builder.inv(f"binv{i}", b[i], bn, pu_in, pd_in)
            a_b.append(an)
            b_b.append(bn)

        # Level 1: per-bit g / k / p / p̄ (D1, clocked).
        lbl = {
            rail: self._level_labels(builder, f"1{rail}", clocked=True)
            for rail in ("g", "k", "p", "pb")
        }
        g, k, p, pb = [], [], [], []
        for i in range(width):
            g.append(
                self._domino_pair(
                    builder, f"g{i}",
                    [[(a[i], PinClass.DATA), (b[i], PinClass.DATA)]],
                    clk, lbl["g"], clocked=True,
                )
            )
            k.append(
                self._domino_pair(
                    builder, f"k{i}",
                    [[(a_b[i], PinClass.DATA), (b_b[i], PinClass.DATA)]],
                    clk, lbl["k"], clocked=True,
                )
            )
            p.append(
                self._domino_pair(
                    builder, f"p{i}",
                    [
                        [(a[i], PinClass.DATA), (b_b[i], PinClass.DATA)],
                        [(a_b[i], PinClass.DATA), (b[i], PinClass.DATA)],
                    ],
                    clk, lbl["p"], clocked=True,
                )
            )
            pb.append(
                self._domino_pair(
                    builder, f"pb{i}",
                    [
                        [(a[i], PinClass.DATA), (b[i], PinClass.DATA)],
                        [(a_b[i], PinClass.DATA), (b_b[i], PinClass.DATA)],
                    ],
                    clk, lbl["pb"], clocked=True,
                )
            )

        # Level 2: group lookahead (D2).
        lbl2 = {
            rail: self._level_labels(builder, f"2{rail}", clocked=False)
            for rail in ("G", "K", "P", "Pb")
        }
        G, K, P, Pb = [], [], [], []
        for j in range(n_groups):
            gs = g[j * GROUP:(j + 1) * GROUP]
            ks = k[j * GROUP:(j + 1) * GROUP]
            ps = p[j * GROUP:(j + 1) * GROUP]
            pbs = pb[j * GROUP:(j + 1) * GROUP]
            G.append(
                self._domino_pair(
                    builder, f"G{j}", self._lookahead_legs(gs, ps),
                    clk, lbl2["G"], clocked=False,
                )
            )
            # Absorb rail (no all-propagate leg): consumed by complement-
            # carry lookaheads whose carry-in is NOT the constant 0.
            K.append(
                self._domino_pair(
                    builder, f"K{j}", self._lookahead_legs(ks, ps),
                    clk, lbl2["K"], clocked=False,
                )
            )
            P.append(
                self._domino_pair(
                    builder, f"P{j}",
                    [[(net, PinClass.DATA) for net in ps]],
                    clk, lbl2["P"], clocked=False,
                )
            )
            Pb.append(
                self._domino_pair(
                    builder, f"Pb{j}",
                    [[(net, PinClass.DATA)] for net in pbs],
                    clk, lbl2["Pb"], clocked=False,
                )
            )

        # Level 3: supergroup lookahead (D2).
        lbl3 = {
            rail: self._level_labels(builder, f"3{rail}", clocked=False)
            for rail in ("G", "K", "P", "Pb")
        }
        GS, KS, PS, PbS = [], [], [], []
        for s in range(n_supers):
            Gs = G[s * SUPER:(s + 1) * SUPER]
            Ks = K[s * SUPER:(s + 1) * SUPER]
            Ps = P[s * SUPER:(s + 1) * SUPER]
            Pbs = Pb[s * SUPER:(s + 1) * SUPER]
            GS.append(
                self._domino_pair(
                    builder, f"GS{s}", self._lookahead_legs(Gs, Ps),
                    clk, lbl3["G"], clocked=False,
                )
            )
            # Supergroup absorb rail, same convention as the group K rail.
            KS.append(
                self._domino_pair(
                    builder, f"KS{s}", self._lookahead_legs(Ks, Ps),
                    clk, lbl3["K"], clocked=False,
                )
            )
            PS.append(
                self._domino_pair(
                    builder, f"PS{s}",
                    [[(net, PinClass.DATA) for net in Ps]],
                    clk, lbl3["P"], clocked=False,
                )
            )
            PbS.append(
                self._domino_pair(
                    builder, f"PbS{s}",
                    [[(net, PinClass.DATA)] for net in Pbs],
                    clk, lbl3["Pb"], clocked=False,
                )
            )

        # Level 4: carries (both rails) into supergroups, groups, bits.
        lblc = self._level_labels(builder, "4c", clocked=False)
        lblcb = self._level_labels(builder, "4cb", clocked=False)

        c_super: List[Net] = [None]   # carry into supergroup 0 is 0
        cb_super: List[Net] = [None]  # its complement is constant 1
        for s in range(1, n_supers + 1):
            c_super.append(
                self._domino_pair(
                    builder, f"csup{s}",
                    self._carry_legs(GS[:s], PS[:s]),
                    clk, lblc, clocked=False,
                )
            )
            cb_super.append(
                self._domino_pair(
                    builder, f"cbsup{s}",
                    self._kill_legs(KS[:s], PS[:s]),
                    clk, lblcb, clocked=False,
                )
            )

        c_group: List[Net] = []
        cb_group: List[Net] = []
        for j in range(n_groups):
            s = j // SUPER
            local = j % SUPER
            if local == 0:
                c_group.append(c_super[s])
                cb_group.append(cb_super[s])
                continue
            lo = s * SUPER
            gen = G[lo:j]
            prop = P[lo:j]
            kil = K[lo:j]
            c_group.append(
                self._domino_pair(
                    builder, f"cgrp{j}",
                    self._carry_legs(gen, prop, upstream=c_super[s]),
                    clk, lblc, clocked=False,
                )
            )
            legs_cb = self._lookahead_legs(kil, prop)
            if cb_super[s] is not None:
                leg = [(net, PinClass.DATA) for net in reversed(prop)]
                leg.append((cb_super[s], PinClass.DATA))
                legs_cb.append(leg)
            else:
                legs_cb.append([(net, PinClass.DATA) for net in reversed(prop)])
            cb_group.append(
                self._domino_pair(
                    builder, f"cbgrp{j}", legs_cb, clk, lblcb, clocked=False,
                )
            )

        c_bit: List[Net] = []
        cb_bit: List[Net] = []
        for i in range(width):
            j = i // GROUP
            local = i % GROUP
            if local == 0:
                c_bit.append(c_group[j])
                cb_bit.append(cb_group[j])
                continue
            lo = j * GROUP
            gen = g[lo:i]
            prop = p[lo:i]
            kil = k[lo:i]
            c_bit.append(
                self._domino_pair(
                    builder, f"cbit{i}",
                    self._carry_legs(gen, prop, upstream=c_group[j]),
                    clk, lblc, clocked=False,
                )
            )
            legs_cb = self._lookahead_legs(kil, prop)
            if cb_group[j] is not None:
                leg = [(net, PinClass.DATA) for net in reversed(prop)]
                leg.append((cb_group[j], PinClass.DATA))
                legs_cb.append(leg)
            else:
                legs_cb.append([(net, PinClass.DATA) for net in reversed(prop)])
            cb_bit.append(
                self._domino_pair(
                    builder, f"cbbit{i}", legs_cb, clk, lblcb, clocked=False,
                )
            )

        # Sum stage: domino XOR of p and the bit carry, then output driver.
        lbls = self._level_labels(builder, "5s", clocked=False)
        pu_out = builder.size("P_out")
        pd_out = builder.size("N_out")
        for i in range(width):
            if c_bit[i] is None:
                # Bit 0: carry-in is 0, so sum = p directly.
                legs = [[(p[i], PinClass.DATA)]]
            else:
                legs = [
                    [(p[i], PinClass.DATA), (cb_bit[i], PinClass.DATA)],
                    [(pb[i], PinClass.DATA), (c_bit[i], PinClass.DATA)],
                ]
            node = builder.wire(f"sum{i}_dyn")
            builder.domino(f"sum{i}_dom", legs, clk, node, lbls[0], lbls[1])
            out = builder.output(f"sum{i}", load=spec.output_load)
            builder.inv(f"sum{i}_drv", node, out, pu_out, pd_out, skew="high")

        cout = builder.output("cout", load=spec.output_load)
        pu_co = builder.size("P_co")
        pd_co = builder.size("N_co")
        cout_b = builder.wire("cout_b")
        builder.inv("cout_inv0", c_super[n_supers], cout_b, pu_co, pd_co)
        builder.inv("cout_inv1", cout_b, cout, pu_out, pd_out)
        return builder.done()


class StaticRippleAdder(MacroGenerator):
    """Static ripple-carry adder: NAND-majority carry, XOR sums."""

    name = "adder/static_ripple"
    macro_type = "adder"
    description = "static ripple-carry adder (NAND majority + XOR)"

    def applicable(self, spec: MacroSpec) -> bool:
        return spec.macro_type == "adder" and spec.width >= 2

    def functional_spec(self, spec: MacroSpec) -> FunctionalSpec:
        return adder_golden_spec(spec.width, has_cin=True)

    def build(self, spec: MacroSpec, tech: Technology) -> Circuit:
        width = spec.width
        group = int(spec.param("label_group", 8))
        builder = MacroBuilder(f"adder{width}_static_ripple", tech)
        a = [builder.input(f"a{i}") for i in range(width)]
        b = [builder.input(f"b{i}") for i in range(width)]
        carry = builder.input("cin")

        def lab(base: str, bit: int) -> str:
            return builder.size(f"{base}g{bit // group}")

        for i in range(width):
            px1, nx1 = lab("PX1", i), lab("NX1", i)
            px2, nx2 = lab("PX2", i), lab("NX2", i)
            half = builder.wire(f"h{i}")
            out = builder.output(f"sum{i}", load=spec.output_load)
            builder.xor(f"hx{i}", a[i], b[i], half, px1, nx1)
            builder.xor(f"sx{i}", half, carry, out, px2, nx2)
            # Majority carry: c' = NAND(NAND(a,b), NAND(a,c), NAND(b,c)).
            pn, nn = lab("PM", i), lab("NM", i)
            pj, nj = lab("PJ", i), lab("NJ", i)
            ab = builder.wire(f"ab{i}")
            ac = builder.wire(f"ac{i}")
            bc = builder.wire(f"bc{i}")
            builder.nand(f"mab{i}", [a[i], b[i]], ab, pn, nn)
            builder.nand(f"mac{i}", [a[i], carry], ac, pn, nn)
            builder.nand(f"mbc{i}", [b[i], carry], bc, pn, nn)
            if i < width - 1:
                nxt = builder.wire(f"c{i + 1}")
            else:
                nxt = builder.output("cout", load=spec.output_load)
            builder.nand(f"mj{i}", [ab, ac, bc], nxt, pj, nj)
            carry = nxt
        return builder.done()


ALL_ADDER_GENERATORS = (
    DualRailDominoCLA(),
    StaticRippleAdder(),
)
