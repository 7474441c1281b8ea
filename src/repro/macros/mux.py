"""Multiplexor macro topologies — the Figure 2 database.

Six topologies, with the paper's default labelings:

====================================  =========================================
Figure 2(a) strongly mutexed N-first  drivers P1/N1, pass gates N2 (select
pass-gate mux                         inverter a fixed relation of N2), output
                                      driver P3/N3
Figure 2(b) weakly mutexed pass-gate  as (a) plus select NOR labeled P4/N4
Figure 2(c) 2-input pass-gate mux     as (a); local select complement P4/N4
with encoded select
Figure 2(d) tri-state mux             tri-states P1/N1 (enable inverter a
                                      fixed relation), output driver P2/N2
Figure 2(e) un-split domino mux       precharge P1, data N1, evaluate N2,
                                      output driver P3/N3 (high skew)
Figure 2(f) (m, N-m) partitioned      top partition P1/N1/N2, bottom P3/N3/N4
domino mux                            (shared when partitions are equal),
                                      output combiner P5/N5
====================================  =========================================
"""

from __future__ import annotations

from functools import lru_cache
import random
from typing import Dict, Tuple

from ..models.technology import Technology
from ..netlist.circuit import Circuit
from ..netlist.funcspec import Env, FunctionalSpec
from ..netlist.nets import PinClass
from .base import MacroBuilder, MacroGenerator, MacroSpec

#: Per-input wire capacitance of the shared merge node, fF (grows with mux
#: width — the physical node gets longer).
MERGE_WIRE_CAP_PER_INPUT = 0.6


@lru_cache(maxsize=None)
def mux_golden_spec(n: int, encoding: str = "onehot") -> FunctionalSpec:
    """The *single* golden mux function: ``out = in[selected index]``.

    Every mux topology in the database — whatever its select encoding or
    circuit family — must prove equivalent to this one reference function
    (SVC401), which is what licenses the advisor to treat the six
    implementations as interchangeable.  ``encoding`` adapts the select
    decode, not the function:

    * ``"onehot"`` — selects ``s0..s{n-1}``, valid iff exactly one is high;
    * ``"onehot_weak"`` — selects ``s0..s{n-2}``, valid iff at most one is
      high (none high routes input ``n-1``, Figure 2(b)'s NOR);
    * ``"encoded"`` — one ``select`` pin, 2-input only.
    """

    def selected(env: Env) -> int:
        if encoding == "encoded":
            return 1 if env["select"] else 0
        for i in range(n - 1 if encoding == "onehot_weak" else n):
            if env[f"s{i}"]:
                return i
        return n - 1  # onehot_weak: NOR term routes the last input

    def out(env: Env) -> bool:
        return bool(env[f"in{selected(env)}"])

    valid = None
    sampler = None
    if encoding == "onehot":

        def valid(env: Env) -> bool:
            return sum(bool(env[f"s{i}"]) for i in range(n)) == 1

        def sampler(rng: random.Random) -> Dict[str, bool]:
            hot = rng.randrange(n)
            env = {f"s{i}": i == hot for i in range(n)}
            env.update({f"in{i}": bool(rng.getrandbits(1)) for i in range(n)})
            return env

    elif encoding == "onehot_weak":

        def valid(env: Env) -> bool:
            return sum(bool(env[f"s{i}"]) for i in range(n - 1)) <= 1

        def sampler(rng: random.Random) -> Dict[str, bool]:
            hot = rng.randrange(n)
            env = {f"s{i}": i == hot for i in range(n - 1)}
            env.update({f"in{i}": bool(rng.getrandbits(1)) for i in range(n)})
            return env

    return FunctionalSpec(
        outputs={"out": out},
        valid=valid,
        sampler=sampler,
        golden="mux",
        notes=f"{n}-input mux, {encoding} selects",
    )


def _mux_io(builder: MacroBuilder, n: int, spec: MacroSpec, n_selects: int):
    data = [builder.input(f"in{i}") for i in range(n)]
    selects = [builder.input(f"s{i}") for i in range(n_selects)]
    # Long-interconnect instances (Section 4's tri-state use case) declare
    # the output wire's lumped resistance via the ``wire_res`` spec param.
    out = builder.output(
        "out",
        load=spec.output_load,
        wire_res=float(spec.param("wire_res", 0.0)),
    )
    return data, selects, out


class StrongMutexPassgateMux(MacroGenerator):
    """Figure 2(a): one-hot selects, N-first pass gates."""

    name = "mux/strong_mutex_passgate"
    macro_type = "mux"
    description = "strongly mutexed N-first pass-gate mux (Fig 2a)"

    def applicable(self, spec: MacroSpec) -> bool:
        return spec.macro_type == "mux" and spec.width >= 2

    def functional_spec(self, spec: MacroSpec) -> FunctionalSpec:
        return mux_golden_spec(spec.width, "onehot")

    def build(self, spec: MacroSpec, tech: Technology) -> Circuit:
        n = spec.width
        builder = MacroBuilder(f"mux{n}_strong_pass", tech)
        data, selects, out = _mux_io(builder, n, spec, n)
        builder.size("P1"), builder.size("N1")
        builder.size("N2")
        builder.size("N2i", ratio_of=("N2", 0.5))
        builder.size("P3"), builder.size("N3")
        merge = builder.wire("merge", wire_cap=MERGE_WIRE_CAP_PER_INPUT * n)
        for i in range(n):
            mid = builder.wire(f"mid{i}")
            builder.inv(f"drv{i}", data[i], mid, "P1", "N1")
            builder.passgate(
                f"pass{i}", mid, selects[i], merge, "N2", "N2i", mutex="strong"
            )
        builder.inv("outdrv", merge, out, "P3", "N3")
        return builder.done()


class WeakMutexPassgateMux(MacroGenerator):
    """Figure 2(b): selects not guaranteed one-hot; the last select is the
    NOR of the others, adding select-to-output delay."""

    name = "mux/weak_mutex_passgate"
    macro_type = "mux"
    description = "weakly mutexed N-first pass-gate mux (Fig 2b)"

    def applicable(self, spec: MacroSpec) -> bool:
        return spec.macro_type == "mux" and spec.width >= 3

    def functional_spec(self, spec: MacroSpec) -> FunctionalSpec:
        return mux_golden_spec(spec.width, "onehot_weak")

    def build(self, spec: MacroSpec, tech: Technology) -> Circuit:
        n = spec.width
        builder = MacroBuilder(f"mux{n}_weak_pass", tech)
        data, selects, out = _mux_io(builder, n, spec, n - 1)
        builder.size("P1"), builder.size("N1")
        builder.size("N2")
        builder.size("N2i", ratio_of=("N2", 0.5))
        builder.size("P3"), builder.size("N3")
        builder.size("P4"), builder.size("N4")
        merge = builder.wire("merge", wire_cap=MERGE_WIRE_CAP_PER_INPUT * n)
        last_sel = builder.wire("slast")
        builder.nor("selnor", selects, last_sel, "P4", "N4")
        all_selects = list(selects) + [last_sel]
        for i in range(n):
            mid = builder.wire(f"mid{i}")
            builder.inv(f"drv{i}", data[i], mid, "P1", "N1")
            builder.passgate(
                f"pass{i}", mid, all_selects[i], merge, "N2", "N2i", mutex="weak"
            )
        builder.inv("outdrv", merge, out, "P3", "N3")
        return builder.done()


class EncodedSelectMux2(MacroGenerator):
    """Figure 2(c): 2-input pass-gate mux steered by one encoded select (a
    local complement inverter, no mutex-forcing NOR in the select path)."""

    name = "mux/encoded_select_2to1"
    macro_type = "mux"
    description = "2-input pass-gate mux with encoded select (Fig 2c)"

    def applicable(self, spec: MacroSpec) -> bool:
        return spec.macro_type == "mux" and spec.width == 2

    def functional_spec(self, spec: MacroSpec) -> FunctionalSpec:
        return mux_golden_spec(2, "encoded")

    def build(self, spec: MacroSpec, tech: Technology) -> Circuit:
        builder = MacroBuilder("mux2_encoded_pass", tech)
        data = [builder.input("in0"), builder.input("in1")]
        select = builder.input("select")
        out = builder.output("out", load=spec.output_load)
        builder.size("P1"), builder.size("N1")
        builder.size("N2")
        builder.size("N2i", ratio_of=("N2", 0.5))
        builder.size("P3"), builder.size("N3")
        builder.size("P4"), builder.size("N4")
        merge = builder.wire("merge", wire_cap=MERGE_WIRE_CAP_PER_INPUT * 2)
        sel_b = builder.wire("selb")
        builder.inv("selinv", select, sel_b, "P4", "N4")
        for i, sel_net in enumerate((sel_b, select)):
            mid = builder.wire(f"mid{i}")
            builder.inv(f"drv{i}", data[i], mid, "P1", "N1")
            builder.passgate(
                f"pass{i}", mid, sel_net, merge, "N2", "N2i", mutex="encoded"
            )
        builder.inv("outdrv", merge, out, "P3", "N3")
        return builder.done()


class TristateMux(MacroGenerator):
    """Figure 2(d): tri-state drivers onto a shared node — "used when the
    load to be driven is very large or when the input signals travel over
    long interconnects"."""

    name = "mux/tristate"
    macro_type = "mux"
    description = "tri-state mux (Fig 2d)"

    def applicable(self, spec: MacroSpec) -> bool:
        return spec.macro_type == "mux" and spec.width >= 2

    def functional_spec(self, spec: MacroSpec) -> FunctionalSpec:
        return mux_golden_spec(spec.width, "onehot")

    def build(self, spec: MacroSpec, tech: Technology) -> Circuit:
        n = spec.width
        builder = MacroBuilder(f"mux{n}_tristate", tech)
        data, selects, out = _mux_io(builder, n, spec, n)
        builder.size("P1"), builder.size("N1")
        builder.size("P2"), builder.size("N2")
        merge = builder.wire("merge", wire_cap=MERGE_WIRE_CAP_PER_INPUT * n)
        for i in range(n):
            builder.tristate(f"tri{i}", data[i], selects[i], merge, "P1", "N1")
        builder.inv("outdrv", merge, out, "P2", "N2")
        return builder.done()


class UnsplitDominoMux(MacroGenerator):
    """Figure 2(e): all product terms on a single domino node.  "The clock
    power is an important design metric in the selection of this topology."""

    name = "mux/unsplit_domino"
    macro_type = "mux"
    description = "Nx1 un-split domino mux (Fig 2e)"

    def applicable(self, spec: MacroSpec) -> bool:
        return spec.macro_type == "mux" and spec.width >= 2

    def functional_spec(self, spec: MacroSpec) -> FunctionalSpec:
        return mux_golden_spec(spec.width, "onehot")

    def build(self, spec: MacroSpec, tech: Technology) -> Circuit:
        n = spec.width
        builder = MacroBuilder(f"mux{n}_unsplit_domino", tech)
        data, selects, out = _mux_io(builder, n, spec, n)
        clk = builder.clock()
        builder.size("P1")
        builder.size("N1")
        builder.size("N2")
        builder.size("P3"), builder.size("N3")
        node = builder.wire("dyn", wire_cap=MERGE_WIRE_CAP_PER_INPUT * n)
        legs = [
            [(selects[i], PinClass.SELECT), (data[i], PinClass.DATA)]
            for i in range(n)
        ]
        builder.domino("dom", legs, clk, node, "P1", "N1", evaluate="N2")
        builder.inv("outdrv", node, out, "P3", "N3", skew="high")
        return builder.done()


class PartitionedDominoMux(MacroGenerator):
    """Figure 2(f): the node is split into (m, N-m) partitions — "typically
    better than (e) in terms of area and power when the size of the mux is
    large.  A good choice of m is m = floor(n/2)".  Equal partitions share
    labels; unequal partitions are labeled separately, per the paper."""

    name = "mux/partitioned_domino"
    macro_type = "mux"
    description = "(m, N-m) partitioned domino mux (Fig 2f)"

    def applicable(self, spec: MacroSpec) -> bool:
        return spec.macro_type == "mux" and spec.width >= 4

    def functional_spec(self, spec: MacroSpec) -> FunctionalSpec:
        return mux_golden_spec(spec.width, "onehot")

    def build(self, spec: MacroSpec, tech: Technology) -> Circuit:
        n = spec.width
        m = int(spec.param("partition", n // 2))
        if not 1 <= m < n:
            raise ValueError(f"partition size {m} invalid for {n}-input mux")
        builder = MacroBuilder(f"mux{n}_part{m}_domino", tech)
        data, selects, out = _mux_io(builder, n, spec, n)
        clk = builder.clock()
        builder.size("P1"), builder.size("N1"), builder.size("N2")
        equal = (m == n - m)
        if equal:
            top_labels = bottom_labels = ("P1", "N1", "N2")
        else:
            builder.size("P3"), builder.size("N3"), builder.size("N4")
            top_labels = ("P1", "N1", "N2")
            bottom_labels = ("P3", "N3", "N4")
        builder.size("P5"), builder.size("N5")

        node_top = builder.wire("dyn_top", wire_cap=MERGE_WIRE_CAP_PER_INPUT * m)
        node_bot = builder.wire(
            "dyn_bot", wire_cap=MERGE_WIRE_CAP_PER_INPUT * (n - m)
        )
        legs_top = [
            [(selects[i], PinClass.SELECT), (data[i], PinClass.DATA)]
            for i in range(m)
        ]
        legs_bot = [
            [(selects[i], PinClass.SELECT), (data[i], PinClass.DATA)]
            for i in range(m, n)
        ]
        builder.domino(
            "dom_top", legs_top, clk, node_top,
            top_labels[0], top_labels[1], evaluate=top_labels[2],
        )
        builder.domino(
            "dom_bot", legs_bot, clk, node_bot,
            bottom_labels[0], bottom_labels[1], evaluate=bottom_labels[2],
        )
        # Both dynamic nodes precharge high; at most one falls, so a NAND2
        # recovers the selected data (OR of the two partitions' terms).
        builder.nand("combine", [node_top, node_bot], out, "P5", "N5")
        return builder.done()


ALL_MUX_GENERATORS: Tuple[MacroGenerator, ...] = (
    StrongMutexPassgateMux(),
    WeakMutexPassgateMux(),
    EncodedSelectMux2(),
    TristateMux(),
    UnsplitDominoMux(),
    PartitionedDominoMux(),
)
