"""Circuit container tests: connectivity, accounting, merging."""

import pytest

from repro.macros.base import MacroBuilder
from repro.models import Technology
from repro.netlist import Circuit, CircuitError, NetKind

TECH = Technology()


def build_chain():
    builder = MacroBuilder("chain", TECH)
    a = builder.input("in")
    mid = builder.wire("mid")
    out = builder.output("out", load=10.0)
    builder.size("P0"), builder.size("N0"), builder.size("P1"), builder.size("N1")
    builder.inv("i0", a, mid, "P0", "N0")
    builder.inv("i1", mid, out, "P1", "N1")
    return builder.done()


class TestConnectivity:
    def test_driver_and_fanout(self):
        c = build_chain()
        assert c.driver_of("mid").name == "i0"
        sinks = [(s.name, p.name) for s, p in c.fanout_of("mid")]
        assert sinks == [("i1", "a")]

    def test_duplicate_stage_name_rejected(self):
        c = build_chain()
        from repro.netlist import Pin, Stage, StageKind

        with pytest.raises(CircuitError):
            c.add_stage(
                Stage(
                    name="i0",
                    kind=StageKind.INV,
                    inputs=[Pin("a", c.net("in"))],
                    output=c.net("out"),
                    size_vars={"pull_up": "P0", "pull_down": "N0"},
                )
            )

    def test_double_drive_rejected(self):
        c = build_chain()
        from repro.netlist import Pin, Stage, StageKind

        with pytest.raises(CircuitError):
            c.add_stage(
                Stage(
                    name="i2",
                    kind=StageKind.INV,
                    inputs=[Pin("a", c.net("in"))],
                    output=c.net("mid"),
                    size_vars={"pull_up": "P0", "pull_down": "N0"},
                )
            )

    def test_topological_order(self):
        c = build_chain()
        names = [s.name for s in c.topological_stages()]
        assert names.index("i0") < names.index("i1")

    def test_loop_detected(self):
        builder = MacroBuilder("loop", TECH)
        a = builder.wire("a")
        b = builder.wire("b")
        builder.size("P"), builder.size("N")
        builder.inv("i0", a, b, "P", "N")
        builder.inv("i1", b, a, "P", "N")
        with pytest.raises(CircuitError):
            builder.done().topological_stages()

    def test_clock_net_registered(self):
        builder = MacroBuilder("clk", TECH)
        builder.clock("clk")
        c = builder.done()
        assert c.clock == "clk"
        assert c.clock_nets() == ["clk"]

    def test_redeclare_net_with_other_kind_rejected(self):
        c = build_chain()
        with pytest.raises(CircuitError):
            c.add_net("mid", NetKind.CLOCK)


class TestAccounting:
    def test_total_width(self):
        c = build_chain()
        widths = {"P0": 2.0, "N0": 1.0, "P1": 4.0, "N1": 2.0}
        assert c.total_width(widths) == pytest.approx(9.0)

    def test_area_posynomial_matches_numeric(self):
        c = build_chain()
        widths = {"P0": 2.0, "N0": 1.0, "P1": 4.0, "N1": 2.0}
        posy = c.area_posynomial()
        assert posy.evaluate(widths) == pytest.approx(c.total_width(widths))

    def test_area_posynomial_with_ratio_labels(self, database, tech):
        from repro.macros import MacroSpec

        mux = database.generate(
            "mux/strong_mutex_passgate", MacroSpec("mux", 4), tech
        )
        env = mux.size_table.default_env()
        assert mux.area_posynomial().evaluate(env) == pytest.approx(
            mux.total_width(env)
        )

    def test_clock_load(self, database, tech):
        from repro.macros import MacroSpec

        mux = database.generate("mux/unsplit_domino", MacroSpec("mux", 4), tech)
        env = mux.size_table.default_env()
        numeric = mux.clock_load_width(env)
        assert numeric > 0.0
        assert mux.clock_load_posynomial().evaluate(env) == pytest.approx(numeric)

    def test_width_totals_expand_once(self, database, tech, monkeypatch):
        """Area and clock load come from one expansion, summed as the
        separate sums would be (bit for bit)."""
        from repro.core.cost import evaluate_cost
        from repro.macros import MacroSpec
        from repro.models import ModelLibrary
        from repro.netlist.circuit import Circuit

        mux = database.generate("mux/unsplit_domino", MacroSpec("mux", 4), tech)
        env = mux.size_table.default_env()
        devices = mux.expand_transistors(env)
        clocks = set(mux.clock_nets())
        expected = (
            sum(t.width for t in devices),
            sum(t.width for t in devices if t.gate in clocks),
        )
        calls = []
        expand = Circuit.expand_transistors

        def counted(circuit, widths):
            calls.append(1)
            return expand(circuit, widths)

        monkeypatch.setattr(Circuit, "expand_transistors", counted)
        assert mux.width_totals(env) == expected
        calls.clear()
        cost = evaluate_cost(mux, ModelLibrary(tech), env)
        assert (cost.area, cost.clock_load) == expected
        assert len(calls) == 1

    def test_clock_load_zero_for_static(self):
        c = build_chain()
        assert c.clock_load_width({"P0": 1, "N0": 1, "P1": 1, "N1": 1}) == 0.0
        assert len(c.clock_load_posynomial()) == 0

    def test_transistor_count(self):
        assert build_chain().transistor_count() == 4

    def test_expand_resolves_free_env(self, database, tech):
        from repro.macros import MacroSpec

        mux = database.generate(
            "mux/strong_mutex_passgate", MacroSpec("mux", 4), tech
        )
        free = mux.size_table.default_env()
        devices = mux.expand_transistors(free)
        assert all(d.width > 0 for d in devices)


class TestMerge:
    def test_merge_prefixes_internals(self):
        top = Circuit("top")
        top.add_net("shared")
        sub = build_chain()
        mapping = top.merge(sub, prefix="u0")
        assert mapping["mid"] == "u0/mid"
        assert "u0/i0" in [s.name for s in top.stages]
        assert "u0/P0" in top.size_table

    def test_merge_shares_existing_boundary_nets(self):
        top = Circuit("top")
        top.add_net("in")
        sub = build_chain()
        mapping = top.merge(sub, prefix="u0")
        assert mapping["in"] == "in"

    def test_merge_preserves_ratio_ties(self, database, tech):
        from repro.macros import MacroSpec

        top = Circuit("top")
        mux = database.generate(
            "mux/strong_mutex_passgate", MacroSpec("mux", 4), tech
        )
        top.merge(mux, prefix="m0")
        tied = top.size_table["m0/N2i"]
        assert tied.ratio_of == ("m0/N2", 0.5)

    def test_merge_twice_distinct_namespaces(self):
        top = Circuit("top")
        top.merge(build_chain(), prefix="a")
        top.merge(build_chain(), prefix="b")
        assert "a/P0" in top.size_table and "b/P0" in top.size_table
        assert len(top.stages) == 4


class TestInputPhases:
    """Primary-input phase declarations feeding ERC101 and the DFA3xx
    dataflow lattices."""

    def test_declare_and_read_back(self):
        c = build_chain()
        c.declare_input_phase("in", "mono_rise")
        assert c.input_phase("in") == "mono_rise"
        assert c.input_phase("mid") is None  # undeclared nets stay None

    def test_unknown_net_rejected(self):
        c = build_chain()
        with pytest.raises(CircuitError, match="unknown net"):
            c.declare_input_phase("nope", "mono_rise")

    def test_unknown_phase_rejected(self):
        c = build_chain()
        with pytest.raises(CircuitError, match="unknown input phase"):
            c.declare_input_phase("in", "rising")

    def test_builder_passthrough(self):
        builder = MacroBuilder("m", TECH)
        builder.input("a", phase="mono_fall")
        builder.input("b")
        c = builder.done()
        assert c.input_phase("a") == "mono_fall"
        assert c.input_phase("b") is None

    def test_merge_maps_and_preserves_declarations(self):
        top = Circuit("top")
        top.add_net("in")
        top.declare_input_phase("in", "steady")
        sub = build_chain()
        sub.declare_input_phase("in", "async")
        top.merge(sub, prefix="u0")
        # Shared boundary net: the existing declaration wins.
        assert top.input_phase("in") == "steady"
        top2 = Circuit("top2")
        sub2 = build_chain()
        sub2.declare_input_phase("in", "async")
        mapping = top2.merge(sub2, prefix="u0")
        assert top2.input_phase(mapping["in"]) == "async"
