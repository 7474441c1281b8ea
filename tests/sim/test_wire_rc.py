"""Interconnect (wire RC) modeling tests.

Section 4 motivates the tri-state mux for loads "over long inter-connects";
these tests cover the Elmore wire term in STA, constraints and the sizer.
"""

import pytest

from repro.macros import MacroSpec
from repro.macros.base import MacroBuilder
from repro.models import ModelLibrary, Technology, Transition
from repro.sim import StaticTimingAnalyzer
from repro.sizing import DelaySpec, SmartSizer
from repro.sizing.engine import nominal_delay

from .reference_sta import ReferenceSTA

TECH = Technology()
LIB = ModelLibrary(TECH)


def _wire_chain(wire_res: float):
    builder = MacroBuilder("wired", TECH)
    a = builder.input("in")
    mid = builder.wire("mid", wire_cap=10.0, wire_res=wire_res)
    out = builder.output("out", load=20.0)
    builder.size("P0"), builder.size("N0"), builder.size("P1"), builder.size("N1")
    builder.inv("i0", a, mid, "P0", "N0")
    builder.inv("i1", mid, out, "P1", "N1")
    return builder.done()


WIDTHS = {"P0": 4.0, "N0": 2.0, "P1": 4.0, "N1": 2.0}


class TestSTAWireTerm:
    def test_wire_resistance_slows(self):
        short = _wire_chain(0.0)
        long = _wire_chain(2.0)
        t_short = StaticTimingAnalyzer(short, LIB).analyze(WIDTHS).worst(["out"])
        t_long = StaticTimingAnalyzer(long, LIB).analyze(WIDTHS).worst(["out"])
        assert t_long > t_short

    def test_wire_delay_value(self):
        """The arc carries the Elmore wire term ``ln2 · R_wire · C_far`` on
        top of the wireless arc (and ``slope_gain · R_wire · C_far`` on its
        slope)."""
        wired = StaticTimingAnalyzer(_wire_chain(2.0), LIB)
        plain = StaticTimingAnalyzer(_wire_chain(0.0), LIB)
        far = wired.far_cap_posynomial("mid").evaluate(WIDTHS)
        stage = wired.circuit.stage("i0")
        for trans in Transition:
            d_wired, s_wired = wired.arc_posynomials(stage, stage.inputs[0], trans)
            d_plain, s_plain = plain.arc_posynomials(stage, stage.inputs[0], trans)
            expected = 0.6931471805599453 * 2.0 * far
            assert d_wired.evaluate(WIDTHS) - d_plain.evaluate(WIDTHS) == (
                pytest.approx(expected)
            )
            assert s_wired.evaluate(WIDTHS) - s_plain.evaluate(WIDTHS) == (
                pytest.approx(TECH.slope_gain * 2.0 * far)
            )

    def test_far_cap_excludes_driver_diffusion(self):
        circuit = _wire_chain(2.0)
        analyzer = StaticTimingAnalyzer(circuit, LIB)
        far = analyzer.far_cap_posynomial("mid").evaluate(WIDTHS)
        total = analyzer.net_load("mid", WIDTHS)
        assert far < total  # no driver parasitic, half the wire cap

    def test_far_cap_posynomial_matches(self):
        circuit = _wire_chain(2.0)
        analyzer = StaticTimingAnalyzer(circuit, LIB)
        posy = analyzer.far_cap_posynomial("mid")
        net = circuit.net("mid")
        numeric = net.external_load + net.wire_cap / 2.0 + sum(
            LIB.input_cap(stage, pin, circuit.size_table).evaluate(WIDTHS)
            for stage, pin in circuit.fanout_of("mid")
        )
        assert posy.evaluate(WIDTHS) == pytest.approx(numeric)

    def test_negative_resistance_rejected(self):
        from repro.netlist import Net

        with pytest.raises(ValueError):
            Net("w", wire_res=-1.0)


#: The long-interconnect mux instances of :class:`TestTopologyChoice`.
WIRED_MUXES = ("mux/strong_mutex_passgate", "mux/tristate")


class CountingLibrary(ModelLibrary):
    """Counts ``input_cap`` builds per (stage, pin)."""

    def __init__(self, tech):
        super().__init__(tech)
        self.input_caps = {}

    def input_cap(self, stage, pin, table):
        key = (stage.name, pin.name)
        self.input_caps[key] = self.input_caps.get(key, 0) + 1
        return super().input_cap(stage, pin, table)


class TestFarCapMemo:
    """Each wired net's far-side capacitance is built once per arc table
    and shared by every arc that drives the net."""

    @pytest.mark.parametrize("topology", WIRED_MUXES)
    def test_wired_mux_matches_reference(self, database, topology):
        spec = MacroSpec("mux", 4, output_load=120.0, params=(("wire_res", 1.0),))
        circuit = database.generate(topology, spec, TECH)
        assert any(net.wire_res > 0.0 for net in circuit.nets.values())
        env = circuit.size_table.default_env()
        report = StaticTimingAnalyzer(circuit, LIB).analyze(env)
        expected = ReferenceSTA(circuit, LIB).analyze(env)
        assert set(report.arrivals) == set(expected)
        for node, (time, slope) in expected.items():
            event = report.arrivals[node]
            assert event.time == pytest.approx(time, rel=1e-9), node
            assert event.slope == pytest.approx(slope, rel=1e-9), node

    def test_wire_chain_matches_reference(self):
        circuit = _wire_chain(2.0)
        report = StaticTimingAnalyzer(circuit, LIB).analyze(WIDTHS)
        for node, (time, slope) in ReferenceSTA(circuit, LIB).analyze(WIDTHS).items():
            assert report.arrivals[node].time == pytest.approx(time, rel=1e-9)
            assert report.arrivals[node].slope == pytest.approx(slope, rel=1e-9)

    def test_far_cap_built_once_per_table(self):
        circuit = _wire_chain(2.0)
        library = CountingLibrary(TECH)
        driver = circuit.stage("i0")
        hops = [("i0", driver.inputs[0].name, trans) for trans in Transition]
        analyzer = StaticTimingAnalyzer(circuit, library)
        analyzer.path_arcs(hops)
        StaticTimingAnalyzer(circuit, library).path_arcs(hops)
        # Two arcs drive the wired net; its one fanout pin is costed once
        # for the net load and once for the far-side capacitance.
        assert library.input_caps == {("i1", "a"): 2}
        far = analyzer.far_cap_posynomial("mid")
        assert far is analyzer.far_cap_posynomial("mid")
        assert library.input_caps == {("i1", "a"): 2}


class TestSizerWithWires:
    def test_wired_circuit_sizes(self):
        circuit = _wire_chain(2.0)
        budget = nominal_delay(circuit, LIB)
        result = SmartSizer(circuit, LIB).size(DelaySpec(data=budget))
        assert result.converged

    def test_wire_delay_is_irreducible(self):
        """No sizing can beat the raw wire Elmore delay floor."""
        circuit = _wire_chain(8.0)
        floor = 0.6931471805599453 * 8.0 * 20.0 * 0.3  # rough: wire x gates
        budget = nominal_delay(circuit, LIB)
        result = SmartSizer(circuit, LIB).size(DelaySpec(data=budget))
        worst = max(result.realized.values())
        assert worst > floor

    def test_gp_sees_wire_term(self):
        """Same budget: the wired circuit needs more area than the unwired
        one (the wire eats delay budget the transistors must buy back)."""
        short = _wire_chain(0.0)
        long = _wire_chain(3.0)
        budget = 0.95 * nominal_delay(long, LIB)
        a_long = SmartSizer(long, LIB).size(DelaySpec(data=budget)).area
        a_short = SmartSizer(short, LIB).size(DelaySpec(data=budget)).area
        assert a_long > a_short


class TestTopologyChoice:
    def test_advisor_handles_long_wire_instances(self, database):
        """Exploration over a long-interconnect instance (the Section-4
        tri-state use case): both topologies size against the wire's Elmore
        term, the wire makes both more expensive, and a recommendation comes
        back.  (A remote receiver tolerates a slower far-end edge, hence the
        relaxed output slope.)"""
        from repro import DesignConstraints, SmartAdvisor

        advisor = SmartAdvisor(database=database, library=LIB)
        topologies = ["mux/strong_mutex_passgate", "mux/tristate"]
        constraints = DesignConstraints(
            delay=700.0, cost="area", max_output_slope=400.0
        )

        short_spec = MacroSpec("mux", 4, output_load=120.0)
        long_spec = MacroSpec(
            "mux", 4, output_load=120.0, params=(("wire_res", 1.0),)
        )
        short = advisor.advise(short_spec, constraints, topologies=topologies)
        long = advisor.advise(long_spec, constraints, topologies=topologies)
        assert long.best is not None

        short_costs = {
            c.topology: c.cost.area for c in short.feasible
        }
        long_costs = {
            c.topology: c.cost.area for c in long.feasible
        }
        for topology in long_costs:
            if topology in short_costs:
                assert long_costs[topology] > short_costs[topology]
