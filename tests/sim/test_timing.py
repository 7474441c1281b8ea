"""Static timing analyzer tests."""

import pytest

from repro.models import Transition
from repro.sim import StaticTimingAnalyzer
from repro.sim.timing import arc_input_transition, stage_arcs


@pytest.fixture
def chain_analyzer(inverter_chain, library):
    return StaticTimingAnalyzer(inverter_chain, library)


WIDTHS = {"P0": 2.0, "N0": 1.0, "P1": 4.0, "N1": 2.0, "P2": 8.0, "N2": 4.0}


class TestAnalyze:
    def test_arrivals_propagate(self, chain_analyzer):
        report = chain_analyzer.analyze(WIDTHS)
        t_mid = report.net_delay("n1")
        t_out = report.net_delay("out")
        assert 0.0 < t_mid < t_out

    def test_both_transitions_present(self, chain_analyzer):
        report = chain_analyzer.analyze(WIDTHS)
        assert report.arrival("out", Transition.RISE) is not None
        assert report.arrival("out", Transition.FALL) is not None

    def test_worst_over_outputs(self, chain_analyzer, inverter_chain):
        report = chain_analyzer.analyze(WIDTHS)
        assert report.worst(inverter_chain.primary_outputs) == report.net_delay("out")

    def test_input_arrival_offsets(self, chain_analyzer):
        base = chain_analyzer.analyze(WIDTHS).net_delay("out")
        shifted = chain_analyzer.analyze(
            WIDTHS, input_arrivals={"in": 100.0}
        ).net_delay("out")
        assert shifted == pytest.approx(base + 100.0, rel=1e-9)

    def test_wider_devices_faster(self, chain_analyzer):
        slow = chain_analyzer.analyze(WIDTHS).net_delay("out")
        fat = {k: 4 * v for k, v in WIDTHS.items()}
        fast = chain_analyzer.analyze(fat).net_delay("out")
        assert fast < slow

    def test_slower_input_slope_slower(self, chain_analyzer):
        fast = chain_analyzer.analyze(WIDTHS, input_slope=10.0).net_delay("out")
        slow = chain_analyzer.analyze(WIDTHS, input_slope=80.0).net_delay("out")
        assert slow > fast

    def test_critical_path_walks_back(self, chain_analyzer):
        report = chain_analyzer.analyze(WIDTHS)
        chain = report.critical_path("out")
        nets = [event.net for event in chain]
        assert nets == ["in", "n1", "n2", "out"]

    def test_domino_clock_launch(self, domino_mux, library):
        analyzer = StaticTimingAnalyzer(domino_mux, library)
        env = domino_mux.size_table.default_env()
        report = analyzer.analyze(env)
        # Dynamic node must see both precharge (rise) and evaluate (fall).
        assert report.arrival("dyn", Transition.RISE) is not None
        assert report.arrival("dyn", Transition.FALL) is not None


class TestNetLoad:
    def test_includes_fanout_and_wire(self, inverter_chain, library):
        analyzer = StaticTimingAnalyzer(inverter_chain, library)
        load = analyzer.net_load("n1", WIDTHS)
        expected_gates = library.tech.c_gate * (WIDTHS["P1"] + WIDTHS["N1"])
        assert load > expected_gates  # plus driver diffusion

    def test_output_includes_external(self, inverter_chain, library):
        analyzer = StaticTimingAnalyzer(inverter_chain, library)
        load = analyzer.net_load("out", WIDTHS)
        assert load >= 10.0  # fixture applies a 10 fF external load... 20 in conftest

    def test_load_posynomial_matches(self, inverter_chain, library):
        analyzer = StaticTimingAnalyzer(inverter_chain, library)
        posy = analyzer.load_posynomial("n1")
        assert posy.evaluate(WIDTHS) == pytest.approx(analyzer.net_load("n1", WIDTHS))


class TestPathDelay:
    def test_path_delay_sums_stages(self, chain_analyzer):
        hops = [
            ("i0", "a", Transition.FALL),
            ("i1", "a", Transition.RISE),
            ("i2", "a", Transition.FALL),
        ]
        total = chain_analyzer.path_delay(hops, WIDTHS)
        partial = chain_analyzer.path_delay(hops[:2], WIDTHS)
        assert total > partial > 0

    def test_path_delay_consistent_with_analyze(self, chain_analyzer):
        hops = [
            ("i0", "a", Transition.FALL),
            ("i1", "a", Transition.RISE),
            ("i2", "a", Transition.FALL),
        ]
        report = chain_analyzer.analyze(WIDTHS)
        measured = chain_analyzer.path_delay(hops, WIDTHS)
        # The chain has a single path per transition; full STA must agree.
        assert measured == pytest.approx(
            report.arrival("out", Transition.FALL).time, rel=1e-6
        )

    def test_net_slopes_only_worsen(self, chain_analyzer):
        hops = [
            ("i0", "a", Transition.FALL),
            ("i1", "a", Transition.RISE),
        ]
        base = chain_analyzer.path_delay(hops, WIDTHS)
        slopes = {("n1", Transition.FALL): 500.0}
        worse = chain_analyzer.path_delay(hops, WIDTHS, net_slopes=slopes)
        assert worse > base


class TestArcs:
    def test_arc_input_transition_inverting(self, inverter_chain):
        stage = inverter_chain.stage("i0")
        pin = stage.pin("a")
        assert arc_input_transition(stage, pin, Transition.RISE) is Transition.FALL

    def test_arc_input_transition_missing(self, domino_mux):
        stage = next(s for s in domino_mux.stages if s.is_dynamic)
        data_pin = stage.data_pins()[0]
        with pytest.raises(KeyError):
            arc_input_transition(stage, data_pin, Transition.RISE)

    def test_select_arcs_launch_both_edges(self, small_mux):
        stage = small_mux.stage("pass0")
        sel = stage.select_pins()[0]
        arcs = stage_arcs(stage, sel)
        outs = {out for _in, out in arcs}
        ins = {i for i, _out in arcs}
        assert outs == {Transition.RISE, Transition.FALL}
        assert ins == {Transition.RISE}
