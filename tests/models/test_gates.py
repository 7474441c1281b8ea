"""Model library tests: posynomiality, monotonicity, family-specific arcs."""

import pytest

from repro.models import ModelLibrary, ModelError, Technology, Transition
from repro.models.gates import SLOPE_LEAK
from repro.netlist import (
    Circuit, Net, NetKind, Pin, PinClass, SizeTable, Stage, StageKind,
)
from repro.posy import as_posynomial, is_posynomial_in
from repro.sim.timing import StaticTimingAnalyzer, stage_arcs

TECH = Technology()
LIB = ModelLibrary(TECH)


def _outputs(stage, pin):
    """Output transitions of the STA arcs through ``pin``."""
    return [out for _in, out in stage_arcs(stage, pin)]


def _table(*names):
    table = SizeTable()
    for name in names:
        table.declare(name)
    return table


def _inv(skew=None):
    return Stage(
        name="i",
        kind=StageKind.INV,
        inputs=[Pin("a", Net("in"))],
        output=Net("out"),
        size_vars={"pull_up": "P", "pull_down": "N"},
        params={"skew": skew} if skew else {},
    )


def _nand(n=2):
    return Stage(
        name="g",
        kind=StageKind.NAND,
        inputs=[Pin(f"in{i}", Net(f"a{i}")) for i in range(n)],
        output=Net("out"),
        size_vars={"pull_up": "P", "pull_down": "N"},
    )


def _passgate():
    return Stage(
        name="p",
        kind=StageKind.PASSGATE,
        inputs=[
            Pin("d", Net("d"), PinClass.DATA),
            Pin("s", Net("s"), PinClass.SELECT),
        ],
        output=Net("out"),
        size_vars={"pass": "W", "sel_inv": "Wi"},
    )


def _domino(clocked=True):
    size_vars = {"precharge": "P", "data": "N"}
    if clocked:
        size_vars["evaluate"] = "E"
    return Stage(
        name="d",
        kind=StageKind.DOMINO,
        inputs=[
            Pin("clk", Net("clk", NetKind.CLOCK), PinClass.CLOCK),
            Pin("l0s0", Net("a"), PinClass.DATA),
        ],
        output=Net("dyn"),
        size_vars=size_vars,
        params={"clocked": clocked, "leg_series": 1, "legs": 1},
    )


LOAD = as_posynomial(20.0)


def _analyzer(stage, table):
    """A timing analyzer over a one-stage circuit around ``stage``."""
    circuit = Circuit(stage.name)
    circuit.size_table = table
    for net in [pin.net for pin in stage.inputs] + [stage.output]:
        circuit.nets[net.name] = net
    circuit.add_stage(stage)
    return StaticTimingAnalyzer(circuit, LIB)


class TestPosynomiality:
    def test_static_delay_is_posynomial(self):
        table = _table("P", "N")
        d = LIB.delay(_inv(), _inv().inputs[0], Transition.RISE, LOAD, table)
        assert is_posynomial_in(d, {"P", "N"})

    def test_all_kind_templates_posynomial(self):
        cases = [
            (_inv(), _table("P", "N")),
            (_nand(3), _table("P", "N")),
            (_passgate(), _table("W", "Wi")),
            (_domino(), _table("P", "N", "E")),
        ]
        for stage, table in cases:
            for pin in stage.inputs:
                analyzer = _analyzer(stage, table)
                for trans in _outputs(stage, pin):
                    d = LIB.delay(stage, pin, trans, LOAD, table)
                    s = LIB.output_slope(stage, pin, trans, LOAD, table)
                    assert is_posynomial_in(d, table.names())
                    assert is_posynomial_in(s, table.names())
                    # The arc (own diffusion in the load) entered with a
                    # 10 ps input slope, through the hop rule.
                    d, s = analyzer.arc_posynomials(stage, pin, trans)
                    d = d + TECH.slope_sensitivity * 10.0
                    s = s + SLOPE_LEAK * 10.0
                    assert is_posynomial_in(d, table.names())
                    assert is_posynomial_in(s, table.names())

    def test_input_cap_posynomial(self):
        stage, table = _passgate(), _table("W", "Wi")
        for pin in stage.inputs:
            assert is_posynomial_in(LIB.input_cap(stage, pin, table), {"W", "Wi"})


class TestMonotonicity:
    def test_delay_decreases_with_width(self):
        table = _table("P", "N")
        stage = _inv()
        d = LIB.delay(stage, stage.inputs[0], Transition.FALL, LOAD, table)
        small = d.evaluate({"P": 1.0, "N": 1.0})
        big = d.evaluate({"P": 1.0, "N": 4.0})
        assert big < small

    def test_delay_increases_with_load(self):
        table = _table("P", "N")
        stage = _inv()
        env = {"P": 2.0, "N": 1.0}
        d_small = LIB.delay(stage, stage.inputs[0], Transition.FALL,
                            as_posynomial(5.0), table).evaluate(env)
        d_big = LIB.delay(stage, stage.inputs[0], Transition.FALL,
                          as_posynomial(50.0), table).evaluate(env)
        assert d_big > d_small

    def test_slope_term_additive(self):
        table = _table("P", "N")
        stage = _inv()
        env = {"P": 2.0, "N": 1.0}
        analyzer = _analyzer(stage, table)
        hop = [(stage.name, stage.inputs[0].name, Transition.FALL)]
        base = analyzer.path_delay(hop, env, input_slope=0.0)
        slow = analyzer.path_delay(hop, env, input_slope=40.0)
        assert slow == pytest.approx(base + TECH.slope_sensitivity * 40.0)
        delay, _slope = analyzer.arc_posynomials(
            stage, stage.inputs[0], Transition.FALL
        )
        assert base == pytest.approx(delay.evaluate(env))

    def test_stack_penalty(self):
        table = _table("P", "N")
        env = {"P": 2.0, "N": 2.0}
        d2 = LIB.delay(_nand(2), _nand(2).inputs[0], Transition.FALL, LOAD,
                       table).evaluate(env)
        d4 = LIB.delay(_nand(4), _nand(4).inputs[0], Transition.FALL, LOAD,
                       table).evaluate(env)
        assert d4 > d2

    def test_high_skew_speeds_rise(self):
        table = _table("P", "N")
        env = {"P": 2.0, "N": 1.0}
        plain = LIB.delay(_inv(), _inv().inputs[0], Transition.RISE, LOAD,
                          table).evaluate(env)
        skewed_stage = _inv(skew="high")
        skewed = LIB.delay(skewed_stage, skewed_stage.inputs[0], Transition.RISE,
                           LOAD, table).evaluate(env)
        assert skewed == pytest.approx(plain * TECH.skew_speedup)


class TestFamilyArcs:
    def test_static_has_both_arcs(self):
        stage = _inv()
        assert set(_outputs(stage, stage.inputs[0])) == {
            Transition.RISE,
            Transition.FALL,
        }

    def test_domino_data_only_falls(self):
        stage = _domino()
        data_pin = stage.inputs[1]
        assert _outputs(stage, data_pin) == [Transition.FALL]

    def test_domino_clock_arcs_d1_vs_d2(self):
        d1 = _domino(clocked=True)
        d2 = _domino(clocked=False)
        assert set(_outputs(d1, d1.inputs[0])) == {Transition.RISE, Transition.FALL}
        assert _outputs(d2, d2.inputs[0]) == [Transition.RISE]

    def test_domino_rise_from_data_rejected(self):
        stage = _domino()
        with pytest.raises(ModelError):
            LIB.delay(stage, stage.inputs[1], Transition.RISE, LOAD,
                      _table("P", "N", "E"))

    def test_domino_eval_includes_foot(self):
        table = _table("P", "N", "E")
        stage = _domino(clocked=True)
        env_fat_foot = {"P": 1.0, "N": 2.0, "E": 100.0}
        env_thin_foot = {"P": 1.0, "N": 2.0, "E": 0.5}
        pin = stage.inputs[1]
        fat = LIB.delay(stage, pin, Transition.FALL, LOAD, table).evaluate(env_fat_foot)
        thin = LIB.delay(stage, pin, Transition.FALL, LOAD, table).evaluate(env_thin_foot)
        assert thin > fat

    def test_select_pin_adds_inverter_delay(self):
        table = _table("W", "Wi")
        stage = _passgate()
        env = {"W": 2.0, "Wi": 1.0}
        d_data = LIB.delay(stage, stage.pin("d"), Transition.RISE, LOAD,
                           table).evaluate(env)
        d_sel = LIB.delay(stage, stage.pin("s"), Transition.RISE, LOAD,
                          table).evaluate(env)
        assert d_sel > d_data

    def test_passgate_data_cap_is_diffusion(self):
        table = _table("W", "Wi")
        stage = _passgate()
        cap = LIB.input_cap(stage, stage.pin("d"), table).evaluate({"W": 3.0, "Wi": 1.0})
        assert cap == pytest.approx(2.0 * TECH.c_diff * 3.0)

    def test_unregistered_kind_rejected(self):
        lib = ModelLibrary(TECH)
        lib._models.pop(StageKind.INV)
        with pytest.raises(ModelError):
            lib.model(_inv())

    def test_register_custom_model(self):
        from repro.models import StageModel

        lib = ModelLibrary(TECH)

        class NullModel(StageModel):
            pass

        lib.register(StageKind.INV, NullModel(TECH))
        assert isinstance(lib.model(_inv()), NullModel)
