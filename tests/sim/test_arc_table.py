"""The shared arc table against the independent reference STA.

``StaticTimingAnalyzer`` evaluates each arc's compiled ``(delay, slope)``
posynomials once per sizing and walks the graph with the hop rule; the
reference (``reference_sta.py``) rebuilds every hop at float loads.  Over
the hop-model corpus, plus a circuit with designer-pinned labels and one
under regularity-collapse ties, arrivals, slopes and path delays (with and
without recorded net slopes) must agree to 1e-9 relative.  The GP's linear
``path_delay_posynomial`` must equal the hop-by-hop chained sum term for
term.
"""

import functools
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.macros import MacroSpec
from repro.models.gates import SLOPE_LEAK
from repro.netlist.nets import NetKind
from repro.posy import Posynomial
from repro.sim import StaticTimingAnalyzer
from repro.sim.timing import stage_arcs
from repro.sizing import ConstraintGenerator, RegularityCollapsedSizer

from .reference_sta import ReferenceSTA
from .test_hop_model_properties import (
    CASES,
    DB,
    LIB,
    SPEC,
    TECH,
    chains_of,
    corpus_case,
    draw_chains,
    draw_point,
)

REL = 1e-9


def _pinned():
    """A pass-gate mux with every other free label pinned by the designer."""
    circuit = DB.generate("mux/strong_mutex_passgate", MacroSpec("mux", 4), TECH)
    table = circuit.size_table
    for name in table.free_names()[::2]:
        var = table[name]
        table.pin(name, (var.lower * var.upper) ** 0.5)
    return circuit


def _collapse_tied():
    """A per-bit 8-bit ripple adder with collapse's ratio ties installed
    (left in place: the circuit belongs to this module)."""
    circuit = DB.generate(
        "adder/static_ripple",
        MacroSpec("adder", 8, params=(("label_group", 1),)),
        TECH,
    )
    sizer = RegularityCollapsedSizer(circuit, LIB)
    sizer._tie(sizer.equivalence_classes())
    return circuit


EXTRA = {"pinned": _pinned, "collapse-tied": _collapse_tied}


@functools.lru_cache(maxsize=None)
def _case(label):
    if label in EXTRA:
        circuit = EXTRA[label]()
        return circuit, chains_of(circuit)
    return corpus_case(label)


def _close(a, b):
    return math.isclose(a, b, rel_tol=REL, abs_tol=1e-12)


@pytest.mark.parametrize("label", sorted(CASES) + sorted(EXTRA))
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_sta_matches_reference(label, data):
    circuit, chains = _case(label)
    env = draw_point(data, circuit)
    analyzer = StaticTimingAnalyzer(circuit, LIB)
    reference = ReferenceSTA(circuit, LIB)

    report = analyzer.analyze(env, input_slope=SPEC.input_slope)
    expected = reference.analyze(env, input_slope=SPEC.input_slope)
    assert set(report.arrivals) == set(expected)
    for node, (time, slope) in expected.items():
        event = report.arrivals[node]
        assert _close(event.time, time), (label, node)
        assert _close(event.slope, slope), (label, node)

    slopes = {node: event.slope for node, event in report.arrivals.items()}
    for hops, _delay in draw_chains(data, chains):
        for net_slopes in (None, slopes):
            measured = analyzer.path_delay(
                hops, env, input_slope=SPEC.input_slope, net_slopes=net_slopes
            )
            oracle = reference.path_delay(
                hops, env, input_slope=SPEC.input_slope, net_slopes=net_slopes
            )
            assert _close(measured, oracle), (label, hops, net_slopes is None)


def _chained(generator, hops):
    """The hop-by-hop chained path delay the linear form replaces."""
    sens = LIB.tech.slope_sensitivity
    start = SPEC.input_slope
    first = generator.circuit.stage(hops[0][0]).pin(hops[0][1])
    if first.net.kind is NetKind.CLOCK:
        start *= 0.5
    total = Posynomial.zero()
    slope = Posynomial.from_terms([start])
    for stage_name, pin_name, out_trans in hops:
        stage = generator.circuit.stage(stage_name)
        delay, out_slope = generator.analyzer.arc_posynomials(
            stage, stage.pin(pin_name), out_trans
        )
        total = total + delay + sens * slope
        slope = out_slope + SLOPE_LEAK * slope
    return total


def _coefficients(posy):
    return {term.signature: term.coefficient for term in posy.terms}


@pytest.mark.parametrize("label", sorted(CASES) + sorted(EXTRA))
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_linear_path_posynomial_equals_chained(label, data):
    circuit, chains = _case(label)
    generator = ConstraintGenerator(circuit, LIB, SPEC)
    for hops, delay in draw_chains(data, chains):
        linear = _coefficients(delay)
        chained = _coefficients(_chained(generator, hops))
        assert set(linear) == set(chained), (label, hops)
        for sig, coeff in chained.items():
            assert math.isclose(linear[sig], coeff, rel_tol=1e-12), (label, sig)


def test_analyzers_share_one_table_per_size_table_state():
    circuit = DB.generate("mux/unsplit_domino", MacroSpec("mux", 4), TECH)
    stage = circuit.stages[0]
    pin = stage.inputs[0]
    _in_trans, trans = stage_arcs(stage, pin)[0]
    first = StaticTimingAnalyzer(circuit, LIB).arc_posynomials(stage, pin, trans)
    second = StaticTimingAnalyzer(circuit, LIB).arc_posynomials(stage, pin, trans)
    assert first[0] is second[0] and first[1] is second[1]

    label = circuit.size_table.free_names()[0]
    circuit.size_table.pin(label, 1.0)
    pinned = StaticTimingAnalyzer(circuit, LIB).arc_posynomials(stage, pin, trans)
    circuit.size_table.unpin(label)
    again = StaticTimingAnalyzer(circuit, LIB).arc_posynomials(stage, pin, trans)
    assert again[0] is first[0]
    assert pinned[0] is not first[0]
