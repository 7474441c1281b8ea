"""The array-compiled arc program against the posynomial build.

``StaticTimingAnalyzer`` compiles a circuit's arcs straight from the stage
models' ``R·C`` pieces as arrays; the posynomial build
(``reference_arcs.py``: ``ModelLibrary.arc`` plus the Elmore wire term,
read back into an ``ArcProgram``) is the oracle, run on the object-by-object
products of ``tests/posy/reference_posy.py``.  For every registry topology
at widths 2 to 8 with default and per-bit labels, plus wired muxes, a
designer-pinned and a collapse-tied circuit:

* the compiled program has the oracle's monomial index, term ids and
  segment bounds, and bit for bit its coefficients;
* the ``ArcTable.arcs`` view equals the oracle's posynomials term for term
  in insertion order, with the same source nodes;
* point STA agrees with the independent ``ReferenceSTA`` to 1e-12 (at
  each topology's two smallest widths).
"""

import math

import pytest

from repro.macros import MacroSpec, default_database
from repro.models import ModelLibrary, Technology, Transition
from repro.netlist import forget
from repro.sim import StaticTimingAnalyzer
from repro.sizing import RegularityCollapsedSizer

from ..posy.reference_posy import use_reference_products
from .reference_arcs import posynomial_program
from .reference_sta import ReferenceSTA

TECH = Technology()
LIB = ModelLibrary(TECH)
DB = default_database()

WIDTHS = range(2, 9)
LABELINGS = ((), (("label_group", 1),))


def registry_circuits(generator):
    """``generator``'s circuits at every width 2..8 it implements (at its
    smallest width when it implements none of them: the 16-bit
    carry-lookahead adder, the 32-bit comparators), with the default and
    the per-bit labeling."""
    widths = [
        w for w in WIDTHS
        if generator.applicable(MacroSpec(generator.macro_type, w))
    ] or [
        next(
            w for w in (16, 32)
            if generator.applicable(MacroSpec(generator.macro_type, w))
        )
    ]
    return [
        generator.generate(
            MacroSpec(generator.macro_type, width, params=labels), TECH
        )
        for width in widths
        for labels in LABELINGS
    ]


def _pinned():
    circuit = DB.generate("mux/strong_mutex_passgate", MacroSpec("mux", 4), TECH)
    table = circuit.size_table
    for name in table.free_names()[::2]:
        var = table[name]
        table.pin(name, (var.lower * var.upper) ** 0.5)
    return circuit


def _collapse_tied():
    circuit = DB.generate(
        "adder/static_ripple",
        MacroSpec("adder", 8, params=(("label_group", 1),)),
        TECH,
    )
    sizer = RegularityCollapsedSizer(circuit, LIB)
    sizer._tie(sizer.equivalence_classes())
    return circuit


def _wired(topology):
    spec = MacroSpec("mux", 4, output_load=60.0, params=(("wire_res", 0.8),))
    return lambda: DB.generate(topology, spec, TECH)


EXTRA = {
    "pinned": _pinned,
    "collapse-tied": _collapse_tied,
    "wired-passgate": _wired("mux/strong_mutex_passgate"),
    "wired-domino": _wired("mux/unsplit_domino"),
    "wired-tristate": _wired("mux/tristate"),
}

TOPOLOGIES = [generator.name for generator in DB.topologies()]


def _circuits(case):
    if case in EXTRA:
        return [EXTRA[case]()]
    return registry_circuits(DB.generator(case))


def _assert_compiles_like_posynomials(circuit, monkeypatch):
    forget(circuit)
    analyzer = StaticTimingAnalyzer(circuit, LIB)
    program = analyzer.arc_program()
    table = analyzer._lookup()[0]
    use_reference_products(monkeypatch)
    oracle, arcs = posynomial_program(circuit, LIB, program.hops)
    monkeypatch.undo()

    assert program.hops == oracle.hops
    assert program.index.signatures == oracle.index.signatures
    assert program.term_ids.tolist() == oracle.term_ids.tolist()
    assert program.term_coeffs.tobytes() == oracle.term_coeffs.tobytes()
    for name in ("delay_start", "delay_len", "slope_start", "slope_len"):
        assert getattr(program, name).tolist() == getattr(oracle, name).tolist()
    assert program.constant_slot == oracle.constant_slot
    assert program.sources == oracle.sources

    assert list(table.arcs) == program.hops
    for hop, (delay, slope), source in zip(program.hops, arcs, oracle.sources):
        v_delay, v_slope, v_source = table.arcs[hop]
        assert list(v_delay.items()) == list(delay.items()), (circuit.name, hop)
        assert list(v_slope.items()) == list(slope.items()), (circuit.name, hop)
        assert v_source == source


@pytest.mark.parametrize("case", TOPOLOGIES + sorted(EXTRA))
def test_program_equals_posynomial_build(case, monkeypatch):
    for circuit in _circuits(case):
        _assert_compiles_like_posynomials(circuit, monkeypatch)


def test_wired_cases_carry_wire_terms():
    for case in ("wired-passgate", "wired-domino", "wired-tristate"):
        circuit = EXTRA[case]()
        assert any(net.wire_res > 0.0 for net in circuit.nets.values()), case


def test_unknown_hop_is_a_key_error():
    circuit = DB.generate("mux/unsplit_domino", MacroSpec("mux", 4), TECH)
    analyzer = StaticTimingAnalyzer(circuit, LIB)
    stage = next(s for s in circuit.stages if s.is_dynamic)
    data = stage.data_pins()[0]
    with pytest.raises(KeyError):
        analyzer.path_arcs([(stage.name, data.name, Transition.RISE)])


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


@pytest.mark.parametrize("case", TOPOLOGIES + sorted(EXTRA))
def test_sta_matches_reference_to_1e12(case):
    for circuit in _circuits(case)[:4]:
        table = circuit.size_table
        for env in (table.default_env(), table.minimum_env()):
            report = StaticTimingAnalyzer(circuit, LIB).analyze(env)
            expected = ReferenceSTA(circuit, LIB).analyze(env)
            assert set(report.arrivals) == set(expected)
            for node, (time, slope) in expected.items():
                event = report.arrivals[node]
                assert _close(event.time, time), (circuit.name, node)
                assert _close(event.slope, slope), (circuit.name, node)
