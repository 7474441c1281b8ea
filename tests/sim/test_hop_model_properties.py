"""The posynomial hop model pinned to an independent numeric STA.

``ConstraintGenerator.path_delay_posynomial`` (the GP's path delay), the
DFA303 ``IntervalAnalysis`` and ``StaticTimingAnalyzer`` all read the
circuit's arc table (``StaticTimingAnalyzer.arc_posynomials``); the
reference is ``tests/sim/reference_sta.py``, the per-hop walk at float net
loads that shares none of it.  At any sizing in the box the GP posynomial
must evaluate to the reference's chained path delay, and an interval
propagation over the point box must bound every path's delay at its sink
from above.
"""

import functools
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.lint.corpus import WIDTH_GRID
from repro.lint.dataflow.framework import solve_forward
from repro.lint.dataflow.interval import IntervalAnalysis, _sink_nets
from repro.macros import MacroSpec, default_database
from repro.models import ModelLibrary, Technology
from repro.sizing import ConstraintGenerator, DelaySpec, SmartSizer

from .reference_sta import ReferenceSTA

TECH = Technology()
LIB = ModelLibrary(TECH)
DB = default_database()
SPEC = DelaySpec(data=100.0)

#: Paths checked per drawn example (a random sample of the circuit's).
PATHS_PER_EXAMPLE = 12


def _cases():
    """Every registry topology at its smallest grid spec, plus a mux with
    a resistive output wire and the 32-bit comparator."""
    cases = {}
    for macro, width, params in WIDTH_GRID:
        spec = MacroSpec(macro, width, params=params)
        for generator in DB.applicable(spec):
            cases.setdefault(generator.name, spec)
    wired = MacroSpec("mux", 4, params=(("wire_res", 0.8),))
    cases["mux/strong_mutex_passgate wire_res"] = wired
    cases["mux/unsplit_domino wire_res"] = wired
    cases["comparator/xorsum1[32]"] = MacroSpec("comparator", 32)
    return cases


CASES = _cases()


def chains_of(circuit):
    """[(hops, delay posynomial)] over the sizer's pruned paths, each
    expanded into its source-to-sink transition paths."""
    generator = ConstraintGenerator(circuit, LIB, SPEC)
    chains = []
    for path in SmartSizer(circuit, LIB)._extract().paths:
        for hops in generator.transition_paths(path):
            if hops:
                chains.append((hops, generator.path_delay_posynomial(hops)))
    return chains


@functools.lru_cache(maxsize=None)
def corpus_case(label):
    """(circuit, chains_of(circuit)) of one corpus case."""
    circuit = DB.generate(label.split()[0].split("[")[0], CASES[label], TECH)
    return circuit, chains_of(circuit)


def draw_point(data, circuit):
    """A sizing drawn log-uniformly over each free label's box."""
    table = circuit.size_table
    env = {}
    for name in table.free_names():
        var = table[name]
        u = data.draw(st.floats(min_value=0.0, max_value=1.0), label=name)
        env[name] = var.lower * (var.upper / var.lower) ** u
    return env


def draw_chains(data, chains):
    if len(chains) <= PATHS_PER_EXAMPLE:
        return chains
    picks = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(chains) - 1),
            min_size=PATHS_PER_EXAMPLE, max_size=PATHS_PER_EXAMPLE,
            unique=True,
        ),
        label="paths",
    )
    return [chains[i] for i in picks]


def test_cases_cover_every_registry_topology():
    topologies = {label.split()[0].split("[")[0] for label in CASES}
    assert topologies == {g.name for g in DB.topologies()}


@pytest.mark.parametrize("label", sorted(CASES))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_gp_path_delay_equals_sta_path_delay(label, data):
    circuit, chains = corpus_case(label)
    env = draw_point(data, circuit)
    resolved = circuit.size_table.resolve(env)
    reference = ReferenceSTA(circuit, LIB)
    for hops, delay in draw_chains(data, chains):
        measured = reference.path_delay(hops, env, input_slope=SPEC.input_slope)
        assert math.isclose(
            delay.evaluate(resolved), measured, rel_tol=1e-12
        ), (label, hops)


@pytest.mark.parametrize("label", sorted(CASES))
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_point_interval_bounds_every_path_at_its_sink(label, data):
    circuit, chains = corpus_case(label)
    env = draw_point(data, circuit)
    resolved = circuit.size_table.resolve(env)
    analysis = IntervalAnalysis(
        circuit, LIB, SPEC.input_slope,
        lambda name: (resolved[name], resolved[name]),
    )
    values = solve_forward(circuit, analysis).values
    sinks = set(_sink_nets(circuit))
    reference = ReferenceSTA(circuit, LIB)
    checked = 0
    for hops, _delay in draw_chains(data, chains):
        sink = circuit.stage(hops[-1][0]).output.name
        if sink not in sinks:
            continue
        measured = reference.path_delay(hops, env, input_slope=SPEC.input_slope)
        assert values[sink].arr_hi >= measured, (label, hops)
        checked += 1
    assert checked or not chains
