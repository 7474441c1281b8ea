"""Per-circuit memos and their one invalidation, ``forget``.

A timing arc table is built once per circuit and shared by every analyzer,
so an in-place edit that did not drop it would leave STA timing the old
circuit.  Each editor is checked the same way: analyze, edit in place,
analyze again with the same analyzer and with a new one, and compare with
a freshly generated circuit that received the same edit.
"""

import gc
import weakref

import pytest

from repro.core.editing import add_keeper, merge_condition_gate, retarget_load
from repro.lint.symbolic.mutate import rebind_pin, swap_pins
from repro.macros import MacroSpec, default_database
from repro.models import ModelLibrary, Technology
from repro.netlist import circuit_memo, forget
from repro.sim import StaticTimingAnalyzer

TECH = Technology()
LIB = ModelLibrary(TECH)
DB = default_database()

#: (topology, width, in-place edit); each edit moves an internal net's load
EDITS = {
    "add_keeper": (
        "mux/unsplit_domino", 4, lambda c: add_keeper(c, "dom", 0.3),
    ),
    "retarget_load": (
        "mux/strong_mutex_passgate", 4, lambda c: retarget_load(c, "out", 90.0),
    ),
    "rebind_pin": (
        "adder/static_ripple", 4, lambda c: rebind_pin(c, "sx1", "in1", "h0"),
    ),
    "swap_pins": (
        "shifter/passgate_barrel", 4,
        lambda c: swap_pins(c, "r1straight0", "d", "s"),
    ),
    "merge_condition_gate": (
        "mux/strong_mutex_passgate", 4,
        lambda c: merge_condition_gate(c, "s0", "nand", ["ca", "cb"], "PC", "NC"),
    ),
}


def _circuit(topology, width):
    return DB.generate(topology, MacroSpec(topology.split("/")[0], width), TECH)


def _timing(report):
    return {
        node: (event.time, event.slope) for node, event in report.arrivals.items()
    }


@pytest.mark.parametrize("name", sorted(EDITS))
def test_in_place_edit_retimes_like_a_fresh_circuit(name):
    topology, width, edit = EDITS[name]
    circuit = _circuit(topology, width)
    analyzer = StaticTimingAnalyzer(circuit, LIB)
    before = _timing(analyzer.analyze(circuit.size_table.default_env()))

    edit(circuit)
    env = circuit.size_table.default_env()
    reused = _timing(analyzer.analyze(env))
    renewed = _timing(StaticTimingAnalyzer(circuit, LIB).analyze(env))

    fresh = _circuit(topology, width)
    edit(fresh)
    expected = _timing(StaticTimingAnalyzer(fresh, LIB).analyze(env))
    assert expected != before, "the edit must change the timing"
    assert reused == expected
    assert renewed == expected


def test_memo_does_not_keep_its_circuit_alive():
    circuit = _circuit("mux/tristate", 4)
    StaticTimingAnalyzer(circuit, LIB).analyze(circuit.size_table.default_env())
    assert circuit_memo(circuit)
    alive = weakref.ref(circuit)
    del circuit
    gc.collect()
    assert alive() is None


def test_forget_drops_every_memo():
    circuit = _circuit("mux/tristate", 4)
    memo = circuit_memo(circuit)
    memo["key"] = 1
    forget(circuit)
    assert circuit_memo(circuit) == {}
    forget(circuit)  # forgetting twice is harmless
