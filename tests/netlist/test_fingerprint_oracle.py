"""The sizing fingerprint derived from the facet payloads against the
one-record oracle in ``reference_fingerprint.py``: byte-identical on every
clean-corpus circuit and after one random edit of one, so every stored
sizing key, certificate and contract keeps hitting."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lint.corpus import WIDTH_GRID, corpus_circuits
from repro.lint.symbolic.mutate import rebind_pin, swap_pins
from repro.macros import MacroSpec, default_database
from repro.netlist.circuit import INPUT_PHASES
from repro.netlist.fingerprint import circuit_fingerprint, circuit_payload
from repro.netlist.memo import forget

from .reference_fingerprint import (
    reference_circuit_fingerprint,
    reference_circuit_payload,
)


def _assert_matches_oracle(circuit, label):
    assert circuit_payload(circuit) == reference_circuit_payload(circuit), label
    assert circuit_fingerprint(circuit) == reference_circuit_fingerprint(
        circuit
    ), label


def test_every_corpus_circuit_matches_oracle():
    labels = []
    for label, circuit in corpus_circuits():
        _assert_matches_oracle(circuit, label)
        labels.append(label)
    assert len(labels) > 80


#: ``(topology, spec)`` of every clean-corpus circuit.
CASES = [
    (generator.name, spec)
    for spec in (MacroSpec(m, w, params=p) for m, w, p in WIDTH_GRID)
    for generator in default_database().applicable(spec)
]


def _internal_nets(circuit):
    interface = set(circuit.primary_inputs) | set(circuit.primary_outputs)
    interface.update(circuit.clock_nets())
    return sorted(name for name in circuit.nets if name not in interface)


def _rename_net(circuit, old, new):
    net = circuit.nets.pop(old)
    net.name = new
    circuit.nets[new] = net
    for index in (circuit._drivers, circuit._all_drivers, circuit._fanout):
        if old in index:
            index[new] = index.pop(old)
    forget(circuit)


def _edit(circuit, kind, data):
    """Apply one random edit of ``kind``; False when the circuit has no
    place for it."""
    stages = sorted(circuit.stages, key=lambda s: s.name)
    nets = sorted(circuit.nets)
    if kind == "rebind_pin":
        stage = data.draw(st.sampled_from([s for s in stages if s.inputs]))
        pin = data.draw(st.sampled_from([p.name for p in stage.inputs]))
        rebind_pin(circuit, stage.name, pin, data.draw(st.sampled_from(nets)))
    elif kind == "swap_pins":
        wide = [s for s in stages if len(s.inputs) >= 2]
        if not wide:
            return False
        stage = data.draw(st.sampled_from(wide))
        a, b = data.draw(
            st.lists(
                st.sampled_from([p.name for p in stage.inputs]),
                min_size=2, max_size=2, unique=True,
            )
        )
        swap_pins(circuit, stage.name, a, b)
    elif kind == "pin_size":
        free = sorted(circuit.size_table.free_names())
        if not free:
            return False
        circuit.size_table.pin(
            data.draw(st.sampled_from(free)),
            data.draw(st.floats(0.5, 50.0, allow_nan=False)),
        )
    elif kind == "wire_cap":
        net = circuit.nets[data.draw(st.sampled_from(nets))]
        net.wire_cap = data.draw(st.floats(0.0, 100.0, allow_nan=False))
    elif kind == "input_phase":
        circuit.declare_input_phase(
            data.draw(st.sampled_from(sorted(circuit.primary_inputs))),
            data.draw(st.sampled_from(INPUT_PHASES)),
        )
    else:
        internal = _internal_nets(circuit)
        if not internal:
            return False
        old = data.draw(st.sampled_from(internal))
        _rename_net(circuit, old, old + "_renamed")
    return True


EDITS = (
    "rebind_pin", "swap_pins", "pin_size", "wire_cap", "input_phase",
    "rename_net",
)


@pytest.mark.parametrize("kind", EDITS)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_matches_oracle_after_one_edit(kind, data, database, tech):
    topology, spec = data.draw(st.sampled_from(CASES))
    circuit = database.generate(topology, spec, tech)
    before = circuit_fingerprint(circuit)
    if not _edit(circuit, kind, data):
        return
    _assert_matches_oracle(circuit, f"{topology} after {kind}")
    if kind == "rename_net":
        # Internal nets are named by their drivers, never by their names.
        assert circuit_fingerprint(circuit) == before
