"""Whole-database invariants: every registered topology, at a representative
spec, must (a) validate structurally, (b) round-trip through SPICE, (c) yield
an all-posynomial constraint set, and (d) build a solvable GP.

These are the contracts the advisor flow relies on for *any* macro a designer
adds — run across the shipped database so a regression in any generator or
model template is caught at the source.
"""

import pytest

from repro.macros import MacroSpec
from repro.netlist import export_circuit, read_spice, validate_circuit
from repro.posy import is_posynomial_in
from repro.sizing import DelaySpec, PathExtractor, prune_paths
from repro.sizing.constraints import ConstraintGenerator
from repro.sizing.engine import nominal_delay

#: A representative, cheap spec per family.
REPRESENTATIVE = {
    "mux": MacroSpec("mux", 4, output_load=20.0),
    "incrementor": MacroSpec("incrementor", 6, output_load=20.0),
    "decrementor": MacroSpec("decrementor", 6, output_load=20.0),
    "zero_detect": MacroSpec("zero_detect", 8, output_load=20.0),
    "decoder": MacroSpec("decoder", 3, output_load=20.0),
    "encoder": MacroSpec("encoder", 3, output_load=20.0),
    "adder": MacroSpec("adder", 16, output_load=20.0),
    "comparator": MacroSpec("comparator", 32, output_load=20.0),
    "shifter": MacroSpec("shifter", 8, output_load=20.0),
    "register_file": MacroSpec(
        "register_file", 2, output_load=20.0, params=(("registers", 4),)
    ),
}


def _all_cases(database):
    cases = []
    for generator in database.topologies():
        spec = REPRESENTATIVE[generator.macro_type]
        if generator.applicable(spec):
            cases.append((generator.name, spec))
        else:
            # Width-restricted topologies (e.g. 2:1 encoded mux) get a
            # family-appropriate fallback.
            for width in (2, 4, 8, 16, 64):
                alt = MacroSpec(spec.macro_type, width, output_load=20.0,
                                params=spec.params)
                if generator.applicable(alt):
                    cases.append((generator.name, alt))
                    break
    return cases


def _case_ids(database):
    return [name for name, _ in _all_cases(database)]


@pytest.fixture(scope="module")
def circuits(database, tech):
    """Every topology generated once for the whole module."""
    return {
        name: database.generate(name, spec, tech)
        for name, spec in _all_cases(database)
    }


def test_every_topology_covered(database):
    covered = {name for name, _ in _all_cases(database)}
    registered = {g.name for g in database.topologies()}
    assert covered == registered


def test_all_validate(circuits):
    for name, circuit in circuits.items():
        report = validate_circuit(circuit)
        assert report.ok, (name, report.errors)


def test_all_spice_roundtrip(circuits):
    for name, circuit in circuits.items():
        env = circuit.size_table.default_env()
        parsed = read_spice(export_circuit(circuit, env))
        (subckt,) = parsed
        assert len(parsed[subckt]) == circuit.transistor_count(), name


def test_all_constraints_posynomial(circuits, library):
    for name, circuit in circuits.items():
        extractor = PathExtractor(circuit)
        if extractor.count() > 2000:
            paths = extractor.extract_representative()
        else:
            paths = prune_paths(circuit, extractor.extract()).paths
        generator = ConstraintGenerator(
            circuit, library, DelaySpec(data=500.0, charge_sharing_ratio=1.5)
        )
        constraint_set = generator.generate(paths)
        assert constraint_set.timing, name
        labels = circuit.size_table.names()
        for c in constraint_set.timing:
            assert is_posynomial_in(c.delay, labels), (name, c.name)
        for s in constraint_set.slopes:
            assert is_posynomial_in(s.slope, labels), (name, s.name)
        for n in constraint_set.noise:
            assert is_posynomial_in(n.expr, labels), (name, n.name)


def test_all_area_posynomials_consistent(circuits):
    for name, circuit in circuits.items():
        env = circuit.size_table.default_env()
        assert circuit.area_posynomial().evaluate(env) == pytest.approx(
            circuit.total_width(env), rel=1e-9
        ), name


def test_all_nominal_delays_finite(circuits, library):
    for name, circuit in circuits.items():
        nominal = nominal_delay(circuit, library)
        assert 0.0 < nominal < 1e5, (name, nominal)
