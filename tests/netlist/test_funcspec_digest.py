"""The memoized golden-spec digest: one shared, frozen spec per golden
function and width, a digest memo on it, and the row-by-row oracle in
``reference_funcspec.py``."""

import dataclasses

import pytest

from repro.lint.corpus import WIDTH_GRID
from repro.lint.incremental import RuleResultCache
from repro.lint.runner import ALL_CIRCUIT_GROUPS, lint_circuit
from repro.macros import MacroSpec
from repro.macros.mux import mux_golden_spec
from repro.netlist.fingerprint import facet_fingerprints, funcspec_digest
from repro.netlist.funcspec import FunctionalSpec

from .reference_funcspec import reference_funcspec_digest

def _circuits(database, tech):
    """Every generator over the clean lint corpus's width grid, which
    covers both exact enumeration and seeded sampling."""
    for macro_type, width, params in WIDTH_GRID:
        spec = MacroSpec(macro_type, width, params=params)
        for generator in database.applicable(spec):
            yield generator, spec, generator.generate(spec, tech)


def test_memoized_digest_matches_row_by_row_oracle(database, tech):
    checked = set()
    for generator, _spec, circuit in _circuits(database, tech):
        expected = reference_funcspec_digest(circuit)
        assert funcspec_digest(circuit) == expected, generator.name
        # The second call is served from the memo and still agrees.
        assert funcspec_digest(circuit) == expected, generator.name
        checked.add(generator.name)
    assert checked == {g.name for g in database.topologies()}


def test_generator_shares_one_spec_per_request(database, tech):
    for generator, spec, circuit in _circuits(database, tech):
        again = generator.generate(spec, tech)
        if circuit.functional_spec is None:
            continue
        assert again.functional_spec is circuit.functional_spec, generator.name


def test_topologies_of_one_encoding_share_one_spec(database, tech):
    spec = MacroSpec("mux", 4)
    onehot = [
        database.generate(name, spec, tech).functional_spec
        for name in ("mux/strong_mutex_passgate", "mux/unsplit_domino")
    ]
    assert onehot[0] is onehot[1] is mux_golden_spec(4, "onehot")


def test_spec_fields_cannot_be_assigned():
    spec = mux_golden_spec(4, "onehot")
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.golden = "not-a-mux"
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.outputs = {}


def test_memo_is_not_part_of_equality_or_construction():
    outputs = {"out": lambda env: True}
    spec, twin = FunctionalSpec(outputs=outputs), FunctionalSpec(outputs=outputs)
    assert spec.digests == {}
    spec.digests[("a",)] = "digest"
    assert spec == twin
    with pytest.raises(TypeError):
        FunctionalSpec(outputs=outputs, digests={})


def test_swapping_in_a_mutant_spec_moves_only_funcspec(database, tech):
    """A mutated golden function is a new spec object with an empty memo:
    the funcspec facet moves (so SVC4xx re-run) and nothing else does."""
    circuit = database.generate(
        "mux/strong_mutex_passgate", MacroSpec("mux", 4), tech
    )
    base = facet_fingerprints(circuit)
    shared = circuit.functional_spec
    assert shared.digests  # memoized by the call above
    circuit.functional_spec = dataclasses.replace(
        shared, outputs={"out": lambda env: not env["in0"]}
    )
    assert circuit.functional_spec.digests == {}
    edited = facet_fingerprints(circuit)
    assert edited["funcspec"] != base["funcspec"]
    for facet in ("topology", "sizing", "phases"):
        assert edited[facet] == base[facet]
    assert funcspec_digest(circuit) == reference_funcspec_digest(circuit)

    cache = RuleResultCache()
    circuit.functional_spec = shared
    lint_circuit(circuit, groups=ALL_CIRCUIT_GROUPS, cache=cache)
    circuit.functional_spec = dataclasses.replace(
        shared, outputs={"out": lambda env: not env["in0"]}
    )
    mutant = lint_circuit(circuit, groups=ALL_CIRCUIT_GROUPS, cache=cache)
    status = {rule_id: s for rule_id, _, s in mutant.executed}
    assert status["SVC401"] == "executed"
    assert "SVC401" in {d.rule_id for d in mutant.errors}
