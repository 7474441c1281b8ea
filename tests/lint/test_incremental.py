"""Facet fingerprints + the per-rule incremental result cache."""

import copy

from repro.lint import RuleResultCache, lint_circuit
from repro.lint.incremental import (
    deserialize_diagnostic,
    options_digest,
    serialize_diagnostic,
)
from repro.lint.registry import get_rule
from repro.macros.base import MacroBuilder
from repro.netlist.fingerprint import FACET_NAMES, facet_fingerprints
from repro.netlist.nets import PinClass
from repro.models import Technology

TECH = Technology()


def _inv_chain(name="chain", load=10.0, wire_cap=0.0):
    builder = MacroBuilder(name, TECH)
    a = builder.input("a", wire_cap=wire_cap)
    mid = builder.wire("mid")
    out = builder.output("out", load=load)
    builder.size("P0"), builder.size("N0")
    builder.size("P1"), builder.size("N1")
    builder.inv("i0", a, mid, "P0", "N0")
    builder.inv("i1", mid, out, "P1", "N1")
    return builder.done()


def _domino_buf(phase="mono_rise"):
    builder = MacroBuilder("dom", TECH)
    for label in ("PC", "D", "E"):
        builder.size(label)
    clk = builder.clock()
    a = builder.input("a", phase=phase)
    builder.domino(
        "d1", [[(a, PinClass.DATA)]], clk, builder.output("out"),
        "PC", "D", "E",
    )
    return builder.done()


class TestFacetFingerprints:
    def test_names_and_determinism(self):
        circuit = _inv_chain()
        facets = facet_fingerprints(circuit)
        assert tuple(sorted(facets)) == tuple(sorted(FACET_NAMES))
        assert facets == facet_fingerprints(circuit)
        assert all(len(fp) == 64 for fp in facets.values())

    def test_identical_circuits_share_all_facets(self):
        assert facet_fingerprints(_inv_chain()) == facet_fingerprints(
            _inv_chain()
        )

    def test_load_edit_moves_only_sizing(self):
        base = facet_fingerprints(_inv_chain(load=10.0))
        edited = facet_fingerprints(_inv_chain(load=99.0))
        assert edited["sizing"] != base["sizing"]
        for facet in ("topology", "phases", "funcspec"):
            assert edited[facet] == base[facet]

    def test_wire_cap_edit_moves_only_sizing(self):
        base = facet_fingerprints(_inv_chain(wire_cap=0.0))
        edited = facet_fingerprints(_inv_chain(wire_cap=3.0))
        assert edited["sizing"] != base["sizing"]
        assert edited["topology"] == base["topology"]

    def test_phase_declaration_moves_only_phases(self):
        base = facet_fingerprints(_domino_buf("mono_rise"))
        edited = facet_fingerprints(_domino_buf("steady"))
        assert edited["phases"] != base["phases"]
        for facet in ("topology", "sizing", "funcspec"):
            assert edited[facet] == base[facet]

    def test_topology_edit_moves_topology(self):
        base = facet_fingerprints(_inv_chain())
        builder = MacroBuilder("chain", TECH)
        a = builder.input("a")
        out = builder.output("out", load=10.0)
        builder.size("P0"), builder.size("N0")
        builder.inv("i0", a, out, "P0", "N0")
        edited = facet_fingerprints(builder.done())
        assert edited["topology"] != base["topology"]


class TestSerialization:
    def test_diagnostic_round_trip(self):
        builder = MacroBuilder("race", TECH)
        for label in ("PC", "D"):
            builder.size(label)
        clk = builder.clock()
        a = builder.input("a")
        builder.domino(
            "d2", [[(a, PinClass.DATA)]], clk, builder.output("out"),
            "PC", "D", None,
        )
        report = lint_circuit(builder.done())  # DFA301/ERC105 fire
        assert report.diagnostics
        for diag in report.diagnostics:
            back = deserialize_diagnostic(serialize_diagnostic(diag))
            assert back == diag

    def test_options_digest_orders_and_distinguishes(self):
        assert options_digest(None) == options_digest({})
        assert options_digest({"a": 1, "b": 2}) == options_digest(
            {"b": 2, "a": 1}
        )
        assert options_digest({"a": 1}) != options_digest({"a": 2})


class TestRuleResultCache:
    def test_cold_then_warm_replays_everything(self):
        circuit = _inv_chain()
        cache = RuleResultCache()
        cold = lint_circuit(circuit, cache=cache)
        assert all(s == "executed" for _, _, s in cold.executed)
        warm = lint_circuit(circuit, cache=cache)
        assert all(s == "replayed" for _, _, s in warm.executed)
        assert warm.diagnostics == cold.diagnostics
        assert cache.stats.hit_rate == 0.5

    def test_replay_false_refreshes_without_serving(self):
        circuit = _inv_chain()
        cache = RuleResultCache()
        lint_circuit(circuit, cache=cache)
        again = lint_circuit(circuit, cache=cache, replay=False)
        assert all(s == "executed" for _, _, s in again.executed)

    def test_sizing_edit_invalidates_only_sizing_rules(self):
        cache = RuleResultCache()
        lint_circuit(_inv_chain(load=10.0), cache=cache)
        warm = lint_circuit(_inv_chain(load=55.0), cache=cache)
        status = {rule_id: s for rule_id, _, s in warm.executed}
        # ERC001 reads topology only -> replayed; DFA303/ERC005-style
        # sizing readers re-execute.
        assert status["ERC001"] == "replayed"
        assert get_rule("ERC005").facets == ("topology",)
        replayed = [r for r, s in status.items() if s == "replayed"]
        executed = [r for r, s in status.items() if s == "executed"]
        assert replayed and executed
        for rule_id in executed:
            assert "sizing" in get_rule(rule_id).facets

    def test_options_partition_cache_entries(self):
        circuit = _domino_buf()
        cache = RuleResultCache()
        lint_circuit(circuit, cache=cache, options={"symbolic_samples": 4})
        warm = lint_circuit(
            circuit, cache=cache, options={"symbolic_samples": 8}
        )
        assert all(s == "executed" for _, _, s in warm.executed)

    def test_waivers_apply_on_top_of_replayed_findings(self):
        from repro.lint import parse_waivers

        builder = MacroBuilder("race", TECH)
        for label in ("PC", "D"):
            builder.size(label)
        clk = builder.clock()
        a = builder.input("a")
        builder.domino(
            "d2", [[(a, PinClass.DATA)]], clk, builder.output("out"),
            "PC", "D", None,
        )
        circuit = builder.done()
        cache = RuleResultCache()
        cold = lint_circuit(circuit, cache=cache)
        assert not cold.ok
        warm = lint_circuit(
            circuit, cache=cache, waivers=parse_waivers("DFA301\nERC105\n")
        )
        assert all(s == "replayed" for _, _, s in warm.executed)
        assert warm.waived

    def test_persistence_round_trip(self, tmp_path):
        path = str(tmp_path / "rules.jsonl")
        circuit = _inv_chain()
        cache = RuleResultCache(path)
        cold = lint_circuit(circuit, cache=cache)
        reloaded = RuleResultCache(path)
        warm = lint_circuit(circuit, cache=reloaded)
        assert all(s == "replayed" for _, _, s in warm.executed)
        assert warm.diagnostics == cold.diagnostics

    def test_corrupt_lines_are_tolerated(self, tmp_path):
        path = tmp_path / "rules.jsonl"
        circuit = _inv_chain()
        cache = RuleResultCache(str(path))
        lint_circuit(circuit, cache=cache)
        content = path.read_text()
        path.write_text("not json\n" + content + '{"key": "dangling"}\n')
        reloaded = RuleResultCache(str(path))
        warm = lint_circuit(circuit, cache=reloaded)
        assert all(s == "replayed" for _, _, s in warm.executed)

    def test_key_rejects_undeclared_facets(self):
        cache = RuleResultCache()
        rule_obj = get_rule("ERC001")
        facets = facet_fingerprints(_inv_chain())
        bogus = dict(facets)
        bogus.pop("topology")
        try:
            cache.key(rule_obj, bogus, None)
        except KeyError:
            pass
        else:
            raise AssertionError("missing declared facet must raise")


class TestElectricalFacets:
    """NSA6xx rules declare (topology, sizing[, phases]) facets, so the
    cache re-runs them on width edits but replays them under edits that
    only move facets they do not read."""

    ELECTRICAL = ("structural", "family", "dataflow", "electrical")

    def _domino(self, load=4.0, phase="mono_rise"):
        builder = MacroBuilder("dom_nsa", TECH)
        clk = builder.clock()
        nets = [builder.input(f"a{i}", phase=phase) for i in range(4)]
        for label in ("PC", "D", "E"):
            builder.size(label)
        builder.domino(
            "d0", [[(net, PinClass.DATA) for net in nets]], clk,
            builder.output("out", load=load), "PC", "D", "E",
        )
        return builder.done()

    def test_width_edit_reruns_nsa_replays_topology_rules(self):
        cache = RuleResultCache()
        lint_circuit(self._domino(load=4.0), groups=self.ELECTRICAL,
                     cache=cache)
        warm = lint_circuit(self._domino(load=44.0), groups=self.ELECTRICAL,
                            cache=cache)
        status = {rule_id: s for rule_id, _, s in warm.executed}
        for rule_id in ("NSA601", "NSA602", "NSA603", "NSA604"):
            assert status[rule_id] == "executed", (rule_id, status)
        # Topology-only rules replay across a pure sizing edit.
        assert status["ERC001"] == "replayed"
        assert status["ERC104"] == "replayed"

    def test_phase_edit_reruns_nsa604_replays_sizing_only_nsa(self):
        cache = RuleResultCache()
        lint_circuit(self._domino(phase="mono_rise"),
                     groups=self.ELECTRICAL, cache=cache)
        warm = lint_circuit(self._domino(phase="steady"),
                            groups=self.ELECTRICAL, cache=cache)
        status = {rule_id: s for rule_id, _, s in warm.executed}
        # NSA604 reads slope intervals, which depend on phase declarations.
        assert status["NSA604"] == "executed"
        for rule_id in ("NSA601", "NSA602", "NSA603"):
            assert status[rule_id] == "replayed", (rule_id, status)

    def test_declared_facets_match_registry(self):
        for rule_id in ("NSA601", "NSA602", "NSA603"):
            assert get_rule(rule_id).facets == ("topology", "sizing")
        assert get_rule("NSA604").facets == (
            "topology", "sizing", "phases"
        )
        assert get_rule("ERC103").facets == ("topology", "sizing")


class TestAdvisorGate:
    def test_gate_reuses_cache_across_calls(self):
        from repro.core.advisor import SmartAdvisor

        advisor = SmartAdvisor()
        circuit = _inv_chain()
        assert advisor._lint_gate(circuit) is None
        assert advisor._lint_cache is not None
        first = advisor._lint_cache.stats.replayed
        assert advisor._lint_gate(copy.deepcopy(circuit)) is None
        assert advisor._lint_cache.stats.replayed > first
