"""Hierarchical contract composition: CTR501-505, flatten, incrementality."""

import pytest

from repro.blocks import demo_block
from repro.cache.contracts import ContractStore
from repro.lint import lint_circuit
from repro.lint.hier import (
    HierBlock,
    HierConnection,
    HierInstance,
    flatten,
    hier_from_block,
    lint_hier,
    mono_le,
    mono_satisfies,
    phase_le,
    phase_satisfies,
)
from repro.macros.base import MacroBuilder
from repro.models import ModelLibrary, Technology
from repro.netlist.nets import PinClass

TECH = Technology()
LIBRARY = ModelLibrary(TECH)


def _static_driver(name="drv", load=20.0):
    """INV pair: a -> out, static/steady output."""
    builder = MacroBuilder(name, TECH)
    a = builder.input("a")
    mid = builder.wire("mid")
    out = builder.output("out", load=load)
    for label in ("P0", "N0", "P1", "N1"):
        builder.size(label)
    builder.inv("i0", a, mid, "P0", "N0")
    builder.inv("i1", mid, out, "P1", "N1")
    return builder.done()


def _domino_sink(name="dsink"):
    """Clocked domino whose data input is declared mono_rise."""
    builder = MacroBuilder(name, TECH)
    for label in ("PC", "D", "E"):
        builder.size(label)
    clk = builder.clock()
    a = builder.input("a", phase="mono_rise")
    builder.domino(
        "d1", [[(a, PinClass.DATA)]], clk, builder.output("out"),
        "PC", "D", "E",
    )
    return builder.done()


def _domino_driver(name="ddrv"):
    """Clocked domino driving its (monotone, precharged) node output."""
    builder = MacroBuilder(name, TECH)
    for label in ("PC", "D", "E"):
        builder.size(label)
    clk = builder.clock()
    a = builder.input("a", phase="mono_rise")
    builder.domino(
        "d1", [[(a, PinClass.DATA)]], clk, builder.output("out", load=20.0),
        "PC", "D", "E",
    )
    return builder.done()


def _static_sink(name="ssink"):
    builder = MacroBuilder(name, TECH)
    a = builder.input("a")
    out = builder.output("out", load=20.0)
    builder.size("P0"), builder.size("N0")
    builder.inv("i0", a, out, "P0", "N0")
    return builder.done()


def _block(name, pairs, connections):
    return HierBlock(
        name,
        [HierInstance(iname, circ, identity=iname) for iname, circ in pairs],
        connections,
    )


class TestBadnessOrders:
    def test_phase_reflexive_and_top(self):
        for v in ("low", "high", "stable", "static", "clock", "mixed"):
            assert phase_le(v, v)
            assert phase_le(v, "mixed")
        assert not phase_le("mixed", "static")
        assert not phase_le("clock", "static")
        assert not phase_le("static", "low")
        assert phase_le("low", "static")
        assert not phase_le(None, "static")

    def test_mono_reflexive_and_top(self):
        for v in ("steady", "rising", "falling", "clock", "nonmono"):
            assert mono_le(v, v)
            assert mono_le(v, "nonmono")
        assert not mono_le("rising", "steady")
        assert not mono_le("falling", "rising")
        assert mono_le("steady", "rising")

    def test_satisfies_uses_declared_assumption(self):
        # undeclared input characterized as static/steady
        assert phase_satisfies("static", None)
        assert not phase_satisfies("clock", None)
        assert mono_satisfies("steady", None)
        assert not mono_satisfies("rising", None)
        # declared mono_rise characterized as low/rising
        assert phase_satisfies("low", "mono_rise")
        assert not phase_satisfies("static", "mono_rise")
        assert mono_satisfies("rising", "mono_rise")
        assert mono_satisfies("steady", "mono_rise")
        assert not mono_satisfies("falling", "mono_rise")


class TestCompositionRules:
    def test_clean_static_pair(self):
        block = _block(
            "pair",
            [("u0", _static_driver()), ("u1", _static_sink())],
            [HierConnection("n0", ("u0", "out"), (("u1", "a"),))],
        )
        result = lint_hier(block, LIBRARY)
        assert result.ok
        assert not result.block_report.by_rule("CTR501")
        assert not result.block_report.by_rule("CTR502")

    def test_ctr501_static_into_declared_domino_input(self):
        block = _block(
            "bad501",
            [("u0", _static_driver()), ("u1", _domino_sink())],
            [HierConnection("n0", ("u0", "out"), (("u1", "a"),))],
        )
        result = lint_hier(block, LIBRARY)
        assert not result.ok
        findings = result.block_report.by_rule("CTR501")
        assert len(findings) == 1
        assert "characterized against 'mono_rise'" in findings[0].message

    def test_ctr502_domino_rail_into_undeclared_static_input(self):
        block = _block(
            "bad502",
            [("u0", _domino_driver()), ("u1", _static_sink())],
            [HierConnection("n0", ("u0", "out"), (("u1", "a"),))],
        )
        result = lint_hier(block, LIBRARY)
        assert not result.ok
        findings = result.block_report.by_rule("CTR502")
        assert len(findings) == 1
        assert "undeclared (steady)" in findings[0].message
        # the phase hand-off itself is fine: precharged-high covers static
        assert not result.block_report.by_rule("CTR501")

    def test_ctr503_overload_warning(self):
        block = _block(
            "load",
            [("u0", _static_driver(load=1.0)), ("u1", _static_sink())],
            [HierConnection(
                "n0", ("u0", "out"), (("u1", "a"),), wire_cap=500.0,
            )],
        )
        result = lint_hier(block, LIBRARY)
        assert result.ok  # warning, not error
        findings = result.block_report.by_rule("CTR503")
        assert len(findings) == 1
        assert "drive budget" in findings[0].message

    def test_bogus_endpoints_reported(self):
        block = _block(
            "bogus",
            [("u0", _static_driver()), ("u1", _static_sink())],
            [HierConnection("n0", ("u0", "nope"), (("u1", "also_no"),))],
        )
        result = lint_hier(block, LIBRARY)
        assert not result.ok


class TestStaleContracts:
    def test_cold_store_notes_underived_under_changed_only(self):
        block = _block(
            "cold",
            [("u0", _static_driver())],
            [],
        )
        result = lint_hier(block, LIBRARY, changed_only=True)
        notes = result.block_report.by_rule("CTR504")
        assert len(notes) == 1
        assert "derived cold" in notes[0].message

    def test_ctr504_fires_when_macro_edited_after_characterization(self):
        store = ContractStore()
        old = _block("b", [("u0", _static_driver(load=10.0))], [])
        lint_hier(old, LIBRARY, store)
        edited = _block("b", [("u0", _static_driver(load=77.0))], [])
        result = lint_hier(edited, LIBRARY, store, changed_only=True)
        notes = result.block_report.by_rule("CTR504")
        assert len(notes) == 1
        assert "edited after characterization" in notes[0].message
        assert result.stats.contracts_derived == 1

    def test_no_ctr504_on_current_contract(self):
        store = ContractStore()
        block = _block("b", [("u0", _static_driver())], [])
        lint_hier(block, LIBRARY, store)
        result = lint_hier(block, LIBRARY, store, changed_only=True)
        assert not result.block_report.by_rule("CTR504")
        assert result.stats.contracts_reused == 1
        assert result.stats.contracts_derived == 0


class TestVerifyContracts:
    def test_clean_audit_on_demo_block(self):
        design = demo_block(LIBRARY)
        block = hier_from_block(design)
        store = ContractStore()
        result = lint_hier(block, LIBRARY, store, verify=len(block.instances))
        assert result.ok
        assert not result.block_report.by_rule("CTR505")
        assert result.stats.verified_instances == len(block.instances)

    def test_tampered_contract_is_caught(self):
        store = ContractStore()
        block = _block(
            "pair",
            [("u0", _static_driver()), ("u1", _static_sink())],
            [HierConnection("n0", ("u0", "out"), (("u1", "a"),))],
        )
        lint_hier(block, LIBRARY, store)
        fp = next(iter(store.entries()))["fingerprint"]
        tampered = store.get(fp)
        for port in tampered["ports"].values():
            if port["direction"] == "out":
                port["phase"] = "low"  # claim stronger than reality
        result = lint_hier(
            block, LIBRARY, store,
            changed_only=True, verify=len(block.instances),
        )
        drift = result.block_report.by_rule("CTR505")
        assert drift
        assert not result.ok


class TestFlatten:
    def test_flat_demo_block_lints_clean(self):
        design = demo_block(LIBRARY)
        flat = flatten(hier_from_block(design))
        report = lint_circuit(flat)
        assert report.ok, [d.format() for d in report.diagnostics]

    def test_connected_ports_are_internal(self):
        design = demo_block(LIBRARY)
        block = hier_from_block(design)
        flat = flatten(block)
        for conn in block.connections:
            assert conn.net in flat.nets
            assert conn.net not in flat.primary_inputs
        # unconnected macro I/O became block I/O
        assert any(n.startswith("static_ripple") for n in flat.primary_inputs)

    def test_merged_circuit_matches_flatten_on_connections(self):
        design = demo_block(LIBRARY)
        merged = design.merged_circuit()
        for conn in design.connections:
            assert conn.net in merged.nets
            assert merged.net(conn.net).wire_cap == conn.wire_cap
        report = lint_circuit(merged)
        assert report.ok, [d.format() for d in report.diagnostics]


class TestIncrementalHier:
    def test_warm_pass_hits_90_percent_with_identical_findings(self):
        design = demo_block(LIBRARY)
        block = hier_from_block(design)
        store = ContractStore()
        cold = lint_hier(block, LIBRARY, store)
        warm = lint_hier(block, LIBRARY, store, changed_only=True)
        assert warm.stats.hit_rate >= 0.9
        assert warm.stats.contracts_derived == 0
        fmt = lambda res: [
            d.format() for r in res.reports for d in r.diagnostics
        ]
        assert fmt(warm) == fmt(cold)

    def test_editing_one_macro_rederives_only_it(self):
        store = ContractStore()
        old = _block(
            "two",
            [("u0", _static_driver(load=10.0)), ("u1", _static_sink())],
            [HierConnection("n0", ("u0", "out"), (("u1", "a"),))],
        )
        lint_hier(old, LIBRARY, store)
        edited = _block(
            "two",
            [("u0", _static_driver(load=44.0)), ("u1", _static_sink())],
            [HierConnection("n0", ("u0", "out"), (("u1", "a"),))],
        )
        result = lint_hier(edited, LIBRARY, store, changed_only=True)
        assert result.stats.contracts_derived == 1
        assert result.stats.contracts_reused == 1

    def test_rule_cache_limits_rederivation_to_changed_facets(self):
        from repro.lint import RuleResultCache

        store = ContractStore()
        rule_cache = RuleResultCache()
        old = _block("one", [("u0", _static_driver(load=10.0))], [])
        lint_hier(old, LIBRARY, store, rule_cache=rule_cache)
        cold_executed = rule_cache.stats.executed
        # sizing-only edit: topology/phase/funcspec rules replay
        edited = _block("one", [("u0", _static_driver(load=44.0))], [])
        lint_hier(
            edited, LIBRARY, store,
            changed_only=True, rule_cache=rule_cache,
        )
        assert rule_cache.stats.replayed > 0
        assert rule_cache.stats.executed - cold_executed < cold_executed

    def test_replicas_share_one_contract(self):
        shared = _static_driver()
        block = HierBlock(
            "rep",
            [
                HierInstance("u0", shared, identity="drv"),
                HierInstance("u1", shared, identity="drv"),
            ],
            [],
        )
        result = lint_hier(block, LIBRARY)
        assert result.stats.contracts_derived == 1
        assert result.stats.contracts_reused == 1


class TestHierFromBlock:
    def test_adapter_names_and_wiring(self):
        design = demo_block(LIBRARY)
        block = hier_from_block(design)
        assert len(block.instances) == len(design.macros)
        names = {i.name for i in block.instances}
        for conn in block.connections:
            assert conn.driver[0] in names
            for inst, _ in conn.sinks:
                assert inst in names
        for inst in block.instances:
            assert "|" in inst.identity  # macro_identity shape

    def test_ledger_records_hier_run(self, tmp_path):
        from repro.obs import perf

        design = demo_block(LIBRARY)
        block = hier_from_block(design)
        ledger_path = str(tmp_path / "ledger.jsonl")
        with perf.ledger_scope(ledger_path):
            lint_hier(block, LIBRARY)
        records = perf.RunLedger(ledger_path).records
        kinds = {r["kind"] for r in records}
        assert "hier_lint" in kinds
        assert "rule" in kinds
        hier_rec = next(r for r in records if r["kind"] == "hier_lint")
        assert hier_rec["cache"]["contracts_derived"] == len(block.instances)
