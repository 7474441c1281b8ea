"""Interface-contract derivation + the content-addressed contract store."""

import pytest

from repro.cache.contracts import ContractStore
from repro.lint import RuleResultCache, derive_contract, macro_identity
from repro.lint.contracts import (
    CONTRACT_FORMAT,
    CONTRACT_VERSION,
    _outward,
    build_registry_contracts,
)
from repro.lint.dataflow.interval import box_bounds
from repro.macros import MacroSpec, default_database
from repro.models import ModelLibrary, Technology
from repro.netlist.fingerprint import circuit_fingerprint
from repro.sim.timing import StaticTimingAnalyzer

TECH = Technology()
LIBRARY = ModelLibrary(TECH)
DATABASE = default_database()


def _generate(macro_type, width, frag):
    spec = MacroSpec(macro_type, width)
    gen = next(g for g in DATABASE.applicable(spec) if frag in g.name)
    return gen.name, spec, gen.generate(spec, TECH)


@pytest.fixture(scope="module")
def decoder():
    return _generate("decoder", 2, "flat_static")


@pytest.fixture(scope="module")
def domino_zero():
    return _generate("zero_detect", 4, "domino")


class TestMacroIdentity:
    def test_shape_and_params(self):
        spec = MacroSpec("mux", 4, output_load=12.5)
        ident = macro_identity("mux/strong", spec)
        assert ident == "mux/strong|w4|L12.5"
        with_params = MacroSpec(
            "register_file", 2, params=(("registers", 4),)
        )
        assert macro_identity("rf/x", with_params).endswith("registers=4")

    def test_sizing_independent(self):
        a = macro_identity("t", MacroSpec("mux", 4))
        b = macro_identity("t", MacroSpec("mux", 4))
        assert a == b


class TestDeriveContract:
    def test_static_macro_contract_facts(self, decoder):
        topo, spec, circuit = decoder
        contract = derive_contract(
            circuit, LIBRARY, identity=macro_identity(topo, spec)
        )
        assert contract["format"] == CONTRACT_FORMAT
        assert contract["version"] == CONTRACT_VERSION
        assert contract["fingerprint"] == circuit_fingerprint(circuit)
        assert set(contract["facets"]) == {
            "topology", "sizing", "phases", "funcspec"
        }
        ins = {
            k: v for k, v in contract["ports"].items()
            if v["direction"] == "in"
        }
        outs = {
            k: v for k, v in contract["ports"].items()
            if v["direction"] == "out"
        }
        assert set(ins) == {"a0", "a1"}
        assert set(outs) == {"o0", "o1", "o2", "o3"}
        for port in ins.values():
            assert port["declared_phase"] is None
            assert 0 < port["cap_lo"] <= port["cap_hi"]
        for port in outs.values():
            assert port["phase"] == "static"
            assert port["mono"] == "steady"
            assert port["load_budget"] == spec.output_load
            assert port["arr_lo"] <= port["arr_hi"]
        assert contract["funcspec"]["status"] == "proved"
        assert contract["slice_signature"]
        assert contract["findings"] == []
        assert contract["rules"]

    def test_domino_macro_records_phase_and_mono(self, domino_zero):
        topo, spec, circuit = domino_zero
        contract = derive_contract(circuit, LIBRARY)
        outs = [
            v for v in contract["ports"].values() if v["direction"] == "out"
        ]
        assert outs
        # A domino cone driven by undeclared (steady-assumed) inputs
        # settles monotonically at its outputs.
        assert all(
            v["mono"] in ("rising", "falling", "steady") for v in outs
        )
        assert any(v["phase"] != "static" for v in outs)
        # clock is not a port
        assert circuit.clock not in contract["ports"]

    def test_findings_are_embedded(self):
        from repro.macros.base import MacroBuilder
        from repro.netlist.nets import PinClass

        builder = MacroBuilder("race", TECH)
        for label in ("PC", "D"):
            builder.size(label)
        clk = builder.clock()
        a = builder.input("a")
        builder.domino(
            "d2", [[(a, PinClass.DATA)]], clk, builder.output("out"),
            "PC", "D", None,
        )
        contract = derive_contract(builder.done(), LIBRARY)
        rules = {f["rule"] for f in contract["findings"]}
        assert "DFA301" in rules

    def test_rule_cache_threads_through(self, decoder):
        _, _, circuit = decoder
        cache = RuleResultCache()
        derive_contract(circuit, LIBRARY, rule_cache=cache)
        cold = cache.stats.executed
        assert cold > 0
        derive_contract(circuit, LIBRARY, rule_cache=cache)
        assert cache.stats.executed == cold
        assert cache.stats.replayed == cold

    def test_deterministic(self, decoder):
        _, _, circuit = decoder
        a = derive_contract(circuit, LIBRARY)
        b = derive_contract(circuit, LIBRARY)
        for fld in ("ports", "funcspec", "slice_signature", "findings",
                    "fingerprint", "facets"):
            assert a[fld] == b[fld]


class TestOutwardBounds:
    """Stored bounds round toward the safe side, never to nearest."""

    def test_value_just_past_a_rounding_boundary(self):
        above = 0.1234565000001  # rounds to nearest *up*, to 0.123457
        assert round(above, 6) > above
        assert _outward(above, 6, up=False) == 0.123456
        assert _outward(above, 6, up=True) == 0.123457
        below = 0.1234564999999  # rounds to nearest *down*, to 0.123456
        assert round(below, 6) < below
        assert _outward(below, 6, up=True) == 0.123457
        assert _outward(below, 6, up=False) == 0.123456

    def test_representable_value_is_kept(self):
        assert _outward(0.25, 6, up=True) == 0.25
        assert _outward(0.25, 6, up=False) == 0.25

    def test_port_caps_enclose_the_box_range(self, decoder):
        _topo, _spec, circuit = decoder
        contract = derive_contract(circuit, LIBRARY)
        analyzer = StaticTimingAnalyzer(circuit, LIBRARY)
        for name, port in contract["ports"].items():
            if port["direction"] != "in":
                continue
            lo, hi = analyzer.load_posynomial(name).enclose(box_bounds(circuit))
            assert port["cap_lo"] <= lo
            assert port["cap_hi"] >= hi


class TestContractStore:
    def test_round_trip_and_identity_index(self, tmp_path, decoder):
        topo, spec, circuit = decoder
        path = str(tmp_path / "contracts.jsonl")
        store = ContractStore(path)
        contract = derive_contract(
            circuit, LIBRARY, identity=macro_identity(topo, spec)
        )
        store.put(contract)
        assert contract["fingerprint"] in store
        reloaded = ContractStore(path)
        assert len(reloaded) == 1
        got = reloaded.get(contract["fingerprint"])
        assert got["ports"] == contract["ports"]
        by_ident = reloaded.for_identity(macro_identity(topo, spec))
        assert [c["fingerprint"] for c in by_ident] == [
            contract["fingerprint"]
        ]

    def test_put_requires_fingerprint(self, tmp_path):
        store = ContractStore(str(tmp_path / "c.jsonl"))
        with pytest.raises(ValueError):
            store.put({"identity": "x"})

    def test_corrupt_lines_skipped(self, tmp_path, decoder):
        _, _, circuit = decoder
        path = tmp_path / "contracts.jsonl"
        store = ContractStore(str(path))
        store.put(derive_contract(circuit, LIBRARY))
        path.write_text("garbage\n" + path.read_text())
        reloaded = ContractStore(str(path))
        assert len(reloaded) == 1
        assert reloaded.skipped_lines == 1


class TestBuildRegistryContracts:
    GRID = (("decoder", 2, ()), ("zero_detect", 4, ()))

    def test_cold_then_changed_only_reuses(self, tmp_path):
        store = ContractStore(str(tmp_path / "contracts.jsonl"))
        cold = build_registry_contracts(store, LIBRARY, grid=self.GRID)
        assert cold["derived"] == len(store) > 0
        assert cold["reused"] == 0
        warm = build_registry_contracts(
            store, LIBRARY, grid=self.GRID, changed_only=True
        )
        assert warm["derived"] == 0
        assert warm["reused"] == cold["derived"]

    def test_macro_filter(self, tmp_path):
        store = ContractStore(str(tmp_path / "contracts.jsonl"))
        stats = build_registry_contracts(
            store, LIBRARY, grid=self.GRID, macro="decoder"
        )
        assert stats["derived"] > 0
        assert all(
            entry["identity"].startswith("decoder")
            for entry in store.entries()
        )

    def test_cli_main(self, tmp_path, capsys):
        from repro.lint.contracts import main

        path = str(tmp_path / "contracts.jsonl")
        assert main(["--store", path, "--macro", "decoder/flat_static"]) == 0
        out = capsys.readouterr().out
        assert "derived" in out
        assert len(ContractStore(path)) > 0
