"""Cross-technology portability: the entire flow at a second process node.

The paper's methodology is process-portable by construction (the models are
parameterized, the database is structural).  These tests run the full stack
at the faster GENERIC_130 node and check scaling directions.
"""

import pytest

from repro import DesignConstraints, MacroSpec, SmartAdvisor
from repro.core.savings import macro_savings
from repro.models import GENERIC_130, GENERIC_180, ModelLibrary
from repro.sizing import DelaySpec, SmartSizer
from repro.sizing.engine import nominal_delay


@pytest.fixture(scope="module")
def lib130():
    return ModelLibrary(GENERIC_130)


@pytest.fixture(scope="module")
def lib180():
    return ModelLibrary(GENERIC_180)


class TestScaling:
    def test_faster_node_faster_nominal(self, database, lib130, lib180):
        spec = MacroSpec("mux", 8, output_load=30.0)
        c180 = database.generate("mux/unsplit_domino", spec, GENERIC_180)
        c130 = database.generate("mux/unsplit_domino", spec, GENERIC_130)
        assert nominal_delay(c130, lib130) < nominal_delay(c180, lib180)

    def test_sizer_converges_at_130(self, database, lib130):
        spec = MacroSpec("mux", 8, output_load=30.0)
        circuit = database.generate("mux/unsplit_domino", spec, GENERIC_130)
        result = SmartSizer(circuit, lib130).size(
            DelaySpec(data=0.9 * nominal_delay(circuit, lib130))
        )
        assert result.converged

    def test_bounds_track_technology(self, database, lib130):
        spec = MacroSpec("mux", 4, output_load=20.0)
        circuit = database.generate("mux/strong_mutex_passgate", spec, GENERIC_130)
        for var in circuit.size_table:
            assert var.lower == pytest.approx(GENERIC_130.min_width)

    def test_advisor_at_130(self, database, lib130):
        advisor = SmartAdvisor(database=database, library=lib130)
        report = advisor.advise(
            MacroSpec("mux", 4, output_load=30.0),
            DesignConstraints(delay=300.0),
        )
        assert report.best is not None

    def test_savings_protocol_portable(self, database, lib130):
        result = macro_savings(
            database,
            "zero_detect/static_tree",
            MacroSpec("zero_detect", 16, output_load=20.0),
            lib130,
        )
        assert result.timing_met
        assert result.width_saving > 0.05


NSA_CERTIFICATES = (
    "charge_share_certificates",
    "keeper_certificates",
    "pass_chain_certificates",
    "coupling_certificates",
)


class TestLintGateTechnology:
    """The advisor's lint gate evaluates the NSA6xx noise certificates at
    the advisor's own technology, and never replays them across one."""

    @staticmethod
    def _domino(database, tech):
        return database.generate(
            "mux/unsplit_domino", MacroSpec("mux", 8, output_load=30.0), tech
        )

    def test_gate_certificates_come_from_the_advisors_library(
        self, database, lib130, monkeypatch
    ):
        from repro.lint.electrical import rules as nsa

        seen = []
        for name in NSA_CERTIFICATES:
            def spy(circuit, library=None, *, _real=getattr(nsa, name),
                    _name=name, **options):
                seen.append((_name, library))
                return _real(circuit, library, **options)

            monkeypatch.setattr(nsa, name, spy)
        advisor = SmartAdvisor(database=database, library=lib130)
        advisor._lint_report(self._domino(database, GENERIC_130))
        assert {name for name, _ in seen} == set(NSA_CERTIFICATES)
        assert all(library is lib130 for _, library in seen), seen

    def test_gate_findings_match_a_lint_at_that_technology(
        self, database, lib130
    ):
        from repro.lint import lint_circuit

        circuit = self._domino(database, GENERIC_130)
        gate = SmartAdvisor(database=database, library=lib130)._lint_report(
            circuit
        )
        direct = lint_circuit(circuit, groups=("electrical",), library=lib130)
        assert [
            d.format() for d in gate.diagnostics if d.rule_id.startswith("NSA")
        ] == [d.format() for d in direct.diagnostics]

    def test_rule_cache_key_carries_the_library(self, database, lib130, lib180):
        from repro.lint import lint_circuit
        from repro.lint.incremental import RuleResultCache

        circuit = self._domino(database, GENERIC_130)
        cache = RuleResultCache()
        lint_circuit(circuit, groups=("electrical",), cache=cache, library=lib130)
        again = lint_circuit(
            circuit, groups=("electrical",), cache=cache, library=lib130
        )
        other = lint_circuit(
            circuit, groups=("electrical",), cache=cache, library=lib180
        )
        assert {status for _, _, status in again.executed} == {"replayed"}
        assert {status for _, _, status in other.executed} == {"executed"}
