"""NSA6xx electrical-safety certificates, mutant findings, and facades."""

import dataclasses
import itertools
import math

from repro.lint import lint_circuit
from repro.lint.electrical import (
    charge_share_certificates,
    keeper_certificates,
    pass_chain_certificates,
    port_noise_margin,
    screen_electrical,
    worst_noise_margin,
)
from repro.lint.electrical.mutate import (
    coupled_victim,
    floating_internal_node,
    overlong_pass_chain,
    undersized_keeper,
)
from repro.macros.base import MacroBuilder, MacroSpec
from repro.macros.registry import default_database
from repro.models import Technology
from repro.netlist.nets import PinClass

TECH = Technology()

def _electrical(circuit, **kwargs):
    return lint_circuit(circuit, groups=("electrical",), **kwargs)


class TestNoiseMutants:
    """Each seeded mutant's finding carries its margin and witness (the
    exact fired rule sets are gated in tests/lint/test_corpus.py)."""

    def test_undersized_keeper_restore_margin(self):
        report = _electrical(undersized_keeper(TECH))
        [diag] = [d for d in report.diagnostics if d.rule_id == "NSA602"]
        assert "restore margin" in diag.message
        assert "keeper strength 0.01" in diag.message

    def test_overlong_chain_elmore_budget(self):
        report = _electrical(overlong_pass_chain(TECH))
        [diag] = [d for d in report.diagnostics if d.rule_id == "NSA603"]
        assert "Elmore delay" in diag.message
        assert "pg0>pg1>pg2>pg3>pg4" in diag.message
        assert "margin -" in diag.message

    def test_floating_node_is_box_provable_error(self):
        report = _electrical(floating_internal_node(TECH))
        [diag] = [d for d in report.diagnostics if d.rule_id == "NSA601"]
        assert str(diag.severity) == "error"
        assert "over the whole sizing box" in diag.message
        assert "witness OFF" in diag.message
        assert "exposed" in diag.message

    def test_coupled_victim_names_aggressor_and_margin(self):
        report = _electrical(coupled_victim(TECH))
        [diag] = [d for d in report.diagnostics if d.rule_id == "NSA604"]
        assert "coupling dip" in diag.message
        assert "attack" in diag.message
        assert "margin" in diag.message


class TestChargeShareCerts:
    def test_deep_stack_has_exposed_witness(self):
        certs = charge_share_certificates(floating_internal_node(TECH))
        [cert] = certs
        assert cert.violated and cert.provable
        assert len(cert.exposed) == 3  # 4-deep leg -> 3 internal nodes
        assert cert.witness_off  # the foot stays off in the worst state
        assert cert.dip_lo <= cert.dip <= cert.dip_hi

    def test_keeper_credits_the_budget(self):
        base = floating_internal_node(TECH)
        [plain] = charge_share_certificates(base)
        kept = floating_internal_node(TECH)
        next(
            s for s in kept.stages if s.name == "d0"
        ).params["keeper"] = 0.5
        [credited] = charge_share_certificates(kept)
        assert credited.allowed > plain.allowed
        assert credited.keeper == 0.5

    def test_one_deep_leg_exposes_nothing(self):
        assert charge_share_certificates(undersized_keeper(TECH)) == []

    def test_options_override_threshold(self):
        # A generous budget turns the provable violation into a pass.
        certs = charge_share_certificates(
            floating_internal_node(TECH),
            options={"electrical_charge_ratio": 0.9},
        )
        [cert] = certs
        assert not cert.violated


class TestChargeShareSafeSide:
    """``safe_over_box`` feeds the advisor's ``safe`` verdict, so it takes
    no slack on the permissive side."""

    def test_dip_just_over_budget_is_not_safe(self):
        [cert] = charge_share_certificates(floating_internal_node(TECH))
        over = dataclasses.replace(cert, dip_hi=cert.allowed + 5e-10)
        assert not over.safe_over_box
        assert dataclasses.replace(cert, dip_hi=cert.allowed).safe_over_box

    def test_dip_hi_is_rounded_up(self):
        # The floating node's dip is width-independent, so the box
        # supremum sits within an ulp or two of the point dip.
        [cert] = charge_share_certificates(floating_internal_node(TECH))
        assert cert.dip < cert.dip_hi < cert.dip * (1.0 + 1e-14)

    def test_safe_verdict_near_boundary_holds_at_worst_corner(self):
        """Budgets a few ulps either side of ``dip_hi``: a ``safe`` verdict
        is never contradicted by the dip at any corner of the box."""
        circuit = floating_internal_node(TECH)
        table = circuit.size_table
        corners = [
            dict(zip(table.names(), point))
            for point in itertools.product(
                *[(table[n].lower, table[n].upper) for n in table.names()]
            )
        ]
        worst = max(
            cert.dip
            for env in corners
            for cert in charge_share_certificates(circuit, env=env)
        )
        [cert] = charge_share_certificates(circuit)
        ratio = cert.dip_hi
        for _ in range(4):
            ratio = math.nextafter(ratio, 0.0)
        verdicts = []
        for _ in range(9):
            options = {"electrical_charge_ratio": ratio}
            [cert] = charge_share_certificates(circuit, options=options)
            verdicts.append(cert.safe_over_box)
            if cert.safe_over_box:
                assert worst <= cert.allowed, (worst, cert.allowed)
            ratio = math.nextafter(ratio, math.inf)
        assert verdicts == [False] * 4 + [True] * 5


class TestKeeperAndPassCerts:
    def test_keeperless_stage_has_no_keeper_cert(self):
        assert keeper_certificates(floating_internal_node(TECH)) == []

    def test_restore_improves_with_stronger_keeper(self):
        weak_c = undersized_keeper(TECH)
        [weak] = keeper_certificates(weak_c)
        strong_c = undersized_keeper(TECH)
        next(
            s for s in strong_c.stages if s.name == "d0"
        ).params["keeper"] = 0.2
        [strong] = keeper_certificates(strong_c)
        assert strong.restore > weak.restore
        assert weak.restore_violated

    def test_chain_length_one_is_not_a_chain(self):
        assert pass_chain_certificates(overlong_pass_chain(TECH, 1)) == []

    def test_longer_chain_has_larger_elmore(self):
        [three] = pass_chain_certificates(overlong_pass_chain(TECH, 3))
        [five] = pass_chain_certificates(overlong_pass_chain(TECH, 5))
        assert five.tau > three.tau
        assert len(five.stages) == 5


class TestCleanCorpusSample:
    """A representative generator slice produces zero NSA *errors*."""

    def test_clean_sample_error_free(self):
        database = default_database()
        for macro, width in (("mux", 4), ("adder", 4), ("decoder", 3)):
            spec = MacroSpec(macro, width, output_load=20.0)
            for generator in database.applicable(spec):
                circuit = generator.generate(spec, TECH)
                report = _electrical(circuit)
                assert not report.errors, (generator.name, report.errors)


class TestScreen:
    def test_pinned_violator_is_provably_unsafe(self):
        screen = screen_electrical(floating_internal_node(TECH))
        assert screen.infeasible
        assert screen.verdict == "provably-unsafe"
        assert any("charge-sharing" in r for r in screen.reasons)

    def test_unpinned_violator_is_not_screened(self):
        # The same topology with a free sizing box cannot be condemned:
        # an upsized dynamic node could dilute the dip.
        builder = MacroBuilder("free_domino", TECH)
        clk = builder.clock()
        nets = [builder.input(f"a{i}") for i in range(4)]
        for label in ("PC", "D", "E"):
            builder.size(label)
        builder.domino(
            "d0", [[(net, PinClass.DATA) for net in nets]], clk,
            builder.output("out", load=4.0), "PC", "D", "E",
        )
        screen = screen_electrical(builder.done())
        assert not screen.infeasible

    def test_worst_margin_none_without_sensitive_nodes(self):
        builder = MacroBuilder("static_only", TECH)
        a = builder.input("a")
        out = builder.output("out", load=10.0)
        builder.size("P0"), builder.size("N0")
        builder.inv("i0", a, out, "P0", "N0")
        assert worst_noise_margin(builder.done()) is None

    def test_worst_margin_negative_on_violator(self):
        margin = worst_noise_margin(floating_internal_node(TECH))
        assert margin is not None and margin < 0


class TestPortNoiseMargin:
    def test_domino_input_exports_margin(self):
        circuit = undersized_keeper(TECH)
        margin = port_noise_margin(circuit, "a")
        assert margin is not None and 0 < margin < 1

    def test_static_input_exports_none(self):
        builder = MacroBuilder("static_only", TECH)
        a = builder.input("a")
        out = builder.output("out", load=10.0)
        builder.size("P0"), builder.size("N0")
        builder.inv("i0", a, out, "P0", "N0")
        assert port_noise_margin(builder.done(), "a") is None


class TestERC103Facade:
    """ERC103 keeps its trigger and message shape; margin rides along."""

    def _deep_domino(self, keeper=None):
        builder = MacroBuilder("legacy", TECH)
        clk = builder.clock()
        nets = [builder.input(f"a{i}") for i in range(3)]
        for label in ("PC", "D", "E"):
            builder.size(label)
        stage = builder.domino(
            "d0", [[(net, PinClass.DATA) for net in nets]], clk,
            builder.output("out", load=4.0), "PC", "D", "E",
        )
        if keeper is not None:
            stage.params["keeper"] = keeper
        return builder.done()

    def test_flagged_circuit_still_flagged_with_margin(self):
        report = lint_circuit(self._deep_domino())
        [diag] = [d for d in report.diagnostics if d.rule_id == "ERC103"]
        assert "evaluate stack depth 3 with no keeper" in diag.message
        assert "worst-case dip" in diag.message
        assert "margin" in diag.message

    def test_keeper_still_suppresses(self):
        report = lint_circuit(self._deep_domino(keeper=0.1))
        assert not [d for d in report.diagnostics if d.rule_id == "ERC103"]

    def test_facade_agrees_with_nsa601_quantity(self):
        circuit = self._deep_domino()
        [cert] = charge_share_certificates(circuit)
        report = lint_circuit(circuit)
        [diag] = [d for d in report.diagnostics if d.rule_id == "ERC103"]
        assert f"{cert.dip:.1%}" in diag.message


class TestContractNoiseFacts:
    def test_ports_carry_noise_facts(self):
        from repro.lint.contracts import derive_contract

        contract = derive_contract(undersized_keeper(TECH))
        in_port = contract["ports"]["a"]
        out_port = contract["ports"]["out"]
        assert 0 < in_port["noise_margin"] < 1
        assert 0 < out_port["noise_inject"] <= 1.0

    def test_ctr506_fires_on_coupled_boundary(self):
        from repro.lint.diagnostics import LintReport
        from repro.lint.hier import (
            HierBlock,
            HierConnection,
            HierInstance,
            _check_noise_budget,
        )

        driver = overlong_pass_chain(TECH, 2)
        victim = undersized_keeper(TECH)
        block = HierBlock(
            name="blk",
            instances=[
                HierInstance("u_drv", driver),
                HierInstance("u_dom", victim),
            ],
            connections=[HierConnection(
                net="n1",
                driver=("u_drv", "out"),
                sinks=(("u_dom", "a"),),
                wire_cap=500.0,
            )],
        )
        contracts = {
            "u_drv": {"ports": {
                "out": {"direction": "out", "noise_inject": 1.0},
            }},
            "u_dom": {"ports": {
                "a": {
                    "direction": "in",
                    "cap_lo": 1.0,
                    "noise_margin": 0.153,
                },
            }},
        }
        report = LintReport(subject="blk")
        violated = set()
        _check_noise_budget(block, contracts, report, violated)
        [diag] = [d for d in report.diagnostics if d.rule_id == "CTR506"]
        assert "boundary coupling dip" in diag.message
        assert ("u_dom", "a") in violated

    def test_ctr506_quiet_on_small_route(self):
        from repro.lint.diagnostics import LintReport
        from repro.lint.hier import (
            HierBlock,
            HierConnection,
            HierInstance,
            _check_noise_budget,
        )

        block = HierBlock(
            name="blk",
            instances=[],
            connections=[HierConnection(
                net="n1",
                driver=("u_drv", "out"),
                sinks=(("u_dom", "a"),),
                wire_cap=1.0,
            )],
        )
        contracts = {
            "u_drv": {"ports": {
                "out": {"direction": "out", "noise_inject": 1.0},
            }},
            "u_dom": {"ports": {
                "a": {
                    "direction": "in",
                    "cap_lo": 5.0,
                    "noise_margin": 0.153,
                },
            }},
        }
        report = LintReport(subject="blk")
        _check_noise_budget(block, contracts, report, set())
        assert not report.diagnostics


class TestAdvisorIntegration:
    def test_candidate_carries_noise_margin(self):
        from repro.core.advisor import SmartAdvisor
        from repro.core.constraints import DesignConstraints

        advisor = SmartAdvisor()
        report = advisor.advise(
            MacroSpec("mux", 4, output_load=20.0),
            DesignConstraints(delay=400.0),
            topologies=["mux/unsplit_domino"],
        )
        [cand] = report.candidates
        assert cand.feasible
        assert cand.noise_margin is not None
        rendered = report.render()
        assert "electrical margins (NSA6xx)" in rendered

    def test_electrical_prescreen_rejects_pinned_violator(self):
        from repro.core.advisor import SmartAdvisor
        from repro.core.constraints import DesignConstraints

        advisor = SmartAdvisor()
        reason = advisor._electrical_gate(
            floating_internal_node(TECH),
            DesignConstraints(delay=400.0, charge_sharing_ratio=0.15),
        )
        assert reason is not None and "charge-sharing" in reason

    def test_electrical_prescreen_off_without_ratio(self):
        from repro.core.advisor import SmartAdvisor
        from repro.core.constraints import DesignConstraints

        advisor = SmartAdvisor()
        assert advisor._electrical_gate(
            floating_internal_node(TECH), DesignConstraints(delay=400.0)
        ) is None
