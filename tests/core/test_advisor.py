"""SMART advisor (Figure-1 flow) tests."""

import pytest

from repro import DesignConstraints, MacroSpec, SmartAdvisor
from repro.core.advisor import PRUNE_FACTOR
from repro.sizing.engine import nominal_delay


@pytest.fixture(scope="module")
def advisor():
    return SmartAdvisor()


class TestAdvise:
    def test_mux_report_ranks_candidates(self, advisor):
        report = advisor.advise(
            MacroSpec("mux", 4, output_load=30.0),
            DesignConstraints(delay=400.0, cost="area"),
        )
        assert report.candidates
        assert report.best is not None
        ranked = report.ranked()
        feasible = [c for c in ranked if c.feasible and c.converged]
        costs = [c.cost.scalar for c in feasible]
        assert costs == sorted(costs)

    def test_best_is_lowest_cost(self, advisor):
        report = advisor.advise(
            MacroSpec("mux", 4, output_load=30.0),
            DesignConstraints(delay=400.0, cost="area"),
        )
        best = report.best
        for cand in report.feasible:
            assert best.cost.scalar <= cand.cost.scalar

    def test_impossible_budget_all_infeasible(self, advisor):
        report = advisor.advise(
            MacroSpec("mux", 4, output_load=30.0),
            DesignConstraints(delay=3.0, cost="area"),
        )
        assert report.best is None

    def test_explicit_topology_list(self, advisor):
        report = advisor.advise(
            MacroSpec("mux", 4, output_load=30.0),
            DesignConstraints(delay=400.0),
            topologies=["mux/strong_mutex_passgate", "mux/tristate"],
        )
        assert {c.topology for c in report.candidates} == {
            "mux/strong_mutex_passgate",
            "mux/tristate",
        }

    def test_render_mentions_all_candidates(self, advisor):
        report = advisor.advise(
            MacroSpec("mux", 4, output_load=30.0),
            DesignConstraints(delay=400.0),
        )
        text = report.render()
        for cand in report.candidates:
            assert cand.topology in text
        assert "best:" in text

    def test_clock_metric_prefers_static_mux(self, advisor):
        """At a relaxed delay, clock-load cost must never pick a domino mux
        over a clock-free pass-gate mux."""
        report = advisor.advise(
            MacroSpec("mux", 4, output_load=30.0),
            DesignConstraints(delay=500.0, cost="clock"),
        )
        assert report.best is not None
        assert "domino" not in report.best.topology


class TestPruning:
    def test_quick_estimate_positive(self, advisor, small_mux):
        estimate = advisor.quick_delay_estimate(
            small_mux, DesignConstraints(delay=100.0)
        )
        assert estimate > 0

    def test_hopeless_topology_pruned_without_sizing(self, advisor, library):
        """A budget far below nominal/PRUNE_FACTOR skips the sizer."""
        spec = MacroSpec("mux", 8, output_load=30.0)
        circuit = advisor.database.generate("mux/weak_mutex_passgate", spec, advisor.tech)
        nominal = nominal_delay(circuit, library)
        budget = nominal / PRUNE_FACTOR / 2.0
        report = advisor.advise(
            spec,
            DesignConstraints(delay=budget),
            topologies=["mux/weak_mutex_passgate"],
        )
        (cand,) = report.candidates
        assert not cand.feasible
        assert "pruned" in cand.reason or "infeasible" in cand.reason


class TestDesignerControls:
    def test_pinned_sizes_respected(self, advisor):
        constraints = DesignConstraints(
            delay=400.0, pinned_sizes={"P3": 15.0}
        )
        circuit, result = advisor.size_topology(
            "mux/strong_mutex_passgate",
            MacroSpec("mux", 4, output_load=30.0),
            constraints,
        )
        assert result.resolved["P3"] == pytest.approx(15.0)

    def test_size_topology_returns_circuit_and_result(self, advisor):
        circuit, result = advisor.size_topology(
            "mux/tristate",
            MacroSpec("mux", 4, output_load=30.0),
            DesignConstraints(delay=400.0),
        )
        assert circuit.name.startswith("mux4")
        assert result.converged


class TestConstraintsValidation:
    def test_bad_cost_rejected(self):
        with pytest.raises(ValueError):
            DesignConstraints(delay=100.0, cost="speed")

    def test_bad_delay_rejected(self):
        with pytest.raises(ValueError):
            DesignConstraints(delay=0.0)

    def test_scaled(self):
        c = DesignConstraints(delay=100.0, control_delay=120.0).scaled(1.5)
        assert c.delay == 150.0
        assert c.control_delay == 180.0

    def test_to_delay_spec_roundtrip(self):
        c = DesignConstraints(
            delay=100.0, evaluate_delay=90.0, otb_borrow=25.0, input_slope=20.0
        )
        spec = c.to_delay_spec()
        assert spec.data == 100.0
        assert spec.evaluate == 90.0
        assert spec.input_slope == 20.0


class TestIntervalScreenGate:
    """The interval-STA screen runs before the nominal-delay prune and the
    sizer; provably-infeasible topologies are skipped and counted."""

    def test_impossible_budget_screened_before_any_solve(self, advisor):
        report = advisor.advise(
            MacroSpec("mux", 4, output_load=30.0),
            DesignConstraints(delay=1.0, cost="area"),
            topologies=["mux/strong_mutex_passgate", "mux/tristate"],
        )
        assert report.best is None
        for cand in report.candidates:
            assert cand.screened
            assert not cand.feasible
            assert "provably-infeasible" in cand.reason

    def test_screen_count_rendered_in_report(self, advisor):
        report = advisor.advise(
            MacroSpec("mux", 4, output_load=30.0),
            DesignConstraints(delay=1.0, cost="area"),
            topologies=["mux/strong_mutex_passgate", "mux/tristate"],
        )
        text = report.render()
        assert "interval-STA screen" in text
        assert "2 topologies proven infeasible" in text

    def test_generous_budget_not_screened(self, advisor):
        report = advisor.advise(
            MacroSpec("mux", 4, output_load=30.0),
            DesignConstraints(delay=400.0, cost="area"),
            topologies=["mux/strong_mutex_passgate"],
        )
        (cand,) = report.candidates
        assert not cand.screened
        assert cand.feasible


class TestCertifyGate:
    """``certify=True``: every sized candidate carries the certificate the
    sizer issued for its widths (once, cold) or admitted its cache hit on
    (no audit, warm); a not-ok certificate demotes the candidate."""

    SPEC = MacroSpec("mux", 4, output_load=30.0)
    CONSTRAINTS = DesignConstraints(delay=400.0, cost="area")

    @pytest.fixture()
    def certify_calls(self, monkeypatch):
        from repro.lint.solution.audit import SolutionAudit

        calls = []
        certify = SolutionAudit.certify

        def counted(audit, *args, **kwargs):
            calls.append(audit.circuit.name)
            return certify(audit, *args, **kwargs)

        monkeypatch.setattr(SolutionAudit, "certify", counted)
        return calls

    def test_one_audit_cold_none_warm(self, database, certify_calls):
        from repro.cache import SizingCache
        from repro.lint.solution import SolutionCertificateStore

        cache = SizingCache(certificates=SolutionCertificateStore())
        advisor = SmartAdvisor(database=database, cache=cache, certify=True)
        cold = advisor.advise(self.SPEC, self.CONSTRAINTS)
        sized = [c for c in cold.candidates if c.sizing is not None]
        assert len(sized) >= 2
        assert len(certify_calls) == len(sized)

        del certify_calls[:]
        warm = advisor.advise(self.SPEC, self.CONSTRAINTS)
        assert certify_calls == []
        for cand in warm.candidates:
            if cand.converged:
                assert cand.sizing.cache_hit == "exact-cert"
        assert [c.certificate for c in warm.candidates] == [
            c.certificate for c in cold.candidates
        ]

    def test_without_cache_every_sized_candidate_certified(self, database):
        advisor = SmartAdvisor(database=database, certify=True)
        report = advisor.advise(self.SPEC, self.CONSTRAINTS)
        sized = [c for c in report.candidates if c.sizing is not None]
        assert sized
        for cand in sized:
            assert cand.certificate is not None
            assert cand.certificate is cand.sizing.certificate
            assert cand.certificate["ok"] == cand.feasible

    def test_rejected_certificate_demotes_candidate(
        self, database, monkeypatch
    ):
        from repro.lint.solution.audit import SolutionAudit

        monkeypatch.setattr(
            SolutionAudit,
            "feasibility",
            lambda audit, widths: {
                "ok": False, "worst_residual_ps": 9.0, "violations": [{}],
            },
        )
        report = SmartAdvisor(database=database, certify=True).advise(
            self.SPEC, self.CONSTRAINTS
        )
        sized = [c for c in report.candidates if c.sizing is not None]
        assert sized and report.best is None
        for cand in sized:
            cert = cand.certificate
            assert not cand.feasible and not cert["ok"]
            assert cand.reason == (
                "solution certificate rejected (OPT701): worst residual "
                f"{cert['worst_residual_ps']:.2f} ps vs tolerance 2.00 ps"
            )
