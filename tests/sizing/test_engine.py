"""Figure-4 engine tests: convergence, spec classes, objectives, pinning."""

import pytest

from repro.sim import StaticTimingAnalyzer
from repro.sizing import DelaySpec, SizingError, SmartSizer
from repro.sizing.engine import (
    measure_class_delays,
    measure_slopes,
    nominal_delay,
    spec_from_measurement,
)


class TestConvergence:
    def test_chain_converges(self, inverter_chain, library):
        nom = nominal_delay(inverter_chain, library)
        result = SmartSizer(inverter_chain, library).size(DelaySpec(data=nom))
        assert result.converged
        assert result.worst_violation <= 2.0

    def test_realized_meets_spec_via_sta(self, inverter_chain, library):
        nom = nominal_delay(inverter_chain, library)
        spec = DelaySpec(data=0.9 * nom)
        result = SmartSizer(inverter_chain, library).size(spec)
        assert result.converged
        report = StaticTimingAnalyzer(inverter_chain, library).analyze(
            result.widths, input_slope=spec.input_slope
        )
        assert report.worst(inverter_chain.primary_outputs) <= spec.data + 2.0

    def test_mux_converges(self, small_mux, library):
        nom = nominal_delay(small_mux, library)
        result = SmartSizer(small_mux, library).size(DelaySpec(data=0.9 * nom))
        assert result.converged

    def test_domino_converges(self, domino_mux, library):
        nom = nominal_delay(domino_mux, library)
        result = SmartSizer(domino_mux, library).size(DelaySpec(data=0.9 * nom))
        assert result.converged
        assert result.clock_load > 0

    def test_widths_within_bounds(self, small_mux, library):
        nom = nominal_delay(small_mux, library)
        result = SmartSizer(small_mux, library).size(DelaySpec(data=0.9 * nom))
        for name, width in result.widths.items():
            var = small_mux.size_table[name]
            assert var.lower - 1e-6 <= width <= var.upper + 1e-6

    def test_history_recorded(self, small_mux, library):
        nom = nominal_delay(small_mux, library)
        result = SmartSizer(small_mux, library).size(DelaySpec(data=0.9 * nom))
        assert len(result.history) == result.iterations
        assert result.history[0].iteration == 0

    def test_infeasible_spec_raises(self, inverter_chain, library):
        with pytest.raises(SizingError):
            SmartSizer(inverter_chain, library).size(DelaySpec(data=1.0))

    def test_unreachable_but_feasible_spec_reports_nonconvergence(
        self, small_mux, library
    ):
        """A spec below the topology's floor but above GP-infeasibility must
        yield converged=False, not an exception."""
        nom = nominal_delay(small_mux, library)
        try:
            result = SmartSizer(small_mux, library).size(
                DelaySpec(data=0.35 * nom), max_outer_iterations=4
            )
            assert not result.converged or result.worst_violation <= 2.0
        except SizingError:
            pass  # also acceptable: detected as infeasible outright


class TestTighterSpecCostsArea:
    def test_area_monotone_in_delay(self, small_mux, library):
        nom = nominal_delay(small_mux, library)
        loose = SmartSizer(small_mux, library).size(DelaySpec(data=1.2 * nom))
        tight = SmartSizer(small_mux, library).size(DelaySpec(data=0.8 * nom))
        assert tight.area > loose.area


class TestObjectives:
    def test_clock_objective_reduces_clock_load(self, domino_mux, library):
        nom = nominal_delay(domino_mux, library)
        spec = DelaySpec(data=nom)
        area_result = SmartSizer(domino_mux, library, objective="area").size(spec)
        clock_result = SmartSizer(domino_mux, library, objective="clock").size(spec)
        assert clock_result.clock_load <= area_result.clock_load * 1.05

    def test_power_objective_runs(self, domino_mux, library):
        nom = nominal_delay(domino_mux, library)
        result = SmartSizer(domino_mux, library, objective="power").size(
            DelaySpec(data=nom)
        )
        assert result.converged

    def test_unknown_objective_rejected(self, small_mux, library):
        with pytest.raises(ValueError):
            SmartSizer(small_mux, library, objective="speed").objective_posynomial()


class TestDesignerPins:
    def test_pinned_label_untouched(self, small_mux, library):
        small_mux.size_table.pin("P3", 12.0)
        try:
            nom = nominal_delay(small_mux, library)
            result = SmartSizer(small_mux, library).size(DelaySpec(data=nom))
            assert result.resolved["P3"] == pytest.approx(12.0)
            assert "P3" not in result.widths
        finally:
            small_mux.size_table.unpin("P3")


class TestMeasurementHelpers:
    def test_nominal_delay_positive(self, small_mux, library):
        assert nominal_delay(small_mux, library) > 0

    def test_measure_class_delays_keys(self, domino_mux, library):
        env = domino_mux.size_table.default_env()
        classes = measure_class_delays(domino_mux, library, env)
        assert "evaluate" in classes
        assert "precharge" in classes
        assert all(v > 0 for v in classes.values())

    def test_measure_slopes(self, small_mux, library):
        env = small_mux.size_table.default_env()
        out_slope, int_slope = measure_slopes(small_mux, library, env)
        assert out_slope > 0 and int_slope > 0

    def test_spec_from_measurement_mapping(self):
        spec = spec_from_measurement(
            {"data": 100.0, "control": 130.0, "precharge": 80.0}
        )
        assert spec.data == 100.0
        assert spec.control == 130.0
        assert spec.precharge == pytest.approx(80.0 * 2.5)
        assert spec.evaluate is None

    def test_spec_from_measurement_empty_rejected(self):
        with pytest.raises(ValueError):
            spec_from_measurement({})


class TestRetargetClamp:
    """The "new delay specification" multipliers are clamped to [0.3, 1.5]
    so one wildly mis-modeled path cannot swing the next GP round."""

    @staticmethod
    def _retarget_for(measured, predicted, spec=100.0, damping=1.0):
        import numpy as np

        from repro.posy.rows import MonomialIndex, PosyRow
        from repro.sizing.constraints import ConstraintSet, TimingConstraint

        class ConstantRows:
            """A row source whose every path delays ``predicted`` ps."""

            def row(self, hops, start):
                return PosyRow(
                    MonomialIndex(()), np.zeros(1, dtype=np.intp),
                    np.array([predicted]),
                )

        constraints = ConstraintSet(
            timing=[
                TimingConstraint("p0", spec, "data", (), ConstantRows(), 30.0)
            ]
        )
        sizer = SmartSizer.__new__(SmartSizer)  # _retarget needs no state
        return sizer._retarget(constraints, {"p0": measured}, {}, damping)

    def test_over_tight_clamped_low(self):
        # measured far above prediction -> target would go negative
        assert self._retarget_for(measured=500.0, predicted=10.0) == {
            "p0": 0.3
        }

    def test_over_loose_clamped_high(self):
        # measured far below prediction -> target would balloon
        assert self._retarget_for(measured=1.0, predicted=200.0) == {
            "p0": 1.5
        }

    def test_small_mismatch_passes_through(self):
        mult = self._retarget_for(measured=105.0, predicted=100.0)["p0"]
        assert mult == pytest.approx(0.95)

    def test_damping_halves_correction(self):
        full = self._retarget_for(measured=110.0, predicted=100.0)["p0"]
        half = self._retarget_for(
            measured=110.0, predicted=100.0, damping=0.5
        )["p0"]
        assert 1.0 - half == pytest.approx((1.0 - full) / 2.0)

    def test_matched_path_skipped(self):
        assert self._retarget_for(measured=100.0, predicted=100.0) == {}


class TestDampingReset:
    def test_damping_restored_after_feasible_solve(
        self, small_mux, library, monkeypatch
    ):
        """After an infeasible-retarget recovery (damping halved), the next
        *feasible* solve must restore damping to 1.0 — otherwise every later
        iteration corrects mismatches at half strength and convergence drags."""
        from repro.sizing.gp import GeometricProgram, GPInfeasibleError

        nom = nominal_delay(small_mux, library)
        calls = {"n": 0}
        real_solve = GeometricProgram.solve

        def flaky_solve(self, *args, **kwargs):
            index = calls["n"]
            calls["n"] += 1
            if index == 1:
                raise GPInfeasibleError("injected infeasibility")
            return real_solve(self, *args, **kwargs)

        damping_seen = []
        real_retarget = SmartSizer._retarget

        def spy_retarget(self, constraints, realized, env, damping):
            damping_seen.append(damping)
            return real_retarget(self, constraints, realized, env, damping)

        monkeypatch.setattr(GeometricProgram, "solve", flaky_solve)
        monkeypatch.setattr(SmartSizer, "_retarget", spy_retarget)

        # tolerance=-inf forbids convergence so every feasible iteration
        # retargets: it0 optimal, it1 injected-infeasible, it2 optimal
        result = SmartSizer(small_mux, library, pre_screen=False).size(
            DelaySpec(data=nom), tolerance=-1e9, max_outer_iterations=3
        )
        assert result.gp_fallback_count == 1
        assert damping_seen[0] == 1.0
        assert len(damping_seen) == 2
        assert damping_seen[1] == 1.0

    def test_iteration_counts_do_not_regress(self, small_mux, library):
        """The Figure-4 loop still converges in few iterations (the damping
        reset must not destabilize the plain path)."""
        nom = nominal_delay(small_mux, library)
        result = SmartSizer(small_mux, library).size(DelaySpec(data=0.9 * nom))
        assert result.converged
        assert result.iterations <= 4


class TestPruningIntegration:
    def test_prune_stats_attached(self, small_mux, library):
        nom = nominal_delay(small_mux, library)
        result = SmartSizer(small_mux, library).size(DelaySpec(data=nom))
        assert result.prune_stats is not None
        assert result.prune_stats.initial >= result.prune_stats.final

    def test_disable_pruning_same_answer(
        self, inverter_chain, library, monkeypatch
    ):
        from repro.netlist.memo import forget
        from repro.sizing import PathExtractor, engine, prune_paths

        nom = nominal_delay(inverter_chain, library)
        pruned = SmartSizer(inverter_chain, library).size(DelaySpec(data=nom))
        forget(inverter_chain)
        monkeypatch.setattr(
            engine, "prune_paths",
            lambda circuit: prune_paths(
                circuit, PathExtractor(circuit).extract(),
                use_precedence=False, use_dominance=False,
                use_regularity=False,
            ),
        )
        full = SmartSizer(inverter_chain, library).size(DelaySpec(data=nom))
        assert full.prune_stats.final == full.prune_stats.initial
        assert full.area == pytest.approx(pruned.area, rel=0.05)


class TestAuditReusesFrontEnd:
    """Every sizer and audit of one circuit state reads one front end, kept
    in the circuit's memo; anything it depends on gets a fresh one."""

    @staticmethod
    def _mux(database, tech):
        from repro.macros import MacroSpec

        return database.generate(
            "mux/strong_mutex_passgate", MacroSpec("mux", 4, output_load=30.0), tech
        )

    def test_certificate_generates_no_second_constraint_set(
        self, database, tech, library, monkeypatch
    ):
        from repro.cache.store import SizingCache
        from repro.lint.solution.certificate import SolutionCertificateStore
        from repro.sizing.constraints import ConstraintGenerator

        circuit = self._mux(database, tech)
        spec = DelaySpec(data=1.1 * nominal_delay(circuit, library))
        generated = []
        generate = ConstraintGenerator.generate

        def counted(generator, paths):
            generated.append(generator)
            return generate(generator, paths)

        monkeypatch.setattr(ConstraintGenerator, "generate", counted)
        cache = SizingCache(certificates=SolutionCertificateStore())
        result = SmartSizer(circuit, library, cache=cache).size(spec)
        assert result.certificate is not None and result.certificate["ok"]
        assert len(generated) == 1
        assert set(result.certificate["specs"]) == set(result.specs)

    def test_front_end_held_only_for_the_same_state(self, database, tech, library):
        import dataclasses

        from repro.models import ModelLibrary
        from repro.netlist.memo import forget

        circuit = self._mux(database, tech)
        spec = DelaySpec(data=1.1 * nominal_delay(circuit, library))
        sizer = SmartSizer(circuit, library)
        sizer.size(spec)
        held = sizer._front_end(spec)
        assert held[1].timing
        assert SmartSizer(circuit, ModelLibrary(tech))._front_end(spec) is held
        other = dataclasses.replace(spec, data=spec.data * 1.1)
        assert sizer._front_end(other) is not held
        sizer.otb_borrow = 5.0
        assert sizer._front_end(spec) is not held
        sizer.otb_borrow = 0.0
        slower = ModelLibrary(dataclasses.replace(tech, slope_sensitivity=0.3))
        assert SmartSizer(circuit, slower)._front_end(spec) is not held
        name = circuit.size_table.free_names()[0]
        var = circuit.size_table[name]
        original = circuit.size_table._vars[name]
        circuit.size_table.pin(name, var.lower)
        assert sizer._front_end(spec) is not held
        circuit.size_table._vars[name] = original
        tied = circuit.size_table.free_names()[1]
        circuit.size_table._vars[tied] = dataclasses.replace(
            circuit.size_table[tied], ratio_of=(name, 1.0)
        )
        assert sizer._front_end(spec) is not held
        circuit.size_table._vars[tied] = dataclasses.replace(
            circuit.size_table[tied], ratio_of=None
        )
        assert sizer._front_end(spec) is held
        forget(circuit)
        assert sizer._front_end(spec) is not held

    def test_infeasible_front_end_is_not_held(
        self, inverter_chain, library, monkeypatch
    ):
        from repro.sizing.constraints import ConstraintGenerator, ConstraintSet

        calls = []

        def empty(generator, paths):
            calls.append(generator)
            return ConstraintSet()

        monkeypatch.setattr(ConstraintGenerator, "generate", empty)
        sizer = SmartSizer(inverter_chain, library)
        for _ in range(2):
            with pytest.raises(SizingError, match="no timing constraints"):
                sizer._front_end(DelaySpec(data=100.0))
        assert len(calls) == 2

    def test_circuit_dies_with_its_sizer_and_audit(self, database, tech, library):
        import gc
        import weakref

        from repro.cache.store import SizingCache
        from repro.lint.solution.audit import SolutionAudit
        from repro.lint.solution.certificate import SolutionCertificateStore

        circuit = self._mux(database, tech)
        spec = DelaySpec(data=1.1 * nominal_delay(circuit, library))
        cache = SizingCache(certificates=SolutionCertificateStore())
        sizer = SmartSizer(circuit, library, cache=cache)
        result = sizer.size(spec)
        audit = SolutionAudit(circuit, library, spec)
        assert audit.feasibility(result.widths)["ok"]
        alive = weakref.ref(circuit)
        del circuit, sizer, audit
        gc.collect()
        assert alive() is None


class TestWideAdderMeetsSpec:
    """The default-labelled 16-bit ripple adder has 655,319 raw paths and
    a 32-stage carry chain.  The sizer constrains the exact pruned path
    set, so a converged result meets its spec on the full STA, and the
    audit, which reads the same set, agrees; a spec the carry chain cannot
    meet is refused with phase 1's certificate."""

    @pytest.fixture(scope="class")
    def adder16(self, database, tech, library):
        from repro.macros import MacroSpec

        circuit = database.generate(
            "adder/static_ripple", MacroSpec("adder", 16), tech
        )
        return circuit, nominal_delay(circuit, library)

    def test_converged_result_meets_spec_on_full_sta(self, adder16, library):
        from repro.lint.solution.audit import SolutionAudit

        circuit, nom = adder16
        spec = DelaySpec(data=0.75 * nom)
        tolerance = 2.0
        result = SmartSizer(circuit, library).size(spec, tolerance=tolerance)
        assert result.converged
        worst = StaticTimingAnalyzer(circuit, library).analyze(
            result.widths, input_slope=spec.input_slope
        ).worst(circuit.primary_outputs)
        assert worst <= spec.data + tolerance
        certificate = SolutionAudit(
            circuit, library, spec, tolerance=tolerance
        ).certify(result.widths, cache_key="adder16", with_kkt=False)
        assert certificate.ok
        assert max(certificate.realized.values()) == pytest.approx(
            worst, abs=tolerance
        )

    def test_unreachable_spec_refused_with_certificate(self, adder16, library):
        circuit, nom = adder16
        with pytest.raises(SizingError) as info:
            SmartSizer(circuit, library).size(DelaySpec(data=0.6 * nom))
        assert info.value.certificate is not None
