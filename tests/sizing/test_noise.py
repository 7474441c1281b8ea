"""Domino charge-sharing (noise / reliability) constraint tests.

SMART generates "constraints for timing, slopes and noise" (Section 5); the
noise constraint bounds each domino node's internal leg diffusion against the
precharge device's node charge.  The transient simulator verifies the effect
physically: a noise-constrained sizing droops less under the worst-case
charge-sharing event.
"""

import pytest

from repro.macros import MacroSpec
from repro.posy import is_posynomial_in
from repro.sim import TransientSimulator, clock, constant, step
from repro.sizing import DelaySpec, SmartSizer
from repro.sizing.engine import nominal_delay

RATIO = 1.0


class TestConstraintGeneration:
    def test_noise_constraints_emitted_when_enabled(self, domino_mux, library):
        from repro.sizing import ConstraintGenerator, PathExtractor, prune_paths

        paths = prune_paths(domino_mux, PathExtractor(domino_mux).extract()).paths
        on = ConstraintGenerator(
            domino_mux, library, DelaySpec(data=300.0, charge_sharing_ratio=RATIO)
        ).generate(paths)
        off = ConstraintGenerator(
            domino_mux, library, DelaySpec(data=300.0)
        ).generate(paths)
        assert on.noise
        assert not off.noise

    def test_noise_expr_posynomial(self, domino_mux, library):
        from repro.sizing import ConstraintGenerator, PathExtractor, prune_paths

        paths = prune_paths(domino_mux, PathExtractor(domino_mux).extract()).paths
        cs = ConstraintGenerator(
            domino_mux, library, DelaySpec(data=300.0, charge_sharing_ratio=RATIO)
        ).generate(paths)
        for noise in cs.noise:
            assert is_posynomial_in(noise.expr, domino_mux.size_table.names())

    def test_internal_cap_zero_for_single_series(self, database, library, tech):
        """A 1-deep domino (zero detect) has no internal leg nodes; the foot
        is actively clamped, so no charge-sharing constraint is emitted."""
        zdet = database.generate(
            "zero_detect/domino", MacroSpec("zero_detect", 8), tech
        )
        stage = next(s for s in zdet.stages if s.is_dynamic)
        model = library.model(stage)
        internal = model.internal_charge_cap(stage, zdet.size_table)
        assert len(internal) == 0

    def test_internal_cap_uses_deepest_leg(self, database, library, tech):
        """The adder's ragged K nodes (legs up to series 4) expose 3
        internal nodes in the worst event."""
        adder = database.generate(
            "adder/dual_rail_domino_cla", MacroSpec("adder", 16), tech
        )
        stage = adder.stage("K0_dom")
        model = library.model(stage)
        internal = model.internal_charge_cap(stage, adder.size_table)
        env = adder.size_table.default_env()
        w_data = adder.size_table.monomial(stage.label("data")).evaluate(env)
        expected = 2.0 * library.tech.c_diff * 3 * w_data
        assert internal.evaluate(env) == pytest.approx(expected)


class TestSizingEffect:
    def test_constraint_grows_precharge(self, database, library, tech):
        spec = MacroSpec("mux", 8, output_load=30.0)
        plain = database.generate("mux/unsplit_domino", spec, tech)
        budget = nominal_delay(plain, library)
        unconstrained = SmartSizer(plain, library).size(DelaySpec(data=budget))

        noisy = database.generate("mux/unsplit_domino", spec, tech)
        constrained = SmartSizer(noisy, library).size(
            DelaySpec(data=budget, charge_sharing_ratio=RATIO)
        )
        assert constrained.converged
        ratio_unc = unconstrained.resolved["P1"] / unconstrained.resolved["N1"]
        ratio_con = constrained.resolved["P1"] / constrained.resolved["N1"]
        assert ratio_con > ratio_unc

    def test_constraint_satisfied_at_solution(self, database, library, tech):
        spec = MacroSpec("mux", 8, output_load=30.0)
        circuit = database.generate("mux/unsplit_domino", spec, tech)
        budget = nominal_delay(circuit, library)
        result = SmartSizer(circuit, library).size(
            DelaySpec(data=budget, charge_sharing_ratio=RATIO)
        )
        stage = next(s for s in circuit.stages if s.is_dynamic)
        model = library.model(stage)
        internal = model.internal_charge_cap(stage, circuit.size_table).evaluate(
            result.widths
        )
        allowed = RATIO * library.tech.c_diff * result.resolved["P1"]
        assert internal <= allowed * 1.01


class TestPhysicalDroop:
    """Worst-case charge sharing measured with the switch-level simulator."""

    def _droop(self, circuit, widths, tech) -> float:
        """Precharge, pre-discharge the internal nodes, evaluate with the
        selected data low: the dynamic node's minimum voltage is the droop."""
        devices = circuit.expand_transistors(widths)
        extra = {
            n.name: n.fixed_cap for n in circuit.nets.values() if n.fixed_cap > 0
        }
        sim = TransientSimulator(devices, tech, extra_caps=extra)
        stim = {"clk": clock(tech.vdd, period=2400.0, cycles=1, start_low=1200.0)}
        n = 8
        for i in range(n):
            # Select 0 rises at evaluate with its data low: the leg conducts
            # down to the pre-discharged internal node but not to ground —
            # pure charge sharing.  (A constant-on select would let the node
            # precharge through the leg and hide the hazard.)
            stim[f"s{i}"] = (
                step(tech.vdd, at=1230.0, rise=15.0)
                if i == 0
                else constant(0.0)
            )
            stim[f"in{i}"] = constant(0.0)
        result = sim.run(stim, duration=2400.0, dt=2.0)
        eval_window = result.v("dyn")[int(1250 / 2):int(2350 / 2)]
        return float(eval_window.min())

    def test_constrained_sizing_droops_less(self, database, library, tech):
        spec = MacroSpec("mux", 8, output_load=30.0)
        budget = nominal_delay(
            database.generate("mux/unsplit_domino", spec, tech), library
        )

        plain_circuit = database.generate("mux/unsplit_domino", spec, tech)
        plain = SmartSizer(plain_circuit, library).size(DelaySpec(data=budget))

        noisy_circuit = database.generate("mux/unsplit_domino", spec, tech)
        constrained = SmartSizer(noisy_circuit, library).size(
            DelaySpec(data=budget, charge_sharing_ratio=0.8)
        )

        v_plain = self._droop(plain_circuit, plain.resolved, tech)
        v_constrained = self._droop(noisy_circuit, constrained.resolved, tech)
        assert v_constrained >= v_plain - 1e-3
