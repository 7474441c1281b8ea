"""DFA303 interval STA: box bounds, soundness, and the pre-GP screen.

The soundness contract under test (ISSUE acceptance):

* no circuit the sizer successfully sizes is ever ``provably-infeasible``
  at that spec (no false rejection);
* at least one over-constrained fixture per macro class is rejected
  *before any GP solve* (asserted by making ``GeometricProgram.solve``
  explode);
* ``provably-feasible`` is only claimed when the GP really is feasible.
"""

import itertools
import math

import pytest

from repro.core.editing import pin_sizes, retarget_load
from repro.lint.dataflow.framework import solve_forward
from repro.lint.dataflow.interval import (
    IntervalAnalysis,
    box_bounds,
    box_intervals,
    screen_feasibility,
)
from repro.macros import MacroSpec
from repro.macros.base import MacroBuilder
from repro.models import ModelLibrary
from repro.netlist.sizing_vars import SizeVar
from repro.obs import metrics
from repro.posy import Monomial, Posynomial
from repro.sim.timing import stage_arcs
from repro.sizing import (
    ConstraintGenerator,
    DelaySpec,
    PathExtractor,
    SizingError,
    SmartSizer,
    prune_paths,
)
from repro.sizing.engine import nominal_delay
from repro.sizing.gp import GeometricProgram


# One representative topology per macro class, at an applicable width.
CLASS_REPRESENTATIVES = [
    ("adder", "adder/dual_rail_domino_cla", 16),
    ("comparator", "comparator/xorsum1", 32),
    ("decoder", "decoder/domino", 4),
    ("decrementor", "decrementor/prefix", 8),
    ("encoder", "encoder/domino", 4),
    ("incrementor", "incrementor/prefix", 8),
    ("mux", "mux/encoded_select_2to1", 2),
    ("register_file", "register_file/domino_bitline", 8),
    ("shifter", "shifter/passgate_barrel", 8),
    ("zero_detect", "zero_detect/domino", 8),
]


def _generate(database, tech, macro_type, name, width):
    gen = database.generator(name)
    spec = MacroSpec(macro_type, width)
    assert gen.applicable(spec), (name, width)
    return gen.generate(spec, tech)


class TestPosyBoxBounds:
    """``Posynomial.enclose`` over a width box, the bound DFA303 uses."""

    BOX = {"x": (0.5, 4.0), "y": (1.0, 8.0), "z": (0.25, 2.0)}

    def _bounds(self, name):
        return self.BOX[name]

    def _brute_force(self, expr, samples=5):
        """Evaluate over a dense grid (corners included): every value must
        land inside the enclosure."""
        names = sorted(expr.variables())
        axes = [
            [self.BOX[n][0] + t * (self.BOX[n][1] - self.BOX[n][0]) / (samples - 1)
             for t in range(samples)]
            for n in names
        ]
        return [
            expr.evaluate(dict(zip(names, point)))
            for point in itertools.product(*axes)
        ]

    def test_single_monomial_bounds_are_exact(self):
        mono = Monomial(3.0, {"x": 1.0, "y": -2.0})
        expr = mono.as_posynomial()
        lo, hi = expr.enclose(self._bounds)
        values = self._brute_force(expr)
        assert lo == pytest.approx(min(values))
        assert hi == pytest.approx(max(values))

    def test_enclosure_contains_all_values(self):
        expr = Posynomial.from_terms([
            Monomial(2.0, {"x": 1.0}),
            Monomial(1.5, {"x": -1.0, "y": 1.0}),
            Monomial(0.3, {"y": -0.5, "z": 2.0}),
            Monomial.constant(0.7),
        ])
        lo, hi = expr.enclose(self._bounds)
        values = self._brute_force(expr)
        assert lo <= min(values)
        assert hi >= max(values)
        # Not vacuous: the interval is within 2x of the true range.
        assert lo >= 0.25 * min(values)
        assert hi <= 4.0 * max(values)

    def test_fractional_and_negative_exponents(self):
        expr = Posynomial.from_terms([
            Monomial(1.0, {"x": 0.5, "z": -1.5}),
            Monomial(4.0, {"y": -1.0}),
        ])
        lo, hi = expr.enclose(self._bounds)
        for value in self._brute_force(expr):
            assert lo <= value <= hi

    def test_empty_posynomial_is_zero(self):
        assert Posynomial.zero().enclose(self._bounds) == (0.0, 0.0)


class TestNoFalseRejection:
    """A spec the sizer meets must never screen as infeasible — checked
    both through the engine (pre_screen defaults on, so a successful size
    proves the screen let it through) and directly."""

    def test_chain_sizes_with_screen_enabled(self, inverter_chain, library):
        spec = DelaySpec(data=0.9 * nominal_delay(inverter_chain, library))
        sizer = SmartSizer(inverter_chain, library)
        assert sizer.pre_screen  # the default
        assert sizer.size(spec).converged
        screen = screen_feasibility(inverter_chain, library, spec)
        assert not screen.infeasible

    def test_static_mux_sizes_with_screen_enabled(self, small_mux, library):
        spec = DelaySpec(data=0.9 * nominal_delay(small_mux, library))
        assert SmartSizer(small_mux, library).size(spec).converged
        assert not screen_feasibility(small_mux, library, spec).infeasible

    def test_domino_mux_sizes_with_screen_enabled(self, domino_mux, library):
        spec = DelaySpec(data=0.9 * nominal_delay(domino_mux, library))
        assert SmartSizer(domino_mux, library).size(spec).converged
        assert not screen_feasibility(domino_mux, library, spec).infeasible


class TestOverConstrainedRejection:
    @pytest.mark.parametrize(
        "macro_type,name,width", CLASS_REPRESENTATIVES,
        ids=[name for _, name, _ in CLASS_REPRESENTATIVES],
    )
    def test_one_ps_is_provably_infeasible(
        self, database, tech, library, macro_type, name, width
    ):
        circuit = _generate(database, tech, macro_type, name, width)
        screen = screen_feasibility(circuit, library, DelaySpec(data=1.0))
        assert screen.infeasible, screen.verdict
        assert screen.report.errors  # a DFA303 finding backs the verdict
        assert any(d.rule_id == "DFA303" for d in screen.report.errors)

    def test_rejection_happens_before_any_gp_solve(
        self, database, tech, library, monkeypatch
    ):
        circuit = _generate(
            database, tech, "zero_detect", "zero_detect/domino", 8
        )

        def _boom(self, *args, **kwargs):
            raise AssertionError("GP solve reached despite the screen")

        monkeypatch.setattr(GeometricProgram, "solve", _boom)
        with pytest.raises(SizingError, match="provably"):
            SmartSizer(circuit, library).size(DelaySpec(data=1.0))

    def test_pre_screen_off_skips_the_screen(self, database, tech, library):
        """The opt-out exists for the advisor (which screens itself): with
        ``pre_screen=False`` the rejection comes from the GP-side machinery
        (GP204 pre-solve lint or the solver), never the interval screen."""
        circuit = _generate(
            database, tech, "zero_detect", "zero_detect/domino", 8
        )
        sizer = SmartSizer(circuit, library, pre_screen=False)
        with pytest.raises(SizingError) as excinfo:
            sizer.size(DelaySpec(data=1.0))
        assert "provably infeasible before GP" not in str(excinfo.value)


def _two_inverter_chain(tech):
    builder = MacroBuilder("invchain2", tech)
    a = builder.input("in")
    n1 = builder.wire("n1")
    out = builder.output("out", load=20.0)
    for label in ("P0", "N0", "P1", "N1"):
        builder.size(label)
    builder.inv("i0", a, n1, "P0", "N0")
    builder.inv("i1", n1, out, "P1", "N1")
    return builder.done()


class TestProvablyFeasible:
    def test_loose_spec_on_static_chain_is_feasible(self, tech, library):
        circuit = _two_inverter_chain(tech)
        screen = screen_feasibility(circuit, library, DelaySpec(data=400.0))
        assert screen.feasible, screen.verdict
        # The claim is checked against the real GP: it must succeed.
        result = SmartSizer(circuit, library, pre_screen=False).size(
            DelaySpec(data=400.0)
        )
        assert result.converged

    def test_multi_phase_circuit_never_claims_feasible(
        self, database, tech, library
    ):
        """Segment budgets cannot be certified from a hulled whole-path
        value, so multi-phase dominoes cap out at ``unknown``."""
        circuit = _generate(database, tech, "decoder", "decoder/domino", 4)
        screen = screen_feasibility(circuit, library, DelaySpec(data=4000.0))
        assert not screen.feasible


class TestNearBoundary:
    """Budgets a few ulps either side of the one where the verdict flips to
    ``provably-feasible``: no proved verdict may be contradicted by the
    iteration-0 constraints evaluated at the default environment."""

    @staticmethod
    def _feasible(circuit, library, budget):
        return screen_feasibility(circuit, library, DelaySpec(data=budget)).feasible

    def _flip_budget(self, circuit, library):
        """Smallest float data budget the screen proves feasible."""
        lo, hi = 1.0, 1e5
        assert not self._feasible(circuit, library, lo)
        assert self._feasible(circuit, library, hi)
        while True:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                return hi
            if self._feasible(circuit, library, mid):
                hi = mid
            else:
                lo = mid

    @pytest.fixture(params=["invchain", "invchain2"])
    def chain(self, request, tech):
        if request.param == "invchain":
            return request.getfixturevalue("inverter_chain")
        return _two_inverter_chain(tech)

    def test_feasible_verdict_holds_at_the_point(self, chain, library):
        flip = self._flip_budget(chain, library)
        assert not self._feasible(chain, library, math.nextafter(flip, 0.0))
        env = chain.size_table.default_env()
        paths = prune_paths(chain, PathExtractor(chain).extract()).paths
        budget = flip
        for _ in range(4):
            budget = math.nextafter(budget, 0.0)
        for _ in range(9):
            if self._feasible(chain, library, budget):
                constraints = ConstraintGenerator(
                    chain, library, DelaySpec(data=budget)
                ).generate(paths)
                assert constraints.timing
                for c in constraints.timing:
                    assert c.delay.evaluate(env) <= c.spec, (budget, c.name)
                for c in constraints.slopes:
                    assert c.slope.evaluate(env) <= c.limit, (budget, c.name)
                for c in constraints.noise:
                    assert c.expr.evaluate(env) <= 1.0, (budget, c.name)
            budget = math.nextafter(budget, math.inf)


class TestScreenNamesEveryStage:
    """DFA303 screens the generator's slope and noise constraints *before*
    ``generate`` merges regular duplicates, so an impossible limit on a
    regular circuit is reported once per (stage, output transition) and
    once per exposed domino stage, while the GP still gets the
    deduplicated set."""

    # (macro, topology, width, slope findings, noise findings,
    #  generated slope constraints, generated noise constraints)
    CASES = [
        ("decoder", "decoder/domino", 4, 72, 16, 6, 1),
        ("adder", "adder/dual_rail_domino_cla", 16, 596, 21, 132, 17),
    ]

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c[1])
    def test_one_finding_per_stage_transition(
        self, case, database, tech, library
    ):
        macro, name, width, n_slope, n_noise, gen_slope, gen_noise = case
        circuit = _generate(database, tech, macro, name, width)
        spec = DelaySpec(
            data=1e6, max_output_slope=1.0, max_internal_slope=1.0,
            charge_sharing_ratio=0.01,
        )
        screen = screen_feasibility(circuit, library, spec)
        assert screen.infeasible
        named = [d.location.constraint for d in screen.report.diagnostics]
        slopes = sorted(n for n in named if n.startswith("slope."))
        assert slopes == sorted(
            f"slope.{stage.name}.{trans.value}"
            for stage in circuit.stages
            for trans in {
                out
                for pin in stage.inputs
                for _in, out in stage_arcs(stage, pin)
            }
        )
        assert len(slopes) == n_slope
        assert len([n for n in named if n.startswith("noise.")]) == n_noise
        constraints = ConstraintGenerator(circuit, library, spec).generate([])
        assert (len(constraints.slopes), len(constraints.noise)) == (
            gen_slope, gen_noise,
        )


class TestWideningGoesUnknown:
    def test_cyclic_circuit_is_unknown_not_infeasible(self, tech, library):
        builder = MacroBuilder("loop", tech)
        for label in ("P", "N"):
            builder.size(label)
        a = builder.input("a")
        x, fb = builder.wire("x"), builder.wire("fb")
        builder.nand("g", [a, fb], x, "P", "N")
        builder.inv("i", x, fb, "P", "N")
        circuit = builder.done()
        screen = screen_feasibility(circuit, library, DelaySpec(data=1.0))
        assert screen.widened
        assert screen.verdict == "unknown"


class TestSharedBoxSolution:
    """``box_intervals``: one memoized box propagation per circuit state,
    always equal to a fresh one."""

    @staticmethod
    def _circuit(database, tech):
        return database.generate(
            "mux/unsplit_domino", MacroSpec("mux", 8, output_load=30.0), tech
        )

    @staticmethod
    def _fresh(circuit, library, slope=30.0):
        analysis = IntervalAnalysis(circuit, library, slope, box_bounds(circuit))
        return solve_forward(circuit, analysis).values

    def _check(self, circuit, library, before=None):
        shared = box_intervals(circuit, library, 30.0)
        assert dict(shared.values) == self._fresh(circuit, library)
        if before is not None:
            assert shared is not before
            assert dict(shared.values) != dict(before.values)
        return shared

    def test_readers_share_one_read_only_solution(self, database, tech, library):
        circuit = self._circuit(database, tech)
        with metrics.metrics_scope() as reg:
            first = box_intervals(circuit, library, 30.0)
            # Equal library content, another object: the same solution.
            assert box_intervals(circuit, ModelLibrary(tech), 30.0) is first
            assert reg.counter("lint.dataflow.interval.runs").value == 1
            assert reg.counter("lint.dataflow.interval.reused").value == 1
        assert dict(first.values) == self._fresh(circuit, library)
        with pytest.raises(TypeError):
            first.values["out"] = None
        assert box_intervals(circuit, library, 45.0) is not first

    def test_designer_pin(self, database, tech, library):
        circuit = self._circuit(database, tech)
        before = self._check(circuit, library)
        label = circuit.size_table.names()[0]
        pin_sizes(circuit, {label: circuit.size_table[label].upper})
        self._check(circuit, library, before)

    def test_regularity_tie(self, database, tech, library):
        circuit = self._circuit(database, tech)
        before = self._check(circuit, library)
        table = circuit.size_table
        rep, member = table.names()[:2]
        original = table[member]
        table._vars[member] = SizeVar(
            member, original.lower, original.upper, ratio_of=(rep, 4.0)
        )
        self._check(circuit, library, before)

    def test_bound_change(self, database, tech, library):
        circuit = self._circuit(database, tech)
        before = self._check(circuit, library)
        for var in circuit.size_table:
            var.lower *= 2.0
        self._check(circuit, library, before)

    def test_in_place_edit_forgets(self, database, tech, library):
        circuit = self._circuit(database, tech)
        before = self._check(circuit, library)
        retarget_load(circuit, circuit.primary_outputs[0], 90.0)
        self._check(circuit, library, before)
