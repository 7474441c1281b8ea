"""GP solver tests: known-optimum problems, constraints, infeasibility."""

import math

import numpy as np
import pytest

from repro.obs import trace
from repro.posy import as_posynomial, var
from repro.sizing.gp import GeometricProgram, GPError, GPInfeasibleError


class TestKnownOptima:
    def test_unconstrained_hits_lower_bounds(self):
        gp = GeometricProgram(as_posynomial(var("x") + var("y")))
        gp.set_bounds("x", 1.0, 10.0)
        gp.set_bounds("y", 2.0, 10.0)
        sol = gp.solve()
        assert sol.optimal
        assert sol.env["x"] == pytest.approx(1.0, rel=1e-3)
        assert sol.env["y"] == pytest.approx(2.0, rel=1e-3)

    def test_x_plus_inverse_x(self):
        """min x + 1/x has optimum 2 at x = 1."""
        gp = GeometricProgram(var("x") + 1.0 / var("x"))
        gp.set_bounds("x", 0.01, 100.0)
        sol = gp.solve()
        assert sol.env["x"] == pytest.approx(1.0, rel=1e-3)
        assert sol.objective == pytest.approx(2.0, rel=1e-4)

    def test_constrained_area_problem(self):
        """min x*y subject to 1/(x*y) <= 1 -> optimum x*y = 1."""
        gp = GeometricProgram(as_posynomial(var("x") * var("y")))
        gp.add_inequality(1.0 / (var("x") * var("y")), "min_area")
        gp.set_bounds("x", 0.1, 10.0)
        gp.set_bounds("y", 0.1, 10.0)
        sol = gp.solve()
        assert sol.objective == pytest.approx(1.0, rel=1e-3)

    def test_classic_two_term_tradeoff(self):
        """min 1/x + x^2: d/dx = -1/x^2 + 2x = 0 -> x = (1/2)^(1/3)."""
        gp = GeometricProgram(1.0 / var("x") + var("x") ** 2)
        gp.set_bounds("x", 0.01, 100.0)
        sol = gp.solve()
        assert sol.env["x"] == pytest.approx(0.5 ** (1.0 / 3.0), rel=1e-3)


class TestUpperBoundHelper:
    def test_add_upper_bound_scales(self):
        gp = GeometricProgram(var("x"))
        gp.add_upper_bound(var("y"), 5.0, "cap")
        gp.set_bounds("x", 1.0, 2.0)
        gp.set_bounds("y", 0.1, 100.0)
        sol = gp.solve()
        assert sol.env["y"] <= 5.0 + 1e-6

    def test_nonpositive_limit_rejected(self):
        gp = GeometricProgram(var("x"))
        with pytest.raises(GPError):
            gp.add_upper_bound(var("x"), 0.0)


class TestDegenerateInputs:
    def test_empty_objective_rejected(self):
        from repro.posy import Posynomial

        with pytest.raises(GPError):
            GeometricProgram(Posynomial.zero())

    def test_trivial_constant_constraint_ok(self):
        gp = GeometricProgram(var("x"))
        gp.add_inequality(as_posynomial(0.5), "ok")  # 0.5 <= 1 holds
        gp.set_bounds("x", 1.0, 2.0)
        assert gp.solve().optimal

    def test_constant_violated_constraint_raises(self):
        gp = GeometricProgram(var("x"))
        with pytest.raises(GPInfeasibleError):
            gp.add_inequality(as_posynomial(2.0), "bad")

    def test_invalid_bounds(self):
        gp = GeometricProgram(var("x"))
        with pytest.raises(GPError):
            gp.set_bounds("x", -1.0, 2.0)
        with pytest.raises(GPError):
            gp.set_bounds("x", 3.0, 2.0)


class TestInfeasibility:
    def test_box_vs_constraint_conflict(self):
        """x <= 0.5 with bounds x >= 1 is infeasible."""
        gp = GeometricProgram(var("x"))
        gp.add_upper_bound(var("x"), 0.5, "tight")
        gp.set_bounds("x", 1.0, 10.0)
        with pytest.raises(GPInfeasibleError):
            gp.solve()

    def test_two_conflicting_constraints(self):
        gp = GeometricProgram(var("x") + var("y"))
        gp.add_upper_bound(var("x") * var("y"), 0.5, "small")
        gp.add_upper_bound(4.0 / (var("x") * var("y")), 1.0, "big")  # xy >= 4
        gp.set_bounds("x", 0.1, 10.0)
        gp.set_bounds("y", 0.1, 10.0)
        with pytest.raises(GPInfeasibleError):
            gp.solve()


class TestSolutionIntrospection:
    def _solved(self):
        gp = GeometricProgram(var("x") + var("y"))
        gp.add_upper_bound(1.0 / (var("x") * var("y")), 1.0, "area")
        gp.set_bounds("x", 0.1, 10.0)
        gp.set_bounds("y", 0.1, 10.0)
        return gp, gp.solve()

    def test_margins(self):
        gp, sol = self._solved()
        margins = sol.constraint_margins(gp)
        assert set(margins) == {"area"}
        assert margins["area"] >= -1e-4

    def test_tight_constraints(self):
        gp, sol = self._solved()
        assert "area" in sol.tight_constraints(gp, tol=1e-2)

    def test_no_variables(self):
        gp = GeometricProgram(as_posynomial(3.0))
        sol = gp.solve()
        assert sol.optimal
        assert sol.objective == pytest.approx(3.0)

    def test_warm_start_used(self):
        gp = GeometricProgram(var("x") + 1.0 / var("x"))
        gp.set_bounds("x", 0.01, 100.0)
        sol = gp.solve(initial={"x": 1.0})
        assert sol.env["x"] == pytest.approx(1.0, rel=1e-3)


class TestWarmStartRobustness:
    """``initial`` comes from caches and earlier iterations, so the solver
    must tolerate stale names, out-of-box values, and junk."""

    def _gp(self):
        gp = GeometricProgram(var("x") + 1.0 / var("x"))
        gp.set_bounds("x", 0.5, 100.0)
        return gp

    def test_unknown_names_dropped(self):
        sol = self._gp().solve(initial={"x": 1.0, "gone_label": 7.0})
        assert sol.optimal
        assert sol.env["x"] == pytest.approx(1.0, rel=1e-3)

    def test_out_of_bounds_value_clamped(self):
        # 1e6 is far above the upper bound; the solve must still succeed
        sol = self._gp().solve(initial={"x": 1e6})
        assert sol.optimal
        assert 0.5 - 1e-6 <= sol.env["x"] <= 100.0 + 1e-6

    def test_below_lower_bound_clamped(self):
        sol = self._gp().solve(initial={"x": 1e-9})
        assert sol.optimal

    def test_nonfinite_values_ignored(self):
        sol = self._gp().solve(
            initial={"x": float("nan"), "y": float("inf")}
        )
        assert sol.optimal
        assert sol.env["x"] == pytest.approx(1.0, rel=1e-3)

    def test_non_numeric_values_ignored(self):
        sol = self._gp().solve(initial={"x": "not-a-width", "y": None})
        assert sol.optimal

    def test_negative_values_ignored(self):
        sol = self._gp().solve(initial={"x": -3.0})
        assert sol.optimal


class TestInteriorPointEdgeCases:
    """What an interior-point method needs: a nonempty interior for every
    solved variable and a start point strictly inside the box."""

    def test_pinned_variable_is_folded_as_a_constant(self):
        """min x + y s.t. xy >= 4 with x pinned at 2: y = 2."""
        gp = GeometricProgram(var("x") + var("y"))
        gp.add_upper_bound(4.0 / (var("x") * var("y")), 1.0, "prod")
        gp.set_bounds("x", 2.0, 2.0)
        gp.set_bounds("y", 0.1, 10.0)
        sol = gp.solve()
        assert sol.optimal
        assert sol.env["x"] == 2.0
        assert sol.env["y"] == pytest.approx(2.0, rel=1e-6)
        assert sol.objective == pytest.approx(4.0, rel=1e-6)

    def test_every_variable_pinned(self):
        gp = GeometricProgram(var("x") * var("y"))
        gp.add_upper_bound(var("x") / var("y"), 1.0, "ratio")
        gp.set_bounds("x", 1.5, 1.5)
        gp.set_bounds("y", 3.0, 3.0)
        sol = gp.solve()
        assert sol.optimal
        assert sol.env == {"x": 1.5, "y": 3.0}
        assert sol.objective == pytest.approx(4.5)

    def test_pinned_variable_violating_a_row_raises_with_certificate(self):
        gp = GeometricProgram(var("x") + var("y"))
        gp.add_upper_bound(var("x"), 1.0, "cap")
        gp.set_bounds("x", 2.0, 2.0)
        gp.set_bounds("y", 0.1, 10.0)
        with pytest.raises(GPInfeasibleError) as info:
            gp.solve()
        assert info.value.bound > 0.0
        assert list(info.value.weights) == [1.0]
        assert info.value.point[gp.variables().index("x")] == pytest.approx(
            math.log(2.0)
        )

    @pytest.mark.parametrize("start", [0.5, 100.0, 1e-9, 1e9])
    def test_start_on_or_outside_a_face_moves_strictly_inside(self, start):
        gp = GeometricProgram(var("x") + 1.0 / var("x"))
        gp.set_bounds("x", 0.5, 100.0)
        lower, upper = np.log([0.5]), np.log([100.0])
        y0 = gp._initial_point(["x"], {"x": 0}, lower, upper, {"x": start})
        assert lower[0] < y0[0] < upper[0]
        assert gp.solve(initial={"x": start}).optimal

    def test_optimum_on_a_box_face(self):
        """min x on [1, 10], started at the face the optimum sits on."""
        gp = GeometricProgram(as_posynomial(var("x")))
        gp.set_bounds("x", 1.0, 10.0)
        sol = gp.solve(initial={"x": 1.0})
        assert sol.optimal
        assert sol.objective == pytest.approx(1.0, rel=1e-6)

    def test_no_rows(self):
        gp = GeometricProgram(var("x") + 4.0 / var("x"))
        gp.set_bounds("x", 0.1, 10.0)
        sol = gp.solve()
        assert sol.optimal
        assert sol.objective == pytest.approx(4.0, rel=1e-6)

    def test_iterations_count_phase1_and_main_newton_steps(self):
        gp = GeometricProgram(var("x") + var("y"))
        gp.add_upper_bound(4.0 / (var("x") * var("y")), 1.0, "prod")
        gp.set_bounds("x", 0.1, 10.0)
        gp.set_bounds("y", 0.1, 10.0)
        with trace.tracing_scope() as tracer:
            with tracer.span("gp_solve") as span:
                sol = gp.solve(initial={"x": 0.2, "y": 0.2})  # violates prod
        assert span.attrs["phase1_steps"] > 0
        assert span.attrs["newton_steps"] > 0
        assert 0.0 < span.attrs["duality_gap"] <= 1e-9
        assert sol.iterations == (
            span.attrs["phase1_steps"] + span.attrs["newton_steps"]
        )
