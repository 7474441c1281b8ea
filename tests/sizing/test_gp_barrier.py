"""Interior-point (log-barrier) GP solver tests — agreement with SLSQP."""

import pytest

from repro.posy import as_posynomial, var
from repro.sizing.gp import GeometricProgram, GPError


def _box(gp, *names, lo=0.01, hi=100.0):
    for name in names:
        gp.set_bounds(name, lo, hi)


class TestKnownOptima:
    def test_x_plus_inverse_x(self):
        gp = GeometricProgram(var("x") + 1.0 / var("x"))
        _box(gp, "x")
        sol = gp.solve(method="barrier")
        assert sol.env["x"] == pytest.approx(1.0, rel=1e-3)
        assert sol.objective == pytest.approx(2.0, rel=1e-4)

    def test_constrained_product(self):
        """min x+y s.t. xy >= 4 -> x = y = 2."""
        gp = GeometricProgram(var("x") + var("y"))
        gp.add_upper_bound(4.0 / (var("x") * var("y")), 1.0, "prod")
        _box(gp, "x", "y")
        sol = gp.solve(method="barrier")
        assert sol.env["x"] == pytest.approx(2.0, rel=1e-2)
        assert sol.env["y"] == pytest.approx(2.0, rel=1e-2)
        assert sol.max_violation <= 1e-4

    def test_bound_constrained(self):
        gp = GeometricProgram(as_posynomial(var("x") + var("y")))
        gp.set_bounds("x", 1.5, 10.0)
        gp.set_bounds("y", 2.5, 10.0)
        sol = gp.solve(method="barrier")
        assert sol.env["x"] == pytest.approx(1.5, rel=1e-2)
        assert sol.env["y"] == pytest.approx(2.5, rel=1e-2)

    def test_equality_as_penalty(self):
        gp = GeometricProgram(var("x") + var("y"))
        gp.add_equality(var("x"), 4.0 * var("y"))
        gp.set_bounds("x", 0.1, 100.0)
        gp.set_bounds("y", 1.0, 100.0)
        sol = gp.solve(method="barrier")
        assert sol.env["x"] == pytest.approx(4.0 * sol.env["y"], rel=1e-2)


class TestAgreementWithSLSQP:
    @pytest.mark.parametrize("limit", [2.0, 5.0, 20.0])
    def test_same_objective(self, limit):
        def build():
            gp = GeometricProgram(
                var("x") * var("y") + 3.0 / var("x") + 1.0 / var("y")
            )
            gp.add_upper_bound(limit / (var("x") * var("y")), 1.0, "prod")
            _box(gp, "x", "y")
            return gp

        a = build().solve(method="slsqp")
        b = build().solve(method="barrier")
        assert b.objective == pytest.approx(a.objective, rel=5e-3)

    def test_real_sizing_problem(self, small_mux, library):
        """The barrier solver closes the Figure-4 loop on a real macro GP."""
        from repro.sizing import DelaySpec, PathExtractor, SmartSizer, prune_paths
        from repro.sizing.constraints import ConstraintGenerator
        from repro.sizing.engine import nominal_delay

        spec = DelaySpec(data=nominal_delay(small_mux, library))
        paths = prune_paths(small_mux, PathExtractor(small_mux).extract()).paths
        generator = ConstraintGenerator(small_mux, library, spec)
        constraints = generator.generate(paths)
        sizer = SmartSizer(small_mux, library)
        gp = sizer._build_gp(constraints, {})

        slsqp = gp.solve()
        barrier = gp.solve(method="barrier")
        assert barrier.max_violation <= 1e-3
        assert barrier.objective == pytest.approx(slsqp.objective, rel=2e-2)


class TestErrors:
    def test_unknown_method(self):
        gp = GeometricProgram(var("x"))
        gp.set_bounds("x", 1.0, 2.0)
        with pytest.raises(GPError):
            gp.solve(method="genetic")


class TestEngineIntegration:
    def test_barrier_drives_full_sizing_loop(self, small_mux, library):
        """The whole Figure-4 loop converges with the interior-point solver
        and lands on (essentially) the SLSQP answer."""
        from repro.sizing import DelaySpec, SmartSizer
        from repro.sizing.engine import nominal_delay

        spec = DelaySpec(data=0.9 * nominal_delay(small_mux, library))
        slsqp = SmartSizer(small_mux, library).size(spec)
        barrier = SmartSizer(small_mux, library, gp_method="barrier").size(spec)
        assert barrier.converged
        assert barrier.area == pytest.approx(slsqp.area, rel=2e-2)
