"""Property-based GP solver tests: feasibility, optimality, infeasibility
certificates, and agreement with the SLSQP oracle in ``reference_gp.py``."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.posy import Monomial, Posynomial, var
from repro.sizing.gp import GeometricProgram, GPInfeasibleError

from .reference_gp import reference_rows, reference_solve

VARS = ("x", "y")


@st.composite
def random_gp(draw):
    """A random bounded GP over two variables with achievable constraints.

    Constraints are built to be satisfiable by construction: for a witness
    point w we only add constraints with f(w) <= 1.
    """
    witness = {
        name: draw(st.floats(min_value=0.5, max_value=5.0)) for name in VARS
    }
    objective = Posynomial.from_terms(
        [
            Monomial(
                draw(st.floats(min_value=0.1, max_value=10.0)),
                {name: draw(st.sampled_from([-1.0, 1.0, 2.0])) for name in VARS},
            )
            for _ in range(draw(st.integers(min_value=1, max_value=3)))
        ]
    )
    gp = GeometricProgram(objective)
    for name in VARS:
        gp.set_bounds(name, 0.1, 50.0)
    n_constraints = draw(st.integers(min_value=0, max_value=3))
    for i in range(n_constraints):
        expr = Posynomial.from_terms(
            [
                Monomial(
                    draw(st.floats(min_value=0.1, max_value=2.0)),
                    {
                        name: draw(st.sampled_from([-1.0, 0.0, 1.0]))
                        for name in VARS
                    },
                )
                for _ in range(draw(st.integers(min_value=1, max_value=2)))
            ]
        )
        value = expr.evaluate(witness)
        # Scale so the witness satisfies it with ~20% margin.
        gp.add_inequality(expr / (1.25 * value), f"c{i}")
    return gp, witness


@settings(max_examples=30, deadline=None)
@given(random_gp())
def test_solver_finds_feasible_point(problem):
    gp, witness = problem
    sol = gp.solve(initial=witness)
    assert sol.max_violation <= 5e-3


@settings(max_examples=30, deadline=None)
@given(random_gp())
def test_solution_no_worse_than_witness(problem):
    """The optimum must not exceed the known-feasible witness objective."""
    gp, witness = problem
    sol = gp.solve(initial=witness)
    if sol.status == "optimal":
        assert sol.objective <= gp.objective.evaluate(witness) * (1 + 1e-4)


def _on_grid(posy, grid):
    """``posy`` evaluated at every point of ``grid`` (name -> array)."""
    total = np.zeros_like(next(iter(grid.values())))
    for mono in posy:
        term = np.full_like(total, mono.coefficient)
        for name, exp in mono.exponents.items():
            term *= grid[name] ** exp
        total += term
    return total


@settings(max_examples=30, deadline=None)
@given(random_gp())
def test_solution_no_worse_than_grid(problem):
    """Solver-independent reference: an optimal solve is no worse than the
    best feasible point of a dense log-spaced grid over the box.  The grid
    step is small enough that some point near the witness is feasible."""
    gp, witness = problem
    axes = [np.geomspace(*gp.bounds(name), 401) for name in VARS]
    grid = dict(zip(VARS, np.meshgrid(*axes, indexing="ij")))
    feasible = np.ones(grid[VARS[0]].shape, dtype=bool)
    for constraint in gp.inequalities:
        feasible &= _on_grid(constraint.expr, grid) <= 1.0
    best = _on_grid(gp.objective, grid)[feasible].min()
    sol = gp.solve(initial=witness)
    if sol.status == "optimal":
        assert sol.objective <= best * (1 + 1e-3)


@settings(max_examples=20, deadline=None)
@given(
    st.floats(min_value=0.2, max_value=5.0),
    st.floats(min_value=0.2, max_value=5.0),
)
def test_scaling_invariance(a, b):
    """Scaling the objective by a constant scales the optimum, same argmin."""
    base = GeometricProgram(a * var("x") + a / var("x"))
    base.set_bounds("x", 0.01, 100.0)
    scaled = GeometricProgram(a * b * var("x") + a * b / var("x"))
    scaled.set_bounds("x", 0.01, 100.0)
    s1, s2 = base.solve(), scaled.solve()
    assert s2.objective == pytest.approx(b * s1.objective, rel=1e-3)
    assert s2.env["x"] == pytest.approx(s1.env["x"], rel=1e-2)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=1.2, max_value=10.0))
def test_tightening_constraint_raises_objective(limit):
    """min x+y s.t. xy >= limit: tighter limit -> larger optimum (2*sqrt)."""
    gp = GeometricProgram(var("x") + var("y"))
    gp.add_upper_bound(limit / (var("x") * var("y")), 1.0, "prod")
    gp.set_bounds("x", 0.01, 1000.0)
    gp.set_bounds("y", 0.01, 1000.0)
    sol = gp.solve()
    assert sol.objective == pytest.approx(2.0 * limit ** 0.5, rel=1e-2)


# -- the interior-point solver against the SLSQP oracle ---------------------


@st.composite
def random_verdict_gp(draw):
    """A random GP over two variables that may be infeasible.

    Next to the witness-feasible rows of :func:`random_gp`, "tight" rows are
    scaled so the witness violates them by a drawn factor; they may or may
    not leave a feasible point.  Programs whose verdict a grid cannot tell
    apart from the boundary (worst-row minimum within 0.05 of zero in log
    units) are discarded: both solvers only promise a verdict up to their
    tolerances there.
    """
    gp, witness = draw(random_gp())
    for i in range(draw(st.integers(min_value=0, max_value=3))):
        expr = Posynomial.from_terms(
            [
                Monomial(
                    draw(st.floats(min_value=0.1, max_value=2.0)),
                    {name: draw(st.sampled_from([-1.0, 0.0, 1.0])) for name in VARS},
                )
                for _ in range(draw(st.integers(min_value=1, max_value=2)))
            ]
        )
        if expr.is_constant():
            continue
        factor = draw(st.floats(min_value=0.2, max_value=0.9))
        gp.add_inequality(expr / (factor * expr.evaluate(witness)), f"tight{i}")
    axes = [np.geomspace(*gp.bounds(name), 401) for name in VARS]
    grid = dict(zip(VARS, np.meshgrid(*axes, indexing="ij")))
    worst = np.full(grid[VARS[0]].shape, -np.inf)
    for constraint in gp.inequalities:
        worst = np.maximum(worst, np.log(_on_grid(constraint.expr, grid)))
    assume(abs(worst.min()) > 0.05)
    return gp, witness, bool(worst.min() > 0)


def _verdict(gp, initial):
    """``(status, objective, error)`` of the interior-point solve."""
    try:
        sol = gp.solve(initial=initial)
    except GPInfeasibleError as exc:
        return "raise", None, exc
    return sol.status, sol.objective, None


def _row_meets_box_corner():
    """A program whose optimum sits where the active row ``x*y >= 45.16``
    meets the bound ``y <= 50``.  Along that row the objective changes by
    less than 3e-6 relative, and SLSQP without the oracle's polish stopped at
    ``y = 32.3``, 2.6e-6 above the optimum."""
    x, y = var("x"), var("y")
    gp = GeometricProgram(
        2.27819 / (x * y) + 0.5 * x / y + 2.35014 * x**2 * y**2
    )
    for name in VARS:
        gp.set_bounds(name, 0.1, 50.0)
    gp.add_inequality(7.22611 / (x * y), "c0")
    gp.add_inequality(45.1632 / (x * y), "tight0")
    gp.add_inequality(9.59596 * x / y, "tight1")
    return gp, {"x": 2.1694420058368564, "y": 4.163573741164901}, False


@settings(max_examples=60, deadline=None)
@given(random_verdict_gp())
@example(_row_meets_box_corner())
def test_interior_point_matches_slsqp_oracle(problem):
    """Same raise/no-raise verdict as the SLSQP oracle, and optimal
    objectives within 1e-6 relative."""
    gp, witness, infeasible = problem
    status, objective, _ = _verdict(gp, witness)
    ref_status, ref_objective = reference_solve(gp, witness)
    assert (status == "raise") == (ref_status == "raise") == infeasible
    if status == ref_status == "optimal":
        assert objective == pytest.approx(ref_objective, rel=1e-6)


def _recomputed_bound(gp, error):
    """The tangent-plane bound of ``error``'s certificate, recomputed with
    the dense per-row reference."""
    names = gp.variables()
    index = {name: i for i, name in enumerate(names)}
    y = error.point
    values, jacobian = reference_rows([c.expr for c in gp.inequalities], index, y)
    w = error.weights
    g = w @ jacobian
    lower = np.log([gp.bounds(name)[0] for name in names])
    upper = np.log([gp.bounds(name)[1] for name in names])
    return float(w @ values + np.minimum(g * (lower - y), g * (upper - y)).sum())


@settings(max_examples=60, deadline=None)
@given(random_verdict_gp())
def test_every_raise_carries_a_checkable_certificate(problem):
    gp, witness, _ = problem
    status, _, error = _verdict(gp, witness)
    if status != "raise":
        return
    assert (error.weights >= 0.0).all()
    assert error.weights.sum() == pytest.approx(1.0)
    assert error.bound > 0.0
    assert _recomputed_bound(gp, error) > 0.0


@settings(max_examples=30, deadline=None)
@given(random_verdict_gp())
def test_every_raise_carries_an_infeasible_solution(problem):
    """The raise wraps an ``infeasible`` :class:`GPSolution` whose
    JSON-plain certificate record is the exception's certificate."""
    gp, witness, _ = problem
    status, _, error = _verdict(gp, witness)
    if status != "raise":
        return
    solution = error.solution
    assert solution.status == "infeasible" and not solution.optimal
    record = solution.certificate
    assert record["variables"] == gp.variables()
    assert record["weights"] == [float(w) for w in error.weights]
    assert record["point"] == [float(v) for v in error.point]
    assert record["bound"] == error.bound > 0.0
    assert solution.message == str(error)


@settings(max_examples=60, deadline=None)
@given(random_gp())
def test_witness_feasible_programs_never_raise(problem):
    gp, witness = problem
    for initial in (witness, None):
        status, _, _ = _verdict(gp, initial)
        assert status != "raise"
