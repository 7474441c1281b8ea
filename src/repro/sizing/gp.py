"""Geometric program formulation and solver.

Section 5 of the paper: SMART keeps every timing/slope/noise model posynomial
so the sizing problem is a geometric program, "transformed into convex problems
that can be solved efficiently and quickly, in a numerically stable fashion".

A GP in standard form:

    minimize    f0(x)                      (posynomial)
    subject to  fi(x) <= 1, i = 1..m       (posynomials)
                lb_k <= x_k <= ub_k        (variable bounds)

With ``x = exp(y)`` each posynomial becomes a log-sum-exp function of ``y``
(convex) and bounds become box constraints on ``y``.  We solve the convex
problem with SciPy's SLSQP using analytic gradients, preceded by a phase-1
SLSQP feasibility solve when the initial point violates a constraint.

Every log-sum-exp row is evaluated through one :class:`StackedLogSumExp`: all
terms of all rows in one sparse exponent matrix, so an SLSQP callback costs a
fixed handful of numpy operations however many rows the program has.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import optimize, sparse

from ..netlist.sizing_vars import DEFAULT_BOUNDS
from ..obs import metrics, trace
from ..posy import Posynomial, as_posynomial

#: SLSQP ``ftol`` of the phase-1 and main solves.
TOL = 1e-8
#: SLSQP iteration limit of the main solve.
MAX_ITERATIONS = 400


class GPError(Exception):
    """Raised for malformed geometric programs."""


class GPInfeasibleError(GPError):
    """Raised when the solver proves (numerically) that no point satisfies
    the constraints."""


@dataclass
class GPConstraint:
    """One inequality constraint ``expr <= 1`` with a diagnostic name."""

    expr: Posynomial
    name: str = ""

    def margin(self, env: Mapping[str, float]) -> float:
        """``1 - expr(env)``; nonnegative when satisfied."""
        return 1.0 - self.expr.evaluate(env)


@dataclass
class GPSolution:
    """Result of a GP solve."""

    status: str
    env: Dict[str, float]
    objective: float
    iterations: int
    max_violation: float
    message: str = ""

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"

    def constraint_margins(self, program: "GeometricProgram") -> Dict[str, float]:
        """Margins (1 - f_i(x)) for every named inequality constraint."""
        return {c.name: c.margin(self.env) for c in program.inequalities}

    def tight_constraints(self, program: "GeometricProgram", tol: float = 1e-3) -> List[str]:
        """Names of constraints active (within ``tol``) at the solution."""
        return [
            c.name
            for c in program.inequalities
            if abs(c.margin(self.env)) <= tol
        ]


class GeometricProgram:
    """A geometric program in standard form.

    Build incrementally with :meth:`add_inequality` (``posy <= 1`` — use
    :meth:`add_upper_bound` for the common ``posy <= limit`` shape) and
    :meth:`set_bounds`, then call :meth:`solve`.
    """

    def __init__(self, objective: Posynomial):
        objective = as_posynomial(objective)
        if len(objective) == 0:
            raise GPError("objective must be a nonempty posynomial")
        self.objective = objective
        self.inequalities: List[GPConstraint] = []
        self._bounds: Dict[str, Tuple[float, float]] = {}
        self._default_bounds = DEFAULT_BOUNDS

    # -- construction ------------------------------------------------------

    def add_inequality(self, expr: Posynomial, name: str = "") -> None:
        """Add ``expr <= 1``."""
        expr = as_posynomial(expr)
        if len(expr) == 0:
            return  # 0 <= 1 trivially holds
        if expr.is_constant():
            if expr.constant_part() > 1.0 + 1e-12:
                raise GPInfeasibleError(
                    f"constraint {name or expr!r} is constant and violated"
                )
            return
        self.inequalities.append(GPConstraint(expr, name or f"ineq{len(self.inequalities)}"))

    def add_upper_bound(self, expr: Posynomial, limit: float, name: str = "") -> None:
        """Add ``expr <= limit`` for ``limit > 0``."""
        if limit <= 0:
            raise GPError(f"upper bound for {name!r} must be positive, got {limit}")
        self.add_inequality(as_posynomial(expr) / limit, name)

    def set_bounds(self, variable: str, lower: float, upper: float) -> None:
        """Box bounds ``lower <= x <= upper`` (both strictly positive)."""
        if not 0 < lower <= upper:
            raise GPError(f"invalid bounds for {variable}: [{lower}, {upper}]")
        self._bounds[variable] = (lower, upper)

    def bounds(self, variable: str) -> Tuple[float, float]:
        return self._bounds.get(variable, self._default_bounds)

    def variables(self) -> List[str]:
        names = set(self.objective.variables())
        for constraint in self.inequalities:
            names.update(constraint.expr.variables())
        names.update(self._bounds)
        return sorted(names)

    # -- solving -----------------------------------------------------------

    def solve(self, initial: Optional[Mapping[str, float]] = None) -> GPSolution:
        """Solve the GP.  Returns a :class:`GPSolution`.

        Raises :class:`GPInfeasibleError` when even the phase-1 problem cannot
        drive the worst constraint violation near zero.
        """
        names = self.variables()
        if not names:
            return GPSolution(
                status="optimal",
                env={},
                objective=self.objective.evaluate({}),
                iterations=0,
                max_violation=0.0,
            )
        index = {name: i for i, name in enumerate(names)}

        lower = np.array([math.log(self.bounds(n)[0]) for n in names])
        upper = np.array([math.log(self.bounds(n)[1]) for n in names])

        y0 = self._initial_point(names, index, lower, upper, initial)

        objective = StackedLogSumExp([self.objective], index)
        rows = StackedLogSumExp([c.expr for c in self.inequalities], index)
        metrics.counter("gp.solves").inc()
        trace.add_attrs(
            variables=len(names),
            constraints=rows.rows,
            terms=rows.terms,
            nonzeros=rows.nonzeros,
        )
        try:
            y, result = _minimize(y0, objective, rows, lower, upper)
        finally:
            metrics.counter("gp.exponent_passes").inc(rows.passes)

        env = {name: float(math.exp(y[index[name]])) for name in names}
        max_violation = float(np.expm1(rows.values(y)).max(initial=0.0))

        if max_violation >= 5e-3:
            status = "infeasible"
        elif result.success and max_violation < 1e-4:
            status = "optimal"
        else:
            status = "inaccurate"

        metrics.histogram("gp.solver_iterations").observe(int(result.nit))
        metrics.counter(f"gp.status.{status}").inc()

        return GPSolution(
            status=status,
            env=env,
            objective=self.objective.evaluate(env),
            iterations=int(result.nit),
            max_violation=max_violation,
            message=str(result.message),
        )

    # -- internals ---------------------------------------------------------

    def _initial_point(
        self,
        names: Sequence[str],
        index: Mapping[str, int],
        lower: np.ndarray,
        upper: np.ndarray,
        initial: Optional[Mapping[str, float]],
    ) -> np.ndarray:
        # Default: geometric middle biased toward small sizes, which is where
        # minimum-area optima live.
        y0 = lower + 0.25 * (upper - lower)
        if initial:
            # Warm starts come from caches and prior iterations, so tolerate
            # anything: unknown names are dropped, non-numeric / non-finite /
            # non-positive values ignored, out-of-bounds values clamped into
            # the (log-space) box instead of poisoning the solve.
            for name, value in initial.items():
                i = index.get(name)
                if i is None:
                    continue
                try:
                    value = float(value)
                except (TypeError, ValueError):
                    continue
                if not math.isfinite(value) or value <= 0.0:
                    continue
                y0[i] = min(upper[i], max(lower[i], math.log(value)))
        return np.clip(y0, lower, upper)


def _minimize(
    y0: np.ndarray,
    objective: "StackedLogSumExp",
    rows: "StackedLogSumExp",
    lower: np.ndarray,
    upper: np.ndarray,
) -> Tuple[np.ndarray, optimize.OptimizeResult]:
    """Phase 1 when ``y0`` violates a row, then the main SLSQP solve."""
    constraints = []
    if rows.rows:
        worst = float(rows.values(y0).max())
        if worst > 0.0:
            metrics.counter("gp.phase1_solves").inc()
            with trace.span("gp_phase1", violation=round(worst, 4)):
                y0, worst = _phase1(y0, rows, lower, upper)
            if worst > 1e-4:
                metrics.counter("gp.infeasible").inc()
                raise GPInfeasibleError(
                    f"phase-1 could not find a feasible point "
                    f"(max log-violation {worst:.3g})"
                )
        constraints.append({
            "type": "ineq",
            "fun": lambda y: -rows.values(y),
            "jac": lambda y: -rows.jacobian(y),
        })

    result = optimize.minimize(
        lambda y: objective.values(y)[0],
        y0,
        jac=lambda y: objective.jacobian(y)[0],
        bounds=list(zip(lower, upper)),
        constraints=constraints,
        method="SLSQP",
        options={"maxiter": MAX_ITERATIONS, "ftol": TOL},
    )
    return np.clip(result.x, lower, upper), result


def _phase1(
    y0: np.ndarray,
    rows: "StackedLogSumExp",
    lower: np.ndarray,
    upper: np.ndarray,
) -> Tuple[np.ndarray, float]:
    """Minimize the worst constraint violation (with slack variable s)."""
    s0 = float(rows.values(y0).max()) + 0.1
    z0 = np.concatenate([y0, [s0]])
    ones = np.ones((rows.rows, 1))

    def objective(z: np.ndarray) -> float:
        return z[-1]

    def objective_grad(z: np.ndarray) -> np.ndarray:
        grad = np.zeros_like(z)
        grad[-1] = 1.0
        return grad

    def slack(z: np.ndarray) -> np.ndarray:
        return z[-1] - rows.values(z[:-1])

    def slack_jac(z: np.ndarray) -> np.ndarray:
        return np.hstack([-rows.jacobian(z[:-1]), ones])

    bounds = list(zip(lower, upper)) + [(-10.0, s0 + 1.0)]
    result = optimize.minimize(
        objective,
        z0,
        jac=objective_grad,
        bounds=bounds,
        constraints=[{"type": "ineq", "fun": slack, "jac": slack_jac}],
        method="SLSQP",
        options={"maxiter": 300, "ftol": TOL},
    )
    y = np.clip(result.x[:-1], lower, upper)
    worst = float(rows.values(y).max())
    return y, worst


class StackedLogSumExp:
    """Rows ``F_i(y) = log sum_k exp(b_k + A_k . y)``, one per posynomial.

    ``posy(exp(y)) = exp(F(y))`` for each posynomial, so ``F_i <= 0`` is the
    log-space form of ``posy_i <= 1``.  The terms of every row share one CSR
    exponent matrix ``A`` (terms x variables) and one log-coefficient vector
    ``b``; row ``i`` is the contiguous term segment starting at
    ``starts[i]``.  One exponent pass ``e = b + A @ y`` and a segmented
    log-sum-exp give every row value; the Jacobian is one ``bincount`` of the
    normalized term weights times ``A``'s nonzeros.

    :meth:`values` and :meth:`jacobian` at the same point share one exponent
    pass (``passes`` counts them).  The pass is keyed on a copy of ``y``:
    SLSQP reuses its ``x`` buffer, so an array identity check would return
    stale rows.  The returned arrays are that cache, marked read-only.
    """

    def __init__(self, posynomials: Sequence[Posynomial], index: Mapping[str, int]):
        width = len(index)
        counts = np.array([len(p) for p in posynomials], dtype=np.intp)
        if (counts == 0).any():
            raise GPError("every stacked row needs at least one term")
        b: List[float] = []
        cols: List[int] = []
        data: List[float] = []
        indptr = [0]
        for posy in posynomials:
            for mono in posy.terms:
                b.append(math.log(mono.coefficient))
                for name, exp in mono.signature:
                    cols.append(index[name])
                    data.append(exp)
                indptr.append(len(cols))
        self.rows = len(counts)
        self.terms = len(b)
        self.nonzeros = len(cols)
        self.passes = 0
        self._width = width
        self._A = sparse.csr_matrix(
            (np.array(data), np.array(cols, dtype=np.intp), np.array(indptr)),
            shape=(self.terms, width),
        )
        self._b = np.array(b)
        self._starts = np.cumsum(counts) - counts
        self._term_row = np.repeat(np.arange(self.rows), counts)
        self._nonzero_term = np.repeat(
            np.arange(self.terms), np.diff(self._A.indptr)
        )
        self._flat = self._term_row[self._nonzero_term] * width + self._A.indices
        # The latest exponent pass: its point, row values and normalized
        # term weights, and the Jacobian once asked for.
        self._point: Optional[np.ndarray] = None
        self._values: Optional[np.ndarray] = None
        self._weights: Optional[np.ndarray] = None
        self._jacobian: Optional[np.ndarray] = None

    def _exponent_pass(self, y: np.ndarray) -> None:
        if self._point is not None and np.array_equal(y, self._point):
            return
        self._point = np.array(y, dtype=float)
        self.passes += 1
        e = self._b + self._A @ self._point
        mx = np.maximum.reduceat(e, self._starts)
        w = np.exp(e - mx[self._term_row])
        s = np.add.reduceat(w, self._starts)
        self._values = mx + np.log(s)
        self._values.flags.writeable = False
        self._weights = w / s[self._term_row]
        self._jacobian = None

    def values(self, y: np.ndarray) -> np.ndarray:
        """``F(y)``, shape ``(rows,)``."""
        self._exponent_pass(y)
        return self._values

    def jacobian(self, y: np.ndarray) -> np.ndarray:
        """``dF/dy``, shape ``(rows, variables)``."""
        self._exponent_pass(y)
        if self._jacobian is None:
            self._jacobian = np.bincount(
                self._flat,
                weights=self._weights[self._nonzero_term] * self._A.data,
                minlength=self.rows * self._width,
            ).reshape(self.rows, self._width)
            self._jacobian.flags.writeable = False
        return self._jacobian
