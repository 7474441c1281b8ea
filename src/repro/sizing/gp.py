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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import optimize

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

        lse_obj = _LogSumExp.from_posynomial(self.objective, index)
        lse_cons = [
            _LogSumExp.from_posynomial(c.expr, index) for c in self.inequalities
        ]

        metrics.counter("gp.solves").inc()
        constraints = []
        if lse_cons:
            worst = max(c.value(y0) for c in lse_cons)
            if worst > 0.0:
                metrics.counter("gp.phase1_solves").inc()
                with trace.span("gp_phase1", violation=round(worst, 4)):
                    y0, worst = _phase1(y0, lse_cons, lower, upper)
                if worst > 1e-4:
                    metrics.counter("gp.infeasible").inc()
                    raise GPInfeasibleError(
                        f"phase-1 could not find a feasible point "
                        f"(max log-violation {worst:.3g})"
                    )
            constraints.append({
                "type": "ineq",
                "fun": lambda y: -np.array([c.value(y) for c in lse_cons]),
                "jac": lambda y: -np.array([c.grad(y) for c in lse_cons]),
            })

        result = optimize.minimize(
            lse_obj.value,
            y0,
            jac=lse_obj.grad,
            bounds=list(zip(lower, upper)),
            constraints=constraints,
            method="SLSQP",
            options={"maxiter": MAX_ITERATIONS, "ftol": TOL},
        )

        y = np.clip(result.x, lower, upper)
        env = {name: float(math.exp(y[index[name]])) for name in names}
        max_violation = max(
            (c.expr.evaluate(env) - 1.0 for c in self.inequalities), default=0.0
        )

        if max_violation >= 5e-3:
            status = "infeasible"
        elif result.success and max_violation < 1e-4:
            status = "optimal"
        else:
            status = "inaccurate"

        metrics.histogram("gp.solver_iterations").observe(int(result.nit))
        metrics.counter(f"gp.status.{status}").inc()
        trace.add_attrs(variables=len(names), constraints=len(lse_cons))

        return GPSolution(
            status=status,
            env=env,
            objective=self.objective.evaluate(env),
            iterations=int(result.nit),
            max_violation=float(max(0.0, max_violation)),
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


def _phase1(
    y0: np.ndarray,
    lse_cons: Sequence["_LogSumExp"],
    lower: np.ndarray,
    upper: np.ndarray,
) -> Tuple[np.ndarray, float]:
    """Minimize the worst constraint violation (with slack variable s)."""
    s0 = max(c.value(y0) for c in lse_cons) + 0.1
    z0 = np.concatenate([y0, [s0]])

    def objective(z: np.ndarray) -> float:
        return z[-1]

    def objective_grad(z: np.ndarray) -> np.ndarray:
        grad = np.zeros_like(z)
        grad[-1] = 1.0
        return grad

    def slack(z: np.ndarray) -> np.ndarray:
        return np.array([z[-1] - c.value(z[:-1]) for c in lse_cons])

    def slack_jac(z: np.ndarray) -> np.ndarray:
        return np.array(
            [np.concatenate([-c.grad(z[:-1]), [1.0]]) for c in lse_cons]
        )

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
    worst = max(c.value(y) for c in lse_cons)
    return y, worst


@dataclass
class _LogSumExp:
    """``log sum_k exp(b_k + A_k . y)`` with analytic gradient."""

    A: np.ndarray  # (terms, vars) exponent matrix
    b: np.ndarray  # (terms,) log coefficients

    @classmethod
    def from_posynomial(cls, posy: Posynomial, index: Mapping[str, int]) -> "_LogSumExp":
        terms = posy.terms
        A = np.zeros((len(terms), len(index)))
        b = np.zeros(len(terms))
        for k, mono in enumerate(terms):
            b[k] = math.log(mono.coefficient)
            for name, exp in mono.signature:
                A[k, index[name]] = exp
        return cls(A=A, b=b)

    def _exponents(self, y: np.ndarray) -> np.ndarray:
        return self.b + self.A @ y

    def value(self, y: np.ndarray) -> float:
        e = self._exponents(y)
        m = float(e.max())
        return m + math.log(float(np.exp(e - m).sum()))

    def grad(self, y: np.ndarray) -> np.ndarray:
        e = self._exponents(y)
        w = np.exp(e - e.max())
        w /= w.sum()
        return w @ self.A
