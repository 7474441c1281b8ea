"""Geometric program formulation and solver.

Section 5 of the paper: SMART keeps every timing/slope/noise model posynomial
so the sizing problem is a geometric program, "transformed into convex problems
that can be solved efficiently and quickly, in a numerically stable fashion".

A GP in standard form:

    minimize    f0(x)                      (posynomial)
    subject to  fi(x) <= 1, i = 1..m       (posynomials)
                gj(x) == 1, j = 1..p       (monomials)
                lb_k <= x_k <= ub_k        (variable bounds)

With ``x = exp(y)`` each posynomial becomes a log-sum-exp function of ``y``
(convex), each monomial equality a linear equality, and bounds become box
constraints on ``y``.  We solve the convex problem with SciPy's SLSQP using
analytic gradients, preceded by a phase-1 feasibility solve when the initial
point violates constraints badly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import optimize

from ..netlist.sizing_vars import DEFAULT_BOUNDS
from ..obs import metrics, trace
from ..posy import Monomial, Posynomial, as_posynomial


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
    :meth:`add_upper_bound` for the common ``posy <= limit`` shape),
    :meth:`add_equality` (monomial == monomial) and :meth:`set_bounds`,
    then call :meth:`solve`.
    """

    def __init__(self, objective: Posynomial):
        objective = as_posynomial(objective)
        if len(objective) == 0:
            raise GPError("objective must be a nonempty posynomial")
        self.objective = objective
        self.inequalities: List[GPConstraint] = []
        self.equalities: List[Tuple[Monomial, str]] = []
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

    def add_equality(self, lhs: Monomial, rhs: Monomial, name: str = "") -> None:
        """Add monomial equality ``lhs == rhs``."""
        ratio = lhs / rhs
        if ratio.is_constant():
            if not math.isclose(ratio.coefficient, 1.0, rel_tol=1e-9):
                raise GPInfeasibleError(f"equality {name!r} is constant and violated")
            return
        self.equalities.append((ratio, name or f"eq{len(self.equalities)}"))

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
        for mono, _ in self.equalities:
            names.update(mono.variables())
        names.update(self._bounds)
        return sorted(names)

    # -- solving -----------------------------------------------------------

    def solve(
        self,
        initial: Optional[Mapping[str, float]] = None,
        tol: float = 1e-8,
        max_iterations: int = 400,
        method: str = "slsqp",
    ) -> GPSolution:
        """Solve the GP.  Returns a :class:`GPSolution`.

        ``method`` selects the convex solver: ``"slsqp"`` (SciPy SQP, the
        default) or ``"barrier"`` — our own log-barrier interior-point
        method, in the spirit of the paper's reference [7] (Kortanek/Xu/Ye).
        Both operate on the same log-space convex transform.

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
        eq_rows = [
            _linear_row(mono, index, len(names)) for mono, _ in self.equalities
        ]

        metrics.counter("gp.solves").inc()
        if lse_cons:
            worst = max(c.value(y0) for c in lse_cons)
            if worst > 0.0:
                metrics.counter("gp.phase1_solves").inc()
                with trace.span("gp_phase1", violation=round(worst, 4)):
                    y0, worst = self._phase1(
                        y0, lse_cons, eq_rows, lower, upper, tol
                    )
                if worst > 1e-4:
                    metrics.counter("gp.infeasible").inc()
                    raise GPInfeasibleError(
                        f"phase-1 could not find a feasible point "
                        f"(max log-violation {worst:.3g})"
                    )

        if method == "barrier":
            y_opt, iterations, message = _barrier_solve(
                lse_obj, lse_cons, eq_rows, y0, lower, upper,
                tol=tol, max_outer=60,
            )
            result = optimize.OptimizeResult(
                x=y_opt, nit=iterations, success=True, message=message
            )
        elif method == "slsqp":
            constraints = [
                {"type": "ineq", "fun": c.neg_value, "jac": c.neg_grad}
                for c in lse_cons
            ]
            for (row, rhs), (_, name) in zip(eq_rows, self.equalities):
                constraints.append(
                    {
                        "type": "eq",
                        "fun": (lambda y, row=row, rhs=rhs: row @ y - rhs),
                        "jac": (lambda y, row=row: row),
                    }
                )

            result = optimize.minimize(
                lse_obj.value,
                y0,
                jac=lse_obj.grad,
                bounds=list(zip(lower, upper)),
                constraints=constraints,
                method="SLSQP",
                options={"maxiter": max_iterations, "ftol": tol},
            )
        else:
            raise GPError(f"unknown GP method {method!r}")

        y = np.clip(result.x, lower, upper)
        env = {name: float(math.exp(y[index[name]])) for name in names}
        max_violation = max(
            (c.expr.evaluate(env) - 1.0 for c in self.inequalities), default=0.0
        )
        for mono, _ in self.equalities:
            max_violation = max(max_violation, abs(mono.evaluate(env) - 1.0))

        status = "optimal" if (result.success and max_violation < 1e-4) else "inaccurate"
        if max_violation < 5e-3 and not result.success:
            # SLSQP occasionally reports failure on flat objectives while the
            # point is feasible and near-stationary; accept it as inaccurate.
            status = "inaccurate"
        elif max_violation >= 5e-3:
            status = "infeasible"

        metrics.histogram("gp.solver_iterations").observe(int(result.nit))
        metrics.counter(f"gp.status.{status}").inc()
        trace.add_attrs(
            variables=len(names), constraints=len(lse_cons), method=method
        )

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
        self,
        y0: np.ndarray,
        lse_cons: Sequence["_LogSumExp"],
        eq_rows: Sequence[Tuple[np.ndarray, float]],
        lower: np.ndarray,
        upper: np.ndarray,
        tol: float,
    ) -> Tuple[np.ndarray, float]:
        """Minimize the worst constraint violation (with slack variable s)."""
        n = len(y0)
        s0 = max(c.value(y0) for c in lse_cons) + 0.1
        z0 = np.concatenate([y0, [s0]])

        def objective(z: np.ndarray) -> float:
            return z[-1]

        def objective_grad(z: np.ndarray) -> np.ndarray:
            grad = np.zeros_like(z)
            grad[-1] = 1.0
            return grad

        constraints = []
        for c in lse_cons:
            constraints.append(
                {
                    "type": "ineq",
                    "fun": (lambda z, c=c: z[-1] - c.value(z[:-1])),
                    "jac": (
                        lambda z, c=c: np.concatenate([-c.grad(z[:-1]), [1.0]])
                    ),
                }
            )
        for row, rhs in eq_rows:
            constraints.append(
                {
                    "type": "eq",
                    "fun": (lambda z, row=row, rhs=rhs: row @ z[:-1] - rhs),
                    "jac": (
                        lambda z, row=row: np.concatenate([row, [0.0]])
                    ),
                }
            )
        bounds = list(zip(lower, upper)) + [(-10.0, s0 + 1.0)]
        result = optimize.minimize(
            objective,
            z0,
            jac=objective_grad,
            bounds=bounds,
            constraints=constraints,
            method="SLSQP",
            options={"maxiter": 300, "ftol": tol},
        )
        y = np.clip(result.x[:-1], lower, upper)
        worst = max(c.value(y) for c in lse_cons)
        return y, worst


@dataclass
class _LogSumExp:
    """``log sum_k exp(b_k + A_k . y)`` with analytic gradient."""

    A: np.ndarray  # (terms, vars) exponent matrix
    b: np.ndarray  # (terms,) log coefficients
    _scratch: dict = field(default_factory=dict, repr=False)

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

    def neg_value(self, y: np.ndarray) -> float:
        """``-value`` — SLSQP inequality convention is ``fun(y) >= 0``."""
        return -self.value(y)

    def neg_grad(self, y: np.ndarray) -> np.ndarray:
        return -self.grad(y)

    def hess(self, y: np.ndarray) -> np.ndarray:
        """Hessian of the log-sum-exp: ``A^T (diag(w) - w w^T) A``."""
        e = self._exponents(y)
        w = np.exp(e - e.max())
        w /= w.sum()
        weighted = self.A * w[:, None]
        return weighted.T @ self.A - np.outer(w @ self.A, w @ self.A)


def _linear_row(
    mono: Monomial, index: Mapping[str, int], width: int
) -> Tuple[np.ndarray, float]:
    """Monomial equality ``mono == 1`` as linear row ``row @ y == rhs``."""
    row = np.zeros(width)
    for name, exp in mono.signature:
        row[index[name]] = exp
    return row, -math.log(mono.coefficient)


def _strictify(
    y: np.ndarray,
    lse_cons: Sequence[_LogSumExp],
    lower: np.ndarray,
    upper: np.ndarray,
    margin: float = 1e-6,
) -> np.ndarray:
    """Push a (weakly) feasible point strictly inside the inequality set so
    the barrier is finite (box strictness handled by clipping)."""
    y = np.clip(y, lower + margin, upper - margin)
    for _ in range(200):
        values = [c.value(y) for c in lse_cons]
        worst_idx = int(np.argmax(values)) if values else -1
        if worst_idx < 0 or values[worst_idx] < -margin:
            return y
        grad = lse_cons[worst_idx].grad(y)
        norm = np.linalg.norm(grad)
        if norm < 1e-12:
            return y
        y = np.clip(y - 0.2 * grad / norm, lower + margin, upper - margin)
    return y


def _barrier_solve(
    lse_obj: _LogSumExp,
    lse_cons: Sequence[_LogSumExp],
    eq_rows: Sequence[Tuple[np.ndarray, float]],
    y0: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    tol: float = 1e-8,
    max_outer: int = 60,
    mu: float = 15.0,
    eq_penalty: float = 1e5,
) -> Tuple[np.ndarray, int, str]:
    """Log-barrier interior-point method on the log-space convex GP.

    Minimizes ``t f0(y) + phi(y)`` by damped Newton with backtracking,
    increasing ``t`` geometrically until the duality-gap bound ``m/t`` is
    below tolerance.  Monomial equalities enter as a quadratic penalty
    (exact enough at ``eq_penalty`` since they are linear in y).
    Returns ``(y, newton_iterations, message)``.
    """
    n = len(y0)
    y = _strictify(np.asarray(y0, dtype=float), lse_cons, lower, upper)
    m = len(lse_cons) + 2 * n
    t = 1.0
    total_newton = 0

    def value_grad_hess(y: np.ndarray, t: float):
        val = t * lse_obj.value(y)
        grad = t * lse_obj.grad(y)
        hess = t * lse_obj.hess(y)
        for c in lse_cons:
            fv = c.value(y)
            if fv >= 0.0:
                return math.inf, grad, hess
            fg = c.grad(y)
            val -= math.log(-fv)
            grad += fg / (-fv)
            hess += c.hess(y) / (-fv) + np.outer(fg, fg) / (fv * fv)
        dl = y - lower
        du = upper - y
        if (dl <= 0).any() or (du <= 0).any():
            return math.inf, grad, hess
        val -= float(np.log(dl).sum() + np.log(du).sum())
        grad += -1.0 / dl + 1.0 / du
        hess += np.diag(1.0 / dl ** 2 + 1.0 / du ** 2)
        # The penalty must outgrow t or the objective would buy equality
        # violations at large t; scaling with t keeps the violation bounded
        # by |grad f0| / eq_penalty independent of the barrier stage.
        pen = eq_penalty * t
        for row, rhs in eq_rows:
            r = float(row @ y - rhs)
            val += 0.5 * pen * r * r
            grad += pen * r * row
            hess += pen * np.outer(row, row)
        return val, grad, hess

    for _outer in range(max_outer):
        for _inner in range(60):
            val, grad, hess = value_grad_hess(y, t)
            try:
                step = np.linalg.solve(hess + 1e-10 * np.eye(n), -grad)
            except np.linalg.LinAlgError:
                step = -grad
            decrement = float(-grad @ step)
            if decrement / 2.0 < 1e-10:
                break
            alpha = 1.0
            for _ in range(50):
                candidate = y + alpha * step
                new_val, _g, _h = value_grad_hess(candidate, t)
                if new_val < val - 1e-12 * abs(val):
                    y = candidate
                    break
                alpha *= 0.5
            else:
                break
            total_newton += 1
        if m / t < max(tol, 1e-9):
            break
        t *= mu
    return y, total_newton, f"barrier: t={t:.3g}, newton={total_newton}"
