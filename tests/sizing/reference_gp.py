"""Slow, independent oracles for the stacked GP and its solver.

The log-sum-exp evaluator is the per-row evaluator :mod:`repro.sizing.gp`
used before the stacked program.  Every row owns a dense
``(terms x all-variables)`` exponent matrix and computes its value, gradient
and Hessian on its own, so it shares nothing with
:class:`repro.sizing.gp.StackedLogSumExp` but the posynomials; a
disagreement points at the CSR build, the segmented reductions, the pair
scatter or the pass cache.

:func:`reference_solve` is the SciPy SLSQP solver the interior-point method
replaced, run on those dense rows.
"""

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import optimize

from repro.posy import Posynomial


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


def reference_rows(
    posynomials: Sequence[Posynomial], index: Mapping[str, int], y: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Row values ``(rows,)`` and Jacobian ``(rows, variables)`` at ``y``,
    one dense row at a time."""
    rows = [_LogSumExp.from_posynomial(p, index) for p in posynomials]
    values = np.array([row.value(y) for row in rows])
    jacobian = np.array([row.grad(y) for row in rows]).reshape(len(rows), len(index))
    return values, jacobian


def reference_hessian(
    posynomials: Sequence[Posynomial],
    index: Mapping[str, int],
    y: np.ndarray,
    lam: np.ndarray,
) -> np.ndarray:
    """``sum_i lam_i grad2 F_i(y)``, one dense row Hessian
    ``A' diag(p) A - g g'`` at a time."""
    total = np.zeros((len(index), len(index)))
    for posy, weight in zip(posynomials, lam):
        row = _LogSumExp.from_posynomial(posy, index)
        e = row._exponents(y)
        p = np.exp(e - e.max())
        p /= p.sum()
        g = p @ row.A
        total += weight * ((row.A.T * p) @ row.A - np.outer(g, g))
    return total


class _DenseRows:
    """``values``/``jacobian`` of a row list, one dense row at a time: the
    interface the SLSQP oracle below reads."""

    def __init__(self, posynomials: Sequence[Posynomial], index: Mapping[str, int]):
        self._rows = [_LogSumExp.from_posynomial(p, index) for p in posynomials]
        self._width = len(index)
        self.rows = len(self._rows)

    def values(self, y: np.ndarray) -> np.ndarray:
        return np.array([row.value(y) for row in self._rows])

    def jacobian(self, y: np.ndarray) -> np.ndarray:
        return np.array([row.grad(y) for row in self._rows]).reshape(
            self.rows, self._width
        )


#: SLSQP ``ftol`` of the oracle's phase-1 and main solves.  The solver
#: the interior-point method replaced ran at 1e-8, which stops short of a
#: box-corner optimum by up to ~3e-5 relative on the two-variable property
#: programs; at 1e-10 the oracle is accurate enough to pin objectives to
#: 1e-6.
SLSQP_TOL = 1e-10

#: Objective scale of the oracle's polish solve (see :func:`reference_solve`).
POLISH_SCALE = 10.0


def reference_solve(
    gp, initial: Optional[Mapping[str, float]] = None
) -> Tuple[str, Optional[float]]:
    """Solve ``gp`` with SciPy SLSQP, the solver :mod:`repro.sizing.gp` used
    before its interior-point method (at a tighter ``SLSQP_TOL``): a
    phase-1 SLSQP solve that minimizes the worst row violation when the
    start point violates a row, then the main SLSQP solve on the log-space
    program, then a polish solve from the main solve's point.

    Returns ``("raise", None)`` where the old solver raised
    ``GPInfeasibleError``, else ``(status, objective)``.
    """
    names = gp.variables()
    if not names:
        return "optimal", gp.objective.evaluate({})
    index = {name: i for i, name in enumerate(names)}
    lower = np.array([math.log(gp.bounds(n)[0]) for n in names])
    upper = np.array([math.log(gp.bounds(n)[1]) for n in names])
    y0 = lower + 0.25 * (upper - lower)
    for name, value in (initial or {}).items():
        if name in index and math.isfinite(value) and value > 0.0:
            y0[index[name]] = math.log(value)
    y0 = np.clip(y0, lower, upper)
    objective = _DenseRows([gp.objective], index)
    rows = _DenseRows([c.expr for c in gp.inequalities], index)

    constraints = []
    if rows.rows:
        if float(rows.values(y0).max()) > 0.0:
            y0, worst = _slsqp_phase1(y0, rows, lower, upper)
            if worst > 1e-4:
                return "raise", None
        constraints.append({
            "type": "ineq",
            "fun": lambda y: -rows.values(y),
            "jac": lambda y: -rows.jacobian(y),
        })
    def main_solve(start, scale):
        result = optimize.minimize(
            lambda y: scale * objective.values(y)[0],
            start,
            jac=lambda y: scale * objective.jacobian(y)[0],
            bounds=list(zip(lower, upper)),
            constraints=constraints,
            method="SLSQP",
            options={"maxiter": 400, "ftol": SLSQP_TOL},
        )
        y = np.clip(result.x, lower, upper)
        return result, y, float(np.expm1(rows.values(y)).max(initial=0.0))

    result, y, max_violation = main_solve(y0, 1.0)
    # Polish: where the objective barely changes along an active row (one
    # term dominates it), SLSQP stops short of the optimum by more than
    # 1e-6 relative.  A restart from its point on the objective scaled by
    # POLISH_SCALE reaches it; the polish is kept only when it lowers the
    # objective without raising the worst violation.
    _polished, y_polish, polish_violation = main_solve(y, POLISH_SCALE)
    if polish_violation <= max(max_violation, 1e-9) and (
        objective.values(y_polish)[0] < objective.values(y)[0]
    ):
        y, max_violation = y_polish, polish_violation
    if max_violation >= 5e-3:
        status = "infeasible"
    elif result.success and max_violation < 1e-4:
        status = "optimal"
    else:
        status = "inaccurate"
    env = {name: math.exp(y[index[name]]) for name in names}
    return status, gp.objective.evaluate(env)


def _slsqp_phase1(
    y0: np.ndarray, rows: _DenseRows, lower: np.ndarray, upper: np.ndarray
) -> Tuple[np.ndarray, float]:
    """Minimize the worst row violation (with slack variable s)."""
    s0 = float(rows.values(y0).max()) + 0.1
    z0 = np.concatenate([y0, [s0]])
    ones = np.ones((rows.rows, 1))
    grad = np.zeros_like(z0)
    grad[-1] = 1.0
    result = optimize.minimize(
        lambda z: z[-1],
        z0,
        jac=lambda z: grad,
        bounds=list(zip(lower, upper)) + [(-10.0, s0 + 1.0)],
        constraints=[{
            "type": "ineq",
            "fun": lambda z: z[-1] - rows.values(z[:-1]),
            "jac": lambda z: np.hstack([-rows.jacobian(z[:-1]), ones]),
        }],
        method="SLSQP",
        options={"maxiter": 300, "ftol": SLSQP_TOL},
    )
    y = np.clip(result.x[:-1], lower, upper)
    return y, float(rows.values(y).max())
