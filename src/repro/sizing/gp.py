"""Geometric program formulation and solver.

Section 5 of the paper: SMART keeps every timing/slope/noise model posynomial
so the sizing problem is a geometric program, "transformed into convex problems
that can be solved efficiently and quickly, in a numerically stable fashion".

A GP in standard form:

    minimize    f0(x)                      (posynomial)
    subject to  fi(x) <= 1, i = 1..m       (posynomials)
                lb_k <= x_k <= ub_k        (variable bounds)

With ``x = exp(y)`` each posynomial becomes a log-sum-exp function of ``y``
(convex) and bounds become linear rows on ``y``.  We solve the convex problem
with a primal-dual interior-point method (Boyd & Vandenberghe, algorithm
11.2; the paper cites Kortanek/Xu/Ye [7] for the same class).  When the start
point violates a row, phase 1 runs the same method on ``(y, s)``: minimize
``s`` subject to ``F_i(y) - s <= 0``.  It stops at the first ``s < 0``, a
strictly feasible start for the main solve, or at the first tangent-plane
bound that proves ``max_i F_i > 0`` over the whole box: that bound is the
certificate :class:`GPInfeasibleError` carries, inside an ``infeasible``
:class:`GPSolution`.

A program is compiled once (:meth:`GeometricProgram.compile`, cached until
the next ``add_*`` or ``set_bounds``) into a :class:`CompiledProgram`: every
term of the objective and of each row as a raw coefficient and one exponent
CSR over the sorted variable names.  The pre-solve lint
(:func:`repro.lint.rules_gp.lint_gp`) screens those arrays and the solver
stacks them: every log-sum-exp row is evaluated through one
:class:`StackedLogSumExp`, all terms of all rows in one sparse exponent
matrix, so a Newton step costs a fixed handful of numpy operations plus one
dense Cholesky however many rows the program has.  Variables with
``lower == upper`` are folded into the rows as constants, so every solved
variable has a nonempty interior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import linalg, sparse

from ..netlist.sizing_vars import DEFAULT_BOUNDS
from ..obs import metrics, trace
from ..posy import Posynomial, as_posynomial
from ..posy.rows import PosyRow

#: Surrogate duality gap (log-objective units) and dual-residual norm at
#: which a solve stops, and the margin by which phase 1's infeasibility
#: bound must clear zero to count as a proof under rounding.
TOL = 1e-9
#: Newton-step cap of each phase.
MAX_ITERATIONS = 200
#: Barrier growth: each step aims at ``t = MU * (rows + 2 variables) / gap``.
MU = 10.0
#: Backtracking line search: required residual decrease and step shrink.
ALPHA, BETA = 0.01, 0.5
#: Fraction of each variable's log-box width that keeps a start point off
#: the box faces.
INTERIOR = 1e-3

_ONE = np.ones(1)


class GPError(Exception):
    """Raised for malformed geometric programs."""


class GPInfeasibleError(GPError):
    """Raised when no point satisfies the constraints.

    A solver raise carries phase 1's certificate: ``weights`` (one per
    inequality, nonnegative, summing to one), the log-space ``point`` (one
    entry per :meth:`GeometricProgram.variables` name) and ``bound``, a lower
    bound on ``max_i log f_i`` over the whole box::

        bound = sum_i w_i F_i(y) + sum_k min(g_k (l_k - y_k), g_k (u_k - y_k))

    with ``g = sum_i w_i grad F_i(y)``.  Convexity makes the tangent planes
    under-estimate every ``F_i``, so ``bound > 0`` proves infeasibility.
    """

    def __init__(
        self,
        message: str,
        weights: Optional[np.ndarray] = None,
        point: Optional[np.ndarray] = None,
        bound: Optional[float] = None,
        solution: Optional["GPSolution"] = None,
    ):
        super().__init__(message)
        self.weights = weights
        self.point = point
        self.bound = bound
        #: The ``infeasible`` :class:`GPSolution` of a solver raise, with the
        #: certificate as a JSON-plain record (``None`` for a constant row).
        self.solution = solution


class GPConstraint:
    """One inequality constraint ``expr <= 1`` with a diagnostic name.

    A constraint added as a :class:`~repro.posy.rows.PosyRow` ``row``
    bounded by ``limit`` compiles from the row's arrays; its ``expr``
    (``row.posynomial() / limit``) is built only when read.
    """

    __slots__ = ("name", "row", "limit", "_expr")

    def __init__(
        self,
        expr: Optional[Posynomial] = None,
        name: str = "",
        row: Optional[PosyRow] = None,
        limit: float = 1.0,
    ):
        self._expr = expr
        self.name = name
        self.row = row
        self.limit = limit

    @property
    def expr(self) -> Posynomial:
        if self._expr is None:
            self._expr = self.row.posynomial() / self.limit
        return self._expr

    def margin(self, env: Mapping[str, float]) -> float:
        """``1 - expr(env)``; nonnegative when satisfied."""
        return 1.0 - self.expr.evaluate(env)


@dataclass
class GPSolution:
    """Result of a GP solve.  ``iterations`` counts Newton steps, phase 1
    included.

    ``status`` is ``optimal``, ``inaccurate`` or ``infeasible``.  A
    *certified* ``infeasible`` solution carries phase 1's certificate as
    ``certificate``: ``{"variables", "weights", "point", "bound"}`` with
    plain lists and floats (see :class:`GPInfeasibleError`);
    :meth:`GeometricProgram.solve` raises it inside a
    :class:`GPInfeasibleError` rather than returning it.  An uncertified
    ``infeasible`` (a final point that violates a row by 0.5 % or more)
    has ``certificate=None``.
    """

    status: str
    env: Dict[str, float]
    objective: float
    iterations: int
    max_violation: float
    message: str = ""
    certificate: Optional[dict] = None

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
        self._compiled: Optional[CompiledProgram] = None

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
        self._append(GPConstraint(expr, name))

    def add_upper_bound(
        self, expr: Union[Posynomial, PosyRow], limit: float, name: str = ""
    ) -> None:
        """Add ``expr <= limit`` for ``limit > 0``.  ``expr`` may be a
        :class:`~repro.posy.rows.PosyRow`, which compiles without being
        turned into a posynomial."""
        if limit <= 0:
            raise GPError(f"upper bound for {name!r} must be positive, got {limit}")
        if not isinstance(expr, PosyRow):
            self.add_inequality(as_posynomial(expr) / limit, name)
            return
        if len(expr) == 0:
            return
        if expr.is_constant():
            self.add_inequality(expr.posynomial() / limit, name)
            return
        self._append(GPConstraint(None, name, row=expr, limit=limit))

    def _append(self, constraint: GPConstraint) -> None:
        constraint.name = constraint.name or f"ineq{len(self.inequalities)}"
        self.inequalities.append(constraint)
        self._compiled = None

    def set_bounds(self, variable: str, lower: float, upper: float) -> None:
        """Box bounds ``lower <= x <= upper`` (both strictly positive)."""
        if not 0 < lower <= upper:
            raise GPError(f"invalid bounds for {variable}: [{lower}, {upper}]")
        self._bounds[variable] = (lower, upper)
        self._compiled = None

    def bounds(self, variable: str) -> Tuple[float, float]:
        return self._bounds.get(variable, self._default_bounds)

    def variables(self) -> List[str]:
        return list(self.compile().names)

    def compile(self) -> "CompiledProgram":
        """This program as arrays, compiled on the first call after the
        last change (``gp.compiles`` counts the compilations)."""
        if self._compiled is None:
            self._compiled = CompiledProgram(self)
            metrics.counter("gp.compiles").inc()
        return self._compiled

    # -- solving -----------------------------------------------------------

    def solve(self, initial: Optional[Mapping[str, float]] = None) -> GPSolution:
        """Solve the GP.  Returns a :class:`GPSolution`.

        Raises :class:`GPInfeasibleError`, with phase 1's certificate, when
        phase 1 proves that no point of the box satisfies every row.
        """
        program = self.compile()
        names = list(program.names)
        free, fixed = program.free, program.fixed
        index = {name: i for i, name in enumerate(free)}
        lower, upper = program.log_box()

        y0 = self._initial_point(free, index, lower, upper, initial)

        objective, rows = program.stacks()
        metrics.counter("gp.solves").inc()
        trace.add_attrs(
            variables=len(names),
            constraints=rows.rows,
            terms=rows.terms,
            nonzeros=rows.nonzeros,
        )
        passes = rows.passes
        try:
            run = _minimize(y0, objective, rows, lower, upper)
        finally:
            metrics.counter("gp.exponent_passes").inc(rows.passes - passes)
        metrics.counter("gp.line_search_trials").inc(run.trials)
        trace.add_attrs(
            phase1_steps=run.phase1_steps,
            newton_steps=run.steps,
            duality_gap=run.gap,
        )
        env = {name: float(math.exp(run.y[index[name]])) for name in free}
        env.update((name, self.bounds(name)[0]) for name in fixed)
        max_violation = float(np.expm1(rows.values(run.y)).max(initial=0.0))
        iterations = run.phase1_steps + run.steps

        if run.certificate is not None:
            metrics.counter("gp.infeasible").inc()
            weights, bound = run.certificate
            point = np.array([
                run.y[index[name]] if name in index else fixed[name]
                for name in names
            ])
            message = (
                f"phase 1 proved the rows infeasible over the box "
                f"(tangent-plane bound {bound:.3g} > 0 on max log-violation)"
            )
            raise GPInfeasibleError(
                message,
                weights=weights,
                point=point,
                bound=bound,
                solution=GPSolution(
                    status="infeasible",
                    env=env,
                    objective=math.nan,
                    iterations=iterations,
                    max_violation=max_violation,
                    message=message,
                    certificate={
                        "variables": names,
                        "weights": [float(w) for w in weights],
                        "point": [float(v) for v in point],
                        "bound": float(bound),
                    },
                ),
            )

        if max_violation >= 5e-3:
            status = "infeasible"
        elif run.converged and max_violation < 1e-4:
            status = "optimal"
        else:
            status = "inaccurate"

        metrics.histogram("gp.solver_iterations").observe(iterations)
        metrics.counter(f"gp.status.{status}").inc()

        return GPSolution(
            status=status,
            env=env,
            objective=self.objective.evaluate(env),
            iterations=iterations,
            max_violation=max_violation,
            message=run.message,
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
                y0[i] = math.log(value)
        # The interior-point method needs every box row strictly satisfied.
        margin = INTERIOR * (upper - lower)
        return np.clip(y0, lower + margin, upper - margin)


class CompiledProgram:
    """A :class:`GeometricProgram` as arrays.

    Row 0 is the objective and row ``i + 1`` inequality ``i``
    (``row_names`` holds ``"objective"`` and the constraint names); row
    ``r`` owns the next ``counts[r]`` terms, in sorted-signature order.
    ``coeffs`` are the terms' raw coefficients (a row-backed constraint's
    divided by its limit exactly as :meth:`GeometricProgram.add_upper_bound`
    divides a posynomial) and ``indptr`` / ``columns`` / ``exponents`` their
    exponent CSR over ``names``, the sorted program variables.  ``lower``
    and ``upper`` are every variable's box bounds; ``free`` are the
    variables with a nonempty box and ``fixed`` the others, at their log
    value.  :meth:`stacks` builds the solver's two
    :class:`StackedLogSumExp` once.
    """

    def __init__(self, gp: "GeometricProgram"):
        #: Posynomial pieces share one growing name table.
        posy_names: Dict[str, int] = {}
        pieces: list = []
        pending: List[Posynomial] = [gp.objective]
        group: List[GPConstraint] = []

        def flush_posynomials() -> None:
            if not pending:
                return
            coeffs: List[float] = []
            counts: List[int] = []
            nnz: List[int] = []
            columns: List[int] = []
            exponents: List[float] = []
            for posy in pending:
                terms = sorted(posy.items())
                counts.append(len(terms))
                for sig, coeff in terms:
                    coeffs.append(coeff)
                    nnz.append(len(sig))
                    for name, exp in sig:
                        columns.append(posy_names.setdefault(name, len(posy_names)))
                        exponents.append(exp)
            pieces.append((
                np.array(coeffs, dtype=float), counts,
                np.array(nnz, dtype=np.intp), np.array(columns, dtype=np.intp),
                np.array(exponents, dtype=float), None,
            ))
            pending.clear()

        def flush_rows() -> None:
            if not group:
                return
            index = group[0].row.index
            ids = np.concatenate([c.row.ids for c in group])
            coeffs = np.concatenate(
                [c.row.coeffs * (1.0 / c.limit) for c in group]
            )
            nnz, positions = index.nonzeros(ids)
            pieces.append((
                coeffs, [len(c.row) for c in group], nnz,
                index.columns[positions], index.exponents[positions],
                index.names,
            ))
            group.clear()

        for constraint in gp.inequalities:
            row = constraint.row
            if row is None:
                flush_rows()
                pending.append(constraint.expr)
                continue
            flush_posynomials()
            if group and group[0].row.index is not row.index:
                flush_rows()
            group.append(constraint)
        flush_posynomials()
        flush_rows()

        used = set(posy_names)
        for _c, _n, _z, columns, _e, local in pieces:
            if local is not None:
                used.update(local[i] for i in np.unique(columns).tolist())
        used.update(gp._bounds)
        self.names: Tuple[str, ...] = tuple(sorted(used))
        column = {name: i for i, name in enumerate(self.names)}
        posy_map = np.array(
            [column[name] for name in posy_names], dtype=np.intp
        )

        def mapped(columns, local):
            if local is None:
                return posy_map[columns]
            return np.array(
                [column.get(name, -1) for name in local], dtype=np.intp
            )[columns]

        self.row_names: List[str] = ["objective"] + [
            c.name for c in gp.inequalities
        ]
        self.coeffs = np.concatenate([p[0] for p in pieces])
        self.counts = np.array(
            [n for p in pieces for n in p[1]], dtype=np.intp
        )
        nnz = np.concatenate([p[2] for p in pieces])
        self.indptr = np.zeros(len(nnz) + 1, dtype=np.intp)
        np.cumsum(nnz, out=self.indptr[1:])
        self.columns = np.concatenate(
            [mapped(p[3], p[5]) for p in pieces]
        ).astype(np.intp, copy=False)
        self.exponents = np.concatenate([p[4] for p in pieces])
        bounds = [gp.bounds(name) for name in self.names]
        self.lower = np.array([lo for lo, _hi in bounds], dtype=float)
        self.upper = np.array([hi for _lo, hi in bounds], dtype=float)
        self._free = self.lower != self.upper
        self.free: List[str] = [
            name for name, free in zip(self.names, self._free) if free
        ]
        self.fixed: Dict[str, float] = {
            name: math.log(lo)
            for name, (lo, hi) in zip(self.names, bounds) if lo == hi
        }
        self._stacks: Optional[Tuple[StackedLogSumExp, StackedLogSumExp]] = None

    @property
    def terms(self) -> int:
        return len(self.coeffs)

    def term_rows(self) -> np.ndarray:
        """Row of every term."""
        return np.repeat(np.arange(len(self.counts)), self.counts)

    def log_box(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(log lower, log upper)`` of the free variables."""
        return (
            np.array([math.log(lo) for lo in self.lower[self._free].tolist()]),
            np.array([math.log(hi) for hi in self.upper[self._free].tolist()]),
        )

    def stacks(self) -> Tuple["StackedLogSumExp", "StackedLogSumExp"]:
        """``(objective, rows)`` over the free variables, fixed ones folded
        into the log-coefficients in each term's signature order (the
        arithmetic of :class:`StackedLogSumExp`'s posynomial constructor,
        so the stacks are bit for bit the same)."""
        if self._stacks is not None:
            return self._stacks
        width = len(self.free)
        free_column = np.full(len(self.names), -1, dtype=np.intp)
        free_column[self._free] = np.arange(width)
        fixed_log = np.zeros(len(self.names))
        fixed_log[~self._free] = list(self.fixed.values())
        b = np.array([math.log(c) for c in self.coeffs.tolist()])
        nnz = np.diff(self.indptr)
        term_of = np.repeat(np.arange(self.terms), nnz)
        folded = free_column[self.columns] < 0
        if folded.any():
            slot = np.arange(len(self.columns)) - self.indptr[term_of]
            for k in range(int(slot[folded].max()) + 1):
                at = folded & (slot == k)
                columns = self.columns[at]
                b[term_of[at]] += self.exponents[at] * fixed_log[columns]
        kept = ~folded
        free_nnz = np.bincount(term_of[kept], minlength=self.terms)
        indices = free_column[self.columns[kept]]
        data = self.exponents[kept]
        edges = np.zeros(self.terms + 1, dtype=np.intp)
        np.cumsum(free_nnz, out=edges[1:])
        split = int(self.counts[0])
        cut = edges[split]
        objective = StackedLogSumExp.from_arrays(
            b[:split], edges[:split + 1], indices[:cut], data[:cut],
            self.counts[:1], width,
        )
        rows = StackedLogSumExp.from_arrays(
            b[split:], edges[split:] - cut, indices[cut:], data[cut:],
            self.counts[1:], width,
        )
        self._stacks = objective, rows
        return self._stacks


@dataclass
class _Run:
    """Outcome of :func:`_minimize`."""

    y: np.ndarray
    phase1_steps: int
    steps: int
    #: Line-search trial points that cost an exponent pass, both phases.
    trials: int
    gap: float
    converged: bool
    message: str
    #: ``(weights, bound)`` when phase 1 proved the rows infeasible.
    certificate: Optional[Tuple[np.ndarray, float]] = None


def _minimize(
    y0: np.ndarray,
    objective: "StackedLogSumExp",
    rows: "StackedLogSumExp",
    lower: np.ndarray,
    upper: np.ndarray,
) -> _Run:
    """Phase 1 when ``y0`` violates a row, then the main solve."""
    phase1_steps = trials = 0
    worst = float(rows.values(y0).max(initial=-math.inf))
    if worst >= 0.0:
        metrics.counter("gp.phase1_solves").inc()
        with trace.span("gp_phase1", violation=round(worst, 4)):
            z0 = np.append(y0, worst + 1.0)
            phase1 = _Newton(objective, rows, lower, upper, phase1=True)
            z, verdict = phase1.run(z0)
        phase1_steps, trials = phase1.steps, phase1.trials
        y0 = z[:-1]
        if verdict == "infeasible":
            return _Run(
                y0, phase1_steps, 0, trials, phase1.gap, False,
                "phase 1: infeasible", certificate=phase1.certificate,
            )
        if verdict != "feasible":
            # No strictly feasible point and no proof of infeasibility: the
            # caller grades the phase-1 point by its violation.
            return _Run(
                y0, phase1_steps, 0, trials, phase1.gap, False,
                f"phase 1 found no strictly feasible point ({verdict})",
            )
    main = _Newton(objective, rows, lower, upper, phase1=False)
    y, verdict = main.run(y0)
    return _Run(
        y, phase1_steps, main.steps, trials + main.trials, main.gap,
        verdict == "optimal",
        f"{verdict} after {main.steps} Newton steps "
        f"(duality gap {main.gap:.3g})",
    )


class _Newton:
    """Primal-dual interior-point iteration (B&V algorithm 11.2) on
    ``F0(y)`` subject to ``F(y) <= 0`` and ``lower < y < upper``.

    Phase 1 runs on ``z = (y, s)``: objective ``s``, rows ``F(y) - s``.
    All constraints sit in one vector ``f = (rows, lower - y, y - upper)``
    with multipliers ``lam`` of the same layout.  Each step eliminates the
    multiplier update and solves the reduced Newton system

        (grad2 F0 + sum_i lam_i grad2 F_i + J' diag(lam / -f) J + box) dy
            = -(grad F0 + sum_i grad f_i / (t (-f_i)))

    with one dense Cholesky.  The backtracking line search keeps every
    constraint strictly satisfied and lowers the residual norm; a trial
    point costs one exponent pass (values and the ``A' (lam p)`` dual
    residual), and the dense Jacobian is built only at accepted points.
    """

    def __init__(
        self,
        objective: "StackedLogSumExp",
        rows: "StackedLogSumExp",
        lower: np.ndarray,
        upper: np.ndarray,
        phase1: bool,
    ):
        self.objective = objective
        self.rows = rows
        self.lower = lower
        self.upper = upper
        self.phase1 = phase1
        self.n = lower.size
        self.m = rows.rows
        self.steps = 0
        self.trials = 0
        self.gap = math.inf
        self.certificate: Optional[Tuple[np.ndarray, float]] = None

    def _constraints(self, z: np.ndarray) -> Optional[np.ndarray]:
        """``f(z)``, or ``None`` when ``z`` is outside the open box."""
        y = z[:self.n]
        if not ((y > self.lower).all() and (y < self.upper).all()):
            return None
        F = self.rows.values(y)
        if self.phase1:
            F = F - z[-1]
        return np.concatenate([F, self.lower - y, y - self.upper])

    def _dual_residual(self, z: np.ndarray, lam: np.ndarray) -> np.ndarray:
        n, m = self.n, self.m
        y = z[:n]
        r = self.rows.gradient(y, lam[:m]) - lam[m:m + n] + lam[m + n:]
        if self.phase1:
            return np.append(r, 1.0 - lam[:m].sum())
        return r + self.objective.gradient(y, _ONE)

    @staticmethod
    def _residual(r_dual, lam, f, t) -> float:
        """Norm of the primal-dual residual ``(r_dual, -lam f - 1/t)``."""
        r_cent = -lam * f - 1.0 / t
        return math.sqrt(r_dual @ r_dual + r_cent @ r_cent)

    def _bound(self, y: np.ndarray, lam: np.ndarray, J: np.ndarray) -> Tuple[np.ndarray, float]:
        """Phase 1's tangent-plane lower bound on ``max_i F_i`` over the box,
        with weights ``w = lam / sum(lam)`` on the rows."""
        w = lam[:self.m] / lam[:self.m].sum()
        g = w @ J
        bound = w @ self.rows.values(y) + np.minimum(
            g * (self.lower - y), g * (self.upper - y)
        ).sum()
        return w, float(bound)

    def _direction(self, z, lam, f, t, J):
        """The Newton step ``(dz, dlam)`` at ``z``."""
        n, m = self.n, self.m
        y = z[:n]
        d = lam / -f
        c = 1.0 / (t * -f)
        H = self.rows.hessian(y, lam[:m], outer=d[:m])
        H.flat[::n + 1] += d[m:m + n] + d[m + n:]
        g = c[:m] @ J - c[m:m + n] + c[m + n:]
        if self.phase1:
            coupling = -(d[:m] @ J)
            H = np.block([
                [H, coupling[:, None]],
                [coupling[None, :], np.array([[d[:m].sum()]])],
            ])
            g = np.append(g, 1.0 - c[:m].sum())
        else:
            H += self.objective.hessian(y, _ONE)
            g += self.objective.gradient(y, _ONE)
        dz = _solve_spd(H, -g)
        dy = dz[:n]
        slope = J @ dy
        if self.phase1:
            slope -= dz[-1]
        dlam = c - lam + d * np.concatenate([slope, -dy, dy])
        return dz, dlam

    def run(self, z: np.ndarray) -> Tuple[np.ndarray, str]:
        """Iterate from the strictly feasible ``z``; returns the last point
        and the verdict: ``optimal``, ``feasible`` / ``infeasible`` (phase
        1), ``stalled`` or ``iteration cap``."""
        f = self._constraints(z)
        # Unit multipliers: 1 / -f would put huge weights on rows and box
        # faces the start point hugs and leave the iterate off-centre.
        lam = np.ones_like(f)
        while True:
            self.gap = float(-f @ lam)
            y = z[:self.n]
            J = self.rows.jacobian(y)
            if self.phase1:
                if z[-1] < 0.0:
                    return z, "feasible"
                w, bound = self._bound(y, lam, J)
                if bound > TOL:
                    self.certificate = (w, bound)
                    return z, "infeasible"
            r_dual = self._dual_residual(z, lam)
            if self.gap <= TOL and math.sqrt(r_dual @ r_dual) <= TOL:
                return z, "optimal"
            t = MU * f.size / self.gap
            residual = self._residual(r_dual, lam, f, t)
            if self.steps == MAX_ITERATIONS:
                return z, "iteration cap"
            dz, dlam = self._direction(z, lam, f, t, J)
            shrinking = dlam < 0.0
            step = 0.99 * min(
                1.0, float((-lam[shrinking] / dlam[shrinking]).min(initial=1.0))
            )
            while True:
                trial = z + step * dz
                f_trial = self._constraints(trial)
                if f_trial is not None:
                    self.trials += 1
                    if (f_trial < 0.0).all():
                        lam_trial = lam + step * dlam
                        r_trial = self._dual_residual(trial, lam_trial)
                        if self._residual(r_trial, lam_trial, f_trial, t) <= (
                            1.0 - ALPHA * step
                        ) * residual:
                            break
                step *= BETA
                if step < 1e-14:
                    return z, "stalled"
            z, lam, f = trial, lam_trial, f_trial
            self.steps += 1


def _solve_spd(H: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``H^-1 rhs`` for the symmetric positive definite Newton matrix; a
    growing diagonal shift absorbs a Cholesky that rounding made fail."""
    shift = 1e-14 * float(np.abs(H.diagonal()).max(initial=1.0))
    for _ in range(16):
        try:
            factor = linalg.cho_factor(H, check_finite=False)
            return linalg.cho_solve(factor, rhs, check_finite=False)
        except linalg.LinAlgError:
            H = H + shift * np.eye(len(H))
            shift *= 10.0
    raise GPError("the Newton matrix is not positive definite")


class StackedLogSumExp:
    """Rows ``F_i(y) = log sum_k exp(b_k + A_k . y)``, one per posynomial.

    ``posy(exp(y)) = exp(F(y))`` for each posynomial, so ``F_i <= 0`` is the
    log-space form of ``posy_i <= 1``.  The terms of every row share one CSR
    exponent matrix ``A`` (terms x variables) and one log-coefficient vector
    ``b``; row ``i`` is the contiguous term segment starting at
    ``starts[i]``.  Variables named in ``fixed`` (name -> log value) are not
    columns: their ``exponent * log value`` is folded into ``b``.  One
    exponent pass ``e = b + A @ y`` and a segmented log-sum-exp give every
    row value and the normalized term weights ``p``; the Jacobian is one
    ``bincount`` of ``p`` times ``A``'s nonzeros, and :meth:`hessian` one
    ``bincount`` over the nonzero pairs inside each term.

    :meth:`values`, :meth:`jacobian`, :meth:`gradient` and :meth:`hessian`
    at the same point share one exponent pass (``passes`` counts them).  The
    pass is keyed on a copy of ``y``, so a caller that mutates its array in
    place between calls never reads stale rows.  The returned value and
    Jacobian arrays are that cache, marked read-only.
    """

    def __init__(
        self,
        posynomials: Sequence[Posynomial],
        index: Mapping[str, int],
        fixed: Optional[Mapping[str, float]] = None,
    ):
        counts = np.array([len(p) for p in posynomials], dtype=np.intp)
        b: List[float] = []
        cols: List[int] = []
        data: List[float] = []
        indptr = [0]
        for posy in posynomials:
            for mono in posy.terms:
                e = math.log(mono.coefficient)
                for name, exp in mono.signature:
                    i = index.get(name)
                    if i is None:
                        e += exp * fixed[name]
                        continue
                    cols.append(i)
                    data.append(exp)
                b.append(e)
                indptr.append(len(cols))
        self._setup(
            np.array(b), np.array(indptr), np.array(cols, dtype=np.intp),
            np.array(data), counts, len(index),
        )

    @classmethod
    def from_arrays(
        cls,
        b: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        counts: np.ndarray,
        width: int,
    ) -> "StackedLogSumExp":
        """Rows from a compiled term program: log-coefficients ``b``, the
        free-variable CSR ``(indptr, indices, data)`` and ``counts`` terms
        per row."""
        stack = cls.__new__(cls)
        stack._setup(b, indptr, indices, data, counts, width)
        return stack

    def _setup(self, b, indptr, indices, data, counts, width) -> None:
        if (counts == 0).any():
            raise GPError("every stacked row needs at least one term")
        self.rows = len(counts)
        self.terms = len(b)
        self.nonzeros = len(indices)
        self.passes = 0
        self._width = width
        self._A = sparse.csr_matrix(
            (data, indices, indptr), shape=(self.terms, width),
        )
        self._b = b
        self._starts = np.cumsum(counts) - counts
        self._term_row = np.repeat(np.arange(self.rows), counts)
        self._nonzero_term = np.repeat(
            np.arange(self.terms), np.diff(self._A.indptr)
        )
        self._flat = self._term_row[self._nonzero_term] * width + self._A.indices
        # Hessian scatter indices, built on first use: (term, flat (j, k)
        # cell, a_j * a_k) for every ordered pair of nonzeros in a term.
        self._pairs: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
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

    def gradient(self, y: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """``sum_i lam_i grad F_i(y) = A' (lam_row p)``, shape
        ``(variables,)``, without building the Jacobian."""
        self._exponent_pass(y)
        scaled = lam[self._term_row] * self._weights
        return np.bincount(
            self._A.indices,
            weights=scaled[self._nonzero_term] * self._A.data,
            minlength=self._width,
        )

    def hessian(
        self, y: np.ndarray, lam: np.ndarray, outer: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``sum_i lam_i grad2 F_i(y) + J' diag(outer) J``, shape
        ``(variables, variables)``.

        Row ``i``'s Hessian is ``A_i' diag(p_i) A_i - g_i g_i'`` with
        ``g_i = A_i' p_i``, so the sum is one pair ``bincount`` for
        ``A' diag(lam_row p) A`` and one dense ``J' diag(outer - lam) J``.
        """
        self._exponent_pass(y)
        if self._pairs is None:
            self._pairs = self._nonzero_pairs()
        pair_term, pair_flat, pair_coef = self._pairs
        scaled = lam[self._term_row] * self._weights
        width = self._width
        # ``astype``: a bincount over no pairs comes back as integers.
        H = np.bincount(
            pair_flat,
            weights=scaled[pair_term] * pair_coef,
            minlength=width * width,
        ).astype(float, copy=False).reshape(width, width)
        J = self.jacobian(y)
        diag = -lam if outer is None else outer - lam
        H += (J.T * diag) @ J
        return H

    def _nonzero_pairs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        indptr, indices, data = self._A.indptr, self._A.indices, self._A.data
        counts = np.diff(indptr)
        per_term = counts * counts
        pair_term = np.repeat(np.arange(self.terms), per_term)
        offset = np.arange(pair_term.size) - np.repeat(
            np.cumsum(per_term) - per_term, per_term
        )
        size = counts[pair_term]
        first = indptr[pair_term] + offset // size
        second = indptr[pair_term] + offset % size
        return (
            pair_term,
            indices[first] * self._width + indices[second],
            data[first] * data[second],
        )
