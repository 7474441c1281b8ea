"""Independent post-solve audits behind the OPT70x rules.

:class:`SolutionAudit` re-derives everything about a claimed width
assignment from first principles — the sizer's own front end
(:meth:`SmartSizer._front_end`: path pruning and constraint generation)
and true-slope STA, but none of the solver's own residual bookkeeping:

* :meth:`feasibility` (OPT701) — primal feasibility of every GP constraint
  at the point.  Timing constraints are re-measured with the full STA (the
  engine's own convergence criterion,
  :func:`repro.sizing.engine.measure_constraints`, recomputed from
  scratch) *and* each violation's GP delay posynomial at the designer
  input slope is enclosed with outward-rounded interval arithmetic
  (:meth:`repro.posy.Posynomial.enclose` at the point), so a violation
  verdict survives floating-point doubt; slope/noise constraints and
  device bounds are interval-checked directly.
* :meth:`kkt` (OPT702) — first-order stationarity of the log-space convex
  transform via a nonnegative least-squares fit of the active-constraint
  gradients, turned into a quantitative optimality-gap bound (see the
  method docstring for the convexity argument).
* :meth:`replication` (OPT703) — soundness of a slice-collapse claim:
  replicate the representative widths across each equivalence class and
  prove every cross-slice coupling constraint still holds at the
  replicated point, or name the violated constraint as a witness.

:meth:`certify` composes the three into one issued
``smart-solution-certificate/1`` record and logs a ``kind="certificate"``
run-ledger record with the audit wall time.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ...models.gates import ModelLibrary
from ...netlist.circuit import Circuit
from ...netlist.fingerprint import facet_fingerprints
from ...obs import perf, trace
from ...obs.log import get_logger
from ...sizing.constraints import ConstraintSet, DelaySpec
from ...sizing.engine import SmartSizer, measure_constraints
from .certificate import SolutionCertificate, widths_digest

log = get_logger(__name__)

#: Log-space margin under which an inequality counts as active for the
#: KKT fit (≈1% multiplicative slack).
_ACTIVE_TOL = 1e-2

#: Relative slack granted on hard GP constraints (slope, noise): the
#: interior-point solver ends strictly inside every GP row, but the STA
#: re-measure of an active limit and a width read back from a cache or
#: certificate agree with the solver's rows only to rounding, so an
#: honest optimum may ride an active limit with a tiny relative excess.
#: Kept far below any physically meaningful violation — the seeded
#: mutants perturb by >=1e-3.
_SOLVER_REL_TOL = 1e-6


class SolutionAudit:
    """Re-derive the OPT70x verdicts for one circuit + spec (see module
    docstring).  Per-point measurements are memoized, so composing checks
    over the same point (as :meth:`certify` does) pays for one STA pass,
    not three."""

    def __init__(
        self,
        circuit: Circuit,
        library: ModelLibrary,
        spec: DelaySpec,
        tolerance: float = 2.0,
        otb_borrow: float = 0.0,
        objective: str = "area",
        analysis_library: Optional[ModelLibrary] = None,
    ):
        self.circuit = circuit
        self.library = library
        self.spec = spec
        self.tolerance = tolerance
        # The sizer's own front end, library and analyzer.
        self._sizer = SmartSizer(
            circuit,
            library,
            objective=objective,
            otb_borrow=otb_borrow,
            analysis_library=analysis_library,
            pre_screen=False,
        )
        self._measure_memo: Dict[str, tuple] = {}

    def measure(
        self, env: Mapping[str, float]
    ) -> Tuple[ConstraintSet, Dict[str, float], float, str]:
        """STA measurement of every timing constraint at ``env``.

        Returns ``(constraints, realized delays, worst residual, worst
        constraint name)`` — the engine's convergence criterion recomputed
        from scratch at the audited point, over the sizer's constraint set
        for the spec (:meth:`SmartSizer._front_end`), exactly the GP the
        engine solves.
        """
        digest = widths_digest(env)
        memo = self._measure_memo.get(digest)
        if memo is None:
            constraints = self._sizer._front_end(self.spec)[1]
            measurement = measure_constraints(
                self._sizer.analyzer, constraints.timing, env,
                self.spec.input_slope,
            )
            memo = self._measure_memo[digest] = (
                constraints, measurement.realized,
                measurement.worst_violation, measurement.worst_constraint,
            )
        return memo

    def _normalize_env(
        self, widths: Mapping[str, object]
    ) -> Tuple[Optional[Dict[str, float]], List[dict]]:
        """Validate a claimed env: finite positive floats covering every
        free label.  Returns ``(env, violations)``; env is None when the
        point is unusable."""
        violations: List[dict] = []
        env: Dict[str, float] = {}
        for name, value in dict(widths).items():
            try:
                width = float(value)  # type: ignore[arg-type]
            except (TypeError, ValueError):
                violations.append({
                    "name": str(name),
                    "message": f"width of {name} is not a number: {value!r}",
                })
                continue
            if not math.isfinite(width) or width <= 0.0:
                violations.append({
                    "name": str(name),
                    "message": f"width of {name} is not positive finite: {width!r}",
                })
                continue
            env[str(name)] = width
        free = set(self.circuit.size_table.free_names())
        missing = sorted(free - set(env))
        if missing:
            violations.append({
                "name": missing[0],
                "message": (
                    f"assignment misses {len(missing)} free label(s): "
                    f"{', '.join(missing[:5])}"
                ),
            })
            return None, violations
        if violations:
            return None, violations
        return {name: env[name] for name in sorted(free)}, violations

    # -- OPT701: primal feasibility ---------------------------------------

    def feasibility(self, widths: Mapping[str, object]) -> dict:
        """Solver-independent primal-feasibility verdict at ``widths``."""
        env, violations = self._normalize_env(widths)
        if env is None:
            return {
                "ok": False, "violations": violations,
                "worst_residual_ps": math.inf, "worst_constraint": "",
            }
        table = self.circuit.size_table
        for name in sorted(env):
            var = table[name]
            if not (var.lower - 1e-9 <= env[name] <= var.upper + 1e-9):
                violations.append({
                    "name": name,
                    "message": (
                        f"width {env[name]:.4f} um of {name} outside bounds "
                        f"[{var.lower}, {var.upper}]"
                    ),
                })
        constraints, realized, worst, worst_name = self.measure(env)

        def point(name: str) -> Tuple[float, float]:
            return (env[name], env[name])

        for constraint in constraints.timing:
            measured = realized[constraint.name]
            residual = measured - constraint.spec
            if residual > self.tolerance:
                lo, _hi = constraint.delay.enclose(point)
                proof = (
                    "interval-confirmed"
                    if lo > constraint.spec + self.tolerance
                    else "STA-measured"
                )
                violations.append({
                    "name": constraint.name,
                    "message": (
                        f"{constraint.name}: realized {measured:.2f} ps "
                        f"exceeds spec {constraint.spec:.2f} ps by "
                        f"{residual:.2f} ps (> tolerance "
                        f"{self.tolerance:.2f} ps, {proof})"
                    ),
                })
        for slope in constraints.slopes:
            lo, _hi = slope.slope.enclose(point)
            if lo > slope.limit * (1.0 + _SOLVER_REL_TOL):
                violations.append({
                    "name": slope.name,
                    "net": slope.net,
                    "message": (
                        f"{slope.name}: slope >= {lo:.2f} ps exceeds limit "
                        f"{slope.limit:.2f} ps on net {slope.net}"
                    ),
                })
        for noise in constraints.noise:
            lo, _hi = noise.expr.enclose(point)
            if lo > 1.0 + _SOLVER_REL_TOL:
                violations.append({
                    "name": noise.name,
                    "stage": noise.stage,
                    "message": (
                        f"{noise.name}: charge-sharing expression >= "
                        f"{lo:.4f} > 1 at stage {noise.stage}"
                    ),
                })
        return {
            "ok": not violations,
            "violations": violations,
            "worst_residual_ps": round(worst, 6),
            "worst_constraint": worst_name,
            "timing_constraints": len(constraints.timing),
        }

    # -- OPT702: KKT / duality gap ----------------------------------------

    def kkt(self, widths: Mapping[str, object]) -> dict:
        """First-order optimality of the log-space transform at ``widths``.

        At ``y = log x``, a GP minimizes convex ``F0(y)`` over convex
        ``Fi(y) <= 0`` plus box bounds.  We fit nonnegative multipliers
        over the gradients of the constraints active at ``y`` (NNLS on
        ``F0' + sum(lam_i Fi') + sum(mu_k (+/- e_k)) ~ 0``).  With
        ``r = grad of the fitted Lagrangian`` and any feasible ``y*``,
        convexity of ``L`` gives ``F0(y*) >= L(y*) >= L(y) + r.(y* - y)``,
        hence

            F0(y) - F0(y*) <= ||r|| * diam + sum_i lam_i * |Fi(y)|

        with ``diam`` the log-box diameter — a certified bound on the
        optimality gap in log units (``expm1`` of it bounds the relative
        objective gap).  No solver internals are consulted.
        """
        env, violations = self._normalize_env(widths)
        if env is None:
            return {"ok": False, "violations": violations, "gap_rel": None}
        # The program the solver saw, as its own compiled stacks: every
        # variable is a free label, so ``env`` covers them all.
        program = self._sizer._build_gp(
            self._sizer._front_end(self.spec)[1], {}
        ).compile()
        objective, rows = program.stacks()
        names = program.free
        y = np.array([math.log(env[name]) for name in names])
        log_lower, log_upper = program.log_box()
        g0 = objective.jacobian(y)[0]

        values = rows.values(y)  # <= 0 when satisfied
        active = np.flatnonzero(values >= -_ACTIVE_TOL)
        columns: List[np.ndarray] = list(rows.jacobian(y)[active])
        active_names = [program.row_names[i + 1] for i in active]
        slacks = [abs(float(values[i])) for i in active]
        diam_sq = 0.0
        for i, name in enumerate(names):
            lower, upper = log_lower[i], log_upper[i]
            span = upper - lower
            diam_sq += span * span
            unit = np.zeros(len(names))
            unit[i] = 1.0
            if y[i] - lower <= _ACTIVE_TOL:
                columns.append(-unit)     # lower bound active: l - y <= 0
                active_names.append(f"lb:{name}")
                slacks.append(abs(y[i] - lower))
            if upper - y[i] <= _ACTIVE_TOL:
                columns.append(unit)      # upper bound active: y - u <= 0
                active_names.append(f"ub:{name}")
                slacks.append(abs(upper - y[i]))
        diameter = math.sqrt(diam_sq)

        if columns:
            from scipy.optimize import nnls

            matrix = np.column_stack(columns)
            lambdas, residual = nnls(matrix, -g0)
            slack_term = float(
                sum(l * s for l, s in zip(lambdas, slacks))
            )
        else:
            lambdas = np.zeros(0)
            residual = float(np.linalg.norm(g0))
            slack_term = 0.0
        gap_log = float(residual) * diameter + slack_term
        gap_rel = math.expm1(gap_log) if gap_log < 700 else math.inf
        return {
            "ok": True,
            "violations": [],
            "stationarity_residual": round(float(residual), 9),
            "active_constraints": len(active_names),
            "gap_log": round(gap_log, 9),
            "gap_rel": round(gap_rel, 9) if math.isfinite(gap_rel) else None,
            "lambda_max": (
                round(float(lambdas.max()), 6) if len(lambdas) else 0.0
            ),
        }

    # -- OPT703: replication soundness ------------------------------------

    def replication(
        self,
        widths: Mapping[str, object],
        classes: Sequence[Sequence[str]],
        representative_env: Optional[Mapping[str, object]] = None,
    ) -> dict:
        """Soundness of the claim "one slice's widths replicate across its
        equivalence class".

        Two obligations: (a) the claimed assignment is actually replicated
        — every member of a class carries its representative's width; and
        (b) the replicated point satisfies every cross-slice coupling
        constraint, proved by re-measuring the *full original* circuit at
        the replicated point (interval-STA style: true slope propagation
        plus outward-rounded posynomial enclosures for the reliability
        constraints).  The first violated constraint is named as the
        witness boundary.
        """
        env, violations = self._normalize_env(widths)
        if env is None:
            return {"ok": False, "violations": violations, "witness": ""}
        free = set(env)
        # (a) intra-class replication of the claimed assignment.
        for members in classes:
            members = [m for m in members if m in free]
            if len(members) < 2:
                continue
            rep = members[0]
            for member in members[1:]:
                if not math.isclose(
                    env[member], env[rep], rel_tol=1e-6, abs_tol=1e-9
                ):
                    violations.append({
                        "name": member,
                        "message": (
                            f"label {member} ({env[member]:.4f} um) is not "
                            f"replicated from its class representative "
                            f"{rep} ({env[rep]:.4f} um)"
                        ),
                    })
        # (b) the replicated point: representative widths copied across
        # each class (defaults to the claimed env's own representatives).
        replicated = dict(env)
        if representative_env is not None:
            for name, value in dict(representative_env).items():
                if name in free:
                    try:
                        replicated[name] = float(value)  # type: ignore[arg-type]
                    except (TypeError, ValueError):
                        pass
        for members in classes:
            members = [m for m in members if m in free]
            if len(members) < 2:
                continue
            for member in members[1:]:
                replicated[member] = replicated[members[0]]
        constraints, realized, worst, worst_name = self.measure(replicated)
        witness = ""
        if worst > self.tolerance:
            witness = worst_name
            violations.append({
                "name": worst_name,
                "message": (
                    f"replicated point violates coupling constraint "
                    f"{worst_name}: realized "
                    f"{realized[worst_name]:.2f} ps exceeds its spec by "
                    f"{worst:.2f} ps (> tolerance {self.tolerance:.2f} ps)"
                ),
            })

        def point(name: str) -> Tuple[float, float]:
            return (replicated[name], replicated[name])

        for slope in constraints.slopes:
            lo, _hi = slope.slope.enclose(point)
            if lo > slope.limit * (1.0 + _SOLVER_REL_TOL):
                witness = witness or slope.name
                violations.append({
                    "name": slope.name,
                    "net": slope.net,
                    "message": (
                        f"replicated point violates slope constraint "
                        f"{slope.name} on net {slope.net}: "
                        f">= {lo:.2f} ps vs limit {slope.limit:.2f} ps"
                    ),
                })
        return {
            "ok": not violations,
            "violations": violations,
            "witness": witness,
            "worst_residual_ps": round(worst, 6),
            "classes": len(
                [c for c in classes if len([m for m in c if m in free]) > 1]
            ),
            "merged_labels": sum(
                max(0, len([m for m in c if m in free]) - 1) for c in classes
            ),
        }

    # -- certificate issue -------------------------------------------------

    def certify(
        self,
        widths: Mapping[str, object],
        cache_key: str,
        classes: Sequence[Sequence[str]] = (),
        representative_env: Optional[Mapping[str, object]] = None,
        with_kkt: bool = True,
    ) -> SolutionCertificate:
        """Run the full audit at ``widths`` and issue the certificate.

        ``ok`` requires primal feasibility and (when ``classes`` are
        claimed) replication soundness; the KKT gap is recorded as a
        quantitative annotation, never a veto — a feasible point with a
        poor gap bound is safe to use, just not provably optimal.
        """
        t_start = time.perf_counter()
        with trace.span(
            "solution_certify", circuit=self.circuit.name
        ) as span:
            feas = self.feasibility(widths)
            checks: Dict[str, dict] = {
                "OPT701": {
                    "ok": feas["ok"],
                    "worst_residual_ps": feas.get("worst_residual_ps"),
                    "violations": len(feas["violations"]),
                },
            }
            kkt_gap_rel = None
            if with_kkt:
                kkt = self.kkt(widths)
                kkt_gap_rel = kkt.get("gap_rel")
                checks["OPT702"] = {
                    "ok": kkt["ok"],
                    "gap_rel": kkt.get("gap_rel"),
                    "stationarity_residual": kkt.get(
                        "stationarity_residual"
                    ),
                }
            ok = feas["ok"]
            if classes:
                rep = self.replication(
                    widths, classes, representative_env=representative_env
                )
                checks["OPT703"] = {
                    "ok": rep["ok"],
                    "witness": rep.get("witness", ""),
                    "merged_labels": rep.get("merged_labels", 0),
                }
                ok = ok and rep["ok"]
            realized: Dict[str, float] = {}
            specs: Dict[str, float] = {}
            worst = feas.get("worst_residual_ps", math.inf)
            env, _ = self._normalize_env(widths)
            if env is not None:
                constraints, realized, worst, _name = self.measure(env)
                specs = {c.name: c.spec for c in constraints.timing}
            certificate = SolutionCertificate(
                circuit=self.circuit.name,
                key=cache_key,
                widths_digest=widths_digest(widths),
                facets=dict(facet_fingerprints(self.circuit)),
                ok=bool(ok),
                worst_residual_ps=(
                    worst if math.isfinite(worst) else 1e18
                ),
                tolerance=self.tolerance,
                spec_data=self.spec.data,
                kkt_gap_rel=kkt_gap_rel,
                checks=checks,
                classes=[list(c) for c in classes],
                realized=realized,
                specs=specs,
            )
            wall = time.perf_counter() - t_start
            span.set_attrs(ok=certificate.ok, wall_s=round(wall, 6))
        perf.record_run(
            "certificate",
            self.circuit.name,
            wall_s=wall,
            extra={
                "ok": certificate.ok,
                "worst_residual_ps": certificate.worst_residual_ps,
                "kkt_gap_rel": certificate.kkt_gap_rel,
                "classes": len(certificate.classes),
            },
        )
        log.info(
            "certified %s: ok=%s residual=%.2f ps (%.3f s)",
            self.circuit.name, certificate.ok,
            certificate.worst_residual_ps, wall,
        )
        return certificate
