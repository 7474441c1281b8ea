"""GP pre-solve checks (``GP201``–``GP204``).

The sizer hands the solver a geometric program built from generated
constraints; a malformed or trivially-hopeless program wastes a solve (or
worse, "succeeds" on garbage).  :func:`lint_gp` screens a
:class:`~repro.sizing.gp.GeometricProgram` — optionally against the size
table that defines the legal variables — before any iteration runs.

These rules have no circuit to walk, so they are registered without a
checker and driven here; the registry still owns their IDs, severities and
docs for ``--list-rules``.
"""

from __future__ import annotations

import math

from .diagnostics import Diagnostic, LintReport, Location, Severity
from .registry import Rule, register

GP201 = register(Rule(
    "GP201", "posynomial well-formedness", "gp", Severity.ERROR,
    doc=(
        "Every monomial in the objective and constraints must have a "
        "positive, finite coefficient and finite exponents; anything else "
        "is outside GP form and silently breaks the log-space transform."
    ),
))

GP202 = register(Rule(
    "GP202", "undeclared size variable", "gp", Severity.ERROR,
    doc=(
        "A GP variable that is not a declared size label has no physical "
        "meaning and no designer-set bounds — typically a typo in a "
        "component model."
    ),
))

GP203 = register(Rule(
    "GP203", "unconstrained size variable", "gp", Severity.WARNING,
    doc=(
        "A variable appearing in no constraint is decided by the objective "
        "alone and slides to its box bound — legal, but usually a sign "
        "that a path or slope constraint went missing."
    ),
))

GP204 = register(Rule(
    "GP204", "trivially infeasible constraint", "gp", Severity.ERROR,
    doc=(
        "A constraint whose sound lower bound over the variable box "
        "already exceeds 1 cannot be satisfied by any sizing; failing "
        "fast here beats an exhausted phase-1 solve."
    ),
))


def lint_gp(gp, size_table=None) -> LintReport:
    """Screen a :class:`~repro.sizing.gp.GeometricProgram` pre-solve.

    ``size_table`` (a :class:`~repro.netlist.sizing_vars.SizeTable`) enables
    the variable-declaration checks; without it only well-formedness and
    feasibility screening run.
    """
    report = LintReport(subject="gp")

    def emit(rule_obj, message, constraint=None):
        report.add(Diagnostic(
            rule_id=rule_obj.id,
            severity=rule_obj.severity,
            message=message,
            location=Location(constraint=constraint),
        ))

    # GP201 — well-formedness of every posynomial in the program.
    labelled = [("objective", gp.objective)]
    labelled += [(c.name, c.expr) for c in gp.inequalities]
    for name, expr in labelled:
        for mono in expr:
            coeff = mono.coefficient
            if not (coeff > 0 and math.isfinite(coeff)):
                emit(
                    GP201,
                    f"monomial coefficient {coeff!r} is not positive finite",
                    constraint=name,
                )
            for var, exp in mono.exponents.items():
                if not math.isfinite(exp):
                    emit(
                        GP201,
                        f"exponent of {var} is not finite ({exp!r})",
                        constraint=name,
                    )

    # GP202/GP203 — variable discipline.
    constrained = set()
    for constraint in gp.inequalities:
        constrained |= constraint.expr.variables()
    if size_table is not None:
        declared = {v.name for v in size_table}
        for var in gp.variables():
            if var not in declared:
                emit(
                    GP202,
                    f"size variable {var} is not declared in the size table",
                )
        for var in size_table.free_names():
            if var in constrained:
                continue
            if var in gp.objective.variables() or var in gp._bounds:
                emit(
                    GP203,
                    f"size variable {var} appears in no constraint; the "
                    "optimizer will park it at a box bound",
                )
    else:
        for var in sorted(gp.objective.variables() - constrained):
            emit(
                GP203,
                f"variable {var} appears only in the objective",
            )

    # GP204 — sound infeasibility screen over the variable box.
    for constraint in gp.inequalities:
        lower = constraint.expr.enclose(gp.bounds)[0]
        if lower > 1.0 + 1e-9:
            emit(
                GP204,
                f"lower bound {lower:.3f} over the size box already exceeds "
                "the limit; no sizing can satisfy this constraint",
                constraint=constraint.name,
            )

    return report
