"""The per-monomial GP pre-solve lint, kept as the oracle of the array
lint in :mod:`repro.lint.rules_gp`.

It walks every posynomial of the program monomial by monomial and encloses
each constraint with :meth:`repro.posy.Posynomial.enclose`; the array lint
must emit the same findings, in the same order, with the same messages.
"""

import math

from repro.lint.diagnostics import Diagnostic, LintReport, Location
from repro.lint.rules_gp import GP201, GP202, GP203, GP204


def reference_lint_gp(gp, size_table=None) -> LintReport:
    """The per-monomial GP201–GP204 screen (posynomial by posynomial,
    :meth:`Posynomial.enclose` per constraint).

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
