"""GP pre-solve checks (``GP201``–``GP204``).

The sizer hands the solver a geometric program built from generated
constraints; a malformed or trivially-hopeless program wastes a solve (or
worse, "succeeds" on garbage).  :func:`lint_gp` screens a
:class:`~repro.sizing.gp.GeometricProgram` — optionally against the size
table that defines the legal variables — before any iteration runs.  It
reads the program's compiled arrays
(:meth:`~repro.sizing.gp.GeometricProgram.compile`, the same compilation the
solver then stacks) and runs each rule as one array pass; findings still
name the constraint they concern.

These rules have no circuit to walk, so they are registered without a
checker and driven here; the registry still owns their IDs, severities and
docs for ``--list-rules``.
"""

from __future__ import annotations

import numpy as np

from ..posy.rows import enclose_rows
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
    program = gp.compile()
    names = program.names

    def emit(rule_obj, message, constraint=None):
        report.add(Diagnostic(
            rule_id=rule_obj.id,
            severity=rule_obj.severity,
            message=message,
            location=Location(constraint=constraint),
        ))

    # GP201 — well-formedness of every term, in row then term order.
    coeffs, exponents = program.coeffs, program.exponents
    bad_coeff = ~((coeffs > 0) & np.isfinite(coeffs))
    bad_exp = ~np.isfinite(exponents)
    if bad_coeff.any() or bad_exp.any():
        term_row = program.term_rows()
        term_of = np.repeat(np.arange(program.terms), np.diff(program.indptr))
        flagged = np.union1d(np.flatnonzero(bad_coeff), term_of[bad_exp])
        for term in flagged.tolist():
            where = program.row_names[term_row[term]]
            if bad_coeff[term]:
                emit(
                    GP201,
                    f"monomial coefficient {float(coeffs[term])!r} is not "
                    "positive finite",
                    constraint=where,
                )
            for k in range(program.indptr[term], program.indptr[term + 1]):
                if bad_exp[k]:
                    emit(
                        GP201,
                        f"exponent of {names[program.columns[k]]} is not "
                        f"finite ({float(exponents[k])!r})",
                        constraint=where,
                    )

    # GP202/GP203 — variable discipline.
    objective_terms = int(program.counts[0])
    objective_nnz = program.indptr[objective_terms]
    columns = program.columns
    in_objective = {names[i] for i in np.unique(columns[:objective_nnz]).tolist()}
    constrained = {names[i] for i in np.unique(columns[objective_nnz:]).tolist()}
    if size_table is not None:
        declared = {v.name for v in size_table}
        for var in names:
            if var not in declared:
                emit(
                    GP202,
                    f"size variable {var} is not declared in the size table",
                )
        for var in size_table.free_names():
            if var in constrained:
                continue
            if var in in_objective or var in gp._bounds:
                emit(
                    GP203,
                    f"size variable {var} appears in no constraint; the "
                    "optimizer will park it at a box bound",
                )
    else:
        for var in sorted(in_objective - constrained):
            emit(
                GP203,
                f"variable {var} appears only in the objective",
            )

    # GP204 — sound infeasibility screen over the variable box: every
    # constraint row enclosed at once.
    if len(program.counts) > 1:
        # A malformed term (GP201) may make a bound NaN: it is never > 1.
        with np.errstate(invalid="ignore", over="ignore"):
            lower, _upper = enclose_rows(
                coeffs[objective_terms:],
                program.indptr[objective_terms:] - objective_nnz,
                program.columns[objective_nnz:],
                exponents[objective_nnz:],
                program.counts[1:],
                program.lower,
                program.upper,
            )
        for row in np.flatnonzero(lower > 1.0 + 1e-9).tolist():
            emit(
                GP204,
                f"lower bound {lower[row]:.3f} over the size box already "
                "exceeds the limit; no sizing can satisfy this constraint",
                constraint=program.row_names[row + 1],
            )

    return report
