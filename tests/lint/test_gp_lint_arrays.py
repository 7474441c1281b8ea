"""The array GP lint against its per-monomial oracle, and the vector box
enclosure against :meth:`Posynomial.enclose` and exact arithmetic.

``lint_gp`` screens a program's compiled arrays; ``reference_gp_lint.py``
is the posynomial-by-posynomial screen it replaced.  On random programs,
well-formed or not, and on the sizer's own programs (whose path rows
compile without a posynomial) both must emit the same findings in the same
order.  ``enclose_rows`` pads each term for ``np.power``'s rounding, so its
lower bound must never exceed ``enclose``'s or the exact minimum on dyadic
cases, and its upper bound never fall below either maximum.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lint.rules_gp import lint_gp
from repro.macros import MacroSpec, default_database
from repro.models import ModelLibrary, Technology
from repro.netlist.sizing_vars import SizeTable
from repro.posy import Posynomial
from repro.posy.rows import enclose_rows
from repro.sizing import DelaySpec, RegularityCollapsedSizer, SmartSizer
from repro.sizing.engine import nominal_delay
from repro.sizing.gp import GeometricProgram

from .reference_gp_lint import reference_lint_gp

VARS = ("a", "b", "c", "d")
EXPONENTS = [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]
LIB = ModelLibrary(Technology())
DB = default_database()


def _findings(report):
    return [
        (d.rule_id, d.severity, d.message, d.location.constraint)
        for d in report.diagnostics
    ]


@st.composite
def _posynomial(draw, malformed):
    exponents = EXPONENTS + ([math.inf, -math.inf, math.nan] if malformed else [])
    coeffs = st.floats(min_value=0.01, max_value=100.0)
    if malformed:
        coeffs = st.one_of(
            coeffs, st.sampled_from([-1.5, 0.0, math.inf, math.nan])
        )
    terms = {}
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        names = draw(st.lists(st.sampled_from(VARS), unique=True, max_size=3))
        sig = tuple(sorted(
            (name, draw(st.sampled_from(exponents))) for name in names
        ))
        terms[sig] = draw(coeffs)
    return Posynomial(terms)


@st.composite
def _program(draw):
    malformed = draw(st.booleans())
    gp = GeometricProgram(draw(_posynomial(malformed)))
    for i in range(draw(st.integers(min_value=0, max_value=4))):
        expr = draw(_posynomial(malformed))
        if expr.is_constant():
            continue
        limit = draw(st.floats(min_value=0.1, max_value=50.0))
        gp.add_upper_bound(expr, limit, f"c{i}")
    for name in draw(st.lists(st.sampled_from(VARS), unique=True)):
        lower = draw(st.floats(min_value=0.1, max_value=10.0))
        ratio = draw(st.floats(min_value=1.0, max_value=100.0))
        gp.set_bounds(name, lower, lower * ratio)
    table = None
    declared = draw(st.lists(st.sampled_from(VARS), unique=True))
    if declared:
        table = SizeTable()
        for name in declared:
            table.declare(name)
    return gp, table


@settings(max_examples=200, deadline=None)
@given(_program())
def test_array_lint_matches_per_monomial_oracle(problem):
    gp, table = problem
    assert _findings(lint_gp(gp, table)) == _findings(reference_lint_gp(gp, table))


def _sizer_program(topology, macro, width, factor, params=(), collapse=False):
    circuit = DB.generate(topology, MacroSpec(macro, width, params=params), LIB.tech)
    if collapse:
        sizer = RegularityCollapsedSizer(circuit, LIB)
        sizer._tie(sizer.equivalence_classes())
    spec = DelaySpec(data=factor * nominal_delay(circuit, LIB))
    sizer = SmartSizer(circuit, LIB)
    _paths, constraints = sizer._front_end(spec)
    return sizer._build_gp(constraints, {}), circuit.size_table


@pytest.mark.parametrize("case", [
    ("mux/strong_mutex_passgate", "mux", 4, 0.5),
    ("mux/strong_mutex_passgate", "mux", 4, 1.1),
    ("mux/unsplit_domino", "mux", 8, 0.6),
    ("adder/static_ripple", "adder", 8, 0.9, (("label_group", 1),)),
    ("adder/static_ripple", "adder", 8, 0.4, (("label_group", 1),), True),
], ids=lambda case: f"{case[0]}[{case[2]}]x{case[3]}")
def test_sizer_programs_match_oracle(case):
    gp, table = _sizer_program(*case)
    assert all(c.row is not None for c in gp.inequalities[:1])
    assert _findings(lint_gp(gp, table)) == _findings(reference_lint_gp(gp, table))


def test_infeasible_sizer_program_is_flagged():
    gp, table = _sizer_program("mux/strong_mutex_passgate", "mux", 4, 0.5)
    assert lint_gp(gp, table).by_rule("GP204")


def _dyadic(draw, low, high):
    numerator = draw(st.integers(min_value=low, max_value=high))
    return Fraction(numerator, 2 ** draw(st.integers(min_value=0, max_value=8)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_vector_enclosure_on_dyadic_cases(data):
    draw = data.draw
    bounds = {}
    for name in VARS:
        lower = _dyadic(draw, 1, 64)
        bounds[name] = (lower, lower + _dyadic(draw, 0, 256))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        terms = {}
        for _ in range(draw(st.integers(min_value=1, max_value=5))):
            names = draw(st.lists(st.sampled_from(VARS), unique=True, max_size=4))
            sig = tuple(sorted(
                (name, float(draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))))
                for name in names
            ))
            terms[sig] = float(_dyadic(draw, 1, 4096))
        rows.append(Posynomial(terms))

    coeffs, nnz, columns, exponents = [], [], [], []
    for posy in rows:
        for mono in posy.terms:
            coeffs.append(mono.coefficient)
            nnz.append(len(mono.signature))
            for name, exp in mono.signature:
                columns.append(VARS.index(name))
                exponents.append(exp)
    lower = np.array([float(bounds[name][0]) for name in VARS])
    upper = np.array([float(bounds[name][1]) for name in VARS])
    lo, hi = enclose_rows(
        np.array(coeffs), np.concatenate([[0], np.cumsum(nnz)]).astype(np.intp),
        np.array(columns, dtype=np.intp), np.array(exponents, dtype=float),
        np.array([len(p) for p in rows], dtype=np.intp), lower, upper,
    )
    for r, posy in enumerate(rows):
        exact_lo = exact_hi = Fraction(0)
        for mono in posy.terms:
            t_lo = t_hi = Fraction(mono.coefficient)
            for name, exp in mono.signature:
                small, big = bounds[name]
                if exp > 0:
                    t_lo *= small ** int(exp)
                    t_hi *= big ** int(exp)
                else:
                    t_lo *= big ** int(exp)
                    t_hi *= small ** int(exp)
            exact_lo += t_lo
            exact_hi += t_hi
        scalar_lo, scalar_hi = posy.enclose(
            lambda name: (float(bounds[name][0]), float(bounds[name][1]))
        )
        assert lo[r] <= scalar_lo and Fraction(lo[r]) <= exact_lo
        assert hi[r] >= scalar_hi and Fraction(hi[r]) >= exact_hi
