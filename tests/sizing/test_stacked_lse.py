"""The stacked log-sum-exp program pinned to the dense per-row reference.

``StackedLogSumExp`` evaluates every GP row from one CSR exponent matrix,
a segmented log-sum-exp, one ``bincount`` Jacobian and one pair-``bincount``
Hessian, sharing one exponent pass between them at a point.  The oracle is
``tests/sizing/reference_gp.py``: each row a dense matrix evaluated alone.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.netlist.sizing_vars import DEFAULT_BOUNDS
from repro.posy import Monomial, Posynomial
from repro.sizing.gp import GPError, StackedLogSumExp

from .reference_gp import reference_hessian, reference_rows

NAMES = tuple(f"w{i}" for i in range(8))
INDEX = {name: i for i, name in enumerate(NAMES)}
EXPONENTS = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
LOG_LO, LOG_HI = (math.log(b) for b in DEFAULT_BOUNDS)


@st.composite
def monomials(draw):
    coefficient = 10.0 ** draw(st.floats(min_value=-6.0, max_value=6.0))
    names = draw(st.lists(st.sampled_from(NAMES), max_size=4, unique=True))
    return Monomial(
        coefficient, {name: draw(st.sampled_from(EXPONENTS)) for name in names}
    )


#: One GP row: 1-30 terms; variables absent from a row stay zero columns.
rows = st.lists(monomials(), min_size=1, max_size=30).map(Posynomial.from_terms)
points = st.lists(
    st.floats(min_value=LOG_LO, max_value=LOG_HI),
    min_size=len(NAMES), max_size=len(NAMES),
).map(np.array)


def assert_matches_reference(program, posynomials, y):
    values, jacobian = reference_rows(posynomials, INDEX, y)
    np.testing.assert_allclose(program.values(y), values, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(program.jacobian(y), jacobian, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(rows, max_size=40), points)
def test_stacked_rows_match_dense_reference(posynomials, y):
    program = StackedLogSumExp(posynomials, INDEX)
    assert program.rows == len(posynomials)
    assert program.terms == sum(len(p) for p in posynomials)
    assert_matches_reference(program, posynomials, y)


multipliers = st.lists(
    st.floats(min_value=0.0, max_value=10.0), min_size=40, max_size=40
).map(np.array)


@settings(max_examples=60, deadline=None)
@given(st.lists(rows, max_size=40), points, multipliers, multipliers)
def test_hessian_and_gradient_match_dense_reference(posynomials, y, lam, outer):
    """``hessian(y, lam, outer)`` is ``sum lam_i grad2 F_i + J' diag(outer) J``
    and ``gradient(y, lam)`` is ``lam' J``."""
    program = StackedLogSumExp(posynomials, INDEX)
    lam, outer = lam[:len(posynomials)], outer[:len(posynomials)]
    _, jacobian = reference_rows(posynomials, INDEX, y)
    expected = reference_hessian(posynomials, INDEX, y, lam)
    expected += (jacobian.T * outer) @ jacobian
    scale = 1.0 + np.abs(expected).max(initial=0.0)
    np.testing.assert_allclose(
        program.hessian(y, lam, outer=outer), expected, rtol=0, atol=1e-12 * scale
    )
    np.testing.assert_allclose(
        program.gradient(y, lam), lam @ jacobian, rtol=0, atol=1e-12 * scale
    )
    assert program.passes == 1


@settings(max_examples=40, deadline=None)
@given(st.lists(rows, max_size=20), points)
def test_fixed_variables_fold_into_coefficients(posynomials, y):
    """Columns named in ``fixed`` become constants: the folded program on
    the free columns matches the dense reference over every column."""
    free = NAMES[::2]
    fixed = {name: float(y[INDEX[name]]) for name in NAMES[1::2]}
    program = StackedLogSumExp(
        posynomials, {name: i for i, name in enumerate(free)}, fixed
    )
    y_free = y[[INDEX[name] for name in free]]
    values, jacobian = reference_rows(posynomials, INDEX, y)
    np.testing.assert_allclose(program.values(y_free), values, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        program.jacobian(y_free), jacobian[:, [INDEX[n] for n in free]],
        rtol=0, atol=1e-12,
    )


# -- pinned cases ----------------------------------------------------------

POSYNOMIALS = [
    Posynomial.from_terms([Monomial(2.0, {"w0": 1.0, "w1": -1.0}), Monomial(0.5)]),
    Posynomial.from_terms([Monomial(3.0, {"w2": 0.5})]),  # single-term row
    Posynomial.from_terms(
        [Monomial(1e-3, {"w1": 2.0}), Monomial(1e3, {"w0": -2.0, "w7": 1.0})]
    ),
]
Y1 = np.linspace(LOG_LO, LOG_HI, len(NAMES))
Y2 = Y1[::-1].copy()


def test_revisited_point_is_recomputed():
    """y1, y2, y1: the cache holds only the latest point."""
    program = StackedLogSumExp(POSYNOMIALS, INDEX)
    first = program.values(Y1).copy()
    assert_matches_reference(program, POSYNOMIALS, Y2)
    np.testing.assert_array_equal(program.values(Y1), first)
    assert_matches_reference(program, POSYNOMIALS, Y1)
    assert program.passes == 3


def test_buffer_mutated_between_values_and_jacobian():
    """A caller may update its point array in place: a change of ``y``
    between ``values`` and ``jacobian`` must trigger a fresh pass, never a
    stale Jacobian from the array object seen before."""
    program = StackedLogSumExp(POSYNOMIALS, INDEX)
    y = Y1.copy()
    program.values(y)
    y[:] = Y2
    _, expected = reference_rows(POSYNOMIALS, INDEX, Y2)
    np.testing.assert_allclose(program.jacobian(y), expected, rtol=0, atol=1e-12)
    assert program.passes == 2


def test_empty_constraint_set():
    program = StackedLogSumExp([], INDEX)
    assert program.values(Y1).shape == (0,)
    assert program.jacobian(Y1).shape == (0, len(NAMES))
    assert (program.rows, program.terms, program.nonzeros) == (0, 0, 0)
    hessian = program.hessian(Y1, np.zeros(0), outer=np.zeros(0))
    np.testing.assert_array_equal(hessian, np.zeros((len(NAMES), len(NAMES))))
    assert hessian.dtype == float


def test_results_are_read_only():
    program = StackedLogSumExp(POSYNOMIALS, INDEX)
    with pytest.raises(ValueError):
        program.values(Y1)[0] = 0.0
    with pytest.raises(ValueError):
        program.jacobian(Y1)[0, 0] = 0.0


def test_empty_row_is_rejected():
    with pytest.raises(GPError):
        StackedLogSumExp([Posynomial.zero()], INDEX)


def test_compiled_program_stacks_bit_for_bit():
    """``GeometricProgram.compile().stacks()`` builds from arrays the very
    stacks the posynomial constructor builds (``math.log`` per term, fixed
    variables folded in signature order), on a program large enough that
    numpy's SIMD ``log`` would differ from libm's in some last bit."""
    from repro.sizing.gp import GeometricProgram

    rng = np.random.default_rng(7)

    def posynomial(terms):
        monos = []
        for _ in range(terms):
            names = rng.choice(NAMES, size=rng.integers(0, 4), replace=False)
            monos.append(Monomial(
                float(10.0 ** rng.uniform(-6, 6)),
                {str(n): float(rng.choice(EXPONENTS)) for n in names},
            ))
        return Posynomial.from_terms(monos)

    gp = GeometricProgram(posynomial(40))
    for i in range(600):
        expr = posynomial(80)
        if not expr.is_constant():
            gp.add_upper_bound(expr, float(rng.uniform(0.5, 50.0)), f"c{i}")
    gp.set_bounds("w3", 2.0, 2.0)
    program = gp.compile()
    index = {name: i for i, name in enumerate(program.free)}
    expected = (
        StackedLogSumExp([gp.objective], index, program.fixed),
        StackedLogSumExp([c.expr for c in gp.inequalities], index, program.fixed),
    )
    assert program.terms > 30_000
    for got, want in zip(program.stacks(), expected):
        assert got._b.tobytes() == want._b.tobytes()
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got._A, part), getattr(want._A, part))
