"""Property-based tests: posynomial algebra laws and GP-relevant invariants."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.posy import Monomial, Posynomial, as_posynomial

VARS = ("x", "y", "z")

coefficients = st.floats(min_value=1e-3, max_value=1e3)
exponents = st.floats(min_value=-3.0, max_value=3.0).map(lambda e: round(e, 3))
integer_exponents = st.integers(min_value=-3, max_value=3).map(float)
#: Dyadic widths k/64: exact in binary, so exact corner values are cheap.
dyadic = st.integers(min_value=1, max_value=64 * 64).map(lambda k: k / 64)


@st.composite
def monomials(draw, exps=exponents):
    coeff = draw(coefficients)
    n_vars = draw(st.integers(min_value=0, max_value=3))
    names = draw(
        st.lists(st.sampled_from(VARS), min_size=n_vars, max_size=n_vars, unique=True)
    )
    return Monomial(coeff, {name: draw(exps) for name in names})


@st.composite
def posynomials(draw, exps=exponents):
    terms = draw(st.lists(monomials(exps), min_size=1, max_size=5))
    return Posynomial.from_terms(terms)


@st.composite
def environments(draw):
    return {
        name: draw(st.floats(min_value=1e-2, max_value=1e2)) for name in VARS
    }


@st.composite
def boxes(draw, corners=st.floats(min_value=1e-2, max_value=1e2)):
    """``name -> (lower, upper)`` over every variable in ``VARS``."""
    return {name: tuple(sorted((draw(corners), draw(corners)))) for name in VARS}


@given(monomials(), monomials(), environments())
def test_monomial_product_evaluates_pointwise(a, b, env):
    assert (a * b).evaluate(env) == pytest.approx(
        a.evaluate(env) * b.evaluate(env), rel=1e-9
    )


@given(monomials(), environments())
def test_monomial_inverse(a, env):
    inv = a ** -1
    assert (a * inv).evaluate(env) == pytest.approx(1.0, rel=1e-9)


@given(posynomials(), posynomials(), environments())
def test_posynomial_sum_evaluates_pointwise(p, q, env):
    assert (p + q).evaluate(env) == pytest.approx(
        p.evaluate(env) + q.evaluate(env), rel=1e-9
    )


@given(posynomials(), posynomials(), environments())
def test_posynomial_product_evaluates_pointwise(p, q, env):
    assert (p * q).evaluate(env) == pytest.approx(
        p.evaluate(env) * q.evaluate(env), rel=1e-6
    )


@given(posynomials(), environments())
def test_posynomials_are_positive(p, env):
    """A posynomial is positive everywhere on the positive orthant."""
    assert p.evaluate(env) > 0.0


@given(posynomials(), environments(), environments())
def test_log_log_convexity_along_segment(p, env_a, env_b):
    """f(x) posynomial => log f(e^y) convex in y: midpoint rule."""
    mid = {
        name: math.exp((math.log(env_a[name]) + math.log(env_b[name])) / 2.0)
        for name in VARS
    }
    lhs = math.log(p.evaluate(mid))
    rhs = 0.5 * (math.log(p.evaluate(env_a)) + math.log(p.evaluate(env_b)))
    assert lhs <= rhs + 1e-9


@given(posynomials(), environments())
def test_gradient_is_sum_of_term_gradients(p, env):
    """Posynomial.grad must agree with summing each Monomial's gradient
    (independent implementations of the same derivative)."""
    grad = p.grad(env)
    expected = {}
    for term in p.terms:
        for name, g in term.grad(env).items():
            expected[name] = expected.get(name, 0.0) + g
    for name in p.variables():
        assert grad.get(name, 0.0) == pytest.approx(
            expected.get(name, 0.0), rel=1e-9, abs=1e-12
        )


@given(monomials(), environments())
def test_monomial_gradient_matches_finite_difference(m, env):
    grad = m.grad(env)
    for name in m.variables():
        h = env[name] * 1e-7
        up = dict(env)
        up[name] = env[name] + h
        down = dict(env)
        down[name] = env[name] - h
        numeric = (m.evaluate(up) - m.evaluate(down)) / (2 * h)
        assert grad[name] == pytest.approx(numeric, rel=1e-4, abs=1e-9)


@given(posynomials())
def test_addition_commutes(p):
    q = Posynomial.from_terms([Monomial(2.0, {"x": 1.0})])
    assert p + q == q + p


@given(posynomials(), environments())
def test_scalar_scale_linear(p, env):
    assert (3.0 * p).evaluate(env) == pytest.approx(3.0 * p.evaluate(env), rel=1e-9)


@given(monomials())
def test_monomial_roundtrip_through_posynomial(m):
    p = as_posynomial(m)
    assert p.is_monomial()
    back = p.as_monomial()
    assert back == m


# -- Posynomial.enclose: the outward-rounded interval kernel ---------------


@given(posynomials(), boxes(), st.data())
def test_enclose_contains_every_point_of_the_box(p, box, data):
    lo, hi = p.enclose(box.__getitem__)
    unit = st.floats(min_value=0.0, max_value=1.0)
    env = {
        name: min(upper, max(lower, lower + data.draw(unit) * (upper - lower)))
        for name, (lower, upper) in box.items()
    }
    assert lo <= p.evaluate(env) <= hi


@given(posynomials(), environments())
def test_enclose_of_a_point_contains_its_value(p, env):
    lo, hi = p.enclose(lambda name: (env[name], env[name]))
    assert lo <= p.evaluate(env) <= hi
    # Outward padding only: a few ulps per term, never a loose bound.
    assert hi - lo <= 1e-12 * p.evaluate(env)


def _exact_corner(p, box, side):
    """Exact rational box minimum (``side=0``) or maximum (``side=1``):
    every monomial is monotone per variable, so it peaks at a corner."""
    total = Fraction(0)
    for term in p.terms:
        value = Fraction(term.coefficient)
        for name, exp in term.signature:
            lower, upper = box[name]
            corner = (lower, upper)[side] if exp > 0 else (upper, lower)[side]
            value *= Fraction(corner) ** int(exp)
        total += value
    return total


@given(posynomials(integer_exponents), boxes(dyadic))
def test_enclose_contains_exact_rational_range(p, box):
    lo, hi = p.enclose(box.__getitem__)
    assert lo <= _exact_corner(p, box, 0)
    assert _exact_corner(p, box, 1) <= hi
