"""The signature-level product kernel pinned to the object-by-object oracle.

``Posynomial × Posynomial``, ``Posynomial × Monomial``, ``Monomial ×
Monomial`` and the powers must give the oracle's term dict in the same
insertion order and bit for bit, so every ``evaluate`` sum is the same
float.  The oracle is ``tests/posy/reference_posy.py``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.posy import Monomial, Posynomial

from .reference_posy import (
    monomial_mul,
    monomial_pow,
    posynomial_mul,
    posynomial_pow,
)

NAMES = tuple(f"v{i}" for i in range(6))
EXPONENTS = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
coefficients = st.floats(min_value=-6.0, max_value=6.0).map(lambda e: 10.0 ** e)


@st.composite
def monomials(draw, names=NAMES):
    chosen = draw(st.lists(st.sampled_from(names), max_size=len(names), unique=True))
    return Monomial(
        draw(coefficients),
        {name: draw(st.sampled_from(EXPONENTS)) for name in chosen},
    )


@st.composite
def posynomials(draw, partner=None):
    """0-12 terms over 1-6 variables.  With a ``partner``, some terms are
    reciprocals of the partner's, so products hold exponent pairs that
    cancel to a constant term."""
    n_vars = draw(st.integers(min_value=1, max_value=len(NAMES)))
    terms = draw(st.lists(monomials(NAMES[:n_vars]), max_size=12))
    if partner is not None and len(partner):
        for term in draw(st.lists(st.sampled_from(partner.terms), max_size=4)):
            terms.append(draw(coefficients) * term ** -1)
    return Posynomial.from_terms(terms[:12])


@st.composite
def pairs(draw):
    left = draw(posynomials())
    return left, draw(posynomials(partner=left))


points = st.fixed_dictionaries(
    {name: st.floats(min_value=0.1, max_value=10.0) for name in NAMES}
)


def assert_identical(fast, slow, env):
    assert list(fast._terms.items()) == list(slow._terms.items())
    assert fast.evaluate(env) == slow.evaluate(env)


@settings(max_examples=200, deadline=None)
@given(pairs(), points)
def test_posynomial_product_matches_reference(pair, env):
    left, right = pair
    assert_identical(left * right, posynomial_mul(left, right), env)
    assert_identical(right * left, posynomial_mul(right, left), env)


@settings(max_examples=100, deadline=None)
@given(posynomials(), monomials(), points)
def test_posynomial_times_monomial_matches_reference(posy, mono, env):
    assert_identical(posy * mono, posynomial_mul(posy, mono), env)
    assert_identical(posy / mono, posynomial_mul(posy, monomial_pow(mono, -1)), env)


@settings(max_examples=100, deadline=None)
@given(monomials(), monomials(), st.sampled_from((-1, 0.5, 2, 3, 0)))
def test_monomial_ops_match_reference(a, b, power):
    for fast, slow in (
        (a * b, monomial_mul(a, b)),
        (a * 2.5, monomial_mul(a, 2.5)),
        (a ** power, monomial_pow(a, power)),
        (a / b, monomial_mul(a, monomial_pow(b, -1))),
    ):
        assert fast.signature == slow.signature
        assert fast.coefficient == slow.coefficient


@settings(max_examples=50, deadline=None)
@given(posynomials(), st.integers(min_value=0, max_value=3), points)
def test_posynomial_power_matches_reference(posy, power, env):
    assert_identical(posy ** power, posynomial_pow(posy, power), env)


# -- pinned cases ----------------------------------------------------------


def _error(operation):
    try:
        operation()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    raise AssertionError("expected the product to be rejected")


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_out_of_range_coefficients_raise_like_reference(scale):
    x, y = Monomial(scale, {"x": 1.0}), Monomial(scale, {"y": -1.0})
    p, q = x + 1.0, y + Monomial.variable("x")
    assert _error(lambda: x * y) == _error(lambda: monomial_mul(x, y))
    assert _error(lambda: x ** 2) == _error(lambda: monomial_pow(x, 2))
    assert _error(lambda: p * y) == _error(lambda: posynomial_mul(p, y))
    assert _error(lambda: p * q) == _error(lambda: posynomial_mul(p, q))
    assert _error(lambda: q * p) == _error(lambda: posynomial_mul(q, p))
    assert _error(lambda: p ** 2) == _error(lambda: posynomial_pow(p, 2))


def test_fully_cancelling_product_is_constant():
    a = Monomial(2.0, {"x": 1.0, "y": -0.5})
    b = Monomial(3.0, {"x": -1.0, "y": 0.5})
    assert (a * b).signature == ()
    assert (a * b).coefficient == 6.0
    product = a.as_posynomial() * b.as_posynomial()
    assert list(product._terms.items()) == [((), 6.0)]


def test_zero_posynomial_times_anything_is_zero():
    p = Monomial.variable("x") + 2.0
    for product in (
        Posynomial.zero() * p,
        p * Posynomial.zero(),
        Posynomial.zero() * Monomial.variable("y"),
    ):
        assert product._terms == {}
        assert product == 0
