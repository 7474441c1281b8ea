"""Tests for the posynomial expression helpers."""

import pytest

from repro.posy import (
    Monomial,
    Posynomial,
    as_monomial,
    as_posynomial,
    is_posynomial_in,
    posy_sum,
    var,
)


class TestCoercion:
    def test_as_monomial_from_scalar(self):
        assert as_monomial(3.0) == Monomial.constant(3.0)

    def test_as_monomial_from_singleton_posynomial(self):
        posy = as_posynomial(2.0 * var("x"))
        assert as_monomial(posy) == 2.0 * var("x")

    def test_as_monomial_multi_term_rejected(self):
        with pytest.raises(ValueError):
            as_monomial(var("x") + var("y"))

    def test_as_monomial_bad_type(self):
        with pytest.raises(TypeError):
            as_monomial([1, 2])


class TestHelpers:
    def test_is_posynomial_in_subset(self):
        assert is_posynomial_in(var("x") + var("y"), {"x", "y", "z"})
        assert not is_posynomial_in(var("w"), {"x", "y"})

    def test_is_posynomial_in_scalar(self):
        assert is_posynomial_in(5.0, set())

    def test_is_posynomial_in_rejects_junk(self):
        assert not is_posynomial_in("garbage", {"x"})

    def test_posy_sum_mixed(self):
        total = posy_sum([var("x"), 1, Posynomial.zero(), 2.5])
        assert total.evaluate({"x": 2.0}) == pytest.approx(5.5)
