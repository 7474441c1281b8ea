"""Posynomial algebra substrate for the SMART geometric-programming sizer."""

from .express import (
    as_monomial,
    as_posynomial,
    const,
    is_posynomial_in,
    posy_sum,
    var,
)
from .terms import Monomial, Posynomial

__all__ = [
    "Monomial",
    "Posynomial",
    "var",
    "const",
    "as_monomial",
    "as_posynomial",
    "posy_sum",
    "is_posynomial_in",
]
