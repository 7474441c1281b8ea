"""Convenience constructors and checks for posynomial expressions.

These helpers keep model templates (:mod:`repro.models.gates`) and constraint
generation (:mod:`repro.sizing.constraints`) readable: ``var("N1")`` instead of
``Monomial.variable("N1")``, plus structural validation used by tests.
"""

from __future__ import annotations

from typing import Iterable, Union

from .terms import Monomial, Posynomial

Expression = Union[Monomial, Posynomial, int, float]


def var(name: str) -> Monomial:
    """The size variable ``name`` as a monomial."""
    return Monomial.variable(name)


def const(value: float) -> Monomial:
    """A positive constant as a monomial."""
    return Monomial.constant(value)


def as_posynomial(expr: Expression) -> Posynomial:
    """Coerce a monomial / scalar / posynomial into a :class:`Posynomial`."""
    if isinstance(expr, Posynomial):
        return expr
    if isinstance(expr, Monomial):
        return expr.as_posynomial()
    if isinstance(expr, (int, float)):
        if expr == 0:
            return Posynomial.zero()
        return Monomial.constant(expr).as_posynomial()
    raise TypeError(f"cannot interpret {expr!r} as a posynomial")


def as_monomial(expr: Expression) -> Monomial:
    """Coerce into a :class:`Monomial`; raises if the expression has >1 term."""
    if isinstance(expr, Monomial):
        return expr
    if isinstance(expr, (int, float)):
        return Monomial.constant(expr)
    if isinstance(expr, Posynomial):
        return expr.as_monomial()
    raise TypeError(f"cannot interpret {expr!r} as a monomial")


def posy_sum(exprs: Iterable[Expression]) -> Posynomial:
    """Sum of expressions, coerced posynomial (empty sum -> zero)."""
    return Posynomial.weighted_sum((1.0, as_posynomial(e)) for e in exprs)


def is_posynomial_in(expr: Expression, allowed: Iterable[str]) -> bool:
    """True when ``expr`` is a valid posynomial over a subset of ``allowed``.

    Used by model-library self checks: Section 5.1 requires every delay/slope
    template to be posynomial in the size variables it declares.
    """
    try:
        posy = as_posynomial(expr)
    except (TypeError, ValueError):
        return False
    return posy.variables() <= frozenset(allowed)
