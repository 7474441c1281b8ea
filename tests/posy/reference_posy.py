"""Object-by-object posynomial products: the oracle for the product kernel.

These are the products :mod:`repro.posy.terms` used before it merged
signatures directly.  A monomial product builds an exponent dict and a new
:class:`Monomial` (re-sorting the signature); a posynomial product expands
``Σ_r left × r`` over the right-hand terms in sorted order, one
intermediate :class:`Posynomial` per term.  They read only the public
constructors, ``from_terms`` and ``+``, so they share no code with the
kernel they check.

:data:`PATCHES` maps each operator slot to its oracle version, for running
whole subsystems (the arc tables) on the oracle with ``monkeypatch``.
"""

from repro.posy import Monomial, Posynomial


def monomial_mul(a, b):
    """``a × b`` for a :class:`Monomial` ``a`` and a monomial or number."""
    if isinstance(b, Monomial):
        exponents = a.exponents
        for var, exp in b.signature:
            exponents[var] = exponents.get(var, 0.0) + exp
        return Monomial(a.coefficient * b.coefficient, exponents)
    if isinstance(b, (int, float)):
        return Monomial(a.coefficient * b, a.exponents)
    return NotImplemented


def monomial_pow(a, power):
    power = float(power)
    exponents = {var: exp * power for var, exp in a.signature}
    return Monomial(a.coefficient ** power, exponents)


def posynomial_mul(p, q):
    """``p × q`` for a :class:`Posynomial` ``p``: the term-by-term loop."""
    if isinstance(q, (int, float)):
        if q == 0:
            return Posynomial.zero()
        if q < 0:
            raise ValueError("cannot scale a posynomial by a negative number")
        return Posynomial({sig: c * q for sig, c in p._terms.items()})
    if isinstance(q, Monomial):
        return Posynomial.from_terms(monomial_mul(term, q) for term in p.terms)
    if isinstance(q, Posynomial):
        product = Posynomial.zero()
        for term in q.terms:
            product = product + posynomial_mul(p, term)
        return product
    return NotImplemented


def posynomial_pow(p, power):
    if not isinstance(power, int) or power < 0:
        raise ValueError("posynomial powers must be nonnegative integers")
    result = Monomial.constant(1.0).as_posynomial()
    for _ in range(power):
        result = posynomial_mul(result, p)
    return result


#: ``(class, slot) -> oracle`` for ``monkeypatch.setattr``.
PATCHES = {
    (Monomial, "__mul__"): monomial_mul,
    (Monomial, "__rmul__"): monomial_mul,
    (Monomial, "__pow__"): monomial_pow,
    (Posynomial, "__mul__"): posynomial_mul,
    (Posynomial, "__rmul__"): posynomial_mul,
    (Posynomial, "__pow__"): posynomial_pow,
}


def use_reference_products(monkeypatch):
    """Route every posynomial/monomial product through the oracle."""
    for (cls, slot), oracle in PATCHES.items():
        monkeypatch.setattr(cls, slot, oracle)
