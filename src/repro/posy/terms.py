"""Posynomial algebra.

The SMART sizer (Section 5 of the paper) models component delay and slope as
*posynomial* functions of device sizes so that the sizing problem becomes a
geometric program (GP), which is convex after a log transform.  This module
implements the two building blocks:

``Monomial``
    ``c * x1**a1 * x2**a2 * ...`` with ``c > 0`` and real exponents.

``Posynomial``
    A finite sum of monomials.

Both are immutable value types supporting ``+``, ``-`` (only when the result
stays posynomial, i.e. subtraction of like terms with a smaller coefficient),
``*``, ``/`` (division by a monomial or positive scalar) and ``**``.  They can
be evaluated at a positive assignment of their variables, differentiated, and
queried for their variables.  :meth:`Posynomial.enclose` bounds a posynomial
over a box of variable values with outward rounding; it is the one interval
kernel behind every "proved" verdict of the lint screens and certificates.

Everything downstream of the model library — constraint generation, the GP
solver, the convergence loop — manipulates these objects, so they are written
to be cheap: a posynomial is a dict from exponent signatures to coefficients.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, Iterator, Mapping, Tuple, Union

Number = Union[int, float]

#: An exponent signature: sorted tuple of (variable, exponent) pairs with no
#: zero exponents.  Used as the dict key that merges like monomial terms.
Signature = Tuple[Tuple[str, float], ...]

_COEFF_EPS = 1e-300

#: Relative error bound of one float operation (one ulp at 1.0), the unit
#: of :meth:`Posynomial.enclose`'s outward padding.
_ULP = 2.0 ** -52


def _make_signature(exponents: Mapping[str, float]) -> Signature:
    """Normalize an exponent mapping into a canonical hashable signature."""
    return tuple(sorted((v, float(e)) for v, e in exponents.items() if e != 0.0))


def _checked(coefficient: Number) -> float:
    """``coefficient`` as a float, or ``ValueError`` unless it is positive
    and finite (an overflowed or underflowed product fails here)."""
    coefficient = float(coefficient)
    if not coefficient > 0.0:
        raise ValueError(f"monomial coefficient must be > 0, got {coefficient}")
    if not math.isfinite(coefficient):
        raise ValueError(f"monomial coefficient must be finite, got {coefficient}")
    return coefficient


def _merge(left: Signature, right: Signature) -> Signature:
    """Signature of the product of two monomials: the sorted merge of two
    sorted signatures, a shared variable's exponents added and the variable
    dropped when they cancel."""
    if not right:
        return left
    if not left:
        return right
    if len(left) == 1 and len(right) == 1:
        (l_var, l_exp), (r_var, r_exp) = left[0], right[0]
        if l_var < r_var:
            return left + right
        if r_var < l_var:
            return right + left
        exp = l_exp + r_exp
        return ((l_var, exp),) if exp != 0.0 else ()
    merged = []
    i = j = 0
    n_left, n_right = len(left), len(right)
    while i < n_left and j < n_right:
        l_var, l_exp = left[i]
        r_var, r_exp = right[j]
        if l_var < r_var:
            merged.append(left[i])
            i += 1
        elif r_var < l_var:
            merged.append(right[j])
            j += 1
        else:
            exp = l_exp + r_exp
            if exp != 0.0:
                merged.append((l_var, exp))
            i += 1
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return tuple(merged)


def _product(
    left: Mapping[Signature, float], right: Mapping[Signature, float]
) -> Dict[Signature, float]:
    """Term dict of ``left × right``, merged at the signature level.

    The outer loop runs over the right-hand terms in sorted order, the inner
    one over the left-hand terms in sorted order.  Each right-hand term's
    products are summed and pruned (``<= _COEFF_EPS``) before joining the
    result, exactly as the term-by-term expansion ``Σ_r left × r`` does, so
    term insertion order — and with it every :meth:`Posynomial.evaluate`
    sum — is bit-identical to it.
    """
    left_items = sorted(left.items())
    terms: Dict[Signature, float] = {}
    for r_sig, r_coeff in sorted(right.items()):
        partial: Dict[Signature, float] = {}
        for l_sig, l_coeff in left_items:
            sig = _merge(l_sig, r_sig)
            partial[sig] = partial.get(sig, 0.0) + _checked(l_coeff * r_coeff)
        for sig, coeff in partial.items():
            if coeff > _COEFF_EPS:
                terms[sig] = terms.get(sig, 0.0) + coeff
    return terms


class Monomial:
    """A positive-coefficient monomial ``c * prod(x_i ** a_i)``.

    Parameters
    ----------
    coefficient:
        Strictly positive multiplier ``c``.
    exponents:
        Mapping from variable name to real exponent.  Zero exponents are
        dropped.
    """

    __slots__ = ("coefficient", "_signature")

    def __init__(self, coefficient: Number, exponents: Mapping[str, float] = ()):
        self.coefficient = _checked(coefficient)
        self._signature = _make_signature(dict(exponents))

    # -- constructors ------------------------------------------------------

    @classmethod
    def variable(cls, name: str) -> "Monomial":
        """The monomial consisting of a single variable ``x``."""
        return cls._view(1.0, ((name, 1.0),))

    @classmethod
    def constant(cls, value: Number) -> "Monomial":
        """A constant monomial (no variables)."""
        return cls._from_signature(value, ())

    @classmethod
    def _from_signature(cls, coefficient: Number, signature: Signature) -> "Monomial":
        """A monomial from a canonical signature, with the constructor's
        coefficient check."""
        return cls._view(_checked(coefficient), signature)

    @classmethod
    def _view(cls, coefficient: float, signature: Signature) -> "Monomial":
        """A monomial over one stored term of a posynomial, unchecked."""
        mono = cls.__new__(cls)
        mono.coefficient = coefficient
        mono._signature = signature
        return mono

    # -- introspection -----------------------------------------------------

    @property
    def exponents(self) -> Dict[str, float]:
        """Exponent mapping (a fresh dict; the monomial itself is immutable)."""
        return dict(self._signature)

    @property
    def signature(self) -> Signature:
        return self._signature

    def variables(self) -> frozenset:
        """The set of variable names appearing with nonzero exponent."""
        return frozenset(v for v, _ in self._signature)

    def is_constant(self) -> bool:
        return not self._signature

    def degree(self, variable: str) -> float:
        """Exponent of ``variable`` in this monomial (0 if absent)."""
        for var, exp in self._signature:
            if var == variable:
                return exp
        return 0.0

    # -- evaluation --------------------------------------------------------

    def evaluate(self, env: Mapping[str, float]) -> float:
        """Evaluate at a positive assignment ``env`` of all variables."""
        value = self.coefficient
        for var, exp in self._signature:
            x = env[var]
            if x <= 0.0:
                raise ValueError(f"variable {var!r} must be positive, got {x}")
            value *= x ** exp
        return value

    def partial(self, variable: str) -> "Monomial":
        """``d(self)/d(variable)`` — only valid when the result is a monomial.

        Requires the exponent of ``variable`` to be positive (so the derivative
        keeps a positive coefficient).  Raises ``ValueError`` otherwise; for
        general derivatives evaluate :meth:`grad` numerically instead.
        """
        exp = self.degree(variable)
        if exp <= 0.0:
            raise ValueError(
                f"partial w.r.t. {variable!r} of {self!r} is not a monomial"
            )
        exponents = self.exponents
        exponents[variable] = exp - 1.0
        return Monomial(self.coefficient * exp, exponents)

    def grad(self, env: Mapping[str, float]) -> Dict[str, float]:
        """Gradient at ``env`` as ``{variable: d/dx}`` (only own variables)."""
        value = self.evaluate(env)
        return {var: value * exp / env[var] for var, exp in self._signature}

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: Union["Monomial", Number]) -> "Monomial":
        if isinstance(other, Monomial):
            return Monomial._from_signature(
                self.coefficient * other.coefficient,
                _merge(self._signature, other._signature),
            )
        if isinstance(other, (int, float)):
            return Monomial._from_signature(
                self.coefficient * other, self._signature
            )
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Monomial", Number]) -> "Monomial":
        if isinstance(other, Monomial):
            return self * other ** -1
        if isinstance(other, (int, float)):
            return Monomial._from_signature(
                self.coefficient / other, self._signature
            )
        return NotImplemented

    def __rtruediv__(self, other: Number) -> "Monomial":
        if isinstance(other, (int, float)):
            # ``Monomial.constant(other) * self ** -1``, without building
            # the constant: the same coefficient product and signature.
            inverse = self ** -1
            return Monomial._from_signature(
                _checked(other) * inverse.coefficient, inverse._signature
            )
        return NotImplemented

    def __pow__(self, power: Number) -> "Monomial":
        power = float(power)
        return Monomial._from_signature(
            self.coefficient ** power,
            tuple(
                (var, exp * power)
                for var, exp in self._signature
                if exp * power != 0.0
            ),
        )

    def __add__(self, other) -> "Posynomial":
        return Posynomial.from_terms([self]) + other

    __radd__ = __add__

    def __eq__(self, other) -> bool:
        if isinstance(other, Monomial):
            return (
                self._signature == other._signature
                and math.isclose(self.coefficient, other.coefficient, rel_tol=1e-12)
            )
        if isinstance(other, (int, float)):
            return self.is_constant() and math.isclose(self.coefficient, other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((round(self.coefficient, 12), self._signature))

    def __repr__(self) -> str:
        if self.is_constant():
            return f"{self.coefficient:g}"
        parts = [f"{self.coefficient:g}"] if self.coefficient != 1.0 else []
        for var, exp in self._signature:
            parts.append(var if exp == 1.0 else f"{var}^{exp:g}")
        return "*".join(parts) if parts else "1"

    def as_posynomial(self) -> "Posynomial":
        if self.coefficient > _COEFF_EPS:
            return Posynomial({self._signature: self.coefficient})
        return Posynomial.zero()


class Posynomial:
    """A sum of :class:`Monomial` terms with like terms merged.

    Construct via :meth:`from_terms`, arithmetic on monomials, or the helpers
    in :mod:`repro.posy.express`.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Signature, float]):
        # Internal constructor; assumes coefficients positive & merged.
        self._terms: Dict[Signature, float] = dict(terms)

    @classmethod
    def from_terms(cls, monomials: Iterable[Union[Monomial, Number]]) -> "Posynomial":
        terms: Dict[Signature, float] = {}
        for mono in monomials:
            if isinstance(mono, (int, float)):
                if mono == 0:
                    continue
                mono = Monomial.constant(mono)
            terms[mono.signature] = terms.get(mono.signature, 0.0) + mono.coefficient
        return cls({sig: c for sig, c in terms.items() if c > _COEFF_EPS})

    @classmethod
    def weighted_sum(
        cls, pairs: Iterable[Tuple[float, "Posynomial"]]
    ) -> "Posynomial":
        """``Σ w·p`` over ``(w, p)`` pairs, accumulated into one term dict
        (linear in the total term count).  Zero weights add nothing;
        negative weights would leave the posynomial cone."""
        terms: Dict[Signature, float] = {}
        for weight, posy in pairs:
            if weight < 0:
                raise ValueError("cannot scale a posynomial by a negative number")
            if weight == 0:
                continue
            for sig, coeff in posy._terms.items():
                terms[sig] = terms.get(sig, 0.0) + weight * coeff
        return cls(terms)

    @classmethod
    def zero(cls) -> "Posynomial":
        """The empty sum.  Valid as an additive identity only — a GP constraint
        body must be nonempty."""
        return cls({})

    # -- introspection -----------------------------------------------------

    @property
    def terms(self) -> Tuple[Monomial, ...]:
        return tuple(
            Monomial._view(c, sig) for sig, c in sorted(self._terms.items())
        )

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self.terms)

    def items(self) -> Iterable[Tuple[Signature, float]]:
        """``(signature, coefficient)`` pairs in insertion order, the order
        :meth:`evaluate` and :meth:`weighted_sum` visit them in."""
        return self._terms.items()

    def __len__(self) -> int:
        return len(self._terms)

    def variables(self) -> frozenset:
        names = set()
        for sig in self._terms:
            names.update(v for v, _ in sig)
        return frozenset(names)

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and () in self._terms)

    def as_monomial(self) -> Monomial:
        if not self.is_monomial():
            raise ValueError(f"{self!r} is not a monomial")
        ((sig, coeff),) = self._terms.items()
        return Monomial._view(coeff, sig)

    def constant_part(self) -> float:
        """Coefficient of the constant term (0 if none)."""
        return self._terms.get((), 0.0)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, env: Mapping[str, float]) -> float:
        total = 0.0
        for sig, coeff in self._terms.items():
            value = coeff
            for var, exp in sig:
                value *= env[var] ** exp
            total += value
        return total

    def enclose(
        self, bounds: Callable[[str], Tuple[float, float]]
    ) -> Tuple[float, float]:
        """Outward-rounded enclosure ``(lo, hi)`` over a variable box.

        ``bounds(name)`` returns ``(lower, upper)`` for each variable; a
        point ``env`` is the degenerate box ``lambda n: (env[n], env[n])``.
        Each monomial is monotone per variable — increasing for a positive
        exponent, decreasing for a negative one — so its box minimum and
        maximum sit at corners, and term extremes sum to the posynomial's.

        Every term is a positive coefficient times positive powers, so each
        float operation errs by at most one ulp relative: a term is widened
        by its operation count (``1 + 2·nvars``: the coefficient plus one
        pow and one multiply per variable) times ``2**-52``, and the running
        sums by the term count.  The result contains the exact real-valued
        range without directed rounding modes.  Terms are summed in sorted
        signature order, so the bounds are reproducible bit for bit.
        """
        lo = hi = 0.0
        for sig, coeff in sorted(self._terms.items()):
            v_lo = v_hi = coeff
            for var, exp in sig:
                lower, upper = bounds(var)
                if exp > 0:
                    v_lo *= lower ** exp
                    v_hi *= upper ** exp
                else:
                    v_lo *= upper ** exp
                    v_hi *= lower ** exp
            ops = 1 + 2 * len(sig)
            lo += v_lo - v_lo * ops * _ULP
            hi += v_hi + v_hi * ops * _ULP
        pad = (abs(lo) + abs(hi)) * max(1, len(self._terms)) * _ULP
        return lo - pad, hi + pad

    def grad(self, env: Mapping[str, float]) -> Dict[str, float]:
        """Gradient at ``env`` over this posynomial's own variables."""
        grad: Dict[str, float] = {}
        for sig, coeff in self._terms.items():
            value = coeff
            for var, exp in sig:
                value *= env[var] ** exp
            for var, exp in sig:
                grad[var] = grad.get(var, 0.0) + value * exp / env[var]
        return grad

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Posynomial":
        if isinstance(other, Posynomial):
            terms = dict(self._terms)
            for sig, coeff in other._terms.items():
                terms[sig] = terms.get(sig, 0.0) + coeff
            return Posynomial(terms)
        if isinstance(other, Monomial):
            terms = dict(self._terms)
            terms[other.signature] = terms.get(other.signature, 0.0) + other.coefficient
            return Posynomial(terms)
        if isinstance(other, (int, float)):
            if other == 0:
                return self
            return self + Monomial.constant(other)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other) -> "Posynomial":
        """Subtraction is allowed only when every resulting coefficient stays
        positive (or cancels exactly) — i.e. the result is still posynomial."""
        if isinstance(other, (int, float)):
            other = Monomial.constant(other).as_posynomial() if other else Posynomial.zero()
        elif isinstance(other, Monomial):
            other = other.as_posynomial()
        if not isinstance(other, Posynomial):
            return NotImplemented
        terms = dict(self._terms)
        for sig, coeff in other._terms.items():
            remaining = terms.get(sig, 0.0) - coeff
            if remaining < -1e-9:
                raise ValueError(
                    "subtraction would produce a negative coefficient; "
                    "result would not be posynomial"
                )
            if remaining <= _COEFF_EPS:
                terms.pop(sig, None)
            else:
                terms[sig] = remaining
        return Posynomial(terms)

    def __mul__(self, other) -> "Posynomial":
        if isinstance(other, (int, float)):
            if other == 0:
                return Posynomial.zero()
            if other < 0:
                raise ValueError("cannot scale a posynomial by a negative number")
            return Posynomial({sig: c * other for sig, c in self._terms.items()})
        if isinstance(other, Monomial):
            return Posynomial(
                _product(self._terms, {other._signature: other.coefficient})
            )
        if isinstance(other, Posynomial):
            return Posynomial(_product(self._terms, other._terms))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Posynomial":
        if isinstance(other, (int, float)):
            return self * (1.0 / other)
        if isinstance(other, Monomial):
            return self * other ** -1
        if isinstance(other, Posynomial) and other.is_monomial():
            return self / other.as_monomial()
        return NotImplemented

    def __pow__(self, power: int) -> "Posynomial":
        if not isinstance(power, int) or power < 0:
            raise ValueError("posynomial powers must be nonnegative integers")
        result = Monomial.constant(1.0).as_posynomial()
        for _ in range(power):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, Posynomial):
            if set(self._terms) != set(other._terms):
                return False
            return all(
                math.isclose(c, other._terms[sig], rel_tol=1e-9, abs_tol=1e-12)
                for sig, c in self._terms.items()
            )
        if isinstance(other, (Monomial, int, float)):
            if isinstance(other, (int, float)):
                if other == 0:
                    return not self._terms
                other = Monomial.constant(other)
            return self.is_monomial() and self.as_monomial() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset((sig, round(c, 9)) for sig, c in self._terms.items()))

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(repr(t) for t in self.terms)
