"""Posynomials as sparse arrays over a shared monomial index.

A :class:`~repro.posy.terms.Posynomial` is a dict from exponent signatures
to coefficients: the right shape for algebra, the wrong one for thousands of
path constraints that all draw their terms from the same few hundred arc
monomials.  This module holds the array form the sizer compiles to:

``MonomialIndex``
    The distinct signatures of a family of posynomials in sorted order (the
    constant signature ``()`` always first, id 0), with one exponent CSR
    over the sorted variable names they mention.  Ascending ids are
    ascending signatures, so a row whose ids are sorted lists its terms in
    the order :attr:`Posynomial.terms` does.

``PosyRow``
    One posynomial over an index: sorted term ids, their coefficients, and
    the insertion order its dict form keeps (which fixes the summation
    order of :meth:`Posynomial.evaluate`).  :meth:`PosyRow.posynomial`
    builds that dict form on first read.

:func:`evaluate_rows` evaluates rows that share an index with
:meth:`Posynomial.evaluate`'s arithmetic, :func:`merge_like_terms` sums
like terms the way a posynomial's term dict does, and :func:`enclose_rows`
is the vector form of :meth:`Posynomial.enclose`: a sound box enclosure of
every row of a CSR term program at once (:func:`enclose_terms` applies it to
rows of an index's terms, :func:`enclose_posynomials` to a list of
posynomials).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..obs import metrics
from .terms import _ULP, Posynomial, Signature


class MonomialIndex:
    """Sorted distinct signatures with their exponent CSR.

    ``indptr[k]:indptr[k + 1]`` slices ``columns`` (into ``names``) and
    ``exponents`` for monomial ``k``, in the signature's own (name) order.
    """

    __slots__ = ("signatures", "ids", "names", "indptr", "columns", "exponents")

    def __init__(self, signatures: Iterable[Signature]):
        sigs = sorted(set(signatures) | {()})
        self.signatures: Tuple[Signature, ...] = tuple(sigs)
        self.ids = {sig: i for i, sig in enumerate(sigs)}
        names = sorted({name for sig in sigs for name, _ in sig})
        column = {name: i for i, name in enumerate(names)}
        self.names: Tuple[str, ...] = tuple(names)
        self.indptr = np.zeros(len(sigs) + 1, dtype=np.intp)
        np.cumsum([len(sig) for sig in sigs], out=self.indptr[1:])
        self.columns = np.array(
            [column[name] for sig in sigs for name, _ in sig], dtype=np.intp
        )
        self.exponents = np.array(
            [exp for sig in sigs for _, exp in sig], dtype=float
        )

    def __len__(self) -> int:
        return len(self.signatures)

    def nonzeros(self, ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(count per monomial, flat CSR positions)`` of ``ids``' exponent
        entries, monomial by monomial."""
        starts = self.indptr[ids]
        counts = self.indptr[ids + 1] - starts
        return counts, gather_positions(starts, counts)


def gather_positions(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + c) for s, c in zip(starts, counts)])``
    without the Python loop."""
    total = int(counts.sum())
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(total)


class PosyRow:
    """One posynomial over a :class:`MonomialIndex`.

    ``ids`` ascend (sorted-signature order) and ``coeffs`` match them;
    ``order`` permutes both into insertion order, the order the dict form
    holds its terms in.
    """

    __slots__ = ("index", "ids", "coeffs", "order", "_posynomial")

    def __init__(
        self,
        index: MonomialIndex,
        ids: np.ndarray,
        coeffs: np.ndarray,
        order: Optional[np.ndarray] = None,
    ):
        self.index = index
        self.ids = ids
        self.coeffs = coeffs
        self.order = np.arange(len(ids)) if order is None else order
        self._posynomial: Optional[Posynomial] = None

    def __len__(self) -> int:
        return len(self.ids)

    def is_constant(self) -> bool:
        """Only the constant term (id 0) or no term at all."""
        return len(self.ids) == 0 or (len(self.ids) == 1 and self.ids[0] == 0)

    def posynomial(self) -> Posynomial:
        """The dict form, built on first read: the same terms, coefficients
        and insertion order as the posynomial the row was merged from."""
        if self._posynomial is None:
            metrics.counter("constraints.delay_posynomials").inc()
            sigs = self.index.signatures
            ids = self.ids[self.order].tolist()
            coeffs = self.coeffs[self.order].tolist()
            self._posynomial = Posynomial(
                {sigs[i]: c for i, c in zip(ids, coeffs)}
            )
        return self._posynomial


def evaluate_rows(rows: Sequence[PosyRow], env: Mapping[str, float]) -> np.ndarray:
    """Every row of ``rows`` (one shared index) at ``env``, bit for bit
    ``row.posynomial().evaluate(env)``: each term is its coefficient times
    ``env[name] ** exponent`` in signature order, and each row sums its
    terms in insertion order, all without building a posynomial."""
    index = rows[0].index
    ids = np.concatenate([row.ids[row.order] for row in rows])
    values = np.concatenate([row.coeffs[row.order] for row in rows])
    _counts, positions = index.nonzeros(np.unique(ids))
    names = index.names
    powers = np.empty(len(index.columns))
    powers[positions] = [
        env[names[column]] ** exp
        for column, exp in zip(
            index.columns[positions].tolist(),
            index.exponents[positions].tolist(),
        )
    ]
    starts = index.indptr[ids]
    nnz = index.indptr[ids + 1] - starts
    for k in range(int(nnz.max(initial=0))):
        at = nnz > k
        values[at] *= powers[starts[at] + k]
    row_of = np.repeat(np.arange(len(rows)), [len(row) for row in rows])
    return np.bincount(row_of, weights=values, minlength=len(rows))


def merge_like_terms(
    groups: np.ndarray, sigs: np.ndarray, values: np.ndarray, n_sigs: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Like terms merged per group, as a term dict accumulates them.

    Term ``t`` adds ``values[t]`` to signature ``sigs[t]`` (an id below
    ``n_sigs``) of group ``groups[t]``; terms arrive group by group.  The
    result lists each ``(group, signature)`` once, in the order of its first
    term, with the sum of its values taken left to right from ``0.0`` — bit
    for bit the ``terms[sig] = terms.get(sig, 0.0) + value`` loop of
    :class:`~repro.posy.terms.Posynomial` over the same terms.  Returns
    ``(groups, sigs, sums)``.
    """
    key = groups * n_sigs + sigs
    _keys, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    sums = np.bincount(inverse.ravel(), weights=values, minlength=len(first))
    order = np.argsort(first)
    at = first[order]
    return groups[at], sigs[at], sums[order]


def enclose_rows(
    coeffs: np.ndarray,
    indptr: np.ndarray,
    columns: np.ndarray,
    exponents: np.ndarray,
    counts: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Outward-rounded ``(lo, hi)`` per row of a term program over a box.

    Terms are ``coeffs[t] * prod x[columns] ** exponents`` over the CSR
    slice ``indptr[t]:indptr[t + 1]``; row ``r`` sums the next
    ``counts[r]`` terms; variable ``j`` ranges over
    ``[lower[j], upper[j]]``.  Each monomial is monotone per variable, so
    its extremes sit at corners: two passes with the bounds picked by
    exponent sign.  The argument is :meth:`Posynomial.enclose`'s, with the
    same multiply and sum order: every operation errs by at most one ulp
    relative, so each term is widened by its operation count times
    ``2**-52`` and each row sum by its term count.  ``np.power`` (SIMD)
    is within one ulp of the correctly rounded ``pow``, so each power
    counts as two operations, and two more per variable plus one keep the
    result below ``enclose``'s own bound.  ``exp(log(bound))`` in place of
    ``np.power`` would err by far more than the count covers.
    """
    nnz = np.diff(indptr)
    positive = exponents > 0
    at_lower = lower[columns]
    at_upper = upper[columns]
    p_lo = np.power(np.where(positive, at_lower, at_upper), exponents)
    p_hi = np.power(np.where(positive, at_upper, at_lower), exponents)
    v_lo = np.array(coeffs, dtype=float)
    v_hi = v_lo.copy()
    term_of = np.repeat(np.arange(len(coeffs)), nnz)
    position = np.arange(len(columns)) - indptr[term_of]
    for k in range(int(nnz.max(initial=0))):
        at = position == k
        terms = term_of[at]
        v_lo[terms] *= p_lo[at]
        v_hi[terms] *= p_hi[at]
    ops = 2 + 5 * nnz
    row_of = np.repeat(np.arange(len(counts)), counts)
    lo = np.bincount(row_of, v_lo - v_lo * ops * _ULP, minlength=len(counts))
    hi = np.bincount(row_of, v_hi + v_hi * ops * _ULP, minlength=len(counts))
    pad = (np.abs(lo) + np.abs(hi)) * np.maximum(1, counts) * _ULP
    return lo - pad, hi + pad


def enclose_terms(
    index: MonomialIndex,
    term_ids: np.ndarray,
    coeffs: np.ndarray,
    counts: np.ndarray,
    bounds: Callable[[str], Tuple[float, float]],
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`enclose_rows` over rows of terms of ``index``: row ``r`` is the
    next ``counts[r]`` of ``term_ids`` / ``coeffs``, the box is
    ``bounds(name) = (lower, upper)``.  Returns ``(lo, hi)`` per row."""
    nnz, positions = index.nonzeros(term_ids)
    indptr = np.zeros(len(term_ids) + 1, dtype=np.intp)
    np.cumsum(nnz, out=indptr[1:])
    box = [bounds(name) for name in index.names]
    lower = np.array([b[0] for b in box], dtype=float)
    upper = np.array([b[1] for b in box], dtype=float)
    return enclose_rows(
        coeffs, indptr, index.columns[positions], index.exponents[positions],
        counts, lower, upper,
    )


def enclose_posynomials(
    posys: Sequence[Posynomial], bounds: Callable[[str], Tuple[float, float]]
) -> List[Tuple[float, float]]:
    """:func:`enclose_terms` over ``posys``: a sound ``(lo, hi)`` per
    posynomial over the box ``bounds(name) = (lower, upper)``, each summed in
    sorted signature order as :meth:`Posynomial.enclose` sums it."""
    if not posys:
        return []
    index = MonomialIndex(sig for posy in posys for sig, _ in posy.items())
    ids = index.ids
    rows = [sorted((ids[sig], coeff) for sig, coeff in posy.items()) for posy in posys]
    term_ids = np.array([i for row in rows for i, _ in row], dtype=np.intp)
    coeffs = np.array([c for row in rows for _, c in row], dtype=float)
    counts = np.array([len(row) for row in rows], dtype=np.intp)
    lo, hi = enclose_terms(index, term_ids, coeffs, counts, bounds)
    return list(zip(lo.tolist(), hi.tolist()))
