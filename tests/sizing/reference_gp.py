"""A slow, independent log-sum-exp evaluator: the oracle for the stacked GP.

This is the per-row evaluator :mod:`repro.sizing.gp` used before the
stacked program.  Every row owns a dense ``(terms x all-variables)``
exponent matrix and computes its value and gradient on its own, so it
shares nothing with :class:`repro.sizing.gp.StackedLogSumExp` but the
posynomials; a disagreement points at the CSR build, the segmented
reductions or the pass cache.
"""

import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Tuple

import numpy as np

from repro.posy import Posynomial


@dataclass
class _LogSumExp:
    """``log sum_k exp(b_k + A_k . y)`` with analytic gradient."""

    A: np.ndarray  # (terms, vars) exponent matrix
    b: np.ndarray  # (terms,) log coefficients

    @classmethod
    def from_posynomial(cls, posy: Posynomial, index: Mapping[str, int]) -> "_LogSumExp":
        terms = posy.terms
        A = np.zeros((len(terms), len(index)))
        b = np.zeros(len(terms))
        for k, mono in enumerate(terms):
            b[k] = math.log(mono.coefficient)
            for name, exp in mono.signature:
                A[k, index[name]] = exp
        return cls(A=A, b=b)

    def _exponents(self, y: np.ndarray) -> np.ndarray:
        return self.b + self.A @ y

    def value(self, y: np.ndarray) -> float:
        e = self._exponents(y)
        m = float(e.max())
        return m + math.log(float(np.exp(e - m).sum()))

    def grad(self, y: np.ndarray) -> np.ndarray:
        e = self._exponents(y)
        w = np.exp(e - e.max())
        w /= w.sum()
        return w @ self.A


def reference_rows(
    posynomials: Sequence[Posynomial], index: Mapping[str, int], y: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Row values ``(rows,)`` and Jacobian ``(rows, variables)`` at ``y``,
    one dense row at a time."""
    rows = [_LogSumExp.from_posynomial(p, index) for p in posynomials]
    values = np.array([row.value(y) for row in rows])
    jacobian = np.array([row.grad(y) for row in rows]).reshape(len(rows), len(index))
    return values, jacobian
