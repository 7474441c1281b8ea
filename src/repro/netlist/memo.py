"""Per-circuit memos: data derived from a built circuit, kept with it.

Analyses that are pure functions of a circuit's structure (the switch-level
extraction of :mod:`repro.lint.symbolic.extract`, the timing arc tables of
:mod:`repro.sim.timing`, the stage-key tables of :mod:`repro.sizing.pruning`)
keep their results in one dict per circuit.  The store is weakly keyed, so
a memo lives exactly as long as its circuit; a memo value must therefore
never hold the circuit itself.

Circuits are treated as immutable once built.  Every function that edits a
built circuit in place (:mod:`repro.core.editing`, the wiring mutants of
:mod:`repro.lint.symbolic.mutate`) calls :func:`forget` so no memo outlives
the structure it was derived from.  Size-table changes (designer pins,
regularity ties) need no call: the timing arc tables and the pruning
stage-key tables key on the table's state (:meth:`SizeTable.state`).
"""

from __future__ import annotations

import weakref
from typing import Any, Dict

_MEMOS: "weakref.WeakKeyDictionary[Any, Dict[Any, Any]]" = (
    weakref.WeakKeyDictionary()
)


def circuit_memo(circuit: Any) -> Dict[Any, Any]:
    """The memo dict of ``circuit`` (created empty on first use).  Callers
    namespace their keys, e.g. with a leading tag or class."""
    memo = _MEMOS.get(circuit)
    if memo is None:
        memo = _MEMOS[circuit] = {}
    return memo


def forget(circuit: Any) -> None:
    """Drop every memo of ``circuit`` (call after an in-place edit)."""
    _MEMOS.pop(circuit, None)
