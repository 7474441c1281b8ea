"""Per-circuit memos: data derived from a built circuit, kept with it.

Analyses that are pure functions of a circuit keep their results in one
dict per circuit, each under a key naming what else it read:

* the timing arc table (:class:`repro.sim.timing.ArcTable`): library
  content and size-table state;
* the pruning stage-key table (:func:`repro.sizing.pruning.stage_keys`):
  size-table state;
* the sizer's front end, pruned paths and constraint set
  (:meth:`repro.sizing.engine.SmartSizer._front_end`): size-table state,
  library content, delay spec and OTB window;
* the DFA303 box-interval solution
  (:func:`repro.lint.dataflow.interval.box_intervals`): library content,
  size-table state, box bounds and input slope;
* the switch-level channel graph
  (:func:`repro.lint.symbolic.switchlevel.channel_graph`): input-phase
  declarations;
* the switch-level extraction
  (:func:`repro.lint.symbolic.extract.extract_cached`): functional spec
  object, enumeration budgets, seed and input-phase declarations.

The store is weakly keyed, so a memo lives exactly as long as its circuit;
a memo value must therefore never hold the circuit itself.

Circuits are treated as immutable once built.  Every function that edits a
built circuit in place (:mod:`repro.core.editing`, the wiring mutants of
:mod:`repro.lint.symbolic.mutate`) calls :func:`forget` so no memo outlives
the structure it was derived from.  Size-table changes (designer pins,
regularity ties, bound edits) need no call: every memo that reads the
table keys on its state (:meth:`SizeTable.state`), and the box-interval
solution on the bounds too.
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
