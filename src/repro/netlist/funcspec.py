"""Golden functional specifications for macros.

A :class:`FunctionalSpec` is the *reference semantics* of a macro: for every
valid assignment of the primary inputs, what boolean value must each primary
output settle to after evaluation?  Macro generators attach one to every
circuit they emit (``Circuit.functional_spec``); the switch-level verifier
(:mod:`repro.lint.symbolic`) checks the extracted transistor-level behavior
against it (rule ``SVC401``) and restricts its electrical checks
(``SVC402``-``SVC404``) to the spec's valid input space.

The spec is deliberately *operational* — plain Python callables over an
input environment — rather than a BDD/AIG package: the corpus macros are
small enough that exact cofactor enumeration (or seeded sampling beyond the
input budget) against a callable is both simpler and harder to get wrong
than maintaining a second symbolic representation.

This module lives in :mod:`repro.netlist` (the lowest layer) so that both
the macro generators and the lint engine can import it without cycles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Mapping, Optional, Sequence, Tuple

#: An input environment: primary-input net name -> boolean value.
Env = Mapping[str, bool]


@dataclass(frozen=True)
class FunctionalSpec:
    """The golden function of one macro.

    Frozen: macro generators hand one shared spec object to every circuit
    of the same golden function and width, and
    :func:`repro.netlist.fingerprint.funcspec_digest` memoizes its truth
    table digest on that object, so no field may change after
    construction.  An edited spec is a new object (``dataclasses.replace``)
    with an empty memo.

    Attributes
    ----------
    outputs:
        Output net name -> reference function.  Every primary output of the
        circuit the spec is attached to must appear here.
    valid:
        Optional predicate over the input environment.  Environments where
        it returns False are outside the macro's usage contract (e.g. a
        non-one-hot select vector on a strongly-mutexed mux) and are skipped
        by both the equivalence check and the electrical checks.  ``None``
        means every assignment is valid.
    sampler:
        Optional constrained sampler ``rng -> env`` used when the input
        count exceeds the exact-enumeration budget.  Specs with a sparse
        valid space (one-hot selects) must provide one — rejection sampling
        of a 2^-n-density space would never produce a valid vector.
    golden:
        Identity of the golden function family, e.g. ``"mux"``.  All
        topologies implementing the same macro function share one marker so
        tests can assert they were proved against a *single* spec rather
        than six per-topology ones.
    """

    outputs: Dict[str, Callable[[Env], bool]]
    valid: Optional[Callable[[Env], bool]] = None
    sampler: Optional[Callable[[random.Random], Dict[str, bool]]] = None
    golden: str = ""
    #: Free-form notes rendered in diagnostics (e.g. "one-hot selects").
    notes: str = ""
    #: Digest memo of :func:`repro.netlist.fingerprint.funcspec_digest`,
    #: keyed by the sorted non-clock input tuple it was taken over.
    digests: Dict[Tuple[str, ...], str] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: Expected-output masks of :meth:`expected_masks`, keyed by the
    #: enumerated assignment set they were taken over.
    masks: Dict[Hashable, Dict[str, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.outputs:
            raise ValueError("FunctionalSpec needs at least one output")

    def is_valid(self, env: Env) -> bool:
        return True if self.valid is None else bool(self.valid(env))

    def expected(self, output: str, env: Env) -> bool:
        """Reference value of ``output`` under ``env``."""
        return bool(self.outputs[output](env))

    def expected_masks(
        self, key: Hashable, envs: Sequence[Env]
    ) -> Dict[str, int]:
        """Per output, the mask of the assignments (bit ``k`` = ``envs[k]``)
        under which it must be 1.  Memoized under ``key``, which must
        identify ``envs`` (the switch-level extractor passes the input
        names, the assignment count and each input's value mask)."""
        masks = self.masks.get(key)
        if masks is None:
            masks = self.masks[key] = {
                output: sum(
                    1 << bit for bit, env in enumerate(envs) if fn(env)
                )
                for output, fn in self.outputs.items()
            }
        return masks
