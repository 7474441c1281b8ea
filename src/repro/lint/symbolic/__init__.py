"""Switch-level symbolic verification (the SVC4xx rule group).

Layers, bottom up:

* :mod:`~repro.lint.symbolic.switchlevel` — Bryant-style steady-state
  solver over the flat transistor netlist (conducting paths, charge
  retention, two-phase domino protocol), bit-parallel over a whole set of
  input assignments;
* :mod:`~repro.lint.symbolic.extract` — input-space enumeration and
  boolean-behavior extraction (exact cofactors up to a budget, seeded
  sampling beyond, ``proved`` vs ``tested`` verdicts);
* :mod:`~repro.lint.symbolic.isomorphism` — name-blind canonical cone
  hashing and the per-macro :class:`SliceCertificate`;
* :mod:`~repro.lint.symbolic.rules` — SVC401-SVC405 on top of the above;
* :mod:`~repro.lint.symbolic.mutate` — the seeded wiring mutants the
  corpus gate (``python -m repro.lint.corpus``) uses to prove the rules
  catch planted bugs.
"""

from .extract import (
    DEFAULT_EXACT_BUDGET,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    Extraction,
    extract,
    extract_cached,
)
from .isomorphism import (
    SliceCertificate,
    SliceGroup,
    canonical_cone_hash,
    slice_certificate,
)
from .switchlevel import ChannelGraph, Conflict, EvalResult, evaluate_assignment

__all__ = [
    "DEFAULT_EXACT_BUDGET",
    "DEFAULT_SAMPLES",
    "DEFAULT_SEED",
    "ChannelGraph",
    "Conflict",
    "EvalResult",
    "Extraction",
    "SliceCertificate",
    "SliceGroup",
    "canonical_cone_hash",
    "evaluate_assignment",
    "extract",
    "extract_cached",
    "slice_certificate",
]
