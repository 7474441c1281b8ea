"""Cache-key composition for sizing results.

A sizing outcome is a pure function of three things, each fingerprinted
independently so the store can distinguish *exact* hits from *near* hits:

* the **circuit** (:func:`repro.netlist.fingerprint.circuit_fingerprint`) —
  stage graph, size-table bounds/pins/ratios, nets, interface;
* the **context** — technology constants, registered stage models (GP and
  analysis libraries separately: the paper's posynomial-vs-PathMill split),
  objective and OTB window;
* the **spec** — the :class:`~repro.sizing.constraints.DelaySpec` plus the
  convergence tolerance.

``key = H(circuit_fp | context_fp | spec_fp)`` addresses exact reuse; the
pair ``(circuit_fp, context_fp)`` addresses the warm-start neighborhood:
same problem geometry, different delay target.

Two entry shapes live under a key: a *positive* entry (:func:`make_entry`,
the solved widths) and a *negative* entry (:func:`make_negative_entry`, the
iteration-0 :class:`~repro.sizing.engine.SizingError` a problem raised).
:func:`check_negative_entry` is the admission predicate of the latter.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Tuple

from ..netlist.fingerprint import canonical_digest, circuit_fingerprint

__all__ = [
    "CacheKey",
    "check_negative_entry",
    "circuit_fingerprint",
    "context_fingerprint",
    "library_payload",
    "make_entry",
    "make_negative_entry",
    "sizing_cache_key",
    "spec_fingerprint",
]


def library_payload(library) -> Any:
    """Canonical form of a :class:`~repro.models.gates.ModelLibrary`:
    its :meth:`~repro.models.gates.ModelLibrary.content_key`, the
    technology constants plus which model class serves each stage kind
    (a registered custom model must change the fingerprint)."""
    tech, models = library.content_key()
    return {
        "tech": dataclasses.asdict(tech),
        "models": {kind: model.__name__ for kind, model in models},
    }


def context_fingerprint(
    library,
    *,
    analysis_library=None,
    objective: str = "area",
    otb_borrow: float = 0.0,
) -> str:
    """Fingerprint of everything besides the circuit and the delay spec."""
    payload = {
        "library": library_payload(library),
        "analysis_library": (
            library_payload(analysis_library)
            if analysis_library is not None
            else None
        ),
        "objective": objective,
        "otb_borrow": otb_borrow,
    }
    return canonical_digest(payload)


def spec_fingerprint(spec, tolerance: float) -> str:
    """Fingerprint of a :class:`DelaySpec` plus convergence tolerance."""
    return canonical_digest(
        {"spec": dataclasses.asdict(spec), "tolerance": tolerance}
    )


@dataclass(frozen=True)
class CacheKey:
    """The decomposed content address of one sizing problem."""

    circuit_fp: str
    context_fp: str
    spec_fp: str

    @property
    def key(self) -> str:
        return canonical_digest([self.circuit_fp, self.context_fp, self.spec_fp])


def sizing_cache_key(
    circuit,
    library,
    spec,
    *,
    analysis_library=None,
    objective: str = "area",
    otb_borrow: float = 0.0,
    tolerance: float = 2.0,
) -> CacheKey:
    """The full content address of one :meth:`SmartSizer.size` problem."""
    return CacheKey(
        circuit_fp=circuit_fingerprint(circuit),
        context_fp=context_fingerprint(
            library,
            analysis_library=analysis_library,
            objective=objective,
            otb_borrow=otb_borrow,
        ),
        spec_fp=spec_fingerprint(spec, tolerance),
    )


def _entry_head(
    key: CacheKey,
    circuit_name: str,
    objective: str,
    spec_data: float,
    tolerance: float,
    created_unix: Optional[float],
) -> dict:
    return {
        "key": key.key,
        "circuit_fp": key.circuit_fp,
        "context_fp": key.context_fp,
        "spec_fp": key.spec_fp,
        "circuit": circuit_name,
        "objective": objective,
        "spec_data": float(spec_data),
        "tolerance": float(tolerance),
        "created_unix": (
            float(created_unix) if created_unix is not None else time.time()
        ),
    }


def make_entry(
    key: CacheKey,
    *,
    circuit_name: str,
    objective: str,
    spec_data: float,
    tolerance: float,
    env,
    iterations: int,
    area: float,
    runtime_s: float,
    prune_stats: Optional[Mapping[str, int]] = None,
    created_unix: Optional[float] = None,
) -> dict:
    """A store-ready cache entry (plain dict — the store is engine-agnostic).

    ``prune_stats`` (the path-pruning counts of the solve) lets a
    certificate-admitted exact hit return without re-extracting paths."""
    entry = _entry_head(
        key, circuit_name, objective, spec_data, tolerance, created_unix
    )
    entry.update(
        env={name: float(value) for name, value in env.items()},
        iterations=int(iterations),
        area=float(area),
        runtime_s=float(runtime_s),
    )
    if prune_stats is not None:
        entry["prune_stats"] = {k: int(v) for k, v in prune_stats.items()}
    return entry


def make_negative_entry(
    key: CacheKey,
    *,
    circuit_name: str,
    objective: str,
    spec_data: float,
    tolerance: float,
    kind: str,
    reason: str,
    facets: Mapping[str, str],
    certificate: Optional[Mapping[str, Any]] = None,
    created_unix: Optional[float] = None,
) -> dict:
    """A store-ready *negative* entry: the problem under ``key`` raised
    ``reason`` (the :class:`SizingError` message after the circuit name) in
    its first iteration.  ``kind`` is ``"gp_lint"`` (a GP2xx pre-solve
    rejection, no certificate) or ``"phase1"`` (phase 1's infeasibility
    ``certificate`` record).  ``facets`` are the circuit's facet
    fingerprints at store time.  The empty ``env`` keeps the entry loadable
    by every reader of the positive shape."""
    entry = _entry_head(
        key, circuit_name, objective, spec_data, tolerance, created_unix
    )
    entry.update(
        env={},
        negative={
            "kind": kind,
            "reason": reason,
            "facets": dict(facets),
            "certificate": (
                dict(certificate) if certificate is not None else None
            ),
        },
    )
    return entry


def _finite_list(value: Any) -> Optional[list]:
    if not isinstance(value, list) or not value:
        return None
    try:
        values = [float(v) for v in value]
    except (TypeError, ValueError):
        return None
    return values if all(math.isfinite(v) for v in values) else None


def check_negative_entry(
    entry: Mapping[str, Any],
    *,
    key: str,
    facets: Mapping[str, str],
) -> Tuple[bool, str]:
    """Admission predicate of a negative entry, in the spirit of
    :func:`repro.lint.solution.check_certificate`: the problem key, the
    live facet fingerprints, and a well-formed record — a non-empty reason,
    and for ``phase1`` a certificate whose weights, point and bound are
    finite, with ``weights >= 0``, one point coordinate per variable name
    and ``bound > 0``.  Returns ``(ok, reason)``; a rejected entry is a
    miss and the problem is re-solved."""
    negative = entry.get("negative")
    if not isinstance(negative, Mapping):
        return False, "not a negative entry"
    if entry.get("key") != key:
        return False, "problem-key mismatch"
    stored = negative.get("facets")
    if not isinstance(stored, Mapping) or dict(stored) != dict(facets):
        return False, "stale facets"
    reason = negative.get("reason")
    if not isinstance(reason, str) or not reason:
        return False, "no reason"
    kind = negative.get("kind")
    certificate = negative.get("certificate")
    if kind == "gp_lint":
        if certificate is not None:
            return False, "GP-lint entry carries a certificate"
        return True, ""
    if kind != "phase1":
        return False, f"unknown kind {kind!r}"
    if not isinstance(certificate, Mapping):
        return False, "phase-1 entry without a certificate"
    weights = _finite_list(certificate.get("weights"))
    point = _finite_list(certificate.get("point"))
    names = certificate.get("variables")
    if weights is None or point is None:
        return False, "malformed certificate weights or point"
    if min(weights) < 0.0:
        return False, "negative certificate weight"
    if not isinstance(names, list) or len(names) != len(point):
        return False, "certificate point does not match its variables"
    try:
        bound = float(certificate.get("bound"))
    except (TypeError, ValueError):
        return False, "unreadable certificate bound"
    if not math.isfinite(bound) or bound <= 0.0:
        return False, "certificate bound does not prove infeasibility"
    return True, ""
