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
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Optional

from ..netlist.fingerprint import circuit_fingerprint

__all__ = [
    "CacheKey",
    "circuit_fingerprint",
    "context_fingerprint",
    "library_payload",
    "sizing_cache_key",
    "spec_fingerprint",
]


def _digest(payload: Any) -> str:
    blob = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def library_payload(library) -> Any:
    """Canonical form of a :class:`~repro.models.gates.ModelLibrary`:
    the technology constants plus which model class serves each stage kind
    (a registered custom model must change the fingerprint)."""
    return {
        "tech": dataclasses.asdict(library.tech),
        "models": {
            kind.value: type(model).__name__
            for kind, model in sorted(
                library.registered_models().items(), key=lambda kv: kv[0].value
            )
        },
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
    return _digest(payload)


def spec_fingerprint(spec, tolerance: float) -> str:
    """Fingerprint of a :class:`DelaySpec` plus convergence tolerance."""
    return _digest(
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
        return _digest([self.circuit_fp, self.context_fp, self.spec_fp])


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
    created_unix: Optional[float] = None,
) -> dict:
    """A store-ready cache entry (plain dict — the store is engine-agnostic)."""
    import time

    return {
        "key": key.key,
        "circuit_fp": key.circuit_fp,
        "context_fp": key.context_fp,
        "spec_fp": key.spec_fp,
        "circuit": circuit_name,
        "objective": objective,
        "spec_data": float(spec_data),
        "tolerance": float(tolerance),
        "env": {name: float(value) for name, value in env.items()},
        "iterations": int(iterations),
        "area": float(area),
        "runtime_s": float(runtime_s),
        "created_unix": (
            float(created_unix) if created_unix is not None else time.time()
        ),
    }
