"""The ``smart-solution-certificate/1`` record.

A solution certificate is the durable, checkable outcome of one
:class:`~repro.lint.solution.audit.SolutionAudit` run: it binds a sizing
*problem* (the content address from :mod:`repro.cache.fingerprint`), a
*point* (a digest of the free-width assignment), and the *verdicts* of the
independent OPT70x re-derivations (primal feasibility, KKT gap bound,
replication soundness) together with the circuit-facet fingerprints at
issue time.

Consumers never trust a certificate blindly — :func:`check_certificate`
is the admission predicate: the engine's certificate-backed cache fast
path (satellite: skip the full STA re-verify on an exact hit) and the
OPT705 cache audit both re-check every binding before honoring one.
Anything that fails the predicate degrades to the old behavior (full STA
re-verification), never to silent reuse.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ...cache.store import JsonlArtifactStore

CERTIFICATE_FORMAT = "smart-solution-certificate/1"

#: Fields an entry must carry to be considered at all.
_REQUIRED = (
    "format", "key", "circuit", "widths_digest", "facets", "ok",
    "worst_residual_ps", "tolerance",
)


def widths_digest(env: Mapping[str, object]) -> str:
    """Content address of a free-width assignment.

    Widths are rounded to 1e-9 µm before hashing so that a JSON round-trip
    (cache entry -> certificate -> admission check) can never un-bind a
    certificate from the env it certifies.
    """
    canon = {}
    for name in sorted(env, key=str):
        try:
            canon[str(name)] = round(float(env[name]), 9)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            canon[str(name)] = repr(env[name])
    blob = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class SolutionCertificate:
    """One issued certificate (see module docstring for the bindings)."""

    circuit: str
    key: str                          # sizing-problem content address
    widths_digest: str
    facets: Dict[str, str]            # facet fingerprints at issue time
    ok: bool
    worst_residual_ps: float
    tolerance: float
    spec_data: float = 0.0
    kkt_gap_rel: Optional[float] = None
    checks: Dict[str, dict] = field(default_factory=dict)
    classes: List[List[str]] = field(default_factory=list)
    realized: Dict[str, float] = field(default_factory=dict)
    specs: Dict[str, float] = field(default_factory=dict)

    def to_payload(self) -> dict:
        """JSON-plain dict (the shape stored and checked everywhere)."""
        return {
            "format": CERTIFICATE_FORMAT,
            "circuit": self.circuit,
            "key": self.key,
            "widths_digest": self.widths_digest,
            "facets": dict(self.facets),
            "ok": bool(self.ok),
            "worst_residual_ps": round(float(self.worst_residual_ps), 6),
            "tolerance": float(self.tolerance),
            "spec_data": round(float(self.spec_data), 6),
            "kkt_gap_rel": (
                round(float(self.kkt_gap_rel), 9)
                if self.kkt_gap_rel is not None else None
            ),
            "checks": {k: dict(v) for k, v in sorted(self.checks.items())},
            "classes": [list(c) for c in self.classes],
            "realized": {
                k: round(float(v), 6)
                for k, v in sorted(self.realized.items())
            },
            "specs": {
                k: round(float(v), 6) for k, v in sorted(self.specs.items())
            },
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "SolutionCertificate":
        return cls(
            circuit=str(payload["circuit"]),
            key=str(payload["key"]),
            widths_digest=str(payload["widths_digest"]),
            facets=dict(payload.get("facets", {})),  # type: ignore[arg-type]
            ok=bool(payload["ok"]),
            worst_residual_ps=float(payload["worst_residual_ps"]),  # type: ignore[arg-type]
            tolerance=float(payload.get("tolerance", 2.0)),  # type: ignore[arg-type]
            spec_data=float(payload.get("spec_data", 0.0)),  # type: ignore[arg-type]
            kkt_gap_rel=(
                None if payload.get("kkt_gap_rel") is None
                else float(payload["kkt_gap_rel"])  # type: ignore[arg-type]
            ),
            checks=dict(payload.get("checks", {})),  # type: ignore[arg-type]
            classes=[list(c) for c in payload.get("classes", [])],  # type: ignore[union-attr]
            realized=dict(payload.get("realized", {})),  # type: ignore[arg-type]
            specs=dict(payload.get("specs", {})),  # type: ignore[arg-type]
        )


class SolutionCertificateStore(JsonlArtifactStore):
    """Certificates over the shared tolerant-JSONL substrate.

    Same concurrency/tolerance model as every other store in
    :mod:`repro.cache`: single writer, foreign/corrupt lines skipped,
    last-write-wins per key.  Attach one to a
    :class:`repro.cache.SizingCache` (its ``certificates`` attribute) to
    enable the engine's certificate-backed exact-hit fast path.
    """

    def __init__(self, path: Optional[str] = None):
        super().__init__(path, CERTIFICATE_FORMAT)

    # Defined on this class, not inherited: the per-layer benchmark
    # (benchmarks/perf/layers.py) wraps each store class's own get/put.
    def get(self, key: str) -> Optional[dict]:
        """The certificate issued for the problem under ``key``, or None."""
        return self._entries.get(key)

    def put(self, certificate: "SolutionCertificate") -> dict:
        payload = certificate.to_payload()
        return super().put(payload["key"], payload)


def check_certificate(
    payload: Optional[Mapping[str, object]],
    *,
    key: str,
    env: Optional[Mapping[str, object]],
    tolerance: float,
    facets: Optional[Mapping[str, str]] = None,
) -> Tuple[bool, str]:
    """Admission predicate for one certificate against one cache entry.

    Checks, in order: record shape and format; problem-key binding; the
    point binding (``widths_digest`` of the entry's env); the verdict flag;
    the residual against the *caller's* tolerance (a certificate issued at
    a looser tolerance cannot admit a tighter run); and — when ``facets``
    is given — freshness against the current circuit's facet fingerprints.
    Returns ``(ok, reason)``; the reason names the first failed binding so
    rejections are diagnosable (and so OPT705 findings carry a witness).
    """
    if payload is None:
        return False, "no certificate"
    if any(f not in payload for f in _REQUIRED):
        missing = [f for f in _REQUIRED if f not in payload]
        return False, f"malformed certificate (missing {missing})"
    if payload["format"] != CERTIFICATE_FORMAT:
        return False, f"foreign format {payload['format']!r}"
    if payload["key"] != key:
        return False, "problem-key mismatch"
    if env is None:
        return False, "entry has no env to bind"
    if widths_digest(env) != payload["widths_digest"]:
        return False, "widths digest mismatch (env does not match certificate)"
    if not payload["ok"]:
        return False, "certificate records a failed audit"
    try:
        residual = float(payload["worst_residual_ps"])  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return False, "unreadable residual"
    if not residual <= tolerance + 1e-9:
        return False, (
            f"certified residual {residual:.3f} ps exceeds tolerance "
            f"{tolerance:.3f} ps"
        )
    if facets is not None:
        recorded = payload.get("facets")
        if not isinstance(recorded, Mapping):
            return False, "malformed facet fingerprints"
        stale = sorted(
            name for name in facets
            if recorded.get(name) != facets[name]
        )
        if stale:
            return False, f"stale facets: {', '.join(stale)}"
    return True, "verified"
