"""Incremental lint: per-(rule, facets) result cache with replay.

The runner (:func:`repro.lint.runner.lint_circuit`) consults a
:class:`RuleResultCache` before executing each rule.  The cache key is the
content address of everything that rule is allowed to read:

* the rule's identity (ID) and the cache schema version;
* the fingerprints of the rule's **declared input facets**
  (:data:`repro.netlist.fingerprint.FACET_NAMES` — topology, sizing,
  phases, funcspec; see ``Rule.facets``);
* a digest of the per-run options mapping (enumeration budgets etc.).

Soundness rests on the facet declarations being *supersets* of what each
rule actually reads: a rule whose declared facets' fingerprints are all
unchanged cannot observe any difference in the circuit, so replaying its
recorded diagnostics is exact — byte-identical findings, no re-execution.
A rule with no (or unknown) facet declaration defaults to all four facets,
which degrades to whole-circuit invalidation, never to a stale replay.

Diagnostics round-trip losslessly through :func:`serialize_diagnostic` /
:func:`deserialize_diagnostic`; severity is stored by name so replayed
findings grade identically.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from ..cache.store import JsonlArtifactStore
from ..netlist.fingerprint import FACET_NAMES
from .diagnostics import Diagnostic, Location, Severity
from .registry import Rule

RULE_CACHE_FORMAT = "smart-lint-rulecache/1"


def serialize_diagnostic(diag: Diagnostic) -> dict:
    """A :class:`Diagnostic` as a JSON-stable dict (waived flag excluded:
    waivers are presentation-time policy, applied after replay)."""
    return {
        "rule": diag.rule_id,
        "severity": diag.severity.name,
        "message": diag.message,
        "stage": diag.location.stage,
        "net": diag.location.net,
        "pin": diag.location.pin,
        "constraint": diag.location.constraint,
    }


def deserialize_diagnostic(payload: Mapping[str, object]) -> Diagnostic:
    return Diagnostic(
        rule_id=str(payload["rule"]),
        severity=Severity[str(payload["severity"])],
        message=str(payload["message"]),
        location=Location(
            stage=payload.get("stage"),  # type: ignore[arg-type]
            net=payload.get("net"),  # type: ignore[arg-type]
            pin=payload.get("pin"),  # type: ignore[arg-type]
            constraint=payload.get("constraint"),  # type: ignore[arg-type]
        ),
    )


def options_digest(options: Optional[Mapping[str, object]]) -> str:
    """Stable digest of the per-run options mapping.

    Included in every cache key: options are handed to all rules, so a
    changed budget must conservatively invalidate prior results.
    """
    if not options:
        return "none"
    blob = json.dumps(
        {str(k): options[k] for k in sorted(options, key=str)},
        sort_keys=True,
        separators=(",", ":"),
        default=repr,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class RuleCacheStats:
    """Rule-execution accounting for one incremental-lint session."""

    executed: int = 0
    replayed: int = 0
    stores: int = 0
    #: The subset of ``replayed`` that were DFA303 interval screens replayed
    #: by the advisor's screen gate (``SmartAdvisor._screen_gate``).
    screen_replays: int = 0
    #: Noise margins at solved widths replayed by the advisor
    #: (``SmartAdvisor._noise_margin``); stored beside the screens, not
    #: rule executions, so not part of ``replayed``.
    margin_replays: int = 0
    #: Wall time actually spent running rules vs. recorded wall time of the
    #: executions that replay avoided.
    wall_executed_s: float = 0.0
    wall_saved_s: float = 0.0

    @property
    def invocations(self) -> int:
        return self.executed + self.replayed

    @property
    def hit_rate(self) -> float:
        """Replayed fraction of all rule invocations (0.0 when none)."""
        return self.replayed / self.invocations if self.invocations else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "executed": self.executed,
            "replayed": self.replayed,
            "stores": self.stores,
            "screen_replays": self.screen_replays,
            "margin_replays": self.margin_replays,
            "wall_executed_s": round(self.wall_executed_s, 6),
            "wall_saved_s": round(self.wall_saved_s, 6),
            "hit_rate": round(self.hit_rate, 6),
        }

    def absorb(self, other: Mapping[str, float]) -> None:
        self.executed += int(other.get("executed", 0))
        self.replayed += int(other.get("replayed", 0))
        self.stores += int(other.get("stores", 0))
        self.screen_replays += int(other.get("screen_replays", 0))
        self.margin_replays += int(other.get("margin_replays", 0))
        self.wall_executed_s += float(other.get("wall_executed_s", 0.0))
        self.wall_saved_s += float(other.get("wall_saved_s", 0.0))


class RuleResultCache(JsonlArtifactStore):
    """Per-(rule, facet fingerprints, options) diagnostic cache.

    ``path=None`` keeps it in-memory — how the advisor gate deduplicates
    lint work across candidate re-checks within one process.  With a path,
    the cache persists across invocations (CI warm passes, ``repro lint
    --changed-only``) through the same tolerant JSONL substrate as every
    other store in :mod:`repro.cache`.
    """

    def __init__(self, path: Optional[str] = None):
        super().__init__(path, RULE_CACHE_FORMAT)
        self.stats = RuleCacheStats()

    # -- keys --------------------------------------------------------------

    @staticmethod
    def key(
        rule_obj: Rule,
        facet_fps: Mapping[str, str],
        options: Optional[Mapping[str, object]] = None,
    ) -> str:
        """Content address of one rule execution over one circuit state."""
        facets = getattr(rule_obj, "facets", None) or FACET_NAMES
        unknown = set(facets) - set(FACET_NAMES)
        if unknown:
            raise ValueError(
                f"rule {rule_obj.id} declares unknown facets {sorted(unknown)}"
            )
        payload = [
            RULE_CACHE_FORMAT,
            rule_obj.id,
            [[name, facet_fps[name]] for name in sorted(facets)],
            options_digest(options),
        ]
        blob = json.dumps(payload, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    # -- cache protocol ----------------------------------------------------

    def lookup(self, key: str) -> Optional[List[Diagnostic]]:
        """Replay: the diagnostics recorded under ``key``, or None on miss.

        A hit updates the replayed/wall-saved stats; the runner adds the
        returned findings to its report verbatim.
        """
        entry = self.get(key)
        if entry is None:
            return None
        try:
            diags = [deserialize_diagnostic(d) for d in entry["diags"]]
        except (KeyError, TypeError, ValueError):
            return None  # tolerate a malformed entry as a miss
        self.stats.replayed += 1
        self.stats.wall_saved_s += float(entry.get("wall_s", 0.0))
        return diags

    def record(
        self,
        key: str,
        rule_obj: Rule,
        diags: Iterable[Diagnostic],
        wall_s: float,
    ) -> None:
        """Store one rule execution's findings under its content address."""
        self.put(
            key,
            {
                "rule": rule_obj.id,
                "diags": [serialize_diagnostic(d) for d in diags],
                "wall_s": round(wall_s, 6),
            },
        )
        self.stats.stores += 1

    def note_executed(self, wall_s: float) -> None:
        self.stats.executed += 1
        self.stats.wall_executed_s += wall_s


def replay_findings(
    payloads: Sequence[Mapping[str, object]],
) -> List[Diagnostic]:
    """Deserialize a stored findings list (contract replay helper)."""
    return [deserialize_diagnostic(p) for p in payloads]
