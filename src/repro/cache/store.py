"""Persistent content-addressed store of sizing results.

The store is a JSONL file (one entry per line) fronted by an in-memory
index.  Entries are plain dicts (see
:func:`repro.cache.fingerprint.make_entry`) keyed by the content address of
the sizing problem; a secondary index over ``(circuit_fp, context_fp)``
serves *near-hit* lookups — same circuit and context, different delay spec —
whose envs warm-start a fresh GP solve.

Concurrency model: the cache is **single-writer**.  Worker processes open
the file read-only (``autosync=False``) and accumulate their new entries in
memory; the parent collects them over the pool boundary and appends
(:meth:`SizingCache.merge_entries`).  Loading is tolerant: corrupt or
foreign lines are skipped and counted, and duplicate keys resolve
last-write-wins, so a torn append can never poison the store.

The cache is an *accelerator*, never an oracle: every exact hit is either
admitted on a verified solution certificate whose bindings are re-checked
at lookup time (``SmartSizer._admit_certified``, DESIGN §13) or
re-verified by the engine's own STA check loop before it is returned (see
``SmartSizer._exact_hit`` and DESIGN.md's soundness argument).  A
*negative* entry (an iteration-0 ``SizingError``) is re-raised only after
:func:`repro.cache.fingerprint.check_negative_entry` admits it.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..obs.log import get_logger

log = get_logger(__name__)

FORMAT = "smart-sizing-cache/1"

#: Minimal shape a line must have to be accepted into the index.
_REQUIRED_FIELDS = ("key", "circuit_fp", "context_fp", "spec_fp", "env")


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache session.

    ``cert_hits`` counts the exact hits admitted on a verified solution
    certificate instead of a full STA re-run (it is a subset of
    ``exact_hits``: STA-verified admissions are ``exact_hits -
    cert_hits``), so the stats always record which verification path ran.
    ``negative_hits`` counts admitted negative entries: lookups that
    re-raised a stored iteration-0 ``SizingError`` without a GP.
    """

    exact_hits: int = 0
    cert_hits: int = 0
    warm_hits: int = 0
    negative_hits: int = 0
    misses: int = 0
    stores: int = 0
    verify_failures: int = 0
    wall_saved_s: float = 0.0

    @property
    def lookups(self) -> int:
        return (
            self.exact_hits + self.warm_hits + self.negative_hits + self.misses
        )

    @property
    def hit_rate(self) -> float:
        """Exact-hit fraction of all lookups (0.0 when none happened)."""
        return self.exact_hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "exact_hits": self.exact_hits,
            "cert_hits": self.cert_hits,
            "warm_hits": self.warm_hits,
            "negative_hits": self.negative_hits,
            "misses": self.misses,
            "stores": self.stores,
            "verify_failures": self.verify_failures,
            "wall_saved_s": round(self.wall_saved_s, 6),
            "hit_rate": round(self.hit_rate, 6),
        }

    def absorb(self, other: Dict[str, float]) -> None:
        """Fold a worker's stats dict into this one (hit_rate recomputed)."""
        self.exact_hits += int(other.get("exact_hits", 0))
        self.cert_hits += int(other.get("cert_hits", 0))
        self.warm_hits += int(other.get("warm_hits", 0))
        self.negative_hits += int(other.get("negative_hits", 0))
        self.misses += int(other.get("misses", 0))
        self.stores += int(other.get("stores", 0))
        self.verify_failures += int(other.get("verify_failures", 0))
        self.wall_saved_s += float(other.get("wall_saved_s", 0.0))


class SizingCache:
    """Content-addressed sizing-result cache with optional JSONL persistence.

    Parameters
    ----------
    path:
        JSONL file backing the cache.  ``None`` keeps the cache purely
        in-memory (still useful: an advisor run sizes the same circuit
        fingerprint across delay scales and baselines).
    autosync:
        When True (the default) every :meth:`put` appends to ``path``
        immediately.  Workers use ``autosync=False`` so only the parent
        process ever writes the file.
    certificates:
        Optional solution-certificate store (duck-typed to
        :class:`repro.lint.solution.SolutionCertificateStore`; held as a
        plain attribute so this module never imports the lint package).
        When attached, the engine certifies every result it returns, admits
        exact hits on a verified ``smart-solution-certificate/1`` record
        instead of a full STA re-run, and falls back to the STA check when
        the certificate is absent, stale, or fails any binding.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        autosync: bool = True,
        certificates: Optional[object] = None,
    ):
        self.path = path
        self.autosync = autosync
        self.certificates = certificates
        self.stats = CacheStats()
        self._entries: Dict[str, dict] = {}
        self._by_context: Dict[Tuple[str, str], List[str]] = {}
        self._new: List[dict] = []
        self.skipped_lines = 0
        if path and os.path.exists(path):
            self._load(path)

    # -- loading -----------------------------------------------------------

    def _load(self, path: str) -> None:
        with open(path) as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    self.skipped_lines += 1
                    log.warning("%s:%d: skipping corrupt cache line", path, line_no)
                    continue
                if not isinstance(entry, dict) or any(
                    f not in entry for f in _REQUIRED_FIELDS
                ):
                    self.skipped_lines += 1
                    log.warning("%s:%d: skipping foreign cache line", path, line_no)
                    continue
                self._index(entry)

    def _index(self, entry: dict) -> None:
        key = entry["key"]
        if key not in self._entries:
            self._by_context.setdefault(
                (entry["circuit_fp"], entry["context_fp"]), []
            ).append(key)
        self._entries[key] = entry

    # -- lookups -----------------------------------------------------------

    def get(self, key: str) -> Optional[dict]:
        """Exact hit: the entry stored under this content address, or None."""
        return self._entries.get(key)

    def nearest(
        self, circuit_fp: str, context_fp: str, spec_data: float
    ) -> Optional[dict]:
        """Best warm-start candidate: same circuit + context, closest delay
        target by log-ratio (sizing scales multiplicatively with budget).
        Negative entries hold no widths and are never returned."""
        keys = self._by_context.get((circuit_fp, context_fp))
        if not keys or spec_data <= 0:
            return None
        best, best_dist = None, math.inf
        for key in keys:
            entry = self._entries[key]
            if "negative" in entry:
                continue
            cached = float(entry.get("spec_data", 0.0))
            if cached <= 0:
                continue
            dist = abs(math.log(cached / spec_data))
            if dist < best_dist:
                best, best_dist = entry, dist
        return best

    # -- writes ------------------------------------------------------------

    def put(self, entry: dict) -> None:
        """Insert an entry (idempotent per key) and persist when autosyncing."""
        if any(f not in entry for f in _REQUIRED_FIELDS):
            raise ValueError(
                f"cache entry missing required fields {_REQUIRED_FIELDS}"
            )
        known = self._entries.get(entry["key"])
        self._index(entry)
        self.stats.stores += 1
        if known == entry:
            return
        self._new.append(entry)
        if self.autosync and self.path:
            self._append(entry)

    def merge_entries(self, entries: Iterable[dict]) -> int:
        """Fold entries produced elsewhere (worker processes) into this
        cache; returns how many were new."""
        merged = 0
        for entry in entries:
            if self._entries.get(entry["key"]) == entry:
                continue
            self._index(entry)
            self._new.append(entry)
            merged += 1
            if self.autosync and self.path:
                self._append(entry)
        return merged

    def _append(self, entry: dict) -> None:
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        with open(self.path, "a") as fh:
            fh.write(
                json.dumps(
                    entry, sort_keys=True, separators=(",", ":"), default=str
                )
                + "\n"
            )

    def seed(self, entries: Iterable[dict]) -> None:
        """Index entries without marking them new or persisting — how a
        parent cache's snapshot is shipped into a worker process."""
        for entry in entries:
            if isinstance(entry, dict) and all(
                f in entry for f in _REQUIRED_FIELDS
            ):
                self._index(entry)

    def drain_new(self) -> List[dict]:
        """Return and clear the not-yet-shipped entries (worker-side: what
        goes back to the parent after each task)."""
        new, self._new = self._new, []
        return new

    def flush(self) -> None:
        """Append all not-yet-persisted entries (for ``autosync=False``)."""
        if not self.path:
            return
        for entry in self._new:
            self._append(entry)
        self._new = []

    # -- introspection -----------------------------------------------------

    def new_entries(self) -> List[dict]:
        """Entries added this session (what a worker ships to the parent)."""
        return list(self._new)

    def entries_snapshot(self) -> List[dict]:
        """Every entry currently indexed (used to seed worker caches when
        the parent cache has no backing file)."""
        return list(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __repr__(self) -> str:
        backing = self.path or "<memory>"
        return f"SizingCache({backing!r}, entries={len(self._entries)})"


class JsonlArtifactStore:
    """Generic content-addressed JSONL artifact store.

    The persistence substrate shared by the interface-contract store
    (:mod:`repro.cache.contracts`) and the incremental lint result cache
    (:mod:`repro.lint.incremental`).  Same concurrency model and tolerance
    properties as :class:`SizingCache`: single writer, corrupt/foreign lines
    skipped and counted, duplicate keys last-write-wins.  Entries are plain
    dicts carrying at least ``key`` and ``format``; a line whose ``format``
    disagrees with this store's is foreign (a different artifact kind, or a
    prior incompatible schema) and is ignored rather than aliased.
    """

    #: Minimal shape a line must have to be accepted.
    REQUIRED_FIELDS = ("key", "format")

    def __init__(
        self,
        path: Optional[str] = None,
        fmt: str = "smart-artifact/1",
        autosync: bool = True,
    ):
        self.path = path
        self.format = fmt
        self.autosync = autosync
        self._entries: Dict[str, dict] = {}
        self._new: List[dict] = []
        self.skipped_lines = 0
        if path and os.path.exists(path):
            self._load(path)

    def _load(self, path: str) -> None:
        with open(path) as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    self.skipped_lines += 1
                    log.warning(
                        "%s:%d: skipping corrupt artifact line", path, line_no
                    )
                    continue
                if (
                    not isinstance(entry, dict)
                    or any(f not in entry for f in self.REQUIRED_FIELDS)
                    or entry["format"] != self.format
                ):
                    self.skipped_lines += 1
                    log.warning(
                        "%s:%d: skipping foreign artifact line", path, line_no
                    )
                    continue
                self._entries[entry["key"]] = entry

    def get(self, key: str) -> Optional[dict]:
        return self._entries.get(key)

    def put(self, key: str, payload: dict) -> dict:
        """Store ``payload`` under ``key`` (idempotent; persists when
        autosyncing).  Returns the full entry as indexed."""
        entry = dict(payload)
        entry["key"] = key
        entry["format"] = self.format
        if self._entries.get(key) == entry:
            return entry
        self._entries[key] = entry
        self._new.append(entry)
        if self.autosync and self.path:
            self._append(entry)
        return entry

    def _append(self, entry: dict) -> None:
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        with open(self.path, "a") as fh:
            fh.write(
                json.dumps(
                    entry, sort_keys=True, separators=(",", ":"), default=str
                )
                + "\n"
            )

    def flush(self) -> None:
        """Append all not-yet-persisted entries (for ``autosync=False``)."""
        if not self.path:
            return
        for entry in self._new:
            self._append(entry)
        self._new = []

    def entries(self) -> List[dict]:
        return list(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __repr__(self) -> str:
        backing = self.path or "<memory>"
        return (
            f"JsonlArtifactStore({backing!r}, format={self.format!r}, "
            f"entries={len(self._entries)})"
        )
