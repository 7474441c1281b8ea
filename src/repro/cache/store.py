"""Persistent content-addressed store of sizing results.

The store is a JSONL file (one entry per line) fronted by an in-memory
index.  Entries are plain dicts (see
:func:`repro.cache.fingerprint.make_entry`) keyed by the content address of
the sizing problem; a secondary index over ``(circuit_fp, context_fp)``
serves *near-hit* lookups — same circuit and context, different delay spec —
whose envs warm-start a fresh GP solve.

Concurrency model: the cache is **single-writer**.  Worker processes hold
an in-memory cache (no path) seeded with the parent's entries and
accumulate their new entries in memory; the parent collects them over the
pool boundary and appends (:meth:`SizingCache.merge_entries`).  Loading is
tolerant: corrupt or foreign lines are skipped and counted, and duplicate
keys resolve last-write-wins, so a torn append can never poison the store.
:class:`JsonlArtifactStore` below is the substrate every store shares.

The cache is an *accelerator*, never an oracle: every exact hit is either
admitted on a verified solution certificate whose bindings are re-checked
at lookup time (``SmartSizer._admit_certified``, DESIGN §13) or
re-verified by the engine's own STA check loop before it is returned (see
``SmartSizer._exact_hit`` and DESIGN.md's soundness argument).  A
*negative* entry (an iteration-0 ``SizingError``) is re-raised only after
:func:`repro.cache.fingerprint.check_negative_entry` admits it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..obs.jsonl import append_record, read_records

FORMAT = "smart-sizing-cache/1"


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


class JsonlArtifactStore:
    """Content-addressed JSONL artifact store, the base of every store.

    An in-memory index over one JSONL file, read by
    :func:`repro.obs.jsonl.read_records` and appended by
    :func:`repro.obs.jsonl.append_record`: single writer, corrupt and
    foreign lines skipped and counted, duplicate keys last-write-wins, and
    every write persisted at once.  A line is foreign when it lacks one of
    :attr:`REQUIRED_FIELDS` or carries a ``format`` other than this
    store's (another artifact kind, or an older incompatible schema).
    ``path=None`` keeps the store purely in memory.

    The typed stores (:class:`SizingCache`,
    :class:`~repro.cache.contracts.ContractStore`,
    :class:`~repro.lint.incremental.RuleResultCache`,
    :class:`~repro.lint.solution.SolutionCertificateStore`) subclass it and
    keep only their own part: required fields, a secondary index (an
    override of :meth:`_index`), a typed ``put`` and stats.
    """

    #: Minimal shape a line must have to be accepted.
    REQUIRED_FIELDS: Tuple[str, ...] = ("key", "format")

    def __init__(self, path: Optional[str] = None, fmt: str = "smart-artifact/1"):
        self.path = path
        self.format = fmt
        self._entries: Dict[str, dict] = {}
        records, self.skipped_lines = read_records(path, self._accepts)
        for entry in records:
            self._index(entry)

    def _accepts(self, entry: dict) -> bool:
        # A store whose REQUIRED_FIELDS omit ``format`` (the sizing cache,
        # whose entries never carried one) accepts lines without it.
        return (
            all(f in entry for f in self.REQUIRED_FIELDS)
            and entry.get("format", self.format) == self.format
        )

    def _index(self, entry: dict) -> None:
        self._entries[entry["key"]] = entry

    def _write(self, entry: dict) -> bool:
        """Index ``entry`` and append it to the file; False (and nothing
        written) when an identical entry is already stored."""
        if self._entries.get(entry["key"]) == entry:
            return False
        self._index(entry)
        if self.path:
            append_record(self.path, entry)
        return True

    def get(self, key: str) -> Optional[dict]:
        return self._entries.get(key)

    def put(self, key: str, payload: dict) -> dict:
        """Store ``payload`` under ``key`` (idempotent).  Returns the full
        entry as indexed."""
        entry = dict(payload, key=key, format=self.format)
        self._write(entry)
        return entry

    def entries(self) -> List[dict]:
        """Every entry currently indexed."""
        return list(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries


class SizingCache(JsonlArtifactStore):
    """Content-addressed sizing-result cache with optional JSONL persistence.

    Parameters
    ----------
    path:
        JSONL file backing the cache; every new entry is appended at once.
        ``None`` keeps the cache purely in-memory (still useful: an advisor
        run sizes the same circuit fingerprint across delay scales and
        baselines; pool workers use it so only the parent writes the file).
    certificates:
        Optional solution-certificate store (duck-typed to
        :class:`repro.lint.solution.SolutionCertificateStore`; held as a
        plain attribute so this module never imports the lint package).
        When attached, the engine certifies every result it returns, admits
        exact hits on a verified ``smart-solution-certificate/1`` record
        instead of a full STA re-run, and falls back to the STA check when
        the certificate is absent, stale, or fails any binding.
    """

    REQUIRED_FIELDS = ("key", "circuit_fp", "context_fp", "spec_fp", "env")

    def __init__(
        self,
        path: Optional[str] = None,
        certificates: Optional[object] = None,
    ):
        self.certificates = certificates
        self.stats = CacheStats()
        self._by_context: Dict[Tuple[str, str], List[str]] = {}
        self._new: List[dict] = []
        super().__init__(path, FORMAT)

    def _index(self, entry: dict) -> None:
        if entry["key"] not in self._entries:
            self._by_context.setdefault(
                (entry["circuit_fp"], entry["context_fp"]), []
            ).append(entry["key"])
        super()._index(entry)

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
        """Insert an entry (idempotent per key) and persist it."""
        if not self._accepts(entry):
            raise ValueError(
                f"cache entry missing required fields {self.REQUIRED_FIELDS}"
            )
        self.stats.stores += 1
        if self._write(entry):
            self._new.append(entry)

    def merge_entries(self, entries: Iterable[dict]) -> int:
        """Fold entries produced elsewhere (worker processes) into this
        cache; returns how many were new."""
        merged = 0
        for entry in entries:
            if self._write(entry):
                self._new.append(entry)
                merged += 1
        return merged

    def seed(self, entries: Iterable[dict]) -> None:
        """Index entries without marking them new or persisting — how a
        parent cache's snapshot is shipped into a worker process."""
        for entry in entries:
            if isinstance(entry, dict) and self._accepts(entry):
                self._index(entry)

    def drain_new(self) -> List[dict]:
        """Return and clear the not-yet-shipped entries (worker-side: what
        goes back to the parent after each task)."""
        new, self._new = self._new, []
        return new
