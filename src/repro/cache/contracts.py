"""Persistent store of macro interface contracts.

An interface contract (:mod:`repro.lint.contracts`) summarizes one macro's
boundary behavior — per-port phase/monotonicity facts, load/drive and
delay-slope intervals, funcspec equivalence status, slice-isomorphism
signature, plus the macro's own flat lint findings.  Contracts are
content-addressed by the v2 circuit fingerprint: a contract is valid for
*exactly* the netlist it was derived from, so reuse never needs a
timestamp or dirty bit — either the fingerprint matches and every fact
still holds, or it misses and the contract is re-derived.

A secondary index over the contract's *identity* (caller-chosen, e.g.
``"adder/static_ripple|w8"``) powers stale detection (rule CTR504): if an
identity resolves to contracts whose fingerprints all differ from the
instantiated circuit's, the macro was edited after characterization.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .store import JsonlArtifactStore

CONTRACT_STORE_FORMAT = "smart-contract-store/1"


class ContractStore(JsonlArtifactStore):
    """Content-addressed contract artifacts over a JSONL backing file.

    Same single-writer discipline as :class:`~repro.cache.store.SizingCache`;
    ``path=None`` keeps contracts purely in memory (one hier-lint run still
    reuses a shared macro's contract across its instances).  ``get`` takes
    a circuit fingerprint and returns the contract derived from exactly
    that netlist, or None.
    """

    def __init__(self, path: Optional[str] = None):
        self._by_identity: Dict[str, List[str]] = {}
        super().__init__(path, CONTRACT_STORE_FORMAT)

    def _index(self, entry: dict) -> None:
        super()._index(entry)
        identity = entry.get("identity")
        if identity:
            keys = self._by_identity.setdefault(identity, [])
            if entry["key"] not in keys:
                keys.append(entry["key"])

    def for_identity(self, identity: str) -> List[dict]:
        """Every stored contract claiming this identity (any fingerprint) —
        the raw material of CTR504 stale-contract detection."""
        return [self._entries[key] for key in self._by_identity.get(identity, ())]

    def put(self, contract: dict) -> dict:
        """Store a serialized contract under its circuit fingerprint."""
        fingerprint = contract.get("fingerprint")
        if not fingerprint:
            raise ValueError("contract has no 'fingerprint' field")
        return super().put(fingerprint, contract)
