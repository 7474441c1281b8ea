"""Content-addressed persistent sizing cache.

Pairs a canonical circuit fingerprint (:mod:`repro.netlist.fingerprint`)
with context (models/objective/solver) and spec fingerprints to address a
JSONL store of sizing envs.  Exact hits are re-verified by the engine's STA
check loop before reuse; near hits warm-start the GP solve.  See DESIGN.md
("Sizing cache") for the key composition and the soundness argument.
"""

from .fingerprint import (
    CacheKey,
    check_negative_entry,
    circuit_fingerprint,
    context_fingerprint,
    make_entry,
    make_negative_entry,
    sizing_cache_key,
    spec_fingerprint,
)
from .contracts import CONTRACT_STORE_FORMAT, ContractStore
from .store import FORMAT, CacheStats, JsonlArtifactStore, SizingCache

__all__ = [
    "CacheKey",
    "CacheStats",
    "CONTRACT_STORE_FORMAT",
    "ContractStore",
    "FORMAT",
    "JsonlArtifactStore",
    "SizingCache",
    "check_negative_entry",
    "circuit_fingerprint",
    "context_fingerprint",
    "make_entry",
    "make_negative_entry",
    "sizing_cache_key",
    "spec_fingerprint",
]
