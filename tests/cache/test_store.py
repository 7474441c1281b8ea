"""Store tests: persistence, lookups, tolerance to bad lines.

The JSONL behavior every store shares (one line per key, tolerant reload)
is parametrized over all of them: the sizing cache, the solution
certificate, lint rule and contract stores, and the run ledger.
"""

import json
import os

import pytest

from repro.cache import CacheKey, ContractStore, SizingCache, make_entry
from repro.lint.incremental import RuleResultCache
from repro.lint.solution import SolutionCertificate, SolutionCertificateStore
from repro.obs.perf import LEDGER_FORMAT, RunLedger


def _entry(spec_data=300.0, circuit_fp="c1", context_fp="x1", env=None):
    key = CacheKey(
        circuit_fp=circuit_fp,
        context_fp=context_fp,
        spec_fp=f"s{spec_data}",
    )
    return make_entry(
        key,
        circuit_name="mux4",
        objective="area",
        spec_data=spec_data,
        tolerance=2.0,
        env=env or {"P1": 2.0, "N1": 1.0},
        iterations=3,
        area=20.0,
        runtime_s=0.5,
        created_unix=0.0,
    )


def _certificate(key="k1"):
    return SolutionCertificate(
        key=key,
        circuit="mux4",
        widths_digest="w",
        facets={},
        ok=True,
        worst_residual_ps=0.0,
        tolerance=2.0,
    )


#: Per store: how to write one record, and the key that record lands under.
STORES = {
    SizingCache: (lambda store: store.put(_entry()), _entry()["key"]),
    SolutionCertificateStore: (lambda store: store.put(_certificate()), "k1"),
    RuleResultCache: (
        lambda store: store.put("k1", {"rule": "ERC001", "diags": []}), "k1"
    ),
    ContractStore: (
        lambda store: store.put({"fingerprint": "k1", "identity": "mux|w4"}),
        "k1",
    ),
}

_LEDGER_RECORD = {
    "format": LEDGER_FORMAT, "kind": "size", "name": "mux4", "wall_s": 0.1,
}


def _write_one(store_cls, store):
    if store_cls is RunLedger:
        store.append(dict(_LEDGER_RECORD))
    else:
        STORES[store_cls][0](store)


class TestPutGet:
    def test_roundtrip_in_memory(self):
        cache = SizingCache()
        entry = _entry()
        cache.put(entry)
        assert cache.get(entry["key"]) == entry
        assert entry["key"] in cache
        assert len(cache) == 1

    def test_put_requires_fields(self):
        with pytest.raises(ValueError):
            SizingCache().put({"key": "k"})

    @pytest.mark.parametrize("store_cls", list(STORES), ids=lambda c: c.__name__)
    def test_idempotent_put(self, tmp_path, store_cls):
        path = tmp_path / "store.jsonl"
        write, key = STORES[store_cls]
        store = store_cls(str(path))
        write(store)
        write(store)
        assert len(path.read_text().strip().splitlines()) == 1
        reloaded = store_cls(str(path))
        assert len(reloaded) == 1 and key in reloaded


class TestPersistence:
    def test_reload_from_file(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        writer = SizingCache(str(path))
        entry = _entry()
        writer.put(entry)

        reader = SizingCache(str(path))
        assert reader.get(entry["key"]) == entry

    @pytest.mark.parametrize(
        "store_cls", [*STORES, RunLedger], ids=lambda c: c.__name__
    )
    def test_corrupt_and_foreign_lines_skipped(self, tmp_path, store_cls):
        path = tmp_path / "store.jsonl"
        with open(path, "w") as fh:
            fh.write("{not json\n")
            fh.write(json.dumps({"something": "else"}) + "\n")
        _write_one(store_cls, store_cls(str(path)))
        store = store_cls(str(path))
        assert store.skipped_lines == 2
        assert len(store) == 1

    def test_last_write_wins(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        old = _entry()
        new = dict(_entry(), area=99.0)
        with open(path, "w") as fh:
            fh.write(json.dumps(old) + "\n")
            fh.write(json.dumps(new) + "\n")
        assert SizingCache(str(path)).get(old["key"])["area"] == 99.0


class TestNearest:
    def test_picks_log_nearest_spec(self):
        cache = SizingCache()
        for spec in (100.0, 200.0, 400.0):
            cache.put(_entry(spec_data=spec))
        assert cache.nearest("c1", "x1", 190.0)["spec_data"] == 200.0
        assert cache.nearest("c1", "x1", 90.0)["spec_data"] == 100.0

    def test_scoped_to_circuit_and_context(self):
        cache = SizingCache()
        cache.put(_entry(circuit_fp="c1"))
        assert cache.nearest("c2", "x1", 300.0) is None
        assert cache.nearest("c1", "x2", 300.0) is None
        assert cache.nearest("c1", "x1", 300.0) is not None

    def test_rejects_nonpositive_target(self):
        cache = SizingCache()
        cache.put(_entry())
        assert cache.nearest("c1", "x1", 0.0) is None


class TestWorkerProtocol:
    def test_seed_does_not_mark_new(self):
        worker = SizingCache()
        worker.seed([_entry()])
        assert len(worker) == 1
        assert worker.drain_new() == []

    def test_drain_new_ships_only_fresh_entries(self):
        worker = SizingCache()
        worker.seed([_entry(spec_data=100.0)])
        fresh = _entry(spec_data=200.0)
        worker.put(fresh)
        drained = worker.drain_new()
        assert drained == [fresh]
        assert worker.drain_new() == []

    def test_merge_entries_counts_new_only(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        parent = SizingCache(str(path))
        a, b = _entry(spec_data=100.0), _entry(spec_data=200.0)
        parent.put(a)
        assert parent.merge_entries([a, b]) == 1
        assert len(SizingCache(str(path))) == 2

    def test_stats_absorb(self):
        parent = SizingCache()
        parent.stats.exact_hits = 1
        parent.stats.absorb(
            {"exact_hits": 2, "misses": 3, "wall_saved_s": 0.5}
        )
        assert parent.stats.exact_hits == 3
        assert parent.stats.misses == 3
        assert parent.stats.lookups == 6
        assert parent.stats.hit_rate == pytest.approx(0.5)

    def test_negative_hits_are_lookups(self):
        parent = SizingCache()
        parent.stats.absorb({"exact_hits": 1, "negative_hits": 2, "misses": 1})
        assert parent.stats.negative_hits == 2
        assert parent.stats.lookups == 4
        assert parent.stats.hit_rate == pytest.approx(0.25)
        assert parent.stats.as_dict()["negative_hits"] == 2


class TestJsonlArtifactStore:
    def _store(self, path=None):
        from repro.cache import JsonlArtifactStore

        return JsonlArtifactStore(path, fmt="test-artifact/1")

    def test_put_get_in_memory(self):
        store = self._store()
        store.put("k1", {"value": 42})
        assert store.get("k1")["value"] == 42
        assert "k1" in store
        assert store.get("missing") is None

    def test_persistence_and_idempotent_put(self, tmp_path):
        path = str(tmp_path / "art.jsonl")
        store = self._store(path)
        store.put("k1", {"value": 1})
        store.put("k1", {"value": 1})
        reloaded = self._store(path)
        assert len(reloaded) == 1
        assert reloaded.get("k1")["value"] == 1

    def test_last_write_wins_on_rewrite(self, tmp_path):
        path = str(tmp_path / "art.jsonl")
        store = self._store(path)
        store.put("k1", {"value": 1})
        store.put("k1", {"value": 2})
        assert self._store(path).get("k1")["value"] == 2

    def test_foreign_format_and_corrupt_lines_skipped(self, tmp_path):
        path = tmp_path / "art.jsonl"
        store = self._store(str(path))
        store.put("k1", {"value": 1})
        with open(path, "a") as fh:
            fh.write('{"key": "k2", "format": "other/9"}\n')
            fh.write("junk\n")
        reloaded = self._store(str(path))
        assert len(reloaded) == 1
        assert reloaded.skipped_lines == 2


#: Lines written by the format-1 stores before they shared one reader and
#: one writer, all for the 4:1 strongly-mutexed mux (``small_mux``): a
#: sizing entry at 0.9x its nominal delay and a negative entry at 0.6x, the
#: certificate of the former, one rule-cache entry (DFA301, default
#: options), its contract and two run-ledger records.
STORES_V1 = os.path.join(os.path.dirname(__file__), "fixtures", "stores_v1")
V1_FILES = {
    SizingCache: "sizing.jsonl",
    SolutionCertificateStore: "certs.jsonl",
    RuleResultCache: "rules.jsonl",
    ContractStore: "contracts.jsonl",
    RunLedger: "ledger.jsonl",
}


class TestStoresV1Fixture:
    @pytest.mark.parametrize("store_cls", list(V1_FILES), ids=lambda c: c.__name__)
    def test_reloads_without_skipping(self, store_cls):
        path = os.path.join(STORES_V1, V1_FILES[store_cls])
        store = store_cls(path)
        assert store.skipped_lines == 0
        with open(path) as fh:
            assert len(store) == sum(1 for line in fh if line.strip())

    def test_sizing_hits_still_hit(self, small_mux, library, tmp_path):
        import shutil

        from repro.sizing import DelaySpec, SmartSizer
        from repro.sizing.engine import SizingError, nominal_delay

        for name in ("sizing.jsonl", "certs.jsonl"):
            shutil.copy(os.path.join(STORES_V1, name), tmp_path / name)
        cache = SizingCache(
            str(tmp_path / "sizing.jsonl"),
            certificates=SolutionCertificateStore(str(tmp_path / "certs.jsonl")),
        )
        nominal = nominal_delay(small_mux, library)
        SmartSizer(small_mux, library, cache=cache).size(
            DelaySpec(data=0.9 * nominal)
        )
        assert cache.stats.exact_hits == cache.stats.cert_hits == 1
        with pytest.raises(SizingError):
            SmartSizer(small_mux, library, cache=cache).size(
                DelaySpec(data=0.6 * nominal)
            )
        assert cache.stats.negative_hits == 1
        assert cache.stats.misses == 0

    def test_lint_and_contract_keys_still_hit(self, small_mux):
        from repro.lint.registry import get_rule
        from repro.netlist.fingerprint import (
            circuit_fingerprint,
            facet_fingerprints,
        )

        rules = RuleResultCache(os.path.join(STORES_V1, "rules.jsonl"))
        key = RuleResultCache.key(get_rule("DFA301"), facet_fingerprints(small_mux))
        assert rules.lookup(key) == []
        contracts = ContractStore(os.path.join(STORES_V1, "contracts.jsonl"))
        assert contracts.get(circuit_fingerprint(small_mux)) is not None
        assert contracts.for_identity("mux/strong_mutex_passgate|w4")
