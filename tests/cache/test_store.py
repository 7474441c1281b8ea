"""SizingCache store tests: persistence, lookups, tolerance to bad lines."""

import json

import pytest

from repro.cache import CacheKey, SizingCache, make_entry


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

    def test_idempotent_put(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = SizingCache(str(path))
        cache.put(_entry())
        cache.put(_entry())
        assert len(path.read_text().strip().splitlines()) == 1


class TestPersistence:
    def test_reload_from_file(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        writer = SizingCache(str(path))
        entry = _entry()
        writer.put(entry)

        reader = SizingCache(str(path))
        assert reader.get(entry["key"]) == entry

    def test_corrupt_and_foreign_lines_skipped(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        entry = _entry()
        with open(path, "w") as fh:
            fh.write("{not json\n")
            fh.write(json.dumps({"something": "else"}) + "\n")
            fh.write(json.dumps(entry) + "\n")
        cache = SizingCache(str(path))
        assert cache.skipped_lines == 2
        assert cache.get(entry["key"]) == entry

    def test_last_write_wins(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        old = _entry()
        new = dict(_entry(), area=99.0)
        with open(path, "w") as fh:
            fh.write(json.dumps(old) + "\n")
            fh.write(json.dumps(new) + "\n")
        assert SizingCache(str(path)).get(old["key"])["area"] == 99.0

    def test_flush_persists_deferred_entries(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        worker = SizingCache(str(path), autosync=False)
        worker.put(_entry())
        assert not path.exists()
        worker.flush()
        assert SizingCache(str(path)).get(_entry()["key"]) is not None


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
        worker = SizingCache(autosync=False)
        worker.seed([_entry()])
        assert len(worker) == 1
        assert worker.new_entries() == []

    def test_drain_new_ships_only_fresh_entries(self):
        worker = SizingCache(autosync=False)
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
