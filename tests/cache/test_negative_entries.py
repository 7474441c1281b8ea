"""Certified negative cache entries and the lookup-before-front-end order:
a repeated infeasible problem re-raises its stored ``SizingError`` without
building or solving a GP, a poisoned or malformed negative entry is a miss,
and a certificate-admitted exact hit never extracts a path."""

import json

import pytest

from repro.cache import SizingCache, check_negative_entry
from repro.lint.solution import SolutionCertificateStore
from repro.netlist.memo import forget
from repro.netlist.fingerprint import facet_fingerprints
from repro.sizing import DelaySpec, SmartSizer
from repro.sizing.engine import SizingError, nominal_delay
from repro.sizing.gp import GeometricProgram


@pytest.fixture
def counted(monkeypatch):
    """Call counts of GP solves, GP pre-solve lint runs and path
    extractions."""
    calls = {"solve": 0, "lint_gp": 0, "extract": 0}
    solve = GeometricProgram.solve
    lint_gp = SmartSizer._lint_gp
    extract = SmartSizer._extract

    def counted_solve(gp, *args, **kwargs):
        calls["solve"] += 1
        return solve(gp, *args, **kwargs)

    def counted_lint_gp(sizer, *args, **kwargs):
        calls["lint_gp"] += 1
        return lint_gp(sizer, *args, **kwargs)

    def counted_extract(sizer, *args, **kwargs):
        calls["extract"] += 1
        return extract(sizer, *args, **kwargs)

    monkeypatch.setattr(GeometricProgram, "solve", counted_solve)
    monkeypatch.setattr(SmartSizer, "_lint_gp", counted_lint_gp)
    monkeypatch.setattr(SmartSizer, "_extract", counted_extract)
    return calls


def _raise(sizer, spec):
    with pytest.raises(SizingError) as info:
        sizer.size(spec)
    return info.value


#: Budget factors (x nominal delay) at which the 4:1 mux's first GP round is
#: refused by phase 1's certificate and by GP204 respectively; the interval
#: screen cannot prove either, so ``pre_screen`` does not matter.
PHASE1, GP204 = 0.6, 0.5


class TestPhase1Negative:
    def _spec(self, small_mux, library):
        return DelaySpec(data=PHASE1 * nominal_delay(small_mux, library))

    def test_repeat_reraises_without_gp(self, small_mux, library, counted):
        spec = self._spec(small_mux, library)
        cache = SizingCache()
        cold = _raise(SmartSizer(small_mux, library, cache=cache), spec)
        assert cold.certificate is not None
        assert cold.certificate["bound"] > 0.0
        assert counted["solve"] == 1
        assert cache.stats.misses == 1 and cache.stats.stores == 1

        warm = _raise(SmartSizer(small_mux, library, cache=cache), spec)
        assert str(warm) == str(cold)
        assert warm.certificate == cold.certificate
        assert counted == {"solve": 1, "lint_gp": 1, "extract": 1}
        assert cache.stats.negative_hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.lookups == 2

    def test_file_backed_entry_survives_reload(
        self, small_mux, library, tmp_path, counted
    ):
        path = str(tmp_path / "cache.jsonl")
        spec = self._spec(small_mux, library)
        cold = _raise(SmartSizer(small_mux, library, cache=SizingCache(path)), spec)
        reloaded = SizingCache(path)
        warm = _raise(SmartSizer(small_mux, library, cache=reloaded), spec)
        assert str(warm) == str(cold)
        assert reloaded.stats.negative_hits == 1
        assert counted["solve"] == 1

    def test_error_pickles_with_its_certificate(self, small_mux, library):
        import pickle

        error = _raise(
            SmartSizer(small_mux, library), self._spec(small_mux, library)
        )
        back = pickle.loads(pickle.dumps(error))
        assert str(back) == str(error)
        assert back.certificate == error.certificate

    def test_nearest_never_returns_a_negative_entry(self, small_mux, library):
        cache = SizingCache()
        sizer = SmartSizer(small_mux, library, cache=cache)
        spec = self._spec(small_mux, library)
        _raise(sizer, spec)
        key = sizer.cache_key(spec)
        assert cache.nearest(key.circuit_fp, key.context_fp, spec.data) is None
        loose = DelaySpec(data=spec.data / PHASE1)
        SmartSizer(small_mux, library, cache=cache).size(loose)
        near = cache.nearest(key.circuit_fp, key.context_fp, spec.data)
        assert near is not None and "negative" not in near


class TestGPLintNegative:
    def test_repeat_reraises_without_lint_or_gp(
        self, small_mux, library, counted
    ):
        spec = DelaySpec(data=GP204 * nominal_delay(small_mux, library))
        cache = SizingCache()
        cold = _raise(
            SmartSizer(small_mux, library, pre_screen=False, cache=cache), spec
        )
        assert "GP pre-solve lint failed" in str(cold)
        assert cold.certificate is None
        warm = _raise(
            SmartSizer(small_mux, library, pre_screen=False, cache=cache), spec
        )
        assert str(warm) == str(cold)
        assert counted == {"solve": 0, "lint_gp": 1, "extract": 1}
        assert cache.stats.negative_hits == 1


#: One edit per admission binding; each must turn the entry into a miss.
POISONS = {
    "stale facets": lambda neg: neg["facets"].update(sizing="0" * 64),
    "negative weight": lambda neg: neg["certificate"]["weights"].__setitem__(
        0, -1.0
    ),
    "non-positive bound": lambda neg: neg["certificate"].update(bound=-0.5),
    "non-finite point": lambda neg: neg["certificate"]["point"].__setitem__(
        0, float("nan")
    ),
    "short point": lambda neg: neg["certificate"]["point"].pop(),
    "missing certificate": lambda neg: neg.update(certificate=None),
    "missing reason": lambda neg: neg.update(reason=""),
    "unknown kind": lambda neg: neg.update(kind="guess"),
    "not a mapping": lambda neg: neg.clear(),
}


@pytest.mark.parametrize("poison", sorted(POISONS))
def test_poisoned_negative_entry_is_resolved(
    poison, small_mux, library, counted
):
    spec = DelaySpec(data=PHASE1 * nominal_delay(small_mux, library))
    cache = SizingCache()
    sizer = SmartSizer(small_mux, library, cache=cache)
    cold = _raise(sizer, spec)
    key = sizer.cache_key(spec).key
    entry = json.loads(json.dumps(cache.get(key)))
    POISONS[poison](entry["negative"])
    ok, _why = check_negative_entry(
        entry, key=key, facets=facet_fingerprints(small_mux)
    )
    assert not ok
    cache.put(entry)

    again = _raise(SmartSizer(small_mux, library, cache=cache), spec)
    assert str(again) == str(cold)
    assert counted["solve"] == 2  # re-solved, not replayed
    assert cache.stats.negative_hits == 0
    assert cache.stats.misses == 2
    # The re-solve stored a well-formed entry again.
    assert check_negative_entry(
        cache.get(key), key=key, facets=facet_fingerprints(small_mux)
    )[0]


def test_key_mismatch_rejected(small_mux, library):
    spec = DelaySpec(data=PHASE1 * nominal_delay(small_mux, library))
    cache = SizingCache()
    sizer = SmartSizer(small_mux, library, cache=cache)
    _raise(sizer, spec)
    entry = cache.get(sizer.cache_key(spec).key)
    ok, why = check_negative_entry(
        entry, key="0" * 64, facets=facet_fingerprints(small_mux)
    )
    assert not ok and why == "problem-key mismatch"


class TestLookupBeforeFrontEnd:
    def _cache(self):
        return SizingCache(certificates=SolutionCertificateStore())

    def test_certified_hit_extracts_no_path(self, small_mux, library, counted):
        spec = DelaySpec(data=0.9 * nominal_delay(small_mux, library))
        cache = self._cache()
        cold = SmartSizer(small_mux, library, cache=cache).size(spec)
        extracted = counted["extract"]
        warm = SmartSizer(small_mux, library, cache=cache).size(spec)
        assert warm.cache_hit == "exact-cert"
        assert counted["extract"] == extracted
        assert warm.prune_stats == cold.prune_stats
        assert warm.specs == pytest.approx(cold.specs, abs=1e-6)
        assert warm.widths == cold.widths

    def test_entry_without_prune_stats_still_hits(
        self, small_mux, library, counted
    ):
        """A cache file written before entries stored their pruning counts
        still loads and still hits; the front end runs once to fill them."""
        spec = DelaySpec(data=0.9 * nominal_delay(small_mux, library))
        cache = self._cache()
        sizer = SmartSizer(small_mux, library, cache=cache)
        cold = sizer.size(spec)
        old = dict(cache.get(sizer.cache_key(spec).key))
        del old["prune_stats"]
        cache.put(old)
        forget(small_mux)  # as in a new process: no front end in the memo
        extracted = counted["extract"]
        warm = SmartSizer(small_mux, library, cache=cache).size(spec)
        assert warm.cache_hit == "exact-cert"
        assert counted["extract"] == extracted + 1
        assert warm.prune_stats == cold.prune_stats

    def test_sta_verified_hit_runs_front_end_once(
        self, small_mux, library, counted
    ):
        spec = DelaySpec(data=0.9 * nominal_delay(small_mux, library))
        cache = SizingCache()
        SmartSizer(small_mux, library, cache=cache).size(spec)
        extracted = counted["extract"]
        warm = SmartSizer(small_mux, library, cache=cache).size(spec)
        assert warm.cache_hit == "exact"
        # The cold solve's front end, kept in the circuit memo, serves the
        # STA re-verification; a fresh circuit state builds it once.
        assert counted["extract"] == extracted
        forget(small_mux)
        again = SmartSizer(small_mux, library, cache=cache).size(spec)
        assert again.cache_hit == "exact"
        assert counted["extract"] == extracted + 1
