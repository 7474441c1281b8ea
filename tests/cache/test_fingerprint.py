"""Fingerprint tests: stability, sensitivity, and name-blindness."""

from repro.cache import (
    CacheKey,
    circuit_fingerprint,
    context_fingerprint,
    sizing_cache_key,
    spec_fingerprint,
)
from repro.macros import MacroSpec
from repro.models import GENERIC_130, ModelLibrary
from repro.sizing import DelaySpec


def _mux(database, tech, width=4):
    return database.generate(
        "mux/strong_mutex_passgate", MacroSpec("mux", width, output_load=30.0),
        tech,
    )


class TestCircuitFingerprint:
    def test_deterministic_across_regeneration(self, database, tech):
        a = circuit_fingerprint(_mux(database, tech))
        b = circuit_fingerprint(_mux(database, tech))
        assert a == b
        assert len(a) == 64  # sha256 hex

    def test_name_blind(self, database, tech):
        """Two instances of the same macro differing only by instance name
        must share a fingerprint — that is what makes cross-instance cache
        reuse possible."""
        a = _mux(database, tech)
        b = _mux(database, tech)
        b.name = "renamed_instance"
        assert circuit_fingerprint(a) == circuit_fingerprint(b)

    def test_width_changes_fingerprint(self, database, tech):
        assert circuit_fingerprint(_mux(database, tech, 4)) != (
            circuit_fingerprint(_mux(database, tech, 8))
        )

    def test_pinning_changes_fingerprint(self, database, tech):
        a = _mux(database, tech)
        base = circuit_fingerprint(a)
        label = next(iter(a.size_table.free_names()))
        a.size_table.pin(label, 5.0)
        assert circuit_fingerprint(a) != base

    def test_bound_change_changes_fingerprint(self, database, tech):
        a = _mux(database, tech)
        base = circuit_fingerprint(a)
        var = a.size_table[next(iter(a.size_table.free_names()))]
        var.upper = var.upper * 0.5
        assert circuit_fingerprint(a) != base


class TestContextAndSpecFingerprints:
    def test_context_sensitive_to_objective_and_solver(self, library):
        base = context_fingerprint(library)
        assert context_fingerprint(library, objective="power") != base
        assert context_fingerprint(library, otb_borrow=10.0) != base
        assert context_fingerprint(library) == base

    def test_context_sensitive_to_technology(self, library):
        other = ModelLibrary(GENERIC_130)
        assert context_fingerprint(other) != context_fingerprint(library)

    def test_spec_fingerprint_covers_tolerance(self):
        spec = DelaySpec(data=150.0)
        assert spec_fingerprint(spec, 2.0) != spec_fingerprint(spec, 1.0)
        assert spec_fingerprint(spec, 2.0) == spec_fingerprint(
            DelaySpec(data=150.0), 2.0
        )
        assert spec_fingerprint(DelaySpec(data=151.0), 2.0) != (
            spec_fingerprint(spec, 2.0)
        )


class TestCacheKey:
    def test_key_composition(self, database, tech, library):
        circuit = _mux(database, tech)
        spec = DelaySpec(data=300.0)
        key = sizing_cache_key(circuit, library, spec)
        assert isinstance(key, CacheKey)
        assert key.key == CacheKey(
            circuit_fp=key.circuit_fp,
            context_fp=key.context_fp,
            spec_fp=key.spec_fp,
        ).key
        # any component change moves the composed key
        other_spec = sizing_cache_key(circuit, library, DelaySpec(data=310.0))
        assert other_spec.key != key.key
        assert other_spec.circuit_fp == key.circuit_fp
        assert other_spec.context_fp == key.context_fp

    def test_matches_engine_cache_key(self, database, tech, library):
        from repro.sizing import SmartSizer

        circuit = _mux(database, tech)
        spec = DelaySpec(data=300.0)
        sizer = SmartSizer(circuit, library, pre_screen=False)
        assert sizer.cache_key(spec).key == sizing_cache_key(
            circuit, library, spec
        ).key
        assert sizer.cache_key(spec, tolerance=1.0).key != (
            sizer.cache_key(spec).key
        )
