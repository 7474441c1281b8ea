"""RegularityCollapsedSizer: collapsed-vs-full equivalence, certification,
fallback, and the certificate-backed cache fast path."""

import pytest

from repro.cache import SizingCache
from repro.lint.solution import SolutionCertificateStore, check_certificate
from repro.macros.adder import StaticRippleAdder
from repro.macros.base import MacroSpec
from repro.macros.incrementor import RippleIncrementor
from repro.netlist.fingerprint import facet_fingerprints
from repro.obs import metrics
from repro.sizing import DelaySpec, RegularityCollapsedSizer, SmartSizer
from repro.sizing.engine import nominal_delay


def _adder(tech, width, group):
    return StaticRippleAdder().build(
        MacroSpec("adder", width, params=(("label_group", group),)), tech
    )


def _incrementor(tech, width):
    return RippleIncrementor().build(
        MacroSpec("incrementor", width, params=(("label_group", 1),)), tech
    )


def _spec(circuit, library, factor=0.9):
    return DelaySpec(data=factor * nominal_delay(circuit, library))


@pytest.fixture(scope="module")
def adder64_runs(tech, library):
    """Collapsed and full solves of the 64-bit adder (4-bit label groups)."""
    circuit = _adder(tech, 64, 4)
    spec = _spec(circuit, library)
    collapsed = RegularityCollapsedSizer(circuit, library).size(spec)
    full = SmartSizer(circuit, library).size(spec)
    return circuit, spec, collapsed, full


class TestAdder64Equivalence:
    def test_collapse_reduces_variables(self, adder64_runs):
        _circuit, _spec, collapsed, _full = adder64_runs
        assert not collapsed.fallback, collapsed.fallback_reason
        assert collapsed.full_free == 128
        assert collapsed.collapsed_free < collapsed.full_free // 4
        assert collapsed.merged_labels == (
            collapsed.full_free - collapsed.collapsed_free
        )

    def test_replicated_widths_match_full_solve(self, adder64_runs):
        _circuit, _spec, collapsed, full = adder64_runs
        assert full.converged and collapsed.result.converged
        for name, width in full.widths.items():
            assert collapsed.result.widths[name] == pytest.approx(
                width, rel=1e-6
            ), name
        assert collapsed.result.area == pytest.approx(full.area, rel=1e-9)

    def test_certificate_verifies_against_problem(
        self, adder64_runs, library
    ):
        circuit, spec, collapsed, _full = adder64_runs
        cert = collapsed.certificate
        assert cert is not None and cert.ok
        assert cert.checks["OPT701"]["ok"]
        assert cert.checks["OPT703"]["ok"]
        assert cert.checks["OPT703"]["merged_labels"] == (
            collapsed.merged_labels
        )
        key = SmartSizer(circuit, library).cache_key(spec).key
        ok, reason = check_certificate(
            cert.to_payload(),
            key=key,
            env=collapsed.result.widths,
            tolerance=2.0,
            facets=facet_fingerprints(circuit),
        )
        assert ok, reason

    def test_full_sta_residual_within_tolerance(self, adder64_runs):
        _circuit, _spec, collapsed, _full = adder64_runs
        assert collapsed.result.worst_violation <= 2.0
        assert collapsed.result.realized  # measured, not copied


class TestPerBitCorpus:
    """Per-bit-labeled corpus: the GP optimum is flat along slice-symmetric
    directions, so widths agree only loosely while the objective agrees
    tightly — both bounds are asserted."""

    @pytest.mark.parametrize(
        "builder,width_tol,area_tol",
        [
            (lambda tech: _adder(tech, 16, 1), 0.5, 0.02),
            (lambda tech: _incrementor(tech, 16), 0.10, 1e-3),
        ],
        ids=["adder16_per_bit", "incrementor16_per_bit"],
    )
    def test_collapsed_tracks_full_solve(
        self, tech, library, builder, width_tol, area_tol
    ):
        circuit = builder(tech)
        spec = _spec(circuit, library)
        collapsed = RegularityCollapsedSizer(
            circuit, library, with_kkt=False
        ).size(spec)
        assert not collapsed.fallback, collapsed.fallback_reason
        assert collapsed.certificate is not None
        assert collapsed.certificate.ok
        full = SmartSizer(circuit, library).size(spec)
        assert full.converged
        worst = max(
            abs(collapsed.result.widths[name] - width) / width
            for name, width in full.widths.items()
        )
        assert worst <= width_tol
        assert (
            abs(collapsed.result.area - full.area) / full.area <= area_tol
        )

    def test_kkt_audit_reads_the_compiled_program(self, tech, library):
        """OPT702's stationarity fit reads the GP's compiled rows, so a
        certified run with the KKT audit builds no path delay posynomial."""
        circuit = _adder(tech, 16, 1)
        with metrics.metrics_scope() as registry:
            collapsed = RegularityCollapsedSizer(
                circuit, library, with_kkt=True
            ).size(_spec(circuit, library))
        assert collapsed.certificate.ok
        assert collapsed.certificate.kkt_gap_rel is not None
        assert registry.counter("constraints.delay_posynomials").value == 0


class TestFallback:
    def test_no_regularity_falls_back_to_full_solve(
        self, inverter_chain, library
    ):
        spec = _spec(inverter_chain, library)
        collapsed = RegularityCollapsedSizer(inverter_chain, library).size(
            spec
        )
        assert collapsed.fallback
        assert "no label regularity" in collapsed.fallback_reason
        assert collapsed.certificate is None
        assert collapsed.result.converged
        full = SmartSizer(inverter_chain, library).size(spec)
        for name, width in full.widths.items():
            assert collapsed.result.widths[name] == pytest.approx(
                width, rel=1e-6
            )


class TestCertificateCachePath:
    """Exact cache hits admitted on a verified certificate skip the STA
    re-run; stale or absent certificates fall back to the verified path."""

    @pytest.fixture()
    def solved_cache(self, tech, library, tmp_path):
        circuit = _adder(tech, 8, 1)
        spec = _spec(circuit, library)
        certs = SolutionCertificateStore(str(tmp_path / "certs.jsonl"))
        cache = SizingCache(certificates=certs)
        cold = RegularityCollapsedSizer(circuit, library, cache=cache).size(
            spec
        )
        assert not cold.fallback and cold.certificate is not None
        return circuit, spec, cache, certs

    def test_cold_solve_publishes_entry_and_certificate(self, solved_cache):
        circuit, spec, cache, certs = solved_cache
        assert len(certs) == 1
        cert = next(iter(certs.entries()))
        assert cert["circuit"] == circuit.name
        assert cache.get(cert["key"]) is not None

    def test_warm_hit_admitted_on_certificate(
        self, solved_cache, library
    ):
        circuit, spec, cache, certs = solved_cache
        warm = SmartSizer(circuit, library, cache=cache).size(spec)
        assert warm.cache_hit == "exact-cert"
        assert warm.converged and warm.iterations == 0
        assert cache.stats.cert_hits == 1
        assert cache.stats.exact_hits == 1
        entry = cache.get(next(iter(certs.entries()))["key"])
        for name, width in entry["env"].items():
            assert warm.widths[name] == pytest.approx(width, rel=1e-9)

    def test_tampered_entry_falls_back_to_sta_verify(
        self, solved_cache, library
    ):
        circuit, spec, cache, certs = solved_cache
        key = next(iter(certs.entries()))["key"]
        entry = dict(cache.get(key))
        entry["env"] = {
            name: width * 1.0001 for name, width in entry["env"].items()
        }
        cache.put(entry)
        result = SmartSizer(circuit, library, cache=cache).size(spec)
        # Digest mismatch rejects the certificate; the nudged env still
        # passes the full STA re-check, so the ordinary exact path serves.
        assert result.cache_hit == "exact"
        assert cache.stats.cert_hits == 0
        assert cache.stats.exact_hits == 1

    def test_plain_cache_without_certificates_unchanged(
        self, tech, library
    ):
        circuit = _adder(tech, 8, 1)
        spec = _spec(circuit, library)
        cache = SizingCache()
        SmartSizer(circuit, library, cache=cache).size(spec)
        warm = SmartSizer(circuit, library, cache=cache).size(spec)
        assert warm.cache_hit == "exact"
        assert cache.stats.cert_hits == 0

    def test_engine_issues_certificate_after_cold_solve(
        self, tech, library, tmp_path
    ):
        """A converged SmartSizer solve self-issues an OPT705-admissible
        certificate when the cache carries a certificate store."""
        circuit = _adder(tech, 8, 1)
        spec = _spec(circuit, library)
        certs = SolutionCertificateStore(str(tmp_path / "c.jsonl"))
        cache = SizingCache(certificates=certs)
        SmartSizer(circuit, library, cache=cache).size(spec)
        assert len(certs) == 1
        warm = SmartSizer(circuit, library, cache=cache).size(spec)
        assert warm.cache_hit == "exact-cert"
