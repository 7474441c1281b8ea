"""Process-pool advisor tests: determinism, trace grafting, fallback."""

import pytest

from repro.cache import SizingCache
from repro.core.advisor import SmartAdvisor
from repro.core.constraints import DesignConstraints
from repro.macros import MacroSpec
from repro.obs import trace
from repro.parallel import (
    CandidateTask,
    build_grid,
    run_candidates,
    run_sweep,
)


@pytest.fixture
def spec():
    return MacroSpec("mux", 4, output_load=20.0)


@pytest.fixture
def constraints():
    return DesignConstraints(delay=400.0)


class TestParallelAdvise:
    def test_matches_sequential_exactly(self, database, spec, constraints):
        seq = SmartAdvisor(database=database).advise(
            spec, constraints, workers=1
        )
        par = SmartAdvisor(database=database).advise(
            spec, constraints, workers=4
        )
        assert [c.topology for c in par.candidates] == [
            c.topology for c in seq.candidates
        ]
        for a, b in zip(seq.candidates, par.candidates):
            assert a.feasible == b.feasible
            assert a.reason == b.reason
            if a.sizing is not None:
                assert b.sizing is not None
                assert a.sizing.widths == b.sizing.widths
                assert a.sizing.iterations == b.sizing.iterations
        assert par.best.topology == seq.best.topology

    def test_worker_traces_grafted(self, database, spec, constraints):
        with trace.tracing_scope() as tracer:
            SmartAdvisor(database=database).advise(
                spec, constraints, workers=2
            )
        names = [s.name for s in tracer.spans]
        # spans recorded inside worker processes must appear in the parent
        # trace, nested under the advise span
        assert "gp_solve" in names
        assert "advise" in names
        advise_span = next(s for s in tracer.spans if s.name == "advise")
        topology_spans = [s for s in tracer.spans if s.name == "topology"]
        assert topology_spans
        assert all(s.parent_id == advise_span.span_id for s in topology_spans)
        assert all(s.depth == advise_span.depth + 1 for s in topology_spans)

    def test_worker_cache_entries_merged(self, database, spec, constraints):
        cache = SizingCache()
        advisor = SmartAdvisor(database=database, cache=cache)
        report = advisor.advise(spec, constraints, workers=2)
        assert len(cache) >= len(report.feasible)
        assert cache.stats.stores >= len(report.feasible)

    def test_certificates_cross_the_pool(self, database, spec, constraints):
        inline = SmartAdvisor(database=database, certify=True).advise(
            spec, constraints, workers=1
        )
        advisor = SmartAdvisor(database=database, certify=True)
        cold = advisor.advise(spec, constraints, workers=2)
        sized = [c for c in inline.candidates if c.sizing is not None]
        assert sized and all(c.certificate is not None for c in sized)
        assert [c.certificate for c in cold.candidates] == [
            c.certificate for c in inline.candidates
        ]
        assert len(advisor.cache.certificates) == len(sized)

        warm = advisor.advise(spec, constraints, workers=2)
        converged = [c for c in warm.candidates if c.converged]
        assert converged
        assert all(c.sizing.cache_hit == "exact-cert" for c in converged)
        assert advisor.cache.stats.cert_hits == len(converged)

    def test_single_worker_stays_inline(
        self, database, spec, constraints, monkeypatch
    ):
        import repro.parallel.pool as pool_mod

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("pool must not be used for workers=1")

        monkeypatch.setattr(pool_mod, "run_candidates", boom)
        report = SmartAdvisor(database=database).advise(
            spec, constraints, workers=1
        )
        assert report.best is not None


class TestFallback:
    def test_unpicklable_inputs_return_none(self, database, spec, constraints):
        tasks = [
            CandidateTask(
                topology="mux/tristate",
                spec=spec,
                constraints=constraints,
            )
        ]
        outcomes = run_candidates(
            tasks,
            workers=2,
            database=database,
            tech=lambda: None,  # unpicklable on purpose
        )
        assert outcomes is None

    def test_advise_falls_back_inline(
        self, database, spec, constraints, monkeypatch
    ):
        import repro.parallel.pool as pool_mod

        monkeypatch.setattr(
            pool_mod, "run_candidates", lambda *a, **k: None
        )
        report = SmartAdvisor(database=database).advise(
            spec, constraints, workers=4
        )
        assert report.best is not None
        assert len(report.candidates) == 5


class TestSweep:
    def test_grid_order_deterministic(self):
        grid = build_grid(["mux"], [8, 4], [400.0, 300.0])
        assert [(p.width, p.delay) for p in grid] == [
            (8, 400.0), (8, 300.0), (4, 400.0), (4, 300.0)
        ]

    def test_parallel_sweep_matches_sequential(self, database, tech):
        grid = build_grid(["mux"], [4], [300.0, 400.0])
        seq = run_sweep(grid, workers=1, database=database, tech=tech)
        par = run_sweep(grid, workers=2, database=database, tech=tech)
        assert [p.best_topology for p in par.points] == [
            p.best_topology for p in seq.points
        ]
        assert [p.best_scalar for p in par.points] == pytest.approx(
            [p.best_scalar for p in seq.points]
        )

    def test_second_pass_mostly_exact_hits(self, database, tech, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        grid = build_grid(["mux"], [4], [300.0, 400.0])
        cold = run_sweep(
            grid, workers=2, cache=SizingCache(path),
            database=database, tech=tech,
        )
        assert cold.cache_stats["exact_hits"] == 0
        warm = run_sweep(
            grid, workers=2, cache=SizingCache(path),
            database=database, tech=tech,
        )
        assert warm.cache_stats["exact_hits"] > 0
        assert warm.cache_stats["hit_rate"] >= 0.8
        assert [p.best_scalar for p in warm.points] == pytest.approx(
            [p.best_scalar for p in cold.points], abs=1e-9
        )

    def test_artifact_shape(self, database, tech):
        import json

        from repro.obs import json_sanitize

        grid = build_grid(["mux"], [4], [400.0])
        result = run_sweep(grid, workers=1, database=database, tech=tech)
        blob = json.dumps(json_sanitize(result.to_json()), allow_nan=False)
        parsed = json.loads(blob)
        assert parsed["format"] == "smart-sweep/1"
        assert parsed["points"][0]["best"]
        assert result.complete
