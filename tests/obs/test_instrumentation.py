"""End-to-end instrumentation: the Figure-4 loop under trace/metrics.

The tentpole contract: a ``test_fig4_convergence``-style sizing run records
one ``iteration_record`` trace event per :class:`IterationRecord`, nested
spans for path extraction, pruning (one span carrying the four path
counts) and every GP⇄STA refinement iteration (with residual) — and the
CLI's ``--trace`` file replays into a readable report.
"""

import json

import numpy as np
import pytest

from repro.macros import MacroSpec, default_database
from repro.models import ModelLibrary, Technology
from repro.obs import metrics, trace
from repro.obs.inspect import inspect_file
from repro.posy import as_posynomial, var
from repro.sim import StaticTimingAnalyzer
from repro.sim.timing import stage_arcs
from repro.sizing import ConstraintGenerator, DelaySpec, SmartSizer
from repro.sizing.engine import measure_constraints, nominal_delay
from repro.sizing.gp import StackedLogSumExp


@pytest.fixture(scope="module")
def library():
    return ModelLibrary(Technology())


@pytest.fixture(scope="module")
def database():
    return default_database()


def _sized_run(database, library, tracer=None, registry=None):
    """One Figure-4 loop of the fig4-convergence shape, traced."""
    circuit = database.generate(
        "mux/unsplit_domino", MacroSpec("mux", 8, output_load=30.0),
        library.tech,
    )
    budget = 0.9 * nominal_delay(circuit, library)
    with trace.tracing_scope(tracer) as t, metrics.metrics_scope(registry) as reg:
        result = SmartSizer(circuit, library).size(
            DelaySpec(data=budget), tolerance=2.0
        )
    return result, t, reg


class TestEngineTracing:
    @pytest.fixture(scope="class")
    def run(self, database, library):
        return _sized_run(database, library)

    def test_one_trace_event_per_iteration_record(self, run):
        result, tracer, _ = run
        events = [e for e in tracer.events if e.name == "iteration_record"]
        assert len(events) == len(result.history) == result.iterations
        for event, record in zip(events, result.history):
            assert event.attrs["iteration"] == record.iteration
            assert event.attrs["gp_status"] == record.gp_status
            assert event.attrs["residual"] == pytest.approx(
                record.worst_violation
            )

    def test_nested_spans_for_every_phase(self, run):
        _, tracer, _ = run
        names = [s.name for s in tracer.spans]
        assert "size" in names
        assert "path_extraction" in names
        assert names.count("prune_paths") == 1
        assert "constraint_generation" in names
        assert names.count("iteration") >= 1
        assert names.count("gp_solve") >= 1
        assert names.count("sta") >= 1

    def test_iteration_spans_carry_residual(self, run):
        result, tracer, _ = run
        iteration_spans = [s for s in tracer.spans if s.name == "iteration"]
        completed = [s for s in iteration_spans if "residual" in s.attrs]
        assert completed, "no iteration span recorded a residual"
        final = max(completed, key=lambda s: s.attrs["iteration"])
        assert final.attrs["residual"] == pytest.approx(
            result.history[-1].worst_violation, abs=1e-3
        )

    def test_spans_nest_under_size(self, run):
        _, tracer, _ = run
        by_id = {s.span_id: s for s in tracer.spans}
        size_span = next(s for s in tracer.spans if s.name == "size")
        for span in tracer.spans:
            if span.name in ("iteration", "path_extraction"):
                assert span.parent_id == size_span.span_id
        prune_span = next(s for s in tracer.spans if s.name == "prune_paths")
        assert by_id[prune_span.parent_id].name == "path_extraction"

    def test_metrics_recorded(self, run):
        result, tracer, reg = run
        assert reg.counter("engine.iterations").value == result.iterations
        assert reg.counter("gp.solves").value >= result.iterations
        assert reg.counter("sta.analyses").value >= 1
        assert reg.counter("sta.node_visits").value > 0
        assert reg.gauge("prune.initial").value >= reg.gauge(
            "prune.after_regularity"
        ).value
        # The one pruning span carries the four counts the gauges hold.
        prune_span = next(s for s in tracer.spans if s.name == "prune_paths")
        for count in (
            "initial", "after_precedence", "after_dominance", "after_regularity"
        ):
            assert prune_span.attrs[count] == reg.gauge(f"prune.{count}").value
            assert prune_span.attrs[count] == getattr(result.prune_stats, count)
        residuals = reg.histogram("engine.residual_ps")
        assert residuals.count == len(
            [r for r in result.history if r.worst_violation == r.worst_violation]
        )

    def test_runtime_and_fallbacks_on_result(self, run):
        result, _, _ = run
        assert result.runtime_s > 0.0
        assert result.gp_fallback_count >= 0
        assert result.converged


class TestArcTableCounters:
    """``sta.arc_tables`` / ``sta.arc_evaluations``: one table per circuit,
    each arc evaluated once per sizing."""

    def test_measure_evaluates_each_arc_at_most_once(self, database, library):
        circuit = database.generate(
            "mux/unsplit_domino", MacroSpec("mux", 8, output_load=30.0),
            library.tech,
        )
        sizer = SmartSizer(circuit, library)
        spec = DelaySpec(data=300.0)
        timing = ConstraintGenerator(circuit, library, spec).generate(
            sizer._extract().paths
        ).timing
        arcs = sum(
            len(stage_arcs(stage, pin))
            for stage in circuit.stages for pin in stage.inputs
        )
        env = circuit.size_table.default_env()
        with trace.tracing_scope() as tracer, metrics.metrics_scope() as reg:
            measure_constraints(sizer.analyzer, timing, env, spec.input_slope)
        evaluations = reg.counter("sta.arc_evaluations").value
        assert len(timing) > 1
        assert reg.counter("sta.path_delays").value == len(timing)
        assert 0 < evaluations <= arcs
        # the generator built the table; the measurement only reads it
        assert reg.counter("sta.arc_tables").value == 0
        [sta] = [s for s in tracer.spans if s.name == "sta"]
        assert sta.attrs["sta_arc_tables"] == 0
        assert sta.attrs["sta_arc_evaluations"] == evaluations

    def test_second_analyzer_builds_no_table(self, database, library):
        circuit = database.generate(
            "mux/tristate", MacroSpec("mux", 4, output_load=30.0), library.tech,
        )
        env = circuit.size_table.default_env()
        with metrics.metrics_scope() as reg:
            StaticTimingAnalyzer(circuit, library).analyze(env)
            assert reg.counter("sta.arc_tables").value == 1
            StaticTimingAnalyzer(circuit, library).analyze(env)
            assert reg.counter("sta.arc_tables").value == 1


class TestGPWorkCounters:
    """``gp_solve`` carries the stacked program's size and the solver's step
    counts; ``gp.exponent_passes`` counts passes over its rows, one per
    point the interior-point method visits."""

    def test_passes_bounded_by_solver_evaluations(self, database, library):
        _, tracer, reg = _sized_run(database, library)
        passes = reg.counter("gp.exponent_passes").value
        solves = reg.counter("gp.solves").value
        steps = reg.histogram("gp.solver_iterations")
        trials = reg.counter("gp.line_search_trials").value
        assert reg.counter("gp.phase1_solves").value >= 1
        assert steps.count == solves
        assert trials >= steps.total
        # One pass at each solve's start point, then one per trial point;
        # an accepted step reuses its trial's pass.
        assert 0 < passes <= trials + solves
        for span in (s for s in tracer.spans if s.name == "gp_solve"):
            assert span.attrs["terms"] >= span.attrs["constraints"] > 0
            assert span.attrs["nonzeros"] > 0
            assert span.attrs["variables"] > 0
            assert span.attrs["solver_iterations"] == (
                span.attrs["phase1_steps"] + span.attrs["newton_steps"]
            )
            assert span.attrs["duality_gap"] <= 1e-9

    def test_values_then_jacobian_share_one_pass(self):
        program = StackedLogSumExp(
            [
                var("x") + var("y") ** -1.0,
                as_posynomial(2.0 * var("x") * var("y")),
            ],
            {"x": 0, "y": 1},
        )
        y = np.array([0.1, -0.2])
        program.values(y)
        program.jacobian(y)
        assert program.passes == 1
        program.jacobian(y + 1.0)
        assert program.passes == 2


class TestDisabledOverhead:
    def test_untraced_run_records_nothing(self, database, library):
        circuit = database.generate(
            "mux/tristate", MacroSpec("mux", 4, output_load=30.0),
            library.tech,
        )
        budget = 0.95 * nominal_delay(circuit, library)
        with metrics.metrics_scope():
            result = SmartSizer(circuit, library).size(DelaySpec(data=budget))
        assert result.converged
        assert not trace.enabled()
        assert trace.get_tracer().span("x") is trace.get_tracer().span("y")


class TestCliTraceFlow:
    def test_size_trace_profile_and_inspect(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = str(tmp_path / "run.jsonl")
        code = main([
            "size", "mux", "8", "--delay", "360", "--load", "30",
            "--topology", "mux/partitioned_domino",
            "--trace", trace_path, "--profile",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "self-time attribution" in out
        assert "% reconciled)" in out
        assert "gp_solve" in out
        assert "metrics:" in out

        # trace file is valid JSONL with the required nested spans
        spans = {}
        with open(trace_path) as fh:
            for line in fh:
                obj = json.loads(line)
                if obj.get("type") == "span":
                    spans[obj["name"]] = obj["attrs"]
        assert {
            "path_extraction", "prune_paths", "iteration", "gp_solve", "sta",
        } <= spans.keys()
        assert {
            "initial", "after_precedence", "after_dominance", "after_regularity",
        } <= spans["prune_paths"].keys()

        # global tracer was uninstalled after the command
        assert not trace.enabled()

        report = inspect_file(trace_path)
        assert "span tree:" in report
        assert "convergence:" in report
        assert "self-time attribution" in report
        assert "% reconciled)" in report

        code = main(["inspect", trace_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "trace report" in out

    def test_inspect_missing_file_fails_cleanly(self, capsys):
        from repro.cli import main

        code = main(["inspect", "/nonexistent/trace.jsonl"])
        out = capsys.readouterr().out
        assert code == 1
        assert "cannot read trace" in out

    def test_global_flag_position_also_accepted(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = str(tmp_path / "pre.jsonl")
        code = main([
            "--trace", trace_path,
            "size", "mux", "4", "--delay", "400", "--load", "30",
            "--topology", "mux/strong_mutex_passgate",
        ])
        capsys.readouterr()
        assert code == 0
        with open(trace_path) as fh:
            assert json.loads(fh.readline())["type"] == "trace"

    def test_verbose_diagnostics_go_to_stderr(self, capsys):
        from repro.cli import main

        code = main([
            "size", "mux", "4", "--delay", "400", "--load", "30",
            "--topology", "mux/strong_mutex_passgate", "-v",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "sized" in captured.err       # engine INFO diagnostics
        assert "sized" not in captured.out   # stdout stays CLI-facing


class TestAdvisorReportColumns:
    def test_render_includes_runtime_and_fallbacks(self, database, library):
        from repro.core.advisor import SmartAdvisor
        from repro.core.constraints import DesignConstraints

        advisor = SmartAdvisor(database=database, library=library)
        report = advisor.advise(
            MacroSpec("mux", 4, output_load=30.0),
            DesignConstraints(delay=400.0, cost="area"),
        )
        text = report.render()
        assert "time s" in text
        assert "gp-fb" in text
        best = report.best
        assert best is not None
        assert best.sizing.runtime_s > 0.0
