"""Performance observatory: attribution, ledger, exports."""

import json
import math

import pytest

from repro.obs import perf
from repro.obs.perf import (
    RunLedger,
    attribution,
    build_run_record,
    critical_path,
    kernel_hotspots,
    ledger_scope,
    reconcile,
    record_run,
    self_times,
    to_chrome_trace,
    to_speedscope,
)
from repro.obs.trace import EventRecord, SpanRecord, Tracer


def _span(sid, parent, name, t0, t1, depth=0, **attrs):
    return SpanRecord(
        span_id=sid, parent_id=parent, name=name, depth=depth,
        t_start=t0, t_end=t1, attrs=attrs,
    )


def _tree():
    """root[0,10] > a[1,4] (> leaf[2,3]) + b[5,9]."""
    return [
        _span(3, 2, "leaf", 2.0, 3.0, depth=2),
        _span(2, 1, "a", 1.0, 4.0, depth=1),
        _span(4, 1, "b", 5.0, 9.0, depth=1),
        _span(1, None, "root", 0.0, 10.0),
    ]


class TestSelfTimes:
    def test_partition_of_the_tree(self):
        selfs = self_times(_tree())
        assert selfs[1] == pytest.approx(3.0)   # 10 - (3 + 4)
        assert selfs[2] == pytest.approx(2.0)   # 3 - 1
        assert selfs[3] == pytest.approx(1.0)
        assert selfs[4] == pytest.approx(4.0)
        assert sum(selfs.values()) == pytest.approx(10.0)

    def test_overlapping_children_floor_at_zero(self):
        spans = [
            _span(2, 1, "w1", 0.0, 4.0, depth=1),
            _span(3, 1, "w2", 0.0, 4.0, depth=1),
            _span(1, None, "pool", 0.0, 5.0),
        ]
        assert self_times(spans)[1] == 0.0

    def test_open_spans_excluded(self):
        spans = [_span(1, None, "open", 0.0, None)]
        assert self_times(spans) == {}


class TestAttribution:
    def test_rows_sorted_by_self_time(self):
        rows = attribution(_tree())
        assert [r.name for r in rows] == ["b", "root", "a", "leaf"]
        assert rows[0].self_s == pytest.approx(4.0)
        assert rows[0].share == pytest.approx(0.4)

    def test_same_name_aggregates(self):
        spans = [
            _span(2, 1, "gp_solve", 1.0, 2.0, depth=1),
            _span(3, 1, "gp_solve", 3.0, 5.0, depth=1),
            _span(1, None, "size", 0.0, 6.0),
        ]
        row = next(r for r in attribution(spans) if r.name == "gp_solve")
        assert row.calls == 2
        assert row.total_s == pytest.approx(3.0)

    def test_reconcile_sequential_trace_is_exact(self):
        wall, self_sum = reconcile(_tree())
        assert wall == pytest.approx(10.0)
        assert self_sum == pytest.approx(wall)

    def test_reconcile_real_tracer_within_one_percent(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                for _ in range(100):
                    pass
            with tracer.span("child"):
                pass
        wall, self_sum = reconcile(tracer.spans)
        assert self_sum == pytest.approx(wall, rel=0.01)

    def test_render_report(self):
        report = perf.render_attribution_report(_tree())
        assert "self-time attribution" in report
        assert "root" in report
        assert "100.0% reconciled" in report

    def test_render_empty(self):
        assert "no completed spans" in perf.render_attribution_report([])


class TestKernelsAndCriticalPath:
    def test_kernel_hotspots_keyed_by_circuit(self):
        spans = [
            _span(2, 1, "gp_solve", 0.5, 2.0, depth=1),
            _span(1, None, "size", 0.0, 3.0, circuit="mux8"),
            _span(4, 3, "sta", 0.2, 0.4, depth=1),
            _span(3, None, "size", 0.0, 1.0, circuit="adder16"),
        ]
        rows = kernel_hotspots(spans)
        assert [r.kernel for r in rows] == ["mux8", "adder16"]
        assert rows[0].wall_s == pytest.approx(3.0)
        assert rows[0].hotspots[0].name == "gp_solve"

    def test_kernel_repeat_sizings_aggregate(self):
        spans = [
            _span(1, None, "size", 0.0, 1.0, circuit="mux8"),
            _span(2, None, "size", 2.0, 4.0, circuit="mux8"),
        ]
        (row,) = kernel_hotspots(spans)
        assert row.calls == 2
        assert row.wall_s == pytest.approx(3.0)

    def test_critical_path_follows_heaviest_child(self):
        path = [s.name for s in critical_path(_tree())]
        assert path == ["root", "b"]

    def test_critical_path_empty(self):
        assert critical_path([]) == []


class TestExports:
    def test_chrome_trace_format(self):
        events = [EventRecord(name="tick", t=2.5, span_id=1, attrs={"i": 0})]
        payload = to_chrome_trace(_tree(), events, unix_time=123.0)
        assert payload["otherData"]["unix_time"] == 123.0
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        instant = [e for e in payload["traceEvents"] if e["ph"] == "i"]
        assert len(complete) == 4 and len(instant) == 1
        root = next(e for e in complete if e["name"] == "root")
        assert root["ts"] == 0.0
        assert root["dur"] == pytest.approx(10.0 * 1e6)
        # strict JSON even with non-finite attrs
        json.loads(json.dumps(payload, allow_nan=False))

    def test_chrome_trace_sanitizes_attrs(self):
        spans = [_span(1, None, "s", 0.0, 1.0, residual=float("inf"))]
        payload = to_chrome_trace(spans)
        assert payload["traceEvents"][0]["args"] == {"residual": "Infinity"}

    def test_speedscope_events_nest(self):
        payload = to_speedscope(_tree(), name="test")
        assert payload["$schema"].endswith("file-format-schema.json")
        profile = payload["profiles"][0]
        assert profile["endValue"] == pytest.approx(10.0)
        # O/C events balance and never close a frame not currently open
        stack = []
        for ev in profile["events"]:
            if ev["type"] == "O":
                stack.append(ev["frame"])
            else:
                assert stack.pop() == ev["frame"]
        assert stack == []

    def test_speedscope_clamps_overhanging_children(self):
        spans = [
            _span(2, 1, "child", 0.5, 3.0, depth=1),  # overhangs parent
            _span(1, None, "parent", 0.0, 2.0),
        ]
        events = to_speedscope(spans)["profiles"][0]["events"]
        times = [ev["at"] for ev in events]
        assert times == sorted(times)
        assert max(times) <= 2.0


class TestRunLedger:
    def _record(self, name="mux8", wall=1.0, kind="size"):
        return build_run_record(kind, name, wall_s=wall)

    def test_append_and_reload(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        ledger = RunLedger(path)
        ledger.append(self._record())
        ledger.append(self._record(name="adder16", wall=2.0))
        reloaded = RunLedger(path)
        assert len(reloaded) == 2
        assert reloaded.records[1]["name"] == "adder16"

    def test_tolerant_loading_skips_corrupt_and_foreign(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        good = json.dumps(self._record())
        path.write_text(f"{good}\nnot json\n{{\"foreign\": 1}}\n{good}\n")
        ledger = RunLedger(str(path))
        assert len(ledger) == 2
        assert ledger.skipped_lines == 2

    def test_append_validates_required_fields(self):
        with pytest.raises(ValueError):
            RunLedger().append({"kind": "size"})

    def test_memory_ledger_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        RunLedger().append(self._record())
        assert list(tmp_path.iterdir()) == []

    def test_record_run_is_noop_without_ledger(self):
        assert perf.get_ledger() is None
        assert record_run("size", "mux8", wall_s=1.0) is None

    def test_ledger_scope_activates_and_restores(self):
        assert perf.get_ledger() is None
        with ledger_scope() as ledger:
            assert perf.get_ledger() is ledger
            record_run("size", "mux8", wall_s=1.0)
        assert perf.get_ledger() is None
        assert len(ledger) == 1

    def test_ledger_scope_accepts_path(self, tmp_path):
        path = str(tmp_path / "l.jsonl")
        with ledger_scope(path) as ledger:
            record_run("size", "mux8", wall_s=1.0)
        assert ledger.path == path
        assert len(RunLedger(path)) == 1


class TestBuildRunRecord:
    def test_phases_from_spans(self):
        record = build_run_record(
            "size", "mux8", wall_s=10.0, spans=_tree(),
            circuit_fp="c", context_fp="x", spec_fp="s",
        )
        assert record["format"] == perf.LEDGER_FORMAT
        assert record["circuit_fp"] == "c"
        assert record["phases"]["b"]["self_s"] == pytest.approx(4.0)
        assert record["phases"]["root"]["wall_s"] == pytest.approx(10.0)

    def test_untraced_leftover_bucket(self):
        spans = [_span(1, None, "a", 0.0, 2.0)]
        record = build_run_record("size", "m", wall_s=5.0, spans=spans)
        assert record["phases"]["(untraced)"]["self_s"] == pytest.approx(3.0)

    def test_gp_rollup_from_iteration_spans(self):
        spans = [
            _span(2, 1, "gp_solve", 0.0, 1.0, depth=2),
            _span(1, None, "iteration", 0.0, 2.0,
                  gp_status="optimal", residual=1.25),
        ]
        record = build_run_record("size", "m", wall_s=2.0, spans=spans)
        assert record["gp"]["solves"] == 1
        assert record["gp"]["iterations"] == 1
        assert record["gp"]["final_residual_ps"] == pytest.approx(1.25)

    def test_non_finite_payloads_sanitized(self):
        record = build_run_record(
            "size", "m", wall_s=1.0,
            cache={"saved": float("inf")},
            extra={"residual": float("nan")},
        )
        blob = json.dumps(record, allow_nan=False)
        assert "Infinity" in blob and "NaN" in blob

    def test_parallel_rollup_utilization(self):
        workers = [
            _span(1, None, "topology", 0.0, 3.0),
            _span(2, None, "topology", 0.0, 3.0),
        ]
        rollup = perf.parallel_rollup(workers, workers=2, wall_s=4.0)
        assert rollup["busy_s"] == pytest.approx(6.0)
        assert rollup["utilization"] == pytest.approx(0.75)


class TestLedgerIntegration:
    """Acceptance criteria on a real advisor run: records for every layer,
    and attribution reconciles with the span tree."""

    def _advise(self):
        from repro.core.advisor import SmartAdvisor
        from repro.core.constraints import DesignConstraints
        from repro.macros.base import MacroSpec
        from repro.obs.trace import tracing_scope

        with ledger_scope() as ledger, tracing_scope() as tracer:
            SmartAdvisor().advise(
                MacroSpec("incrementor", 2),
                DesignConstraints(delay=900.0),
                topologies=["incrementor/ripple"],
            )
        return ledger, tracer

    def test_advise_emits_layered_records(self):
        ledger, tracer = self._advise()
        kinds = [r["kind"] for r in ledger.records]
        assert "advise" in kinds and "size" in kinds and "lint" in kinds
        advise = next(r for r in ledger.records if r["kind"] == "advise")
        assert advise["spec_fp"] and advise["context_fp"]
        assert advise["phases"]
        size = next(r for r in ledger.records if r["kind"] == "size")
        assert size["circuit_fp"] and size["spec_fp"]
        assert size["gp"]["iterations"] >= 1
        assert size["cache"]["hit"] == "miss"
        # the span-derived per-phase wall reconciles with the recorded wall
        # (the span additionally covers cache settle + record building, so
        # allow a few ms of close-out overhead)
        size_span = next(s for s in tracer.spans if s.name == "size")
        assert size["wall_s"] == pytest.approx(
            size_span.duration_s, rel=0.05, abs=5e-3
        )

    def test_attribution_reconciles_with_span_tree(self):
        _, tracer = self._advise()
        wall, self_sum = reconcile(tracer.spans)
        assert self_sum == pytest.approx(wall, rel=0.01)
        rows = attribution(tracer.spans)
        assert sum(r.self_s for r in rows) == pytest.approx(wall, rel=0.01)

    def test_ledger_records_are_strict_json(self):
        ledger, _ = self._advise()
        for record in ledger.records:
            json.dumps(record, allow_nan=False)

    def test_histogram_quantile_integration(self):
        from repro.obs import metrics

        with metrics.metrics_scope() as reg:
            h = reg.histogram("h")
            for value in [1.0, 2.0, 3.0, math.inf, math.nan]:
                h.observe(value)
            assert h.p50 == 2.0
            assert h.p99 == 3.0
            payload = h.to_dict()
            assert payload["max"] == "Infinity"
            json.dumps(payload, allow_nan=False)


class TestRuleRollup:
    """Per-rule wall-time attribution (the slowest-rules table)."""

    def _records(self):
        mk = lambda rule, wall, status: build_run_record(
            "rule", rule, wall_s=wall,
            extra={"circuit": "c", "status": status},
        )
        return [
            mk("DFA301", 0.5, "executed"),
            mk("DFA301", 0.3, "executed"),
            mk("DFA301", 0.0, "replayed"),
            mk("ERC001", 0.1, "executed"),
            build_run_record("lint", "c", wall_s=1.0),
        ]

    def test_rollup_totals_and_order(self):
        from repro.obs.perf import rule_rollup

        rows = rule_rollup(self._records())
        assert [r["rule"] for r in rows] == ["DFA301", "ERC001"]
        top = rows[0]
        assert top["wall_s"] == pytest.approx(0.8)
        assert top["max_s"] == pytest.approx(0.5)
        assert top["executed"] == 2
        assert top["replayed"] == 1

    def test_warm_lint_pass_counts_replays(self):
        from repro.lint import RuleResultCache, lint_circuit
        from repro.macros import default_database
        from repro.macros.base import MacroSpec
        from repro.models import Technology
        from repro.obs.perf import rule_rollup

        circuit = default_database().generator(
            "mux/strong_mutex_passgate"
        ).build(MacroSpec("mux", 4), Technology())
        cache = RuleResultCache()
        with ledger_scope() as ledger:
            lint_circuit(circuit, cache=cache)
            lint_circuit(circuit, cache=cache)
        rows = rule_rollup(ledger.records, top=1000)
        assert rows
        assert sum(r["replayed"] for r in rows) > 0
        assert sum(r["replayed"] for r in rows) == sum(
            r["executed"] for r in rows
        )

    def test_summary_renders_slowest_rules_section(self):
        from repro.obs.perf import render_ledger_summary

        text = render_ledger_summary(self._records())
        assert "slowest lint rules" in text
        assert "DFA301" in text
        # per-rule records do not flood the main listing
        assert text.count("\nrule") <= 1

    def test_summary_without_rule_records_unchanged(self):
        from repro.obs.perf import render_ledger_summary

        text = render_ledger_summary(
            [{"kind": "lint", "name": "c", "wall_s": 1.0}]
        )
        assert "slowest lint rules" not in text

    def test_summary_renders_electrical_margins_section(self):
        from repro.obs.perf import build_run_record, render_ledger_summary

        # build_run_record flattens extra kwargs onto the record, so the
        # renderer must read noise_margin at the top level.
        record = build_run_record(
            "electrical", "mux4_unsplit_domino", wall_s=0.004,
            extra={"noise_margin": -0.154},
        )
        text = render_ledger_summary([record])
        assert "electrical noise margins (NSA6xx, post-sizing)" in text
        assert "mux4_unsplit_domino" in text
        assert "-15.4%" in text
        # electrical records stay out of the main per-run table
        assert text.count("mux4_unsplit_domino") == 1

    def test_end_to_end_lint_ledger_has_rule_attribution(self, tmp_path):
        from repro.cli import main as cli_main
        from repro.obs.perf import RunLedger, render_ledger_summary

        ledger = str(tmp_path / "ledger.jsonl")
        assert cli_main([
            "--ledger", ledger,
            "lint", "mux", "4", "--topology", "mux/strong_mutex_passgate",
        ]) == 0
        text = render_ledger_summary(RunLedger(ledger).records)
        assert "slowest lint rules" in text
        assert "ERC" in text or "DFA" in text
