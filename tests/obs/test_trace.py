"""Tracer: span nesting, JSONL round-trip, null-tracer behavior."""

import json

import pytest

from repro.obs import trace
from repro.obs.perf import render_attribution_report
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    load_jsonl,
    tracing_scope,
)


class TestNesting:
    def test_spans_record_parent_and_depth(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.depth == 0
        assert inner.depth == 1
        # children close before parents
        assert [s.name for s in tracer.spans] == ["inner", "outer"]

    def test_siblings_share_parent(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == root.span_id
        assert b.parent_id == root.span_id
        assert a.depth == b.depth == 1

    def test_durations_are_nonnegative_and_nested(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.duration_s >= 0.0
        assert outer.duration_s >= inner.duration_s

    def test_attrs_from_kwargs_and_set_attrs(self):
        tracer = Tracer()
        with tracer.span("s", macro="mux") as sp:
            sp.set_attrs(converged=True)
        assert sp.attrs == {"macro": "mux", "converged": True}

    def test_add_attrs_targets_innermost(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                tracer.add_attrs(x=1)
        assert inner.attrs == {"x": 1}
        assert outer.attrs == {}

    def test_exception_closes_span_and_marks_error(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        assert tracer.spans[0].t_end is not None
        assert "error" in tracer.spans[0].attrs
        # the stack is clean afterwards
        with tracer.span("after") as after:
            pass
        assert after.depth == 0

    def test_events_attach_to_current_span(self):
        tracer = Tracer()
        with tracer.span("run") as run:
            tracer.event("iteration_record", iteration=0, residual=1.5)
        assert len(tracer.events) == 1
        event = tracer.events[0]
        assert event.span_id == run.span_id
        assert event.attrs["residual"] == 1.5


class TestJsonlRoundTrip:
    def test_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("size", circuit="mux8"):
            with tracer.span("gp_solve", method="slsqp"):
                pass
            tracer.event("iteration_record", iteration=0, residual=0.25)
        path = str(tmp_path / "t.jsonl")
        tracer.write_jsonl(path)

        dump = load_jsonl(path)
        assert [s.name for s in dump.spans] == ["gp_solve", "size"]
        by_name = {s.name: s for s in dump.spans}
        assert by_name["gp_solve"].parent_id == by_name["size"].span_id
        assert by_name["size"].attrs == {"circuit": "mux8"}
        assert len(dump.events) == 1
        assert dump.events[0].attrs == {"iteration": 0, "residual": 0.25}
        assert dump.unix_time == pytest.approx(tracer.epoch_unix)

    def test_every_line_is_json(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a"):
            tracer.event("e", k="v")
        path = str(tmp_path / "t.jsonl")
        tracer.write_jsonl(path)
        with open(path) as fh:
            lines = [line for line in fh if line.strip()]
        assert len(lines) == 3  # header + event + span
        for line in lines:
            json.loads(line)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError):
            load_jsonl(str(path))

    def test_rendering_survives_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        path = str(tmp_path / "t.jsonl")
        tracer.write_jsonl(path)
        tree = load_jsonl(path).render_tree()
        assert "outer" in tree
        assert "  inner" in tree
        summary = render_attribution_report(load_jsonl(path).spans)
        assert "self-time attribution" in summary
        assert "% reconciled)" in summary
        assert "inner" in summary


class TestNonFiniteSanitization:
    """``json.dumps`` happily emits ``Infinity``/``NaN``, which strict JSON
    parsers reject — the engine's first iteration records
    ``worst_violation=inf`` and the infeasible-retarget branch records
    ``gp_objective=nan``, so the export boundary must sanitize them."""

    def _strict(self, text):
        def reject(token):
            raise ValueError(f"non-compliant JSON token: {token}")

        return json.loads(text, parse_constant=reject)

    def test_jsonl_lines_are_strict_json(self):
        tracer = Tracer()
        with tracer.span("iteration", residual=float("inf")):
            tracer.event(
                "iteration_record",
                gp_objective=float("nan"),
                residual=float("inf"),
                slack=float("-inf"),
            )
        for line in tracer.jsonl_lines():
            self._strict(line)

    def test_sentinels_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("size"):
            tracer.event(
                "iteration_record",
                gp_objective=float("nan"),
                residual=float("inf"),
            )
        path = str(tmp_path / "t.jsonl")
        tracer.write_jsonl(path)
        with open(path) as fh:
            for line in fh:
                self._strict(line)
        dump = load_jsonl(path)
        assert dump.events[0].attrs == {
            "gp_objective": "NaN", "residual": "Infinity"
        }

    def test_json_sanitize_recurses(self):
        from repro.obs import json_sanitize

        assert json_sanitize(
            {"a": float("inf"), "b": [float("nan"), {"c": float("-inf")}],
             "d": 1.5, "e": "text"}
        ) == {"a": "Infinity", "b": ["NaN", {"c": "-Infinity"}],
              "d": 1.5, "e": "text"}

    def test_infeasible_retarget_trace_is_strict_json(
        self, tmp_path, monkeypatch
    ):
        """End-to-end: a run that takes the infeasible-retarget branch (the
        nan/inf producer) must still emit a strictly parseable trace."""
        from repro.macros import MacroSpec, default_database
        from repro.models import ModelLibrary, Technology
        from repro.sizing import DelaySpec, SmartSizer
        from repro.sizing.gp import GeometricProgram, GPInfeasibleError

        tech = Technology()
        circuit = default_database().generate(
            "mux/strong_mutex_passgate", MacroSpec("mux", 4, output_load=30.0),
            tech,
        )
        calls = {"n": 0}
        real_solve = GeometricProgram.solve

        def flaky_solve(self, *args, **kwargs):
            index = calls["n"]
            calls["n"] += 1
            if index == 1:
                raise GPInfeasibleError("injected")
            return real_solve(self, *args, **kwargs)

        monkeypatch.setattr(GeometricProgram, "solve", flaky_solve)
        with tracing_scope() as tracer:
            SmartSizer(
                circuit, ModelLibrary(tech), pre_screen=False
            ).size(
                DelaySpec(data=400.0), tolerance=-1e9, max_outer_iterations=3
            )
        statuses = [
            e.attrs.get("gp_status")
            for e in tracer.events
            if e.name == "iteration_record"
        ]
        assert "infeasible-retarget" in statuses
        for line in tracer.jsonl_lines():
            self._strict(line)


class TestGraft:
    def test_subtrace_nests_under_open_span(self):
        worker = Tracer()
        with worker.span("topology"):
            with worker.span("gp_solve"):
                pass
            worker.event("iteration_record", iteration=0)

        parent = Tracer()
        with parent.span("advise") as advise:
            parent.graft(
                worker.spans, worker.events, epoch_unix=worker.epoch_unix
            )
        by_name = {s.name: s for s in parent.spans}
        assert by_name["topology"].parent_id == advise.span_id
        assert by_name["topology"].depth == 1
        assert by_name["gp_solve"].parent_id == by_name["topology"].span_id
        assert by_name["gp_solve"].depth == 2
        assert len(parent.events) == 1
        assert parent.events[0].span_id == by_name["topology"].span_id

    def test_ids_do_not_collide(self):
        worker = Tracer()
        with worker.span("w"):
            pass
        parent = Tracer()
        with parent.span("p"):
            parent.graft(worker.spans, epoch_unix=worker.epoch_unix)
            with parent.span("after"):
                pass
        ids = [s.span_id for s in parent.spans]
        assert len(ids) == len(set(ids))

    def test_times_rebased_within_parent(self):
        worker = Tracer()
        with worker.span("w") as w:
            pass
        parent = Tracer()
        with parent.span("p"):
            parent.graft(worker.spans, epoch_unix=worker.epoch_unix)
        grafted = next(s for s in parent.spans if s.name == "w")
        shift = worker.epoch_unix - parent.epoch_unix
        assert grafted.t_start - w.t_start == pytest.approx(shift)
        assert grafted.t_end - w.t_end == pytest.approx(shift)

    def test_graft_at_root_allowed(self):
        worker = Tracer()
        with worker.span("w"):
            pass
        parent = Tracer()
        parent.graft(worker.spans, epoch_unix=worker.epoch_unix)
        grafted = parent.spans[0]
        assert grafted.parent_id is None
        assert grafted.depth == 0

    def test_empty_graft_is_noop(self):
        parent = Tracer()
        parent.graft([], [], epoch_unix=parent.epoch_unix)
        assert parent.spans == []

    def test_null_tracer_graft_is_noop(self):
        NULL_TRACER.graft([], [], epoch_unix=0.0)


class TestGraftEpochRebasing:
    """Worker spans carry times relative to *their own* perf-counter epoch.
    Passing the worker's ``epoch_unix`` re-bases them exactly: the shift is
    the wall-clock skew between the two epochs, so two workers forked at
    different moments land at their true positions on the parent's axis."""

    @staticmethod
    def _worker_spans(t0, t1, name="w"):
        return [
            trace.SpanRecord(
                span_id=1, parent_id=None, name=name, depth=0,
                t_start=t0, t_end=t1,
            )
        ]

    def test_two_fake_worker_epochs_align_on_parent_axis(self):
        parent = Tracer()
        # Worker A forked 2 s after the parent's epoch, worker B 5 s after.
        # Both record an identical local interval [0.1, 0.4].
        epoch_a = parent.epoch_unix + 2.0
        epoch_b = parent.epoch_unix + 5.0
        with parent.span("advise"):
            parent.graft(
                self._worker_spans(0.1, 0.4, "a"), epoch_unix=epoch_a
            )
            parent.graft(
                self._worker_spans(0.1, 0.4, "b"), epoch_unix=epoch_b
            )
        a = next(s for s in parent.spans if s.name == "a")
        b = next(s for s in parent.spans if s.name == "b")
        assert a.t_start == pytest.approx(2.1)
        assert a.t_end == pytest.approx(2.4)
        assert b.t_start == pytest.approx(5.1)
        assert b.t_end == pytest.approx(5.4)
        # the 3 s fork skew between the workers is recovered exactly
        assert b.t_start - a.t_start == pytest.approx(3.0)
        # durations are untouched by re-basing
        assert a.duration_s == pytest.approx(0.3)
        assert b.duration_s == pytest.approx(0.3)

    def test_events_shift_with_their_epoch(self):
        parent = Tracer()
        epoch = parent.epoch_unix + 1.0
        events = [trace.EventRecord(name="e", t=0.25, span_id=1)]
        with parent.span("p"):
            parent.graft(
                self._worker_spans(0.1, 0.4), events, epoch_unix=epoch
            )
        assert parent.events[0].t == pytest.approx(1.25)


class TestByteIdenticalReExport:
    """export -> load -> re-export must be byte-identical: the
    streamed-vs-posthoc contract depends on replay fidelity.
    """

    def _make_trace(self):
        tracer = Tracer()
        with tracer.span("size", circuit="mux8", nested={"a": [1, 2.5]}):
            with tracer.span("gp_solve", status="optimal"):
                pass
            tracer.event(
                "iteration_record",
                residual=float("inf"),
                gp_objective=float("nan"),
                slack=float("-inf"),
            )
        return tracer

    def test_reexport_is_byte_identical(self, tmp_path):
        tracer = self._make_trace()
        first = str(tmp_path / "first.jsonl")
        second = str(tmp_path / "second.jsonl")
        tracer.write_jsonl(first)
        load_jsonl(first).write_jsonl(second)
        with open(first, "rb") as f1, open(second, "rb") as f2:
            assert f1.read() == f2.read()

    def test_double_round_trip_stable(self, tmp_path):
        tracer = self._make_trace()
        p1, p2, p3 = (str(tmp_path / f"{i}.jsonl") for i in (1, 2, 3))
        tracer.write_jsonl(p1)
        load_jsonl(p1).write_jsonl(p2)
        load_jsonl(p2).write_jsonl(p3)
        with open(p2, "rb") as f2, open(p3, "rb") as f3:
            assert f2.read() == f3.read()

    def test_interleaving_order_preserved(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer"):
            tracer.event("before")
            with tracer.span("inner"):
                pass
            tracer.event("after")
        path = str(tmp_path / "t.jsonl")
        tracer.write_jsonl(path)
        kinds = []
        with open(path) as fh:
            for line in fh:
                obj = json.loads(line)
                kinds.append((obj["type"], obj.get("name")))
        assert kinds == [
            ("trace", None),
            ("event", "before"),
            ("span", "inner"),
            ("event", "after"),
            ("span", "outer"),
        ]


class TestGlobalTracer:
    def test_disabled_by_default(self):
        assert isinstance(trace.get_tracer(), NullTracer)
        assert not trace.enabled()

    def test_null_tracer_span_is_shared_noop(self):
        cm1 = NULL_TRACER.span("a", x=1)
        cm2 = NULL_TRACER.span("b")
        assert cm1 is cm2
        with cm1 as sp:
            sp.set_attrs(anything=1)  # silently ignored
        NULL_TRACER.event("e", k="v")
        NULL_TRACER.add_attrs(k="v")

    def test_tracing_scope_activates_and_restores(self):
        before = trace.get_tracer()
        with tracing_scope() as tracer:
            assert trace.get_tracer() is tracer
            assert trace.enabled()
            with trace.span("via-module"):
                trace.event("e")
        assert trace.get_tracer() is before
        assert [s.name for s in tracer.spans] == ["via-module"]
        assert len(tracer.events) == 1

    def test_scope_restores_on_exception(self):
        before = trace.get_tracer()
        with pytest.raises(RuntimeError):
            with tracing_scope():
                raise RuntimeError
        assert trace.get_tracer() is before
