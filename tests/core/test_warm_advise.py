"""A warm advisor call replays what its cold call proved.

Oracle: each benchmark advise request asked cold and then warm on one
advisor must report, candidate by candidate, exactly what a fresh advisor
reports.  Properties: the warm call runs no interval screen, no path
extraction and no GP solve; every edit that changes what a screen or a
sizing reads forces a fresh screen and a sizing-cache miss.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.core.advisor import SmartAdvisor
from repro.core.constraints import DesignConstraints
from repro.lint.solution.certificate import widths_digest
from repro.lint.symbolic.mutate import MUTATIONS
from repro.macros import MacroSpec
from repro.models import ModelLibrary, Technology
from repro.netlist.memo import forget
from repro.netlist.nets import Net
from repro.obs import perf, trace
from repro.sizing.engine import SizingError, SmartSizer, nominal_delay

WORKLOADS = Path(__file__).resolve().parents[2] / "benchmarks/perf/workloads.py"


def _advise_requests():
    """``ADVISE_REQUESTS`` of the advise benchmark, read without importing
    the benchmark child (which calibrates the host on import)."""
    for node in ast.parse(WORKLOADS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "ADVISE_REQUESTS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("ADVISE_REQUESTS not found")


REQUESTS = _advise_requests()


def _request(database, library, macro, width, factor, load, ratio):
    spec = MacroSpec(macro, width, output_load=load)
    nominal = min(
        nominal_delay(g.generate(spec, library.tech), library)
        for g in database.applicable(spec)
    )
    return spec, DesignConstraints(
        delay=factor * nominal, charge_sharing_ratio=ratio
    )


def _observed(report):
    """What a designer reads off one report, candidate by candidate."""
    rows = []
    for cand in report.candidates:
        sizing = cand.sizing
        rows.append((
            cand.topology,
            cand.feasible,
            cand.reason,
            sizing.area if sizing is not None else None,
            dataclasses.asdict(cand.cost) if cand.cost is not None else None,
            cand.noise_margin,
            cand.certificate["ok"] if cand.certificate is not None else None,
            widths_digest(sizing.widths) if sizing is not None else None,
        ))
    return rows


@pytest.mark.parametrize(
    "request_", REQUESTS, ids=[f"{r[0]}{r[1]}x{r[2]:g}" for r in REQUESTS]
)
def test_warm_call_reports_what_a_fresh_advisor_reports(
    request_, database, library
):
    spec, constraints = _request(database, library, *request_)
    advisor = SmartAdvisor(database=database, library=library, certify=True)
    cold = advisor.advise(spec, constraints)
    warm = advisor.advise(spec, constraints)
    fresh = SmartAdvisor(
        database=database, library=library, certify=True
    ).advise(spec, constraints)
    assert _observed(warm) == _observed(fresh)
    assert _observed(cold) == _observed(fresh)


def _span_names(fn):
    with trace.tracing_scope() as tracer:
        fn()
    return [s.name for s in tracer.spans]


def test_warm_call_runs_no_screen_extraction_or_solve(database, library):
    spec, constraints = _request(database, library, *REQUESTS[0])
    spec8, constraints8 = _request(database, library, *REQUESTS[1])
    advisor = SmartAdvisor(database=database, library=library, certify=True)
    cold = _span_names(lambda: (
        advisor.advise(spec, constraints), advisor.advise(spec8, constraints8)
    ))
    for name in ("interval_screen", "path_extraction", "gp_solve"):
        assert name in cold
    warm = _span_names(lambda: (
        advisor.advise(spec, constraints), advisor.advise(spec8, constraints8)
    ))
    for name in ("interval_screen", "path_extraction", "gp_solve"):
        assert name not in warm
    stats = advisor.cache_stats()
    assert stats["screen_replays"] > 0
    assert stats["negative_hits"] > 0
    assert stats["cert_hits"] > 0


def test_ledger_records_negative_hits_and_screen_replays(database, library):
    spec, constraints = _request(database, library, *REQUESTS[0])
    advisor = SmartAdvisor(database=database, library=library, certify=True)
    with perf.ledger_scope() as ledger:
        advisor.advise(spec, constraints)
        advisor.advise(spec, constraints)
    cold, warm = [r for r in ledger.records if r["kind"] == "advise"]
    assert cold["cache"]["screen_replays"] == 0
    # Ledger cache counts are the advisor's running totals.
    assert warm["cache"]["screen_replays"] == len(
        advisor.database.applicable(spec)
    )
    assert warm["cache"]["negative_hits"] == advisor.cache.stats.negative_hits


# -- every edit forces a fresh screen and a miss ------------------------------

TOPOLOGY = "mux/strong_mutex_passgate"
MUX4 = MacroSpec("mux", 4, output_load=30.0)


def _screen_and_size(advisor, circuit, constraints):
    """Run the advisor's lint gate, DFA303 screen and sizer on ``circuit``;
    returns ``(screen replayed, sizing served from the cache)``."""
    replays = advisor._lint_cache.stats.screen_replays if advisor._lint_cache else 0
    before = advisor.cache.stats.as_dict()
    gate = advisor._lint_report(circuit)
    key = advisor._screen_key(gate.facets, constraints)
    advisor._screen_gate(circuit, constraints, key)
    sizer = SmartSizer(
        circuit, advisor.library, otb_borrow=constraints.otb_borrow,
        pre_screen=False, cache=advisor.cache,
    )
    try:
        sizer.size(constraints.to_delay_spec())
    except SizingError:
        pass
    after = advisor.cache.stats.as_dict()
    served = (
        after["exact_hits"] + after["negative_hits"]
        > before["exact_hits"] + before["negative_hits"]
    )
    return advisor._lint_cache.stats.screen_replays > replays, served


def _set_wire_cap(circuit, net_name, wire_cap):
    old = circuit.net(net_name)
    replacement = Net(old.name, old.kind, wire_cap, old.external_load, old.wire_res)
    circuit.nets[net_name] = replacement
    circuit._rebind_net(replacement)
    forget(circuit)


def _flip_phase(circuit):
    net = sorted(circuit.primary_inputs)[0]
    phase = "steady" if circuit.input_phase(net) != "steady" else "async"
    circuit.declare_input_phase(net, phase)


def _mutant(circuit):
    rewire = next(m[5] for m in MUTATIONS if m[1] == TOPOLOGY and m[3] == 4)
    rewire(circuit)


#: name -> (circuit edit, constraints edit, other library or None)
EDITS = {
    "pinned size": (lambda c: c.size_table.pin("N1", 3.0), None, None),
    "wire cap": (
        lambda c: _set_wire_cap(c, "out", c.net("out").wire_cap + 2.0),
        None, None,
    ),
    "input phase": (_flip_phase, None, None),
    "delay spec": (
        None, lambda k: dataclasses.replace(k, delay=k.delay * 1.05), None
    ),
    "otb borrow": (
        None, lambda k: dataclasses.replace(k, otb_borrow=10.0), None
    ),
    "library": (None, None, Technology(r_nmos=8.5)),
    "corpus mutant": (_mutant, None, None),
}


@pytest.mark.parametrize("budget", [0.9, 0.6], ids=["sized", "refused"])
@pytest.mark.parametrize("edit", sorted(EDITS))
def test_edit_forces_fresh_screen_and_miss(edit, budget, database, library):
    advisor = SmartAdvisor(database=database, library=library, certify=True)
    base = database.generate(TOPOLOGY, MUX4, library.tech)
    constraints = DesignConstraints(delay=budget * nominal_delay(base, library))
    assert _screen_and_size(advisor, base, constraints) == (False, False)
    again = database.generate(TOPOLOGY, MUX4, library.tech)
    assert _screen_and_size(advisor, again, constraints) == (True, True)

    edit_circuit, edit_constraints, tech = EDITS[edit]
    circuit = database.generate(TOPOLOGY, MUX4, library.tech)
    if edit_circuit is not None:
        edit_circuit(circuit)
    if edit_constraints is not None:
        constraints = edit_constraints(constraints)
    if tech is not None:
        shared = advisor
        advisor = SmartAdvisor(
            database=database, library=ModelLibrary(tech), cache=shared.cache,
            certify=True,
        )
        advisor._lint_cache = shared._lint_cache
    assert _screen_and_size(advisor, circuit, constraints) == (False, False)


# -- the noise margin replays beside the screen -------------------------------


def test_warm_call_replays_noise_margins(database, library):
    spec, constraints = _request(database, library, *REQUESTS[1])
    advisor = SmartAdvisor(database=database, library=library, certify=True)
    cold = advisor.advise(spec, constraints)
    sized = [c for c in cold.candidates if c.feasible]
    assert sized and advisor.cache_stats()["margin_replays"] == 0
    with trace.tracing_scope() as tracer:
        warm = advisor.advise(spec, constraints)
    assert advisor.cache_stats()["margin_replays"] == len(sized)
    assert "dataflow:interval" not in {s.name for s in tracer.spans}
    assert [c.noise_margin for c in warm.candidates] == [
        c.noise_margin for c in cold.candidates
    ]


def test_noise_margin_replay_keys_on_the_widths(database, library):
    from types import SimpleNamespace

    from repro.lint.electrical import worst_noise_margin

    advisor = SmartAdvisor(database=database, library=library)
    circuit = database.generate("mux/unsplit_domino", MUX4, library.tech)
    constraints = DesignConstraints(
        delay=nominal_delay(circuit, library), charge_sharing_ratio=0.3
    )
    key = advisor._screen_key(advisor._lint_report(circuit).facets, constraints)
    nominal = SimpleNamespace(resolved=circuit.size_table.default_env())
    wide = SimpleNamespace(
        resolved={k: 1.5 * v for k, v in nominal.resolved.items()}
    )
    first = advisor._noise_margin(circuit, constraints, nominal, key)
    assert advisor._noise_margin(circuit, constraints, nominal, key) == first
    assert advisor.cache_stats()["margin_replays"] == 1
    margin = advisor._noise_margin(circuit, constraints, wide, key)
    assert advisor.cache_stats()["margin_replays"] == 1
    assert margin == worst_noise_margin(
        circuit, library, options=advisor._electrical_options(constraints),
        env=wide.resolved,
    )
    assert margin != first
