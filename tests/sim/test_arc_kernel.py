"""Arc tables are the same posynomials, term order included, whichever
product kernel built them.

Every circuit the advise benchmark's requests can generate (one per
applicable topology) is compiled twice: with the signature-level products
of :mod:`repro.posy.terms`, and with the object-by-object oracle of
``tests/posy/reference_posy.py`` patched in.  Each arc's delay and slope
term dicts must be equal as ordered lists.  The model hook
:meth:`StageModel.arc` is also checked against the per-line formulas it
replaced.
"""

import pytest

from repro.macros import MacroSpec, default_database
from repro.models import ModelLibrary, Technology
from repro.models.gates import LN2, PassGateModel, TriStateModel
from repro.netlist import PinClass, forget
from repro.posy import as_posynomial
from repro.sim import StaticTimingAnalyzer
from repro.sim.timing import stage_arcs

from ..posy.reference_posy import use_reference_products

TECH = Technology()
LIB = ModelLibrary(TECH)
DB = default_database()

#: (macro, width, output load) of every request of the advise benchmark
#: workload (``ADVISE_REQUESTS`` in ``benchmarks/perf/workloads.py``).
REQUESTS = (
    ("mux", 4, 20.0),
    ("mux", 8, 40.0),
    ("mux", 16, 20.0),
    ("zero_detect", 16, 40.0),
    ("zero_detect", 32, 20.0),
    ("decoder", 4, 40.0),
    ("incrementor", 8, 20.0),
    ("shifter", 8, 40.0),
    ("adder", 8, 40.0),
    ("register_file", 8, 20.0),
)


def _circuits(macro, width, load):
    spec = MacroSpec(macro, width, output_load=load)
    return [g.generate(spec, TECH) for g in DB.applicable(spec)]


def _hops(circuit):
    return [
        (stage.name, pin.name, out)
        for stage in circuit.stages
        for pin in stage.inputs
        for _in, out in stage_arcs(stage, pin)
    ]


def _compiled(circuit):
    """Every arc's (delay, slope) term lists, from a freshly built table."""
    forget(circuit)
    arcs = StaticTimingAnalyzer(circuit, LIB).path_arcs(_hops(circuit))
    return [
        (list(delay._terms.items()), list(slope._terms.items()))
        for delay, slope in arcs
    ]


@pytest.mark.parametrize("request_", REQUESTS, ids=lambda r: f"{r[0]}{r[1]}")
def test_arc_tables_match_reference_products(request_, monkeypatch):
    circuits = _circuits(*request_)
    assert circuits
    fast = [_compiled(circuit) for circuit in circuits]
    use_reference_products(monkeypatch)
    slow = [_compiled(circuit) for circuit in circuits]
    monkeypatch.undo()
    for circuit, fast_arcs, slow_arcs in zip(circuits, fast, slow):
        assert fast_arcs == slow_arcs, circuit.name


def _reference_arc(stage, pin, transition, load, table):
    """The pre-``arc`` model lines: ``delay`` and ``output_slope`` each
    form their own ``R·C`` product; select paths of pass gates and
    tri-states add the select-inverter delay."""
    model = LIB.model(stage)
    r = model.resistance(stage, pin, transition, table)
    delay = LN2 * (r * as_posynomial(load))
    slope = TECH.slope_gain * (r * as_posynomial(load))
    if pin.pin_class is PinClass.SELECT:
        r_inv = (TECH.r_pmos + TECH.r_nmos) / 2.0
        if isinstance(model, PassGateModel):
            w_inv = table.monomial(stage.label("sel_inv"))
            w_pass = table.monomial(stage.label("pass"))
            delay = delay + LN2 * ((r_inv / w_inv) * (TECH.c_gate * w_pass))
        elif isinstance(model, TriStateModel):
            delay = delay + LN2 * (r_inv / 0.25) * TECH.c_gate
    return delay, slope


def _arc_cases():
    """One (circuit, stage, pin, transition) per stage kind x pin class x
    output transition found in the request circuits."""
    cases = {}
    for request in REQUESTS:
        for circuit in _circuits(*request):
            for stage in circuit.stages:
                for pin in stage.inputs:
                    for _in, out in stage_arcs(stage, pin):
                        key = (stage.kind, pin.pin_class, out)
                        cases.setdefault(key, (circuit, stage, pin, out))
    return cases


def test_arc_is_the_one_model_hook():
    cases = _arc_cases()
    kinds = {kind for kind, _cls, _out in cases}
    assert len(kinds) >= 6, kinds
    assert {cls for _kind, cls, _out in cases} >= {
        PinClass.DATA, PinClass.SELECT, PinClass.CLOCK
    }
    for circuit, stage, pin, out in cases.values():
        table = circuit.size_table
        load = StaticTimingAnalyzer(circuit, LIB).load_posynomial(stage.output.name)
        delay, slope = LIB.arc(stage, pin, out, load, table)
        assert list(delay._terms.items()) == list(
            LIB.delay(stage, pin, out, load, table)._terms.items()
        )
        assert list(slope._terms.items()) == list(
            LIB.output_slope(stage, pin, out, load, table)._terms.items()
        )
        ref_delay, ref_slope = _reference_arc(stage, pin, out, load, table)
        assert list(delay._terms.items()) == list(ref_delay._terms.items())
        assert list(slope._terms.items()) == list(ref_slope._terms.items())
