"""DFA303's hull pass against the per-arc ``Posynomial.enclose`` loop.

One :func:`repro.posy.rows.enclose_rows` call per box encloses every arc of
the circuit's ``ArcProgram`` (:meth:`ArcProgram.enclose`); the interval
analysis, the screen's slope checks and the nominal-point proof read it.
The reference (``reference_interval.py``) is the loop it replaced, one
``enclose`` per arc posynomial.

* Every registry topology at widths 2 to 8, both labelings, over the sizing
  box and over the nominal point: each arc's vector ``(lo, hi)`` and each
  pin's hull contain the reference's and stay within 1e-12 relative of it.
* On dyadic boxes, the vector bounds contain the exact ``Fraction`` range.
* The registry sweep of 245 screens gives the same verdicts and messages on
  the vector path as on the reference path, and the ones it gave before
  the hull pass.
"""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.lint.dataflow import interval
from repro.lint.dataflow.interval import (
    IntervalAnalysis,
    box_bounds,
    nominal_bounds,
    screen_feasibility,
)
from repro.macros import MacroSpec, default_database
from repro.models import ModelLibrary, Technology
from repro.posy import Posynomial
from repro.sim import StaticTimingAnalyzer
from repro.sim.timing import ArcProgram
from repro.sizing import DelaySpec
from repro.sizing.engine import nominal_delay

from ..sim.test_arc_compile import EXTRA, registry_circuits
from .reference_interval import (
    reference_enclose_posynomials,
    reference_hop_bounds,
    reference_hulls,
)

TECH = Technology()
LIB = ModelLibrary(TECH)
DB = default_database()
REL = 1e-12


def _contains(lo, hi, ref_lo, ref_hi):
    """``[lo, hi]`` contains ``[ref_lo, ref_hi]`` and is at most ``REL``
    relative wider on each side."""
    scale = max(abs(ref_lo), abs(ref_hi), 1e-300)
    return (
        lo <= ref_lo and hi >= ref_hi
        and ref_lo - lo <= REL * scale and hi - ref_hi <= REL * scale
    )


def _check_circuit(circuit):
    for bounds in (box_bounds(circuit), nominal_bounds(circuit)):
        analysis = IntervalAnalysis(circuit, LIB, 30.0, bounds)
        hulls = analysis.hulls
        program = hulls.program
        for a, hop in enumerate(program.hops):
            delay, slope = program.arc(a)
            assert _contains(
                hulls.d_lo[a], hulls.d_hi[a], *delay.enclose(bounds)
            ), (circuit.name, hop)
            assert _contains(
                hulls.s_lo[a], hulls.s_hi[a], *slope.enclose(bounds)
            ), (circuit.name, hop)
        for stage in circuit.stages:
            for pin in stage.inputs:
                vector = analysis._hop_bounds(stage, pin)
                ref = reference_hop_bounds(analysis, stage, pin)
                assert _contains(vector[0], vector[1], ref[0], ref[1])
                assert _contains(vector[2], vector[3], ref[2], ref[3])


@pytest.mark.parametrize("topology", [g.name for g in DB.topologies()])
def test_hulls_contain_the_per_arc_enclosures(topology):
    for circuit in registry_circuits(DB.generator(topology)):
        _check_circuit(circuit)


@pytest.mark.parametrize("case", sorted(EXTRA))
def test_hulls_on_pinned_tied_and_wired_circuits(case):
    _check_circuit(EXTRA[case]())


# -- exact ranges on dyadic boxes ---------------------------------------------

#: Small circuits covering every stage model, ratio ties and a wire.
PROPERTY_CASES = {
    "passgate": lambda: DB.generate(
        "mux/strong_mutex_passgate", MacroSpec("mux", 2), TECH
    ),
    "domino": lambda: DB.generate(
        "mux/unsplit_domino", MacroSpec("mux", 3), TECH
    ),
    "tristate": lambda: DB.generate("mux/tristate", MacroSpec("mux", 2), TECH),
    "ripple": lambda: DB.generate(
        "adder/static_ripple", MacroSpec("adder", 2), TECH
    ),
    "keeper-domino": lambda: DB.generate(
        "zero_detect/domino", MacroSpec("zero_detect", 4), TECH
    ),
    "collapse-tied": EXTRA["collapse-tied"],
    "wired-passgate": EXTRA["wired-passgate"],
}
_PROGRAMS = {}


def _program(case) -> ArcProgram:
    if case not in _PROGRAMS:
        circuit = PROPERTY_CASES[case]()
        _PROGRAMS[case] = (circuit, StaticTimingAnalyzer(circuit, LIB).arc_program())
    return _PROGRAMS[case][1]


def _exact_range(posy: Posynomial, box):
    lo = hi = Fraction(0)
    for sig, coeff in posy.items():
        t_lo = t_hi = Fraction(coeff)
        for name, exp in sig:
            assert exp == int(exp)
            lower, upper = box[name]
            if exp > 0:
                t_lo *= lower ** int(exp)
                t_hi *= upper ** int(exp)
            else:
                t_lo *= upper ** int(exp)
                t_hi *= lower ** int(exp)
        lo += t_lo
        hi += t_hi
    return lo, hi


@st.composite
def dyadic_box(draw, names):
    box = {}
    for name in names:
        scale = 2 ** draw(st.integers(min_value=0, max_value=12), label="scale")
        lower = Fraction(draw(st.integers(1, 2 ** 14), label="lower"), scale)
        width = Fraction(draw(st.integers(0, 2 ** 14), label="width"), scale)
        box[name] = (lower, lower + width)
    return box


@pytest.mark.parametrize("case", sorted(PROPERTY_CASES))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_hulls_contain_the_exact_range_on_dyadic_boxes(case, data):
    program = _program(case)
    box = data.draw(dyadic_box(program.index.names))
    hulls = program.enclose(lambda name: tuple(float(b) for b in box[name]))
    for a in range(len(program.hops)):
        delay, slope = program.arc(a)
        for posy, lo, hi in (
            (delay, hulls.d_lo[a], hulls.d_hi[a]),
            (slope, hulls.s_lo[a], hulls.s_hi[a]),
        ):
            exact_lo, exact_hi = _exact_range(posy, box)
            assert Fraction(lo) <= exact_lo <= exact_hi <= Fraction(hi)


# -- the registry sweep --------------------------------------------------------

SWEEP_WIDTHS = {
    "mux": (4, 8, 16),
    "zero_detect": (4, 8, 16),
    "incrementor": (4, 8, 16),
    "shifter": (4, 8, 16),
    "adder": (4, 8, 16),
    "register_file": (4, 8, 16),
    "decoder": (4, 8),
}
SWEEP_FACTORS = (0.3, 0.5, 0.75, 1.0, 1.2)
#: sha256 of the sweep's ``repr`` before the hull pass (the per-arc
#: ``enclose`` screen): every verdict and diagnostic message.
SWEEP_DIGEST = "cfab9d540f91305a8f9c922f18ea9494ac9ebf2c82b6f1baa08db4e37d798c5e"


def _sweep():
    """``(topology, width, factor, verdict, messages)`` per screen: every
    applicable topology of each macro at each width, budgeted at each factor
    times its own nominal-size delay."""
    rows = []
    for macro, widths in SWEEP_WIDTHS.items():
        for width in widths:
            spec = MacroSpec(macro, width)
            for generator in DB.applicable(spec):
                circuit = generator.generate(spec, TECH)
                nominal = nominal_delay(circuit, LIB)
                for factor in SWEEP_FACTORS:
                    screen = screen_feasibility(
                        circuit, LIB, DelaySpec(data=factor * nominal)
                    )
                    rows.append((
                        generator.name, width, factor, screen.verdict,
                        tuple(d.message for d in screen.report.diagnostics),
                    ))
    return rows


def test_registry_sweep_verdicts_match_the_reference(monkeypatch):
    vector = _sweep()
    monkeypatch.setattr(ArcProgram, "enclose", reference_hulls)
    monkeypatch.setattr(
        interval, "enclose_posynomials", reference_enclose_posynomials
    )
    reference = _sweep()
    monkeypatch.undo()

    assert vector == reference
    verdicts = [row[3] for row in vector]
    assert len(verdicts) == 245
    assert verdicts.count("provably-feasible") == 10
    assert verdicts.count("provably-infeasible") == 14
    assert verdicts.count("unknown") == 221
    assert hashlib.sha256(repr(vector).encode()).hexdigest() == SWEEP_DIGEST
