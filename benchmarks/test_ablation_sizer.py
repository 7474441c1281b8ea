"""Sizer ablation: SMART's GP formulation vs the traditional iterative
sizer (TILOS-style, the paper's reference [1]).

Section 5's positioning claim, measured: the GP sizer (a) meets targets the
greedy heuristic gives up on, (b) matches or beats its area where both
succeed, and (c) simultaneously holds the slope/noise constraints the
heuristic never sees.
"""

import pytest

from conftest import render_table
from repro.macros import MacroSpec
from repro.sizing import DelaySpec, SmartSizer, TilosSizer
from repro.sizing.engine import measure_slopes, nominal_delay

CORPUS = [
    ("mux/strong_mutex_passgate", MacroSpec("mux", 4, output_load=30.0)),
    ("mux/unsplit_domino", MacroSpec("mux", 8, output_load=30.0)),
    ("zero_detect/static_tree", MacroSpec("zero_detect", 16, output_load=20.0)),
    ("decoder/flat_static", MacroSpec("decoder", 4, output_load=20.0)),
    ("incrementor/ripple", MacroSpec("incrementor", 8, output_load=20.0)),
]

TARGET_FRACTION = 0.85


@pytest.fixture(scope="module")
def comparison(database, library):
    rows = {}
    for topology, spec in CORPUS:
        circuit_t = database.generate(topology, spec, library.tech)
        target = TARGET_FRACTION * nominal_delay(circuit_t, library)
        tilos = TilosSizer(circuit_t, library).size(target)
        _o, tilos_slope = measure_slopes(circuit_t, library, tilos.widths)

        circuit_g = database.generate(topology, spec, library.tech)
        gp = SmartSizer(circuit_g, library).size(
            DelaySpec(data=target, max_output_slope=1e6, max_internal_slope=1e6)
        )
        gp_constrained = SmartSizer(
            database.generate(topology, spec, library.tech), library
        ).size(DelaySpec(data=target))
        _o2, gp_slope = measure_slopes(
            circuit_g, library, gp_constrained.widths
        ) if gp_constrained.converged else (0.0, float("nan"))
        rows[topology] = (target, tilos, gp, gp_constrained, tilos_slope, gp_slope)
    return rows


def test_sizer_comparison_table(comparison):
    table_rows = []
    for topology, (target, tilos, gp, gpc, ts, gs) in comparison.items():
        table_rows.append(
            (
                topology,
                f"{target:.0f}",
                ("met" if tilos.met else "FAILED") + f" / {tilos.area:.0f}um",
                ("met" if gp.converged else "FAILED") + f" / {gp.area:.0f}um",
                f"{ts:.0f}ps vs {gs:.0f}ps",
            )
        )
    render_table(
        "Sizer ablation: TILOS-style heuristic vs SMART GP "
        "(target / outcome / worst internal slope)",
        ("macro", "target ps", "TILOS", "SMART GP", "slopes (TILOS vs GP)"),
        table_rows,
    )


def test_gp_always_converges(comparison):
    for topology, (_t, _tilos, gp, _gpc, _ts, _gs) in comparison.items():
        assert gp.converged, topology


def test_gp_no_worse_where_both_meet(comparison):
    for topology, (_t, tilos, gp, _gpc, _ts, _gs) in comparison.items():
        if tilos.met:
            assert gp.area <= tilos.area * 1.10, topology


def test_gp_wins_somewhere(comparison):
    """At least one macro where the heuristic fails the target or needs
    more area — SMART's raison d'etre on macros."""
    wins = 0
    for topology, (_t, tilos, gp, _gpc, _ts, _gs) in comparison.items():
        if not tilos.met or gp.area < tilos.area * 0.97:
            wins += 1
    assert wins >= 1


def test_constrained_gp_bounds_slopes(comparison):
    # 15% headroom: the GP's slope constraints freeze upstream input slopes
    # at the spec value; the measured slope re-chains real upstream edges.
    for topology, (_t, _tilos, _gp, gpc, _ts, gs) in comparison.items():
        if gpc.converged:
            assert gs <= 350.0 * 1.15, topology


def test_tilos_iterates(database, library):
    spec = MacroSpec("mux", 4, output_load=30.0)
    circuit = database.generate("mux/strong_mutex_passgate", spec, library.tech)
    target = 0.9 * nominal_delay(circuit, library)
    assert TilosSizer(circuit, library).size(target).iterations > 0
