"""Interval-STA pre-GP screen: hit rate and wall-clock saved.

Not a paper figure — an infrastructure benchmark for the DFA303 screen.
Over a mix of over-constrained instances (1 ps: impossible for any macro)
we record how many the screen proves infeasible (the *hit rate*) and how
much cheaper the proof is than letting the GP-route reject the same spec
(pre-solve lint + solver); over generously-budgeted instances we record
that the screen never cries wolf.
"""

import time

import pytest

from conftest import pct, render_table
from repro.lint.dataflow.interval import screen_feasibility
from repro.macros import MacroSpec
from repro.sizing import DelaySpec, SizingError, SmartSizer

#: (label, topology, macro_type, width, budget ps) — representatives per
#: family kind (static, pass-gate, tristate, domino), all over-constrained.
#: The adder runs at a *non-trivial* 50 ps, where the saving is real: the
#: GP route must extract >1000 paths before its own lint can reject.
OVER_CONSTRAINED = [
    ("mux4_static", "mux/strong_mutex_passgate", "mux", 4, 1.0),
    ("mux8_tristate", "mux/tristate", "mux", 8, 1.0),
    ("mux8_domino", "mux/unsplit_domino", "mux", 8, 1.0),
    ("zdet8_domino", "zero_detect/domino", "zero_detect", 8, 1.0),
    ("dec4_domino", "decoder/domino", "decoder", 4, 1.0),
    ("inc8_ripple", "incrementor/ripple", "incrementor", 8, 1.0),
    ("cla16_domino", "adder/dual_rail_domino_cla", "adder", 16, 50.0),
]

GENEROUS = [
    ("mux4_static", "mux/strong_mutex_passgate", "mux", 4, 400.0),
    ("zdet8_static", "zero_detect/static_tree", "zero_detect", 8, 400.0),
]

IMPOSSIBLE_PS = 1.0


@pytest.fixture(scope="module")
def screen_results(database, library, tech):
    rows = []
    for label, topology, macro_type, width, budget in OVER_CONSTRAINED:
        circuit = database.generate(
            topology, MacroSpec(macro_type, width, output_load=30.0), tech
        )
        spec = DelaySpec(data=budget)

        t0 = time.perf_counter()
        screen = screen_feasibility(circuit, library, spec)
        screen_s = time.perf_counter() - t0

        # The route the screen short-circuits: build the GP and let the
        # pre-solve lint / solver reject it.
        t0 = time.perf_counter()
        with pytest.raises(SizingError):
            SmartSizer(circuit, library, pre_screen=False).size(spec)
        gp_route_s = time.perf_counter() - t0

        rows.append({
            "label": label,
            "verdict": screen.verdict,
            "screen_s": screen_s,
            "gp_route_s": gp_route_s,
        })
    return rows


def test_screen_hit_rate_and_savings_table(screen_results):
    hits = sum(r["verdict"] == "provably-infeasible" for r in screen_results)
    hit_rate = hits / len(screen_results)
    total_screen = sum(r["screen_s"] for r in screen_results)
    total_gp = sum(r["gp_route_s"] for r in screen_results)
    rows = [
        (
            r["label"], r["verdict"],
            f"{r['screen_s'] * 1e3:.1f}",
            f"{r['gp_route_s'] * 1e3:.1f}",
            f"{(r['gp_route_s'] - r['screen_s']) * 1e3:.1f}",
        )
        for r in screen_results
    ]
    rows.append((
        "TOTAL", f"hit rate {pct(hit_rate)}",
        f"{total_screen * 1e3:.1f}", f"{total_gp * 1e3:.1f}",
        f"{(total_gp - total_screen) * 1e3:.1f}",
    ))
    render_table(
        "Dataflow screen: interval-STA hit rate and wall-clock saved",
        ("instance", "verdict", "screen ms", "gp-route ms", "saved ms"),
        rows,
    )
    assert hit_rate == 1.0  # every over-constrained instance proven


def test_screen_never_cries_wolf(database, library, tech):
    for label, topology, macro_type, width, budget in GENEROUS:
        circuit = database.generate(
            topology, MacroSpec(macro_type, width, output_load=30.0), tech
        )
        screen = screen_feasibility(circuit, library, DelaySpec(data=budget))
        assert not screen.infeasible, (label, screen.verdict)
